// Fixture: a per-event obs instrument outside src/obs/ and
// src/platform/metrics.cc must fire [metric-instrument].
#include <cstdint>

#include "obs/metrics.h"

namespace medes {

void RecordHit(uint64_t& hits) {
  ++hits;
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Default().GetCounter("medes_fixture_hits_total", "fixture").Add(1);
  }
}

}  // namespace medes
