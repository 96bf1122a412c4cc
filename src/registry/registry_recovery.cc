#include "registry/registry_recovery.h"

#include "obs/trace.h"

namespace medes {

RecoveryReport RecoverInto(store::StateStore& store, RegistryBackend& registry,
                           const RecoveryValidator& validate) {
  obs::ScopedSpan span("store/recover", "store", SimTime{});
  RecoveryReport report;
  report.store_state = store.Recover();

  // Recovered state is already durable: suppress re-logging while replaying
  // it into the registry (residency is still admitted).
  store.SetReplaying(true);
  for (const store::RecoveredSandbox& sb : report.store_state.sandboxes) {
    if (validate != nullptr && !validate(sb)) {
      ++report.rejected_sandboxes;
      continue;
    }
    registry.InsertBaseSandbox(sb.node, sb.sandbox, sb.fingerprints);
    ++report.recovered_sandboxes;
    report.recovered_pages += sb.pages.size();
  }
  store.SetReplaying(false);
  return report;
}

}  // namespace medes
