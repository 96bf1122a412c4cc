#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, reports.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all  # every workload, each in its own process

NAME is one of the workloads listed in BENCHMARK.json. The seed defaults to
0xa22e, the paper-reproduction default; HELD_OUT_SEED below is kept for
checking a claimed gain and is not used while a change is written.

The program is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root. Build output goes to stderr.
stdout carries the report: one line per metric — host (what the simulator
spent) or sim (what the modelled cluster did) — with its unit and sample
count, then, as the last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics (medians
of the run's samples); with --trace 1 they are its per_layer metrics, the
timed ones derived from the run's Chrome trace (written next to the build and
validated with `python3 -m scripts check-trace-json`).

Exit status: 0 when every output check passed; 1 when one failed (the
report is still printed, with "correct": false); 2 when nothing could be
run or measured (no sources, build failure, refused configuration).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0xA22E
HELD_OUT_SEED = 0xBE57
# The first run in a checkout builds; later runs find the build up to date.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spans the layer pass records around one module call each (see
# pipeline.cc); their self time is that layer's host time.
LAYER_SPANS = (
    "memstate.build_image",
    "checkpoint.capture",
    "chunking.fingerprint",
    "registry.lookup",
    "rdma.read",
    "delta.encode",
    "delta.decode",
    "common.sha1",
)
# Spans around whole calls: per_layer metric -> (span, unit scale from ns).
CALL_SPANS = {
    "dedupagent.dedup_op_ms": ("dedupagent.dedup_op", 1e-6),
    "dedupagent.restore_op_ms": ("dedupagent.restore_op", 1e-6),
    "dedupagent.background_ms": ("dedupagent.background", 1e-6),
    "workload.generate_s": ("workload.generate", 1e-9),
    "platform.run_s": ("platform.run", 1e-9),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Medes sources under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "medes_perfbench"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(step)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return build_dir, os.path.join(build_dir, "medes_perfbench")


def run_pass(binary, build_dir, workload, seed, seconds, trace, which):
    """Runs one pass of the binary; returns (document, exit code)."""
    cmd = [binary, "--workload", workload, "--pass", which, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace and which == "timed":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload} {which} pass: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        fail(f"{workload} {which} pass: the benchmark binary did not run (exit {done.returncode})")
    return json.loads(lines[-1]), done.returncode


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    """The check pass, then the timed pass, each in its own process, merged
    into one document; returns (document, exit code)."""
    check, check_code = run_pass(binary, build_dir, workload, seed, seconds, trace, "check")
    timed, timed_code = run_pass(binary, build_dir, workload, seed, seconds, trace, "timed")
    doc = dict(timed)
    doc["check_config"] = check["config"]
    doc["metrics"] = check["metrics"] + timed["metrics"]
    doc["layers"] = check["layers"] + timed["layers"]
    doc["attempted"] = check["attempted"] + timed["attempted"]
    doc["failed"] = check["failed"] + timed["failed"]
    doc["errors"] = check["errors"] + timed["errors"]
    if check["behaviour_digest"] != timed["behaviour_digest"]:
        doc["failed"] += 1
        doc["errors"].append(
            f"behaviour digest {timed['behaviour_digest']} at pool width "
            f"{timed['config']['pool_width']} differs from {check['behaviour_digest']} at "
            f"pool width {check['config']['pool_width']}")
    return doc, max(check_code, timed_code)


def span_metrics(trace_file):
    """Per-layer host time from the Chrome trace: self time per span name."""
    with open(trace_file, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    children_ns = {}
    for e in events:
        parent = e["args"]["parent_span_id"]
        if parent:
            children_ns[parent] = children_ns.get(parent, 0) + e["args"]["dur_ns"]
    self_ns, pages, durations = {}, {}, {}
    for e in events:
        name, args = e["name"], e["args"]
        self_ns[name] = self_ns.get(name, 0) + args["dur_ns"] - children_ns.get(args["span_id"], 0)
        pages[name] = pages.get(name, 0) + args["pages"]
        durations.setdefault(name, []).append(args["dur_ns"])
    busy = sum(self_ns.get(layer, 0) for layer in LAYER_SPANS)
    out = {}
    for layer in LAYER_SPANS:
        layer_pages = pages.get(layer, 0)
        out[f"{layer}_ns_per_page"] = self_ns.get(layer, 0) / layer_pages if layer_pages else 0.0
        out[f"{layer}_share"] = self_ns.get(layer, 0) / busy if busy else 0.0
    for metric, (span, scale) in CALL_SPANS.items():
        d = durations.get(span, [])
        out[metric] = statistics.mean(d) * scale if d else 0.0
    return out


def check_trace(trace_file):
    """Validates the trace with the repository's checker; returns an error or None."""
    done = subprocess.run([sys.executable, "-B", "-m", "scripts", "check-trace-json", trace_file],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    return None if done.returncode == 0 else done.stdout.strip()


def report(spec, doc, exit_code, trace):
    """Prints the human report; returns (correct, metrics dict for the last line)."""
    errors = list(doc["errors"])
    cfg = doc["config"]
    print(f"perfbench {doc['workload']} seed={doc['seed']} seconds={doc['seconds']:g} "
          f"trace={doc['trace']}")
    print(f"  config: build_type={cfg['build_type']} pool_width={cfg['pool_width']} "
          f"check_pool_width={doc['check_config']['pool_width']} nproc={cfg['nproc']} "
          f"kernel_tier_max_supported={cfg['kernel_tier_max_supported']} "
          f"sanitizer={cfg['sanitizer']}")
    print(f"  behaviour_digest={doc['behaviour_digest']} "
          "(check pass at check_pool_width = every timed repetition at pool_width)")
    attempted, failed = doc["attempted"], doc["failed"]
    ratio = failed / attempted if attempted else 1.0
    print(f"  both  failed_op_ratio {ratio:.6g} (failed {failed} of {attempted} ops attempted)")
    values = {}
    for m in doc["metrics"]:
        s = m["samples"]
        values[m["name"]] = statistics.median(s)
        if not trace:
            print(f"  {m['kind']:<5} {m['name']:<24} {statistics.median(s):.6g} {m['unit']} "
                  f"(median of n={len(s)}; {m['better']} is better; {m['basis']})")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        for m in doc["layers"]:
            values[m["name"]] = m["samples"][0]
        trace_file = doc["trace_file"]
        problem = check_trace(trace_file)
        if problem:
            errors.append(f"trace check: {problem}")
        else:
            values.update(span_metrics(trace_file))
        print(f"  trace: {trace_file} ({'invalid' if problem else 'valid'})")
    out = {}
    for w in wanted:
        key = w["name"]
        if key not in values:
            errors.append(f"metric {w['name']} was not measured")
            continue
        out[w["name"]] = {"value": values[key], "unit": w["unit"]}
        if trace:
            print(f"  layer {w['name']:<36} {values[key]:.6g} {w['unit']}")
    for e in errors:
        print(f"  ERROR: {e}")
    correct = exit_code == 0 and not errors and failed == 0
    return correct, out


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir, binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        doc, code = run_workload(binary, build_dir, workload, args.seed, args.seconds,
                                 args.trace == 1)
        correct, out = report(spec, doc, code, args.trace == 1)
        all_correct &= correct
        attempted += doc["attempted"]
        failed += doc["failed"]
        prefix = "" if len(workloads) == 1 else workload + "/"
        metrics.update({prefix + k: v for k, v in out.items()})
    print(json.dumps({"correct": all_correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
