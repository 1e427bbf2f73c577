#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

Run from the root of a checkout:

    python3 bench/perf/run.py --workload mailstore_local --seed 1 --seconds 10 --trace 0

Builds bench/perf/perfbench.exe from source with dune, runs it, prints its
report, and ends with one JSON line: correct, attempted, failed and the
metrics BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
--trace 1).  Peak resident memory (peak_rss_mb) is read here, from outside
the measured process.  With --trace 1 the traced spans are written to
PERFBENCH_trace.json (Chrome trace format).  Exits non-zero when the
checkout is incomplete, the build fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

TARGET = "bench/perf/perfbench.exe"
EXE = "_build/default/" + TARGET
TRACE_OUT = "PERFBENCH_trace.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def declared(spec, trace):
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("bench", "perf", "dune"), "BENCHMARK.json"):
        if not os.path.exists(need):
            die("run from the root of a full checkout (%s is missing)" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        die("build failed", 1)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", TRACE_OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if not lines:
        die("perfbench printed nothing (exit %d)" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("perfbench's last line is not JSON (exit %d)" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        print("  %-38s %14.6g %s" % ("peak_rss_mb", usage.ru_maxrss / 1024.0, "MB"))
    want = declared(spec, args.trace)
    got = sorted((k, v["unit"]) for k, v in metrics.items())
    if got != sorted(want):
        die("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)), 1)
    result["metrics"] = {name: metrics[name] for name, _ in want}
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
