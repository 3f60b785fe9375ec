#!/usr/bin/env python3
"""End-to-end netplay benchmark for rtct.

Builds the benchmark binary (e2ebench/CMakeLists.txt compiles ../src from source into
.bench_build/e2ebench) and runs one workload:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is the binary's JSON result. --trace 1 also writes the
traced match's spans as Chrome trace-event JSON to
.bench_build/traces/NAME.json (each traced run overwrites it).

    python3 e2ebench/run.py --smoke

plays every workload (the ungated lockstep_maxrate too) for a few frames,
traced and untraced, with every correctness check on, and checks that each
result carries exactly the metrics BENCHMARK.json names. Exit code 0 means
all passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_netplay")
RUN_TIMEOUT_S = 170
# Runnable by name but not part of BENCHMARK.json: its figures could not be
# made steady on a shared host (see NOTES.md). The smoke test still plays it.
UNGATED_WORKLOADS = ["lockstep_maxrate"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: rtct sources not found next to the benchmark", file=sys.stderr)
        return False
    steps = [["cmake", "--build", BUILD, "--target", "e2e_netplay", "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_bench(args):
    """Runs e2e_netplay; returns its parsed result, or None on any failure."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("e2ebench: e2e_netplay timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("e2ebench: e2e_netplay exited with %d" % proc.returncode, file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("e2ebench: e2e_netplay printed no JSON result", file=sys.stderr)
        return None
    return result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS:
        for trace in (0, 1):
            result = run_bench(["--workload", workload, "--seed", "7", "--seconds", "2",
                                 "--trace", str(trace), "--frames", "120", "--matches", "2"])
            problems = []
            if result is None:
                problems.append("no result")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%d frames in failed matches" % result["failed"])
                if set(result["metrics"]) != expected[trace]:
                    problems.append("metric names differ from BENCHMARK.json: %s" %
                                    sorted(set(result["metrics"]) ^ expected[trace]))
            status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
            print("smoke %-26s trace=%d: %s" % (workload, trace, status))
            ok = ok and not problems
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and not a.workload:
        p.error("--workload is required")
    if not build():
        return 1
    if a.smoke:
        return 0 if smoke() else 1
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, a.workload + ".json")]
    result = run_bench(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
