#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the driver (perfbench/CMakeLists.txt,
which compiles the library from src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. Untraced runs report the end_to_end metrics of
BENCHMARK.json, traced runs its per_layer metrics; a per-layer metric the
workload cannot observe reads 0. Traced runs also write their spans to
<build>/traces/<workload>-seed<N>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_driver")


def tcp_flags(config):
    tcp = config["tcp_similar"]
    return ["--rates", ",".join(str(r) for r in tcp["rates_per_s"]),
            "--reference-rate", str(tcp["reference_rate_per_s"]),
            "--tail-limit-ms", str(tcp["tail_limit_ms"])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "stripack.hpp")):
        fail("no stripack sources under src/; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    workloads = ([w["name"] for w in bench["workloads"]] +
                 config.get("extra_workloads", []))
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")

    out_dir = build_dir()
    driver = build(out_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "tcp_similar":
        cmd += tcp_flags(config)
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 and not lines:
        fail(f"driver exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no JSON result")

    # Every declared metric is reported, and nothing else.
    declared = bench["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(result["metrics"]) - names)
    if extra:
        fail(f"driver reported undeclared metrics {extra}")
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"driver did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = got
    result["metrics"] = metrics

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
