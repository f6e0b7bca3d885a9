#!/usr/bin/env python3
"""Runs the benchmark over several seeds and writes one capture file.

    python3 perfbench/capture.py --out capture.json [--seeds 1-10]
        [--workloads deep_proof,tcp_similar] [--seconds S] [--traced-seed N]

Run from the root of a checkout. Every run is `perfbench/run.py` with one
workload and one seed, one after the other. By default the capture runs the
workloads of BENCHMARK.json; --workloads may also name mixed_served. The capture keeps each run's
result; --traced-seed adds one traced run per workload. The printed table
gives each end-to-end metric's median, quartiles and spread (quartile
distance over median, as `statistics.quantiles(values, n=4)` gives the
quartiles) next to its bound in BENCHMARK.json. perfbench/compare.py diffs
two captures.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"seed": seed, "trace": trace, "exit_code": proc.returncode,
            "wall_s": round(wall, 3), "notes": lines[:-1] if lines else [],
            "stderr_tail": [line.replace(ROOT + os.sep, "") for line in
                            proc.stderr.strip().splitlines()[-5:]],
            "result": result}


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    args = parser.parse_args()

    capture = {"commit": commit(),
               "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "host": {"nproc": os.cpu_count(),
                        "machine": platform.machine(),
                        "processor": platform.processor()},
               "run_seconds": args.seconds, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, 0)
            runs.append(run)
            status = "ok" if run["exit_code"] == 0 else "FAILED"
            print(f"{workload} seed {seed}: {status} in {run['wall_s']} s",
                  file=sys.stderr)
        entry = {"runs": runs, "summary": {}}
        good = [r["result"] for r in runs if r["result"]]
        for name in bounds:
            values = [g["metrics"][name]["value"] for g in good
                      if name in g["metrics"]]
            if values:
                entry["summary"][name] = summarize(values)
        if args.traced_seed is not None:
            entry["traced"] = run_once(workload, args.traced_seed,
                                       args.seconds, 1)
        capture["workloads"][workload] = entry
        attempted = sum(g["attempted"] for g in good)
        failed = sum(g["failed"] for g in good)
        print(f"\n{workload}: failed_share {failed}/{attempted}")
        for name, s in entry["summary"].items():
            flag = ""
            if s["spread"] > bounds[name]:
                flag = "  OVER BOUND"
            elif s["spread"] > bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:22s} {units[name]:6s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        nonzero = sum(1 for r in runs if r["exit_code"] != 0)
        if nonzero:
            print(f"  {nonzero} of {len(runs)} runs exited non-zero")
    with open(args.out, "w") as f:
        json.dump(capture, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
