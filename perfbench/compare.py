#!/usr/bin/env python3
"""Diffs two benchmark captures, per workload and per metric.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from perfbench/capture.py. For every end-to-end metric of
every workload in both captures it prints each side's median and quartiles,
the pairs NEW won (runs paired by seed; ties count for neither side) and a
verdict from the metric's bound in BENCHMARK.json:

  unresolved  either side's spread (quartile distance over median) exceeds
              the bound, unless every NEW run beats every BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW won at least nine tenths of the pairs and the medians
              differ by more than BASE's quartile distance
  flat        none of the above

Each workload also gets a verdict on its failures, from the runs' `failed`
and `attempted` counts and exit codes:

  invalid     a NEW run exited non-zero or printed no result
  worse       NEW's failed share (failed over attempted, summed over runs)
              is higher than BASE's
  ok          neither

A gain on a metric does not count when the workload's failure verdict is
not "ok". Per-layer metrics of the traced runs, when both captures have
one, are listed side by side without a verdict. Exits 1 if any verdict is
"worse" or "invalid".
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def values_by_seed(entry, name):
    out = {}
    for run in entry["runs"]:
        result = run.get("result")
        if result and name in result["metrics"]:
            out[run["seed"]] = result["metrics"][name]["value"]
    return out


def failures(entry):
    """Returns (failed, attempted, runs that exited non-zero or had no result)."""
    failed = attempted = bad_runs = 0
    for run in entry["runs"]:
        result = run.get("result")
        if run["exit_code"] != 0 or not result:
            bad_runs += 1
        if result:
            failed += result["failed"]
            attempted += result["attempted"]
    return failed, attempted, bad_runs


def failure_verdict(base, new):
    b_failed, b_attempted, _ = base
    n_failed, n_attempted, n_bad = new
    if n_bad:
        return "invalid"
    b_share = b_failed / b_attempted if b_attempted else 0.0
    n_share = n_failed / n_attempted if n_attempted else 1.0
    return "worse" if n_share > b_share else "ok"


def quartiles(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return q1, med, q3


def verdict(base, new, better, bound):
    """Returns (verdict, pairs won by new, pairs compared)."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(new))
    won = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    spread_b = (b3 - b1) / bm if bm else 0.0
    spread_n = (n3 - n1) / nm if nm else 0.0
    all_better = all(sign * (n - b) > 0 for n in new.values()
                     for b in base.values())
    if (spread_b > bound or spread_n > bound) and not all_better:
        return "unresolved", won, len(seeds)
    if sign * (nm - bm) < -bound * abs(bm):
        return "worse", won, len(seeds)
    if seeds and won >= 0.9 * len(seeds) and abs(nm - bm) > (b3 - b1):
        return "better", won, len(seeds)
    return "flat", won, len(seeds)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    print(f"base {base.get('commit')} ({base.get('date')})  "
          f"new {new.get('commit')} ({new.get('date')})")
    any_worse = False
    for name in new["workloads"]:
        if name not in base["workloads"]:
            continue
        b_entry = base["workloads"][name]
        n_entry = new["workloads"][name]
        b_fail = failures(b_entry)
        n_fail = failures(n_entry)
        fv = failure_verdict(b_fail, n_fail)
        any_worse |= fv != "ok"
        print(f"\n{name}")
        for side, (failed, attempted, bad) in (("base", b_fail),
                                               ("new", n_fail)):
            print(f"  {side}: failed {failed}/{attempted}; runs that exited "
                  f"non-zero or printed no result: {bad}")
        print(f"  failures: {fv}")
        print(f"  {'metric':22s} {'base q1/median/q3':>36s} "
              f"{'new q1/median/q3':>36s} {'won':>6s}  verdict")
        for metric in bench["end_to_end"]:
            b = values_by_seed(b_entry, metric["name"])
            n = values_by_seed(n_entry, metric["name"])
            if not b or not n:
                continue
            v, won, pairs = verdict(b, n, metric["better"], metric["bound"])
            if v == "better" and fv != "ok":
                v = "flat (failures)"
            any_worse |= v == "worse"
            bq = "/".join(f"{x:.5g}" for x in quartiles(list(b.values())))
            nq = "/".join(f"{x:.5g}" for x in quartiles(list(n.values())))
            print(f"  {metric['name']:22s} {bq:>36s} {nq:>36s} "
                  f"{won:>3d}/{pairs:<2d}  {v}")
        bt = (b_entry.get("traced") or {}).get("result")
        nt = (n_entry.get("traced") or {}).get("result")
        if bt and nt:
            print("  per-layer (traced runs)")
            for metric in bench["per_layer"]:
                bv = bt["metrics"].get(metric["name"], {}).get("value")
                nv = nt["metrics"].get(metric["name"], {}).get("value")
                if bv is None or nv is None or (bv == 0 and nv == 0):
                    continue
                print(f"    {metric['name']:32s} {bv:>14.6g} {nv:>14.6g} "
                      f"{metric['unit']}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
