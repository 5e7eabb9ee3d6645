#!/usr/bin/env python3
"""Stability check of the host-time benchmark.

Runs the benchmark command of BENCHMARK.json once per seed on every
workload and reports, for each metric, the median and the spread: the
distance between the first and third quartile of the per-run values
(statistics.quantiles, n=4) as a share of their median. A metric with a
bound passes when its spread stays under the bound (set-up time is only
reported); the goal is a third of the bound.

The metric catalogue comes from the benchmark itself (--catalogue); the
check fails when the committed METRICS.json or BENCHMARK.json no longer
match it.

It also runs every workload twice on a held-out seed (default 7) and
checks that the two runs are correct and give identical exact metrics.

With --compare, the medians are checked against an earlier result file:
no metric may be worse by more than its bound, and every exact metric must
be identical for every (workload, seed) that both sets ran.

Run from the root of a checkout:
    python3 hostbench/stability.py --seeds 11-20 --save _hostbench/set1.json
    python3 hostbench/stability.py --seeds 11-20 --compare _hostbench/set1.json
    python3 hostbench/stability.py --trace 1 --seeds 11-13 --workload serve-churn
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def catalogue(bench):
    """The benchmark's own catalogue; exits when a committed copy differs."""
    p = subprocess.run(bench["command"] + ["--catalogue"], capture_output=True,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"--catalogue: exit {p.returncode}\n{p.stderr[-2000:]}")
    cat = json.loads(p.stdout)
    if cat != json.load(open(os.path.join(HERE, "METRICS.json"))):
        sys.exit("hostbench/METRICS.json differs from --catalogue output")
    for key, fields in (("end_to_end", ("name", "unit", "better", "bound")),
                        ("per_layer", ("name", "unit", "better")),
                        ("workloads", ("name", "why"))):
        want = [{f: m[f] for f in fields} for m in cat[key]]
        if bench[key] != want:
            sys.exit(f"BENCHMARK.json {key} differ from --catalogue output")
    return cat


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{p.stderr[-2000:]}")
    # the uncalibrated figures of an end-to-end run, from its report
    res["raw"] = {name: float(m.group(1)) for name, pat in RAW.items()
                  for m in [re.search(pat, p.stdout)] if m}
    return res


RAW = {"raw ops_per_host_s": r"\n  ops_per_host_s: median (\S+)",
       "raw setup_s": r"\n  set-up \(\d+ runs\): median (\S+)"}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="11-20")
    ap.add_argument("--heldout", type=int, default=7)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cat = catalogue(bench)
    exact = {m["name"] for m in cat["end_to_end"] + cat["per_layer"] if m["exact"]}
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = seeds_of(args.seeds)
    results = {}
    ok = True
    for w in workloads:
        runs, raw = {}, {}
        for s in seeds:
            res = run(bench, w, s, args.trace)
            if set(res["metrics"]) != set(bounds):
                sys.exit(f"{w}: metric names differ from BENCHMARK.json")
            runs[s] = {k: v["value"] for k, v in res["metrics"].items()}
            raw[s] = res["raw"]
            print(f"  {w} seed {s}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[s].items()
                if args.trace == 0 or k in exact and k.endswith("_op"))
                + "".join(f", {k}={v:.6g}" for k, v in raw[s].items()), flush=True)
        results[w] = {str(s): {**runs[s], **raw[s]} for s in seeds}
        print(f"== {w}: {len(seeds)} seeds")
        for name, bound in bounds.items():
            med, sp = spread([runs[s][name] for s in seeds])
            verdict = ""
            if bound is not None:
                verdict = ("ok (< bound/3)" if sp < bound / 3
                           else "ok (< bound)" if sp <= bound else "TOO WIDE")
                ok &= sp <= bound
            if args.trace == 0 or bound is not None:
                print(f"  {name:24s} median {med:14.6g}  spread {sp:7.2%}"
                      + (f"  bound {bound:.2f}  {verdict}" if bound is not None else ""))
        for name in raw[seeds[0]]:
            med, sp = spread([raw[s][name] for s in seeds])
            print(f"  {name:24s} median {med:14.6g}  spread {sp:7.2%}  (not gated)")
        # held-out seed: two runs, identical exact metrics, correct outputs
        a = run(bench, w, args.heldout, args.trace)["metrics"]
        b = run(bench, w, args.heldout, args.trace)["metrics"]
        diff = [k for k in a if k in exact and a[k]["value"] != b[k]["value"]]
        print(f"  held-out seed {args.heldout}: correct twice; exact metrics "
              + ("identical" if not diff else f"DIFFER: {diff}"))
        ok &= not diff
        results[w]["heldout"] = {k: v["value"] for k, v in a.items()}

    if args.compare:
        old = json.load(open(args.compare))
        for w in workloads:
            if w not in old:
                continue
            common = [s for s in results[w] if s in old[w] and s != "heldout"]
            for name, bound in bounds.items():
                new_med = statistics.median(results[w][s][name] for s in common)
                old_med = statistics.median(old[w][s][name] for s in common)
                better = next(m["better"] for m in declared if m["name"] == name)
                worse = (old_med - new_med if better == "higher" else new_med - old_med)
                share = worse / abs(old_med) if old_med else 0.0
                if bound is not None and share > bound:
                    ok = False
                    print(f"  {w} {name}: second median worse by {share:.2%} > {bound}")
                if name in exact:
                    changed = [s for s in common
                               if results[w][s][name] != old[w][s][name]]
                    if changed:
                        ok = False
                        print(f"  {w} {name}: exact metric changed for seeds {changed}")
            for name in RAW:
                if all(name in old[w][s] and name in results[w][s] for s in common):
                    new_med = statistics.median(results[w][s][name] for s in common)
                    old_med = statistics.median(old[w][s][name] for s in common)
                    print(f"  {w} {name}: median {old_med:.6g} -> {new_med:.6g} "
                          f"({new_med / old_med - 1:+.2%}, not gated)")
            print(f"== {w}: compared with {args.compare} over {len(common)} seeds")

    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        json.dump(results, open(args.save, "w"), indent=1)
    print("STABLE" if ok else "NOT STABLE")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
