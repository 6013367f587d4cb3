"""Are the benchmark's figures steady?  Two sets of runs of the same code.

    python3 perfbench/steady.py [--runs N]

Run from the root of a checkout.  Each set runs every workload of
BENCHMARK.json N times (default 10) for its run_seconds, set A with
seeds 1..N and set B with seeds 101..100+N.  Per workload and end-to-end
metric it prints each set's median and spread (interquartile distance
over median, statistics.quantiles with n=4) against the metric's bound
in BENCHMARK.json, and whether
  - both spreads stay within the bound,
  - the two medians differ by no more than the bound, either way,
  - the share of failed operations is the same in every run.
The summary is also written to .perfbench/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}: {p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench", "runs", f"{workload}-seed{seed}-trace{trace}.json")) as f:
        result["record"] = json.load(f)
    print(f"  {workload} seed {seed} trace {trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed, correct={result['correct']}, "
          f"{result['record']['elapsed_s']:.0f} s", file=sys.stderr, flush=True)
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = {"A": range(1, args.runs + 1), "B": range(101, 101 + args.runs)}
    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for name, seeds in sets.items():
        print(f"set {name}", file=sys.stderr)
        for seed in seeds:
            for w in workloads:
                results[w][name].append(run_once(w, seed, seconds, 0))

    summary: dict = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    ok = True
    for w in workloads:
        runs = results[w]["A"] + results[w]["B"]
        shares = {(r["failed"] // r["record"]["passes"], r["attempted"] // r["record"]["passes"])
                  for r in runs}
        share_ok = len({r["failed"] / r["attempted"] for r in runs}) == 1
        correct = all(r["correct"] for r in runs)
        rows = {}
        print(f"\n{w}: failed/attempted per pass {sorted(shares)}, same share in every run: "
              f"{share_ok}, all correct: {correct}")
        print(f"  {'metric':12s} {'median A':>12s} {'median B':>12s} {'spread A':>9s} "
              f"{'spread B':>9s} {'B vs A':>8s} {'bound':>6s}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in results[w]["A"]]
            vb = [r["metrics"][name]["value"] for r in results[w]["B"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            steady = max(sa, sb) <= bound
            agree = abs(worse) <= bound
            verdict = "ok" if steady and agree else "NOT STEADY" if not steady else "MEDIANS DIFFER"
            if max(sa, sb) > bound / 3:
                verdict += " (spread above a third of the bound)"
            ok &= steady and agree
            rows[name] = {"median_A": ma, "median_B": mb, "spread_A": sa, "spread_B": sb,
                          "b_vs_a": worse, "bound": bound, "verdict": verdict, "A": va, "B": vb}
            print(f"  {name:12s} {ma:12.5g} {mb:12.5g} {sa:9.3f} {sb:9.3f} {worse:+8.3f} "
                  f"{bound:6.2f}  {verdict}")
        ok &= share_ok and correct
        summary["workloads"][w] = {"metrics": rows, "same_failed_share": share_ok,
                                   "all_correct": correct, "failed_per_pass": sorted(shares)}

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
