"""Tracing overhead: traced against untraced runs of the same seed.

    python3 perfbench/overhead.py

Run from the root of a checkout.  For each workload and seed 1..3 it
runs run.py untraced and traced back to back, alternating which goes
first, and compares the median pass wall times of the two runs.  The
machine's speed drifts between runs, so the median over the K pairs is
the estimate.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from steady import ROOT, run_once

PAIRS = 3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [x["name"] for x in bench["workloads"]]:
        diffs = []
        for seed in range(1, PAIRS + 1):
            order = (0, 1) if seed % 2 else (1, 0)
            walls = {t: statistics.median(run_once(w, seed, bench["run_seconds"], t)["record"]["pass_wall_s"])
                     for t in order}
            diffs.append((walls[1] - walls[0]) / walls[0])
            print(f"  {w} seed {seed}: pass wall {walls[0]:.3f} s untraced, {walls[1]:.3f} s traced, "
                  f"{diffs[-1]:+.1%}", flush=True)
        print(f"{w}: tracing overhead {statistics.median(diffs):+.1%} (median of {len(diffs)} pairs)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
