"""Benchmark of eisen: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ./src.  The
run repeats whole passes over the workload's seeded op list within S
seconds (at least one pass), each pass in fresh processes, then checks
every output against perfbench/oracle.py.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics (end-to-end
with --trace 0, per-layer with --trace 1).  A summary goes to stderr
and a run record to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from worker import SPANS_MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.eisen_s": "s", "cli.run_s": "s",
    "factor.iter_lattice_blocks_s": "s", "factor.lattice_norms_angles_cold_s": "s",
    "factor.lattice_norms_angles_warm_s": "s", "factor.lattice_points": "count",
    "factor.lattice_bytes": "bytes", "factor.split_prime_angles_s": "s",
    "factor.primes_up_to_s": "s", "factor.is_prime_s": "s", "factor.factor_int_s": "s",
    "factor.split_prime_generator_s": "s", "factor.circle_points_s": "s", "core.arg_s": "s",
    "expsum.circle_sums_s": "s", "expsum.exp_sum_s": "s", "angles.ideal_stats_s": "s",
    "angles.bad_circle_s": "s", "discrepancy.survey_sweep_s": "s",
    "discrepancy.survey_circles": "count", "discrepancy.representable_sieve_s": "s",
    "discrepancy.discrepancy_exact_s": "s", "discrepancy.erdos_turan_bound_s": "s",
    "analytic.theta_s": "s", "analytic.xi_integral_s": "s", "analytic.li_s": "s",
    "analytic.l_dirichlet_s": "s",
}


class Child:
    """One finished child process: exit code, output, wall time and rusage."""

    def __init__(self, argv: list[str], stdin: bytes, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, cwd=ROOT, env=env)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), p.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        try:
            try:
                p.stdin.write(stdin)
                p.stdin.close()
            except BrokenPipeError:
                pass
            self.stdout = p.stdout.read().decode()
            reader.join()
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = self.code = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if p.returncode is None:
                p.kill()
                p.wait()
            p.stdout.close()
            p.stderr.close()
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0  # KiB on Linux
        self.stderr = b"".join(err).decode()
        if time.monotonic() >= deadline:
            raise RuntimeError(f"run exceeded {RUN_LIMIT_S:.0f} s in {argv[1:4]}")


def tail(times: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it.  Below 40
    samples no percentile is a tail, and the median stands alone."""
    s = sorted(times)
    return s[-11] if len(s) >= 40 else statistics.median(s)


def run_pass(workload: str, ops: list, trace: bool, deadline: float) -> dict:
    """Run the op list once in fresh processes; outputs stay unchecked here."""
    py = sys.executable
    if workload == "cli-oneshot":
        kids, outs, dumps = [], [], []
        for op in ops:
            argv = [py, WORKER, "cli", "--trace", *op[1:]] if trace else [py, "-m", "eisen.cli", *op[1:]]
            c = Child(argv, b"", deadline)
            stderr = c.stderr
            if trace:
                stderr, _, dump = stderr.partition(SPANS_MARKER + "\n")
                dumps.append(json.loads(dump))
            kids.append(c)
            outs.append([c.code, c.stdout, stderr])
        return {"wall_s": sum(c.wall_s for c in kids), "cpu_s": sum(c.cpu_s for c in kids),
                "peak_rss_mb": max(c.rss_mb for c in kids), "op_s": [c.wall_s for c in kids],
                "outs": outs, "dumps": dumps}
    argv = [py, WORKER, "ops"] + (["--trace"] if trace else [])
    c = Child(argv, json.dumps(ops).encode(), deadline)
    if c.code != 0:
        raise RuntimeError(f"worker exited {c.code}: {c.stderr.strip()[-2000:]}")
    res = json.loads(c.stdout)
    return {"wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mb": c.rss_mb,
            "op_s": [r[0] for r in res["ops"]],
            "outs": [r[1:] for r in res["ops"]],  # [output] or [None, error]
            "dumps": [res["trace"]] if trace else []}


def check_pass(chk, ops: list, outs: list) -> list[str | None]:
    """Reason each op failed, or None."""
    reasons = []
    for op, out in zip(ops, outs):
        if op[0] == "cli":
            reasons.append(chk.cli(op[1:], *out))
        elif out[0] is None:
            reasons.append(out[1])
        else:
            reasons.append(getattr(chk, op[0])(*op[1:], out[0]))
    return reasons


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "eisen")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "eisen", "__init__.py")):
        print(f"error: no eisen package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    import workloads  # sympy, mpmath and numpy: loaded before anything is timed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "eisen"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    ops = workloads.WORKLOADS[args.workload](args.seed, threads)
    trace = bool(args.trace)

    setup = [] if trace else [Child([sys.executable, "-c", "import eisen"], b"", deadline).wall_s
                              for _ in range(SETUP_SAMPLES)]
    # whole passes inside the window: another pass starts only if one of the
    # median length so far still ends within it, so one stalled pass does
    # not cut the number of passes that its median is taken over
    med = statistics.median
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 + med(p["wall_s"] for p in passes) <= args.seconds:
        passes.append(run_pass(args.workload, ops, trace, deadline))
    # checks: the first pass against the oracle, later passes against the first
    t_check = time.monotonic()
    chk = workloads.Checker()
    first = check_pass(chk, ops, passes[0]["outs"])
    failures, nondeterministic = [], 0
    for p in passes:
        for op, out, out0, why in zip(ops, p["outs"], passes[0]["outs"], first):
            if out != out0:
                nondeterministic += 1
                why = check_pass(chk, [op], [out])[0] or why
            if why is not None:
                failures.append((op, why))
    cross = chk.survey_monotone(ops, [o[0] for o in passes[0]["outs"]]) if args.workload == "lattice-sweep" else None
    unknown = sorted({json.dumps(op) for op, _ in failures} - set(workloads.KNOWN_FAULTS))
    correct = not unknown and not nondeterministic and cross is None
    t_check = time.monotonic() - t_check

    if trace:
        # the workload's own passes only: a layer it does not call reads 0
        import spans
        per_pass = [spans.summarize(p["dumps"]) for p in passes]
        metrics = {k: med(m[k] for m, _ in per_pass) for k in PER_LAYER}
        units = PER_LAYER
        detail = [names for _, names in per_pass]
    else:
        metrics = {
            "setup_s": med(setup),
            "wall_s": med(p["wall_s"] for p in passes),
            "cpu_s": med(p["cpu_s"] for p in passes),
            "op_p50_ms": med(med(p["op_s"]) for p in passes) * 1e3,
            "op_tail_ms": med(tail(p["op_s"]) for p in passes) * 1e3,
            "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
        detail = None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "source_sha256_16": source_digest(), "nproc": nproc, "threads": threads,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": len(ops) * len(passes), "failed": len(failures),
        "failures": sorted({f"{json.dumps(op)[:120]}: {why}" for op, why in failures}),
        "unexpected_failures": unknown, "nondeterministic_outputs": nondeterministic,
        "cross_check": cross, "correct": correct, "metrics": metrics, "spans": detail,
        "check_s": t_check, "elapsed_s": time.monotonic() - start,
    }
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "runs", name), "w") as f:
        json.dump(record, f, indent=1)

    for k, v in metrics.items():
        print(f"{args.workload:14s} {k:36s} {v:14.6g} {units[k]}", file=sys.stderr)
    print(f"{args.workload}: {record['attempted']} attempted, {record['failed']} failed, "
          f"{len(passes)} passes, correct={correct}, checks {t_check:.1f} s, "
          f"run {record['elapsed_s']:.1f} s", file=sys.stderr)
    for line in record["failures"]:
        print(f"  failed: {line}", file=sys.stderr)
    if unknown or nondeterministic or cross:
        print(f"  incorrect: unexpected {unknown}, nondeterministic {nondeterministic}, {cross}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
