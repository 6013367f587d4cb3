"""One fresh process of a benchmark pass.

    worker.py ops [--trace]        run the op list read from stdin as library
                                   calls; print times and outputs as JSON
    worker.py cli [--trace] ARGS   run `eisen ARGS` through cli.run

Only the standard library and eisen are imported, so the process costs
what a user's process costs.  With --trace the spans are printed as
JSON: on stdout after the results for `ops`, on stderr
after a marker line for `cli`, whose stdout is the program's own.
"""

from __future__ import annotations

import json
import sys
import time

from spans import Recorder

SPANS_MARKER = "--- perfbench spans ---"


def _import_eisen(rec: Recorder | None, cli: bool):
    t0 = time.perf_counter_ns()
    import eisen
    if cli:
        import eisen.cli
    t1 = time.perf_counter_ns()
    if rec is not None:
        rec.span("import.eisen", t0, t1)
        rec.install()
    return eisen


def _cpx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _calls(e):
    """op kind -> (call, encoder of the result to JSON)."""
    return {
        "r_q": (e.r_q, int),
        "circle_points": (e.circle_points, lambda r: [[z.a, z.b] for z in r.points]),
        "factor_eisenstein": (e.factor_eisenstein, lambda f: {
            "unit_power": f.unit_power, "alpha3": f.alpha3,
            "split": [[r.p, r.pi.a, r.pi.b, e1, e2] for r, e1, e2 in f.split_factors],
            "inert": [list(q) for q in f.inert_factors]}),
        "exp_sum": (e.exp_sum, lambda v: _cpx(v.value)),
        "discrepancy_exact": (e.discrepancy_exact, lambda d: [d.count, d.delta, *d.witness]),
        "erdos_turan_bound": (e.erdos_turan_bound, float),
        "factor_int": (e.factor_int, lambda f: sorted(f.items())),
        "theta": (e.theta, float),
        "theta_transform_residual": (e.theta_transform_residual, float),
        "xi_integral": (lambda re, im, a: e.xi_integral(complex(re, im), a), _cpx),
        "li": (e.li, float),
        "discrepancy_survey": (lambda x, g, th: e.discrepancy_survey(x, g, threads=th),
                               lambda r: [r.b_q, r.m_gamma, r.fraction]),
        "avg_exp_sum": (lambda x, A, cps, th: e.avg_exp_sum(x, A, checkpoints=cps, threads=th),
                        lambda r: [[list(c) for c in r.checkpoints], r.fitted_exponent]),
        "b_q": (e.b_q, int),
        "sector_count": (lambda x, p1, p2: e.sector_count(e.SectorQuery(x, p1, p2)), list),
        "chi_prime_sum": (e.chi_prime_sum, lambda v: _cpx(v.value)),
        "theta_equidistribution_stat": (e.theta_equidistribution_stat, float),
        "l_dirichlet": (lambda re, im, a: e.l_dirichlet(complex(re, im), a), _cpx),
    }


def _run(eisen, ops: list) -> list:
    calls = _calls(eisen)
    results = []
    for kind, *args in ops:
        fn, encode = calls[kind]
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, reported with its reason
            results.append([time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"])
            continue
        results.append([time.perf_counter() - t0, encode(out)])
    return results


def run_ops(ops: list, trace: bool) -> None:
    rec = Recorder() if trace else None
    eisen = _import_eisen(rec, cli=False)
    json.dump({"ops": _run(eisen, ops), "trace": rec.dump() if rec else None}, sys.stdout)


def run_cli(argv: list[str], trace: bool) -> int:
    rec = Recorder() if trace else None
    eisen = _import_eisen(rec, cli=True)
    code = eisen.cli.run(argv)
    sys.stdout.flush()
    if rec is not None:
        print(SPANS_MARKER, file=sys.stderr)
        json.dump(rec.dump(), sys.stderr)
    return code


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    if mode == "ops":
        run_ops(json.load(sys.stdin), trace)
    elif mode == "cli":
        return run_cli(rest, trace)
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
