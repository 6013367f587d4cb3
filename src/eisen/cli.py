"""Command line front end.

One record per result line: JSON objects by default, CSV rows with
--format csv (meant for piping point dumps into plotting tools).
Exit status is 0 on success, 2 for bad usage or a rejected argument,
and 1 for an internal failure.  Each subcommand imports the one module it
calls, so only the lattice statistics, xi-check and lfunc pay for loading
numpy: rq, points, factor, expsum, bad-circle, theta, theta-check and li
start without it, as does a rejected sector.  The subcommands and their
arguments are one table, _COMMANDS, and run() checks --threads and
EISEN_THREADS once, for every subcommand.  main() sets
OPENBLAS_NUM_THREADS to 1 unless the caller set it, so numpy starts no idle
BLAS pool and the process runs on one thread; run() leaves it alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys


def _round15(v: float) -> float:
    """Floats are emitted with 15 significant digits (round-trip safe)."""
    return float(f"{v:.15g}")


class _Output:
    """Writes one record per call, JSON lines or CSV with a header row."""

    def __init__(self, command: str, fmt: str):
        self.command = command
        self.fmt = fmt
        self._writer = None

    def emit(self, params: dict, result, error_estimate=None) -> None:
        if self.fmt == "json":
            rec = {"command": self.command, "params": params, "result": result}
            if error_estimate is not None:
                rec["error_estimate"] = error_estimate
            print(json.dumps(rec, allow_nan=False))
            return
        row = dict(result) if isinstance(result, dict) else {"result": result}
        if error_estimate is not None:
            row["error_estimate"] = error_estimate
        flat = {
            k: json.dumps(v) if isinstance(v, (list, dict)) else v
            for k, v in row.items()
        }
        if self._writer is None:
            self._writer = csv.DictWriter(sys.stdout, fieldnames=list(flat))
            self._writer.writeheader()
        self._writer.writerow(flat)


def _cmd_points(args, out: _Output) -> None:
    from . import factor
    for angle, a, b in factor._circle_args(args.n):  # circle_points' order and angles
        out.emit({"n": args.n}, {"a": a, "b": b, "angle": _round15(angle)})


def _cmd_rq(args, out: _Output) -> None:
    from . import factor
    out.emit({"n": args.n}, factor.r_q(args.n))


def _cmd_factor(args, out: _Output) -> None:
    from . import factor
    f = factor.factor_eisenstein(args.n)
    result = {
        "n": f.n,
        "unit_power": f.unit_power,
        "alpha3": f.alpha3,
        "split": [
            {"p": rec.p, "pi": [rec.pi.a, rec.pi.b], "exp_pi": e1, "exp_conj": e2}
            for rec, e1, e2 in f.split_factors
        ],
        "inert": [{"q": q, "exp": e} for q, e in f.inert_factors],
    }
    out.emit({"n": args.n}, result)


def _cmd_expsum(args, out: _Output) -> None:
    from . import expsum
    val = expsum.exp_sum(args.n, args.A).value
    out.emit(
        {"n": args.n, "A": args.A},
        {"re": _round15(val.real), "im": _round15(val.imag)},
    )


def _cmd_avg_expsum(args, out: _Output) -> None:
    from . import expsum
    if args.checkpoints:
        cks = sorted(int(c) for c in args.checkpoints.split(","))
    else:
        cks = sorted({10**k for k in range(3, 8) if 10**k <= args.x} | {args.x})
    rep = expsum.avg_exp_sum(args.x, args.A, checkpoints=cks)
    slope = rep.fitted_exponent
    slope_out = None if slope is None or math.isnan(slope) else _round15(slope)
    for cx, mean in rep.checkpoints:
        out.emit(
            {"x": args.x, "A": args.A},
            {"x": cx, "mean": _round15(mean), "fitted_exponent": slope_out},
        )


def _cmd_sector(args, out: _Output) -> None:
    if args.x == 2:  # all checked before angles loads numpy and the prime table
        raise ValueError("expected count is 0 at x = 2 (Li(2) = 0), so the ratio is undefined")
    if not (args.x >= 2 and -math.pi / 6.0 <= args.phi1 < args.phi2 < math.pi / 6.0):  # as SectorQuery
        raise ValueError("x >= 2 required" if not args.x >= 2 else "need -pi/6 <= phi1 < phi2 < pi/6")
    from . import angles
    q = angles.SectorQuery(args.x, args.phi1, args.phi2)
    observed, expected = angles.sector_count(q)
    out.emit(
        {"x": args.x, "phi1": args.phi1, "phi2": args.phi2},
        {
            "observed": observed,
            "expected": _round15(expected),
            "ratio": _round15(observed / expected),
        },
    )


def _cmd_chi_sum(args, out: _Output) -> None:
    from . import angles
    val = angles.chi_prime_sum(args.x, args.a)
    out.emit(
        {"x": args.x, "a": args.a},
        {
            "re": _round15(val.value.real),
            "im": _round15(val.value.imag),
            "abs": _round15(abs(val.value)),
        },
    )


def _cmd_equi_stat(args, out: _Output) -> None:
    from . import angles
    stat, count = angles._equi_stat(args.x)
    out.emit({"x": args.x}, {"statistic": _round15(stat), "ideals": int(count)})


def _cmd_bad_circle(args, out: _Output) -> None:
    from . import angles
    bc = angles.bad_circle(args.eps, args.k)
    offs = max(abs(math.remainder(z.arg(), math.pi / 3.0)) for z in bc.points.points)
    out.emit(
        {"eps": args.eps, "k": args.k},
        {
            "n": bc.n,
            "m": bc.m,
            "primes": list(bc.primes),
            "count": bc.points.count,
            "max_offset": _round15(offs),
        },
    )


def _cmd_discrepancy(args, out: _Output) -> None:
    from . import discrepancy
    res = discrepancy.discrepancy_exact(args.n)
    result = {
        "count": res.count,
        "delta": _round15(res.delta),
        "alpha": _round15(res.witness[0]),
        "beta": _round15(res.witness[1]),
    }
    if args.random_arcs is not None:
        seed = args.seed if args.seed is not None else 0
        result["random_lower_bound"] = _round15(
            discrepancy.discrepancy_random_lower_bound(args.n, args.random_arcs, seed)
        )
    out.emit({"n": args.n}, result)


def _cmd_survey(args, out: _Output) -> None:
    from . import discrepancy
    rep = discrepancy.discrepancy_survey(args.x, args.gamma)
    out.emit(
        {"x": args.x, "gamma": args.gamma},
        {
            "b_q": rep.b_q,
            "m_gamma": rep.m_gamma,
            "fraction": _round15(rep.fraction),
        },
    )


def _cmd_bq(args, out: _Output) -> None:
    from . import discrepancy
    out.emit({"x": args.x}, discrepancy.b_q(args.x))


def _cmd_theta(args, out: _Output) -> None:
    from . import analytic
    tol = args.tol if args.tol is not None else 1e-12
    val, err = analytic._theta_with_error(args.t, args.a, tol)
    out.emit({"t": args.t, "a": args.a}, _round15(val), error_estimate=_round15(err))


def _cmd_theta_check(args, out: _Output) -> None:
    from . import analytic
    tol = args.tol if args.tol is not None else 1e-12
    r = analytic.theta_transform_residual(args.t, args.a, tol)
    out.emit({"t": args.t, "a": args.a}, {"residual": _round15(r)})


def _cmd_lfunc(args, out: _Output) -> None:
    from . import analytic
    tol = args.tol if args.tol is not None else 1e-9
    s = complex(args.sigma, args.t)
    val, err = analytic.l_dirichlet_with_error(s, args.a, tol)
    out.emit(
        {"sigma": args.sigma, "t": args.t, "a": args.a},
        {"re": _round15(val.real), "im": _round15(val.imag)},
        error_estimate=_round15(err),
    )


def _cmd_xi_check(args, out: _Output) -> None:
    from . import analytic
    tol = args.tol if args.tol is not None else 1e-9
    s = complex(args.re, args.im)
    xi = analytic.xi_integral(s, args.a, tol)
    r = analytic._fe_residual(xi, analytic.xi_integral(1.0 - s, args.a, tol))
    out.emit(
        {"re": args.re, "im": args.im, "a": args.a},
        {
            "residual": _round15(r),
            "xi_re": _round15(xi.real),
            "xi_im": _round15(xi.imag),
        },
    )


def _cmd_li(args, out: _Output) -> None:
    from . import analytic
    out.emit({"x": args.x}, _round15(analytic.li(args.x)))


# name: (help, positionals as "dest:type"); the handler is _cmd_<name> with
# dashes as underscores, looked up by run() when the command runs
_COMMANDS = {
    "points": ("lattice points on |mu|^2 = N", "n:int"),
    "rq": ("number of points on |mu|^2 = N", "n:int"),
    "factor": ("factorization over Z[w]", "n:int"),
    "expsum": ("exponential sum S(N, A)", "n:int A:int"),
    "avg-expsum": ("running mean of |S(n, A)|/6 up to X", "x:int A:int"),
    "sector": ("split primes with angle in [PHI1, PHI2]", "x:int phi1:float phi2:float"),
    "chi-sum": ("sum of chi^{6a} over prime ideals", "x:int a:int"),
    "equi-stat": ("KS statistic of ideal angles vs uniform", "x:int"),
    "bad-circle": ("populated circle hugging the sextant directions", "eps:float k:int"),
    "discrepancy": ("exact circle discrepancy Delta(N)", "n:int"),
    "survey": ("fraction of circles with Delta > r_Q^-gamma", "x:int gamma:float"),
    "bq": ("count of populated circles up to X", "x:int"),
    "theta": ("theta(T, a) lattice sum", "t:float a:int"),
    "theta-check": ("theta transformation law residual", "t:float a:int"),
    "lfunc": ("L(SIGMA + iT, chi^{6a})", "sigma:float t:float a:int"),
    "xi-check": ("functional equation residual at RE + i IM", "re:float im:float a:int"),
    "li": ("logarithmic integral Li(X)", "x:float"),
}

# flag, its default before the subcommand, and the rest of add_argument's keywords
_GLOBAL_FLAGS = (
    ("--format", "json", {"choices": ("json", "csv")}),
    ("--tol", None, {"type": float}),
    ("--threads", None, {
        "type": int, "help": "accepted for compatibility, like EISEN_THREADS; must be >= 1 and changes nothing"}),
    ("--seed", None, {"type": int}),
)


# what argparse takes for a negative number, not an option: its own pattern,
# -\d+ or -\d*\.\d+ (Python <= 3.12), has no exponent, so -1e-05 was an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eisen",
        description="Lattice points, exponential sums and L-functions on the hexagonal lattice.",
    )
    top._negative_number_matcher = _NEGATIVE_NUMBER
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # flag given before the subcommand from being clobbered by a default
    common = argparse.ArgumentParser(add_help=False)
    for flag, default, kwargs in _GLOBAL_FLAGS:
        top.add_argument(flag, default=default, **kwargs)
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)

    sub = top.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_, positionals) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, parents=[common], help=help_)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for spec in positionals.split():
            dest, type_ = spec.split(":")
            p.add_argument(dest, type=int if type_ == "int" else float)
    parsers["avg-expsum"].add_argument("--checkpoints", help="comma separated x values")
    parsers["discrepancy"].add_argument("--random-arcs", type=int)
    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        # --threads, else EISEN_THREADS: validated for every subcommand, and it changes nothing
        if args.threads is not None and args.threads < 1:
            raise ValueError("--threads must be >= 1")
        if args.threads is None and int(os.environ.get("EISEN_THREADS") or 1) < 1:
            raise ValueError("EISEN_THREADS must be >= 1")
        globals()["_cmd_" + args.command.replace("-", "_")](args, _Output(args.command, args.format))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    # OpenBLAS reads this once, when numpy loads, and eisen does no threaded BLAS work
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
