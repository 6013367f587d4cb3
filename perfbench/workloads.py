"""The three workloads: seeded inputs, and the check of every output.

An op is a JSON list [kind, *args]: a library call run by worker.py for
exact-queries and lattice-sweep, or ["cli", *argv] for cli-oneshot.
Every input comes from random.Random(seed); the same seed gives the same
op list.  check_* return None for a correct output, else the reason.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import sympy

import oracle

# Strong pseudoprimes to every base 2..37 (Sorenson-Webster 2017; OEIS
# A014233), each the product of two split primes, so r_Q = 24.
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
PSI_FACTORS = {PSI12: (399165290221, 798330580441), PSI13: (1287836182261, 2575672364521)}
PI_6 = math.pi / 6.0
SURVEY_X = 2 * 10**5
# xi_integral and l_dirichlet are asked for tol = 1e-9 (their default); the
# xi integral is scaled by (2pi/sqrt3)^{3a} / 6 after it meets that tol
TOL = 1e-9
XI_FAULT = ["xi_integral", 3.0, 7.0, 3]

# Faults of the program that the workloads keep as counted failures:
# op (as JSON) -> what goes wrong today.
KNOWN_FAULTS = {
    json.dumps(["r_q", PSI12]): "is_prime accepts psi_12, so r_q returns 12, not 24",
    json.dumps(["r_q", PSI13]): "is_prime accepts psi_13, so r_q returns 12, not 24",
    json.dumps(["cli", "sector", "2", "-0.1", "0.1"]): "ZeroDivisionError since Li(2) = 0: exits 1, not 2",
    json.dumps(["cli", "theta", "1e-06", "1"]): "RuntimeError on the truncation radius: exits 1, not 2",
    json.dumps(XI_FAULT): "xi_integral(3+7i, 3) is off by 8e-4, 46 times its tolerance",
}
# argv lists that the CLI must reject with exit 2 and a reason on stderr
REJECTED = (["sector", "2", "-0.1", "0.1"], ["theta", "1e-06", "1"])

SPLIT_PRIMES = [p for p in sympy.primerange(7, 600) if p % 3 == 1]


# exponent patterns of the split-prime products: r_Q = 6 prod(e + 1) runs
# from 24 to 2916, the same for every seed, so the cost of the circle ops
# does not depend on the seed (only which primes appear does)
PATTERNS = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1), (3, 2, 1),
            (2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 3, 1, 1), (2, 2, 2, 2),
            (3, 3, 2, 1), (3, 3, 3, 1), (2, 2, 2, 2, 1), (3, 3, 3, 3), (3, 3, 3, 2, 1),
            (2, 2, 2, 2, 2, 1))


def _split_product(rng: random.Random, exps: tuple[int, ...]) -> int:
    """prod p_i^e_i over distinct split primes drawn from the first 30,
    sometimes times a power of 3 or an inert square (r_Q unchanged)."""
    ps = rng.sample(SPLIT_PRIMES[:30], len(exps))
    n = math.prod(p**e for p, e in zip(ps, exps))
    n *= 3 ** rng.choice((0, 0, 1, 2))
    n *= rng.choice((1, 1, 4, 25, 121))
    return n


def _g(v: float) -> str:
    return f"{v:.6g}"


def exact_queries(seed: int) -> list:
    rng = random.Random(seed)
    big = 10**12
    ops: list = [["r_q", rng.randint(1, big)] for _ in range(2000)]
    ops += [["circle_points", rng.randint(1, big)] for _ in range(300)]
    ops += [["factor_eisenstein", rng.randint(1, big)] for _ in range(300)]
    ops += [["exp_sum", rng.randint(1, big), rng.randint(1, 36)] for _ in range(300)]
    for exps in PATTERNS * 2:
        n = _split_product(rng, exps)
        ops += [["circle_points", n], ["discrepancy_exact", n],
                ["erdos_turan_bound", n, rng.randint(6, 60)]]
    for _ in range(4):
        p = sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
        q = sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
        ops.append(["factor_int", p * q])
    ops += [["theta", rng.uniform(0.3, 3.0), rng.randint(0, 4)] for _ in range(150)]
    ops += [["theta_transform_residual", rng.uniform(0.2, 5.0), rng.randint(1, 2)] for _ in range(40)]
    # Re s >= 3 puts the Euler product's proven error below the program's
    # tol; at a = 1, 2 xi meets its tol there (a = 2 uses up to 0.93 of it),
    # at a = 3 it misses by 45-85 times, so a = 3 is only the fixed fault op
    ops += [["xi_integral", rng.uniform(3.0, 3.5), rng.uniform(-10.0, 10.0), rng.randint(1, 2)]
            for _ in range(20)]
    ops += [["li", 10 ** rng.uniform(0.5, 9.0)] for _ in range(150)]
    ops += [["r_q", PSI12], ["r_q", PSI13], XI_FAULT]
    rng.shuffle(ops)
    return ops


def _phi_pair(rng: random.Random) -> tuple[float, float]:
    a, b = sorted(rng.uniform(-PI_6, PI_6) for _ in range(2))
    return a, b


def lattice_sweep(seed: int, threads: int) -> list:
    rng = random.Random(seed)
    cps = sorted({1000, rng.randint(2000, 20000), rng.randint(10**5, 9 * 10**5), 10**6})
    # the surveys stop at SURVEY_X, not 1e6: their per-circle sweep is linear
    # in the circles, and at 1e6 one pass takes 13-25 s, so a 30 s run holds
    # one pass and a single multi-second stall of the machine sets its figure
    ops: list = [
        ["discrepancy_survey", SURVEY_X, rng.uniform(0.56, 0.60), threads],  # builds the lattice
        ["discrepancy_survey", SURVEY_X, rng.uniform(0.61, 0.645), threads],  # reuses it
        ["discrepancy_survey", rng.randint(4500, 5000), rng.uniform(0.45, 0.645), threads],
        ["avg_exp_sum", 10**6, 6, cps, threads],
        ["b_q", 10**7],
    ]
    # 16 sector queries (one builds the split-prime table, 15 read it): the
    # median op of the pass is then one of them, not whichever small call
    # happens to sit at the cliff below the big ones
    ops += [["sector_count", 10**6, *_phi_pair(rng)] for _ in range(16)]
    ops += [["chi_prime_sum", 10**6, rng.randint(1, 4)],
            ["theta_equidistribution_stat", 10**6],
            ["l_dirichlet", 2.0, 0.0, 1]]
    return ops


def cli_oneshot(seed: int) -> list:
    """All 17 subcommands once, then the two rejected inputs."""
    rng = random.Random(seed)
    x = lambda: str(rng.randint(9 * 10**4, 10**5))  # noqa: E731
    p1, p2 = _phi_pair(rng)
    return [
        ["cli", "rq", str(rng.randint(1, 10**12))],
        ["cli", "points", str(_split_product(rng, (2, 1, 1)))],
        ["cli", "factor", str(rng.randint(1, 10**12))],
        ["cli", "expsum", str(_split_product(rng, (2, 1, 1))), str(rng.choice((5, 6, 7, 12, 18, 24)))],
        ["cli", "avg-expsum", x(), "6"],
        ["cli", "sector", x(), _g(p1), _g(p2)],
        ["cli", "chi-sum", x(), str(rng.randint(1, 4))],
        ["cli", "equi-stat", x()],
        ["cli", "bad-circle", _g(rng.uniform(0.15, 0.3)), str(rng.choice((12, 24, 48)))],
        ["cli", "discrepancy", str(_split_product(rng, (2, 1, 1))), "--random-arcs", "1000",
         "--seed", str(rng.randint(0, 99))],
        ["cli", "survey", str(rng.randint(45000, 50000)), _g(rng.uniform(0.5, 0.645))],
        ["cli", "bq", "1000000"],
        ["cli", "theta", _g(rng.uniform(0.3, 3.0)), str(rng.randint(0, 3))],
        ["cli", "theta-check", _g(rng.uniform(0.2, 5.0)), str(rng.randint(1, 2))],
        # sigma >= 2.5 keeps the cutoff at its floor R = 3e5 for every |t| <= 20
        ["cli", "lfunc", _g(rng.uniform(2.5, 3.0)), _g(rng.uniform(-20.0, 20.0)), "0"],
        ["cli", "xi-check", _g(rng.uniform(3.0, 3.5)), _g(rng.uniform(-10.0, 10.0)),
         str(rng.randint(1, 2))],
        ["cli", "li", _g(10 ** rng.uniform(1.0, 8.0))],
        ["cli", "sector", "2", "-0.1", "0.1"],
        ["cli", "theta", "1e-06", "1"],
    ]


WORKLOADS = {
    "cli-oneshot": lambda seed, threads: cli_oneshot(seed),
    "lattice-sweep": lattice_sweep,
    "exact-queries": lambda seed, threads: exact_queries(seed),
}


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Holds the reference data shared between checks of one run."""

    def __init__(self) -> None:
        self._fac: dict[int, dict[int, int]] = {}
        self._ideals: oracle.Ideals | None = None
        self._populated: dict[int, tuple[int, np.ndarray]] = {}
        self._deltas: dict[int, tuple[int, float]] = {}
        self._circles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for n, (p, q) in PSI_FACTORS.items():  # too slow for sympy's general factoring
            assert p * q == n and sympy.isprime(p) and sympy.isprime(q)
            self._fac[n] = {p: 1, q: 1}

    def fac(self, n: int) -> dict[int, int]:
        if n not in self._fac:
            self._fac[n] = oracle.factorint(n)
        return self._fac[n]

    def ideals(self) -> oracle.Ideals:
        if self._ideals is None:
            self._ideals = oracle.Ideals(10**6)
        return self._ideals

    def populated(self, x: int) -> tuple[int, np.ndarray]:
        if x not in self._populated:
            self._populated[x] = oracle.populated_count(x)
        return self._populated[x]

    # -- exact queries -----------------------------------------------------

    def r_q(self, n, out):
        want = oracle.r_q(self.fac(n))
        return None if out == want else f"r_q = {out}, want {want}"

    def circle_points(self, n, out):
        fac = self.fac(n)
        pts = {tuple(p) for p in out}
        if len(pts) != len(out) or len(out) != oracle.r_q(fac):
            return f"{len(out)} points, want {oracle.r_q(fac)} distinct"
        # r_Q distinct points of norm n are the whole circle
        return "a point off the circle" if any(oracle.norm(a, b) != n for a, b in pts) else None

    def factor_eisenstein(self, n, out):
        return oracle.check_factorization(n, self.fac(n), out)

    def exp_sum(self, n, A, out):
        fac = self.fac(n)
        want = oracle.exp_sum(fac, A)
        got = complex(*out)
        return None if abs(got - want) <= 1e-9 * max(1, oracle.r_q(fac)) else f"S = {got}, want {want}"

    def _delta(self, n):
        if n not in self._deltas:
            pts = oracle.circle_points(self.fac(n))
            self._deltas[n] = len(pts), oracle.delta(np.array([oracle.angle(*p) for p in pts]))
        return self._deltas[n]

    def discrepancy_exact(self, n, out):
        count, delta = self._delta(n)
        if out[0] != count or abs(out[1] - delta) > 1e-12:
            return f"(N, Delta) = {out[:2]}, want ({count}, {delta})"
        return None

    def erdos_turan_bound(self, n, T, out):
        _, delta = self._delta(n)
        return None if math.isfinite(out) and out >= delta - 1e-12 else f"bound {out} < Delta {delta}"

    def factor_int(self, n, out):
        # a product equal to n of primes is the factorization
        if math.prod(p**e for p, e in out) != n or not all(sympy.isprime(p) for p, _ in out):
            return f"{out} is no prime factorization of {n}"
        return None

    def theta(self, t, a, out):
        if a == 0:
            want = oracle.theta_identity(t)
            return None if oracle.close(out, want, 1e-12) else f"theta = {out}, want {want}"
        want, scale = oracle.theta_direct(t, a)
        return None if oracle.close(out, want, 0.0, 1e-11 + 1e-13 * scale) else f"theta = {out}, want {want}"

    def theta_transform_residual(self, t, a, out):
        # the tolerance of the project's own transformation-law tests, met for a <= 2
        return None if 0.0 <= out < 1e-8 else f"residual {out}"

    def xi_integral(self, re, im, a, out):
        want, rel = oracle.xi(complex(re, im), a, self.ideals())
        got = complex(*out)
        allowed = TOL * oracle.C_THETA ** (3 * a) / 6.0
        return None if oracle.close(got, want, rel, allowed) else f"xi = {got}, want {want} +- {allowed:.3g}"

    def li(self, x, out):
        want = oracle.li(x)
        return None if oracle.close(out, want, 1e-10, 1e-10) else f"Li = {out}, want {want}"

    # -- lattice sweep -----------------------------------------------------

    def discrepancy_survey(self, x, gamma, threads, out):
        # brute force over arcs up to x = 1e5, the vectorized sweep above
        if x not in self._circles:
            self._circles[x] = oracle.circle_deltas(x, brute=x <= 10**5)
        want_b, want_m, ties = oracle.survey_counts(*self._circles[x], gamma)
        b, m, frac = out
        if b != want_b or b != self.populated(x)[0] or not want_m <= m <= want_m + ties:
            return f"(b_q, m_gamma) = ({b}, {m}), want ({want_b}, {want_m} + {ties} ties)"
        return None if frac == m / b else "fraction != m_gamma / b_q"

    def avg_exp_sum(self, x, A, cps, threads, out):
        means, slope = out
        if [c for c, _ in means] != cps or not all(m > 0 and math.isfinite(m) for _, m in means):
            return "checkpoints or means malformed"
        small = [c for c in cps if c <= 20000]
        for c, want in zip(small, oracle.mean_abs_s6(max(small), small)):
            got = dict(means)[c]
            if not oracle.close(got, want, 1e-10):
                return f"mean at {c} = {got}, want {want}"
        fit = [(math.log(math.log(c)), math.log(m)) for c, m in means if c >= 1000]
        want_slope = float(np.polyfit(*zip(*fit), 1)[0])
        return None if oracle.close(slope, want_slope, 1e-9) else f"slope {slope}, want {want_slope}"

    def b_q(self, x, out):
        want, free = self.populated(x)
        # the reference table itself, against sympy on a sample of n
        rng = random.Random(x)
        for n in (rng.randint(1, x) for _ in range(200)):
            if free[n] != all(p % 3 != 2 for p in self.fac(n)):
                return f"reference table wrong at {n}"
        return None if out == want else f"b_q = {out}, want {want}"

    def sector_count(self, x, phi1, phi2, out):
        th = self.ideals().angles(x)
        want = int(np.count_nonzero((th >= phi1 - 1e-12) & (th <= phi2 + 1e-12)))
        expected = 3.0 / math.pi * (phi2 - phi1) * oracle.li(x)
        if out[0] != want or not oracle.close(out[1], expected, 1e-10):
            return f"sector = {out}, want [{want}, {expected}]"
        return None

    def chi_prime_sum(self, x, a, out):
        th = self.ideals().angles(x)
        want = complex(np.sum(np.exp(6j * a * th)))
        got = complex(*out)
        return None if abs(got - want) <= 1e-9 * th.size else f"sum = {got}, want {want}"

    def theta_equidistribution_stat(self, x, out):
        want = oracle.ks_uniform(self.ideals().angles(x))
        return None if abs(out - want) <= 1e-12 else f"KS = {out}, want {want}"

    def l_dirichlet(self, re, im, a, out):
        # the Euler product's proven tail at Re s = 2 is 2e-6, far above tol
        want = oracle.l_series(complex(re, im), a)
        got = complex(*out)
        return None if oracle.close(got, want, 0.0, TOL) else f"L = {got}, want {want}"

    # -- cross-op properties -------------------------------------------------

    def survey_monotone(self, ops, outs) -> str | None:
        """m_gamma grows with gamma at fixed x, for the surveys that ran."""
        runs = sorted((op[1], op[2], out[1]) for op, out in zip(ops, outs)
                      if op[0] == "discrepancy_survey" and out is not None)
        for (x1, g1, m1), (x2, g2, m2) in zip(runs, runs[1:]):
            if x1 == x2 and g1 < g2 and m1 > m2:
                return f"m_gamma falls from {m1} to {m2} as gamma rises at x = {x1}"
        return None

    # -- cli ---------------------------------------------------------------

    def cli(self, argv, code, stdout, stderr) -> str | None:
        if argv in REJECTED:
            if code != 2 or stdout or not stderr.startswith("error:"):
                return f"rejected input exits {code}: {stderr.strip()[-80:]}"
            return None
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        recs = [json.loads(line) for line in stdout.splitlines()]
        if not recs or any(r["command"] != argv[0] for r in recs):
            return "no records, or a record of another command"
        res = [r["result"] for r in recs]
        return getattr(self, "cli_" + argv[0].replace("-", "_"))(argv[1:], res, recs)

    def cli_rq(self, args, res, recs):
        return self.r_q(int(args[0]), res[0])

    def cli_points(self, args, res, recs):
        n = int(args[0])
        angles = [r["angle"] for r in res]
        if angles != sorted(angles) or any(abs(r["angle"] - oracle.angle(r["a"], r["b"])) > 1e-13
                                           for r in res):
            return "angles wrong or unsorted"
        return self.circle_points(n, [[r["a"], r["b"]] for r in res])

    def cli_factor(self, args, res, recs):
        r = res[0]
        got = {"unit_power": r["unit_power"], "alpha3": r["alpha3"],
               "split": [[s["p"], *s["pi"], s["exp_pi"], s["exp_conj"]] for s in r["split"]],
               "inert": [[q["q"], q["exp"]] for q in r["inert"]]}
        return self.factor_eisenstein(int(args[0]), got)

    def cli_expsum(self, args, res, recs):
        return self.exp_sum(int(args[0]), int(args[1]), [res[0]["re"], res[0]["im"]])

    def cli_avg_expsum(self, args, res, recs):
        x = int(args[0])
        cps = [r["x"] for r in res]
        want = oracle.mean_abs_s6(x, cps)
        if cps != sorted({1000, 10000, x}) or not all(
                oracle.close(r["mean"], w, 1e-12) for r, w in zip(res, want)):
            return f"means {[r['mean'] for r in res]}, want {want}"
        fit = [(math.log(math.log(c)), math.log(m)) for c, m in zip(cps, want)]
        slope = float(np.polyfit(*zip(*fit), 1)[0])
        return None if oracle.close(res[0]["fitted_exponent"], slope, 1e-9) else "fitted exponent"

    def cli_sector(self, args, res, recs):
        r = res[0]
        return self.sector_count(int(args[0]), float(args[1]), float(args[2]),
                                 [r["observed"], r["expected"]])

    def cli_chi_sum(self, args, res, recs):
        return self.chi_prime_sum(int(args[0]), int(args[1]), [res[0]["re"], res[0]["im"]])

    def cli_equi_stat(self, args, res, recs):
        x = int(args[0])
        if res[0]["ideals"] != self.ideals().angles(x).size:
            return "ideal count"
        return self.theta_equidistribution_stat(x, res[0]["statistic"])

    def cli_bad_circle(self, args, res, recs):
        eps, k = float(args[0]), int(args[1])
        r = res[0]
        m = max(0, math.ceil(math.log2(k / 6)))
        qual = self.ideals().split_p[self.ideals().split_t <= eps / m][:m].tolist()
        if r["primes"] != qual or r["n"] != math.prod(qual) or r["m"] != m:
            return f"primes {r['primes']}, want {qual}"
        pts = oracle.circle_points(self.fac(r["n"]))
        off = max(abs(math.remainder(oracle.angle(*p), math.pi / 3)) for p in pts)
        if r["count"] != len(pts) or len(pts) < k or abs(r["max_offset"] - off) > 1e-13 or off > eps:
            return f"count {r['count']}, offset {r['max_offset']}; want {len(pts)}, {off}"
        return None

    def cli_discrepancy(self, args, res, recs):
        n = int(args[0])
        r = res[0]
        bad = self.discrepancy_exact(n, [r["count"], r["delta"]])
        if bad:
            return bad
        return None if 0 <= r["random_lower_bound"] <= r["delta"] + 1e-13 else "random arcs beat the sup"

    def cli_survey(self, args, res, recs):
        r = res[0]
        return self.discrepancy_survey(int(args[0]), float(args[1]), 1,
                                       [r["b_q"], r["m_gamma"], r["m_gamma"] / r["b_q"]])

    def cli_bq(self, args, res, recs):
        x = int(args[0])
        return None if res[0] == self.populated(x)[0] else f"b_q = {res[0]}"

    def cli_theta(self, args, res, recs):
        return self.theta(float(args[0]), int(args[1]), res[0])

    def cli_theta_check(self, args, res, recs):
        return self.theta_transform_residual(float(args[0]), int(args[1]), res[0]["residual"])

    def cli_lfunc(self, args, res, recs):
        s = complex(float(args[0]), float(args[1]))
        got = complex(res[0]["re"], res[0]["im"])
        want = oracle.dedekind_zeta(s)
        err = recs[0]["error_estimate"]
        return None if abs(got - want) <= err + 1e-14 * abs(want) else f"L = {got}, want {want} +- {err}"

    def cli_xi_check(self, args, res, recs):
        r = res[0]
        if not 0.0 <= r["residual"] <= 1e-9:
            return f"residual {r['residual']}"
        return self.xi_integral(float(args[0]), float(args[1]), int(args[2]), [r["xi_re"], r["xi_im"]])

    def cli_li(self, args, res, recs):
        return self.li(float(args[0]), res[0])
