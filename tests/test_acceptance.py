"""Acceptance suite: one test per headline claim, at its stated tolerance.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints a one-line measurement (visible with
-s or on failure).
"""

import math
import time

import pytest

from bruteforce import chi_sum_by_ideals, circle_points_bruteforce, representable_sieve
from eisen import analytic, angles, discrepancy, expsum, factor
from eisen.core import UNITS, EisensteinInt

PI_6 = math.pi / 6.0


def test_criterion_01_circle_441_point_set():
    pts = factor.circle_points(441)
    assert pts.count == factor.r_q(441) == 18
    # orbit representatives 3(3-w)^2, 21, 3(3-wbar)^2
    reps = [EisensteinInt(24, -15), EisensteinInt(21, 0), EisensteinInt(9, 15)]
    expected = {u * z for z in reps for u in UNITS}
    assert set(pts.points) == expected
    assert all(z.norm() == 441 for z in expected)
    print(f"criterion 1: r_Q(441) = {pts.count}, 18-point orbit matches")


def test_criterion_02_bad_circle_example():
    bc = angles.bad_circle(math.pi / 12, 48)
    assert bc.n == 7983607
    assert bc.primes == (157, 211, 241)
    assert bc.points.count == 48
    worst = max(abs(math.remainder(z.arg(), math.pi / 3)) for z in bc.points.points)
    assert worst <= math.pi / 12
    for p, ref in zip(bc.primes, (0.0692, 0.0597, 0.0558)):
        assert abs(factor.split_prime_generator(p).theta_p - ref) < 5e-4
    print(f"criterion 2: n = {bc.n}, 48 points, worst offset {worst:.4f} <= pi/12")


def test_criterion_03_factorization_vs_bruteforce():
    t0 = time.monotonic()
    for n in range(1, 10**4 + 1):
        fast = factor.circle_points(n)
        slow = circle_points_bruteforce(n)
        assert fast.points == slow.points, n
        assert fast.count == factor.r_q(n), n
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 3: all n <= 1e4 match the integer-sqrt oracle in {dt:.1f}s")


def test_criterion_04_exp_sum_vanishing():
    t0 = time.monotonic()
    worst = 0.0
    for A in (1, 2, 3, 4, 5, 7):
        for n in range(1, 10**4 + 1):
            v = abs(expsum.exp_sum(n, A).value)
            assert v < 1e-9 * (1 + factor.r_q(n)), (n, A)
            worst = max(worst, v)
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 4: max |S(n, A)| = {worst:.2e} over n <= 1e4, 6 not dividing A ({dt:.1f}s)")


def test_criterion_05_multiplicativity():
    worst = 0.0
    for A in (6, 12):
        f = {n: expsum.f_A(n, A) for n in range(1, 301)}
        for m in range(2, 301):
            for n in range(m, 301):
                if math.gcd(m, n) != 1 or m * n > 300 * 300:
                    continue
                diff = abs(expsum.f_A(m * n, A) - f[m] * f[n])
                worst = max(worst, diff)
                assert diff < 1e-9, (m, n, A)
    print(f"criterion 5: worst |f(mn) - f(m) f(n)| = {worst:.2e}")


def test_criterion_06_average_decay():
    t0 = time.monotonic()
    rep = expsum.avg_exp_sum(10**6, 6, checkpoints=[10**3, 10**4, 10**5, 10**6])
    dt = time.monotonic() - t0
    means = [m for _, m in rep.checkpoints]
    assert means[0] > means[1] > means[2] > means[3]
    assert rep.fitted_exponent <= -0.25
    assert dt < 600.0
    print(
        "criterion 6: means "
        + " > ".join(f"{m:.3f}" for m in means)
        + f", fitted exponent {rep.fitted_exponent:.3f} ({dt:.0f}s)"
    )


def test_criterion_07_sector_equidistribution():
    ratios = []
    for phi1, phi2 in ((-PI_6, 0.0), (0.0, 0.3), (-0.2, 0.25), (0.1, 0.5)):
        obs, exp = angles.sector_count(angles.SectorQuery(10**6, phi1, phi2))
        ratios.append(obs / exp)
        assert 0.95 <= obs / exp <= 1.05, (phi1, phi2)
    print("criterion 7: observed/expected = " + ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_08_character_sum_decomposition():
    worst = 0.0
    for x in (10**3, 10**4, 10**5):
        for a in (1, 2, 3):
            whole = chi_sum_by_ideals(x, a)
            parts = angles.chi_prime_sum(x, a).value  # from the split-prime decomposition
            diff = abs(whole - parts) / max(1.0, abs(whole))
            worst = max(worst, diff)
            assert diff < 1e-8, (x, a)
    cancel = abs(angles.chi_prime_sum(10**6, 1).value) / 10**6
    assert cancel < 0.02
    print(f"criterion 8: worst decomposition gap {worst:.2e}, |sum|/x = {cancel:.2e} at x = 1e6")


def test_criterion_09_theta_transformation():
    worst = 0.0
    for t in (0.5, 1.0, 1.5, 3.0):
        for a in (1, 2):
            r = analytic.theta_transform_residual(t, a)
            worst = max(worst, r)
            assert r < 1e-8, (t, a)
    print(f"criterion 9: worst transformation residual {worst:.2e}")


def test_criterion_10_functional_equation():
    worst = 0.0
    for s in (0.25, 0.75, 0.5 + 3j, 0.3 + 0.7j):
        for a in (1, 2):
            r = analytic.functional_eq_residual(s, a)
            worst = max(worst, r)
            assert r < 1e-6, (s, a)
    gaps = []
    for a in (1, 2):
        via_l = (
            (math.sqrt(3.0) / (2.0 * math.pi)) ** 2
            * analytic.complex_gamma(2 + 3 * a)
            * analytic._l_lattice(2.0 + 0j, a, 1e-9)[0]  # the lattice sum, not l_dirichlet's xi route
        )
        xi = analytic.xi_integral(2.0, a)
        gap = abs(xi - via_l) / abs(via_l)
        gaps.append(gap)
        assert gap < 1e-6, a
    print(
        f"criterion 10: worst residual {worst:.2e}, "
        f"integral vs gamma * L gaps {gaps[0]:.2e}, {gaps[1]:.2e}"
    )


def test_criterion_11_dedekind_zeta_value():
    # 1.2851909554841494 = zeta(2) * L(2, chi_-3), mpmath 30 digits:
    # L(2) = (zeta(2, 1/3) - zeta(2, 2/3)) / 9 via Hurwitz zeta
    val = analytic.l_dirichlet(2.0, 0)
    diff = abs(val - 1.2851909554841494)
    assert diff < 1e-8
    print(f"criterion 11: |L(2, chi^0) - zeta_K(2)| = {diff:.2e}")


def test_criterion_12_discrepancy_and_erdos_turan():
    d1 = discrepancy.discrepancy_exact(1).delta
    assert abs(d1 - 1.0 / 6.0) < 1e-15
    ok = representable_sieve(2000)
    margin = math.inf
    arg = None
    for n in range(1, 2001):
        if not ok[n]:
            continue
        t = math.ceil(math.log(n)) + 1 if n > 1 else 1
        bound = discrepancy.erdos_turan_bound(n, t)
        delta = discrepancy.discrepancy_exact(n).delta
        assert bound >= delta, n
        if bound - delta < margin:
            margin, arg = bound - delta, n
    print(f"criterion 12: Delta(1) = 1/6, bound dominates; tightest margin {margin:.3f} at n = {arg}")


def test_criterion_13_survey_monotone_and_threshold():
    f_small = discrepancy.discrepancy_survey(10**3, 0.5).fraction
    f_large = discrepancy.discrepancy_survey(10**5, 0.5).fraction
    assert f_large <= f_small
    for gamma in (discrepancy.GAMMA_MAX, 0.7):
        with pytest.raises(ValueError):
            discrepancy.discrepancy_survey(10**3, gamma)
    print(
        f"criterion 13: fraction {f_large:.4f} at 1e5 <= {f_small:.4f} at 1e3; "
        f"gamma >= log(pi)/log(2) - 1 rejected"
    )


def test_criterion_14_census_growth_shape():
    vals = {}
    for x in (10**5, 10**6):
        vals[x] = discrepancy.b_q(x) * math.sqrt(math.log(x)) / x
    ratio = vals[10**5] / vals[10**6]
    assert 0.9 < ratio < 1.1
    print(
        f"criterion 14: B_Q(x) sqrt(log x)/x = {vals[10**5]:.4f} at 1e5, "
        f"{vals[10**6]:.4f} at 1e6 (ratio {ratio:.3f})"
    )
