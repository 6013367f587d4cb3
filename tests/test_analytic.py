"""Analytic layer: Li, the gamma function, theta, L and xi.

Frozen reference digits come from mpmath at 30 significant digits
(gamma, li, L-value oracles) so the tests stay independent of the
code under test.
"""

import cmath
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from eisen import analytic, factor
from eisen.analytic import (
    C_THETA,
    complex_gamma,
    functional_eq_residual,
    l_dirichlet,
    l_dirichlet_with_error,
    li,
    theta,
    theta_transform_residual,
    xi_integral,
)

ZETA_K_2 = 1.2851909554841494029  # zeta(2) * L(2, chi_-3), mpmath


def test_li_values():
    assert li(2.0) == 0.0
    assert li(10.0) == pytest.approx(5.12043572466980515268, abs=1e-9)
    assert li(100.0) == pytest.approx(29.0809778039621371, abs=1e-9)
    assert li(10.0**6) == pytest.approx(78626.5039956820644, rel=1e-12)
    assert li(10.0**6) > 10.0**6 / math.log(10.0**6)


# Li(x) = li(x) - li(2) from mpmath at 40 digits, at the float x given
LI_FROZEN = {
    2.0000001: 1.4426949864936581988e-7,
    3.0: 1.118424814549699188,
    20.0: 8.8601361975153283514,
    1e9: 50849233.911838017887,
    1e12: 37607950279.759701709,
    1e300: 1.4497500526693363651e297,
}


def test_li_frozen_mpmath():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, want in LI_FROZEN.items():
            assert li(x) == pytest.approx(want, rel=1e-13, abs=0.0), x


def test_li_validation():
    for bad in (1.5, 0.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            li(bad)


def test_gamma_exact_points():
    assert complex_gamma(1) == pytest.approx(1.0, rel=1e-12)
    assert complex_gamma(5) == pytest.approx(24.0, rel=1e-12)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert complex_gamma(3.7) == pytest.approx(4.17065178379660317, rel=1e-12)
    assert complex_gamma(-1.5) == pytest.approx(2.36327180120735470, rel=1e-11)


def test_gamma_complex_points():
    cases = {
        2 + 3j: -0.0823952726656119 + 0.0917742874352593j,
        0.5 + 14.1347j: -1.4459762901175984e-10 - 5.5229099255553234e-10j,
        -0.5 + 2.5j: -0.0073618966326199 - 0.0179180545232466j,
    }
    for s, want in cases.items():
        got = complex_gamma(s)
        assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("seed", [1, 2])
def test_gamma_recurrence(seed):
    rng = random.Random(seed)
    for _ in range(50):
        s = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        if abs(s.real - round(s.real)) < 0.05 and abs(s.imag) < 0.05:
            continue  # keep clear of the poles
        lhs = complex_gamma(s + 1)
        rhs = s * complex_gamma(s)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)


def test_gamma_poles_rejected():
    for s in (0, -1, -2.0, -7):
        with pytest.raises(ValueError):
            complex_gamma(s)
    with pytest.raises(ValueError):
        complex_gamma(complex(math.nan, 0.0))


def test_theta_matches_shell_formula():
    # assemble theta shell by shell from the full point sets of each circle
    t = 3.0
    for a in (0, 1, 2):
        want = 1.0 if a == 0 else 0.0
        for n in range(1, 41):
            angs = np.array([z.arg() for z in factor.circle_points(n).points])
            want += n ** (3 * a) * math.exp(-C_THETA * t * n) * float(np.sum(np.cos(6 * a * angs)))
        assert theta(t, a) == pytest.approx(want, abs=1e-12)


def test_theta_bruteforce_lattice_oracle():
    # direct double loop over a generous square block
    for t, a in ((0.8, 0), (0.8, 1), (1.7, 2)):
        total = 1.0 if a == 0 else 0.0
        for x in range(-12, 13):
            for y in range(-12, 13):
                n = x * x + x * y + y * y
                if n == 0:
                    continue
                ang = math.atan2(y * math.sqrt(3) / 2, x + y / 2)
                total += n**(3 * a) * math.exp(-C_THETA * t * n) * math.cos(6 * a * ang)
        assert theta(t, a) == pytest.approx(total, abs=1e-11)


def test_theta_large_t_tail():
    # leading shell: theta(t,0) - 1 = 6 e^{-c t} (1 + o(1))
    assert theta(10.0, 0) - 1.0 == pytest.approx(6 * math.exp(-C_THETA * 10.0), rel=1e-6)
    assert abs(theta(11.0, 0) - 1.0) < 1e-15


def test_theta_slices_the_cached_sector_table():
    # one kept table, the sector in factor.sector_bands' order built in pure
    # Python and grown band by band as far as a call needs, serves every
    # radius.  Its norms and logs are numpy's bits; its angles come from
    # math.atan2, which rounds 76 of them one ulp away from numpy's arctan2
    analytic._sector_table.cache_clear()
    for R in (1, 7, 650, 2984, 30, analytic._TABLE_NORMS):
        analytic._sector_terms(1.5, 2, R)
    norms, logs, angs = analytic._sector_slice(analytic._TABLE_NORMS)
    assert analytic._sector_table.cache_info().misses == 1  # built once, then grown
    assert analytic._sector_table()[3] == [0, 64, 256, 1024, 4096]
    want_n, want_a = (np.concatenate(arrs) for arrs in zip(*factor.sector_bands(analytic._TABLE_NORMS)))
    assert len(norms) == 2474 and np.array_equal(norms, want_n) and np.array_equal(logs, np.log(want_n))
    off = np.abs(np.array(angs) - want_a) / np.spacing(np.abs(want_a))
    assert off.max() <= 1.0 and np.count_nonzero(off) <= 76
    n, lg, ang = np.array(norms), np.array(logs), np.array(angs)
    for R in (1, 7, 650, 2984):
        k = n.searchsorted(R, side="right")
        assert analytic._sector_slice(R) == (norms[:k], logs[:k], angs[:k]), R
        w, terms = analytic._sector_terms(1.5, 2, R)
        # math.exp against numpy's exp on the same slice: the same expression, rounded within one ulp
        want = np.exp(6.0 * lg[:k] - C_THETA * 1.5 * n[:k])
        assert len(w) == k and np.all(np.abs(np.array(w) - want) <= np.spacing(want)), R
        assert np.array_equal(terms, np.array(w) * np.cos(12.0 * ang[:k])), R
        assert w == [math.exp(6.0 * math.log(m) - C_THETA * 1.5 * m) for m in norms[:k]], R


def test_theta_validation():
    for bad_t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            theta(bad_t, 0)
    with pytest.raises(ValueError):
        theta(1.0, -1)
    with pytest.raises(ValueError):
        theta(1.0, 0, tol=0.0)
    with pytest.raises(ValueError, match="underflows"):
        theta(1e-5, 1)  # every term is below the smallest double
    with pytest.raises(ValueError, match="underflows"):
        theta(300.0, 1)
    for t in (3e-7, 1e-12):
        # a loose tol, folded onto theta(1/t, 0) = 1 + 6 e^{-c/t} + ...
        assert abs(t * theta(t, 0, tol=1e300) - 1.0) <= 1e-15
    with pytest.raises(ValueError, match="overflows"):
        theta(0.3, 60)  # n^{3a} e^{-ctn} passes the double range
    with pytest.raises(ValueError, match="norms past 4096"):
        theta(0.5, 10**5)  # only a theta past the double range needs them
    assert math.isfinite(theta(0.01, 30))  # 1.7e205: the fold's factor stays in each term's exponent


def test_theta_small_t_regression():
    # the lattice sum at t = 0.05 cancels to roundoff (it gave -4550.86);
    # the fold gives t^{-25} theta(20, 4)
    val, err = analytic._theta_with_error(0.05, 4, 1e-12)
    assert abs(val - 62.3704583071145665) <= err < 1e-11


# theta(t, a) for t < 1 by a direct sum over the whole lattice in mpmath at
# 60 digits, mu^{6a} in exact integer arithmetic, cut where the terms fall
# below 1e-45: independent of the transformation law
THETA_SMALL_T = [
    (0.05, 0, 19.99999999999999889), (0.05, 1, 2.3792441675992824109e-22),
    (0.05, 2, 1.5227162672635402358e-14), (0.05, 4, 62.370458307114566513),
    (0.1, 0, 10.000000000000010006), (0.1, 1, 1.0560637781697482293e-8),
    (0.1, 2, 0.010560637781697478776), (0.1, 4, 10560637781.697471741),
    (0.2, 0, 5.0000003980069930347), (0.2, 1, 0.0062188592705039700641),
    (0.2, 2, 97.169676101637429678), (0.2, 4, 23723065456.717304891),
    (0.5, 0, 2.0084779185979199829), (0.5, 1, 0.54257921929415227724),
    (0.5, 2, 34.738222878467412576), (0.5, 4, 180806.66515889726284),
    (0.9, 0, 1.2295658656545424709), (0.9, 1, 0.22100373592159105313),
    (0.9, 2, 0.52533725897535972209), (0.9, 4, 389.79555585621105269),
]


@pytest.mark.parametrize("t, a, want", THETA_SMALL_T)
def test_theta_error_estimate_bounds_true_error(t, a, want):
    for tol in (1e-6, 1e-12, 1e-300):
        val, err = analytic._theta_with_error(t, a, tol)
        assert abs(val - want) <= err, tol
        assert val == theta(t, a, tol)


def _theta_by_exact_weights(t: float, a: int):
    """theta(t, a) = [a = 0] + sum over mu != 0 of Re(mu^{6a}) e^{-c t N(mu)}
    in mpmath at 50 digits.  mu = x + y w is raised to 6a in Z[w] with integers
    (w^2 = -1 - w; Re(u + v w) = u - v/2), the weights are summed norm by norm,
    and the sum stops at the first n past 2(3a + 1)/(ct) where
    12 n^{3a+1} e^{-ctn}, which bounds each later norm's terms and falls
    geometrically from there, is below 1e-45."""
    import mpmath
    with mpmath.workdps(50):
        ct = 2 * mpmath.pi / mpmath.sqrt(3) * mpmath.mpf(t)
        n_max = int(2 * (3 * a + 1) / ct) + 1
        while (3 * a + 1) * mpmath.log(n_max) + mpmath.log(12) - ct * n_max > mpmath.log(1e-45):
            n_max += 1
        twice_re = [0] * (n_max + 1)  # 2 Re mu^{6a} summed over the points of norm n
        y_max = math.isqrt(4 * n_max // 3) + 1
        for y in range(-y_max, y_max + 1):
            for x in range(-2 * y_max, 2 * y_max + 1):
                n = x * x - x * y + y * y  # N(x + y w)
                if n == 0 or n > n_max:
                    continue
                u, v = 1, 0
                for _ in range(6 * a):
                    u, v = u * x - v * y, u * y + v * x - v * y
                twice_re[n] += 2 * u - v
        total = mpmath.mpf(a == 0)
        for n in range(1, n_max + 1):
            if twice_re[n]:
                total += mpmath.mpf(twice_re[n]) / 2 * mpmath.exp(-ct * n)
        return total


def test_theta_error_estimate_audit_at_t_at_least_one():
    # seeded draws past the frozen t < 1 grid: the emitted bound covers the
    # true error against an exact-weight lattice sum
    rng = random.Random(2005)
    for _ in range(20):
        t, a, tol = rng.uniform(1.0, 5.0), rng.randint(0, 6), rng.choice((1e-9, 1e-12, 1e-15))
        val, err = analytic._theta_with_error(t, a, tol)
        want = _theta_by_exact_weights(t, a)
        assert abs(val - want) <= err, (t, a, tol, val, err)


def test_unfolded_theta_keeps_the_mu_zero_term_at_one():
    # without the fold a t < 1 is summed directly, and the mu = 0 term is 1,
    # not the folded sum's t^{-1}; for a = 0 the terms do not cancel
    for t in (0.5, 0.9):
        val, err = analytic._theta_with_error(t, 0, 1e-12, fold=False)
        assert abs(val - theta(t, 0)) <= 1e-12 * val, t
        assert err < 1e-12, t


def test_transformation_law_is_not_the_fold(monkeypatch):
    # the residual compares two direct lattice sums; with a wrong decay
    # constant the law fails, which a residual that folded one side onto
    # the other could not see
    assert theta_transform_residual(0.5, 1) < 1e-8
    monkeypatch.setattr(analytic, "C_THETA", C_THETA * 1.01)
    for t in (0.5, 2.0):
        assert theta_transform_residual(t, 1) > 1e-3


def test_transformation_law():
    # t = 1 is the fixed point of t -> 1/t
    assert theta_transform_residual(1.0, 1) < 1e-12
    assert theta_transform_residual(1.5, 1) < 1e-10
    assert theta_transform_residual(0.5, 2) < 1e-8
    for t in (0.4, 0.7, 2.5, 4.0):
        for a in (1, 2):
            assert theta_transform_residual(t, a) < 1e-8


def test_transformation_law_validation():
    with pytest.raises(ValueError):
        theta_transform_residual(0.1, 1)
    with pytest.raises(ValueError):
        theta_transform_residual(6.0, 1)
    with pytest.raises(ValueError):
        theta_transform_residual(1.0, 0)


def test_l_value_against_independent_oracle():
    val, err = l_dirichlet_with_error(2.0, 0, tol=1e-9)
    assert abs(val - ZETA_K_2) < 1e-8
    assert abs(val.imag) < 1e-12
    assert err < 1e-8


def test_l_euler_product():
    # truncated Euler product over prime ideals of norm <= 1e4 at s = 3
    for a in (0, 1, 2):
        prod = 1.0 + 0.0j
        from eisen.angles import prime_ideals_up_to

        for n, th in prime_ideals_up_to(10**4):
            chi = cmath.exp(1j * 6 * a * th)
            prod /= 1.0 - chi * n**-3.0
        assert abs(l_dirichlet(3.0, a) - prod) < 1e-6


def test_l_reality_and_symmetry():
    for a in (0, 1, 3):
        v = l_dirichlet(2.5, a)
        assert abs(v.imag) < 1e-12
        assert l_dirichlet(2.5, -a) == v  # chi^{-6a} pairs with conjugate ideals


def test_l_triangle_bound():
    z = l_dirichlet(2.0, 0).real
    for a in (1, 2, 4):
        for s in (2.0, 2.0 + 5j):
            assert abs(l_dirichlet(s, a)) <= z + 1e-9


def test_l_log_derivative_consistency():
    # numerical d/ds log L at sigma = 3 vs the ideal-supported Dirichlet
    # series of -L'/L truncated at norm 1e4
    from eisen.angles import prime_ideals_up_to

    h = 1e-4
    for a in (0, 1):
        num = (cmath.log(l_dirichlet(3 + h, a)) - cmath.log(l_dirichlet(3 - h, a))) / (2 * h)
        series = 0.0 + 0.0j
        for n, th in prime_ideals_up_to(10**4):
            chi = cmath.exp(1j * 6 * a * th)
            npow = float(n)
            k = 1
            while npow**-3 > 1e-18:
                series -= math.log(n) * chi**k / npow**3
                npow *= n
                k += 1
        assert abs(num - series) < 1e-5


def test_l_dirichlet_holds_one_band_at_a_time():
    # the lattice sum has R = 2e6 here; a full-length coefficient table
    # would take 16 MB alone
    tracemalloc.start()
    try:
        analytic._l_lattice(2.0 + 0j, 1, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# L(s, chi^{6a}) from mpmath at 50 digits, shown to 30: a = 0 as zeta(s) L(s, chi_-3)
# by Hurwitz zeta, a >= 1 as xi / ((sqrt3/2pi)^s Gamma(s+3a)) with xi from the
# incomplete-gamma series below (norms <= 110); the 30- and 50-digit runs agree
# to 1e-24
L_FROZEN = [
    (0, 1.1, 6.62984732713932013416531713427),
    (0, 1.1 + 5j, 1.25155035308242638952886629282 + 0.170154715743258431416263000347j),
    (0, 2, 1.2851909554841494029175117987),
    (0, 2.5 + 3j, 0.936272226932909887596454937048 + 0.0363712617178229757153993913586j),
    (0, 2 + 20j, 0.866039810600299509937896640497 - 0.074676913541747858715687871351j),
    (0, 2.5 + 20j, 0.920460521863308751436768897001 - 0.0325949964882596149304340369471j),
    (1, 1.1, 0.876728767693924635966470041652),
    (1, 1.1 + 5j, 1.02310196554625270197613300871 - 0.309459356085608690703733325455j),
    (1, 2, 0.942800479646429128159142007667),
    (1, 2.5 + 3j, 1.04430393687098532374368684947 + 0.0137103324749187591524968948476j),
    (1, 2 + 20j, 1.06791554500344425859045424118 - 0.0118451570411333862371881816034j),
    (1, 2.5 + 20j, 1.03970748173415738363468680687 - 0.00861245115688114216651061039297j),
    (3, 1.1, 1.16914666692265408059097897711),
    (3, 1.1 + 5j, 0.670017050425069012073126577183 - 0.226768583789472855784630445169j),
    (3, 2, 0.995512855144545224195939599018),
    (3, 2.5 + 3j, 1.0629961021000979104842104462 + 0.0239076209692524560638497228401j),
    (3, 2 + 20j, 1.07312173462227631638611227951 - 0.0715042137348437194204120098798j),
    (3, 2.5 + 20j, 1.0440989614880238101362831697 - 0.0297338863827214067634962619854j),
    (8, 1.1, 1.67691542353875957611972131578),
    (8, 1.1 + 5j, 1.85198134616753888329612189435 + 0.0224663603765608489707192529684j),
    (8, 2, 1.16916210580156303871270055698),
    (8, 2.5 + 3j, 0.911538156893185378530971600466 + 0.0244210758682440277814812943368j),
    (8, 2 + 20j, 0.844968530765092596646723448333 - 0.00494683787771179362106233704697j),
    (8, 2.5 + 20j, 0.911213522852677510364236899093 - 0.00520857502857768718442833130489j),
]


@pytest.mark.parametrize("a,s,want", L_FROZEN)
def test_l_error_estimate_bounds_true_error(a, s, want):
    # on both routes: the xi integral and the lattice sum
    for tol in (1e-9, 1e-6):
        val, err = l_dirichlet_with_error(s, a, tol)
        assert abs(val - want) <= err, (tol, val, err)


def test_l_route(monkeypatch):
    lattice = analytic._l_lattice
    calls = []

    def spy(*args):
        calls.append(args)
        return lattice(*args)

    def refuse(*args):
        raise AssertionError("lattice sum called")

    monkeypatch.setattr(analytic, "_l_lattice", refuse)
    for s, a, want in ((2.0, 1, 0.942800479646429128159142007667), (1.1, 0, 6.62984732713932013416531713427)):
        val, err = l_dirichlet_with_error(s, a)  # the xi integral meets tol 1e-9
        assert abs(val - want) <= err <= 1e-9
    frozen = {(a, s): want for a, s, want in L_FROZEN}
    for s in (1.1, 2, 2.5 + 3j):  # the floor estimated shell by shell keeps a = 8 on xi
        val, err = l_dirichlet_with_error(s, 8)
        assert abs(val - frozen[8, s]) <= err <= 1e-9, s
    monkeypatch.setattr(analytic, "_l_lattice", spy)
    l_dirichlet_with_error(2 + 20j, 1)  # xi's roundoff floor over the gamma factor (3e-9) is 7e-5
    assert len(calls) == 1


# where the lattice sum's truncation estimate alone falls far below double
# roundoff (6.8e-24 and 4.4e-25), from mpmath at 50 digits, shown to 30: a = 0
# by Hurwitz zeta, a = 6 as xi / gamma factor with the incomplete-gamma series
# below (norms <= 150); s is taken as the double it is written as
L_LATTICE_FROZEN = [
    (0, 4.74 + 19.78j, 0.993964366369654964926686424099 - 0.0025888372302650931681253009949j),
    (6, 5.05 + 2.15j, 0.996284748731794879301710021858 - 0.002789976855391692847750559095j),
]


@pytest.mark.parametrize("a,s,want", L_LATTICE_FROZEN)
def test_l_lattice_estimate_covers_roundoff(a, s, want):
    val, err = analytic._l_lattice(s, a, 1e-9)
    assert abs(val - want) <= err, (val, err)


# at large |Im s| each term's exponent s log n carries about |s| log n ulps of
# phase; before the estimate charged them it read 9.12e-16 here, under the true
# error of 2.81e-15.  zeta(s) L(s, chi_-3) by Hurwitz zeta in mpmath at 40 digits
# (the same at 70), shown to 30; s is taken as the double it is written as
L_PHASE_FROZEN = (complex(3.9471744890277005, -964.2116058648693),
                  0.988062931935026927760621908035 - 0.0118087760392292493299948984162j)


def test_l_lattice_estimate_covers_phase_roundoff():
    s, want = L_PHASE_FROZEN
    val, err = l_dirichlet_with_error(s, 0)
    assert abs(val - want) <= err, (val, err)


def _dedekind_zeta_by_hurwitz(s: complex) -> complex:
    """zeta(s) L(s, chi_-3) = zeta(s) 3^-s (zeta(s, 1/3) - zeta(s, 2/3)), mpmath at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        third = mpmath.mpf(1) / 3
        return complex(mpmath.zeta(z) * 3 ** (-z) * (mpmath.zeta(z, third) - mpmath.zeta(z, 2 * third)))


def test_l_tighter_tol_is_no_worse():
    # no route meets tol 1e-300 and xi's floor is above it, so xi runs to its
    # own floor and its bound must beat the lattice sum's 6.0e-5, as at tol 1e-9
    want = _dedekind_zeta_by_hurwitz(1.1 + 0j)
    _, loose = l_dirichlet_with_error(1.1, 0, 1e-9)
    val, err = l_dirichlet_with_error(1.1, 0, 1e-300)
    assert abs(val - want) <= err <= loose


def test_l_error_estimate_audit_at_large_im_s():
    # seeded draws over the range where the lattice route's roundoff dominates
    rng = random.Random(23)
    for _ in range(20):
        s = complex(rng.uniform(3.0, 30.0), rng.uniform(-1000.0, 1000.0))
        val, err = l_dirichlet_with_error(s, 0)
        assert abs(val - _dedekind_zeta_by_hurwitz(s)) <= err, (s, val, err)


def test_l_validation():
    with pytest.raises(ValueError):
        l_dirichlet(1.05, 0)
    with pytest.raises(ValueError):
        l_dirichlet(2.0, 9)
    with pytest.raises(ValueError):
        l_dirichlet(complex(math.nan, 0), 0)
    with pytest.raises(ValueError):
        l_dirichlet(2.0, 0, tol=-1.0)


def test_l_at_a_tol_below_roundoff_reports_its_bound():
    # the lattice cutoff (growth / tol)^(1 / (sigma - beta)) overflowed a double: capped, not an OverflowError
    val, err = l_dirichlet_with_error(1.1, 0, tol=1e-300)
    assert math.isfinite(val.real) and 1e-300 < err < 1e-3
    assert abs(val - l_dirichlet(1.1, 0)) <= err


def test_xi_matches_gamma_times_l():
    # the completed function two ways: integral vs (sqrt3/2pi)^s Gamma(s+3a) L(s),
    # L from the lattice sum (l_dirichlet itself takes the integral here)
    for a, tol in ((1, 1e-9), (2, 1e-6)):
        s = 2.0
        L = analytic._l_lattice(complex(s), a, 1e-9)[0]
        via_l = (math.sqrt(3.0) / (2.0 * math.pi)) ** s * complex_gamma(s + 3 * a) * L
        via_int = xi_integral(s, a)
        assert abs(via_int - via_l) <= tol * abs(via_l)


# xi(s, chi^{6a}) from the incomplete-gamma series of the theta integral,
# (1/6) sum_mu cos(6a arg mu) [(cN)^-s G(s+3a, cN) + (cN)^(s-1) G(1-s+3a, cN)]
# with c = 2pi/sqrt3, N = |mu|^2 <= 80, in mpmath at 30 digits
XI_FROZEN = [
    (1, 0.5 + 7j, -0.005770050233974297 + 0j),
    (2, -5 + 0j, 17544.35783060851 + 0j),
    (2, -5 + 15j, 0.656232588324966 - 5.6331402994324415j),
    (3, -5 + 7j, -6465178.113296345 + 3801491.821369349j),
    (3, 3 + 7j, -66285.205905865 + 87093.824380586j),
    (3, 3 + 15j, 42.00180561289829 + 272.49983873832554j),
]


@pytest.mark.parametrize("a,s,want", XI_FROZEN)
def test_xi_against_incomplete_gamma_series(a, s, want):
    # the integral is asked for tol = 1e-9 before it is scaled by (2pi/sqrt3)^{3a}/6
    assert abs(xi_integral(s, a) - want) <= 1e-9 * C_THETA ** (3 * a) / 6.0


def test_xi_symmetry():
    assert xi_integral(0.5, 1).imag == 0.0
    assert xi_integral(0.25, 1) == pytest.approx(xi_integral(0.75, 1), rel=1e-12)
    for s in (0.25, 0.5 + 3j, 0.3 + 0.7j):
        for a in (1, 2):
            assert functional_eq_residual(s, a) < 1e-6


def test_xi_validation():
    with pytest.raises(ValueError):
        xi_integral(2.0, 0)
    with pytest.raises(ValueError):
        xi_integral(2.0, 9)
    with pytest.raises(ValueError):
        xi_integral(60.0, 1)
    with pytest.raises(ValueError):
        xi_integral(complex(math.inf, 0), 1)


def test_gauss_legendre_constants_are_the_bits_of_leggauss():
    from numpy.polynomial.legendre import leggauss
    nodes, weights = analytic._gauss_legendre_20()
    ref_nodes, ref_weights = leggauss(20)
    assert nodes.dtype == weights.dtype == np.float64
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
