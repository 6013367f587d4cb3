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

from eisen import factor
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


def test_theta_slices_the_cached_sector_table(monkeypatch):
    # theta keeps the joined sector bands of the largest R asked for and
    # slices them for a smaller R; the slice gives the bits of a fresh build
    monkeypatch.setattr(factor, "_tables", {})
    theta(0.05, 0)
    big = factor._tables["pts"]
    sliced = [theta(t, a) for t, a in ((1.0, 1), (0.3, 4), (3.0, 0))]
    assert factor._tables["pts"] is big  # every R above was served from it
    norms, angs = (np.concatenate(arrs) for arrs in zip(*factor.sector_bands(big[0])))
    assert np.array_equal(big[1], norms) and np.array_equal(big[2], angs)
    monkeypatch.setattr(factor, "_tables", {})
    assert [theta(t, a) for t, a in ((1.0, 1), (0.3, 4), (3.0, 0))] == sliced


def test_theta_validation():
    for bad_t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            theta(bad_t, 0)
    with pytest.raises(ValueError):
        theta(1.0, -1)
    with pytest.raises(ValueError):
        theta(1.0, 0, tol=0.0)
    with pytest.raises(ValueError):
        theta(1e-5, 1)  # would need over 1e6 shells
    for t in (3e-7, 1e-12):
        with pytest.raises(ValueError, match="1e6 shells"):
            theta(t, 0, tol=1e300)  # a loose tol, but the search starts past 1e6
    with pytest.raises(ValueError, match="overflows"):
        theta(0.3, 60)  # n^{3a} e^{-ctn} passes the double range


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
    # R = 2e6 here; a full-length coefficient table would take 16 MB alone
    tracemalloc.start()
    try:
        l_dirichlet(2.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_l_validation():
    with pytest.raises(ValueError):
        l_dirichlet(1.05, 0)
    with pytest.raises(ValueError):
        l_dirichlet(2.0, 9)
    with pytest.raises(ValueError):
        l_dirichlet(complex(math.nan, 0), 0)
    with pytest.raises(ValueError):
        l_dirichlet(2.0, 0, tol=-1.0)


def test_xi_matches_gamma_times_l():
    # the completed function two ways: integral vs (sqrt3/2pi)^s Gamma(s+3a) L(s)
    for a, tol in ((1, 1e-9), (2, 1e-6)):
        s = 2.0
        via_l = (math.sqrt(3.0) / (2.0 * math.pi)) ** s * complex_gamma(s + 3 * a) * l_dirichlet(s, a)
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
