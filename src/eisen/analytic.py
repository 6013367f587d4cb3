"""Numerical side: Li, complex Gamma, the lattice theta function, the
Hecke L-functions L(s, chi^{6a}) and the completed xi.

The theta function of the character chi^{6a} is

    theta(t, a) = sum over mu in Z[w] of mu^{6a} e^{-(2 pi/sqrt 3) t |mu|^2}

(the mu = 0 term contributes 1 only when a = 0).  Conjugation symmetry
of the lattice makes the sum real, and Poisson summation gives the
transformation law theta(t, a) = t^{-1-6a} theta(1/t, a).

For Re s > 1 the L-function is the absolutely convergent lattice sum
L(s, chi^{6a}) = (1/6) sum mu^{6a} / |mu|^{2s+6a}, and the completed

    xi(s, chi^{6a}) = (sqrt 3 / 2 pi)^s Gamma(s + 3|a|) L(s, chi^{6a})

extends to an entire function with xi(s) = xi(1-s), realized here by
the integral

    xi = (1/6) (sqrt3/2pi)^{-3a} * int_1^inf theta(v, a) (v^{s+3a-1} + v^{-s+3a}) dv

whose integrand is manifestly symmetric under s -> 1-s.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad

from . import expsum, factor

# the Gaussian decay constant of theta, and also the average of r_Q
C_THETA = 2.0 * math.pi / math.sqrt(3.0)


def _check_finite(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("nonfinite complex argument")
    return s


def li(x: float) -> float:
    """Li(x) = integral from 2 to x of du / log(u), by adaptive quadrature."""
    if not math.isfinite(x) or x < 2:
        raise ValueError("Li is taken from 2; need finite x >= 2")
    if x == 2:
        return 0.0
    val, err = quad(lambda u: 1.0 / math.log(u), 2.0, x, epsabs=1e-12, epsrel=1e-12, limit=400)
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(f"Li quadrature did not converge: err={err:.3g}")
    return float(val)


# Lanczos approximation, g = 7, 9 coefficients (double precision set)
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(s: complex) -> complex:
    """Gamma(s) for complex s away from the poles at 0, -1, -2, ..."""
    s = _check_finite(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise ValueError(f"Gamma pole at s = {s.real:.0f}")
    if s.real < 0.5:
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * complex_gamma(1.0 - s))
    z = s - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def _theta_radius(t: float, a: int, tol: float) -> int:
    """Smallest shell cutoff R so the omitted theta tail is below tol.

    Shell n holds at most r_Q(n) <= 12n points of weight n^{3a}e^{-ctn},
    and past n0 = 2(3a+1)/(ct) consecutive terms shrink by at least
    e^{-ct/2}, so the tail is geometrically dominated.
    """
    ct = C_THETA * t
    n = max(1, int(2 * (3 * a + 1) / ct) + 1)
    denom = -math.expm1(-ct / 2.0)
    while True:
        log_tail = math.log(12.0) + (3 * a + 1) * math.log(n + 1) - ct * (n + 1) - math.log(denom)
        if log_tail < math.log(tol):
            return n
        n += 1 + n // 16
        if n > 10**6:
            raise RuntimeError("theta truncation radius exceeds 1e6 shells")


def _sector_theta(t: float, a: int, R: int, signed: bool = True) -> float:
    """theta(t, a) cut at norm R, from the fundamental sector.

    mu^{6a} is the same on all six associates (w^{6a} = 1), so the sum
    is 6 times the sector sum, plus the mu = 0 term 1 when a = 0.  Terms
    are evaluated in polar form exp(3a log n - ct n) cos(6a arg mu), so
    the n^{3a} growth never overflows, and summed in the fixed (norm,
    angle) order for reproducibility.  With signed=False the cosines are
    dropped, which bounds |theta|.
    """
    norms, angs = factor.lattice_norms_angles(R)
    terms = np.exp(3.0 * a * np.log(norms) - C_THETA * t * norms)
    if a == 0:
        return 1.0 + 6.0 * float(np.add.reduce(terms))
    if signed:
        terms = terms * np.cos(6.0 * a * angs)
    return 6.0 * float(np.add.reduce(terms))


def theta(t: float, a: int, tol: float = 1e-12) -> float:
    """Truncated lattice sum for theta(t, a); the result is real."""
    if not math.isfinite(t) or t <= 0:
        raise ValueError("finite t > 0 required")
    if a < 0:
        raise ValueError("a >= 0 required")
    if tol <= 0:
        raise ValueError("tol > 0 required")
    return _sector_theta(t, a, _theta_radius(t, a, tol))


def _theta_abs_bound(a: int, tol: float) -> float:
    """K with |theta(v, a)| <= K e^{-cv} for all v >= 1."""
    return math.exp(C_THETA) * _sector_theta(1.0, a, _theta_radius(1.0, a, tol), signed=False)


def theta_transform_residual(t: float, a: int, tol: float = 1e-12) -> float:
    """Relative defect of theta(t, a) = t^{-1-6a} theta(1/t, a)."""
    if not (0.2 <= t <= 5.0):
        raise ValueError("t must lie in [0.2, 5]")
    if a < 1:
        raise ValueError("a >= 1 required")
    lhs = theta(t, a, tol)
    rhs = t ** (-1.0 - 6.0 * a) * theta(1.0 / t, a, tol)
    return abs(lhs - rhs) / (abs(lhs) + tol)


def l_dirichlet_with_error(s: complex, a: int, tol: float = 1e-9) -> tuple[complex, float]:
    """L(s, chi^{6a}) for Re s >= 1.1 with a truncation error estimate.

    The lattice sum is cut at norm R; the omitted tail is corrected by
    partial summation, -A(R) R^{-s} plus (for a = 0, where the
    coefficient sum has the Gauss-circle main term C_THETA*x) the term
    C_THETA s R^{1-s}/(s-1).  What remains is controlled by the
    fluctuation of the coefficient sum, reported as the error estimate
    with empirical constants (x^{1/3} fluctuation for a = 0, x^{1/2}
    for a != 0).
    """
    s = _check_finite(s)
    sigma = s.real
    if sigma < 1.1:
        raise ValueError("Re s >= 1.1 required; the integral form continues further")
    if abs(a) > 8:
        raise ValueError("|a| <= 8")
    if tol <= 0:
        raise ValueError("tol > 0 required")
    aa = abs(a)  # the coefficients S(n, 6a) are even in a
    beta = 1.0 / 3.0 if aa == 0 else 0.5
    growth = (1.0 + abs(s) / (sigma - beta)) * 10.0 / 6.0
    want = (growth / tol) ** (1.0 / (sigma - beta))
    R = int(min(2_000_000, max(300_000, want)))
    s_re, s_im = expsum.circle_sums(R, 6 * aa)
    mask = (s_re != 0.0) | (s_im != 0.0)
    mask[0] = False
    ns = np.nonzero(mask)[0].astype(np.float64)
    coeff = s_re[mask] + 1j * s_im[mask]
    powers = np.exp(-s * np.log(ns))
    total = complex(np.sum(coeff * powers)) / 6.0
    # exact coefficient sum at the cutoff for the boundary correction
    A_R = complex(np.sum(s_re[mask]), np.sum(s_im[mask]))
    total -= A_R * R ** complex(-s) / 6.0
    if aa == 0:
        total += C_THETA * s * R ** (1.0 - s) / (s - 1.0) / 6.0
    err = growth * R ** (beta - sigma)
    return total, float(err)


def l_dirichlet(s: complex, a: int, tol: float = 1e-9) -> complex:
    """L(s, chi^{6a}) for Re s >= 1.1; a = 0 gives the Dedekind zeta."""
    return l_dirichlet_with_error(s, a, tol)[0]


def xi_integral(s: complex, a: int, tol: float = 1e-9) -> complex:
    """Completed xi(s, chi^{6a}) by the integral over [1, inf).

    Valid for any s with |s| <= 50 and 1 <= a <= 8; the integrand decays
    like e^{-cv} so the upper limit is truncated where the bound drops
    below tol.
    """
    s = _check_finite(s)
    if not (1 <= a <= 8):
        raise ValueError("a must lie in 1..8")
    if abs(s) > 50:
        raise ValueError("|s| <= 50")
    if tol <= 0:
        raise ValueError("tol > 0 required")
    inner = min(1e-12, tol * 1e-3)
    K = _theta_abs_bound(a, inner)
    m = max(s.real + 3 * a - 1.0, -s.real + 3 * a, 0.0)
    V = max(4.0, 4.0 * m / C_THETA)
    while K * math.exp(-C_THETA * V + m * math.log(V)) * 2.0 / C_THETA > tol / 4.0:
        V *= 1.5
        if V > 1e4:
            raise RuntimeError("xi integral truncation failed to converge")

    def integrand(v: float) -> complex:
        lv = math.log(v)
        kern = cmath.exp((s + 3 * a - 1) * lv) + cmath.exp((-s + 3 * a) * lv)
        return theta(v, a, inner) * kern

    re_val, re_err = quad(lambda v: integrand(v).real, 1.0, V, epsabs=tol / 4, epsrel=1e-11, limit=400)
    im_val, im_err = quad(lambda v: integrand(v).imag, 1.0, V, epsabs=tol / 4, epsrel=1e-11, limit=400)
    pref = C_THETA ** (3 * a) / 6.0  # (sqrt3/2pi)^{-3a} / 6
    return pref * complex(re_val, im_val)


def functional_eq_residual(s: complex, a: int, tol: float = 1e-9) -> float:
    """|xi(s) - xi(1-s)| / (|xi(s)| + 1e-30)."""
    s = _check_finite(s)
    x1 = xi_integral(s, a, tol)
    x2 = xi_integral(1.0 - s, a, tol)
    return abs(x1 - x2) / (abs(x1) + 1e-30)
