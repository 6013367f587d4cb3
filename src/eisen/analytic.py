"""Numerical side: Li, complex Gamma, the lattice theta function, the
Hecke L-functions L(s, chi^{6a}) and the completed xi.

The theta function of the character chi^{6a} is

    theta(t, a) = sum over mu in Z[w] of mu^{6a} e^{-(2 pi/sqrt 3) t |mu|^2}

(the mu = 0 term contributes 1 only when a = 0).  Conjugation symmetry
of the lattice makes the sum real, and Poisson summation gives the
transformation law theta(t, a) = t^{-1-6a} theta(1/t, a), used for t < 1.

For Re s > 1 the L-function is the absolutely convergent lattice sum
L(s, chi^{6a}) = (1/6) sum mu^{6a} / |mu|^{2s+6a}, and the completed

    xi(s, chi^{6a}) = (sqrt 3 / 2 pi)^s Gamma(s + 3|a|) L(s, chi^{6a})

extends to an entire function with xi(s) = xi(1-s), realized here by
the integral

    xi = (1/6) (sqrt3/2pi)^{-3a} * int_1^inf theta(v, a) (v^{s+3a-1} + v^{-s+3a}) dv

whose integrand is manifestly symmetric under s -> 1-s (for a = 0 it
integrates theta(v) - 1 and adds the pole terms 1/(s-1) - 1/s inside the
1/6).  L is xi over its gamma factor where the quadrature's bound (cut, last
doubling, roundoff floor) over it meets tol, and the lattice sum elsewhere.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math

from .core import _arg, _row_end

# the Gaussian decay constant of theta, and also the average of r_Q
C_THETA = 2.0 * math.pi / math.sqrt(3.0)
_LN2 = math.log(2.0)


def _check_finite(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("nonfinite complex argument")
    return s


def li(x: float) -> float:
    """Li(x) = integral from 2 to x of du / log(u).

    From the series li(x) = Ei(L) = gamma + log L + sum_{n>=1} L^n / (n n!)
    with L = log x, taken as a difference with l = log 2 so nothing
    cancels: Li(x) = log1p(d/l) + sum_n c_n / n, where d = log(x/2) and
    c_n = (L^n - l^n)/n! = (L c_{n-1} + d l^{n-1}/(n-1)!)/n > 0.  Past
    n = 2L each term is under half the one before, so the sum ends
    within 2L + 60 terms (under 1,480 for any finite x).
    """
    if not math.isfinite(x) or x < 2:
        raise ValueError("Li is taken from 2; need finite x >= 2")
    if x == 2:
        return 0.0
    lx = math.log(x)
    d = math.log(x / 2.0)
    total, c, b = 0.0, 0.0, 1.0  # b = l^{n-1}/(n-1)!
    for n in range(1, int(2 * lx) + 60):
        c = c * (lx / n) + b * (d / n)  # L c / n first would overflow near x = 1e308
        b *= _LN2 / n
        total += c / n
        if n > lx and c < 1e-17 * n * total:
            break
    return math.log1p(d / _LN2) + total


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


_TABLE_NORMS = 4096  # every theta, xi and L call sums the sector to a norm below this


def _theta_radius(t: float, a: int, tol: float) -> tuple[int, float]:
    """Smallest shell cutoff R so the omitted theta tail is below tol, and the log of that bound.

    Shell n holds at most r_Q(n) <= 12n points of weight n^{3a}e^{-ctn},
    and past n0 = 2(3a+1)/(ct) consecutive terms shrink by at least
    e^{-ct/2}, so the tail is geometrically dominated.  Only a theta whose
    terms pass the double range needs an R past _TABLE_NORMS.
    """
    ct = C_THETA * t
    n = max(1, int(2 * (3 * a + 1) / ct) + 1)
    denom = -math.expm1(-ct / 2.0)
    while True:
        if n > _TABLE_NORMS:  # also a start past it
            raise ValueError(f"theta at a = {a} needs norms past {_TABLE_NORMS}, past the double range; use a smaller a")
        log_tail = math.log(12.0) + (3 * a + 1) * math.log(n + 1) - ct * (n + 1) - math.log(denom)
        if log_tail < math.log(tol):
            return n, log_tail
        n += 1 + n // 16


@functools.lru_cache(maxsize=1)
def _sector_table() -> tuple[list[int], list[float], list[float], list[int]]:
    """The kept sector table: norms, log norms and angles, and the norm bounds of the bands they hold."""
    return [], [], [], [0]


def _sector_slice(R: int) -> tuple[list[int], list[float], list[float]]:
    """(norms, log norms, angles) of the sector to norm R <= _TABLE_NORMS in
    factor.sector_bands' (norm, angle) order: 2,474 points at _TABLE_NORMS.

    The kept table grows in norm bands (lo, 4 lo] from (0, 64] as far as R
    needs; most calls need R < 100.  In a band each half-sector point
    a + b*w, a >= b >= 0, gives its angle where a > b and its mirror's, the
    negated angle clamped at -pi/6, where b >= 1, and the band is sorted."""
    norms, logs, angs, tops = _sector_table()
    while tops[-1] < min(R, _TABLE_NORMS):
        lo = tops[-1]
        hi = min(max(4 * lo, 64), _TABLE_NORMS)
        rows = []
        for b in range(math.isqrt(hi // 3) + 1):
            for a in range(max(b, 1, _row_end(b, lo) + 1), _row_end(b, hi) + 1):
                n, t = a * a + a * b + b * b, _arg(a, b)
                if b >= 1:
                    rows.append((n, max(-t, -math.pi / 6.0)))
                if a > b:
                    rows.append((n, t))
        rows.sort()
        norms += [n for n, _ in rows]
        logs += [math.log(n) for n, _ in rows]
        angs += [t for _, t in rows]
        tops.append(hi)
    k = bisect.bisect_right(norms, R)
    return norms[:k], logs[:k], angs[:k]


def _sector_terms(t: float, a: int, R: int, shift: float = 0.0) -> tuple[list[float], list[float]]:
    """(w, w cos(6a arg mu)) over the sector to norm R, w = exp(3a log n + shift - ctn).
    6 times the second's sum is e^shift (theta(t, a) - [a = 0]), as mu^{6a} is the
    same on all six associates; 6 times the sum of w bounds it.  A term past the
    double range raises OverflowError."""
    norms, logs, angs = _sector_slice(R)
    ct = C_THETA * t
    w = [math.exp((3.0 * a * lg + shift) - ct * n) for n, lg in zip(norms, logs)]
    return w, [wi * math.cos(6.0 * a * ang) for wi, ang in zip(w, angs)]


def _theta_with_error(t: float, a: int, tol: float, fold: bool = True) -> tuple[float, float]:
    """theta(t, a) and a bound on its error.  With fold, a t < 1 gives
    t^{-1-6a} theta(1/t, a), theta(1/t) asked for tol t^{1+6a} (at least the
    smallest double), the factor's log in each term's exponent.  The bound is
    the tail past R plus the roundoff: each term's exponent and cosine argument
    carry a few ulps of their size, at most e_max, so 2^{-51} (1 + e_max) of
    the unsigned sum."""
    if not math.isfinite(t) or t <= 0:
        raise ValueError("finite t > 0 required")
    if a < 0:
        raise ValueError("a >= 0 required")
    if not 0 < tol < math.inf:  # NaN fails both
        raise ValueError("finite tol > 0 required")
    t0, shift, one = t, 0.0, float(a == 0)  # one: the mu = 0 term
    if fold and t < 1.0:
        shift = -(1.0 + 6.0 * a) * math.log(t)  # log t^{-1-6a}
        tol = max(tol * t ** (1.0 + 6.0 * a), 5e-324)
        t, one = 1.0 / t, one / t
    # where 3a <= ct no term passes the n = 1 term 6 e^{shift - ct} (the fold implies it where that underflows)
    if a >= 1 and 3 * a <= C_THETA * t and math.log(6.0) + shift - C_THETA * t < math.log(5e-324):
        raise ValueError(f"theta at t = {t0:g}, a = {a} underflows double precision; use a t nearer 1")
    R, log_tail = _theta_radius(t, a, tol)
    try:
        w, terms = _sector_terms(t, a, R, shift)
        val = 6.0 * math.fsum(terms) + one
        absum = 6.0 * math.fsum(w)
    except OverflowError:  # a term or a sum past the double range, reported below
        val = absum = math.inf
    tail = math.exp(log_tail + shift) if log_tail + shift < 709.0 else math.inf
    e_max = 3 * a * math.log(R) + C_THETA * t * R + shift + math.pi * a
    err = tail + 2.0**-51 * (1.0 + e_max) * absum + 2.0**-52 * one
    if not (math.isfinite(val) and math.isfinite(err)):
        raise ValueError(f"theta at t = {t0:g}, a = {a} overflows double precision; use a smaller a or a t nearer 1")
    return val, err


def theta(t: float, a: int, tol: float = 1e-12) -> float:
    """theta(t, a), real, from the lattice sum at t >= 1 only.  For t < 1 the fold's roundoff can
    pass a tight tol (4.5e-12 at t = 0.05, a = 4); _theta_with_error returns the real bound."""
    return _theta_with_error(t, a, tol)[0]


def theta_transform_residual(t: float, a: int, tol: float = 1e-12) -> float:
    """Relative defect of theta(t, a) = t^{-1-6a} theta(1/t, a) between two direct lattice sums."""
    if not (0.2 <= t <= 5.0):
        raise ValueError("t must lie in [0.2, 5]")
    if a < 1:
        raise ValueError("a >= 1 required")
    lhs = _theta_with_error(t, a, tol, fold=False)[0]
    rhs = t ** (-1.0 - 6.0 * a) * _theta_with_error(1.0 / t, a, tol, fold=False)[0]
    return abs(lhs - rhs) / (abs(lhs) + tol)


def l_dirichlet_with_error(s: complex, a: int, tol: float = 1e-9) -> tuple[complex, float]:
    """L(s, chi^{6a}) for Re s >= 1.1 and a bound on its error.

    Where |s| <= 50, L = xi / G, G = (sqrt3/2pi)^s Gamma(s + 3|a|), bounded
    by the bound of _xi_integral over |G| plus 1e-14 |s + 3a| |L| for the
    Lanczos gamma (G's relative error reached 5.4e-15 |s + 3a| on 6,000
    points against mpmath).  |G| decays like e^{-pi |Im s| / 2}, so xi is
    skipped where its roundoff floor over |G|, estimated beforehand, passes
    tol.  Where xi misses tol the lattice sum runs; the smaller bound wins.
    Where that still misses tol and xi was skipped, xi runs to its own floor
    and the smaller bound wins, so a tighter tol never gives a worse answer.
    """
    s = _check_finite(s)
    if s.real < 1.1:
        raise ValueError("Re s >= 1.1 required; the integral form continues further")
    if abs(a) > 8:
        raise ValueError("|a| <= 8")
    if abs(s.imag) * math.log(2e6) >= 2.0**53:  # the phases t log n, n <= 2e6, keep no correct bit
        raise ValueError("|Im s| < 2^53 / log(2e6), about 6.2e14, required; past it t log n has no correct bit")
    if not 0 < tol < math.inf:  # NaN fails both
        raise ValueError("finite tol > 0 required")
    aa = abs(a)  # the coefficients S(n, 6a) are even in a
    via_xi = (0j, math.inf)
    xi_floor = None  # set where the floor skips xi
    if abs(s) <= 50:
        G = (math.sqrt(3.0) / (2.0 * math.pi)) ** s * complex_gamma(s + 3 * aa)
        scale = C_THETA ** (3 * aa) / 6.0 / abs(G)  # the integral's units to L's

        def by_xi(xi_tol: float) -> tuple[complex, float]:
            xi, bound = _xi_integral(s, aa, xi_tol)
            return xi / G, bound / abs(G) + 1e-14 * abs(s + 3 * aa) * abs(xi / G)

        # the floor is 1e-13 int_1^inf |f|, and |f| <= 6 sum_n n^{3a} e^{-cnv} (v^q + v^q') over the sector,
        # q = max(p, 0) for p in {sigma + 3a - 1, 3a - sigma}; shell by shell, int_1^inf e^{-cnv} v^q dv is
        # at most Gamma(q+1)/(cn)^{q+1}, or e^{-cn}/(cn - q) where cn > q, as (1+u)^q <= e^{qu}
        norms, logs, _ = _sector_slice(_theta_radius(1.0, aa, 1e-12)[0])
        parts = []
        for q in (max(s.real + 3 * aa - 1.0, 0.0), max(3 * aa - s.real, 0.0)):
            for n, logn in zip(norms, logs):
                cn, lw = C_THETA * n, 3 * aa * logn  # lw = log n^{3a}
                gam = math.exp(lw + math.lgamma(q + 1.0) - (q + 1.0) * math.log(cn))
                parts.append(min(gam, math.exp(lw - cn) / (cn - q)) if cn > q else gam)
        floor = 6e-13 * math.fsum(parts)
        if floor * scale + 1e-14 * abs(s + 3 * aa) <= tol:
            via_xi = by_xi(1e-3 * tol / scale)  # the last digits cost little more
        else:
            xi_floor = floor
    if via_xi[1] <= tol:
        return via_xi
    best = min(via_xi, _l_lattice(s, aa, tol), key=lambda r: r[1])
    if best[1] > tol and xi_floor is not None:
        best = min(best, by_xi(xi_floor), key=lambda r: r[1])
    return best


def _l_lattice(s: complex, a: int, tol: float) -> tuple[complex, float]:
    """L(s, chi^{6a}), Re s >= 1.1 and 0 <= a <= 8, by the lattice sum cut
    at norm R <= 2e6 (with its error estimate); the omitted tail is corrected by
    partial summation, -A(R) R^{-s} plus (for a = 0, where the
    coefficient sum has the Gauss-circle main term C_THETA*x) the term
    C_THETA s R^{1-s}/(s-1).  What remains is controlled by the
    fluctuation of the coefficient sum, reported as the error estimate
    with empirical constants (x^{1/3} fluctuation for a = 0, x^{1/2}
    for a != 0), plus the roundoff: 8 ulps of the unsigned sum, and for
    each term's exponent s log n, which carries about |s| log n ulps,
    2^-52 |s| log n times the term's size.
    """
    import numpy as np
    from . import expsum
    sigma = s.real
    beta = 1.0 / 3.0 if a == 0 else 0.5
    growth = (1.0 + abs(s) / (sigma - beta)) * 10.0 / 6.0
    try:
        want = (growth / tol) ** (1.0 / (sigma - beta))
    except OverflowError:  # a tol far below roundoff asks for more than the cap
        want = math.inf
    R = int(min(2_000_000, max(300_000, want)))
    # band by band over the sector sums c(n) = S(n, 6a) / 6, which are
    # real; A_R = A(R) / 6 sums them to the cutoff for the boundary
    # correction
    total, A_R, absum, phase = 0j, 0.0, 0.0, 0.0
    for n0, c in expsum._band_cos_sums(R, 6 * a):
        k = np.flatnonzero(c)
        logn = np.log((n0 + k).astype(np.float64))
        terms = c[k] * np.exp(-s * logn)
        total += complex(np.sum(terms))
        size = np.abs(terms)
        absum += float(np.sum(size))
        phase += float(size @ logn)
        A_R += float(np.sum(c[k]))
    total -= A_R * R ** complex(-s)
    if a == 0:
        total += C_THETA * s * R ** (1.0 - s) / (s - 1.0) / 6.0
    return total, float(growth * R ** (beta - sigma) + 8.0 * 2.0**-53 * absum + 2.0**-52 * abs(s) * phase)


def l_dirichlet(s: complex, a: int, tol: float = 1e-9) -> complex:
    """L(s, chi^{6a}) for Re s >= 1.1; a = 0 gives the Dedekind zeta."""
    return l_dirichlet_with_error(s, a, tol)[0]


# the positive nodes of the 20-point Gauss-Legendre rule on [-1, 1] and their weights,
# the doubles of numpy.polynomial.legendre.leggauss(20), which mirrors the other ten exactly
_GL20_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
               0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
               0.9639719272779138, 0.993128599185095)
_GL20_WEIGHTS = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
                 0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
                 0.040601429800386446, 0.017614007139150893)


def _gauss_legendre_20():
    """20-point Gauss-Legendre nodes, ascending, and weights on [-1, 1]."""
    import numpy as np
    nodes = np.array(_GL20_NODES)
    return np.concatenate((-nodes[::-1], nodes)), np.array(_GL20_WEIGHTS[::-1] + _GL20_WEIGHTS)


def _xi_integral(s: complex, a: int, tol: float) -> tuple[complex, float]:
    """xi(s, chi^{6a}) by the integral over [1, inf) and a bound on its
    error, for |s| <= 50 and 0 <= a <= 8 (s not 0 or 1 when a = 0).

    The upper limit V is cut where the tail bound drops below tol/4, tol
    taken before the (2pi/sqrt3)^{3a}/6 scaling.  The bound, scaled like the
    value, is the tail past V, the last doubling difference, the roundoff
    floor 1e-13 of the integral of |f| (large at large |Im s| and a) and
    the theta cut at R."""
    import numpy as np
    inner = min(1e-12, tol * 1e-3)
    R = _theta_radius(1.0, a, inner)[0]  # theta(v) for every v >= 1 needs no more
    # the arrays of _sector_terms, to take its terms at every node at once
    n, lw, angs = map(np.array, _sector_slice(R))
    lw, cos6a = 3.0 * a * lw, np.cos(6.0 * a * angs)
    # |theta(v, a) - [a = 0]| <= K e^{-cv} for all v >= 1
    K = math.exp(C_THETA) * (6.0 * float(np.add.reduce(np.exp(lw - C_THETA * n))))
    m = max(s.real + 3 * a - 1.0, -s.real + 3 * a, 0.0)
    V = max(4.0, 4.0 * m / C_THETA)
    while K * math.exp(-C_THETA * V + m * math.log(V)) * 2.0 / C_THETA > tol / 4.0:
        V *= 1.5
        if V > 1e4:
            raise RuntimeError("xi integral truncation failed to converge")

    # composite 20-point Gauss-Legendre rule on P equal panels of [1, V],
    # P doubled until two sums agree within tol/4 or, where that is below
    # double-precision roundoff, within 1e-13 of the integral of |f|
    P = max(4, math.ceil((V - 1.0) * (1.0 + abs(s.imag) / 4.0)))
    gl_x, gl_w = _gauss_legendre_20()
    prev = None
    for _ in range(9):  # the starting P and at most 8 doublings
        h = (V - 1.0) / P
        mid = 1.0 + h * (np.arange(P) + 0.5)
        v = (mid[:, None] + (h / 2.0) * gl_x).ravel()
        w = np.tile((h / 2.0) * gl_w, P)
        lv = np.log(v)
        g = np.exp((s + 3 * a - 1) * lv) + np.exp((-s + 3 * a) * lv)
        f = 6.0 * np.add.reduce(np.exp(lw - C_THETA * v[:, None] * n) * cos6a, axis=-1) * g
        val = complex(np.add.reduce(w * f))  # pairwise, not BLAS: the same bits on any thread count
        floor = 1e-13 * float(np.add.reduce(w * np.abs(f)))
        if prev is not None and abs(val - prev) <= max(tol / 4.0, floor):
            # past V, |f| <= 2K v^m e^{-cv}, whose integral is <= 8/3 K V^m e^{-cV}/c as
            # m/V <= c/4; theta's cut at R is below inner e^{-c(R+1)(v-1)} for v >= 1
            bound = (abs(val - prev) + floor + K * math.exp(-C_THETA * V + m * math.log(V)) * 8.0 / (3.0 * C_THETA)
                     + inner * float(np.add.reduce(w * np.abs(g) * np.exp(-C_THETA * (R + 1) * (v - 1.0)))))
            if a == 0:
                val += 1.0 / (s - 1.0) - 1.0 / s
            return C_THETA ** (3 * a) / 6.0 * val, C_THETA ** (3 * a) / 6.0 * bound  # (sqrt3/2pi)^{-3a} / 6
        prev = val
        P *= 2
    raise RuntimeError("xi integral quadrature failed to converge in 8 doublings")


def xi_integral(s: complex, a: int, tol: float = 1e-9) -> complex:
    """Completed xi(s, chi^{6a}), |s| <= 50, 1 <= a <= 8, to tol before the (2pi/sqrt3)^{3a}/6."""
    s = _check_finite(s)
    if not (1 <= a <= 8):
        raise ValueError("a must lie in 1..8")
    if abs(s) > 50:
        raise ValueError("|s| <= 50")
    if not 0 < tol < math.inf:  # NaN fails both
        raise ValueError("finite tol > 0 required")
    return _xi_integral(s, a, tol)[0]


def functional_eq_residual(s: complex, a: int, tol: float = 1e-9) -> float:
    """|xi(s) - xi(1-s)| / (|xi(s)| + 1e-30)."""
    s = _check_finite(s)
    return _fe_residual(xi_integral(s, a, tol), xi_integral(1.0 - s, a, tol))


def _fe_residual(x1: complex, x2: complex) -> float:
    """The residual above from x1 = xi(s) and x2 = xi(1-s)."""
    return abs(x1 - x2) / (abs(x1) + 1e-30)
