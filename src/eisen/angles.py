"""Angle statistics of prime ideals: sectors, character sums, bad circles.

Every prime ideal of Z[w] gets a norm and a canonical angle:

    split p = 1 (mod 3)   two ideals, norm p, angles +theta_p and -theta_p
    inert q = 2 (mod 3)   one ideal, norm q^2, angle 0
    ramified p = 3        one ideal, norm 3, angle -pi/6

The angles theta_p equidistribute in [-pi/6, pi/6) as the norm bound
grows; sector_count compares against the Prime Ideal Theorem density
(3/pi) * (phi2 - phi1) * Li(x), and chi_prime_sum evaluates the Hecke
character sum sum e^{i 6a theta} over ideals, whose cancellation is the
quantitative form of equidistribution.

bad_circle builds the opposite extreme: products of split primes with
tiny angles give circles whose many points all cluster within epsilon
of the six directions k*pi/3.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, NamedTuple

from . import factor
from .analytic import li
from .core import SQRT3, _arg, _row_end
from .factor import CirclePointSet, circle_points, is_prime, primes_up_to

if TYPE_CHECKING:  # numpy is imported by the functions that build arrays
    import numpy as np

PI_6 = math.pi / 6.0
_KS_CHUNK = 1 << 16  # angles per step of the KS sweep
_PRIME_MAX = 10**8  # bad_circle seeks its split primes p <= this


def _inert_primes(x: int) -> np.ndarray:
    """The inert primes q = 2 (mod 3) with q^2 <= x, ascending."""
    q = primes_up_to(math.isqrt(x))
    return q[q % 3 == 2]


def _norm_bound(x: float) -> int:
    """floor(x) for a norm bound x, and 0 below 0 (no ideal has so small a
    norm); NaN and x > 1e8 are rejected."""
    if math.isnan(x):
        raise ValueError("x is NaN; a norm bound must be a number")
    if x > 10**8:
        raise ValueError("ideal enumeration capped at 1e8")
    return math.floor(max(x, 0))


def _ideal_parts(x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The prime ideals of norm <= x in two sorted parts: the split primes
    p <= x with their theta_p, and the other ideals as (norms, angles),
    the ramified 3 at -pi/6 (when x >= 3) then the inert q^2 <= x at 0."""
    import numpy as np
    if x < 2:
        empty = np.empty(0, dtype=np.int64), np.empty(0)
        return *empty, *empty
    xi = _norm_bound(x)
    p_arr, t_arr = factor.split_prime_angles(xi)
    inert_q = _inert_primes(xi)
    ram = 1 if x >= 3 else 0
    other_n = np.concatenate((np.array([3] * ram, dtype=np.int64), inert_q * inert_q))
    other_t = np.concatenate((np.array([-PI_6] * ram), np.zeros(len(inert_q))))
    return p_arr, t_arr, other_n, other_t


def _angle_index(x: float) -> tuple[memoryview, int, float]:
    """(theta_p of the split primes p <= x ascending in a read-only float64
    memoryview, the number of inert ideals of norm <= x, Li(x)): what
    sector_count and _equi_stat read.  Where floor(x) <= factor._CACHE_MAX
    the index of the last x asked is kept, as the split-prime table is;
    above it (and for NaN, which _build_index rejects) nothing is kept."""
    return _kept_index(x) if x < factor._CACHE_MAX + 1 else _build_index(x)


def _build_index(x: float) -> tuple[memoryview, int, float]:
    xi = _norm_bound(x)
    _, thetas = factor.split_prime_angles(xi)
    if xi <= factor._CACHE_MAX:
        thetas = thetas.copy()  # a slice of the kept split-prime table
    thetas.sort()
    thetas.flags.writeable = False  # a kept index is shared by every caller at its x
    return memoryview(thetas), len(_inert_primes(xi)), li(x)


_kept_index = functools.lru_cache(maxsize=1)(_build_index)


def _ideal_arrays(x: float) -> tuple[np.ndarray, np.ndarray]:
    """(norms, angles) of the prime ideals of norm <= x sorted by norm,
    the conjugate pair above a split p ordered +theta first.  A merge,
    not a sort: the pairs interleave the sorted split primes, and the
    ramified and inert norms, which no split prime shares, go in at
    their searchsorted places."""
    import numpy as np
    p_arr, t_arr, other_n, other_t = _ideal_parts(x)
    norms = np.repeat(p_arr, 2)
    thetas = np.stack((t_arr, -t_arr), axis=1).ravel()
    at = norms.searchsorted(other_n)
    return np.insert(norms, at, other_n), np.insert(thetas, at, other_t)


def prime_ideals_up_to(x: float) -> list[tuple[int, float]]:
    """One (norm, angle) entry per prime ideal of norm <= x."""
    norms, thetas = _ideal_arrays(x)
    return [(int(n), float(t)) for n, t in zip(norms, thetas)]


class _SectorFields(NamedTuple):
    x: float
    phi1: float
    phi2: float


class SectorQuery(_SectorFields):
    """A norm bound x >= 2 and an angle interval -pi/6 <= phi1 < phi2 < pi/6,
    checked when the query is made."""

    __slots__ = ()

    def __new__(cls, x: float, phi1: float, phi2: float):
        if not (x >= 2):
            raise ValueError("x >= 2 required")
        if not (-PI_6 <= phi1 < phi2 < PI_6):
            raise ValueError("need -pi/6 <= phi1 < phi2 < pi/6")
        return tuple.__new__(cls, (x, phi1, phi2))

    @classmethod
    def _make(cls, iterable) -> "SectorQuery":  # _replace makes through here: checked too
        return cls(*iterable)


def sector_count(q: SectorQuery) -> tuple[int, float]:
    """Observed ideal count with angle in [phi1, phi2] against the
    Prime Ideal Theorem main term (3/pi)(phi2 - phi1) Li(x).

    The interval is closed; a 1e-12 outward tolerance absorbs
    floating-point ties at the endpoints.  Binary searches in the angle
    index of x: theta_p in [phi1 - eps, phi2 + eps] for the ideals
    at +theta_p, and theta_p in [-(phi2 + eps), -(phi1 - eps)] for those
    at -theta_p (negation is exact, so this is the same >=/<= test on
    -theta_p).  Every theta_p lies in (0, pi/6), so a bound <= 0 has no
    theta_p at or below it and its search is skipped: an interval that
    spans 0 takes two searches.  Then the inert ideals when 0 is in the
    interval and the ramified one when -pi/6 is.
    """
    x, phi1, phi2 = q
    thetas, inert, li_x = _angle_index(x)
    eps = 1e-12
    lo, hi = phi1 - eps, phi2 + eps
    observed = 0
    if hi > 0:  # theta_p in [lo, hi]
        observed += bisect_right(thetas, hi) - (bisect_left(thetas, lo) if lo > 0 else 0)
    if lo < 0:  # theta_p in [-hi, -lo]
        observed += bisect_right(thetas, -lo) - (bisect_left(thetas, -hi) if hi < 0 else 0)
    if lo <= 0.0 <= hi:
        observed += inert
    if lo <= -PI_6 <= hi and x >= 3:
        observed += 1
    expected = 3.0 / math.pi * (phi2 - phi1) * li_x
    return observed, expected


class CharacterSumValue(NamedTuple):
    x: float
    a: int
    value: complex


def chi_prime_sum(x: float, a: int) -> CharacterSumValue:
    """sum over prime ideals of norm <= x of chi^{6a}(p) = e^{i 6a theta},
    from the split-prime table: the ideals at +theta_p and -theta_p pair
    into 2 cos(6a theta_p), so the sum is real,

        sum_{p<=x, p=1(3)} 2 cos(6a theta_p)
      + #{q = 2 (3) : q^2 <= x}
      + (-1)^a [3 <= x]

    Every part is empty below x = 2, so the sum is 0 there.
    """
    if a == 0:
        raise ValueError("a = 0 just counts the ideals")
    import numpy as np
    xi = _norm_bound(x)
    p_arr, t_arr = factor.split_prime_angles(xi)
    split_part = float(np.sum(2.0 * np.cos(6.0 * a * t_arr)))
    inert_part = len(_inert_primes(xi))
    ram = ((-1) ** a if x >= 3 else 0)
    return CharacterSumValue(x, a, complex(split_part + inert_part + ram))


def theta_equidistribution_stat(x: float) -> float:
    """Kolmogorov-Smirnov distance between the ideal angles of norm <= x
    and the uniform distribution on [-pi/6, pi/6):

        D = max_i max(i/n - F(x_i), F(x_i) - (i-1)/n)

    over the sorted angles x_1 <= ... <= x_n, with F(x) = (x + pi/6)/(pi/3).
    """
    return _equi_stat(x)[0]


def _equi_stat(x: float) -> tuple[float, int]:
    """theta_equidistribution_stat(x) and the number of ideals it ranks.

    The sorted ideal angles are four runs read off the angle index: -pi/6
    (x >= 3 here), -theta_p in reverse, the inert zeros, then theta_p.
    The supremum is taken over them _KS_CHUNK angles at a time, with each
    angle's own float steps, so no 2N array is built and the result has
    the bits of the sweep over the whole sorted array.
    """
    if x < 100:
        raise ValueError("x >= 100 required")
    import numpy as np
    thetas, inert, _ = _angle_index(x)
    thetas = np.asarray(thetas)  # the index's own buffer, not a copy
    n = 1 + 2 * len(thetas) + inert
    d, i = 0.0, 0
    for sign, run in ((1, np.array([-PI_6])), (-1, thetas[::-1]), (1, np.zeros(inert)), (1, thetas)):
        for s in range(0, len(run), _KS_CHUNK):
            cdf = (sign * run[s:s + _KS_CHUNK] + PI_6) / (2 * PI_6)
            rank = np.arange(i + 1.0, i + len(cdf) + 1)
            d = max(d, np.max(rank / n - cdf), np.max(cdf - (rank - 1.0) / n))
            i += len(cdf)
    return float(d), n


class BadCircle(NamedTuple):
    n: int
    primes: tuple[int, ...]
    m: int
    epsilon: float
    points: CirclePointSet


def _thin_split_primes(delta: float, m: int) -> list[int]:
    """The m smallest split primes p <= 1e8 with theta_p <= delta, ascending;
    all of them when there are fewer.

    theta_p is the angle of the one point a + b*w of norm p with
    a > b >= 1, and on row b it falls as a grows (its tangent is
    b sqrt3 / (2a + b)), so the thin sector theta <= delta holds the a with
    2a + b >= b sqrt3 / tan(delta).  The walk takes the norm bands
    (lo, 2 lo] from (0, 64] and, in each, every row b from one a before
    that start to the band's end: a point is kept when its angle by _arg
    is <= delta and its norm is prime.  A band's primes are sorted, and the
    walk stops after the band that brings the m-th.
    """
    tan = math.tan(delta)
    cot = SQRT3 / tan if tan > 0.0 else math.inf  # tan(delta) can round to 0
    found: list[int] = []
    lo = 0
    while len(found) < m and lo < _PRIME_MAX:
        hi = min(max(2 * lo, 64), _PRIME_MAX)
        band = []
        b = 1
        while True:
            start = max(b + 1.0, b * (cot - 1.0) / 2.0 - 1.0)  # a float: cot is inf for a tiny delta
            if start * start + start * b + b * b > hi:  # the rows past b start higher still
                break
            for a in range(max(int(start), _row_end(b, lo) + 1), _row_end(b, hi) + 1):
                n = a * a + a * b + b * b
                if _arg(a, b) <= delta and is_prime(n):
                    band.append(n)
            b += 1
        found += sorted(band)
        lo = hi
    return found[:m]


def bad_circle(epsilon: float, k: int) -> BadCircle:
    """A circle with at least k points, all within epsilon of the six
    directions j*pi/3.

    Take the smallest m with 6 * 2^m >= k and multiply the m smallest
    split primes whose angles lie in (0, epsilon/m]; each of the
    6 * 2^m points then has angle j*pi/3 + (sum of m signed angles),
    off by at most m * (epsilon/m) = epsilon.  k is capped at the point
    cap of every circle, factor._POINTS_MAX = 6 * 2^16, and the primes
    are sought below 1e8 by _thin_split_primes, which walks only the
    thin sector of angles <= epsilon/m.
    """
    if not (0 < epsilon < PI_6):
        raise ValueError("epsilon must lie in (0, pi/6)")
    if not (1 <= k <= factor._POINTS_MAX):
        raise ValueError(f"k must lie in 1..{factor._POINTS_MAX}")
    m = 0
    while 6 * (1 << m) < k:
        m += 1
    delta = epsilon / max(m, 1)
    primes = tuple(_thin_split_primes(delta, m))
    if len(primes) < m:
        past = f" past the {len(primes)} found, and k = {k} needs {m}" if primes else ""
        raise ValueError(f"no split prime below 1e8 has angle <= epsilon/m = {delta:.3g}{past}; use a larger epsilon")
    n = math.prod(primes)
    pts = circle_points(n)
    if pts.count != 6 << m:
        raise RuntimeError(f"{pts.count} points on |mu|^2 = {n}, expected {6 << m}")
    for z in pts.points:
        off = abs(math.remainder(z.arg(), math.pi / 3.0))
        if off > epsilon + 1e-9:
            raise RuntimeError(f"point {z} of {n} misses the sector by {off - epsilon:.3g}")
    return BadCircle(n, primes, m, epsilon, pts)
