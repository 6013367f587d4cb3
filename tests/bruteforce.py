"""Reference implementations shared by the tests: the integer-square-root
oracle for circle point sets, the unsorted prime-ideal angles with the
KS statistic over their full sort, the sector count by numpy's
searchsorted, the ideal-by-ideal character sum, the full-length table of
populated circles, the checkpoint means over the
circle_sums table, r_Q and S(n, 6a) over the whole factorization, and
two diagnostics of the averages over primes."""

import cmath
import math

import numpy as np

from eisen import angles, factor
from eisen.analytic import li
from eisen.core import EisensteinInt
from eisen.expsum import circle_sums
from eisen.factor import CirclePointSet


def circle_points_bruteforce(n: int) -> CirclePointSet:
    """Independent oracle: solve a^2 + ab + b^2 = n for every b.

    For fixed b the equation is quadratic in a with discriminant
    4n - 3b^2, so each candidate is checked with integer square roots;
    no floating point is involved.  Points sorted by (angle, a), as
    circle_points sorts them.
    """
    pts: set[EisensteinInt] = set()
    bmax = math.isqrt(4 * n // 3)
    for b in range(-bmax, bmax + 1):
        disc = 4 * n - 3 * b * b
        t = math.isqrt(disc)
        if t * t != disc:
            continue
        for sign in (t, -t) if t else (0,):
            if (sign - b) % 2 == 0:
                z = EisensteinInt((sign - b) // 2, b)
                if z.norm() == n:
                    pts.add(z)
    ordered = tuple(sorted(pts, key=lambda z: (z.arg(), z.a)))
    return CirclePointSet(n, ordered, len(ordered))


def r_q_by_factor_int(n: int) -> int:
    """r_Q(n) from the complete factor_int: 6 prod(e + 1) over the split
    primes, 0 if an inert prime has an odd exponent."""
    count = 6
    for p, e in factor.factor_int(n).items():
        if p % 3 == 1:
            count *= e + 1
        elif p != 3 and e % 2 == 1:
            return 0
    return count


def exp_sum_product_by_factor_int(n: int, A: int) -> complex:
    """S(n, A) for 6 | A as the product over the complete factor_int, in
    its order: the sign (-1)^(a e) at 3^e, 0 at an odd inert power, and
    sum_{j=0..e} cos(6a (2j - e) theta_p) for each split p^e."""
    a = A // 6
    value = 6.0
    for p, e in factor.factor_int(n).items():
        if p == 3:
            if (a * e) % 2 == 1:
                value = -value
        elif p % 3 == 2:
            if e % 2 == 1:
                return 0j
        else:
            theta = factor.split_prime_generator(p).theta_p
            value *= math.fsum(math.cos(6.0 * a * (2 * j - e) * theta) for j in range(e + 1))
    return complex(value)


def ideal_angles(x: float) -> tuple[np.ndarray, np.ndarray]:
    """(norms, angles) of all prime ideals with norm <= x, unsorted:
    +theta_p and -theta_p for each split p <= x, 0 for each inert q with
    q^2 <= x, and -pi/6 for the ramified prime when x >= 3."""
    p_arr, t_arr, other_n, other_t = angles._ideal_parts(x)
    return np.concatenate((p_arr, p_arr, other_n)), np.concatenate((t_arr, -t_arr, other_t))


def angle_index_by_sort(x: float) -> tuple[np.ndarray, int, float]:
    """(theta_p of the split primes p <= x in a fresh ascending array, the
    number of inert ideals of norm <= x, Li(x)), built apart from the kept
    angle index."""
    xi = math.floor(x)
    return np.sort(factor.split_prime_angles(xi)[1]), len(angles._inert_primes(xi)), li(x)


def sector_count_by_searchsorted(q: angles.SectorQuery, index: tuple[np.ndarray, int, float]) -> tuple[int, float]:
    """sector_count over an angle_index_by_sort index: theta_p in [lo, hi] and
    in [-hi, -lo] by four searchsorted searches, whatever the signs of the
    bounds, then the inert and ramified ideals."""
    thetas, inert, li_x = index
    eps = 1e-12
    lo, hi = q.phi1 - eps, q.phi2 + eps
    below = thetas.searchsorted((lo, -hi), "left")  # theta_p < lo, theta_p < -hi
    upto = thetas.searchsorted((hi, -lo), "right")  # theta_p <= hi, theta_p <= -lo
    observed = int((upto - below).sum())
    if lo <= 0.0 <= hi:
        observed += inert
    if lo <= -angles.PI_6 <= hi and q.x >= 3:
        observed += 1
    expected = 3.0 / math.pi * (q.phi2 - q.phi1) * li_x
    return observed, expected


def chi_sum_by_ideals(x: float, a: int) -> complex:
    """sum of e^{i 6a theta} ideal by ideal over prime_ideals_up_to(x)."""
    return sum(cmath.exp(6j * a * t) for _, t in angles.prime_ideals_up_to(x))


def equi_stat_by_sort(x: float) -> tuple[float, int]:
    """The KS distance of the ideal angles from uniform on [-pi/6, pi/6)
    over one sort of all of them, and the number of ideals."""
    _, thetas = ideal_angles(x)
    n = len(thetas)
    cdf = (np.sort(thetas) + angles.PI_6) / (2 * angles.PI_6)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus)), n


def representable_sieve(x: int) -> np.ndarray:
    """Boolean table t[0..x]: t[n] iff r_Q(n) > 0, i.e. iff n is the norm of
    a lattice point.  Every populated circle has a point in the half sector
    that factor.iter_lattice_blocks(x) walks, so the table marks its norms."""
    if x < 1:
        raise ValueError("x >= 1")
    ok = np.zeros(x + 1, dtype=bool)
    for _, _, n in factor.iter_lattice_blocks(x):
        ok[n] = True
    return ok


def checkpoint_means_by_table(A: int, checkpoints: list[int]) -> list[tuple[int, float]]:
    """(x', (1/x') sum_{n<=x'} |S(n, A)|) at each sorted checkpoint, summed in
    extended precision over the segments of the whole circle_sums table."""
    s_re, _ = circle_sums(checkpoints[-1], A)  # S_im is exactly zero
    abs_s = np.abs(s_re)
    means = []
    total = np.longdouble(0.0)
    prev = 1
    for cp in checkpoints:
        total = total + np.sum(abs_s[prev : cp + 1], dtype=np.longdouble)
        prev = cp + 1
        means.append((cp, float(total / cp)))
    return means


def katai_bound_diag(x: int, A: int) -> tuple[float, float]:
    """Diagnostic pair (lhs, rhs) for the multiplicative-average bound:

        lhs = sum_{n<=x} f_A(n)
        rhs = (x / log x) * exp( sum_{p<=x} f_A(p) / p )

    The interesting quantity is the ratio lhs/rhs, which should stay of
    bounded order as x grows.
    """
    if x < 16:
        raise ValueError("x >= 16 required")
    if A == 0 or A % 6 != 0:
        raise ValueError("katai diagnostic needs A a nonzero multiple of 6")
    s_re, _ = circle_sums(x, A)  # S_im is exactly zero
    lhs = float(np.sum(np.abs(s_re), dtype=np.longdouble) / 6.0)
    p_arr, t_arr = factor.split_prime_angles(x)
    prime_sum = float(np.sum(2.0 * np.abs(np.cos(6.0 * (A // 6) * t_arr)) / p_arr))
    prime_sum += 1.0 / 3.0  # f_A(3) = 1
    rhs = x / math.log(x) * math.exp(prime_sum)
    return lhs, rhs


def split_prime_reciprocal_sum(x: float) -> float:
    """sum of 1/p over split primes p <= x (Mertens in the progression
    1 mod 3: this is (1/2) log log x + O(1))."""
    p_arr, _ = factor.split_prime_angles(angles._norm_bound(x))
    return float(np.sum(1.0 / p_arr))
