"""Reference implementations shared by the tests: the integer-square-root
oracle for circle point sets, the unsorted prime-ideal angles with the
KS statistic over their full sort, and the ideal-by-ideal character sum."""

import cmath
import math

import numpy as np

from eisen import angles
from eisen.core import EisensteinInt
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


def ideal_angles(x: float) -> tuple[np.ndarray, np.ndarray]:
    """(norms, angles) of all prime ideals with norm <= x, unsorted:
    +theta_p and -theta_p for each split p <= x, 0 for each inert q with
    q^2 <= x, and -pi/6 for the ramified prime when x >= 3."""
    p_arr, t_arr, other_n, other_t = angles._ideal_parts(x)
    return np.concatenate((p_arr, p_arr, other_n)), np.concatenate((t_arr, -t_arr, other_t))


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
