"""The integer-square-root oracle for circle point sets, shared by the tests."""

import math

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
