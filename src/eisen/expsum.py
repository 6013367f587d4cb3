"""The exponential sums S(n, A) over circle points and their averages.

    S(n, A) = sum over |mu|^2 = n of e^{i A arg(mu)}

Summing over the six associates of any point kills every A not
divisible by 6, so S(n, A) = 0 identically when 6 does not divide A.
For A = 6a the sum factors over the prime decomposition of n:

    S(n, 6a) = 6 * (-1)^(a v_3(n))
             * prod over split p^e || n of  sum_{j=0..e} e^{i 6a (2j-e) theta_p}
             * prod over inert q^e || n of  (1 if e even else 0)

and f_A(n) := |S(n, 6a)|/6 is multiplicative with f_A(p) = 2|cos 6a theta_p|.
The averaged size (1/x) sum_{n<=x} |S(n, A)| decays like a negative
power of log x; avg_exp_sum measures that decay.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import factor

if TYPE_CHECKING:  # numpy is imported by the functions that build arrays
    import numpy as np


class ExpSumValue(NamedTuple):
    n: int
    A: int
    value: complex


class AverageDecayReport(NamedTuple):
    A: int
    checkpoints: tuple[tuple[int, float], ...]
    fitted_exponent: float


def exp_sum(n: int, A: int) -> ExpSumValue:
    """Direct angle summation of e^{iA arg mu} over the points of norm n."""
    if A == 0:
        raise ValueError("A = 0 is just r_Q(n); use r_q")
    value = sum(cmath.exp(1j * A * t) for t, _, _ in factor._circle_args(n))
    return ExpSumValue(n, A, complex(value))


def exp_sum_product(n: int, A: int) -> complex:
    """S(n, A) by the factorization product; exact 0 when 6 does not
    divide A, and a real number otherwise."""
    if A == 0:
        raise ValueError("A = 0 is just r_Q(n); use r_q")
    if n < 1:
        raise ValueError("n >= 1 required")
    if A % 6 != 0:
        return 0j
    factors = factor._circle_factors(n)
    if factors is None:
        return 0j
    a = A // 6
    v3, _, split = factors
    value = -6.0 if (a * v3) % 2 == 1 else 6.0
    for p, e in split:  # sum_{j=0..e} e^{i 6a (2j-e) theta_p}; the terms pair into cosines
        theta = factor._split_record(p).theta_p
        value *= math.fsum(math.cos(6.0 * a * (2 * j - e) * theta) for j in range(e + 1))
    return complex(value)


def f_A(n: int, A: int) -> float:
    """|S(n, A)| / 6 via the product form; needs A a nonzero multiple of 6."""
    if A == 0 or A % 6 != 0:
        raise ValueError("f_A is defined for nonzero multiples of 6")
    return abs(exp_sum_product(n, A)) / 6.0


def circle_sums(x: int, A: int, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (S_re, S_im) with S_re[n] + i S_im[n] = S(n, A) for n <= x.

    The six associates of a point add e^{iA(theta + k pi/3)}, which sums
    to 0 unless 6 | A and to 6 e^{iA theta} if it does; conjugation then
    makes S real.  So both arrays are exact zeros for 6 not dividing A,
    and otherwise S_re = 6 * sum over the fundamental sector of cos(A
    theta), bucketed by norm, and S_im is exactly zero.  The sector sum
    is read from the half sector, each point weighted by the number of
    sector points it stands for (2 inside, 1 on the rays theta = 0 and
    pi/6; see _band_cos_sums).  `threads` is accepted for compatibility
    and ignored.
    """
    import numpy as np
    if x < 1:
        raise ValueError("x >= 1 required")
    out_re = np.zeros(x + 1)
    out_im = np.zeros(x + 1)
    if A % 6 != 0:
        return out_re, out_im
    for n0, c in _band_cos_sums(x, A):
        out_re[n0 : n0 + c.size] = c
    out_re *= 6.0
    return out_re, out_im


def _band_cos_sums(x: int, A: int) -> Iterator[tuple[int, np.ndarray]]:
    """Per enumerator band, (n0, c) with c[i] the sum of cos(A theta) over
    the fundamental-sector points of norm n0 + i; the bands are disjoint,
    so each c is the whole sector sum of its norms, S(n, A) / 6 when 6 | A.

    Read from the half sector with weight w = 2 - [b = 0] - [a = b],
    which there is [a > b] + [b > 0]: an inner point stands for itself
    and its mirror at -theta, and for 6 | A cos(A theta) is even and
    takes one value at +-pi/6, so each ray point stands for the one
    sector point it maps to.
    """
    import numpy as np
    for a, b, n in factor.iter_lattice_blocks(x):
        n0 = int(n.min())
        w = np.add(a > b, b > 0, dtype=np.float64)
        w *= np.cos(A * factor.sector_angles(a, b))
        yield n0, np.bincount(n - n0, weights=w)


def avg_exp_sum(
    x: int, A: int, checkpoints: list[int] | None = None, threads: int = 1
) -> AverageDecayReport:
    """Means (1/x') sum_{n<=x'} |S(n, A)| at each checkpoint x' <= x.

    The fitted exponent is the least-squares slope of log(mean) against
    log log x', using only checkpoints >= 10^3 (small x is noise).  When
    6 does not divide A every S(n, A) vanishes identically and the means
    are exact zeros.  `threads` is accepted for compatibility and ignored.
    """
    import numpy as np
    if x < 1 or x > 10**7:
        raise ValueError("x must be in [1, 1e7]")
    if A == 0:
        raise ValueError("A = 0 is the trivial Gauss circle count")
    if checkpoints is None:
        checkpoints = [x]
    if not checkpoints:
        raise ValueError("empty checkpoint list")
    cps = sorted(set(int(c) for c in checkpoints))
    if cps[0] < 1 or cps[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")
    if A % 6 != 0:
        means = [(cp, 0.0) for cp in cps]
        return AverageDecayReport(A, tuple(means), float("nan"))
    # |S(n, A)| = 6|c| band by band, summed in extended precision over
    # the segments (cp', cp] between checkpoints
    means = []
    total = np.longdouble(0.0)
    i = 0
    for n0, c in _band_cos_sums(cps[-1], A):
        abs_s = 6.0 * np.abs(c)
        j = 0
        while i < len(cps) and cps[i] < n0 + abs_s.size:
            k = max(cps[i] + 1 - n0, 0)
            total += np.sum(abs_s[j:k], dtype=np.longdouble)
            means.append((cps[i], float(total / cps[i])))
            i, j = i + 1, k
        total += np.sum(abs_s[j:], dtype=np.longdouble)
    means += [(cp, float(total / cp)) for cp in cps[i:]]
    pts = [(math.log(math.log(cp)), math.log(m)) for cp, m in means if cp >= 1000 and m > 0]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return AverageDecayReport(A, tuple(means), slope)
