"""Exact circle discrepancy and the population census of circles.

For the N = r_Q(n) lattice points on |mu|^2 = n with angles phi_j, the
discrepancy is

    Delta(n) = sup over arcs [alpha, beta) of | #{j: phi_j in arc}/N - (beta-alpha)/(2 pi) |.

With G(t) = #{j: phi_j < t}/N - t/(2 pi), an arc's signed error is
G(beta) - G(alpha), so Delta = sup G - inf G, where G takes its extreme
values at its jumps: the supremum at the right limits G(phi+) and the
infimum at the left limits G(phi-).  The points are six rotated copies
of the m = N/6 points in the fundamental sector [-pi/6, pi/6), so G has
period pi/3, and one sweep over the sector angles, measured from the
-pi/6 ray, gives Delta exactly in O(m log m).  discrepancy_exact (one
circle) and discrepancy_survey (every circle up to x) share that sweep.

The census side: a circle is populated iff some lattice point has norm
n (iff every inert prime divides n to an even power); b_q(x) counts
populated circles up to x, and the survey measures how often Delta(n) beats the power law N^{-gamma}.
Delta(n) >= 1/(2 r_Q(n)) always (six-fold symmetry leaves gaps), and
gamma must stay below log(pi)/log(2) - 1 for the census fraction to
have a limit.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import factor
from .core import _arg

TWO_PI = 2.0 * math.pi
PI_6 = math.pi / 6.0

# exponent ceiling for the survey power law N^{-gamma}
GAMMA_MAX = math.log(math.pi) / math.log(2.0) - 1.0
_ARCS_MAX = 10**6  # discrepancy_random_lower_bound's largest arcs: 16 MB of arc ends


class DiscrepancyResult(NamedTuple):
    n: int
    count: int
    delta: float
    witness: tuple[float, float]  # sorted angles in [0, pi/3) of the sup and inf points


def _g_limits(turns: np.ndarray, rank: np.ndarray, total) -> tuple[np.ndarray, np.ndarray]:
    """Right and left limits of G at its jumps.

    turns are the jump locations in units of a full turn, sorted within
    each circle; rank is each point's 1-based position on its circle and
    total that circle's point count N.
    """
    return rank / total - turns, (rank - 1) / total - turns


def discrepancy_exact(n: int) -> DiscrepancyResult:
    """Exact Delta(n) over all arcs, with a witness arc, in O(m log m)
    over the m = N/6 sector points.

    G has period pi/3, so Delta is sup - inf of G over one period, swept
    from the -pi/6 ray exactly as discrepancy_survey sweeps it.  The
    witness is the point attaining the sup (right limit) and the point
    attaining the inf (left limit), each reported as its copy in
    [0, pi/3), the angle of a point of circle_points(n); the pair is
    sorted.  The arc from one to the other, closed when the inf point
    comes first and open otherwise, errs by Delta.  For a single orbit
    (N = 6) both are the same point: Delta(1) = 1/6 is attained by
    arbitrarily short arcs around it.
    """
    pts = factor._sector_args(n)
    if not pts:
        raise ValueError(f"no lattice points on |mu|^2 = {n}")
    m = len(pts)
    # turns from the -pi/6 ray, the angles clamped there as factor.sector_angles clamps
    turns = (np.maximum([t for t, _, _ in pts], -PI_6) + PI_6) / TWO_PI
    g_right, g_left = _g_limits(turns, np.arange(1, m + 1), 6 * m)
    i_hi = int(np.argmax(g_right))
    i_lo = int(np.argmin(g_left))
    # each end's copy in [0, pi/3): a sector point below the 0 ray turned by w
    ends = sorted(_arg(a, b) if b >= 0 else _arg(-b, a + b) for _, a, b in (pts[i_lo], pts[i_hi]))
    delta = float(g_right[i_hi] - g_left[i_lo])
    return DiscrepancyResult(n=n, count=6 * m, delta=delta, witness=tuple(ends))


def discrepancy_random_lower_bound(n: int, arcs: int = 10000, seed: int = 0) -> float:
    """Best discrepancy over `arcs` random arcs; a lower bound for Delta(n).

    Useful as a sanity probe: it can only approach the exact sweep from
    below since it samples a finite subset of arcs.
    """
    if not 1 <= arcs <= _ARCS_MAX:
        raise ValueError("arcs >= 1" if arcs < 1 else f"arcs <= {_ARCS_MAX}, got {arcs}")
    args = factor._circle_args(n)
    if not args:
        raise ValueError(f"no lattice points on |mu|^2 = {n}")
    phis = np.sort(np.mod([t for t, _, _ in args], TWO_PI))
    rng = np.random.default_rng(seed)
    ab = rng.uniform(0.0, TWO_PI, size=(arcs, 2))
    alpha = ab.min(axis=1)
    beta = ab.max(axis=1)
    inside = np.searchsorted(phis, beta, side="left") - np.searchsorted(phis, alpha, side="left")
    err = np.abs(inside / phis.size - (beta - alpha) / TWO_PI)
    return float(err.max())


def erdos_turan_bound(n: int, T: int, C: float = 4.0) -> float:
    """Erdos-Turan upper bound C (1/T + sum_{k<=T} |Z_k| / k).

    Z_k is the k-th moment (1/N) sum_j e^{i k phi_j}.  Six-fold symmetry
    kills every k not divisible by 6, and for k = 6, 12, ... the six
    copies of a sector point add equal terms, so Z_k is the mean over
    the m sector angles.

    Every C >= 3, the default 4 included, gives a proven bound: Montgomery's
    form of the inequality (Ten Lectures, AMS 1994, ch. 1) is
    D <= 1/(T+1) + 3 sum_{k<=T} |Z_k| / k, and C/T >= 1/(T+1).  A smaller
    C > 0 is accepted, but the result is then not proven to bound D.
    """
    if T < 1:
        raise ValueError("T >= 1")
    if C <= 0:
        raise ValueError("C > 0")
    pts = factor._sector_args(n)
    if not pts:
        raise ValueError(f"no lattice points on |mu|^2 = {n}")
    phis = np.array([t for t, _, _ in pts])
    total = 1.0 / T
    for k in range(6, T + 1, 6):
        total += abs(np.exp(1j * k * phis).mean()) / k
    return C * total


def b_q(x: int) -> int:
    """Number of populated circles |mu|^2 = n with 1 <= n <= x.

    A circle's points are closed under the six units and conjugation, so
    every populated circle has a point in the half sector 0 <= arg <= pi/6
    that factor.iter_lattice_blocks(x) walks.  Its bands are disjoint in
    norm and each holds at most _BAND_NORMS norms, so the count is the sum
    over bands of the distinct norms in each, marked in one band-long table."""
    if x > 10**7:
        raise ValueError("census capped at x = 1e7")
    if x < 1:
        raise ValueError("x >= 1")
    count = 0
    for _, _, n in factor.iter_lattice_blocks(x):
        seen = np.zeros(factor._BAND_NORMS, dtype=bool)
        seen[n - n.min()] = True
        count += int(np.count_nonzero(seen))
    return count


class SurveyReport(NamedTuple):
    x: int
    gamma: float
    b_q: int  # populated circles up to x
    m_gamma: int  # of those, circles with Delta(n) > r_Q(n)^{-gamma}
    fraction: float


def discrepancy_survey(x: int, gamma: float, threads: int = 1) -> SurveyReport:
    """Fraction of populated circles up to x with Delta(n) > r_Q(n)^{-gamma}.

    One count over the circle table of _survey_circles(x), which is kept
    for the last x asked, so a scan over gamma at one x sweeps the
    circles once.

    Requires gamma strictly below GAMMA_MAX = log(pi)/log(2) - 1, the
    threshold above which the comparison becomes vacuous for the typical
    circle.  `threads` is validated for compatibility and otherwise
    ignored.
    """
    if not 1 <= x <= 10**6:
        raise ValueError("x must lie in [1, 1e6]")
    if not 0.0 < gamma < GAMMA_MAX:
        raise ValueError(f"gamma must lie in (0, {GAMMA_MAX:.4f}) = (0, log(pi)/log(2) - 1)")
    if threads < 1:
        raise ValueError("threads >= 1")
    n, m, delta = _survey_circles(x)
    exceeding = int(np.count_nonzero(delta > (6.0 * m) ** (-gamma)))
    return SurveyReport(x=x, gamma=gamma, b_q=n.size, m_gamma=exceeding, fraction=exceeding / n.size)


@functools.lru_cache(maxsize=1)
def _survey_circles(x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, m = r_Q(n)/6, Delta(n)) for every populated circle n <= x, by n.

    A circle's point set is six rotated copies of its m = N/6 points in
    the fundamental sector [-pi/6, pi/6), so G has period pi/3 and Delta
    is sup - inf of G over one period.  Measured from the -pi/6 ray the
    jumps of G there are at the sector angles, and the boundary value
    G(0) = 0 never wins (the first left limit is <= 0, the last right
    limit is 1/6 - turns > 0).  One vectorized sweep over the norm
    groups of each band of factor.sector_bands gives its circles at once.
    The arrays are read-only: the table of the last x is kept (about
    24 bytes a circle, 4.3 MB at x = 1e6) and shared by every caller.
    """
    parts = []
    for norms, angs in factor.sector_bands(x):
        starts = np.flatnonzero(np.diff(norms, prepend=0))
        m = np.diff(starts, append=norms.size)
        rank = np.arange(1, norms.size + 1) - np.repeat(starts, m)
        total = 6 * np.repeat(m, m)
        g_right, g_left = _g_limits((angs + math.pi / 6.0) / TWO_PI, rank, total)
        delta = np.maximum.reduceat(g_right, starts) - np.minimum.reduceat(g_left, starts)
        parts.append((norms[starts], m, delta))
        del norms, angs, rank, total, g_right, g_left  # freed before the next band is built
    table = tuple(np.concatenate(col) for col in zip(*parts))
    for col in table:
        col.flags.writeable = False
    return table
