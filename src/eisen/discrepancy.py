"""Exact circle discrepancy and the population census of circles.

For the N = r_Q(n) lattice points on |mu|^2 = n with angles phi_j, the
discrepancy is

    Delta(n) = sup over arcs [alpha, beta) of | #{j: phi_j in arc}/N - (beta-alpha)/(2 pi) |.

With G(t) = #{j: phi_j < t}/N - t/(2 pi), an arc's signed error is
G(beta) - G(alpha), so Delta = sup G - inf G over [0, 2 pi], where G
takes its extreme values only at 0 or at the jump points: the supremum
uses the right limits G(phi+) and the infimum the left limits G(phi-).
That gives an exact O(N log N) evaluation.

The census side: a circle is populated iff some lattice point has norm
n (iff every inert prime divides n to an even power); b_q(x) counts
populated circles up to x, and the survey measures how often Delta(n) beats the power law N^{-gamma}.
Delta(n) >= 1/(2 r_Q(n)) always (six-fold symmetry leaves gaps), and
gamma must stay below log(pi)/log(2) - 1 for the census fraction to
have a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import factor

TWO_PI = 2.0 * math.pi

# exponent ceiling for the survey power law N^{-gamma}
GAMMA_MAX = math.log(math.pi) / math.log(2.0) - 1.0


@dataclass(frozen=True)
class DiscrepancyResult:
    n: int
    count: int
    delta: float
    witness: tuple[float, float]  # arc endpoints attaining the sup (may degenerate)


def _g_limits(turns: np.ndarray, rank: np.ndarray, total) -> tuple[np.ndarray, np.ndarray]:
    """Right and left limits of G at its jumps.

    turns are the jump locations in units of a full turn, sorted within
    each circle; rank is each point's 1-based position on its circle and
    total that circle's point count N.
    """
    return rank / total - turns, (rank - 1) / total - turns


def _circle_angles(n: int) -> np.ndarray:
    """Angles arg(mu) of the points on |mu|^2 = n, in circle_points order."""
    pts = factor.circle_points(n)
    if pts.count == 0:
        raise ValueError(f"no lattice points on |mu|^2 = {n}")
    return np.array([z.arg() for z in pts.points], dtype=np.float64)


def discrepancy_exact(n: int) -> DiscrepancyResult:
    """Exact Delta(n) over all arcs, with a witness arc.

    The witness (alpha, beta) is the pair of extremal jump locations:
    arcs just past alpha and through beta realize the sup in the limit;
    0.0 stands in when the boundary value G(0) = 0 wins.  For a single
    orbit (N = 6) every gap is equal and the witness degenerates to a
    point; that matches Delta(1) = 1/6 attained by arbitrarily short
    arcs around one point.
    """
    # distinct points on one circle have distinct angles
    u = np.sort(np.mod(_circle_angles(n), TWO_PI))
    g_right, g_left = _g_limits(u / TWO_PI, np.arange(1, u.size + 1), u.size)
    i_hi = int(np.argmax(g_right))
    i_lo = int(np.argmin(g_left))
    sup_g = max(0.0, float(g_right[i_hi]))
    inf_g = min(0.0, float(g_left[i_lo]))
    t_hi = float(u[i_hi]) if g_right[i_hi] > 0.0 else 0.0
    t_lo = float(u[i_lo]) if g_left[i_lo] < 0.0 else 0.0
    witness = (t_lo, t_hi) if t_lo <= t_hi else (t_hi, t_lo)
    return DiscrepancyResult(n=n, count=int(u.size), delta=float(sup_g - inf_g), witness=witness)


def discrepancy_random_lower_bound(n: int, arcs: int = 10000, seed: int = 0) -> float:
    """Best discrepancy over `arcs` random arcs; a lower bound for Delta(n).

    Useful as a sanity probe: it can only approach the exact sweep from
    below since it samples a finite subset of arcs.
    """
    if arcs < 1:
        raise ValueError("arcs >= 1")
    phis = np.sort(np.mod(_circle_angles(n), TWO_PI))
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
    kills every k not divisible by 6, so only k = 6, 12, ... contribute.
    """
    if T < 1:
        raise ValueError("T >= 1")
    if C <= 0:
        raise ValueError("C > 0")
    phis = _circle_angles(n)
    total = 1.0 / T
    for k in range(1, T + 1):
        zk = np.exp(1j * k * phis).mean()
        total += abs(zk) / k
    return C * total


def representable_sieve(x: int) -> np.ndarray:
    """Boolean table t[0..x]: t[n] iff r_Q(n) > 0, i.e. iff n is the norm of
    a lattice point.  A circle's points are closed under the six units and
    conjugation, so every populated circle has a point in the half sector
    0 <= arg <= pi/6 (its ray a = b carries the norms 3b^2 of the -pi/6
    ray), and the table marks the norms that factor.iter_lattice_blocks(x)
    yields."""
    if x < 1:
        raise ValueError("x >= 1")
    ok = np.zeros(x + 1, dtype=bool)
    for block in factor.iter_lattice_blocks(x):
        ok[block[2]] = True
        del block  # not kept alive while the next block is built
    return ok


def b_q(x: int) -> int:
    """Number of populated circles |mu|^2 = n with 1 <= n <= x."""
    if x > 10**7:
        raise ValueError("census capped at x = 1e7")
    return int(np.count_nonzero(representable_sieve(x)))


@dataclass(frozen=True)
class SurveyReport:
    x: int
    gamma: float
    b_q: int  # populated circles up to x
    m_gamma: int  # of those, circles with Delta(n) > r_Q(n)^{-gamma}
    fraction: float


def discrepancy_survey(x: int, gamma: float, threads: int = 1) -> SurveyReport:
    """Fraction of populated circles up to x with Delta(n) > r_Q(n)^{-gamma}.

    A circle's point set is six rotated copies of its m = N/6 points in
    the fundamental sector [-pi/6, pi/6), so G has period pi/3 and Delta
    is sup - inf of G over one period.  Measured from the -pi/6 ray the
    jumps of G there are at the sector angles, and the boundary value
    G(0) = 0 never wins (the first left limit is <= 0, the last right
    limit is 1/6 - turns > 0).  One vectorized sweep over the norm
    groups of each band of factor.sector_bands gives its circles at once.

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
    populated = exceeding = 0
    for norms, angs in factor.sector_bands(x):
        starts = np.flatnonzero(np.diff(norms, prepend=0))
        m = np.diff(starts, append=norms.size)
        rank = np.arange(1, norms.size + 1) - np.repeat(starts, m)
        total = 6 * np.repeat(m, m)
        g_right, g_left = _g_limits((angs + math.pi / 6.0) / TWO_PI, rank, total)
        delta = np.maximum.reduceat(g_right, starts) - np.minimum.reduceat(g_left, starts)
        populated += starts.size
        exceeding += int(np.count_nonzero(delta > (6.0 * m) ** (-gamma)))
    return SurveyReport(
        x=x,
        gamma=gamma,
        b_q=populated,
        m_gamma=exceeding,
        fraction=exceeding / populated,
    )
