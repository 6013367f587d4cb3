"""Prime splitting and factorization over Z[w]; lattice points on circles.

A rational prime p behaves in Z[w] according to p mod 3:

    split     p = 1 (mod 3):  p = pi_p * conj(pi_p), two distinct primes
    inert     p = 2 (mod 3):  p stays prime (this includes 2)
    ramified  p = 3:          3 = w * pi_3^2 with pi_3 = 2 - w

For a split p the canonical associate of pi_p with positive angle gives
the unique angle theta_p in (0, pi/6); the two prime ideals above p sit
at +theta_p and -theta_p.

The number of lattice points with |mu|^2 = n is

    r_Q(n) = 6 * prod(alpha_i + 1)   over split p_i^alpha_i || n,

provided every inert prime divides n to an even power, else 0.  The
points themselves come from distributing each split multiplicity between
pi_p and conj(pi_p) and then applying the six units.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .core import (
    EisensteinInt,
    ONE,
    SQRT3,
    UNITS,
    _arg,
    eis_conj,
)

if TYPE_CHECKING:  # numpy is imported by the functions that build arrays
    import numpy as np

# ---------------------------------------------------------------------------
# rational prime machinery

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the 12 bases 2..37; deterministic only below
    psi_12 = 318665857834031151167461, which (like psi_13) it accepts."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _small_primes(x: int) -> list[int]:
    """Primes <= x as a list, by a bytearray sieve (no numpy)."""
    sieve = bytearray([1]) * (x + 1)
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    return list(itertools.compress(range(2, x + 1), sieve[2:]))


_SMALL_PRIMES = _small_primes(1 << 16)  # the base primes of _band_primes: all p <= sqrt(2^32)


def _band_primes(lo: int, hi: int) -> np.ndarray:
    """Primality of lo < n <= hi as a boolean table, entry n - lo - 1: a
    segmented sieve of Eratosthenes (Bays-Hudson) that marks the multiples
    of each prime p <= sqrt(hi) from _SMALL_PRIMES, starting at p^2 or at
    the first multiple above lo, whichever is larger; hi <= 2^32."""
    import numpy as np
    prime = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        prime[0] = False  # n = 1
    for p in _SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, math.isqrt(hi))]:
        prime[max(p * p, lo + p - lo % p) - lo - 1 :: p] = False
    return prime


def primes_up_to(x: int) -> np.ndarray:
    """Array of primes <= x, x <= 2^32: a slice of _SMALL_PRIMES up to
    2^16, above that the _band_primes tables of the norm bands
    (lo, min(lo + _BAND_NORMS, x)] that iter_lattice_blocks walks."""
    import numpy as np
    if x > 1 << 32:
        raise ValueError("primes_up_to needs x <= 2^32: its base primes stop at 2^16")
    if x <= 1 << 16:
        return np.array(_SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, x)], dtype=np.int64)
    return np.concatenate([
        np.flatnonzero(_band_primes(lo, min(lo + _BAND_NORMS, x))) + (lo + 1) for lo in range(0, x, _BAND_NORMS)
    ])


# Floyd steps over all c; the workloads' semiprimes (factors in [1e9, 2e9])
# took at most 62,035 and 1000000000039 * 1000000000061 takes 859,469
_RHO_STEPS = 1 << 20


def _pollard_rho(n: int) -> int:
    # Floyd's cycle finding; n odd composite (factor_int checked), no factor below 2^16
    left = _RHO_STEPS
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1 and left:
            left -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d == 1:
            raise ValueError(f"rho found no factor of {n} within its limit of {_RHO_STEPS} steps")
        if d != n:
            return d
    raise RuntimeError(f"rho failed on {n}")


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of a rational integer n >= 1.  Trial division
    by the primes below 2^16 proves any cofactor below 65521^2 prime;
    is_prime and _pollard_rho see only a cofactor left after the table."""
    if n < 1:
        raise ValueError("factor_int needs n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # no prime below p divides n, so n > 1 is prime
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:  # a cofactor left after the whole table: Miller-Rabin, then rho
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# splitting behavior


class PrimeClass(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def classify_prime(p: int) -> PrimeClass:
    """Split/inert/ramified by p mod 3; composite input rejected."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return PrimeClass.RAMIFIED
    return PrimeClass.SPLIT if p % 3 == 1 else PrimeClass.INERT


class PrimeSplitRecord(NamedTuple):
    """A rational prime with its Eisenstein data.

    pi is a generator of a prime above p (None for inert p, where p is
    itself prime).  theta_p follows the closed-interval convention
    [0, pi/6] on rational primes; theta_ideal is the angle of the
    canonical associate of pi, in [-pi/6, pi/6).  For split p the two
    conventions agree; for p = 3 they sit at opposite ends (+pi/6 is an
    excluded boundary of the half-open sector, so the canonical
    associate of pi_3 has angle -pi/6).
    """

    p: int
    klass: PrimeClass
    pi: EisensteinInt | None
    theta_p: float
    theta_ideal: float


PI3 = EisensteinInt(2, -1)  # canonical associate of 1 + w; 3 = w * PI3^2


def split_prime_generator(p: int) -> PrimeSplitRecord:
    """Record for split p: the generator pi = a + b*w with a > b >= 1, the
    one element of norm p with theta_p in the open sector (0, pi/6).
    p is classified (and so tested for primality) here, then the record
    comes from _split_record, which the factorization paths call directly
    with the primes factor_int has already proven."""
    if classify_prime(p) is not PrimeClass.SPLIT:
        raise ValueError(f"{p} is not split (p mod 3 = {p % 3})")
    return _split_record(p)


@functools.lru_cache(maxsize=1 << 12)
def _split_record(p: int) -> PrimeSplitRecord:
    """split_prime_generator's record for a prime p = 1 (mod 3), memoized.

    F_p holds a cube root of unity u = g^((p-1)/3) != 1, and r = 2u + 1
    has r^2 = -3 (mod p); made odd, r^2 = -3 (mod 4p).  One Cornacchia
    reduction of (2p, r) gives 4p = x^2 + 3y^2 with x, y > 0, where
    x + y*sqrt(-3) = 2*mu for some mu of norm p with arg in (0, pi/2).
    x > 3y means arg mu in (0, pi/6); otherwise mu turned by -pi/3, and
    conjugated if that lands below 0, is there.  Then pi = ((x - y)/2, y).
    The root step is also a Fermat test: a composite p whose u is no cube
    root of unity is rejected with ValueError.  The reduction is proven
    to succeed for prime p, so a failure there raises RuntimeError.
    """
    for g in range(2, 1 << 16):
        u = pow(g, (p - 1) // 3, p)
        if u != 1:
            break
    else:
        raise RuntimeError(f"no cube root of unity other than 1 found mod {p}")
    r = (2 * u + 1) % p
    if r * r % p != p - 3:
        raise ValueError(f"{p} is not prime: {g}^((p-1)/3) is not a cube root of unity mod p")
    if r % 2 == 0:
        r = p - r
    a, b = 2 * p, r
    limit = math.isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    x, y = b, math.isqrt((4 * p - b * b) // 3)
    if x * x + 3 * y * y != 4 * p:
        raise RuntimeError(f"Cornacchia reduction failed for split prime {p}")
    if 3 * y > x:  # arg in (pi/6, pi/2): turn by -pi/3, and mirror if that lands below 0
        x, y = (x + 3 * y) // 2, abs(x - y) // 2
    z = EisensteinInt((x - y) // 2, y)
    if not (0 < 3 * y < x and z.norm() == p):
        raise RuntimeError(f"generator {z} of {p} is not in the open sector (0, pi/6)")
    theta = z.arg()
    return PrimeSplitRecord(p, PrimeClass.SPLIT, z, theta, theta)


def prime_record(p: int) -> PrimeSplitRecord:
    """PrimeSplitRecord for any rational prime (all three classes)."""
    klass = classify_prime(p)
    if klass is PrimeClass.SPLIT:
        return _split_record(p)
    if klass is PrimeClass.RAMIFIED:
        return PrimeSplitRecord(3, klass, PI3, math.pi / 6, -math.pi / 6)
    return PrimeSplitRecord(p, klass, None, 0.0, 0.0)


# ---------------------------------------------------------------------------
# factorization of integers over Z[w]


class EisFactorization(NamedTuple):
    """n = w^unit_power * pi_3^alpha3 * prod pi^e pibar^e' * prod q^e."""

    n: int
    unit_power: int
    alpha3: int
    split_factors: tuple[tuple[PrimeSplitRecord, int, int], ...]
    inert_factors: tuple[tuple[int, int], ...]

    def recompose(self) -> EisensteinInt:
        z = UNITS[self.unit_power] * PI3**self.alpha3
        for rec, e1, e2 in self.split_factors:
            if rec.pi is None:
                raise RuntimeError(f"split prime {rec.p} has no generator")
            z = z * rec.pi**e1 * eis_conj(rec.pi) ** e2
        for q, e in self.inert_factors:
            z = z * EisensteinInt(q, 0) ** e
        return z


def factor_eisenstein(n: int) -> EisFactorization:
    """Complete factorization of the rational integer n in Z[w].

    The embedded element is (n, 0), so 3^v contributes pi_3^(2v) and a
    unit power of v (from 3 = w * pi_3^2), while each split p^e
    contributes pi_p^e * conj(pi_p)^e with no unit.
    """
    if n < 1:
        raise ValueError("factor_eisenstein needs n >= 1")
    rational = factor_int(n)
    v3 = rational.pop(3, 0)
    split: list[tuple[PrimeSplitRecord, int, int]] = []
    inert: list[tuple[int, int]] = []
    for p in sorted(rational):
        e = rational[p]
        if p % 3 == 1:
            split.append((_split_record(p), e, e))
        else:
            inert.append((p, e))
    fac = EisFactorization(n, v3 % 6, 2 * v3, tuple(split), tuple(inert))
    if fac.recompose() != EisensteinInt(n, 0):
        raise RuntimeError(f"recomposition failed for {n}")
    return fac


def r_q(n: int) -> int:
    """Number of lattice points on |mu|^2 = n."""
    if n < 1:
        raise ValueError("r_q needs n >= 1")
    count = 6
    for p, e in factor_int(n).items():
        if p == 3:
            continue
        if p % 3 == 1:
            count *= e + 1
        elif e % 2 == 1:
            return 0
    return count


# ---------------------------------------------------------------------------
# circle point sets


class CirclePointSet(NamedTuple):
    n: int
    points: tuple[EisensteinInt, ...]
    count: int


def _sector_points(n: int) -> list[tuple[int, int]]:
    """The m = r_Q(n)/6 points of |mu|^2 = n in the fundamental sector
    [-pi/6, pi/6) as pairs (a, b), one per associate class; [] when
    r_Q(n) = 0.

    Fix pi_3^(v_3(n)) times the inert part q^(e/2); for each split p^e
    choose pi_p^j * conj(pi_p)^(e-j), j = 0..e; multiply out the choices
    on (a, b) pairs and turn each product by powers of w into the sector,
    tested exactly as in_fundamental_sector tests.  The m classes must
    be distinct.
    """
    if n < 1:
        raise ValueError("circle_points needs n >= 1")
    rational = factor_int(n)
    base = PI3 ** rational.get(3, 0)
    choices: list[list[tuple[int, int]]] = []
    expected = 1
    for p in sorted(rational):
        e = rational[p]
        if p == 3:
            continue
        if p % 3 == 1:
            pi = _split_record(p).pi
            if pi is None:
                raise RuntimeError(f"split prime {p} has no generator")
            expected *= e + 1
            choices.append([(z.a, z.b) for z in (pi**j * eis_conj(pi) ** (e - j) for j in range(e + 1))])
        else:
            if e % 2 == 1:
                return []
            base = base * EisensteinInt(p, 0) ** (e // 2)
    partials = [(base.a, base.b)]
    for opts in choices:  # the product of EisensteinInt, on pairs
        partials = [(a * c - b * d, a * d + b * c + b * d) for a, b in partials for c, d in opts]
    sector = []
    for a, b in partials:
        for _ in range(6):
            if 2 * a + b > 0 and a + 2 * b >= 0 and a > b:
                break
            a, b = -b, a + b  # times w
        sector.append((a, b))
    if len(set(sector)) != expected:
        raise RuntimeError(f"{6 * len(set(sector))} points on |mu|^2 = {n}, expected {6 * expected}")
    return sector


def _circle_args(n: int) -> list[tuple[float, int, int]]:
    """(arg, a, b) for every point of |mu|^2 = n, sorted, each arg as
    EisensteinInt.arg gives it.  The sector points in angle order, then
    the same order times w, w^2, ..., w^5: the sort merges six runs."""
    out = sorted((_arg(a, b), a, b) for a, b in _sector_points(n))
    pts = [(a, b) for _, a, b in out]
    for _ in range(5):
        pts = [(-b, a + b) for a, b in pts]  # times w
        out += [(_arg(a, b), a, b) for a, b in pts]
    out.sort()
    return out


def circle_points(n: int) -> CirclePointSet:
    """All mu with |mu|^2 = n, from the factorization of n: the six unit
    multiples of the sector points of _sector_points, sorted by (angle, a)."""
    points = tuple(EisensteinInt(a, b) for _, a, b in _circle_args(n))
    return CirclePointSet(n, points, len(points))


# ---------------------------------------------------------------------------
# fundamental-sector enumeration (shared by the statistics modules)

_BLOCK_POINTS = 1 << 16  # half-sector points per band of iter_lattice_blocks
# the half sector holds pi / (6 sqrt 3) ~ 0.302 points per unit of norm,
# so a band of this many norms holds about _BLOCK_POINTS points (bands
# twice as wide measured slower: a band's bincount then outgrows the cache)
_BAND_NORMS = int(_BLOCK_POINTS * 6.0 * SQRT3 / math.pi)


def sector_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles of the sector points a + b*w, clamped below at -pi/6.

    arctan2 can land one ulp below -pi/6 on the boundary ray a + 2b = 0,
    so the result is clamped there; on the ray a = b of the half sector
    it can land one ulp above pi/6, which is left as it is.
    """
    import numpy as np
    return np.maximum(np.arctan2(b * (SQRT3 / 2.0), a + b / 2.0), -math.pi / 6.0)


def _row_ends(b: np.ndarray, v: int) -> np.ndarray:
    """A(b, v) = (isqrt(4v - 3b^2) - b) // 2 for every row b at once: the
    largest a with a^2 + ab + b^2 <= v on the branch where the norm grows
    with a.  A negative discriminant is taken as 0, which puts A(b, v)
    below the first sector a of row b.

    For d < 2^63 the floor of the float root is isqrt(d) or one more:
    rounding is monotone and isqrt(d) is a double, so the root never
    drops below it, but past 2^53 the float of k^2 - j can be k^2.  One
    downward step makes it exact."""
    import numpy as np
    d = np.maximum(4 * v - 3 * b * b, 0)
    r = np.sqrt(d).astype(np.int64)
    r -= r * r > d
    return (r - b) // 2


def iter_lattice_blocks(x: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield int64 arrays (a, b, n) covering the half sector to norm x.

    The half sector holds the points a + b*w with a >= b >= 0 and
    0 < n = a^2 + ab + b^2 <= x, i.e. arg in [0, pi/6], both rays
    included.  The fundamental sector [-pi/6, pi/6) is the half sector,
    less its ray a = b, plus the mirror images (a + b, -b) of the points
    with b >= 1; the mirror of (b, b) is its associate (2b, -b) on the
    -pi/6 ray.  Every circle's point set is closed under the six units
    and conjugation, so a statistic fixed by both reads the half sector
    with weight 2 on the points strictly inside (0, pi/6) and 1 on the
    two rays (see expsum._band_cos_sums).

    Band contract: each block holds exactly the half-sector points with
    norm in one band (lo, hi], where lo runs through the multiples of
    B = _BAND_NORMS (about 2^16 points) below x and hi = min(lo + B, x).
    So the blocks are disjoint and increasing in norm, all points of one
    norm lie in one block, and a band without points yields no block.
    Within a block the points run through the rows b = 0..isqrt(hi // 3)
    in increasing b, and along a row in increasing a (so increasing n):
    row b starts at a = max(b, 1), and the band holds its a in
    (A(b, lo), A(b, hi)], A(b, v) = (isqrt(4v - 3b^2) - b) // 2.
    """
    import numpy as np
    for lo in range(0, x, _BAND_NORMS):
        hi = min(lo + _BAND_NORMS, x)
        b = np.arange(math.isqrt(hi // 3) + 1, dtype=np.int64)  # the rows with 3b^2 <= hi
        first = np.maximum(b, 1) if lo == 0 else np.maximum(np.maximum(b, 1), _row_ends(b, lo) + 1)
        count = np.maximum(_row_ends(b, hi) - first + 1, 0)
        total = int(count.sum())
        if total == 0:
            continue
        bb = np.repeat(b, count)
        a = np.arange(total, dtype=np.int64) + np.repeat(first - (np.cumsum(count) - count), count)
        yield a, bb, a * a + a * bb + bb * bb


def sector_bands(x: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the fundamental-sector points of norm <= x, arg in [-pi/6, pi/6),
    as (norms, angles), one band of iter_lattice_blocks at a time, each
    sorted by (norm, angle); one point per associate class, so circle n
    holds r_Q(n)/6 of them, all in one band.

    Each half-sector band is mirrored: the rows b >= 1, reversed and
    mapped to rows -b (the a = b ray lands on the -pi/6 ray; arctan2 is
    odd, so a mirror's angle is -t, clamped as sector_angles clamps),
    then the rows with a > b.  The rows then run in increasing b, and on
    one circle the angle grows with b, so a stable sort on n orders the
    band by (norm, angle); the bands are disjoint and increasing in norm.
    """
    import numpy as np
    for a, b, n in iter_lattice_blocks(x):
        t = sector_angles(a, b)
        low = np.flatnonzero(b > 0)[::-1]
        high = np.flatnonzero(a > b)
        n = np.concatenate((n[low], n[high]))
        t = np.concatenate((np.maximum(-t[low], -math.pi / 6.0), t[high]))
        order = np.argsort(n, kind="stable")
        yield n[order], t[order]


_CACHE_MAX = 4 * 10**6  # largest x whose split-prime table is kept (2.3 MB at the cap)
_split_primes: tuple[int, np.ndarray, np.ndarray] | None = None  # (x, p, theta_p) kept by split_prime_angles


def split_prime_angles(x: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (p, theta_p) for every split prime p <= x, sorted by p.

    Keeps the half-sector points with a > b >= 1 whose norm is a prime;
    each split prime has exactly one such representative, and its
    angle is the canonical theta_p in (0, pi/6).  Primality comes from
    the _band_primes table of each band of iter_lattice_blocks, so no
    table spans 0..x.  The result of the largest x <= _CACHE_MAX asked
    for is kept and sliced for a smaller x.
    """
    global _split_primes
    if x > 10**8:
        raise ValueError("split prime enumeration capped at 1e8")
    kept = _split_primes
    if kept is not None and kept[0] >= x:
        k = kept[1].searchsorted(x, side="right")
        return kept[1][:k], kept[2][:k]
    import numpy as np
    ps = [np.empty(0, dtype=np.int64)]
    ts = [np.empty(0)]
    for a, b, n in iter_lattice_blocks(x):
        lo = (int(n[0]) - 1) // _BAND_NORMS * _BAND_NORMS  # the block is the band (lo, min(lo + B, x)]
        prime = _band_primes(lo, min(lo + _BAND_NORMS, x))
        keep = np.flatnonzero((b >= 1) & (a > b) & prime[n - (lo + 1)])
        keep = keep[np.argsort(n[keep])]  # one point per split prime: no ties
        ps.append(n[keep])
        ts.append(sector_angles(a[keep], b[keep]))
    ps, ts = np.concatenate(ps), np.concatenate(ts)
    if x <= _CACHE_MAX:
        _split_primes = (x, ps, ts)
    return ps, ts
