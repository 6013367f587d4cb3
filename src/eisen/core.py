"""Exact arithmetic in Z[w], the hexagonal lattice, where w = e^{i*pi/3}.

An element is written a + b*w with integer coordinates (a, b).  Because
w^2 = w - 1, products stay in the lattice, and the norm

    N(a + b*w) = a^2 + a*b + b^2

equals |a + b*w|^2, the squared distance to the origin.  The unit group
has order six (the powers of w), so a nonzero element has six associates
spaced pi/3 apart in angle.  Exactly one associate has its argument in
the half-open sector [-pi/6, pi/6); we call it the canonical associate.
Sector membership is decided by integer sign tests only, so the boundary
rays at +/- pi/6 are classified exactly (the +pi/6 ray is excluded, the
-pi/6 ray included).

Angles are plain floats in radians, reduced to [-pi, pi).
"""

from __future__ import annotations

import functools
import math

SQRT3 = math.sqrt(3.0)


@functools.total_ordering  # <=, > and >= from < and ==
class EisensteinInt:
    """Lattice element a + b*w with exact integer coordinates.

    Immutable, and equal, hashed and ordered as the pair (a, b), but only
    among lattice elements: it is never equal to a tuple, and a tuple or an
    int is no operand of its arithmetic or its ordering.
    """

    __slots__ = ("a", "b")
    __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _SET_A(self, a)  # the slots' own setters: __setattr__ refuses
        _SET_B(self, b)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable EisensteinInt")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable EisensteinInt")

    def __reduce__(self):
        return EisensteinInt, (self.a, self.b)

    def __repr__(self) -> str:
        return f"EisensteinInt(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other):
        if other.__class__ is not EisensteinInt:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __lt__(self, other):
        if other.__class__ is not EisensteinInt:
            return NotImplemented
        return (self.a, self.b) < (other.a, other.b)

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd w^2, and w^2 = w - 1
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c + b * d)

    def __pow__(self, e: int) -> "EisensteinInt":
        if e < 0:
            raise ValueError("negative powers leave the lattice")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "EisensteinInt":
        # complex conjugate: w-bar = 1 - w
        return EisensteinInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def rotate60(self) -> "EisensteinInt":
        """Multiply by w (rotation by pi/3)."""
        return EisensteinInt(-self.b, self.a + self.b)

    def to_complex(self) -> complex:
        return complex(self.a + self.b / 2.0, self.b * SQRT3 / 2.0)

    def arg(self) -> float:
        """Argument in [-pi, pi); zero input rejected."""
        if self.a == 0 and self.b == 0:
            raise ValueError("argument of zero is undefined")
        return _arg(self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}w"


_SET_A = EisensteinInt.a.__set__
_SET_B = EisensteinInt.b.__set__


def _arg(a: int, b: int) -> float:
    """arg(a + b*w) in [-pi, pi) for nonzero integer coordinates (a, b)."""
    phi = math.atan2(b * SQRT3 / 2.0, a + b / 2.0)
    return -math.pi if phi == math.pi else phi


def _row_end(b: int, v: int) -> int:
    """The largest a with a^2 + ab + b^2 <= v on row b, as factor._row_ends
    gives it: below the row's first a > b when no such a exists."""
    return (math.isqrt(max(4 * v - 3 * b * b, 0)) - b) // 2


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)

# UNITS[k] == w^k
UNITS = (
    EisensteinInt(1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(-1, 1),
    EisensteinInt(-1, 0),
    EisensteinInt(0, -1),
    EisensteinInt(1, -1),
)


def eis_mul(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    """Ring product; the norm is multiplicative under it."""
    return x * y


def eis_conj(x: EisensteinInt) -> EisensteinInt:
    """Complex conjugation (a, b) -> (a+b, -b); an involutive ring map."""
    return x.conj()


def eis_norm(x: EisensteinInt) -> int:
    """a^2 + ab + b^2, which is nonnegative and zero only at the origin."""
    return x.norm()


def eis_arg(x: EisensteinInt) -> float:
    return x.arg()


def in_fundamental_sector(x: EisensteinInt) -> bool:
    """Exact test for arg(x) in [-pi/6, pi/6), x nonzero.

    With z = a + b/2 + i*b*sqrt(3)/2:
      Re z > 0            <=>  2a + b > 0
      arg z >= -pi/6      <=>  sqrt(3)*Im z + Re z >= 0  <=>  a + 2b >= 0
      arg z < pi/6        <=>  sqrt(3)*Im z < Re z       <=>  b < a
    All three are integer sign conditions.
    """
    if x.is_zero():
        raise ValueError("zero has no sector")
    return (2 * x.a + x.b > 0) and (x.a + 2 * x.b >= 0) and (x.a > x.b)


def canonical_associate(x: EisensteinInt) -> tuple[EisensteinInt, int]:
    """The unique associate x' = w^k * x with arg(x') in [-pi/6, pi/6).

    Returns (x', k).  Exactly one of the six associates qualifies; this
    is checked rather than assumed.
    """
    if x.is_zero():
        raise ValueError("zero has no canonical associate")
    found = None
    y = x
    for k in range(6):
        if in_fundamental_sector(y):
            if found is not None:
                raise RuntimeError(f"two associates of {x} in sector")
            found = (y, k)
        y = y.rotate60()
    if found is None:
        raise RuntimeError(f"no associate of {x} in sector")
    return found
