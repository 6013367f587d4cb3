"""Ring axioms and the canonical sector, mostly property-based."""

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from eisen.core import (
    OMEGA,
    ONE,
    UNITS,
    ZERO,
    EisensteinInt,
    canonical_associate,
    eis_arg,
    eis_conj,
    eis_mul,
    eis_norm,
    in_fundamental_sector,
)

coords = st.integers(min_value=-50, max_value=50)
eints = st.builds(EisensteinInt, coords, coords)


@given(eints, eints, eints)
def test_ring_laws(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x - x == ZERO
    assert x * ONE == x


@given(eints, eints)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(eints)
def test_conjugation(x):
    assert eis_conj(eis_conj(x)) == x
    # z * conj(z) = N(z) as a rational integer
    assert x * eis_conj(x) == EisensteinInt(x.norm(), 0)


@given(eints, eints)
def test_conj_multiplicative(x, y):
    assert eis_conj(x * y) == eis_conj(x) * eis_conj(y)


def test_units_and_omega():
    assert OMEGA == EisensteinInt(0, 1)
    assert len(UNITS) == 6
    assert len(set(UNITS)) == 6
    for k, u in enumerate(UNITS):
        assert u.norm() == 1
        assert OMEGA**k == u
    assert OMEGA**6 == ONE
    # w^2 = w - 1
    assert OMEGA * OMEGA == OMEGA - ONE


@given(eints)
def test_rotate60_is_omega_multiplication(x):
    assert x.rotate60() == eis_mul(OMEGA, x)


@given(eints, st.integers(min_value=0, max_value=8))
def test_pow_matches_repeated_product(x, k):
    expected = ONE
    for _ in range(k):
        expected = expected * x
    assert x**k == expected


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        EisensteinInt(1, 1) ** -1


@given(eints)
def test_arg_range_and_complex_agreement(x):
    if x.is_zero():
        with pytest.raises(ValueError):
            x.arg()
        return
    t = x.arg()
    assert -math.pi <= t < math.pi
    w = x.to_complex()
    assert abs(t - math.atan2(w.imag, w.real)) < 1e-12 or abs(abs(t) - math.pi) < 1e-12


def test_sector_membership_is_exact_on_boundaries():
    assert in_fundamental_sector(EisensteinInt(1, 0))
    assert in_fundamental_sector(EisensteinInt(2, -1))  # angle -pi/6 included
    assert not in_fundamental_sector(EisensteinInt(1, 1))  # angle +pi/6 excluded
    assert not in_fundamental_sector(EisensteinInt(-1, 0))
    with pytest.raises(ValueError):
        in_fundamental_sector(ZERO)


def test_sector_hits_exactly_one_associate():
    for a in range(-10, 11):
        for b in range(-10, 11):
            z = EisensteinInt(a, b)
            if z.is_zero():
                continue
            hits = [k for k, u in enumerate(UNITS) if in_fundamental_sector(u * z)]
            assert len(hits) == 1, (a, b, hits)


@given(eints)
def test_canonical_associate_idempotent(z):
    if z.is_zero():
        with pytest.raises(ValueError):
            canonical_associate(z)
        return
    x, k = canonical_associate(z)
    assert in_fundamental_sector(x)
    assert 0 <= k < 6
    assert UNITS[k] * z == x
    again, j = canonical_associate(x)
    assert again == x and j == 0


def test_canonical_associate_example():
    x, k = canonical_associate(EisensteinInt(1, 1))
    assert (x.a, x.b) == (2, -1)
    assert k == 5


@given(eints)
def test_norm_formula(z):
    assert eis_norm(z) == z.a * z.a + z.a * z.b + z.b * z.b
    assert eis_norm(z) >= 0


@given(eints)
def test_arg_of_canonical_rep_in_sector_interval(z):
    if z.is_zero():
        return
    x, _ = canonical_associate(z)
    t = eis_arg(x)
    assert -math.pi / 6 - 1e-12 <= t < math.pi / 6 + 1e-12


def test_eisenstein_int_value_contract():
    # equal, hashed and ordered as the pair (a, b), but never equal to a
    # tuple or an operand of tuple or int arithmetic; immutable
    z = EisensteinInt(1, 2)
    assert repr(z) == "EisensteinInt(a=1, b=2)" and str(z) == "1+2w"
    assert z == EisensteinInt(1, 2) and hash(z) == hash((1, 2))
    assert len({z, EisensteinInt(1, 2), EisensteinInt(2, 1)}) == 2
    assert z != (1, 2) and (1, 2) != z and not z == (1, 2)
    pts = [EisensteinInt(2, -1), z, EisensteinInt(1, -3), EisensteinInt(-4, 9)]
    assert sorted(pts) == [EisensteinInt(-4, 9), EisensteinInt(1, -3), z, EisensteinInt(2, -1)]
    assert z <= z and z >= z and not z < z and not z > z and EisensteinInt(1, 3) > z
    for bad in (lambda: 2 * z, lambda: (1, 2) + z, lambda: z < (1, 2), lambda: (1, 2) >= z):
        with pytest.raises(TypeError):
            bad()
    for bad in (lambda: setattr(z, "a", 5), lambda: delattr(z, "b"), lambda: setattr(z, "c", 0)):
        with pytest.raises(AttributeError):
            bad()
    assert (z.a, z.b) == (1, 2)
    for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert twin == z and type(twin) is EisensteinInt
    match z:
        case EisensteinInt(a, b):
            assert (a, b) == (1, 2)
