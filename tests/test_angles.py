"""Prime-ideal angles: enumeration, sectors, character sums, bad circles."""

import math
import random

import numpy as np
import pytest
from bruteforce import (
    angle_index_by_sort,
    chi_sum_by_ideals,
    equi_stat_by_sort,
    ideal_angles,
    sector_count_by_searchsorted,
    split_prime_reciprocal_sum,
)

from eisen import angles, factor
from eisen.angles import (
    BadCircle,
    SectorQuery,
    bad_circle,
    chi_prime_sum,
    prime_ideals_up_to,
    sector_count,
    theta_equidistribution_stat,
)
from eisen.core import EisensteinInt
from eisen.factor import is_prime, split_prime_generator

PI_6 = math.pi / 6.0


def test_small_ideal_lists():
    assert prime_ideals_up_to(1.5) == []
    assert prime_ideals_up_to(3) == [(3, -PI_6)]
    assert prime_ideals_up_to(4) == [(3, -PI_6), (4, 0.0)]
    th7 = split_prime_generator(7).theta_p
    # conjugate pair over 7 listed +theta first
    assert prime_ideals_up_to(7) == [(3, -PI_6), (4, 0.0), (7, th7), (7, -th7)]


def test_ideal_list_sorted_and_in_range():
    ideals = prime_ideals_up_to(500)
    norms = [n for n, _ in ideals]
    assert norms == sorted(norms)
    assert all(-PI_6 <= t < PI_6 for _, t in ideals)
    # norms are p (split), q^2 (inert), or 3
    assert (4, 0.0) in ideals and (25, 0.0) in ideals and (121, 0.0) in ideals


@pytest.mark.parametrize("x", [2, 3, 4, 49, 50, 12345, 10**6])
def test_ideal_arrays_merge_equals_the_sort(x):
    # sorted by norm, +theta before -theta above a split prime
    n_all, t_all = ideal_angles(x)
    order = np.lexsort((-t_all, n_all))
    norms, thetas = angles._ideal_arrays(x)
    assert np.array_equal(norms, n_all[order]) and np.array_equal(thetas, t_all[order])


def test_ideal_enumeration_cap():
    with pytest.raises(ValueError):
        prime_ideals_up_to(2 * 10**8)


def test_nan_x_is_rejected_before_any_table(monkeypatch):
    _no_tables(monkeypatch)
    before = angles._kept_index.cache_info()
    calls = (theta_equidistribution_stat, prime_ideals_up_to, angles._angle_index,
             lambda x: chi_prime_sum(x, 1), lambda x: chi_prime_sum(x, -1))
    for call in calls:
        with pytest.raises(ValueError, match="x is NaN"):
            call(math.nan)
    assert angles._kept_index.cache_info() == before


def test_sector_query_validation():
    with pytest.raises(ValueError):
        SectorQuery(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        SectorQuery(100, 0.2, 0.1)
    with pytest.raises(ValueError):
        SectorQuery(100, -1.0, 0.1)
    with pytest.raises(ValueError):
        SectorQuery(100, 0.0, PI_6)


def test_sector_count_small_x_by_hand():
    # ideals of norm <= 20 with angle in [0, 0.4]: norm 4 at 0, norm 13
    # at ~0.245, norm 7 at ~0.333 (theta_19 ~ 0.409 falls outside)
    obs, exp = sector_count(SectorQuery(20, 0.0, 0.4))
    assert obs == 3
    # 8.860136197515328 = Li(20), mpmath li(20) - li(2)
    assert exp == pytest.approx(3.0 / math.pi * 0.4 * 8.860136197515328, rel=1e-9)


def test_sector_count_endpoints_closed():
    th7 = split_prime_generator(7).theta_p
    obs, _ = sector_count(SectorQuery(20, 0.0, th7))
    assert obs == 3  # the endpoint angle itself is counted
    obs, _ = sector_count(SectorQuery(20, th7, 0.41))
    assert obs == 2  # theta_7 and theta_19


def test_sector_count_end_one_tolerance_from_zero():
    # phi1 = 1e-12 (or phi2 = -1e-12) puts the widened end exactly on 0.0, where
    # the inert ideals 4 and 25 sit: 7 split ideals plus those 2 on either side
    assert sector_count(SectorQuery(100, 1e-12, 0.3))[0] == 9
    assert sector_count(SectorQuery(100, -0.3, -1e-12))[0] == 9


def test_sector_ratio_near_one():
    for phi1, phi2 in ((-PI_6, 0.0), (0.0, 0.3), (-0.2, 0.25)):
        obs, exp = sector_count(SectorQuery(10**5, phi1, phi2))
        assert 0.93 < obs / exp < 1.07


def _listed_count(x, phi1, phi2):
    eps = 1e-12
    return sum(1 for _, t in prime_ideals_up_to(x) if phi1 - eps <= t <= phi2 + eps)


def _end_on(t, eps):
    """A float phi with phi + eps == t exactly: an interval end that the
    1e-12 tolerance widens onto t itself."""
    phi = t - eps
    for _ in range(8):
        if phi + eps == t:
            return phi
        phi = math.nextafter(phi, math.inf if phi + eps < t else -math.inf)
    raise AssertionError(t)


def _test_intervals():
    """Ends exactly on -pi/6, 0 and +-theta_7, ends 5e-13 past them (inside
    the tolerance), ends whose widened value is exactly +-theta_7, and 40
    seeded intervals."""
    th7 = split_prime_generator(7).theta_p
    ends = [(-PI_6, 0.0), (-PI_6, -th7), (-th7, 0.0), (0.0, th7), (-th7, th7), (th7, 0.5)]
    d = 5e-13
    ends += [(-PI_6 + d, -th7 - d), (-th7 + d, -d), (d, th7 - d), (th7 + d, 0.5)]
    eps = 1e-12
    ends += [(-PI_6, _end_on(-th7, eps)), (_end_on(-th7, -eps), 0.0), (0.0, _end_on(th7, eps)), (_end_on(th7, -eps), 0.5)]
    rng = random.Random(2005)
    return ends + [tuple(sorted(rng.uniform(-PI_6, PI_6) for _ in range(2))) for _ in range(40)]


def test_sector_count_matches_ideal_list():
    # sector_count counts the split-prime table in place; the public
    # sorted list is the reference
    for x in (2.5, 3, 4, 20, 1e4):
        for phi1, phi2 in _test_intervals():
            obs, _ = sector_count(SectorQuery(x, phi1, phi2))
            assert obs == _listed_count(x, phi1, phi2), (x, phi1, phi2)
    # no prime ideal has norm <= 2.5
    assert sector_count(SectorQuery(2.5, -PI_6, 0.5))[0] == 0


def _assert_counts_match_the_mask(x):
    _, thetas = ideal_angles(x)
    eps = 1e-12
    for phi1, phi2 in _test_intervals():
        want = int(np.count_nonzero((thetas >= phi1 - eps) & (thetas <= phi2 + eps)))
        assert sector_count(SectorQuery(x, phi1, phi2))[0] == want, (x, phi1, phi2)


def test_sector_count_matches_the_ideal_mask_at_1e6():
    # the binary searches over the sorted theta_p equal the mask over the
    # concatenated ideal angles, with the same tolerance
    _assert_counts_match_the_mask(10**6)


def test_angle_index_is_rebuilt_when_x_changes(monkeypatch):
    monkeypatch.setattr(factor, "_split_primes", None)
    for x in (10**6, 10**5, 10**6, 4 * 10**6, 10**6):
        _assert_counts_match_the_mask(x)
        assert angles._kept_index.cache_info().currsize == 1
        assert len(angles._kept_index(x)[0]) == len(factor.split_prime_angles(x)[0])
    assert factor._split_primes[0] == 4 * 10**6  # the last 1e6 was sliced from the kept 4e6 table


def _seeded_queries(x, seed, count):
    rng = random.Random(seed)
    return [SectorQuery(x, *sorted(rng.uniform(-PI_6, PI_6) for _ in range(2))) for _ in range(count)]


@pytest.mark.parametrize("x", [7, 100, 12345, 10**6])
def test_sector_count_bisects_equal_the_searchsorted_count(x):
    # the warm path skips the searches whose answer the sign of a bound
    # gives; numpy's four searches over a fresh sort are the reference
    index = angle_index_by_sort(x)
    for q in _seeded_queries(x, 2505 + x, 3000):
        assert sector_count(q) == sector_count_by_searchsorted(q, index), q


def test_sector_count_equals_the_searchsorted_count_at_the_seams():
    # interval ends on +-theta_p, 1e-12 on either side of them, ends that the
    # 1e-12 tolerance widens onto +-theta_p exactly, +-0.0 and -pi/6; at
    # x = 2.5 no ideal exists and at x = 3 the ramified one at -pi/6 does
    eps = 1e-12
    thetas = angle_index_by_sort(12345)[0]
    ends = [0.0, -0.0, -PI_6, math.nextafter(-PI_6, 0.0)]
    for t in (*thetas[:3], *thetas[-2:]):
        t = float(t)
        for v in (t, -t):
            ends += [v, v - eps, v + eps, _end_on(v, eps), _end_on(v, -eps)]
    pairs = [(p1, p2) for p1 in ends for p2 in ends if -PI_6 <= p1 < p2 < PI_6]
    for x in (2.5, 3, 7, 100, 12345):
        index = angle_index_by_sort(x)
        for phi1, phi2 in pairs:
            q = SectorQuery(x, phi1, phi2)
            assert sector_count(q) == sector_count_by_searchsorted(q, index), q


def test_sector_count_keeps_the_index_of_an_x_whose_floor_is_the_cap():
    # x in (4e6, 4e6 + 1) has the cap's ideals: its index is kept, not
    # rebuilt on every call
    x = factor._CACHE_MAX + 0.5
    index = angle_index_by_sort(x)
    first, second = _seeded_queries(x, 45, 2)
    assert sector_count(first) == sector_count_by_searchsorted(first, index)
    before = angles._kept_index.cache_info()
    assert sector_count(second) == sector_count_by_searchsorted(second, index)
    after = angles._kept_index.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses


def test_sector_count_above_the_cap_keeps_nothing():
    x = 5 * 10**6
    index = angle_index_by_sort(x)
    before = angles._kept_index.cache_info()
    for q in _seeded_queries(x, 46, 2):
        assert sector_count(q) == sector_count_by_searchsorted(q, index), q
    assert angles._kept_index.cache_info() == before


@pytest.mark.parametrize("x", [100, 101, 12345, 10**5, 10**6])
def test_equi_stat_has_the_bits_of_the_full_sort(x):
    assert angles._equi_stat(x) == equi_stat_by_sort(x)


def test_chi_prime_sum_tiny_x():
    # only the ramified ideal at angle -pi/6: chi^6 = e^{-i pi} = -1
    assert chi_prime_sum(3, 1).value == pytest.approx(-1.0)
    # adding the inert ideal of norm 4 (angle 0) cancels it
    assert abs(chi_prime_sum(4, 1).value) < 1e-12
    assert chi_prime_sum(3, 2).value == pytest.approx(1.0)  # e^{-2 pi i}


def test_chi_prime_sum_rejects_trivial_character():
    with pytest.raises(ValueError):
        chi_prime_sum(100, 0)
    with pytest.raises(ValueError):
        chi_prime_sum(1, 0)  # rejected even where every part is empty


def test_chi_decomposition_matches():
    # the split-prime decomposition against the ideal-by-ideal sum of e^{i 6a theta}
    for x in (50, 1000, 10**4):
        for a in (1, 2, 3, -1):
            whole = chi_sum_by_ideals(x, a)
            parts = chi_prime_sum(x, a).value
            assert parts.imag == 0.0
            assert abs(whole - parts) < 1e-8 * max(1.0, abs(whole))


def test_chi_sums_agree_where_no_ideal_is_counted():
    # both sums are 0 below the first ideal norm 2, whatever the x there
    for x in (-5, -math.inf, 0, 1, 1.99):
        for a in (1, -2):
            assert chi_prime_sum(x, a).value == 0j, (x, a)
    with pytest.raises(ValueError, match="NaN"):
        chi_prime_sum(math.nan, 1)


def test_split_prime_reciprocal_sum_rejects_nan_with_a_reason():
    with pytest.raises(ValueError, match="NaN"):
        split_prime_reciprocal_sum(math.nan)
    assert split_prime_reciprocal_sum(-math.inf) == split_prime_reciprocal_sum(6) == 0.0
    assert split_prime_reciprocal_sum(7.5) == split_prime_reciprocal_sum(7) == 1.0 / 7


def test_chi_prime_sum_cancellation():
    # square-root scale cancellation: the sum over ~ 2 Li(x) ideals stays tiny
    v = chi_prime_sum(10**6, 1).value
    assert abs(v) / 10**6 < 0.02


def test_equidistribution_stat_decays():
    s3 = theta_equidistribution_stat(10**3)
    s5 = theta_equidistribution_stat(10**5)
    assert s5 < s3
    assert s5 < 0.01
    # frozen from scipy.stats.kstest against the uniform law on [-pi/6, pi/6)
    assert s3 == pytest.approx(0.020958083832335328, abs=1e-12)
    assert s5 == pytest.approx(0.0031411264516655324, abs=1e-12)


def test_equidistribution_stat_validation():
    with pytest.raises(ValueError):
        theta_equidistribution_stat(50)


def test_split_prime_reciprocal_sum_mertens_drift():
    # sum 1/p - (1/2) log log x converges; the drift between 1e5 and
    # 1e6 is already below 3e-4
    d5 = split_prime_reciprocal_sum(10**5) - 0.5 * math.log(math.log(10**5))
    d6 = split_prime_reciprocal_sum(10**6) - 0.5 * math.log(math.log(10**6))
    assert abs(d5 - d6) < 3e-4
    assert -0.40 < d6 < -0.30


def test_bad_circle_example():
    bc = bad_circle(math.pi / 12, 48)
    assert isinstance(bc, BadCircle)
    assert bc.m == 3
    assert bc.primes == (157, 211, 241)
    assert bc.n == 157 * 211 * 241 == 7983607
    assert bc.points.count == 48
    for z in bc.points.points:
        off = abs(math.remainder(z.arg(), math.pi / 3.0))
        assert off <= math.pi / 12 + 1e-12


def test_bad_circle_prime_angles_qualify():
    bc = bad_circle(math.pi / 12, 48)
    delta = (math.pi / 12) / bc.m
    for p in bc.primes:
        assert 0 < split_prime_generator(p).theta_p <= delta


def test_bad_circle_trivial_k():
    for k in (1, 6):
        bc = bad_circle(0.3, k)
        assert bc.m == 0 and bc.n == 1 and bc.primes == ()
        assert bc.points.count == 6


def test_bad_circle_validation():
    with pytest.raises(ValueError):
        bad_circle(0.0, 10)
    with pytest.raises(ValueError):
        bad_circle(PI_6, 10)
    with pytest.raises(ValueError):
        bad_circle(0.1, 0)


def _no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a table")
    monkeypatch.setattr(angles.factor, "split_prime_angles", refuse)
    monkeypatch.setattr(angles, "circle_points", refuse)


def test_bad_circle_rejects_a_huge_k_before_building(monkeypatch):
    _no_tables(monkeypatch)
    for k in (angles._K_MAX + 1, 10**11):
        with pytest.raises(ValueError, match="k must lie"):
            bad_circle(0.1, k)


def test_bad_circle_rejects_an_angle_no_prime_reaches(monkeypatch):
    # no split prime below 1e8 has an angle under 8.6607e-5 (p = 99990001),
    # and only 15 have one under 8.74e-5 (m = 16 needs 16)
    _no_tables(monkeypatch)
    for eps, k in ((1e-9, 12), (1e-4, 48), (8.66e-5, 12), (16 * 8.74e-5, angles._K_MAX)):
        with pytest.raises(ValueError, match="no split prime"):
            bad_circle(eps, k)


def test_smallest_split_angles_lie_on_the_first_rows():
    # every split prime <= 1e8 on the rows b <= 3, with its angle; a row
    # b >= 2 point has tangent >= 2 sqrt3 / 2e4, above the 16 smallest, so
    # the thin-sector walk finds exactly these 16 at the 16th angle
    found = []
    for b in (1, 2, 3):
        a = b + 1
        while a * a + a * b + b * b <= 10**8:
            if is_prime(a * a + a * b + b * b):
                found.append((EisensteinInt(a, b).arg(), a * a + a * b + b * b))
            a += 1
    found.sort()
    smallest = found[:16]
    assert smallest[0][0] == pytest.approx(8.6607e-5, rel=1e-5)
    assert smallest[15][0] == pytest.approx(8.7482e-5, rel=1e-5)
    assert max(found)[0] < math.pi / 6
    assert math.atan(2 * math.sqrt(3.0) / 20000) > smallest[15][0]
    assert angles._thin_split_primes(smallest[15][0], 16) == sorted(p for _, p in smallest)
    assert angles._thin_split_primes(smallest[15][0], 17) == sorted(p for _, p in smallest)
    assert angles._thin_split_primes(smallest[14][0], 16) == sorted(p for _, p in smallest[:15])


def test_bad_circle_too_few_primes_is_a_rejection():
    # the walk to 1e8 decides at the edge: below the smallest split-prime
    # angle, 8.6607e-5 of p = 99990001, it finds no prime, and just above it
    # that one
    edge = EisensteinInt(9999, 1).arg()
    assert edge == pytest.approx(8.6607e-5, rel=1e-5)
    with pytest.raises(ValueError, match="no split prime below 1e8"):
        bad_circle(edge * (1.0 - 2.0**-40), 12)
    assert bad_circle(edge, 12).primes == bad_circle(edge * 1.00001, 12).primes == (99990001,)


def test_bad_circle_walks_the_thin_sector_only(monkeypatch):
    # the accepted case near the edge reads no split-prime table: of the nine
    # split primes below 1e8 with an angle <= 8.7e-5, p = 99151807 is the least
    monkeypatch.setattr(angles.factor, "split_prime_angles", lambda *args: pytest.fail("built a table"))
    bc = bad_circle(8.7e-5, 12)
    assert (bc.n, bc.primes, bc.m, bc.points.count) == (99151807, (99151807,), 1, 12)
