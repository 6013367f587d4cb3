"""Prime splitting, factorization over Z[w], and circle point sets."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import circle_points_bruteforce, exp_sum_product_by_factor_int, r_q_by_factor_int
from eisen import cli, factor
from eisen.core import UNITS, EisensteinInt, eis_conj, in_fundamental_sector
from eisen.discrepancy import discrepancy_exact, erdos_turan_bound
from eisen.expsum import circle_sums, exp_sum, exp_sum_product
from eisen.factor import (
    PI3,
    PrimeClass,
    circle_points,
    classify_prime,
    factor_eisenstein,
    factor_int,
    is_prime,
    iter_lattice_blocks,
    prime_record,
    primes_up_to,
    r_q,
    sector_bands,
    split_prime_angles,
    split_prime_generator,
)


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(0, 2000):
        assert is_prime(n) == trial(n), n
    for n in (10**9 + 7, 10**12 + 39, 2305843009213693951):
        assert is_prime(n)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_primes_up_to():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_up_to(10**5)
    assert len(ps) == 9592
    assert all(is_prime(int(p)) for p in ps[:100])
    # the trial-division primes come from a bytearray sieve, not from numpy
    assert factor._small_primes(10**5) == ps.tolist()
    assert [factor._small_primes(x) for x in range(4)] == [[], [], [2], [2, 3]]
    assert len(primes_up_to(10**6)) == 78498 and len(primes_up_to(10**7)) == 664579
    # the _SMALL_PRIMES slice, the band tables, and the seams between bands
    B = factor._BAND_NORMS
    for x in [0, 1, 2, 3, (1 << 16) - 1, 1 << 16, (1 << 16) + 1] + [k * B + d for k in (1, 2, 3) for d in (-1, 1)]:
        got = primes_up_to(x)
        assert got.dtype == np.int64 and got.tolist() == factor._small_primes(x), x
    # past 2^32 a band would need base primes above 2^16
    with pytest.raises(ValueError):
        primes_up_to((1 << 32) + 1)


def test_rho_stops_at_its_limit(monkeypatch, capsys):
    # 99991 * 99989 splits in 525 Floyd steps; with 100 allowed over every c
    # it is rejected, naming the limit, and the CLI exits 2
    monkeypatch.setattr(factor, "_RHO_STEPS", 100)
    with pytest.raises(ValueError, match="limit of 100 steps"):
        factor_int(99991 * 99989)
    assert cli.run(["factor", str(99991 * 99989)]) == 2
    # every circle reader stops before rho runs: no points and S = 0.  Twice
    # it is = 1 (mod 3) and stops at the odd power of 2; four times it is
    # = 2 (mod 3) and stops at the residue, before any division
    assert r_q(2 * 99991 * 99989) == 0 and r_q(4 * 99991 * 99989) == 0
    capsys.readouterr()
    for zero in (str(2 * 99991 * 99989), str(4 * 99991 * 99989)):
        for argv, code, out, err in ((["rq", zero], 0, '"result": 0}', ""), (["points", zero], 0, "", ""),
                                     (["expsum", zero, "6"], 0, '"re": 0.0, "im": 0.0', ""),
                                     (["discrepancy", zero], 2, "", "no lattice points")):
            assert cli.run(argv) == code, argv
            captured = capsys.readouterr()
            assert out in captured.out and err in captured.err and bool(captured.out) == bool(out), (argv, captured)
    # 99991 and 100003 are split, so 4 * 99991 * 100003 = 1 (mod 3) has no stop,
    # and rho, which needs 518 steps on 99991 * 100003, must split it
    for argv in (["rq"], ["points"], ["expsum", "6"], ["discrepancy"]):
        assert cli.run([argv[0], str(4 * 99991 * 100003), *argv[1:]]) == 2, argv
        assert "limit of 100 steps" in capsys.readouterr().err, argv
    with pytest.raises(ValueError, match="limit of 100 steps"):
        r_q(4 * 99991 * 100003)
    monkeypatch.setattr(factor, "_RHO_STEPS", 525)
    assert factor_int(99991 * 99989) == {99989: 1, 99991: 1}


def test_factor_int_examples():
    assert factor_int(1) == {}
    assert factor_int(12) == {2: 2, 3: 1}
    assert factor_int(441) == {3: 2, 7: 2}
    big = 99991 * 99989  # two large primes force the rho path
    assert factor_int(big) == {99989: 1, 99991: 1}
    assert factor_int(2**20) == {2: 20}


def test_factor_int_past_the_trial_division_table():
    # 65521 is the last table prime and 65537 the next: a cofactor left after
    # the table is prime below 65537^2, and from 65537^2 on it goes to
    # Miller-Rabin and rho, whether it is a prime or a square of one
    assert factor._SMALL_PRIMES[-1] == 65521
    assert factor_int(65521**2) == {65521: 2}
    assert factor_int(65521 * 65537) == {65521: 1, 65537: 1}
    assert factor_int(65537**2) == {65537: 2}
    assert factor_int(3 * 65537**2) == {3: 1, 65537: 2}


P_BELOW_TABLE = 4293001429  # the largest prime below 65521^2 (split)
P_ABOVE_TABLE = 4293001477  # the first split prime above 65521^2
P_PAST_PROOF = 4295098477  # the first split prime above 65537^2


def _counted_is_prime(monkeypatch):
    calls = []
    real = factor.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(factor, "is_prime", counted)
    return calls


@pytest.mark.parametrize("cofactor, tested", [(P_BELOW_TABLE, []), (P_ABOVE_TABLE, []),
                                              (P_PAST_PROOF, [P_PAST_PROOF])])
def test_exact_path_proves_each_prime_once(monkeypatch, cofactor, tested):
    # trial division to sqrt(n) is a proof, so a cofactor below 65537^2 is not
    # re-tested; above it Miller-Rabin runs once, and no split-prime record re-tests it
    n = 7 * cofactor
    calls = _counted_is_prime(monkeypatch)
    for f in (factor_int, r_q, circle_points, factor_eisenstein,
              lambda n: exp_sum(n, 12), lambda n: exp_sum_product(n, 12)):
        factor._split_record.cache_clear()
        calls.clear()
        f(n)
        assert calls == tested, f
    assert factor_int(n) == {7: 1, cofactor: 1} and r_q(n) == 24


def test_r_q_stops_at_the_first_odd_inert_power(monkeypatch):
    # the odd power of 2 ends r_q before the cofactor's Miller-Rabin; 2^2 does not.
    # 2 * P_PAST_PROOF = 2 (mod 3) stops at its residue; 10 * P_PAST_PROOF = 1 stops at the 2
    calls = _counted_is_prime(monkeypatch)
    rho = []
    real_rho = factor._pollard_rho
    monkeypatch.setattr(factor, "_pollard_rho", lambda n: rho.append(n) or real_rho(n))
    assert r_q(2 * P_PAST_PROOF) == 0 and r_q(10 * P_PAST_PROOF) == 0
    assert calls == [] and rho == []
    # so do the point set and both forms of S(n, A): no points, S = 0
    assert circle_points(2 * P_PAST_PROOF).count == 0
    assert exp_sum(2 * P_PAST_PROOF, 12).value == 0 and exp_sum_product(2 * P_PAST_PROOF, 12) == 0
    assert calls == [] and rho == []
    assert r_q(4 * P_PAST_PROOF) == 12
    assert calls == [P_PAST_PROOF] and rho == []


RHO_LIMIT_N = 300000000000000001940000000000000002091  # (10^19+51)(3*10^19+41), past rho's limit


def test_residue_stop_needs_no_trial_division(monkeypatch, capsys):
    # n = 3^v * m with m = 2 (mod 3) has an inert prime to an odd power: every
    # circle reader answers r_Q = 0 without a call to _prime_powers
    yielded = []
    real = factor._prime_powers

    def counted(n):
        yielded.append([])
        for pe in real(n):
            yielded[-1].append(pe)
            yield pe

    monkeypatch.setattr(factor, "_prime_powers", counted)
    for n in (5, 2 * P_PAST_PROOF, 27 * 2 * P_PAST_PROOF, RHO_LIMIT_N):
        assert r_q(n) == 0 and circle_points(n).count == 0, n
        assert exp_sum(n, 12).value == 0 and exp_sum_product(n, 12) == 0, n
        for reader in (discrepancy_exact, lambda n: erdos_turan_bound(n, 12)):
            with pytest.raises(ValueError, match="no lattice points"):
                reader(n)
        assert yielded == [], n
    # 10 = 2 * 5 = 1 (mod 3) passes the residue; the walk stops at its odd power of 2
    assert r_q(10) == 0 and yielded == [[(2, 1)]]
    t0 = time.perf_counter()
    assert cli.run(["rq", str(RHO_LIMIT_N)]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert '"result": 0}' in capsys.readouterr().out


# exponent patterns of the exact-queries benchmark's split-prime products
PATTERNS = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1), (3, 2, 1),
            (2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 3, 1, 1), (2, 2, 2, 2),
            (3, 3, 2, 1), (3, 3, 3, 1), (2, 2, 2, 2, 1), (3, 3, 3, 3), (3, 3, 3, 2, 1),
            (2, 2, 2, 2, 2, 1))


def _seeded_circles() -> list[int]:
    """400 split-prime products, as the benchmark draws them (a power of 3
    or an inert square rides along), then 3000 seeded n <= 1e12."""
    rng = random.Random(30)
    split = [p for p in factor._small_primes(600) if p % 3 == 1][:30]
    products = []
    for exps in PATTERNS * 20:
        n = math.prod(p**e for p, e in zip(rng.sample(split, len(exps)), exps))
        products.append(n * 3 ** rng.choice((0, 0, 1, 2)) * rng.choice((1, 1, 4, 25, 121)))
    assert len(products) == 400
    return products + [rng.randint(1, 10**12) for _ in range(3000)]


def test_r_q_equals_the_formula_over_factor_int():
    for n in itertools.chain(range(1, 200001), _seeded_circles()):
        assert r_q(n) == r_q_by_factor_int(n), n


def test_exp_sum_product_keeps_the_bits_of_the_product_over_factor_int():
    # the split factors multiply in factor_int's order, so each float keeps its bits
    def bits(z):
        return z.real.hex(), z.imag.hex()

    for A in (6, 12, 18):
        for n in _seeded_circles():
            assert bits(exp_sum_product(n, A)) == bits(exp_sum_product_by_factor_int(n, A)), (n, A)


FIRST_SPLIT = [p for p in factor._small_primes(400) if p % 3 == 1]


def test_circle_points_past_the_cap_exit_2_before_building(capsys):
    # the first 24 split primes give 6 * 2^24 points, 2^8 times the cap:
    # rejected with the count from the factorization, before any point is built
    n = math.prod(FIRST_SPLIT[:24])
    assert n == 11184366733504805148306673320640559702684763853 and r_q(n) == 100663296
    for argv in (["points", str(n)], ["expsum", str(n), "6"], ["discrepancy", str(n)]):
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli.run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and time.perf_counter() - t0 < 1.0, argv
        assert peak < 2**20, (argv, peak)
        captured = capsys.readouterr()
        assert "100663296 lattice points" in captured.err and captured.out == "", argv


def test_circle_points_at_the_cap_answer():
    n = math.prod(FIRST_SPLIT[:16])
    assert r_q(n) == factor._POINTS_MAX == 6 << 16
    assert len(factor._sector_points(n)) == 1 << 16


def test_public_split_prime_calls_test_their_input_once(monkeypatch):
    calls = _counted_is_prime(monkeypatch)
    for p in (7, 7, P_ABOVE_TABLE, 2, 3):  # the second 7 is a memo hit, and still classified
        for f in (split_prime_generator, prime_record):
            if f is split_prime_generator and p % 3 != 1:
                continue
            calls.clear()
            assert f(p).p == p
            assert calls == [p], (f, p)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200)
def test_factor_int_recomposes(n):
    f = factor_int(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_classify_prime():
    assert classify_prime(3) == PrimeClass.RAMIFIED
    assert classify_prime(7) == PrimeClass.SPLIT
    assert classify_prime(13) == PrimeClass.SPLIT
    assert classify_prime(2) == PrimeClass.INERT
    assert classify_prime(5) == PrimeClass.INERT
    assert classify_prime(11) == PrimeClass.INERT
    with pytest.raises(ValueError):
        classify_prime(6)
    with pytest.raises(ValueError):
        classify_prime(1)


def test_split_prime_generator_small_primes():
    for p in (7, 13, 19, 31, 37, 43, 61, 97, 103):
        rec = split_prime_generator(p)
        pi = rec.pi
        assert pi.norm() == p
        assert pi * eis_conj(pi) == EisensteinInt(p, 0)
        assert in_fundamental_sector(pi)
        assert 0 < rec.theta_p < math.pi / 6
        assert rec.theta_p == pi.arg()
        assert rec.theta_ideal == rec.theta_p


def test_split_prime_generator_rejects_non_split():
    for p in (2, 3, 5, 11, 91, 5, 11, 91):  # the memo keeps no failure
        with pytest.raises(ValueError):
            split_prime_generator(p)


def test_split_prime_generator_large():
    p = 10**18 + 3  # split prime, exercises Cornacchia at scale
    assert is_prime(p) and p % 3 == 1
    rec = split_prime_generator(p)
    assert rec.pi.norm() == p
    assert rec.pi == EisensteinInt(999999999, 2)
    assert split_prime_generator(p) == rec  # memoized, up to 1 << 12 primes
    assert factor._split_record.cache_info().maxsize == 1 << 12


def test_cornacchia_reduction_on_every_split_prime_below_1e6():
    # the reference is the one half-sector point a > b >= 1 of each split
    # prime norm, read off the enumerator, which knows nothing of Cornacchia
    x = 10**6
    prime = np.zeros(x + 1, dtype=bool)
    prime[primes_up_to(x)] = True
    want = {}
    for a, b, n in iter_lattice_blocks(x):
        keep = (b >= 1) & (a > b) & prime[n] & (n % 3 == 1)
        for p, pa, pb in zip(n[keep].tolist(), a[keep].tolist(), b[keep].tolist()):
            assert p not in want, p
            want[p] = (pa, pb)
    assert len(want) == 39231
    for p, ab in want.items():
        pi = factor._split_record.__wrapped__(p).pi  # leaves the memo as it is
        assert (pi.a, pi.b) == ab, p


def test_cornacchia_reduction_on_20_digit_split_primes():
    # the first three above 1e19 and the last three below 1e20
    found = []
    for p, step in ((10**19 + 3, 6), (10**20 - 3, -6)):  # both are 1 (mod 6)
        k = 0
        while k < 3:
            if is_prime(p):
                found.append(p)
                k += 1
            p += step
    for p in found:
        pi = split_prime_generator(p).pi
        assert pi.norm() == p and pi.a > pi.b >= 1, p


def test_prime_record_all_classes():
    r3 = prime_record(3)
    assert r3.klass == PrimeClass.RAMIFIED
    assert r3.pi == PI3
    assert r3.theta_p == math.pi / 6
    assert r3.theta_ideal == -math.pi / 6
    r2 = prime_record(2)
    assert r2.klass == PrimeClass.INERT and r2.pi is None and r2.theta_p == 0.0
    r7 = prime_record(7)
    assert r7.klass == PrimeClass.SPLIT


def test_ramified_prime_square():
    # 3 = w * pi3^2 with pi3 = 2 - w
    assert PI3 == EisensteinInt(2, -1)
    assert UNITS[1] * (PI3 * PI3) == EisensteinInt(3, 0)


def test_r_q_values():
    # 6 * prod(e_i + 1) over split primes when all inert exponents are even
    known = {1: 6, 2: 0, 3: 6, 4: 6, 5: 0, 6: 0, 7: 12, 9: 6, 12: 6,
             13: 12, 21: 12, 49: 18, 91: 24, 441: 18, 7983607: 48}
    for n, want in known.items():
        assert r_q(n) == want, n
    with pytest.raises(ValueError):
        r_q(0)


def test_r_q_against_bruteforce():
    for n in range(1, 400):
        assert r_q(n) == circle_points_bruteforce(n).count, n


def test_factor_eisenstein_recompose_range():
    for n in range(1, 300):
        f = factor_eisenstein(n)
        assert f.recompose() == EisensteinInt(n, 0)
        assert 0 <= f.unit_power < 6
        for rec, e1, e2 in f.split_factors:
            # a rational integer carries pi and conj(pi) in equal powers
            assert e1 == e2 >= 1
        for q, e in f.inert_factors:
            assert q % 3 == 2


def test_factor_eisenstein_441():
    f = factor_eisenstein(441)
    assert f.alpha3 == 4  # 3^2 contributes pi3^4
    assert f.unit_power == 2
    assert len(f.split_factors) == 1
    rec, e1, e2 = f.split_factors[0]
    assert rec.p == 7 and e1 == 2 and e2 == 2
    assert f.inert_factors == ()


def test_circle_points_small():
    pts = circle_points(12)
    assert pts.count == 6
    assert {(z.a, z.b) for z in pts.points} == {
        (-2, -2), (2, -4), (4, -2), (2, 2), (-2, 4), (-4, 2)
    }
    assert circle_points(2).count == 0
    assert circle_points(1).count == 6


def test_circle_points_sorted_by_angle():
    pts = circle_points(49)
    angs = [z.arg() for z in pts.points]
    assert angs == sorted(angs)


def test_circle_points_closed_under_units_and_conj():
    for n in (7, 12, 49, 91, 147):
        s = {(z.a, z.b) for z in circle_points(n).points}
        for ab in s:
            z = EisensteinInt(*ab)
            assert z.norm() == n
            zu = UNITS[1] * z
            assert (zu.a, zu.b) in s
            zc = eis_conj(z)
            assert (zc.a, zc.b) in s


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=150, deadline=None)
def test_circle_points_match_bruteforce(n):
    fast = {(z.a, z.b) for z in circle_points(n).points}
    slow = {(z.a, z.b) for z in circle_points_bruteforce(n).points}
    assert fast == slow
    assert len(fast) == r_q(n)


# (n, sha256 of repr([(a, b) for each point]) to 16 hex digits), frozen from
# the set-and-sort circle_points: 441, the bad circle 7983607, and one
# split-prime product of each size r_Q = 24..2916 of the benchmark patterns
_FROZEN_CIRCLES = (
    (441, "295e375ba092d751"), (7983607, "94b13fae98d8cf02"),
    (91, "2c3ea8c1e6147b46"), (106671, "3ad85565c952d436"), (2685159, "9284954914236cef"),
    (234886276, "301dfe7e5be30cdb"), (5243382325, "93f63de7727c9799"),
    (84630742141, "8d8f56745c7f37e9"), (242842583311, "aa61a5e2b1699e89"),
    (320932595958213, "ee52528ea8730a5c"), (2945606397980481, "bf841efdbe078e8a"),
    (9898526092, "a14048cf860390b9"), (121937725, "667bfc831e557641"),
    (17954733043621, "c55d9849ca8b5721"), (393698594662801, "49f693ec11d37418"),
    (22204773684945003, "ea53e51455ad6a53"), (69652981944503256573, "33fc0d1b86421039"),
    (41776415943309391453204, "e3f0e2fd02ed87df"), (11994653396339160717175, "5c266e54013f45f9"),
    (2118872868968172301055081450473, "10d374458a6a6004"),
    (145582627745249938924177028929, "5159b323b9de3800"), (349056666953642073153, "47b19f25d6840804"),
)


@pytest.mark.parametrize("n, digest", _FROZEN_CIRCLES, ids=[str(n) for n, _ in _FROZEN_CIRCLES])
def test_circle_points_frozen(n, digest):
    pts = [(z.a, z.b) for z in circle_points(n).points]
    assert hashlib.sha256(repr(pts).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("n", [1, 3, 4, 12, 49, 441, 7983607] + [n for n, _ in _FROZEN_CIRCLES[2:]])
def test_sector_points_are_one_orbit_each(n):
    sector = factor._sector_points(n)
    assert len(sector) == r_q(n) // 6
    assert all(in_fundamental_sector(EisensteinInt(a, b)) for a, b in sector)
    orbits = {u * EisensteinInt(a, b) for a, b in sector for u in UNITS}
    assert orbits == set(circle_points(n).points)
    assert len(orbits) == r_q(n)


def test_sector_points_of_empty_circles():
    for n in (2, 5, 6, 10, 2 * 49):
        assert factor._sector_points(n) == [] and circle_points(n).count == 0
    with pytest.raises(ValueError):
        factor._sector_points(0)


def _sector_table(x):
    """The bands of sector_bands(x) joined into (norms, angles)."""
    norms, angs = zip(*sector_bands(x))
    return np.concatenate(norms), np.concatenate(angs)


def test_lattice_enumeration_against_pointwise():
    norms, angs = _sector_table(200)
    # one sector point per associate class: six times the multiset of
    # norms must reproduce r_q circle by circle
    counts = np.bincount(norms, minlength=201)
    for n in range(1, 201):
        assert 6 * counts[n] == r_q(n), n
    assert np.all(np.diff(norms) >= 0)
    assert angs.min() >= -math.pi / 6 and angs.max() < math.pi / 6


def test_lattice_blocks_concatenate_to_full_enumeration():
    # a half-sector point stands for 2 - [b = 0] - [a = b] sector points
    a, b, n = (np.concatenate(arrs) for arrs in zip(*iter_lattice_blocks(5000)))
    w = 2 - (b == 0) - (a == b)
    got = np.bincount(n, weights=w, minlength=5001)
    want = np.bincount(_sector_table(5000)[0], minlength=5001)
    assert np.array_equal(got, want)


B = factor._BAND_NORMS  # band width of iter_lattice_blocks, in norms


def _row_scan(x, half=False):
    """The sector points to norm x as (a, b), one row at a time with
    exact integer roots: the fundamental sector arg in [-pi/6, pi/6), or
    with half=True the half sector a >= b >= 0 of the banded enumerator."""
    rows = [np.empty((0, 2), dtype=np.int64)]
    bmax = math.isqrt(x // 3)
    for b in range(0 if half else -bmax, bmax + 1):
        lo = max(b, 1) if half else max(b + 1, -2 * b)
        hi = (math.isqrt(4 * x - 3 * b * b) - b) // 2
        a = np.arange(lo, hi + 1, dtype=np.int64)
        rows.append(np.stack([a, np.full_like(a, b)], axis=1))
    return np.concatenate(rows)


def _by_point(ab):
    return ab[np.lexsort((ab[:, 1], ab[:, 0]))]


ROW_SCAN_X = [1, 2, 3, B - 1, B, B + 1, 2 * B + 1, 2_000_003]


@pytest.mark.parametrize("x", ROW_SCAN_X)
def test_lattice_blocks_match_a_row_scan(x):
    blocks = list(iter_lattice_blocks(x))
    a, b, n = (np.concatenate([blk[i] for blk in blocks]) for i in range(3))
    assert np.array_equal(n, a * a + a * b + b * b)
    got = np.stack([a, b], axis=1)
    assert np.array_equal(_by_point(got), _by_point(_row_scan(x, half=True)))


@pytest.mark.parametrize("x", ROW_SCAN_X)
def test_lattice_table_is_the_sorted_full_sector(x):
    # the sector bands rebuilt from the half sector, joined, are the
    # fundamental-sector row scan sorted by (norm, angle), bit for bit
    a, b = _row_scan(x).T
    n, t = a * a + a * b + b * b, factor.sector_angles(a, b)
    order = np.lexsort((t, n))
    norms, angs = _sector_table(x)
    assert np.array_equal(norms, n[order]) and np.array_equal(angs, t[order])


def test_circle_sums_match_the_full_sector():
    # the half sector with weights 2 - [b = 0] - [a = b] gives 6 * the sum
    # of cos(A theta) over the fundamental sector: checked at the norms
    # k^2 (a point at theta = 0), 3k^2 (points on the rays) and around
    # the band edges
    x = 2 * B + 40
    a, b = _row_scan(x).T
    n, t = a * a + a * b + b * b, factor.sector_angles(a, b)
    norms = {k * k for k in range(1, math.isqrt(x) + 1)} | {3 * k * k for k in range(1, math.isqrt(x // 3) + 1)}
    idx = np.array(sorted(norms | {*range(B - 40, B + 41), *range(2 * B - 40, x + 1)}))
    for A in (6, 12, 48):
        got = circle_sums(x, A)[0][idx]
        want = 6.0 * np.bincount(n, weights=np.cos(A * t), minlength=x + 1)[idx]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), A


def test_lattice_blocks_are_disjoint_increasing_norm_bands():
    x = 2_000_003
    blocks = list(iter_lattice_blocks(x))
    assert len(blocks) == -(-x // B)  # no band up to x is empty
    for k, (_, _, n) in enumerate(blocks):
        assert k * B < n.min() and n.max() <= min((k + 1) * B, x)
    for (_, _, n1), (_, _, n2) in zip(blocks, blocks[1:]):
        assert n1.max() < n2.min()


def test_row_ends_exact_where_the_discriminant_is_a_square():
    # 4v - 3b^2 = k^2 - j for j = 0..8: a perfect square, one less than
    # one, and the near misses that a float root rounds across k once
    # 4v passes 2^53 (there the float of k^2 - 1 is k^2).  The
    # discriminant is b^2 mod 4, so each d is met by the rows of b's parity.
    cases = []
    for k in (1, 2, 3, 1000, 2**26 - 1, 2**26, 2**26 + 1, 10**8 - 7, 3 * 10**8 + 1, 3 * 10**8 + 2):
        for d in (k * k - j for j in range(9) if j <= k * k):
            cases += [(b, (d + 3 * b * b) // 4) for b in range(-3, 4) if (d - b * b) % 4 == 0]
    assert len(cases) >= 150
    for b, v in cases:
        want = (math.isqrt(4 * v - 3 * b * b) - b) // 2
        assert int(factor._row_ends(np.array([b], dtype=np.int64), v)[0]) == want, (b, v)
    # every row of one band edge at once
    v = 2 * B
    bs = np.arange(-math.isqrt(v // 3), math.isqrt(v // 3) + 1, dtype=np.int64)
    want = [(math.isqrt(4 * v - 3 * b * b) - b) // 2 for b in bs.tolist()]
    assert factor._row_ends(bs, v).tolist() == want


def test_gauss_circle_constant():
    # point count to norm x grows like (2 pi / sqrt 3) x; the sector holds
    # one point in six
    x = 200000
    count = 6 * _sector_table(x)[0].size
    kappa = 2 * math.pi / math.sqrt(3)
    assert abs(count / (kappa * x) - 1.0) < 0.02


def test_split_prime_angles_bulk_matches_records():
    ps, ts = split_prime_angles(3000)
    assert len(ps) == len(ts)
    expected = [p for p in map(int, primes_up_to(3000)) if p % 3 == 1]
    assert list(ps) == expected
    for p, t in zip(ps[:50], ts[:50]):
        # vectorized arctan2 may differ from the scalar libm by an ulp
        assert abs(t - split_prime_generator(int(p)).theta_p) < 1e-15


@pytest.mark.parametrize("x, count, theta_sum, p_sum", [
    (10**6, 39231, "0x1.419ff3b893d9fp+13", 18788600805),
    (10**7, 332194, "0x1.53e152088e52cp+16", 1601524436272),
    (10**8, 2880517, "0x1.70434da83858ep+19", 139605501398881),
])
def test_split_prime_angles_frozen_bits(x, count, theta_sum, p_sum):
    # frozen bits: a change to the sieve or the angle formula must keep them
    ps, ts = split_prime_angles(x)
    assert len(ps) == count and int(ps.sum()) == p_sum
    assert float.hex(float(ts.sum())) == theta_sum


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


@pytest.mark.xfail(strict=True, reason="strong pseudoprime to bases 2..37; is_prime accepts it")
def test_is_prime_rejects_psi12():
    assert is_prime(PSI_12) is False


@pytest.mark.xfail(strict=True, reason="strong pseudoprime to bases 2..37; is_prime accepts it")
def test_is_prime_rejects_psi13():
    assert is_prime(PSI_13) is False


@pytest.mark.parametrize("psi", [PSI_12, PSI_13])
def test_split_prime_generator_rejects_psi12_and_psi13(capsys, psi):
    # is_prime accepts both (the strict xfails above); the cube-root step is a Fermat test they fail
    start = time.perf_counter()
    for f in (split_prime_generator, factor_eisenstein, circle_points):
        with pytest.raises(ValueError, match="not prime"):
            f(psi)
    assert time.perf_counter() - start < 1.0
    for command in ("factor", "points"):
        assert cli.run([command, str(psi)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not prime" in captured.err and captured.out == ""


def test_table_cache_slices_to_a_fresh_build(monkeypatch):
    monkeypatch.setattr(factor, "_split_primes", None)
    split_prime_angles(20000)
    sliced = split_prime_angles(3001)  # a split prime, so the slice must include its own norm
    assert factor._split_primes[0] == 20000  # 3001 was served from the 20000 table
    monkeypatch.setattr(factor, "_split_primes", None)
    fresh = split_prime_angles(3001)
    assert all(np.array_equal(got, want) for got, want in zip(sliced, fresh))


def test_table_cache_keeps_table_above_the_cap(monkeypatch):
    monkeypatch.setattr(factor, "_split_primes", None)
    kept = split_prime_angles(5000)
    ps, _ = split_prime_angles(factor._CACHE_MAX + 1)
    assert int(ps[-1]) <= factor._CACHE_MAX + 1 and ps.size > kept[0].size
    x, cp, ct = factor._split_primes
    assert x == 5000 and cp is kept[0] and ct is kept[1]
