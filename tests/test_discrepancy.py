"""Circle discrepancy: exact sweep, Erdos-Turan bound, census, survey."""

import math
import os
import subprocess
import sys
import tracemalloc

from pathlib import Path

import numpy as np
import pytest
from bruteforce import representable_sieve
from hypothesis import given, settings, strategies as st

from eisen import discrepancy, factor
from eisen.discrepancy import (
    GAMMA_MAX,
    b_q,
    discrepancy_exact,
    discrepancy_random_lower_bound,
    discrepancy_survey,
    erdos_turan_bound,
)
from eisen.factor import circle_points, r_q

TWO_PI = 2.0 * math.pi


def _reference_delta(angles):
    """Literal transcription of sup G - inf G, pure Python, O(N^2).

    G(t) = #{phi_j < t}/N - t/(2 pi); the sup uses right limits at the
    jumps, the inf left limits, and the boundary value G(0) = 0 joins
    both candidate sets.
    """
    phis = sorted(a % TWO_PI for a in angles)
    n = len(phis)
    sup_g = 0.0
    inf_g = 0.0
    for t in phis:
        less = sum(1 for p in phis if p < t)
        leq = sum(1 for p in phis if p <= t)
        sup_g = max(sup_g, leq / n - t / TWO_PI)
        inf_g = min(inf_g, less / n - t / TWO_PI)
    return sup_g - inf_g


def _circle_angles(n):
    return [z.arg() for z in circle_points(n).points]


def test_unit_circle_delta_is_one_sixth():
    r = discrepancy_exact(1)
    assert r.count == 6
    # six equally spaced points: an arbitrarily short arc around any one
    # of them errs by 1/6.  atan2 rounding keeps this from being bitwise
    # exact, but it lands within an ulp.
    assert abs(r.delta - 1.0 / 6.0) < 1e-15


def test_equally_spaced_circles():
    for n in (3, 4):
        assert abs(discrepancy_exact(n).delta - 1.0 / 6.0) < 1e-15


def test_empty_circle_rejected():
    for n in (2, 5, 6, 10):
        with pytest.raises(ValueError):
            discrepancy_exact(n)


# split-prime products with r_Q = 24..324 (7983607: the bad circle, 48 points)
_PRODUCTS = (91, 106671, 2685159, 234886276, 5243382325, 84630742141, 242842583311,
             9898526092, 121937725, 17954733043621, 7983607)


def test_sweep_matches_reference():
    # the sector sweep against the full-circle sup - inf, to roundoff
    for n in (1, 3, 4, 7, 12, 49, 91, 441, 1729, 7747) + _PRODUCTS:
        want = _reference_delta(_circle_angles(n))
        assert abs(discrepancy_exact(n).delta - want) <= 1e-15, n


def test_witness_arc_errs_by_delta():
    # both ends are angles of points of the circle, in [0, pi/3); the arc
    # between them, closed or open, errs by delta
    for n in (1, 3, 4, 7, 12, 49, 441, 1729, 7747) + _PRODUCTS:
        r = discrepancy_exact(n)
        lo, hi = r.witness
        angles = [a % TWO_PI for a in _circle_angles(n)]
        assert lo in angles and hi in angles, n
        assert 0.0 <= lo <= hi < math.pi / 3.0
        closed = sum(1 for a in angles if lo <= a <= hi)
        inner = sum(1 for a in angles if lo < a < hi)
        length = (hi - lo) / TWO_PI
        err = max(abs(closed / r.count - length), abs(inner / r.count - length))
        assert abs(err - r.delta) <= 1e-12, n


def test_erdos_turan_matches_the_sum_over_every_k():
    # the moments k not divisible by 6 vanish, and the six copies of a
    # sector point add equal terms to the others
    for n in (1, 7, 441, 7747) + _PRODUCTS:
        phis = np.array(_circle_angles(n))
        for T in (1, 6, 7, 37, 60):
            every = 1.0 / T + sum(abs(np.exp(1j * k * phis).mean()) / k for k in range(1, T + 1))
            assert erdos_turan_bound(n, T) == pytest.approx(4.0 * every, rel=1e-13, abs=0), (n, T)


def test_rotation_invariance():
    # the angle origin is arbitrary: G changes by a constant plus a
    # shift, so sup G - inf G is unchanged under any rotation
    for n in (7, 49, 441):
        base = discrepancy_exact(n).delta
        for rot in (0.37, 1.9, math.pi / 3.0):
            rotated = [(a + rot) % TWO_PI for a in _circle_angles(n)]
            assert _reference_delta(rotated) == pytest.approx(base, abs=1e-12)


def test_witness_and_range():
    for n in (1, 7, 441, 7747):
        r = discrepancy_exact(n)
        lo, hi = r.witness
        assert 0.0 <= lo <= hi < TWO_PI
        assert 0.0 < r.delta <= 1.0
        assert r.delta >= 1.0 / (2.0 * r.count)  # clustering floor from 6-fold symmetry
        assert r.count == r_q(n)


def test_random_arcs_never_beat_exact():
    for n in (7, 91, 441):
        exact = discrepancy_exact(n).delta
        rand = discrepancy_random_lower_bound(n, arcs=5000, seed=3)
        assert rand <= exact + 1e-12
        assert rand > 0.5 * exact  # 5000 arcs get close on these small circles


def test_random_arcs_seeded():
    a = discrepancy_random_lower_bound(91, arcs=1000, seed=7)
    b = discrepancy_random_lower_bound(91, arcs=1000, seed=7)
    assert a == b
    with pytest.raises(ValueError, match="arcs >= 1"):
        discrepancy_random_lower_bound(91, arcs=0)
    with pytest.raises(ValueError, match="arcs <= 1000000"):
        discrepancy_random_lower_bound(91, arcs=10**6 + 1)


def test_bad_circle_discrepancy_frozen():
    # 7983607 = 157 * 211 * 241: all 48 points within pi/12 of the six
    # unit directions.  Delta(n) <= 1/6 for any unit-closed set (G has
    # period pi/3), and this clustered circle gets close to the ceiling.
    delta = discrepancy_exact(7983607).delta
    assert delta == pytest.approx(0.10789357967549162, abs=1e-12)
    assert delta > 48 ** (-GAMMA_MAX)
    assert delta < 1.0 / 6.0


def test_erdos_turan_unit_circle():
    # T = 6: only the k = 6 moment survives, |Z_6| = 1, bound = 4(1/6 + 1/6)
    assert erdos_turan_bound(1, 6) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert erdos_turan_bound(1, 6, C=1.5) == pytest.approx(0.5, abs=1e-12)


def test_erdos_turan_dominates_exact():
    for n in (1, 7, 441, 7747):
        t = math.ceil(math.log(n)) + 1
        assert erdos_turan_bound(n, t) >= discrepancy_exact(n).delta
    assert erdos_turan_bound(441, 50) >= discrepancy_exact(441).delta


def test_erdos_turan_validation():
    with pytest.raises(ValueError):
        erdos_turan_bound(1, 0)
    with pytest.raises(ValueError):
        erdos_turan_bound(1, 6, C=0.0)
    with pytest.raises(ValueError):
        erdos_turan_bound(2, 6)


def test_discrepancy_chain_on_every_rich_circle_below_2e5():
    # random arcs <= exact sweep <= Erdos-Turan with Montgomery's proven C = 3,
    # on every circle n < 2e5 with r_Q(n) >= 60
    n, m, _ = discrepancy._survey_circles(2 * 10**5 - 1)
    rich = n[m >= 10].tolist()
    assert len(rich) == 187
    for k in rich:
        delta = discrepancy_exact(k).delta
        assert discrepancy_random_lower_bound(k) <= delta, k
        for T in (6, 30, 120):
            assert delta <= erdos_turan_bound(k, T, C=3.0), (k, T)


def test_representable_sieve_matches_r_q():
    ok = representable_sieve(500)
    assert not ok[0]
    for n in range(1, 501):
        assert bool(ok[n]) == (r_q(n) > 0), n


def test_census_counts():
    assert b_q(1) == 1
    assert b_q(12) == 6  # 1, 3, 4, 7, 9, 12
    assert b_q(500) == int(np.count_nonzero(representable_sieve(500)))
    with pytest.raises(ValueError):
        b_q(10**7 + 1)
    with pytest.raises(ValueError):
        b_q(0)


def test_b_q_holds_one_band_at_a_time():
    # traced 3.3 MB: one band's blocks and its table of marks; the x + 1
    # table of bools it replaces took 10 MB alone (11.6 MB traced)
    tracemalloc.start()
    try:
        b_q(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_b_q_on_band_seams():
    # x from six norms below to six past the end of each of the first three
    # bands, the populated norms among them included
    B = factor._BAND_NORMS
    below = np.cumsum(representable_sieve(3 * B + 6))
    for x in (k * B + d for k in (1, 2, 3) for d in range(-6, 7)):
        assert b_q(x) == below[x], x


def test_census_frozen_powers_of_ten():
    # frozen from the full-length XOR parity sieve, one pass per prime power
    frozen = [5, 36, 277, 2299, 20091, 180874, 1659711]
    assert [b_q(10**k) for k in range(1, 8)] == frozen


_POPULATED = np.array([False] + [r_q(n) > 0 for n in range(1, 3001)])


def test_representable_sieve_on_power_boundaries():
    # x just below, at and just past q^2 and q^3, where the power loop
    # and the split between small and large inert primes move
    for q in (2, 5, 11):
        for x in (q * q - 1, q * q, q**3, q**3 + 1):
            ok = representable_sieve(x)
            assert ok.shape == (x + 1,)
            assert np.array_equal(ok, _POPULATED[: x + 1]), (q, x)
            assert b_q(x) == int(np.count_nonzero(ok)), (q, x)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_representable_sieve_prefix_of_r_q(x):
    ok = representable_sieve(x)
    assert np.array_equal(ok, _POPULATED[: x + 1])
    assert b_q(x) == int(np.count_nonzero(ok))


def test_survey_against_direct_count():
    x = 20000
    ok = representable_sieve(x)
    exact = [discrepancy_exact(n) for n in range(1, x + 1) if ok[n]]
    for gamma in (0.5, 0.6, 0.64, 0.65):
        rep = discrepancy_survey(x, gamma)
        assert rep.b_q == b_q(x) == len(exact)
        direct = sum(1 for r in exact if r.delta > r.count ** (-gamma))
        assert rep.m_gamma == direct, gamma
        assert rep.fraction == pytest.approx(direct / rep.b_q)
        if gamma == 0.65:
            assert direct == 11


@pytest.mark.parametrize(
    "x, frozen",
    [(433_583, (81_253, [0, 36, 740, 1_111])), (10**6, (180_874, [0, 173, 2_129, 3_083]))],
    ids=["2B+1", "1e6"],
)
def test_survey_across_bands(x, frozen):
    # x = 2B + 1 and 1e6 cross two and four band edges of the sector
    # enumerator (B = 216,791 norms); frozen from the one-table sweep
    reps = [discrepancy_survey(x, gamma) for gamma in (0.5, 0.6, 0.64, 0.65)]
    assert all(rep.b_q == b_q(x) for rep in reps)
    assert (reps[0].b_q, [rep.m_gamma for rep in reps]) == frozen


def test_survey_holds_one_band_at_a_time():
    # the whole sector to 1e6 (about 605,000 points) traced 41 MB; the
    # sweep runs, not a lookup of the kept circle table
    discrepancy._survey_circles.cache_clear()
    tracemalloc.start()
    try:
        discrepancy_survey(10**6, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_survey_thread_determinism():
    a = discrepancy_survey(30000, 0.65, threads=1)
    b = discrepancy_survey(30000, 0.65, threads=4)
    assert a == b


def test_survey_validation():
    with pytest.raises(ValueError):
        discrepancy_survey(0, 0.5)
    with pytest.raises(ValueError):
        discrepancy_survey(10**6 + 1, 0.5)
    with pytest.raises(ValueError):
        discrepancy_survey(1000, 0.0)
    for gamma in (0.7, GAMMA_MAX):
        with pytest.raises(ValueError) as exc:
            discrepancy_survey(1000, gamma)
        assert "0.6515" in str(exc.value)  # the message names the threshold
    with pytest.raises(ValueError):
        discrepancy_survey(1000, 0.5, threads=0)


def test_survey_table_matches_the_exact_sweep():
    n, m, delta = discrepancy._survey_circles(3000)
    assert n.tolist() == [k for k in range(1, 3001) if r_q(k)]
    assert not (n.flags.writeable or m.flags.writeable or delta.flags.writeable)
    for k, mk, dk in zip(n.tolist(), m.tolist(), delta.tolist()):
        exact = discrepancy_exact(k)
        assert exact.count == 6 * mk
        assert dk == pytest.approx(exact.delta, abs=1e-15)


def test_gamma_scan_reuses_the_table_and_matches_fresh_processes():
    gammas = (0.5, 0.6, 0.64, 0.65)
    discrepancy._survey_circles.cache_clear()
    scan = [discrepancy_survey(30000, g) for g in gammas]
    info = discrepancy._survey_circles.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(discrepancy.__file__).parents[1]),
                                                                   os.environ.get("PYTHONPATH")])))
    for g, rep in zip(gammas, scan):
        code = f"from eisen.discrepancy import discrepancy_survey; print(repr(discrepancy_survey(30000, {g!r})))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == repr(rep), g
    assert repr(scan[-1]).startswith("SurveyReport(x=30000, gamma=0.65, b_q=")
