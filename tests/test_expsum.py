"""Exponential sums: vanishing, the product form, multiplicativity, decay."""

import math
import tracemalloc

import numpy as np
import pytest
from bruteforce import checkpoint_means_by_table, katai_bound_diag
from hypothesis import given, settings, strategies as st

from eisen import factor
from eisen.expsum import (
    avg_exp_sum,
    circle_sums,
    exp_sum,
    exp_sum_product,
    f_A,
)
from eisen.factor import r_q, split_prime_generator


def test_known_values():
    # the six points of norm 3 sit at angles pi/6 + k pi/3, so e^{6i arg} = -1
    v3 = exp_sum(3, 6).value
    assert abs(v3 - (-6)) < 1e-12
    # norm 4 points sit at angles k pi/3
    v4 = exp_sum(4, 6).value
    assert abs(v4 - 6) < 1e-12
    assert abs(exp_sum(12, 6).value - (-6)) < 1e-12  # 12 = 3 * 2^2


def test_vanishing_when_six_does_not_divide():
    for n in (1, 3, 4, 7, 12, 49, 91, 441):
        for A in (1, 2, 3, 4, 5, 7, -1, -4):
            v = exp_sum(n, A).value
            assert abs(v) < 1e-9 * (1 + r_q(n)), (n, A)
            assert exp_sum_product(n, A) == 0j


def test_a_zero_rejected():
    with pytest.raises(ValueError):
        exp_sum(5, 0)
    with pytest.raises(ValueError):
        exp_sum_product(5, 0)
    with pytest.raises(ValueError):
        f_A(5, 0)
    with pytest.raises(ValueError):
        f_A(5, 4)


@given(st.integers(min_value=1, max_value=2000), st.sampled_from([6, 12, 18, -6]))
@settings(max_examples=200, deadline=None)
def test_product_form_matches_direct_sum(n, A):
    direct = exp_sum(n, A).value
    product = exp_sum_product(n, A)
    assert abs(direct - product) < 1e-9 * (1 + r_q(n))
    assert abs(product.imag) == 0.0  # the product form is real by construction


def test_exp_sum_is_real_up_to_rounding():
    for n in (7, 13, 49, 91, 441, 1729):
        for A in (6, 12):
            assert abs(exp_sum(n, A).value.imag) < 1e-10


def test_conjugate_symmetry():
    for n in (7, 21, 91, 441):
        for A in (6, 12):
            assert abs(exp_sum(n, A).value - exp_sum(n, -A).value.conjugate()) < 1e-10


def test_f_A_multiplicative_sample():
    for A in (6, 12):
        for m, n in ((7, 13), (4, 7), (3, 49), (12, 91), (25, 49)):
            assert math.gcd(m, n) == 1
            assert abs(f_A(m * n, A) - f_A(m, A) * f_A(n, A)) < 1e-9


def test_f_A_prime_values():
    # at a split prime, f(p) = 2|cos(6a theta_p)| and f(p^e) <= e + 1
    for p in (7, 13, 19, 31):
        th = split_prime_generator(p).theta_p
        assert abs(f_A(p, 6) - 2 * abs(math.cos(6 * th))) < 1e-12
        for e in (2, 3, 4):
            assert f_A(p**e, 6) <= e + 1 + 1e-12
    assert f_A(3, 6) == 1.0
    assert f_A(2, 6) == 0.0  # odd inert exponent kills the circle
    assert f_A(4, 6) == 1.0


def test_circle_sums_match_pointwise():
    s_re, s_im = circle_sums(300, 6)
    for n in range(1, 301):
        v = exp_sum(n, 6).value
        assert abs(complex(s_re[n], s_im[n]) - v) < 1e-9, n
    # across the enumerator's band edges, where each band fills its own slice
    B = factor._BAND_NORMS
    s_re, s_im = circle_sums(2 * B + 40, 12)
    for n in [*range(B - 40, B + 41), *range(2 * B - 40, 2 * B + 41)]:
        v = exp_sum(n, 12).value
        assert abs(complex(s_re[n], s_im[n]) - v) < 1e-9, n


def test_circle_sums_thread_determinism():
    a_re, a_im = circle_sums(20000, 12, threads=1)
    b_re, b_im = circle_sums(20000, 12, threads=4)
    assert np.array_equal(a_re, b_re)
    assert np.array_equal(a_im, b_im)


def test_circle_sums_vanish_and_are_real():
    for A in (1, 5, 7, 9):
        s_re, s_im = circle_sums(5000, A)
        assert not s_re.any() and not s_im.any()
    for A in (0, 6, 12):
        s_re, s_im = circle_sums(5000, A)
        assert not s_im.any()
        assert s_re.any()


def test_avg_exp_sum_checkpoints_and_slope():
    rep = avg_exp_sum(10**5, 6, checkpoints=[10**3, 10**4, 10**5])
    means = [m for _, m in rep.checkpoints]
    assert means[0] > means[1] > means[2] > 0
    assert rep.fitted_exponent < -0.25
    # values pinned from the exact bucket sums (regression guard)
    assert abs(means[0] - 1.7874311963457937) < 1e-9
    assert abs(means[2] - 1.4597324563613931) < 1e-9


def test_avg_exp_sum_means_on_band_seams_are_the_table_means():
    # checkpoints one norm below, at and past the end of each of the first
    # three bands, where a segment between checkpoints is split over bands
    B = factor._BAND_NORMS
    cps = [1, 2, 1000, *(k * B + d for k in (1, 2, 3) for d in (-1, 0, 1))]
    for A in (6, 12, -18):
        rep = avg_exp_sum(cps[-1], A, checkpoints=cps)
        want = checkpoint_means_by_table(A, cps)
        assert [(cp, m.hex()) for cp, m in rep.checkpoints] == [(cp, m.hex()) for cp, m in want], A


def test_avg_exp_sum_holds_one_band_at_a_time():
    # traced 7.5 MB: one band's weighted cosine sums; the two x + 1 arrays
    # of circle_sums it replaces took 32 MB (36.3 MB traced)
    tracemalloc.start()
    try:
        avg_exp_sum(2 * 10**6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_avg_exp_sum_nondivisible_A_is_exactly_zero():
    rep = avg_exp_sum(5000, 1, checkpoints=[1000, 5000])
    assert all(m == 0.0 for _, m in rep.checkpoints)
    assert math.isnan(rep.fitted_exponent)


def test_avg_exp_sum_validation():
    with pytest.raises(ValueError):
        avg_exp_sum(10**8, 6)
    with pytest.raises(ValueError):
        avg_exp_sum(1000, 0)
    with pytest.raises(ValueError):
        avg_exp_sum(1000, 6, checkpoints=[10, 2000])
    with pytest.raises(ValueError):
        avg_exp_sum(1000, 6, checkpoints=[])


def test_katai_diagnostic_bounded():
    prev = None
    for x in (10**3, 10**4, 10**5):
        lhs, rhs = katai_bound_diag(x, 6)
        ratio = lhs / rhs
        assert lhs <= rhs
        assert 0.5 < ratio < 1.0
        if prev is not None:
            assert abs(ratio - prev) < 0.05  # ratio drifts slowly, stays of bounded order
        prev = ratio
    with pytest.raises(ValueError):
        katai_bound_diag(8, 6)
    with pytest.raises(ValueError):
        katai_bound_diag(1000, 5)
