import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelnum import TruncatedSeries, qa_distance, qa_norm
from siegelnum.errors import PreconditionError, UnreliableRadiusError
from siegelnum.qanorm import TAIL_TOL
from siegelnum.series import identity


def test_hand_value_identity_at_half():
    res = qa_norm(identity(16), 0.5)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.k_at_max == 0


def test_hand_value_w_squared_at_one():
    w2 = TruncatedSeries.from_coeffs([0, 0, 1], degree=16)
    res = qa_norm(w2, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_geometric_series_true_sup():
    # radius-2 geometric: sup |g| on |w| = 1 is 1/(1 - 1/2) = 2, and the
    # omitted tail is provably negligible, so the norm may not refuse
    g = TruncatedSeries.from_coeffs([2.0 ** (-k) for k in range(257)])
    res = qa_norm(g, 1.0)
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.tail_bound <= TAIL_TOL


def test_refuses_radius_near_coefficient_divergence():
    g = TruncatedSeries.from_coeffs([2.0 ** (-k) for k in range(257)])
    with pytest.raises(UnreliableRadiusError):
        qa_norm(g, 1.9)


def test_polynomial_tail_is_exactly_zero():
    p = TruncatedSeries.from_coeffs([0, 1, 0.5], degree=64)
    res = qa_norm(p, 0.7)
    assert res.tail_bound == 0.0


def test_underflowing_tail_head_raises_no_warning():
    # c_m r^m underflows to 0 above m ~ 230 at r = 0.04; the tail head is
    # taken as log|c_m| + m log r, so no log(0) is ever evaluated
    g = TruncatedSeries.from_coeffs(np.r_[0, np.ones(256)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = qa_norm(g, 0.04, order_cap=1)
    # k = 1 dominates: sup |g'| = 1/(1 - r)^2 at w = r, weighted by 3 ln 3
    assert res.value == pytest.approx(1.0 / (0.96**2 * 3.0 * math.log(3.0)), rel=1e-12)
    assert (res.k_at_max, res.sample_at_max) == (1, 0)
    assert res.tail_ratio == pytest.approx(0.04, rel=1e-15)
    assert res.tail_bound <= TAIL_TOL


def test_norm_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        qa_norm(identity(8), -1.0)
    with pytest.raises(PreconditionError):
        qa_norm(identity(8), 0.5, circle_samples=4)
    with pytest.raises(PreconditionError):
        qa_norm(identity(8), 0.5, order_cap=99)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
def test_norm_radius_must_be_positive_and_finite(r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="positive and finite"):
            qa_norm(identity(8), r)


def test_refused_radius_warns_nothing():
    # r^m overflows binary64 from m = 2 at r = 1e300; the decay gate refuses
    # the radius before any coefficient is scaled by it
    g = TruncatedSeries.from_coeffs([2.0 ** (-k) for k in range(257)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnreliableRadiusError, match="do not decay"):
            qa_norm(g, 1e300)


def test_padded_polynomial_at_a_large_radius():
    # r^m overflows from m = 31 at r = 1e10, but only c_0..c_2 are scaled:
    # sup |w + w^2/2| = 1e10 + 5e19 at w = r, and |1 + w| / (3 ln 3) below it
    p = TruncatedSeries.from_coeffs([0, 1, 0.5], degree=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = qa_norm(p, 1e10, order_cap=1)
    assert res.value == pytest.approx(1e10 + 5e19, rel=1e-12)
    assert res.term_values[1] == pytest.approx((1.0 + 1e10) / (3.0 * math.log(3.0)), rel=1e-12)
    assert (res.k_at_max, res.sample_at_max, res.tail_bound) == (0, 0, 0.0)


def test_overflowing_circle_value_is_typed():
    # |w^64| = 1e640 on |w| = 1e10 is beyond binary64: refused, not a number
    p = TruncatedSeries.from_coeffs([0, 1] + [0] * 62 + [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnreliableRadiusError, match="overflows binary64"):
            qa_norm(p, 1e10, order_cap=1)


def test_result_is_deterministic():
    g = TruncatedSeries.from_coeffs(np.exp(2j * np.arange(20)) / (1.0 + np.arange(20)))
    a = qa_norm(g, 0.4)
    b = qa_norm(g, 0.4)
    assert a == b
    assert a.k_at_max <= a.order_cap
    assert len(a.term_values) == a.order_cap + 1


def test_short_series_cannot_certify_its_tail():
    # a bare degree-3 series might be a truncation of anything; the gate
    # refuses, and explicit zero padding is how a polynomial says so
    g = TruncatedSeries.from_coeffs([0, 1, 0.3, 0.1])
    with pytest.raises(UnreliableRadiusError):
        qa_norm(g, 0.5, order_cap=3)
    a = qa_norm(g.padded(40), 0.5, order_cap=3)
    b = qa_norm(g.padded(80), 0.5, order_cap=3)
    assert a.value == b.value


def test_distance_axioms_basic():
    a = TruncatedSeries.from_coeffs([0, 1, 0.2], degree=16)
    b = TruncatedSeries.from_coeffs([0, 1, -0.1, 0.05], degree=16)
    assert qa_distance(a, a, 0.5).value == 0.0
    assert qa_distance(a, b, 0.5).value == pytest.approx(
        qa_distance(b, a, 0.5).value, rel=1e-12
    )


coeff = st.complex_numbers(
    min_magnitude=0.5, max_magnitude=1.5, allow_nan=False, allow_infinity=False
)
series_strategy = st.lists(coeff, min_size=16, max_size=32).map(
    lambda cs: TruncatedSeries.from_coeffs(np.asarray(cs, dtype=complex))
)


@settings(max_examples=60, deadline=None)
@given(series_strategy, st.floats(min_value=0.1, max_value=3.0))
def test_homogeneity(g, scale):
    try:
        base = qa_norm(g, 0.25, order_cap=8)
        scaled = qa_norm(g * complex(scale), 0.25, order_cap=8)
    except UnreliableRadiusError:
        assume(False)
    assert scaled.value == pytest.approx(scale * base.value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_triangle_inequality(a, b):
    try:
        na = qa_norm(a, 0.25, order_cap=8).value
        nb = qa_norm(b, 0.25, order_cap=8).value
        nab = qa_norm(a + b, 0.25, order_cap=8).value
    except UnreliableRadiusError:
        assume(False)
    assert nab <= na + nb + 1e-12 * (na + nb)


@settings(max_examples=40, deadline=None)
@given(series_strategy)
def test_positivity(g):
    try:
        res = qa_norm(g, 0.25, order_cap=8)
    except UnreliableRadiusError:
        assume(False)
    assert res.value > 0.0
    assert math.isfinite(res.value)
