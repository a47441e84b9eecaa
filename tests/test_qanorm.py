import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelnum import TruncatedSeries, qa_norm, qanorm
from siegelnum.errors import PreconditionError, UnreliableRadiusError
from siegelnum.qanorm import (
    TAIL_TOL,
    NormResult,
    _log_tail_sum,
    _tail_ratio,
    _weights,
    circle_values,
)
from siegelnum.series import evaluate


def test_hand_value_identity_at_half():
    res = qa_norm(TruncatedSeries.from_coeffs([0, 1], degree=16), 0.5)
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
        qa_norm(TruncatedSeries.from_coeffs([0, 1], degree=8), -1.0)
    with pytest.raises(PreconditionError):
        qa_norm(TruncatedSeries.from_coeffs([0, 1], degree=8), 0.5, circle_samples=4)
    with pytest.raises(PreconditionError):
        qa_norm(TruncatedSeries.from_coeffs([0, 1], degree=8), 0.5, order_cap=99)


@pytest.mark.parametrize(
    "g, order_cap, match",
    [(TruncatedSeries.from_coeffs([0.5]), None, "at least degree 1"),
     # ((k + 2) ln(k + 2))^k passes binary64 at k = 113
     (TruncatedSeries.from_coeffs([0, 1], degree=160), 160, "too large for float weights")],
    ids=["degree-0", "order-cap-160"],
)
def test_norm_rejects_what_it_cannot_weigh(monkeypatch, g, order_cap, match):
    # refused in the precondition block, before any circle is evaluated
    calls = []
    monkeypatch.setattr(qanorm, "circle_values", lambda *args, **kw: calls.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=match):
            qa_norm(g, 0.5, order_cap=order_cap)
    assert calls == []


@pytest.mark.parametrize("samples", [0, -3])
def test_circle_values_needs_a_sample(samples):
    with pytest.raises(PreconditionError, match="samples must be >= 1"):
        circle_values(TruncatedSeries.from_coeffs([0, 1], degree=8).coeffs, 0.5, samples)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
def test_norm_radius_must_be_positive_and_finite(r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="positive and finite"):
            qa_norm(TruncatedSeries.from_coeffs([0, 1], degree=8), r)


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


def test_term_past_an_overflowing_power_is_kept():
    # r^40 = 1e400 overflows binary64 on its own, but the w^40 term is
    # 1e-300 * 1e400 = 1e100 on |w| = 1e10, which the norm must report
    g = TruncatedSeries.from_coeffs([0, 1] + [0] * 38 + [1e-300], degree=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = qa_norm(g, 1e10, order_cap=1)
    assert res.value == pytest.approx(1e100, rel=1e-12)
    assert (res.k_at_max, res.tail_bound) == (0, 0.0)
    assert res.term_values[1] == pytest.approx(40e90 / (3.0 * math.log(3.0)), rel=1e-12)


def test_circle_values_of_a_padded_polynomial_at_a_large_radius():
    p = TruncatedSeries.from_coeffs([0, 1, 0.5], degree=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = circle_values(p.coeffs, 1e10, 8, order_cap=2)
    assert table.shape == (3, 8)
    assert table[0, 0] == pytest.approx(1e10 + 5e19, rel=1e-15)
    assert table[1, 0] == pytest.approx(1.0 + 1e10, rel=1e-15)
    assert np.all(table[2] == 1.0)


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
    assert qa_norm(a - a, 0.5).value == 0.0
    assert qa_norm(a - b, 0.5).value == pytest.approx(
        qa_norm(b - a, 0.5).value, rel=1e-12
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


# -- the per-order loop that the one circle table replaced, kept as the oracle


def _fft_circle_values(coeffs, r, samples):
    """Reference: the single-row circle evaluator, as it stood before the table."""
    scaled = coeffs * r ** np.arange(coeffs.size, dtype=np.float64)
    if scaled.size > samples:
        scaled = np.pad(scaled, (0, -scaled.size % samples)).reshape(-1, samples).sum(axis=0)
    return np.fft.ifft(scaled, n=samples) * samples


def _loop_qa_norm(g, r, order_cap, circle_samples):
    """Reference: qa_norm's body as it stood before the table, argument
    checks left out."""
    n = g.degree
    mags = np.abs(g.coeffs)
    q, idx = _tail_ratio(mags, r)
    weights = _weights(order_cap)
    log_head = None
    if q is not None:
        if q >= 1.0 - 1e-9:
            raise UnreliableRadiusError(
                f"coefficients do not decay at r = {r} "
                f"(projected per-index factor {q:.4f})"
            )
        log_head = float(np.max(
            np.log(mags[idx]) + idx * math.log(r) + (n - idx) * math.log(q)
        ))

    best = -1.0
    best_k = 0
    best_j = 0
    terms = []
    tail_bound = 0.0
    nonzero = np.flatnonzero(g.coeffs)
    m_idx = np.arange(nonzero[-1] + 1 if nonzero.size else 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        work = g.coeffs[: m_idx.size] * r**m_idx
        for k in range(order_cap + 1):
            if k > 0:
                work *= np.maximum(m_idx - k + 1, 0.0) / r
            if q is not None:
                log_tail_k = (
                    log_head - n * math.log(q)
                    + _log_tail_sum(n, k, math.log(q), math.log1p(-q))
                    - k * math.log(r) - math.log(weights[k])
                )
                tail_bound = max(tail_bound, math.exp(min(log_tail_k, 700.0)))
            vals = np.abs(_fft_circle_values(work[k:], 1.0, circle_samples)) / weights[k]
            if not np.all(np.isfinite(vals)):
                raise UnreliableRadiusError(
                    f"derivative order {k} of the series overflows binary64 on |w| = {r}"
                )
            j = int(np.argmax(vals))
            terms.append(float(vals[j]))
            if vals[j] > best:
                best = float(vals[j])
                best_k, best_j = k, j
    if tail_bound > TAIL_TOL:
        raise UnreliableRadiusError(
            f"truncation tail at r = {r} may reach {tail_bound:.3e} "
            f"(> {TAIL_TOL}); increase the series degree"
        )
    return NormResult(
        value=best,
        k_at_max=best_k,
        sample_at_max=best_j,
        r=r,
        order_cap=order_cap,
        circle_samples=circle_samples,
        term_values=tuple(terms),
        tail_ratio=0.0 if q is None else q,
        tail_bound=tail_bound,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnreliableRadiusError as exc:
        return exc


def _random_series(rng, degree):
    """Geometric decay at a random radius, with a random shape: dense,
    odd powers only, or a zero-padded polynomial."""
    rho = rng.uniform(0.3, 3.0)
    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * rho ** -np.arange(degree + 1)
    shape = rng.integers(3)
    if shape == 1:
        c[::2] = 0
    elif shape == 2:
        c[rng.integers(2, 12):] = 0
    return TruncatedSeries.from_coeffs(c), rho


def test_norm_matches_the_per_order_loop_bitwise():
    rng = np.random.default_rng(20)
    values = 0
    for degree in (16, 33, 64, 128, 256):
        for _ in range(4):
            g, rho = _random_series(rng, degree)
            r = rho * rng.uniform(0.05, 0.6)
            for cap in (0, 1, 8, 40):
                if cap > degree:
                    continue
                for samples in (8, 512):
                    ref = _outcome(_loop_qa_norm, g, r, cap, samples)
                    new = _outcome(qa_norm, g, r, cap, samples)
                    if isinstance(ref, UnreliableRadiusError):
                        assert type(new) is type(ref) and str(new) == str(ref)
                        continue
                    values += 1
                    assert repr(dataclasses.astuple(new)) == repr(dataclasses.astuple(ref))
    assert values >= 100


@pytest.mark.parametrize("samples", [8, 64])
def test_circle_values_rows_match_horner_on_the_derivative(samples):
    rng = np.random.default_rng(3)
    for degree in (16, 100):
        g, rho = _random_series(rng, degree)
        r = 0.5 * rho
        table = circle_values(g.coeffs, r, samples, order_cap=3)
        m = np.arange(degree + 1)
        for k in range(4):
            # c_m m!/(m-k)! at index m - k, the integer factor formed exactly
            factor = np.array([math.perm(int(i), k) for i in m[k:]], dtype=np.float64)
            dk = TruncatedSeries.from_coeffs(g.coeffs[k:] * factor)
            ref = np.array([evaluate(dk, r * cmath.exp(2j * math.pi * j / samples)) for j in range(samples)])
            assert np.max(np.abs(table[k] - ref)) <= 1e-13 * np.max(np.abs(ref))
