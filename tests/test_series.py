import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelnum import (
    TruncatedSeries,
    compose,
    evaluate,
    family_series,
    get_family,
    golden_rotation,
    koenigs_series,
    siegel_series,
)
from siegelnum.errors import PreconditionError
from siegelnum.series import power_table

FAMILY_IDS = ("quadratic", "poly_3", "exp", "zexp", "sin", "tan", "reduced(sin)", "reduced(tan)")


def geometric(n):
    return TruncatedSeries.from_coeffs(np.ones(n + 1))


def test_from_coeffs_pads_and_truncates():
    s = TruncatedSeries.from_coeffs([1, 2], degree=4)
    assert s.degree == 4
    assert np.all(s.coeffs[2:] == 0)
    t = TruncatedSeries.from_coeffs([1, 2, 3, 4], degree=1)
    assert t.degree == 1 and t.coeffs[1] == 2


def test_from_coeffs_rejects_bad_input():
    with pytest.raises(PreconditionError):
        TruncatedSeries.from_coeffs([])
    with pytest.raises(PreconditionError):
        TruncatedSeries.from_coeffs([1.0, math.inf])


@pytest.mark.parametrize(
    "call, match",
    [(lambda: TruncatedSeries.from_coeffs([1.0], degree=-1), "degree must be >= 0"),
     (lambda: geometric(4).padded(3), "cannot lower the degree"),
     (lambda: geometric(4) + 1.0, "operands must both be TruncatedSeries")],
    ids=["negative-degree", "padded-lower", "foreign-operand"],
)
def test_series_preconditions(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()


def test_compose_power_oracle():
    # (z + z^2) o (z + z^2) = z + 2z^2 + 2z^3 + z^4
    f = TruncatedSeries.from_coeffs([0, 1, 1], degree=4)
    ff = compose(f, f)
    assert np.allclose(ff.coeffs, [0, 1, 2, 2, 1], atol=0)


def test_compose_requires_zero_constant():
    f = TruncatedSeries.from_coeffs([1, 1], degree=3)
    with pytest.raises(PreconditionError):
        compose(f, f)


def _loop_compose(outer, inner):
    """Reference: outer(inner) by accumulating a_k inner^k over every power."""
    a, b, n = outer._paired(inner)
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a[0]
    power = np.zeros(n + 1, dtype=np.complex128)
    power[0] = 1
    for k in range(1, n + 1):
        power = np.convolve(power, b)[: n + 1]
        out += a[k] * power
    return out


@pytest.mark.parametrize("outer, inner, expected", [
    ([3], [0, 1, 1], [3, 0, 0]),  # constant outer
    ([2 - 1j, 0, 0, 0], [0, 0.5, 1], [2 - 1j, 0, 0, 0]),
    ([1, 2], [0, 1, 1, 1], [1, 2, 2, 2]),  # degree-1 outer
    ([1, 2, 3], [0, 0, 0], [1, 0, 0]),  # zero inner
    ([2.5], [0], [2.5]),  # degree-0 series
    ([0], [0], [0]),
    ([0, 0, 0, 0], [0, 1, 1], [0, 0, 0, 0]),
])
def test_compose_edge_cases(outer, inner, expected):
    outer, inner = TruncatedSeries.from_coeffs(outer), TruncatedSeries.from_coeffs(inner)
    got = compose(outer, inner).coeffs
    assert got.tolist() == _loop_compose(outer, inner).tolist() == np.asarray(expected, complex).tolist()


@pytest.mark.parametrize("fam_id", FAMILY_IDS)
def test_compose_matches_the_power_loop(fam_id):
    # both compositions of the conjugacy residuals, within rounding of the
    # summed term sizes (the loop on the moduli)
    fam = get_family(fam_id)
    for n in (64, 128, 256):
        ks = koenigs_series(fam, 0.5 + 0.3j, n)
        ss = siegel_series(fam, golden_rotation().value, n)
        for outer, inner in ((ks.h, family_series(fam, ks.lam, n)), (family_series(fam, ss.lam, n), ss.g)):
            moduli = (TruncatedSeries.from_coeffs(np.abs(s.coeffs)) for s in (outer, inner))
            maj = _loop_compose(*moduli).real
            err = np.abs(compose(outer, inner).coeffs - _loop_compose(outer, inner))
            assert np.max(err / np.maximum(1.0, maj)) <= 1e-15


def test_power_table_stops_at_top():
    f = TruncatedSeries.from_coeffs([0, 1, 0.5, 0.25j], degree=6).coeffs
    full = power_table(f)
    assert full.shape == (7, 7)
    assert np.array_equal(full[:, 3], np.convolve(np.convolve(f, f), f)[:7])
    for top in (0, 1, 3, 6):
        assert np.array_equal(power_table(f, top), full[:, : top + 1])
    # powers above the degree have valuation above it: zero columns
    assert np.array_equal(power_table(f, 9)[:, :7], full) and not power_table(f, 9)[:, 7:].any()


def test_evaluate_geometric_value():
    assert abs(evaluate(geometric(64), 0.5) - (2.0 - 0.5**64 * 2)) < 1e-15


def test_padding_roundtrip_and_pairs():
    s = TruncatedSeries.from_coeffs([0, 1, 2 + 1j])
    assert np.array_equal(s.padded(6).coeffs, np.r_[s.coeffs, np.zeros(4)])
    again = TruncatedSeries.from_pairs(s.to_pairs())
    assert np.array_equal(again.coeffs, s.coeffs)
    # a bare real entry stands for [re, 0]
    mixed = TruncatedSeries.from_pairs([0, 1, [2.0, 1.0]])
    assert np.array_equal(mixed.coeffs, s.coeffs)


small_coeff = st.complex_numbers(
    max_magnitude=0.2, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(small_coeff, min_size=1, max_size=8),
    st.lists(small_coeff, min_size=1, max_size=8),
)
def test_addition_commutes_with_evaluation(xs, ys):
    a = TruncatedSeries.from_coeffs(np.asarray(xs, dtype=complex))
    b = TruncatedSeries.from_coeffs(np.asarray(ys, dtype=complex))
    z = 0.3 + 0.1j
    lhs = evaluate(a + b, z)
    rhs = evaluate(a, z) + evaluate(b, z)
    assert lhs == pytest.approx(rhs, abs=1e-12)
