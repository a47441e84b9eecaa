import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelnum import (
    cf_convergents,
    cf_expand,
    get_family,
    golden_rotation,
    harmonic_check,
    harmonic_measure,
    parse_rotation,
    poisson_bound_check,
    poisson_step_value,
    rational_rotation,
    rho_coefficient,
    rho_coefficients,
    rho_radial,
    rotation_from_cf,
    rotation_from_float,
    silver_rotation,
)
from siegelnum import radius
from siegelnum.errors import (
    DivisorBreakdownError,
    EstimateUnavailableError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
)
from siegelnum.families import custom_family

QUAD = get_family("quadratic")


# -- rotation-number plumbing -------------------------------------------------


def test_parse_rotation_forms():
    assert parse_rotation("golden").tag == "golden"
    assert parse_rotation("silver").value == pytest.approx(math.sqrt(2) - 1)
    r = parse_rotation("rat:2/5")
    assert r.is_rational and (r.p, r.q) == (2, 5)
    assert parse_rotation("float:0.375").value == 0.375
    c = parse_rotation("cf:2,3,4")
    assert c.value == pytest.approx(13 / 30)


@pytest.mark.parametrize("bad", ["", "rat:5/0", "rat:7/5", "float:1.5", "cf:", "huh"])
def test_parse_rotation_rejects(bad):
    with pytest.raises(PreconditionError):
        parse_rotation(bad)


def test_golden_and_silver_values():
    assert golden_rotation().value == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert silver_rotation().value == pytest.approx(math.sqrt(2) - 1, abs=1e-15)


def test_cf_convergents_golden():
    pairs = cf_convergents((1,) * 8)
    assert pairs[:6] == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13)]


def test_cf_expand_inverts_convergent():
    # the expansion may end ...,a or ...,a-1,1 (both are valid); compare values
    digits = cf_expand(13 / 30, 8)
    assert rotation_from_cf(digits).value == pytest.approx(13 / 30, abs=1e-15)
    assert rotation_from_cf((2, 3, 4)).is_rational
    assert cf_convergents(digits)[-1] == (13, 30)


def test_rotation_from_float_tags():
    r = rotation_from_float(0.3819660112501051)
    assert r.tag == "float" and not r.is_rational


# -- estimators ---------------------------------------------------------------


def test_radial_estimate_golden_frozen_value():
    est = rho_radial(QUAD, golden_rotation(), depth=12, n=128)
    assert est.converged and not est.diverging_to_minus_infinity
    assert est.rho_hat == pytest.approx(-1.126, abs=5e-3)


def test_coefficient_estimate_golden_frozen_value():
    est = rho_coefficient(QUAD, golden_rotation(), 256)
    assert est.converged
    assert est.rho_hat == pytest.approx(-1.1167, abs=5e-3)


def test_estimators_agree_at_golden():
    radial = rho_radial(QUAD, golden_rotation(), depth=12, n=128)
    coeff = rho_coefficient(QUAD, golden_rotation(), 128)
    assert abs(radial.rho_hat - coeff.rho_hat) <= 0.05


def test_rational_ray_diverges():
    est = rho_radial(QUAD, rational_rotation(1, 2), depth=14, n=128)
    assert est.diverging_to_minus_infinity
    assert est.effective_rho == -math.inf


def test_overflowing_koenigs_depths_are_failed_depths():
    # at n = 512 the golden ray's Koenigs coefficients outgrow binary64 from
    # depth 4 on: those depths are recorded and the scan keeps the rest
    est = rho_radial(QUAD, golden_rotation(), depth=14, n=512)
    assert [r for r, _ in est.samples] == [0.75, 0.875]
    assert not est.converged and est.rho_hat == est.samples[-1][1]
    assert [f.split(":")[:2] for f in est.failures] == [
        [f"depth {k}", " CoefficientOverflowError"] for k in range(4, 15)
    ]
    # at 1/2 and n = 256 they fail from depth 8 on, after the drop is seen
    assert rho_radial(QUAD, rational_rotation(1, 2), depth=12, n=256).diverging_to_minus_infinity


def test_coefficient_estimator_breaks_on_exact_rational():
    with pytest.raises(DivisorBreakdownError):
        rho_coefficient(QUAD, rational_rotation(1, 3), 128)


def test_near_rational_dips_below_golden():
    est = rho_coefficient(QUAD, 0.5 + 1e-3, 256)
    base = rho_coefficient(QUAD, golden_rotation(), 256)
    assert est.rho_hat < base.rho_hat - 0.5


def test_overflowing_dip_is_a_numerical_error():
    # close enough to 1/2 that the series coefficients outgrow binary64;
    # must classify as a numerical failure, not a caller mistake
    from siegelnum.errors import NumericalError

    with pytest.raises(NumericalError):
        rho_coefficient(QUAD, 0.5 + 1e-4, 256)


def test_estimate_describe_roundtrip():
    est = rho_radial(QUAD, golden_rotation(), depth=8, n=64)
    d = est.describe()
    assert d["method"] == "radial"
    assert len(d["samples"]) == est.samples.__len__()


# -- harmonic diagnostics -----------------------------------------------------


def test_harmonic_check_exact_on_harmonic_field():
    report = harmonic_check(lambda z: z.real, nodes=24)
    assert report.max_deviation <= 1e-13
    assert report.masked == 0


def test_harmonic_check_flags_non_harmonic_field():
    # |z|^2 has constant Laplacian 4; the 4-point mean over a circle of
    # radius h exceeds the center value by exactly h^2
    report = harmonic_check(lambda z: abs(z) ** 2, nodes=24)
    assert report.max_deviation == pytest.approx(report.grid_step**2, rel=1e-9)


def test_harmonic_check_masks_failures():
    def patchy(z):
        return np.where(z.real > 0.3, np.nan, z.imag)

    report = harmonic_check(patchy, nodes=16)
    assert report.masked > 0
    assert report.max_deviation <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_harmonic_measures_partition_unity(cuts, radius, turn):
    z = radius * complex(math.cos(2 * math.pi * turn), math.sin(2 * math.pi * turn))
    ts = [0.0] + sorted(set(cuts)) + [1.0]
    total = sum(harmonic_measure(a, b, z) for a, b in zip(ts, ts[1:]))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_harmonic_measure_center_is_arc_length():
    assert harmonic_measure(0.2, 0.45, 0j) == pytest.approx(0.25, abs=1e-14)


def test_poisson_step_approaches_mean_of_caps():
    alpha, delta, L, R, M = 0.3, 0.02, -2.0, -1.0, 0.0
    z = (1 - 1e-9) * complex(
        math.cos(2 * math.pi * alpha), math.sin(2 * math.pi * alpha)
    )
    assert poisson_step_value(alpha, delta, L, R, M, z) == pytest.approx(
        (L + R) / 2, abs=1e-3
    )


def test_poisson_check_propagates_foreign_errors():
    # only package errors mask a ray sample; a broken user map must surface
    def point_eval(z):
        raise RuntimeError("user map failed")

    with pytest.warns(UserWarning):
        fam = custom_family(
            "broken", -1.0, 1,
            lambda n: np.r_[0, 1, 0.25, np.zeros(n - 2)],
            point_eval,
        )
    with pytest.raises(RuntimeError, match="user map failed"):
        poisson_bound_check(fam, golden_rotation(), 0.01, -1.0, -1.0, ray_samples=4, n=64)


def test_rho_coefficients_returns_an_unavailable_fit():
    # g(w) = w conjugates the rotation of f(z) = z: no tail to fit
    with pytest.warns(UserWarning):
        identity = custom_family(
            "identity", 1.0, 1, lambda n: np.r_[0, 1, np.zeros(n - 1)], lambda z: z
        )
    [outcome] = rho_coefficients(identity, [golden_rotation()], n=64)
    assert isinstance(outcome, EstimateUnavailableError)


def _inject_sample(monkeypatch, error):
    """Make the second u_values outcome of every ray scan the given error."""
    real = radius.u_values

    def patched(*args):
        values = real(*args)
        values[1] = error
        return values

    monkeypatch.setattr(radius, "u_values", patched)


def test_both_ray_scans_raise_a_broken_sample(monkeypatch):
    # a Koebe-bound violation is a broken evaluation, not a missing sample
    _inject_sample(monkeypatch, NumericalError("Koebe bound violated: injected"))
    with pytest.raises(NumericalError, match="Koebe bound violated"):
        rho_radial(QUAD, golden_rotation(), depth=8, n=64)
    with pytest.raises(NumericalError, match="Koebe bound violated"):
        poisson_bound_check(QUAD, golden_rotation(), 0.01, -1.1, -1.1, ray_samples=4, n=64)


def test_both_ray_scans_skip_a_missing_sample(monkeypatch):
    _inject_sample(monkeypatch, NoConvergenceError(7))
    radial = rho_radial(QUAD, golden_rotation(), depth=8, n=64)
    poisson = poisson_bound_check(QUAD, golden_rotation(), 0.01, -1.1, -1.1, ray_samples=4, n=64)
    assert radial.failures == ("depth 3: NoConvergenceError: iteration budget 7 exhausted",)
    assert len(radial.samples) == 6
    assert poisson.masked == 1 and len(poisson.samples) == 3


@pytest.mark.parametrize("delta", [0.0, -0.1, 0.5000001, 0.7])
def test_poisson_check_needs_disjoint_arcs(delta):
    # past delta = 1/2 the arcs overlap: at alpha = 0.3, delta = 0.7 and
    # z = 0.9 the flank weights are 0.982 and 0.512, so M weighs -0.495
    with pytest.raises(PreconditionError, match="delta"):
        poisson_bound_check(QUAD, golden_rotation(), delta, -1.0, -1.0, ray_samples=2, n=64)


@pytest.mark.parametrize("L, R", [(math.nan, -1.0), (-1.0, math.inf), (-math.inf, -1.0)])
def test_poisson_check_needs_finite_caps(L, R):
    # a NaN cap makes every margin NaN, which no comparison counts as a violation
    with pytest.raises(PreconditionError, match="finite"):
        poisson_bound_check(QUAD, golden_rotation(), 0.01, L, R, ray_samples=4, n=64)


def test_poisson_check_needs_a_ray_sample():
    with pytest.raises(PreconditionError, match="ray sample"):
        poisson_bound_check(QUAD, golden_rotation(), 0.01, -1.0, -1.0, ray_samples=0, n=64)


def test_poisson_check_half_turn_arcs_partition_the_circle():
    report = poisson_bound_check(QUAD, golden_rotation(), 0.5, -1.0, -1.0, ray_samples=2, n=64)
    assert [row[2] for row in report.samples] == pytest.approx([-1.0, -1.0], abs=1e-12)


def test_poisson_report_describe_keeps_its_json():
    report = poisson_bound_check(QUAD, golden_rotation(), 0.01, -1.1, -1.1, ray_samples=4, n=64)
    # the hand-written dict that describe() was before it became asdict
    expected = {
        "alpha": report.alpha, "delta": report.delta, "L": report.L, "R": report.R,
        "M": report.M, "limit_value": report.limit_value,
        "violations": report.violations, "min_margin": report.min_margin,
        "masked": report.masked,
        "samples": [[float(a), float(b), float(c), float(d)] for a, b, c, d in report.samples],
    }
    assert json.dumps(report.describe()) == json.dumps(expected)
