import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from siegelnum import (
    ConstructionConfig,
    boundary_report,
    get_family,
    golden_rotation,
    qa_norm,
    rho_coefficient,
    run_construction,
    siegel_series,
)
from siegelnum import construction, linearize, qanorm
from siegelnum.construction import CIRCLE_SAMPLES
from siegelnum.construction import find_alpha_with_rho
from siegelnum.errors import (
    BracketFailureError,
    ConstructionStallError,
    EstimateUnavailableError,
    NumericalError,
    PreconditionError,
    UnreliableRadiusError,
)
from siegelnum.radius import RadiusEstimate, rotation_from_cf

QUAD = get_family("quadratic")
DELTA = 0.1


@pytest.fixture(scope="module")
def report():
    return run_construction(ConstructionConfig(delta=DELTA))


def test_schedule_is_the_linear_ramp(report):
    drops = [report.rho0 - t for t in report.schedule]
    assert drops == pytest.approx([0.75 * n / 4 for n in (1, 2, 3)], abs=1e-12)
    assert report.rho_infinity == pytest.approx(report.rho0 - 0.75, abs=1e-12)
    assert report.r_infinity == pytest.approx(math.exp(report.rho_infinity))


def test_each_step_hits_its_target(report):
    for step, target in zip(report.steps, report.schedule):
        assert step.target_rho == target
        assert abs(step.achieved_rho - target) <= 0.02


def test_achieved_values_strictly_decrease(report):
    values = [s.achieved_rho for s in report.steps]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_intervals_nest(report):
    alpha_prev, eps_prev = report.alpha0, 0.05
    for step in report.steps:
        assert abs(step.alpha - alpha_prev) + step.eps <= eps_prev + 1e-15
        alpha_prev, eps_prev = step.alpha, step.eps


def test_norm_deltas_within_halving_budgets(report):
    for n, step in enumerate(report.steps, start=1):
        budget = DELTA * 2.0 ** (-(n - 1))
        assert step.norm_budget == pytest.approx(budget)
        assert step.norm_delta <= budget


def test_flanks_stay_below_previous_level(report):
    for step in report.steps:
        assert step.flank_worst < step.flank_level


def test_radial_crosscheck_recorded(report):
    for step in report.steps:
        assert math.isnan(step.radial_value) or (
            step.radial_value >= step.achieved_rho - 0.1
        )


def test_final_radius_consistency(report):
    est = rho_coefficient(QUAD, report.final_alpha, 256)
    assert est.rho_hat < report.schedule[-1] + 0.02
    assert est.rho_hat >= report.rho_infinity - 0.02


def test_cauchy_in_norm_across_all_pairs(report):
    alphas = [report.alpha0] + [s.alpha for s in report.steps]
    series = [siegel_series(QUAD, a, 256).g for a in alphas]
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            d = qa_norm(series[i] - series[j], report.r_infinity, order_cap=1)
            assert d.value <= 2.0 ** (-min(i, j) + 1) * DELTA


def test_delta_ball_certificate(report):
    assert report.total_distance <= 2 * DELTA


def test_boundary_derivative_nonvanishing(report):
    assert report.boundary.gprime_min > 0
    assert report.boundary.g_max < 1.0  # image stays inside the unit disc
    assert report.boundary.radius == pytest.approx(report.r_infinity)


def test_boundary_report_evaluates_one_circle_table(report, monkeypatch):
    g = siegel_series(QUAD, report.final_alpha, 256).g
    expected = boundary_report(g, report.r_infinity)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return circle_values(*args, **kwargs)

    circle_values = qanorm.circle_values
    monkeypatch.setattr(qanorm, "circle_values", counted)
    monkeypatch.setattr(construction, "circle_values", counted)
    assert boundary_report(g, report.r_infinity) == expected
    assert calls == [CIRCLE_SAMPLES]


def _fft_circle_values(coeffs, r, samples):
    """Reference: the single-row circle evaluator, as it stood before the table."""
    scaled = coeffs * r ** np.arange(coeffs.size, dtype=np.float64)
    if scaled.size > samples:
        scaled = np.pad(scaled, (0, -scaled.size % samples)).reshape(-1, samples).sum(axis=0)
    return np.fft.ifft(scaled, n=samples) * samples


def _derivative_boundary(g, radius):
    """Reference: g and g' on the circle as the boundary report took them
    before, g' from the series of c_m m at index m - 1."""
    n = g.degree
    gp = g.coeffs[1:] * np.array([float(m) for m in range(1, n + 1)])
    return (_fft_circle_values(g.coeffs, radius, CIRCLE_SAMPLES),
            _fft_circle_values(gp, radius, CIRCLE_SAMPLES))


@pytest.mark.parametrize("family_id, depth", [("quadratic", 3), ("exp", 1)])
def test_boundary_report_matches_the_derivative_series(report, family_id, depth):
    if family_id == "quadratic":
        rep = report
    else:
        rep = run_construction(ConstructionConfig(family=family_id, depth=depth, delta=DELTA))
    g = siegel_series(get_family(family_id), rep.final_alpha, 256).g
    ref_g, ref_gp = _derivative_boundary(g, rep.r_infinity)
    new_g, new_gp = construction.circle_values(g.coeffs, rep.r_infinity, CIRCLE_SAMPLES, 1)
    assert np.array_equal(new_g, ref_g)
    # g' takes other roundings (c_m r^m times m / r): 4 ulp relative
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(np.abs(new_gp) - np.abs(ref_gp)) <= 4 * eps * np.abs(ref_gp))
    gv, gpv = np.abs(ref_g), np.abs(ref_gp)
    assert (rep.boundary.g_min, rep.boundary.g_max) == (np.min(gv), np.max(gv))
    for new, ref in ((rep.boundary.gprime_min, np.min(gpv)), (rep.boundary.gprime_max, np.max(gpv))):
        assert abs(new - ref) <= 4 * eps * ref


def test_describe_is_json_shaped(report):
    d = report.describe()
    assert len(d["steps"]) == 3
    assert set(d["steps"][0]) >= {"alpha", "anchor", "target_rho", "achieved_rho"}


def test_describe_keeps_the_hand_written_dicts(report):
    """describe() against the dicts it built field by field before it
    became asdict; the step dict no longer carries "offset", which always
    equalled "eps"."""
    def step_dict(s):
        return {
            "n": s.n, "alpha": s.alpha,
            "anchor": f"{s.anchor_p}/{s.anchor_q}",
            "target_rho": s.target_rho, "achieved_rho": s.achieved_rho,
            "eps": s.eps, "norm_delta": s.norm_delta,
            "norm_budget": s.norm_budget, "flank_worst": s.flank_worst,
            "flank_level": s.flank_level, "radial_value": s.radial_value,
            "retries": s.retries,
        }

    b = report.boundary
    boundary = {
        "radius": b.radius, "g_min": b.g_min, "g_max": b.g_max,
        "gprime_min": b.gprime_min, "gprime_max": b.gprime_max,
        "norm_value": b.norm_value, "samples": b.samples,
    }
    expected = {
        "family": report.family, "alpha0": report.alpha0, "rho0": report.rho0,
        "rho_infinity": report.rho_infinity, "r_infinity": report.r_infinity,
        "schedule": list(report.schedule),
        "steps": [step_dict(s) for s in report.steps],
        "final_alpha": report.final_alpha,
        "total_distance": report.total_distance,
        "boundary": boundary,
        "wall_time": report.wall_time,
    }
    for step in report.steps:
        assert step.describe() == step_dict(step)
    assert b.describe() == boundary
    assert json.dumps(report.describe()) == json.dumps(expected)


def test_wall_time_ignores_wall_clock_jumps(monkeypatch):
    # a wall clock stepped back by an hour mid-run must not show in a duration
    jumps = itertools.count(0.0, -3600.0)
    monkeypatch.setattr(construction.time, "time", lambda: next(jumps))
    rep = run_construction(ConstructionConfig(depth=1))
    assert 0 < rep.wall_time < 60


def test_impossible_norm_budget_stalls_with_partial_report():
    cfg = ConstructionConfig(delta=1e-9, depth=1)
    with pytest.raises(ConstructionStallError) as exc:
        run_construction(cfg)
    partial = exc.value.partial_report
    assert partial is not None
    assert partial.steps == ()
    assert "norm delta" in str(exc.value)


def _raise(exc):
    def fake(*args, **kwargs):
        raise exc
    return fake


def _reading(rho):
    """An estimate that reads rho, for a stand-in estimator."""
    return RadiusEstimate(alpha=golden_rotation(), method="stub", rho_hat=rho, samples=(),
                          converged=True, diverging_to_minus_infinity=False)


@pytest.mark.parametrize("eps0, name, fake, reason", [
    pytest.param(0.05, "find_alpha_with_rho", _raise(BracketFailureError("no bracket here")),
                 "no bracket here", id="bracket"),
    pytest.param(1e-12, None, None, "interval does not nest", id="nesting"),
    pytest.param(0.05, "qa_norm", _raise(UnreliableRadiusError("tail above the gate")),
                 "UnreliableRadiusError: tail above the gate", id="norm-error"),
    pytest.param(0.05, "rho_coefficients", lambda family, alphas, n: [_reading(0.0)] * len(alphas),
                 "flank reaches 0.0000", id="flank"),
    pytest.param(0.05, "rho_radial", lambda *args, **kwargs: _reading(-10.0),
                 "radial probe -10.0000 undercuts", id="radial-undercut"),
    pytest.param(0.05, "rho_radial", _raise(NumericalError("Koebe bound violated: injected")),
                 "NumericalError: Koebe bound violated: injected", id="radial-error"),
])
def test_each_rejection_names_its_reason(monkeypatch, eps0, name, fake, reason):
    if name is not None:
        monkeypatch.setattr(construction, name, fake)
    with pytest.raises(ConstructionStallError) as exc:
        run_construction(ConstructionConfig(depth=1, eps0=eps0))
    message = str(exc.value)
    assert message.startswith("step 1: no anchor produced an acceptable candidate: ")
    assert reason in message
    assert exc.value.partial_report.steps == ()


def test_a_radial_probe_without_samples_passes_as_nan(monkeypatch):
    monkeypatch.setattr(construction, "rho_radial", _raise(EstimateUnavailableError("no sample")))
    (step,) = run_construction(ConstructionConfig(depth=1)).steps
    assert math.isnan(step.radial_value) and step.retries == 0


def _assert_certified(rep, depth):
    """Criterion 9's checks, with budgets delta * 2^-(n-1) at every step."""
    assert len(rep.steps) == depth
    alpha_prev, eps_prev = rep.alpha0, 0.05
    for n, step in enumerate(rep.steps, start=1):
        assert abs(step.alpha - alpha_prev) + step.eps <= eps_prev + 1e-15
        assert step.norm_delta <= DELTA * 2.0 ** (-(n - 1))
        assert abs(step.achieved_rho - step.target_rho) <= 0.02
        alpha_prev, eps_prev = step.alpha, step.eps
    assert rep.total_distance <= 2 * DELTA
    assert rep.boundary.gprime_min > 0


def test_depth_five_construction_certifies():
    _assert_certified(run_construction(ConstructionConfig(depth=5, delta=DELTA)), 5)


# alpha0 = [0; a1, a2, 1, 1, ...] whose ladder starts with an anchor above alpha0
@pytest.mark.parametrize("a1, a2", [(1, 2), (1, 3), (2, 1), (3, 2), (3, 3)])
def test_anchor_above_alpha0_certifies_without_retries(a1, a2):
    rep = run_construction(ConstructionConfig(alpha0=rotation_from_cf([a1, a2] + [1] * 38)))
    _assert_certified(rep, 3)
    assert rep.steps[0].anchor_p / rep.steps[0].anchor_q > rep.alpha0
    assert [step.retries for step in rep.steps] == [0, 0, 0]


def test_default_run_reuses_each_fitted_series(monkeypatch):
    rows = []  # rows per solver call
    solve = linearize._solve_siegel

    def counting(F, divisors):
        rows.append(F.shape[0])
        return solve(F, divisors)

    monkeypatch.setattr(linearize, "_solve_siegel", counting)
    run_construction(ConstructionConfig())
    # alpha_0 and each step's accepted alpha take their series from their
    # estimates; re-solving them would make depth + 1 = 4 more rows (130)
    assert sum(rows) == 126
    # each step's flank scan is one call: 2 * FLANK_SAMPLES probes, less
    # the one that lands on the anchor and breaks down before the solve
    assert rows.count(2 * construction.FLANK_SAMPLES - 1) == 3
    assert all(r == 1 for r in rows if r != 2 * construction.FLANK_SAMPLES - 1)


def test_bisection_estimates_each_alpha_once(monkeypatch):
    calls, results = [], []
    estimate = construction.rho_coefficient

    def counting(family, alpha, n):
        calls.append(alpha)
        results.append(estimate(family, alpha, n))
        return results[-1]

    monkeypatch.setattr(construction, "rho_coefficient", counting)
    lo, hi = 21 / 34, golden_rotation().value
    alpha, est = find_alpha_with_rho(QUAD, -1.6, lo, hi, tol_rho=0.05, n=128)
    # one call per bracket end (the rational lo end breaks down), then one
    # per bisection probe; the accepted probe's estimate is returned as is
    assert calls[:2] == [lo, hi]
    assert len(set(calls)) == len(calls) > 2
    assert calls[-1] == alpha
    assert results[-1] is est


def test_bracket_failure_when_target_unreachable():
    with pytest.raises(BracketFailureError):
        find_alpha_with_rho(QUAD, -1.0, 0.5, golden_rotation().value, n=128)


def test_bracket_failure_when_the_below_end_is_not_below():
    with pytest.raises(BracketFailureError, match="below end"):
        find_alpha_with_rho(QUAD, -1.6, golden_rotation().value, 21 / 34, n=128)


def test_bisection_lands_on_target():
    alpha, est = find_alpha_with_rho(
        QUAD, -1.6, 21 / 34, golden_rotation().value, tol_rho=0.05, n=128
    )
    assert 21 / 34 < alpha < golden_rotation().value
    assert abs(est.rho_hat - (-1.6)) <= 0.05


def test_bisection_from_an_anchor_above_alpha():
    golden = golden_rotation().value
    alpha, est = find_alpha_with_rho(QUAD, -1.6, 34 / 55, golden, tol_rho=0.05, n=128)
    assert golden < alpha < 34 / 55
    assert abs(est.rho_hat - (-1.6)) <= 0.05


def test_bracket_ends_must_differ():
    with pytest.raises(PreconditionError):
        find_alpha_with_rho(QUAD, -1.6, 21 / 34, 21 / 34, n=128)


def test_rho_infinity_override():
    rep = run_construction(ConstructionConfig(depth=1, rho_infinity=-1.52))
    assert rep.rho_infinity == pytest.approx(-1.52)
    assert rep.schedule[0] == pytest.approx((rep.rho0 - 1.52) / 2)


def test_deep_rho_infinity_certifies():
    # the anchor ladder is sized by the real final dip rho0 - targets[-1],
    # not by the default drop, so a deep rho_infinity finds a feasible anchor
    rep = run_construction(ConstructionConfig(rho_infinity=-2.3))
    assert rep.rho_infinity == pytest.approx(-2.3)
    _assert_certified(rep, 3)


def test_config_fields_are_the_nine_settings():
    assert [f.name for f in dataclasses.fields(ConstructionConfig)] == [
        "family", "alpha0", "depth", "delta", "eps0",
        "rho_infinity", "schedule", "tol_rho", "n_series",
    ]


def test_config_validation():
    with pytest.raises(PreconditionError):
        ConstructionConfig(depth=0)
    with pytest.raises(PreconditionError):
        ConstructionConfig(delta=-1.0)
    with pytest.raises(PreconditionError):
        ConstructionConfig(depth=2, schedule=(-1.3,))
    with pytest.raises(PreconditionError):
        ConstructionConfig(depth=2, schedule=(-1.4, -1.3))


def test_boundary_report_outside_the_disc_has_no_norm():
    g = siegel_series(QUAD, golden_rotation().value, 128).g
    rep = boundary_report(g, 1.0)
    assert math.isnan(rep.norm_value)
    assert rep.radius == 1.0 and rep.samples == CIRCLE_SAMPLES
