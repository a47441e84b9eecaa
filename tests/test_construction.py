import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from siegelnum import (
    ConstructionConfig,
    boundary_report,
    get_family,
    golden_rotation,
    qa_norm,
    rational_rotation,
    rho_coefficient,
    rho_coefficients,
    run_construction,
    siegel_series,
)
from siegelnum import construction, linearize, qanorm
from siegelnum.construction import CIRCLE_SAMPLES
from siegelnum.construction import find_alpha_with_rho
from siegelnum.errors import (
    BracketFailureError,
    CoefficientOverflowError,
    ConstructionStallError,
    DivisorBreakdownError,
    NumericalError,
    PreconditionError,
    UnreliableRadiusError,
    outcome,
)
from siegelnum.families import custom_family
from siegelnum.radius import RadiusEstimate, rotation_from_cf, rotation_from_float
from test_qanorm import _fft_circle_values

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
            "flank_level": s.flank_level, "retries": s.retries,
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


def test_a_target_below_binary64_stalls_on_overflowed_probes():
    # rho_infinity = -745 puts step 1's targets where the probes' Siegel
    # coefficients outgrow binary64, some with finite parts and |g_k| = inf;
    # each such probe reads "no disc" (a CoefficientOverflowError), never a
    # NaN estimate, and the search stalls without a RuntimeWarning
    with warnings.catch_warnings(), pytest.raises(ConstructionStallError) as exc:
        warnings.simplefilter("error")
        run_construction(ConstructionConfig(rho_infinity=-745))
    assert exc.value.partial_report.steps == ()
    assert str(exc.value).startswith("step 1: no anchor produced an acceptable candidate")


def _raise(exc):
    def fake(*args, **kwargs):
        raise exc
    return fake


def _reading(rho, alpha=None):
    """An estimate that reads rho, for a stand-in estimator; alpha outside
    (0, 1) raises the PreconditionError of the real estimators."""
    rot = golden_rotation() if alpha is None else rotation_from_float(alpha)
    return RadiusEstimate(alpha=rot, method="stub", rho_hat=rho, samples=(), converged=True)


def _fake_flank_batches(monkeypatch, fake):
    """Route run_construction's flank scans, its only rho_coefficients
    calls, to fake.  Returns the list of the flank batches faked."""
    faked = []

    def batch(family, alphas, n):
        faked.append(list(alphas))
        return fake(family, alphas, n)

    monkeypatch.setattr(construction, "rho_coefficients", batch)
    return faked


@pytest.mark.parametrize("eps0, name, fake, reason", [
    pytest.param(0.05, "find_alpha_with_rho", _raise(BracketFailureError("no bracket here")),
                 "no bracket here", id="bracket"),
    pytest.param(1e-12, None, None, "interval does not nest", id="nesting"),
    pytest.param(0.05, "qa_norm", _raise(UnreliableRadiusError("tail above the gate")),
                 "UnreliableRadiusError: tail above the gate", id="norm-error"),
    pytest.param(0.05, "rho_coefficients", lambda family, alphas, n: [_reading(0.0)] * len(alphas),
                 "flank reaches 0.0000", id="flank"),
    # below every level, and ~4 below the dip law's rho_hat + ln2/q
    pytest.param(0.05, "rho_coefficients", lambda family, alphas, n: [_reading(-5.0)] * len(alphas),
                 "flank reads -5.0000, off the dip law's", id="flank-law"),
])
def test_each_rejection_names_its_reason(monkeypatch, eps0, name, fake, reason):
    if name == "rho_coefficients":
        _fake_flank_batches(monkeypatch, fake)
    elif name is not None:
        monkeypatch.setattr(construction, name, fake)
    with pytest.raises(ConstructionStallError) as exc:
        run_construction(ConstructionConfig(depth=1, eps0=eps0))
    message = str(exc.value)
    assert message.startswith("step 1: no anchor produced an acceptable candidate: ")
    assert reason in message
    assert exc.value.partial_report.steps == ()


@pytest.mark.parametrize("failure", [DivisorBreakdownError(35, 1e-15, 1e-14),
                                     CoefficientOverflowError("past binary64")],
                         ids=["breakdown", "overflow"])
def test_a_flank_probe_without_a_disc_reads_minus_infinity(monkeypatch, failure):
    # the scan reads -infinity, not a raised error; being off the dip law,
    # that reading rejects the candidate
    faked = _fake_flank_batches(monkeypatch, lambda family, alphas, n: [failure] * len(alphas))
    with pytest.raises(ConstructionStallError) as exc:
        run_construction(ConstructionConfig(depth=1))
    assert "21/34: flank reads -inf, off the dip law's" in str(exc.value)
    assert len(faked[0]) == 2 * construction.FLANK_SAMPLES


def test_a_flank_scan_below_float_resolution_is_rejected(monkeypatch):
    # a search that lands 6 ulp from its anchor, keeping est_n's series so
    # that the norm check passes: the 32 flank probes are not distinct floats
    def near_anchor(family, target, p, q, est_n, tol_rho, n):
        alpha = p / q + 6 * math.ulp(p / q)
        return dataclasses.replace(est_n, alpha=rotation_from_float(alpha), rho_hat=target)

    monkeypatch.setattr(construction, "find_alpha_with_rho", near_anchor)
    with pytest.raises(ConstructionStallError) as exc:
        run_construction(ConstructionConfig(depth=1))
    message = str(exc.value)
    assert message.startswith("step 1: no anchor produced an acceptable candidate: ")
    assert "21/34: flank scan below float resolution;" in message
    assert exc.value.partial_report.steps == ()


def test_any_other_flank_probe_error_is_raised(monkeypatch):
    failure = NumericalError("probe failed")
    faked = _fake_flank_batches(monkeypatch, lambda family, alphas, n: [failure] * len(alphas))
    with pytest.raises(NumericalError) as exc:
        run_construction(ConstructionConfig(depth=1))
    assert exc.value is failure
    assert len(faked) == 1  # the search found its candidate; its flank scan raised


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
    calls = []  # per solver call, each row's lambda, one per alpha
    solve = linearize._solve_siegel

    def counting(F, divisors):
        calls.append(F[:, 1].tolist())  # F = lambda f, and f has c_1 = 1
        return solve(F, divisors)

    monkeypatch.setattr(linearize, "_solve_siegel", counting)
    rep = run_construction(ConstructionConfig())
    # alpha_0; then per step one single-row call per probe (two in step 1,
    # whose start alpha_0 sits off the dip law's line, one in steps 2 and
    # 3) and one flank scan: 8 solver calls
    assert [len(rows) for rows in calls] == [1, 1, 1, 31, 1, 31, 1, 31]
    # each step's flank scan is one call: 2 * FLANK_SAMPLES probes, less
    # the one that lands on the anchor and breaks down before the solve
    assert [len(rows) for rows in calls[3::2]] == [2 * construction.FLANK_SAMPLES - 1] * 3
    # each step's above end is the previous accepted estimate, and alpha_0
    # and each accepted alpha take their series from their estimates, so
    # no alpha is solved twice
    lams = [lam for rows in calls for lam in rows]
    assert len(lams) == len(set(lams))
    for alpha in [rep.alpha0] + [step.alpha for step in rep.steps]:
        (lam,) = np.exp(2j * math.pi * linearize._phases(np.array([alpha]), 1))[:, 1].tolist()
        assert lam in lams


def _recording_estimates(monkeypatch):
    """Record every alpha that find_alpha_with_rho estimates, and its
    outcome."""
    calls, results = [], []
    single = construction.rho_coefficient

    def recording(family, alpha, n):
        calls.append(alpha)
        results.append(outcome(single, family, alpha, n))
        if isinstance(results[-1], Exception):
            raise results[-1]
        return results[-1]

    monkeypatch.setattr(construction, "rho_coefficient", recording)
    return calls, results


@pytest.fixture(scope="module")
def golden_128():
    """The held degree-128 estimate at the golden mean, the above end of
    the searches from 21/34 and 34/55."""
    return rho_coefficient(QUAD, golden_rotation().value, 128)


def test_an_anchor_is_never_estimated_and_needs_q_below_the_degree(monkeypatch, golden_128):
    calls, _ = _recording_estimates(monkeypatch)
    est = find_alpha_with_rho(QUAD, -1.6, 21, 34, golden_128, tol_rho=0.05, n=128)
    # q = 34 < n: the guard's -infinity at the anchor is known unsolved, and
    # the held above end is not solved again
    assert 21 / 34 not in calls and golden_128.alpha.value not in calls
    assert calls[-1] == est.alpha.value and abs(est.rho_hat + 1.6) <= 0.05
    calls.clear()
    # at n <= q the series stops before the resonance at q + 1
    for q, n in [(34, 34), (34, 32)]:
        with pytest.raises(PreconditionError, match="0 < q < n"):
            find_alpha_with_rho(QUAD, -1.6, 21, q, golden_128, n=n)
    with pytest.raises(PreconditionError, match="q must be >= 1"):
        find_alpha_with_rho(QUAD, -1.6, 21, 0, golden_128, n=128)
    assert calls == []


@pytest.mark.parametrize("target, p, q, message", [
    (-1.2, 13.5, 21, "p must be an integer, got 13.5"),
    (-1.2, 13, 21.0, "q must be an integer, got 21.0"),
    (math.nan, 13, 21, "target_rho must be finite, got nan"),
    (-math.inf, 13, 21, "target_rho must be finite, got -inf"),
], ids=["float-p", "float-q", "nan-target", "minus-inf-target"])
def test_an_anchor_and_a_target_are_checked_before_any_estimate(monkeypatch, golden_128, target, p, q, message):
    # a float anchor used to be run (13.5/21 is 9/14, stepped with q = 21's
    # slope), and a NaN target failed the bracket as a NumericalError
    calls, _ = _recording_estimates(monkeypatch)
    with pytest.raises(PreconditionError, match=message):
        find_alpha_with_rho(QUAD, target, p, q, golden_128, n=128)
    assert calls == []


def test_a_default_step_estimates_at_most_three_probe_rows(monkeypatch):
    probes, searching = [], []  # per find_alpha_with_rho call, the alphas it estimated
    search = construction.find_alpha_with_rho
    single, batch = construction.rho_coefficient, construction.rho_coefficients

    def recording(*args, **kwargs):
        probes.append([])
        searching.append(True)
        try:
            return search(*args, **kwargs)
        finally:
            searching.pop()

    def counting_single(family, alpha, n):
        if searching:  # alpha_0 and the flank scans are no probes
            probes[-1].append(alpha)
        return single(family, alpha, n)

    def counting_batch(family, alphas, n):
        if searching:
            probes[-1].extend(alphas)
        return batch(family, alphas, n)

    monkeypatch.setattr(construction, "find_alpha_with_rho", recording)
    monkeypatch.setattr(construction, "rho_coefficient", counting_single)
    monkeypatch.setattr(construction, "rho_coefficients", counting_batch)
    rep = run_construction(ConstructionConfig())
    assert [step.retries for step in rep.steps] == [0, 0, 0] and len(probes) == 3
    assert max(map(len, probes)) <= 3
    # neither the anchor nor the held above end is estimated; the last probe is the step's alpha
    starts = [rep.alpha0] + [step.alpha for step in rep.steps]
    for rows, start, step in zip(probes, starts, rep.steps):
        assert start not in rows and step.anchor_p / step.anchor_q not in rows
        assert rows[-1] == step.alpha


@pytest.mark.parametrize("fam_id", ["exp", "quadratic"])
def test_a_search_solves_one_row_per_probe(monkeypatch, fam_id):
    # each probe is one single-row Siegel solve, whatever rows a solver
    # block of the family could hold; the anchor and the held above end
    # are not solved
    family = get_family(fam_id)
    golden = golden_rotation().value
    above = rho_coefficient(family, golden, 256)
    rows, probes = [], []
    solve, estimate = linearize._siegel_rows, construction.rho_coefficient

    def recording_solve(family, lams, divisors):
        rows.append(lams.size)
        return solve(family, lams, divisors)

    def recording_estimate(family, alpha, n):
        probes.append(alpha)
        return estimate(family, alpha, n)

    monkeypatch.setattr(linearize, "_siegel_rows", recording_solve)
    monkeypatch.setattr(construction, "rho_coefficient", recording_estimate)
    est = find_alpha_with_rho(family, above.rho_hat - 0.2, 21, 34, above, n=256)
    assert abs(est.rho_hat - (above.rho_hat - 0.2)) <= 0.02
    assert probes and probes[-1] == est.alpha.value and len(set(probes)) == len(probes)
    assert 21 / 34 not in probes and golden not in probes
    assert rows == [1] * len(probes)


def test_the_dip_law_holds_at_21_34():
    # the law the search aims by: near p/q, rho_hat - (1/q) log|alpha - p/q|
    # is one constant L, from both sides (measured spread 7.1e-4 around -0.844)
    offsets = [s * e for e in (3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7, 3e-8, 1e-8) for s in (1, -1)]
    alphas = [21 / 34 + e for e in offsets]
    estimates = rho_coefficients(QUAD, alphas, 512)
    assert all(est.converged for est in estimates)
    L = [est.rho_hat - math.log(abs(a - 21 / 34)) / 34 for a, est in zip(alphas, estimates)]
    assert max(L) - min(L) <= 1e-3


def _log_landscape(anchor, slope, level=0.0):
    """A stand-in estimator whose value is level + slope * log|alpha - anchor|."""
    def fake(family, alpha, n):
        return _reading(level + slope * math.log(abs(alpha - anchor)) if alpha != anchor else -math.inf,
                        alpha)
    return fake


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("target", [math.log(1e-14) / 34, math.log(3e-3) / 34], ids=["deep", "shallow"])
def test_a_linear_law_lands_in_at_most_two_probes(monkeypatch, side, target):
    # the law rho = t / 34 at 21/34, with the held above end 0.036 below its
    # line, as the golden mean sits off 21/34's: the first probe, aimed from
    # the above end, reads 0.036 high, and the second, aimed from the first, lands
    anchor = 21 / 34
    monkeypatch.setattr(construction, "rho_coefficient", _log_landscape(anchor, 1 / 34))
    calls, _ = _recording_estimates(monkeypatch)
    held = _log_landscape(anchor, 1 / 34, level=-0.036)(QUAD, anchor + side * 3e-2, 256)
    est = find_alpha_with_rho(QUAD, target, 21, 34, held, tol_rho=0.005)
    alpha = est.alpha.value
    assert len(calls) == 2 and calls[-1] == alpha
    assert math.copysign(1.0, alpha - anchor) == side
    # exactly on target but for the rounding of alpha to a float
    assert abs(est.rho_hat - target) <= math.ulp(anchor) / abs(alpha - anchor) / 34


def _dented_landscape(anchor, q):
    """The dip law with dents: rho = t/q + 0.1 sin(3t) in t = log|alpha -
    anchor|, with no disc (-infinity) wherever sin(7t) > 0.95."""
    def fake(family, alpha, n):
        t = math.log(abs(alpha - anchor)) if alpha != anchor else -math.inf
        dented = t > -math.inf and math.sin(7 * t) <= 0.95
        return _reading(t / q + 0.1 * math.sin(3 * t) if dented else -math.inf, alpha)
    return fake


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("target", [-0.45, -0.6, -0.9, -1.2])
def test_a_non_monotone_landscape_is_searched_inside_its_bracket(monkeypatch, side, target):
    anchor = 21 / 34
    above = anchor + side * 1e-2
    landscape = _dented_landscape(anchor, 34)
    monkeypatch.setattr(construction, "rho_coefficient", landscape)
    calls, results = _recording_estimates(monkeypatch)
    got = outcome(find_alpha_with_rho, QUAD, target, 21, 34, landscape(QUAD, above, 256), 0.005)
    # replay the bracket: every probe lies strictly inside the one it was aimed into
    lo, hi = anchor, above
    for alpha, est in zip(calls, results):
        assert min(lo, hi) < alpha < max(lo, hi)
        if est.rho_hat < target:
            lo = alpha
        else:
            hi = alpha
    assert isinstance(got, BracketFailureError) or (
        got.alpha.value == calls[-1] and abs(got.rho_hat - target) <= 0.005)


@pytest.mark.parametrize("slope", [1.5, 3, 5])
@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("target", [-0.45, -0.6, -0.9, -1.2])
def test_a_law_steeper_than_one_over_q_lands_by_the_secant(monkeypatch, slope, side, target):
    # rho = (slope/34) t at 21/34: the first probe, aimed by the law 1/34
    # from the above end, overshoots below the target, and the Illinois
    # secant between the two finite ends lands; aiming by the law from the
    # last reading instead needs up to 11 probes on these 20 searches
    anchor = 21 / 34
    landscape = _log_landscape(anchor, slope / 34)
    monkeypatch.setattr(construction, "rho_coefficient", landscape)
    calls, _ = _recording_estimates(monkeypatch)
    held = landscape(QUAD, anchor + side * 1e-2, 256)
    got = outcome(find_alpha_with_rho, QUAD, target, 21, 34, held, 0.005)
    if held.rho_hat > target:
        assert abs(got.rho_hat - target) <= 0.005 and len(calls) <= 3, (got, calls)
    else:
        assert isinstance(got, BracketFailureError) and not calls


def test_a_tight_tolerance_certifies_through_the_secant(monkeypatch):
    # the default run at tol_rho = 0.001: every first probe, aimed by the
    # dip law, misses by more than that, and every search lands on its
    # second; two of those are secant steps (bisection in their place
    # needs 7 probes a search)
    calls, _ = _recording_estimates(monkeypatch)
    probes = []
    search = construction.find_alpha_with_rho

    def recording(*args):
        before = len(calls)
        est = search(*args)
        probes.append(len(calls) - before)
        return est

    monkeypatch.setattr(construction, "find_alpha_with_rho", recording)
    rep = run_construction(ConstructionConfig(tol_rho=0.001))
    assert [(s.anchor_p, s.anchor_q, s.retries) for s in rep.steps] == [(21, 34, 0)] * 3
    assert all(abs(s.achieved_rho - s.target_rho) <= 0.001 for s in rep.steps)
    assert probes == [2, 2, 2]


def test_adjacent_bracket_ends_exhaust_float_resolution(monkeypatch):
    landscape = _log_landscape(3 / 8, 1.0)
    monkeypatch.setattr(construction, "rho_coefficient", landscape)
    held = landscape(QUAD, math.nextafter(3 / 8, 1.0), 256)
    with pytest.raises(BracketFailureError, match="bracket exhausted float resolution"):
        find_alpha_with_rho(QUAD, -40.0, 3, 8, held)


@pytest.mark.parametrize("ulps", [1, 8])
def test_the_search_exhausts_float_resolution(monkeypatch, ulps):
    landscape = _log_landscape(3 / 8, 1.0)
    monkeypatch.setattr(construction, "rho_coefficient", landscape)
    held = landscape(QUAD, 3 / 8 + ulps * math.ulp(3 / 8), 256)
    with pytest.raises(BracketFailureError, match="bracket exhausted float resolution"):
        find_alpha_with_rho(QUAD, -40.0, 3, 8, held)


@pytest.mark.parametrize("max_iter", [1, 6])
def test_the_search_runs_out_of_steps(monkeypatch, max_iter):
    # a step landscape: -1 up to 1e-9 from 3/8, +1 beyond, never within
    # tol_rho of the target 0; each step is one probe
    monkeypatch.setattr(construction, "MAX_ITER", max_iter)
    monkeypatch.setattr(construction, "rho_coefficient",
                        lambda family, alpha, n: _reading(math.copysign(1.0, abs(alpha - 3 / 8) - 1e-9), alpha))
    calls, _ = _recording_estimates(monkeypatch)
    with pytest.raises(BracketFailureError, match=f"no crossing within {max_iter} probes"):
        find_alpha_with_rho(QUAD, 0.0, 3, 8, _reading(1.0, 3 / 8 + 1e-2), tol_rho=0.5)
    assert len(calls) == max_iter  # one probe per step; the held above end is not solved


@pytest.mark.parametrize("target, walked", [(math.log(0.25) / 2, True), (math.log(0.7) / 2, False)],
                         ids=["walked", "not-walked"])
def test_a_probe_outside_the_unit_interval_fails_only_when_walked(monkeypatch, target, walked):
    # a bracket from the anchor 3/2 down to the held end at 0.5, on the law
    # rho = log|alpha - 3/2| / 2: the law puts the target 0.25 below 3/2, at
    # 1.25, where the probe is refused; the target 0.7 below it sits at 0.8,
    # and the search lands there without estimating any alpha past 1
    monkeypatch.setattr(construction, "rho_coefficient", _log_landscape(1.5, 1 / 2))
    calls, _ = _recording_estimates(monkeypatch)
    got = outcome(find_alpha_with_rho, QUAD, target, 3, 2, _reading(0.0, 0.5), 0.002)
    assert any(alpha > 1.0 for alpha in calls) == walked
    assert isinstance(got, PreconditionError) == walked


@pytest.mark.parametrize("alpha0", [golden_rotation(), rotation_from_cf([2, 1] + [1] * 38),
                                    rotation_from_cf([3, 3] + [1] * 38)],
                         ids=["default", "cf-2-1", "cf-3-3"])
def test_every_search_of_a_run_probes_inside_its_bracket(monkeypatch, alpha0):
    searches = []
    search = construction.find_alpha_with_rho

    def recording(*args):
        searches.append(args)
        return search(*args)

    with monkeypatch.context() as m:
        m.setattr(construction, "find_alpha_with_rho", recording)
        rep = run_construction(ConstructionConfig(alpha0=alpha0))
    assert len(searches) >= len(rep.steps) == 3
    calls, results = _recording_estimates(monkeypatch)
    for family, target, p, q, above, tol_rho, n in searches:
        calls.clear(), results.clear()
        got = outcome(find_alpha_with_rho, family, target, p, q, above, tol_rho, n)
        lo, hi = p / q, above.alpha.value
        for alpha, est in zip(calls, results):
            assert min(lo, hi) < alpha < max(lo, hi)
            if construction._effective_value(est) < target:
                lo = alpha
            else:
                hi = alpha
        assert isinstance(got, BracketFailureError) or abs(got.rho_hat - target) <= tol_rho


def _linear_alpha_bisection(family, target_rho, p, q, above, tol_rho=0.02, n=256):
    """Oracle: the search as it stood before it bisected the log offset,
    each probe at the midpoint in alpha of the bracket from the anchor p/q
    (-infinity) to the held estimate above."""
    if not above.rho_hat > target_rho:
        raise BracketFailureError("oracle: not a bracket")
    lo, hi = p / q, above.alpha.value
    for _ in range(construction.MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            raise BracketFailureError("bracket exhausted float resolution")
        est = outcome(construction.rho_coefficient, family, mid, n)
        val = construction._effective_value(est)
        if abs(val - target_rho) <= tol_rho:
            return est
        if val < target_rho:
            lo = mid
        else:
            hi = mid
    raise BracketFailureError("oracle: no crossing")


def test_log_offset_search_against_the_linear_alpha_oracle(monkeypatch):
    calls = []
    estimate = construction.rho_coefficient

    def counting(family, alpha, n):
        calls.append(alpha)
        return estimate(family, alpha, n)

    monkeypatch.setattr(construction, "rho_coefficient", counting)
    with monkeypatch.context() as m:
        m.setattr(construction, "find_alpha_with_rho", _linear_alpha_bisection)
        oracle = run_construction(ConstructionConfig())
    oracle_calls, calls[:] = len(calls), []
    rep = run_construction(ConstructionConfig())
    for new, old in zip(rep.steps, oracle.steps, strict=True):
        assert abs(new.achieved_rho - new.target_rho) <= 0.02
        assert (new.anchor_p, new.anchor_q) == (old.anchor_p, old.anchor_q)
        assert new.retries <= old.retries
    assert 2 * len(calls) <= oracle_calls


def test_a_crossing_inside_the_anchor_rank_floor_certifies():
    # alpha0 = [0; 2, 3, 1, ...]: step 3's crossing sits ~110 ulps from
    # 18/41, closer than the MIN_OFFSET_EPS ulps that rank anchors, so a
    # search that floored the anchor's distance there would stall
    rep = run_construction(ConstructionConfig(alpha0=rotation_from_cf([2, 3] + [1] * 38)))
    _assert_certified(rep, 3)
    step = rep.steps[2]
    assert step.eps < construction.MIN_OFFSET_EPS * math.ulp(step.anchor_p / step.anchor_q)


def test_bracket_failure_when_target_unreachable(golden_128):
    with pytest.raises(BracketFailureError, match="above end estimates"):
        find_alpha_with_rho(QUAD, -1.0, 1, 2, golden_128, n=128)


def test_an_estimate_above_the_koebe_cap_is_raised_not_bracketed():
    # the quadratic map with a false singular value v = 1e-3: estimates near
    # the golden mean break the cap M = -5.52, which is no "no disc" -inf;
    # the held above end is a stand-in, so the first probe meets the cap
    with pytest.warns(UserWarning, match="single-singular-value"):
        fam = custom_family("quadratic-v", 1e-3, 1, QUAD._coeff_gen, QUAD._point_eval)
    with pytest.raises(NumericalError, match="above the Koebe cap"):
        find_alpha_with_rho(fam, -1.5, 21, 34, _reading(-1.0), n=128)


def test_bisection_lands_on_target(golden_128):
    est = find_alpha_with_rho(QUAD, -1.6, 21, 34, golden_128, tol_rho=0.05, n=128)
    assert 21 / 34 < est.alpha.value < golden_rotation().value
    assert abs(est.rho_hat - (-1.6)) <= 0.05


def test_bisection_from_an_anchor_above_alpha(golden_128):
    est = find_alpha_with_rho(QUAD, -1.6, 34, 55, golden_128, tol_rho=0.05, n=128)
    assert golden_rotation().value < est.alpha.value < 34 / 55
    assert abs(est.rho_hat - (-1.6)) <= 0.05


def test_bisection_reports_a_missing_crossing(monkeypatch, golden_128):
    monkeypatch.setattr(construction, "MAX_ITER", 1)
    with pytest.raises(BracketFailureError, match="no crossing within 1 probes"):
        find_alpha_with_rho(QUAD, -1.6, 21, 34, golden_128, tol_rho=1e-9, n=128)


def test_bracket_ends_must_differ():
    with pytest.raises(PreconditionError, match="bracket ends must differ"):
        find_alpha_with_rho(QUAD, -1.6, 21, 34, _reading(0.0, 21 / 34), n=128)


def test_tolerance_must_be_finite(golden_128):
    # an infinite tolerance would accept the first probe that is not -inf
    with pytest.raises(PreconditionError, match="tol_rho must be positive and finite"):
        find_alpha_with_rho(QUAD, -1.6, 21, 34, golden_128, tol_rho=math.inf, n=128)


def test_rho_infinity_override():
    rep = run_construction(ConstructionConfig(depth=1, rho_infinity=-1.52))
    assert rep.rho_infinity == pytest.approx(-1.52)
    assert rep.schedule[0] == pytest.approx((rep.rho0 - 1.52) / 2)


@pytest.mark.parametrize("settings, message", [
    # quadratic's coefficient estimate at this alpha0 and degree 64 does not converge
    ({"alpha0": rotation_from_float(0.8268610301148979), "n_series": 64}, "base rotation number"),
    ({"rho_infinity": 0.0}, "not below the base estimate"),
    # -1.0 lies above the base estimate -1.1167
    ({"depth": 2, "schedule": (-1.0, -1.05)}, "strictly between"),
])
def test_run_construction_checks_its_base_and_schedule(settings, message):
    with pytest.raises(PreconditionError, match=message):
        run_construction(ConstructionConfig(**settings))


# an exact rational alpha0 has no Siegel series: the float guard's breakdown
# at 2/5, and at 233/377 (resonance beyond n = 256) the rational's own
@pytest.mark.parametrize("p, q, k", [(2, 5, 6), (233, 377, 378)])
def test_a_rational_alpha0_has_no_siegel_series(p, q, k):
    with pytest.raises(DivisorBreakdownError) as exc:
        run_construction(ConstructionConfig(alpha0=rational_rotation(p, q)))
    assert exc.value.k == k


@pytest.mark.parametrize("settings, message", [
    ({"depth": 1.5}, "depth must be an integer, got 1.5"),
    ({"n_series": 256.0}, "series degree must be an integer, got 256.0"),
    ({"depth": 3, "schedule": "abc"}, "sequence of numbers"),
    ({"depth": 1, "schedule": (None,)}, "sequence of numbers"),
    ({"alpha0": 0.618}, "RotationNumber"),
    ({"tol_rho": math.inf}, "positive and finite"),
    ({"eps0": math.inf}, "positive and finite"),
    ({"delta": math.inf}, "positive and finite"),
    ({"rho_infinity": -math.inf}, "rho_infinity must be finite"),
    ({"rho_infinity": math.nan}, "rho_infinity must be finite"),
    # e^-800 underflows to a norm radius of 0
    ({"rho_infinity": -800.0}, "rho_infinity must be finite"),
    # each passes "strictly decreasing", which no comparison with NaN fails
    ({"depth": 2, "schedule": (math.nan, -1.3)}, r"schedule targets must be finite, got \(nan, -1\.3\)"),
    ({"depth": 2, "schedule": (math.inf, -1.3)}, "schedule targets must be finite"),
    ({"depth": 2, "schedule": (-1.3, -math.inf)}, "schedule targets must be finite"),
], ids=["float-depth", "float-n_series", "string-schedule", "none-in-schedule", "float-alpha0",
        "infinite-tol_rho", "infinite-eps0", "infinite-delta", "minus-infinite-rho_infinity",
        "nan-rho_infinity", "underflowing-rho_infinity", "nan-schedule", "infinite-schedule",
        "minus-infinite-schedule"])
def test_config_rejects_malformed_settings(settings, message):
    with pytest.raises(PreconditionError, match=message):
        ConstructionConfig(**settings)


def test_config_takes_numpy_integers():
    cfg = ConstructionConfig(depth=np.int64(2), n_series=np.int32(128))
    assert (cfg.depth, cfg.n_series) == (2, 128)


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
