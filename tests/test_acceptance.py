"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces its stated tolerance and
runtime budget, and prints a single PASS/FAIL line (visible with -v as the
test name, with -s as the printed line).  The headline smoothness result
is an infinite-limit statement; what is checked here is the computable
substrate: bounds, residuals, estimator agreement, harmonicity, and the
finite-depth construction certificate.
"""

import cmath
import math
import time

import numpy as np
import pytest

from siegelnum import (
    ConstructionConfig,
    get_family,
    golden_rotation,
    harmonic_check,
    harmonic_measure,
    koenigs_series,
    conjugacy_residual,
    poisson_bound_check,
    qa_norm,
    rational_rotation,
    rho_coefficient,
    rho_radial,
    run_construction,
    siegel_series,
    silver_rotation,
    u_values,
    yoccoz_w,
)
from siegelnum.errors import NumericalError, SiegelnumError
from siegelnum.linearize import koebe_cap_log
from siegelnum.series import TruncatedSeries

QUAD = get_family("quadratic")


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_koebe_bound_on_polar_grid():
    t0 = time.perf_counter()
    violations = 0
    successes = 0
    unsuccessful = 0
    lams = [
        r * cmath.exp(2j * cmath.pi * j / 100)
        for r in np.linspace(0.05, 0.95, 100)
        for j in range(100)
    ]
    for fam_id in ("quadratic", "exp"):
        fam = get_family(fam_id)
        for val in u_values(fam, lams, n=64):
            if isinstance(val, NumericalError):
                if "Koebe bound violated" in str(val):
                    violations += 1
                else:
                    unsuccessful += 1
                continue
            if isinstance(val, SiegelnumError):
                raise val
            successes += 1
            assert val.u < koebe_cap_log(fam)
    wall = time.perf_counter() - t0
    ok = violations == 0 and wall < 120
    _report(
        1,
        ok,
        f"0 Koebe violations required, saw {violations} "
        f"({successes} ok, {unsuccessful} non-converged) in {wall:.1f}s (< 120s)",
    )


def test_criterion_02_v_asymptotic_all_families():
    t0 = time.perf_counter()
    worst = 0.0
    lams = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
    for fam_id in ("quadratic", "poly_3", "exp", "zexp", "reduced(sin)", "reduced(tan)"):
        fam = get_family(fam_id)
        ratios = np.array([yoccoz_w(fam, float(l), n=96).w / l for l in lams])
        fit = np.polyfit(lams, ratios, 1)
        rel = abs(fit[1] - fam.v) / abs(fam.v)
        worst = max(worst, rel)
    wall = time.perf_counter() - t0
    ok = worst <= 0.01 and wall < 60
    _report(2, ok, f"extrapolated w/lambda vs v: worst {worst:.2e} (<= 1e-2), {wall:.1f}s")


def test_criterion_03_linearization_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_koenigs = 0.0
    families = [get_family(f) for f in ("quadratic", "poly_3", "exp", "zexp", "sin", "tan")]
    lams = []
    while len(lams) < 20:
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if 1e-3 < abs(z) <= 0.9:
            lams.append(z)
    for fam in families:
        for lam in lams:
            res = conjugacy_residual(koenigs_series(fam, lam, 128))
            worst_koenigs = max(worst_koenigs, res)
    worst_siegel = max(
        conjugacy_residual(siegel_series(fam, golden_rotation(), 128))
        for fam in families
    )
    wall = time.perf_counter() - t0
    ok = worst_koenigs <= 1e-9 and worst_siegel <= 1e-7 and wall < 60
    _report(
        3,
        ok,
        f"Koenigs residual {worst_koenigs:.2e} (<= 1e-9), "
        f"Siegel residual {worst_siegel:.2e} (<= 1e-7), {wall:.1f}s",
    )


def test_criterion_04_estimator_cross_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for fam_id in ("quadratic", "exp"):
        fam = get_family(fam_id)
        for rot in (golden_rotation(), silver_rotation()):
            radial = rho_radial(fam, rot, depth=14, n=128)
            coeff = rho_coefficient(fam, rot, 128)
            worst = max(worst, abs(radial.rho_hat - coeff.rho_hat))
    wall = time.perf_counter() - t0
    ok = worst <= 0.05 and wall < 300
    _report(4, ok, f"radial vs coefficient: worst gap {worst:.3f} (<= 0.05), {wall:.1f}s")


def test_criterion_05_rational_collapse():
    t0 = time.perf_counter()
    flagged = {}
    for p, q in ((1, 2), (1, 3), (2, 5)):
        est = rho_radial(QUAD, rational_rotation(p, q), depth=14, n=128)
        flagged[f"{p}/{q}"] = est.diverging_to_minus_infinity
    wall = time.perf_counter() - t0
    ok = all(flagged.values()) and wall < 300
    _report(5, ok, f"diverging flags {flagged}, {wall:.1f}s")


def test_criterion_06_harmonicity_of_u():
    t0 = time.perf_counter()

    def u_field(lams):
        return np.array(
            [math.nan if isinstance(v, SiegelnumError) else v.u for v in u_values(QUAD, lams, n=64)]
        )

    computed = harmonic_check(u_field, nodes=64)
    oracle = harmonic_check(lambda z: np.log(np.abs(z)), nodes=64)
    ratio = computed.max_deviation / oracle.max_deviation
    wall = time.perf_counter() - t0
    ok = ratio <= 10.0 and wall < 300
    _report(
        6,
        ok,
        f"mean-value deviation {computed.max_deviation:.2e} vs oracle "
        f"{oracle.max_deviation:.2e} (ratio {ratio:.3f} <= 10), {wall:.1f}s",
    )


def test_criterion_07_poisson_bound_and_partition():
    t0 = time.perf_counter()
    delta = 0.01
    alpha0 = golden_rotation().value
    scan = []
    for j in range(1, 9):
        for sgn in (1.0, -1.0):
            try:
                scan.append(
                    rho_coefficient(QUAD, alpha0 + sgn * delta * j / 8, 128).rho_hat
                )
            except SiegelnumError:
                continue
    ray = rho_radial(QUAD, golden_rotation(), depth=12, n=128)
    scan.extend(u for _, u in ray.samples)
    cap = max(scan)
    report = poisson_bound_check(
        QUAD, golden_rotation(), delta, cap, cap, ray_samples=16, n=128
    )

    rng = np.random.default_rng(7)
    worst_sum = 0.0
    for _ in range(1000):
        cuts = sorted(rng.uniform(size=4))
        ts = [0.0] + cuts + [1.0]
        z = rng.uniform(0, 0.97) * cmath.exp(2j * cmath.pi * rng.uniform())
        total = sum(harmonic_measure(a, b, z) for a, b in zip(ts, ts[1:]))
        worst_sum = max(worst_sum, abs(total - 1.0))
    wall = time.perf_counter() - t0
    ok = report.violations == 0 and worst_sum <= 1e-12 and wall < 120
    _report(
        7,
        ok,
        f"poisson violations {report.violations} (== 0, min margin "
        f"{report.min_margin:.3f}), partition-of-unity error {worst_sum:.2e} "
        f"(<= 1e-12), {wall:.1f}s",
    )


def test_criterion_08_norm_suite():
    t0 = time.perf_counter()
    res_a = qa_norm(TruncatedSeries.from_coeffs([0, 1], degree=16), 0.5)
    res_b = qa_norm(TruncatedSeries.from_coeffs([0, 0, 1], degree=16), 1.0)
    hand_ok = abs(res_a.value - 0.5) <= 1e-9 and abs(res_b.value - 1.0) <= 1e-9

    rng = np.random.default_rng(8)
    series = []
    for _ in range(100):
        n = int(rng.integers(24, 41))
        coeffs = (0.5 + rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        series.append(TruncatedSeries.from_coeffs(coeffs))
    worst = 0.0
    for g in series:
        base = qa_norm(g, 0.25, order_cap=8).value
        assert base > 0
        c = 0.1 + 2.9 * rng.uniform()
        scaled = qa_norm(g * complex(c), 0.25, order_cap=8).value
        worst = max(worst, abs(scaled - c * base) / (c * base))
    for a, b in zip(series[0::2], series[1::2]):
        na = qa_norm(a, 0.25, order_cap=8).value
        nb = qa_norm(b, 0.25, order_cap=8).value
        nab = qa_norm(a + b, 0.25, order_cap=8).value
        excess = (nab - na - nb) / (na + nb)
        worst = max(worst, max(excess, 0.0))
    wall = time.perf_counter() - t0
    ok = hand_ok and worst <= 1e-12 and wall < 30
    _report(
        8,
        ok,
        f"hand values ok={hand_ok}, worst axiom deviation {worst:.2e} "
        f"(<= 1e-12 relative), {wall:.1f}s",
    )


def test_criterion_09_construction_certificate():
    t0 = time.perf_counter()
    report = run_construction(ConstructionConfig())
    budgets = [0.1, 0.05, 0.025]
    nested = True
    alpha_prev, eps_prev = report.alpha0, 0.05
    for step in report.steps:
        nested &= abs(step.alpha - alpha_prev) + step.eps <= eps_prev + 1e-15
        alpha_prev, eps_prev = step.alpha, step.eps
    deltas_ok = all(s.norm_delta <= b for s, b in zip(report.steps, budgets))
    targets_ok = all(abs(s.achieved_rho - s.target_rho) <= 0.02 for s in report.steps)
    ball_ok = report.total_distance <= 0.2
    inj_ok = report.boundary.gprime_min > 0
    wall = time.perf_counter() - t0
    ok = (
        len(report.steps) == 3
        and nested and deltas_ok and targets_ok and ball_ok and inj_ok
        and wall < 900
    )
    _report(
        9,
        ok,
        f"depth-3 certificate: nested={nested}, deltas<=budgets={deltas_ok}, "
        f"targets within 0.02={targets_ok}, total distance "
        f"{report.total_distance:.2e} (<= 0.2), gprime_min "
        f"{report.boundary.gprime_min:.3f} (> 0), {wall:.1f}s",
    )


def test_criterion_10_symmetry_reduction():
    t0 = time.perf_counter()
    lam = 0.4
    h = koenigs_series(get_family("sin"), lam, 130).h
    odd = h.coeffs[1::2]
    transported = np.convolve(odd, odd)[:64]  # G(w) = w * (sum a_{2j+1} w^j)^2
    H = koenigs_series(get_family("reduced(sin)"), lam * lam, 64).h
    coeff_err = float(np.max(np.abs(H.coeffs[1:65] - transported)))

    two_alpha = 2.0 * golden_rotation().value - 1.0
    rho_red = rho_coefficient(get_family("reduced(sin)"), two_alpha, 128).rho_hat
    rho_sin = rho_coefficient(get_family("sin"), golden_rotation(), 128).rho_hat
    radius_gap = abs(rho_red - 2.0 * rho_sin)
    wall = time.perf_counter() - t0
    ok = coeff_err <= 1e-8 and radius_gap <= 0.1 and wall < 120
    _report(
        10,
        ok,
        f"square-transport coefficient error {coeff_err:.2e} (<= 1e-8), "
        f"radius relation gap {radius_gap:.3f} (<= 0.1), {wall:.1f}s",
    )
