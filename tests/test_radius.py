import dataclasses
import json
import math
import pickle
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
from siegelnum import linearize, radius
from siegelnum.errors import (
    CoefficientOverflowError,
    DivisorBreakdownError,
    EstimateUnavailableError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
    outcome,
)
from siegelnum.families import custom_family

QUAD = get_family("quadratic")
ALL_FAMILY_IDS = (
    "quadratic", "poly_3", "exp", "zexp", "sin", "tan", "reduced(sin)", "reduced(tan)",
)


# -- rotation-number plumbing -------------------------------------------------


def test_parse_rotation_forms():
    assert parse_rotation("golden").tag == "golden"
    assert parse_rotation("silver").value == pytest.approx(math.sqrt(2) - 1)
    r = parse_rotation("rat:2/5")
    assert r.is_rational and (r.p, r.q) == (2, 5)
    assert parse_rotation("float:0.375").value == 0.375
    c = parse_rotation("cf:2,3,4")
    assert c.value == pytest.approx(13 / 30)


@pytest.mark.parametrize(
    "bad",
    ["", "rat:5/0", "rat:7/5", "float:1.5", "cf:", "huh", "rat:a/b", "rat:3", "float:abc", "cf:1,x",
     "cf:0,1"],
)
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


@pytest.mark.parametrize(
    "value, terms, expected",
    [(5e-324, 20, [2**1074]), (1 - 2**-53, 20, [1]), (13 / 30, 8, [2, 3, 3, 1]),
     ((math.sqrt(5.0) - 1.0) / 2.0, 24, [1] * 24)],
    ids=["subnormal", "below-1", "13/30", "golden"],
)
def test_cf_expand_is_exact_for_the_float(value, terms, expected):
    # Euclid on the float's own fraction: the smallest subnormal 2^-1074 is
    # one quotient, and a float just below 1 stops after its first
    assert cf_expand(value, terms) == expected


@pytest.mark.parametrize("value", [math.nan, 0.0, 1.0, 1.5], ids=["nan", "0", "1", "1.5"])
def test_cf_expand_refuses_values_outside_the_unit_interval(value):
    with pytest.raises(PreconditionError, match=r"needs a value in \(0,1\)"):
        cf_expand(value)


def test_rotation_from_cf_matches_the_fraction_loop():
    # the last convergent p/q against [0; a1, ..., ak] summed as Fractions
    # from the tail: same value (both round p/q once), tag, p and q
    rng = np.random.default_rng(20)
    for _ in range(2000):
        coeffs = rng.integers(1, 1001, size=rng.integers(1, 46)).tolist()
        frac = Fraction(0)
        for a in reversed(coeffs):
            frac = 1 / (a + frac)
        rational = len(coeffs) < 30 and frac.denominator <= 10**15
        rot = rotation_from_cf(coeffs)
        assert rot.value == float(frac)
        assert rot.tag == ("rational" if rational else "cf")
        if rational:
            assert (rot.p, rot.q) == (frac.numerator, frac.denominator)


def test_rotation_from_float_tags():
    r = rotation_from_float(0.3819660112501051)
    assert r.tag == "float" and not r.is_rational


# -- estimators ---------------------------------------------------------------


def test_radial_estimate_golden_frozen_value():
    est = rho_radial(QUAD, golden_rotation(), depth=12, n=128)
    assert est.converged and not est.diverging_to_minus_infinity
    assert est.rho_hat == pytest.approx(-1.126, abs=5e-3)


@pytest.mark.parametrize("alpha", [0.66665823335223, 0.9977401598433716])
def test_a_float_near_a_rational_reads_no_minus_infinity(alpha):
    # floats, not rationals, so rho is finite: 8.4e-6 off 2/3, and one whose
    # depths 8-14 fail on entry radii; each ray still drops at depth 14
    est = rho_radial(QUAD, alpha, depth=14, n=128)
    assert est.rho_hat != -math.inf and not est.converged


# exact rationals whose rays drop too slowly at depth 14 for a drop test to
# tell them from convergence; the input says p/q, and the scan still runs
@pytest.mark.parametrize("fam_id, p, q", [("sin", 1, 5), ("tan", 2, 5), ("quadratic", 2, 7), ("reduced(tan)", 6, 7)])
def test_an_exact_rational_reads_minus_infinity(fam_id, p, q):
    est = rho_radial(get_family(fam_id), rational_rotation(p, q), depth=14, n=128)
    assert est.diverging_to_minus_infinity and not est.converged
    assert len(est.samples) + len(est.failures) == 13


def test_coefficient_estimate_golden_frozen_value():
    est = rho_coefficient(QUAD, golden_rotation(), 256)
    assert est.converged
    assert est.rho_hat == pytest.approx(-1.1167, abs=5e-3)


@pytest.mark.parametrize("fam_id, n", [("quadratic", 256), ("sin", 256), ("exp", 128)])
def test_fit_slope_matches_polyfit(fam_id, n):
    # the closed-form slope against np.polyfit on the estimator's own
    # windows (sin's keeps only odd k), full and half, at seeded alphas
    fam = get_family(fam_id)
    alphas = np.random.default_rng(7).uniform(0.05, 0.95, 8)
    checked = 0
    for est in rho_coefficients(fam, alphas, n):
        if not isinstance(est, radius.RadiusEstimate):
            continue
        ks, ys = (np.array(col) for col in zip(*est.samples))
        assert (ks.size < n // 2 + 1) == (fam.symmetry_order > 1)
        mid = ks.size // 2
        for window in (slice(None), slice(None, mid), slice(mid, None)):
            ref = np.polyfit(ks[window], ys[window], 1)[0]
            assert abs(radius._fit_slope(ks[window], ys[window]) - ref) <= 1e-13 * abs(ref)
        checked += 1
    assert checked >= 6


# Identity oracles for the odd families.  reduced(f) is f read through
# w -> w^2 at twice the rotation number, and f commutes with w -> -w, so
# rho_reduced(f)(alpha) = 2 rho_f(alpha / 2) and rho_f(beta) = rho_f(beta + 1/2).
# The alphas have full mantissas: a decimal such as 0.3 is the rational 3/10,
# where even the radial readings miss the reduction by 0.068.
ODD_ALPHAS = {"golden": golden_rotation().value, "silver": silver_rotation().value}


@pytest.mark.parametrize("alpha", ODD_ALPHAS.values(), ids=ODD_ALPHAS.keys())
@pytest.mark.parametrize("fam_id", ["sin", "tan"])
def test_radial_readings_keep_the_odd_identities(fam_id, alpha):
    f, reduced = get_family(fam_id), get_family(f"reduced({fam_id})")
    half, shifted = (rho_radial(f, beta, depth=14, n=128).rho_hat
                     for beta in (alpha / 2, (alpha + 1) / 2))
    assert abs(rho_radial(reduced, alpha, depth=14, n=128).rho_hat - 2 * half) <= 0.005
    assert abs(half - shifted) <= 1e-12


@pytest.mark.parametrize("alpha", ODD_ALPHAS.values(), ids=ODD_ALPHAS.keys())
@pytest.mark.parametrize("fam_id", ["sin", "tan"])
def test_coefficient_readings_keep_the_reduction(fam_id, alpha):
    f, reduced = get_family(fam_id), get_family(f"reduced({fam_id})")
    gap = rho_coefficient(reduced, alpha, 256).rho_hat - 2 * rho_coefficient(f, alpha / 2, 256).rho_hat
    assert abs(gap) <= 0.03


# The two estimators probe different things (boundary values of u, decay of
# the Siegel coefficients), so their gap checks both.  The coefficient reading
# is the higher one in every case here, by 0.004 to 0.029 (ROADMAP item 12's
# k^beta bias).
GAP_ALPHAS = {
    "golden": golden_rotation(),
    "silver": silver_rotation(),
    "(sqrt3-1)/2": rotation_from_float((math.sqrt(3) - 1) / 2),
    "0.254812": rotation_from_float(0.254812),
    "sqrt(1/2)": rotation_from_float(math.sqrt(0.5)),
}
GAP_CASES = [("quadratic", "golden", 12)] + [
    (fam_id, label, 14) for fam_id in ("quadratic", "exp", "sin") for label in GAP_ALPHAS
]


@pytest.mark.parametrize("fam_id, label, depth", GAP_CASES)
def test_estimators_agree(fam_id, label, depth):
    fam, alpha = get_family(fam_id), GAP_ALPHAS[label]
    radial = rho_radial(fam, alpha, depth=depth, n=128)
    coeff = rho_coefficient(fam, alpha, 128)
    assert radial.converged and coeff.converged
    assert abs(coeff.rho_hat - radial.rho_hat) <= 0.05


@pytest.mark.parametrize("alpha", [golden_rotation().value, silver_rotation().value,
                                   golden_rotation().value / 2], ids=["golden", "silver", "golden/2"])
@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_coefficient_reading_meets_the_radial_one_on_every_family(fam_id, alpha):
    # measured: the coefficient reading is 0.011 to 0.029 higher at n = 128
    fam = get_family(fam_id)
    radial, coeff = rho_radial(fam, alpha, depth=14, n=128), rho_coefficient(fam, alpha, 128)
    assert radial.converged and coeff.converged
    assert abs(coeff.rho_hat - radial.rho_hat) <= 0.05


def test_rational_ray_diverges():
    est = rho_radial(QUAD, rational_rotation(1, 2), depth=14, n=128)
    assert est.diverging_to_minus_infinity
    assert est.rho_hat == -math.inf


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


# q >= n: the resonance k = q + 1 lies beyond the series, where a fit would
# read a converged, finite rho_hat; the divisor guard refuses the rational
# itself, before any solve
@pytest.mark.parametrize("p, q, n", [(89, 144, 128), (144, 233, 128), (233, 377, 256)])
def test_an_exact_rational_beyond_the_series_is_a_divisor_breakdown(p, q, n):
    rot = rational_rotation(p, q)
    with pytest.raises(DivisorBreakdownError) as info:
        rho_coefficient(QUAD, rot, n)
    assert (info.value.k, info.value.magnitude) == (q + 1, 0.0)
    broken, golden = rho_coefficients(QUAD, [rot, golden_rotation()], n)
    assert isinstance(broken, DivisorBreakdownError) and str(broken) == str(info.value)
    assert repr(golden) == repr(rho_coefficients(QUAD, [golden_rotation()], n)[0])


# The float guard already trips on the float p/q; with frac(k alpha) rounded once
# the divisor at 128/133 and n = 256 is |lambda^134 - lambda| = 4.5e-14,
# below the floor, so a q > 128 breaks down as p/q must
@pytest.mark.parametrize("p, q", [(128, 133), (129, 137)])
def test_coefficient_estimator_breaks_on_large_q_rational(p, q):
    with pytest.raises(DivisorBreakdownError):
        rho_coefficient(QUAD, rational_rotation(p, q), 256)


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


# near 8/13, the top coefficient has finite parts (|Re g_k| <= 6.7e307,
# |Im g_k| <= 1.8e308) and a modulus above binary64's 1.8e308: the fit of
# log|g_k| would read rho_hat = nan, so the row is an overflow
NEAR_8_13 = 0.6153846153846997


def test_a_modulus_overflow_is_a_coefficient_overflow():
    with pytest.raises(CoefficientOverflowError, match="overflowed binary64 at degree 256;"):
        rho_coefficient(QUAD, NEAR_8_13, 256)


def test_a_modulus_overflow_keeps_its_slot_in_a_batch():
    broken, fine = rho_coefficients(QUAD, [NEAR_8_13, 0.618], 256)
    assert isinstance(broken, CoefficientOverflowError)
    assert "at degree 256;" in str(broken)
    assert repr(fine) == repr(rho_coefficients(QUAD, [0.618], 256)[0])


# Yoccoz's identity: u is harmonic with u <= log 4|v| and u(0) = log|v|, so
# the boundary values rho have mean >= log|v| over the circle.  Stratified
# draws of 512 alpha, the coefficient estimate where it converged and the ray
# elsewhere (the end strata, within 1/512 of 0 and 1, where the Siegel series
# overflows).  The lower edge is the theorem less sampling slack.  The upper
# edge sits above the largest gap of seeds 1-12 (+0.015, SE about 0.02).
@pytest.mark.parametrize("fam_id", ["quadratic", "poly_3"])
def test_boundary_mean_keeps_the_harmonic_identity(fam_id):
    fam = get_family(fam_id)
    for seed in (3, 8, 9, 11):
        rng = np.random.default_rng(seed)
        alphas = ((np.arange(512) + rng.uniform(size=512)) / 512).tolist()
        rhos = np.array([
            est.rho_hat if isinstance(est, radius.RadiusEstimate) and est.converged
            else rho_radial(fam, alpha, depth=14, n=128).rho_hat
            for alpha, est in zip(alphas, rho_coefficients(fam, alphas, 256))
        ])
        gap = rhos.mean() - math.log(abs(fam.v))
        se = rhos.std(ddof=1) / math.sqrt(len(rhos))
        assert -3 * se <= gap <= 0.04, (seed, gap, se)


def _brjuno(alpha):
    """Phi(alpha) = sum_{n>=0} beta_{n-1} log(1/alpha_n), with alpha_0 = alpha,
    alpha_{n+1} = {1/alpha_n}, beta_{-1} = 1 and beta_n = alpha_0...alpha_n;
    stopped once beta < 1e-14 or alpha_n = 0."""
    total, beta, a = 0.0, 1.0, alpha
    while beta >= 1e-14 and a > 0:
        total += beta * math.log(1.0 / a)
        beta *= a
        a = 1.0 / a % 1.0
    return total


# Yoccoz: rho + Phi is bounded on the Brjuno numbers for quadratic.  Over
# seeds 0-19 of this draw the converged sums span [0.1431, 1.5047], the
# minimum at the golden mean (0.1454 without it); the band adds about 0.05
# below and 0.1 above.  Seed 0 keeps 199 of the 201 readings.
def test_brjuno_sum_is_bounded_on_quadratic():
    golden = golden_rotation().value
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert _brjuno(golden) == pytest.approx(phi**2 * math.log(phi), abs=1e-7)
    alphas = [*np.random.default_rng(0).uniform(0.05, 0.95, 200).tolist(), golden]
    sums = [
        est.rho_hat + _brjuno(alpha)
        for alpha, est in zip(alphas, rho_coefficients(QUAD, alphas, 256))
        if isinstance(est, radius.RadiusEstimate) and est.converged
    ]
    assert len(sums) >= 195
    assert 0.10 <= min(sums) and max(sums) <= 1.60, (min(sums), max(sums))


def test_radial_depth_cap_is_the_siegel_edge():
    # the deepest ray radius 1 - 2^-49 is a Koenigs multiplier; 1 - 2^-50 is
    # a float too, but within SIEGEL_EDGE of the circle
    cap = radius.RADIAL_DEPTH_CAP
    assert cap == 49
    linearize._check_multiplier(1.0 - 2.0**-cap)
    with pytest.raises(PreconditionError, match="Siegel regime"):
        linearize._check_multiplier(1.0 - 2.0 ** -(cap + 1))


def test_estimate_above_the_koebe_cap_is_a_numerical_error():
    # the quadratic map with a false singular value v = 1e-3: its disc
    # (rho = -1.106 at the golden mean) exceeds M = log 4 + log|v| = -5.52
    with pytest.warns(UserWarning, match="single-singular-value"):
        fam = custom_family("quadratic-v", 1e-3, 1, QUAD._coeff_gen, QUAD._point_eval)
    with pytest.raises(NumericalError, match="above the Koebe cap"):
        rho_coefficient(fam, golden_rotation(), 128)


def test_estimate_describe_roundtrip():
    est = rho_radial(QUAD, golden_rotation(), depth=8, n=64)
    d = est.describe()
    assert d["method"] == "radial"
    assert len(d["samples"]) == est.samples.__len__()


def test_coefficient_samples_are_the_tuple_of_pairs_to_every_reader():
    # a fit keeps its samples as views of its k and log|g_k| arrays; every
    # reader sees the tuple of (k, log|g_k|) pairs the estimate used to hold
    est = rho_coefficient(QUAD, golden_rotation(), 256)
    ks, ys = np.arange(128, 257, dtype=np.float64), np.log(np.abs(est.series.g.coeffs[128:]))
    pairs = tuple(zip(ks.tolist(), ys.tolist()))
    as_tuple = dataclasses.replace(est, samples=pairs)
    assert est.samples == pairs and pairs == est.samples and not est.samples != pairs
    assert est == as_tuple and as_tuple == est and dataclasses.replace(est) == est
    assert hash(est.samples) == hash(pairs) and hash(est) == hash(as_tuple)
    assert repr(est) == repr(as_tuple) and repr(est.samples) == repr(pairs)
    assert est.describe() == as_tuple.describe()
    assert json.dumps(est.describe()) == json.dumps(as_tuple.describe())
    assert len(est.samples) == 129 and est.samples[0] == (128.0, pairs[0][1])
    assert est.samples[-1] == pairs[-1] and est.samples[5:9] == pairs[5:9] and list(est.samples) == list(pairs)
    assert tuple(zip(*est.samples)) == (tuple(ks.tolist()), tuple(ys.tolist()))
    # (the fitted series holds its family's generator functions, which do not
    # pickle, with or without this change)
    back = pickle.loads(pickle.dumps(dataclasses.replace(est, series=None)))
    assert back == est and repr(back) == repr(est) and hash(back) == hash(est)
    assert back.describe() == est.describe() and pickle.loads(pickle.dumps(est.samples)) == pairs
    with pytest.raises(ValueError):  # read-only views of the fit
        est.samples.ys[0] = 0.0
    # ray scans keep a plain tuple
    assert type(rho_radial(QUAD, golden_rotation(), depth=6, n=64).samples) is tuple


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


@pytest.mark.parametrize(
    "field, nodes, error, match",
    [(lambda z: z.real, 4, PreconditionError, "nodes must be >= 8"),
     (lambda z: np.full(z.shape, np.nan), 8, EstimateUnavailableError, "every grid node masked")],
    ids=["4-nodes", "all-masked"],
)
def test_harmonic_check_refuses_an_empty_grid(field, nodes, error, match):
    with pytest.raises(error, match=match):
        harmonic_check(field, nodes=nodes)


@pytest.mark.parametrize(
    "t_lo, t_hi, z, match",
    [(0.5, 0.25, 0.0, "arc must run forward"), (0.0, 1.5, 0.0, "at most one turn"),
     (0.0, 0.5, 1.0, "interior point"), (0.0, 0.5, -2j, "interior point"),
     (0.1, 0.2, math.nan, "interior point")],
    ids=["backward", "over-a-turn", "on-the-circle", "outside", "nan"],
)
def test_harmonic_measure_preconditions(t_lo, t_hi, z, match):
    with pytest.raises(PreconditionError, match=match):
        harmonic_measure(t_lo, t_hi, z)


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


def test_poisson_step_value_refuses_a_nan_point():
    # refused by harmonic_measure's interior check, before any math.floor
    with pytest.raises(PreconditionError, match="interior point"):
        poisson_step_value(0.3, 0.02, -2.0, -1.0, 0.0, complex(math.nan, 0.0))


@pytest.mark.parametrize("L, R, M", [(math.nan, -1.0, 0.0), (-2.0, math.inf, 0.0), (-2.0, -1.0, math.nan)],
                         ids=["nan-L", "inf-R", "nan-M"])
def test_poisson_step_value_refuses_non_finite_step_values(L, R, M):
    # a NaN M used to come back as a NaN value
    with pytest.raises(PreconditionError, match="step values must be finite"):
        poisson_step_value(0.3, 0.01, L, R, M, 0.5j)


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
    # at lambda = 0.9 the orbit of lambda v starts outside the entry disc
    with pytest.raises(RuntimeError, match="user map failed"):
        linearize.u_values(fam, [0.9], n=64)
    with pytest.raises(RuntimeError, match="user map failed"):
        rho_radial(fam, golden_rotation(), depth=4, n=64)


def test_rho_coefficients_returns_an_unavailable_fit():
    # g(w) = w conjugates the rotation of f(z) = z: no tail to fit
    with pytest.warns(UserWarning):
        identity = custom_family(
            "identity", 1.0, 1, lambda n: np.r_[0, 1, np.zeros(n - 1)], lambda z: z
        )
    [outcome] = rho_coefficients(identity, [golden_rotation()], n=64)
    assert isinstance(outcome, EstimateUnavailableError)


def _per_row_estimate(family, rot, ss):
    """Oracle: rho_coefficient's fit as it stood before fits were batched,
    one series at a time with 1-D reductions and dots."""
    n = ss.g.degree
    mags = np.abs(ss.g.coeffs)
    idx = np.arange(n // 2, n + 1)
    keep = mags[idx] > 0.0
    ks = idx[keep].astype(np.float64)
    ys = np.log(mags[idx][keep].astype(np.float64))
    if ks.size < 8:
        raise EstimateUnavailableError("tail window has too few nonzero coefficients")

    def slope(k, y):
        dk = k - k.mean()
        return float(dk @ (y - y.mean()) / (dk @ dk))

    mid = ks.size // 2
    rho_hat = -slope(ks, ys)
    cap = linearize.koebe_cap_log(family) + radius.M_SLACK
    if rho_hat > cap:
        raise NumericalError(
            f"rho_coefficient produced rho_hat = {rho_hat:.4f} above the Koebe cap "
            f"M + {radius.M_SLACK} = {cap:.4f}"
        )
    return radius.RadiusEstimate(
        alpha=rot, method="coefficient", rho_hat=rho_hat,
        samples=tuple(zip(ks.tolist(), ys.tolist())),
        converged=abs(slope(ks[:mid], ys[:mid]) - slope(ks[mid:], ys[mid:])) <= radius.SLOPE_STABILITY_TOL,
    )


def _assert_fits_match_the_oracle(family, alphas, n):
    """rho_coefficients, and rho_coefficient on each alpha, against the
    per-row oracle on the same solved series, by repr."""
    rots = [rotation_from_float(a) for a in alphas]
    batched = rho_coefficients(family, rots, n)
    for rot, ss, got in zip(rots, linearize.siegel_series_many(family, alphas, n), batched, strict=True):
        want = ss if isinstance(ss, Exception) else outcome(_per_row_estimate, family, rot, ss)
        single = outcome(rho_coefficient, family, rot, n)
        assert repr(got) == repr(single) == repr(want)
        assert type(got) is type(single) is type(want)
    return batched


@pytest.mark.parametrize("fam_id", ["quadratic", "sin"])
def test_batched_fit_matches_the_per_row_oracle(fam_id):
    # sin keeps only odd k in its window, so its mask is not the full one
    alphas = np.random.default_rng(3).uniform(0.05, 0.95, 31).tolist()
    batched = _assert_fits_match_the_oracle(get_family(fam_id), alphas + [2 / 5], 256)
    assert sum(isinstance(e, radius.RadiusEstimate) for e in batched) == 31
    assert isinstance(batched[-1], DivisorBreakdownError)


def test_batched_fit_groups_rows_by_their_nonzero_coefficients():
    # z + c z^2 with c = 0.0012 has a disc of radius ~500: its coefficients
    # underflow to exact zeros from a k that moves with alpha, so one batch
    # holds several masks, rows with fewer than 8 nonzero coefficients, and,
    # with v set low, rows above the Koebe cap
    c = 0.0012
    with pytest.warns(UserWarning):
        fam = custom_family("tiny-quadratic", 45.0, 1, lambda n: np.r_[0, 1, c, np.zeros(n - 2)],
                            lambda z: z + c * z * z)
    alphas = np.random.default_rng(0).uniform(0.05, 0.95, 12).tolist()
    batched = _assert_fits_match_the_oracle(fam, alphas, 256)
    fitted = [e for e in batched if isinstance(e, radius.RadiusEstimate)]
    assert len({len(e.samples) for e in fitted}) >= 2
    assert any(isinstance(e, EstimateUnavailableError) for e in batched)
    assert any(isinstance(e, NumericalError) and "Koebe cap" in str(e) for e in batched)


def test_batched_fit_refuses_a_row_above_the_koebe_cap():
    with pytest.warns(UserWarning):
        fam = custom_family("quadratic-v", 1e-3, 1, QUAD._coeff_gen, QUAD._point_eval)
    batched = _assert_fits_match_the_oracle(fam, [golden_rotation().value, silver_rotation().value], 128)
    assert all(isinstance(e, NumericalError) and "Koebe cap" in str(e) for e in batched)


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


def test_both_ray_scans_refuse_when_every_sample_is_missing(monkeypatch):
    def missing(family, lams, *rest):
        return [NoConvergenceError(7)] * len(lams)

    monkeypatch.setattr(radius, "u_values", missing)
    with pytest.raises(EstimateUnavailableError, match="no radial sample succeeded"):
        rho_radial(QUAD, golden_rotation(), depth=8, n=64)
    with pytest.raises(EstimateUnavailableError, match="every ray sample failed"):
        poisson_bound_check(QUAD, golden_rotation(), 0.01, -1.1, -1.1, ray_samples=4, n=64)


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
