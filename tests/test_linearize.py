import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelnum import (
    conjugacy_residual,
    entry_radius,
    family_series,
    get_family,
    golden_rotation,
    koenigs_series,
    siegel_series,
    silver_rotation,
    yoccoz_w,
)
from siegelnum.errors import (
    DivisorBreakdownError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
)
from siegelnum.linearize import ENTRY_RADIUS_GRID, _abs_compose

EPS = np.finfo(np.float64).eps
ALL_FAMILY_IDS = (
    "quadratic", "poly_3", "exp", "zexp", "sin", "tan", "reduced(sin)", "reduced(tan)",
)


def test_koenigs_normalization():
    ks = koenigs_series(get_family("quadratic"), 0.5, 32)
    assert ks.h.coeffs[0] == 0 and ks.h.coeffs[1] == 1


def test_koenigs_residual_small_across_families():
    rng = np.random.default_rng(11)
    for fam in ("quadratic", "exp", "zexp", "sin", "tan", "poly_3"):
        lam = 0.6 * math.sqrt(rng.uniform()) * cmath.exp(2j * cmath.pi * rng.uniform())
        ks = koenigs_series(get_family(fam), lam, 64)
        assert conjugacy_residual(ks) <= 1e-9, fam


def test_koenigs_rejects_degenerate_multipliers():
    # |lambda| > 1 is fine (repelling point), but 0 and the unit circle are not
    koenigs_series(get_family("quadratic"), 1.2, 16)
    with pytest.raises(PreconditionError):
        koenigs_series(get_family("quadratic"), 0.0, 16)
    with pytest.raises(PreconditionError):
        koenigs_series(get_family("quadratic"), cmath.exp(1.3j), 16)


def test_siegel_residual_at_golden():
    ss = siegel_series(get_family("quadratic"), golden_rotation(), 128)
    assert conjugacy_residual(ss) <= 1e-7


def test_siegel_rational_breaks_down():
    with pytest.raises(DivisorBreakdownError) as exc:
        siegel_series(get_family("quadratic"), 0.5, 64)
    assert exc.value.k >= 2
    assert exc.value.magnitude < exc.value.floor


def test_entry_radius_comes_from_grid():
    ks = koenigs_series(get_family("quadratic"), 0.4, 64)
    assert entry_radius(ks.h) in ENTRY_RADIUS_GRID


def test_yoccoz_asymptote_and_koebe():
    for fam_id in ("quadratic", "exp"):
        fam = get_family(fam_id)
        val = yoccoz_w(fam, 0.01, n=64)
        assert abs(val.w / 0.01 - fam.v) <= 0.05 * abs(fam.v)
        assert abs(val.w) < 4 * abs(fam.v)


def test_yoccoz_needs_contracting_multiplier():
    with pytest.raises(PreconditionError):
        yoccoz_w(get_family("quadratic"), 1.0 + 0j)


def test_budget_exhaustion_is_reported():
    # |lambda| close to 1 needs many forward steps to reach the entry disc
    with pytest.raises(NoConvergenceError):
        yoccoz_w(get_family("quadratic"), 0.9, n=64, budget=1)


def test_overflow_guard_near_unit_circle():
    val = yoccoz_w(get_family("quadratic"), 0.93 * cmath.exp(0.7j), n=96)
    assert math.isfinite(val.u)
    assert val.iterations_used > 0


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.85),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_functional_equation_property(modulus, turn):
    lam = modulus * cmath.exp(2j * cmath.pi * turn)
    ks = koenigs_series(get_family("quadratic"), lam, 48)
    assert conjugacy_residual(ks) <= 1e-9


def test_siegel_odd_symmetry_preserved():
    ss = siegel_series(get_family("sin"), golden_rotation(), 64)
    assert np.all(ss.g.coeffs[0::2] == 0)


def _loop_solve_siegel(F, divisors):
    """Reference: the O(n^3) degree-by-degree loop the mat-vec solver replaced."""
    n = F.size - 1
    pows = np.zeros((n + 1, n + 1), dtype=F.dtype)
    g = pows[1]
    g[1] = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            for j in range(2, k + 1):
                pows[j, k] = np.dot(g[1:k], pows[j - 1, k - 1:0:-1])
            g[k] = np.dot(F[2 : k + 1], pows[2 : k + 1, k]) / divisors[k]
    return g.copy()


def _siegel_inputs(fam, alpha, n):
    powers = np.array(
        [cmath.exp(2j * math.pi * math.fmod(k * alpha, 1.0)) for k in range(n + 1)]
    )
    return family_series(fam, powers[1], n).coeffs, powers - powers[1]


def _majorant_error(new, ref, F, divisors):
    """max |new_k - ref_k| / maj_k over k >= 2, with maj_k the summed term
    sizes of g_k's recurrence over |lambda^k - lambda|; exact zeros of ref
    (maj_k = 0) must be reproduced exactly."""
    maj = (abs(F[1]) * np.abs(ref) + _abs_compose(F, ref))[2:] / np.abs(divisors[2:])
    diff = np.abs(new - ref)[2:]
    assert np.all(diff[maj == 0] == 0)
    return float(np.max(diff[maj > 0] / maj[maj > 0]))


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_siegel_solver_matches_loop_oracle(fam_id):
    fam = get_family(fam_id)
    for alpha in (golden_rotation().value, silver_rotation().value):
        F, divisors = _siegel_inputs(fam, alpha, 128)
        ref = _loop_solve_siegel(F, divisors)
        new = siegel_series(fam, alpha, 128).g.coeffs
        assert np.array_equal(new == 0, ref == 0), (fam_id, alpha)
        assert np.array_equal(new[:2], ref[:2])
        # same sums in another order: binary64 rounding of the summed terms
        assert _majorant_error(new, ref, F, divisors) <= 1e3 * EPS, (fam_id, alpha)


def _mpmath_solve_siegel(base_coeffs, alpha, n):
    """g_0..g_n at the exact binary64 alpha, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        lam = mpmath.expj(2 * mpmath.pi * mpmath.mpf(alpha))
        F = [lam * c for c in base_coeffs]
        pows = [[mpmath.mpc(0)] * (n + 1) for _ in range(n + 1)]
        g = pows[1]
        g[1] = mpmath.mpc(1)
        for k in range(2, n + 1):
            for j in range(2, k + 1):
                pows[j][k] = mpmath.fsum(g[i] * pows[j - 1][k - i] for i in range(1, k))
            rhs = mpmath.fsum(F[j] * pows[j][k] for j in range(2, k + 1))
            g[k] = rhs / (lam**k - lam)
        return np.array([complex(c) for c in g])


@pytest.mark.parametrize(
    "fam_id, base_coeffs",
    [
        ("quadratic", [0, 1, -1] + [0] * 46),
        ("exp", [0] + [1 / mpmath.factorial(k) for k in range(1, 49)]),
    ],
)
def test_siegel_solver_matches_mpmath_oracle(fam_id, base_coeffs):
    fam = get_family(fam_id)
    for alpha in (golden_rotation().value, silver_rotation().value):
        ref = _mpmath_solve_siegel(base_coeffs, alpha, 48)
        new = siegel_series(fam, alpha, 48).g.coeffs
        F, divisors = _siegel_inputs(fam, alpha, 48)
        # beyond the recurrence's own rounding, the binary64 solve sees each
        # lambda^k rounded by ~2 pi k eps against divisors >= 0.04 up to
        # degree 48 here: relative divisor errors up to ~7.5e3 eps
        assert _majorant_error(new, ref, F, divisors) <= 1e4 * EPS, (fam_id, alpha)


def test_siegel_overflow_is_typed_with_warnings_as_errors():
    # divisors pass the floor but coefficients outgrow binary64; the solver's
    # errstate must keep the mat-vec overflow from surfacing as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            siegel_series(get_family("quadratic"), 0.5 + 1e-12, 128)
