import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelnum import (
    YoccozValue,
    conjugacy_residual,
    entry_radius,
    family_eval,
    family_series,
    get_family,
    golden_rotation,
    koenigs_eval,
    koenigs_series,
    rational_rotation,
    rho_radial,
    siegel_series,
    silver_rotation,
    u_values,
    yoccoz_w,
)
from siegelnum import linearize, radius
from siegelnum.errors import (
    DivisorBreakdownError,
    EntryRadiusError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
    SiegelnumError,
)
from siegelnum.linearize import (
    DEFAULT_BUDGET,
    ENTRY_RADIUS_GRID,
    ENTRY_TAIL_TOL,
    ESCAPE_BOUND,
    KOENIGS_DIVISOR_FLOOR,
    _abs_compose,
    _require_finite,
)
from siegelnum.series import TruncatedSeries, evaluate

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


# -- the scalar lambda pipeline that u_values replaced, kept as the oracle ----


def _loop_solve_koenigs(F, divisors):
    """Reference: h_k (lambda^k - lambda) = -[z^k] sum_{j<k} h_j F^j with F^j
    accumulated one truncated convolution per degree."""
    n = F.size - 1
    h = np.zeros(n + 1, dtype=F.dtype)
    h[1] = 1
    fpow = F.copy()
    acc = fpow.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            fpow = np.convolve(fpow, F)[: n + 1]
            h[k] = -acc[k] / divisors[k]
            acc = acc + h[k] * fpow
    return h


def _koenigs_inputs(fam, lam, n):
    F = family_series(fam, lam, n).coeffs
    return F, np.power(np.complex128(lam), np.arange(n + 1)) - lam


def _scalar_koenigs(fam, lam, n):
    if lam == 0:
        raise PreconditionError("lambda = 0 has no Koenigs linearization")
    if abs(abs(lam) - 1.0) < 1e-15:
        raise PreconditionError("|lambda| = 1 is the Siegel regime; use siegel_series")
    F, divisors = _koenigs_inputs(fam, lam, n)
    mags = np.abs(divisors[2:])
    k_min = int(np.argmin(mags)) + 2
    if mags[k_min - 2] < KOENIGS_DIVISOR_FLOOR:
        raise DivisorBreakdownError(k_min, float(mags[k_min - 2]), KOENIGS_DIVISOR_FLOOR)
    h = _loop_solve_koenigs(F, divisors)
    _require_finite(h, "Koenigs")
    return h


def _horner_tail(h, r, samples=8):
    """Worst |full - half-degree| Horner evaluation over samples points on |z| = r."""
    ser = TruncatedSeries.from_coeffs(h)
    half = ser.truncated(ser.degree // 2)
    worst = 0.0
    for j in range(samples):
        z = r * cmath.exp(2j * math.pi * j / samples)
        worst = max(worst, abs(evaluate(ser, z).value - evaluate(half, z).value))
    return worst


def _horner_entry_radius(h):
    for r in ENTRY_RADIUS_GRID:
        if _horner_tail(h, r) <= ENTRY_TAIL_TOL:
            return r
    raise EntryRadiusError(
        f"no radius in {ENTRY_RADIUS_GRID} gives two-truncation agreement <= {ENTRY_TAIL_TOL:g}"
    )


def _scalar_yoccoz(fam, lam, n=128, budget=DEFAULT_BUDGET):
    """Reference: yoccoz_w one lambda at a time, series to orbit to log."""
    lam = complex(lam)
    if not 0 < abs(lam) < 1:
        raise PreconditionError("yoccoz_w needs 0 < |lambda| < 1")
    h = _scalar_koenigs(fam, lam, n)
    r_e = _horner_entry_radius(h)
    z = lam * fam.v
    m = 0
    while abs(z) > r_e:
        if m >= budget:
            raise NoConvergenceError(budget)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > ESCAPE_BOUND:
            raise NoConvergenceError(
                budget, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
            )
        z = family_eval(fam, lam, z)
        m += 1
    hz = 0j if z == 0 else complex(evaluate(TruncatedSeries.from_coeffs(h), z).value)
    if hz == 0:
        w = 0j
    elif m == 0:
        w = hz
    else:
        w = cmath.exp(cmath.log(hz) - m * cmath.log(lam))
    cap = 4.0 * abs(fam.v)
    if not abs(w) < cap:
        raise NumericalError(
            f"Koebe bound violated: |w| = {abs(w):.6g} >= 4|v| = {cap:.6g} at lambda = {lam!r}"
        )
    if w == 0:
        raise NumericalError(f"vanishing Yoccoz value at lambda = {lam!r}")
    return YoccozValue(lam=lam, w=w, u=math.log(abs(w / lam)), iterations_used=m, entry_radius=r_e)


def _scalar_u_values(fam, lams, n=128, budget=DEFAULT_BUDGET):
    out = []
    for lam in lams:
        try:
            out.append(_scalar_yoccoz(fam, lam, n, budget))
        except SiegelnumError as exc:
            out.append(exc)
    return out


def _assert_same_outcome(fam, lam, n, new, ref):
    assert type(new) is type(ref), (new, ref)
    if isinstance(ref, SiegelnumError):
        assert str(new) == str(ref)
        return
    assert abs(new.u - ref.u) <= 1e-12, (new.u, ref.u)
    if new.entry_radius == ref.entry_radius:
        assert new.iterations_used == ref.iterations_used
        return
    # Near the unit circle the recurrence amplifies rounding until the two
    # solves' coefficients above degree N/2 differ by O(1) (zexp at
    # 0.7646 - 0.5291i: 0.4 relative at degree 50-65), so a tail within a
    # factor 2 of ENTRY_TAIL_TOL can pass on one and fail on the other.
    tail = _horner_tail(_scalar_koenigs(fam, lam, n), max(new.entry_radius, ref.entry_radius))
    assert ENTRY_TAIL_TOL / 2 < tail <= 2 * ENTRY_TAIL_TOL, (lam, tail)


def _koenigs_error_majorant(ref, F, divisors):
    """maj_k, the summed term sizes of h_k's recurrence (from _abs_compose),
    carried forward through the same recurrence in absolute values: an error
    in h_j reaches h_k through lambda^j [z^k] f^j / (lambda^k - lambda), and
    at complex lambda that amplification is far above maj_k itself."""
    n = F.size - 1
    source = _abs_compose(ref, F) + abs(F[1]) * np.abs(ref)
    abs_pows = np.zeros((n + 1, n + 1))
    abs_pows[0, 0] = 1
    for j in range(1, n + 1):
        abs_pows[j] = np.convolve(abs_pows[j - 1], np.abs(F))[: n + 1]
    maj = np.zeros(n + 1)
    for k in range(2, n + 1):
        maj[k] = (source[k] + maj[:k] @ abs_pows[:k, k]) / abs(divisors[k])
    return maj


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_koenigs_solver_matches_loop_oracle(fam_id):
    fam = get_family(fam_id)
    for lam in (0.3, 0.5j, 0.7 * cmath.exp(2.1j), 0.95 * cmath.exp(-0.4j)):
        F, divisors = _koenigs_inputs(fam, lam, 128)
        ref = _loop_solve_koenigs(F, divisors)
        new = koenigs_series(fam, lam, 128).h.coeffs
        assert np.array_equal(new == 0, ref == 0), (fam_id, lam)
        assert np.array_equal(new[:2], ref[:2])
        maj = _koenigs_error_majorant(ref, F, divisors)[2:]
        diff = np.abs(new - ref)[2:]
        assert np.all(diff[maj == 0] == 0)
        assert np.max(diff[maj > 0] / maj[maj > 0]) <= 1e3 * EPS, (fam_id, lam)


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=4,
    )
)
def test_u_values_match_scalar_pipeline(fam_id, polar):
    fam = get_family(fam_id)
    lams = [r * cmath.exp(2j * math.pi * t) for r, t in polar]
    for lam, new, ref in zip(lams, u_values(fam, lams), _scalar_u_values(fam, lams), strict=True):
        _assert_same_outcome(fam, lam, 128, new, ref)


def test_u_values_edge_cases_match_scalar_pipeline():
    quad = get_family("quadratic")
    cases = [
        (quad, [0.0, 1.0, 1 - 5e-16, 0.5, 0.999], 64, DEFAULT_BUDGET),  # preconditions, entry radius
        (quad, [0.9, 0.5, 0.9j], 64, 1),  # budget
        (quad, [0.5], 1, DEFAULT_BUDGET),  # degree below 2
        # tail 1.19e-13 on the batched coefficients, 0.99e-13 on the loop's
        (get_family("zexp"), [0.7646197002379004 - 0.5291398744589179j], 128, DEFAULT_BUDGET),
    ]
    for fam, lams, n, budget in cases:
        outcomes = zip(lams, u_values(fam, lams, n, budget), _scalar_u_values(fam, lams, n, budget), strict=True)
        for lam, new, ref in outcomes:
            _assert_same_outcome(fam, lam, n, new, ref)
            if isinstance(ref, SiegelnumError):
                with pytest.raises(type(ref), match=re.escape(str(ref))):
                    yoccoz_w(fam, lam, n, budget)


def test_u_values_rows_do_not_depend_on_the_block(monkeypatch):
    # a lambda's value is the same whether yoccoz_w, a grid or a ray scan
    # asks for it, whatever block it is solved in
    fam = get_family("exp")
    lams = [r * cmath.exp(2j * math.pi * t) for r in (0.2, 0.6, 0.9) for t in (0.1, 0.45, 0.8)]
    alone = [yoccoz_w(fam, lam, 64) for lam in lams]
    monkeypatch.setattr(linearize, "U_BLOCK", 4)
    assert u_values(fam, lams, 64) == alone


def test_entry_radii_do_not_depend_on_the_batch():
    # rows scaled so that their tail at r = 0.2 sits within rounding of
    # ENTRY_TAIL_TOL: the decision between 0.2 and 0.1 then turns on the
    # last bits of the tail sum, which must not depend on the other rows
    rng = np.random.default_rng(7)
    n, ks = 128, np.arange(65, 129)
    h = rng.standard_normal((400, n + 1)) + 1j * rng.standard_normal((400, n + 1))
    h *= 0.2 ** -np.arange(n + 1) * 10.0 ** rng.uniform(-3, 3, (400, 1))
    points = 0.2 * np.exp(2j * math.pi * np.arange(8) / 8)
    tails = np.abs(np.power(points[:, None], ks) @ h[:, ks].T).max(axis=0)
    h *= (ENTRY_TAIL_TOL / tails)[:, None]
    batch = linearize._entry_radii(h)
    assert set(batch.tolist()) == {0.1, 0.2}
    alone = np.concatenate([linearize._entry_radii(h[b : b + 1]) for b in range(h.shape[0])])
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch[::3], linearize._entry_radii(h[::3]))


def test_koenigs_eval_matches_yoccoz_w():
    fam = get_family("quadratic")
    lam = 0.95 * cmath.exp(2j)
    value = yoccoz_w(fam, lam)
    w, m = koenigs_eval(koenigs_series(fam, lam), lam * fam.v)
    assert m == value.iterations_used > 0
    assert abs(w - value.w) <= 1e-13 * abs(value.w)


@pytest.mark.parametrize(
    "fam_id, alpha",
    [("quadratic", rational_rotation(1, 2)), ("quadratic", golden_rotation()), ("exp", golden_rotation())],
)
def test_rho_radial_matches_scalar_pipeline(fam_id, alpha, monkeypatch):
    fam = get_family(fam_id)
    new = rho_radial(fam, alpha, depth=14, n=128)
    monkeypatch.setattr(radius, "u_values", _scalar_u_values)
    ref = rho_radial(fam, alpha, depth=14, n=128)
    assert new.failures == ref.failures
    assert (new.converged, new.diverging_to_minus_infinity) == (ref.converged, ref.diverging_to_minus_infinity)
    assert [r for r, _ in new.samples] == [r for r, _ in ref.samples]
    assert max(abs(a - b) for (_, a), (_, b) in zip(new.samples, ref.samples)) <= 1e-12
    assert (new.rho_hat is None) == (ref.rho_hat is None)
