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
    rotation_from_cf,
    siegel_series,
    siegel_series_many,
    silver_rotation,
    u_values,
    yoccoz_w,
)
from siegelnum import linearize, radius
from siegelnum.errors import (
    CoefficientOverflowError,
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
    SIEGEL_DIVISOR_FLOOR,
    _overflow_error,
)
from siegelnum.series import TruncatedSeries, compose, evaluate

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


def _abs_compose(outer, inner):
    """|outer| ∘ |inner| coefficientwise: a majorant of outer ∘ inner."""
    moduli = (TruncatedSeries.from_coeffs(np.abs(c)) for c in (outer, inner))
    return compose(*moduli).coeffs.real


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


# -- the per-row Siegel solve that the batched one replaced, kept as the oracle


def _rowwise_solve_siegel(F, divisors):
    """Reference: one row's mat-vec solve, as it stood before batching."""
    n = F.size - 1
    nonzero = np.flatnonzero(F)
    top = max(2, int(nonzero[-1]) if nonzero.size else 0)
    pows = np.zeros((top + 1, n + 1), dtype=np.complex128)
    g = pows[1]
    g[1] = 1
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports it
        for k in range(2, n + 1):
            m = min(k, top)
            pows[2 : m + 1, k] = pows[1:m, k - 1 : 0 : -1] @ g[1:k]
            g[k] = (F[2 : m + 1] @ pows[2 : m + 1, k]) / divisors[k]
    return g.copy()


def _rowwise_siegel_outcome(fam, alpha, n):
    """The coefficients the per-row siegel_series gave at alpha, or the
    package error it raised."""
    F, divisors = _siegel_inputs(fam, alpha, n)
    mags = np.abs(divisors[2:])
    k = int(np.argmin(mags))
    if mags[k] < SIEGEL_DIVISOR_FLOOR:
        return DivisorBreakdownError(k + 2, float(mags[k]), SIEGEL_DIVISOR_FLOOR)
    g = _rowwise_solve_siegel(F, divisors)
    return g if np.isfinite(g).all() else _overflow_error(g, "Siegel")


def _same_outcome(new, ref):
    """Bitwise-equal coefficients (ref a SiegelSeries or its coefficient
    array), or the same error class and message."""
    if isinstance(ref, SiegelnumError):
        return type(new) is type(ref) and str(new) == str(ref)
    coeffs = ref.g.coeffs if isinstance(ref, linearize.SiegelSeries) else ref
    return isinstance(new, linearize.SiegelSeries) and new.g.coeffs.tobytes() == coeffs.tobytes()


RATIONAL_SLOT, DEEP_DIP_SLOT = 11, 21


def _siegel_batch(size, seed=5):
    """size rotation numbers; from 32 up, a rational and a deep-dip alpha
    (0.5 + 1e-12: the quadratic series overflows binary64 there at n = 128)
    sit in the middle of the batch."""
    alphas = np.random.default_rng(seed).uniform(0.05, 0.95, size).tolist()
    if size >= 32:
        alphas[RATIONAL_SLOT], alphas[DEEP_DIP_SLOT] = 2 / 7, 0.5 + 1e-12
    return alphas


@pytest.mark.parametrize(
    "fam_id, n",
    [(fam_id, 128) for fam_id in ALL_FAMILY_IDS] + [("quadratic", 256), ("poly_3", 256)],
)
def test_batched_siegel_rows_match_rowwise_oracle(fam_id, n):
    fam = get_family(fam_id)
    alphas = _siegel_batch(32)
    refs = [_rowwise_siegel_outcome(fam, a, n) for a in alphas]
    batched = siegel_series_many(fam, alphas, n)
    assert len(batched) == len(alphas)
    for a, new, ref in zip(alphas, batched, refs):
        assert _same_outcome(new, ref), (fam_id, a)
        assert _same_outcome(siegel_series_many(fam, [a], n)[0], ref), (fam_id, a)
    assert isinstance(batched[RATIONAL_SLOT], DivisorBreakdownError)


def test_batched_siegel_failures_stay_in_their_slots():
    fam = get_family("quadratic")
    alphas = _siegel_batch(32)
    with warnings.catch_warnings():  # the overflow stays inside the solver's errstate
        warnings.simplefilter("error")
        batched = siegel_series_many(fam, alphas, 128)
    for slot, kind in ((RATIONAL_SLOT, DivisorBreakdownError), (DEEP_DIP_SLOT, CoefficientOverflowError)):
        with pytest.raises(kind) as exc:
            siegel_series(fam, alphas[slot], 128)
        assert type(exc.value) is kind and _same_outcome(batched[slot], exc.value)
    assert sum(isinstance(out, SiegelnumError) for out in batched) == 2


def test_batched_siegel_row_does_not_depend_on_its_batch():
    fam = get_family("poly_3")
    alphas = _siegel_batch(32)
    others = _siegel_batch(9, seed=6)
    first = siegel_series_many(fam, alphas, 128)
    mixed = siegel_series_many(fam, others[:4] + alphas[::-1] + others[4:], 128)[4 : 4 + len(alphas)]
    assert all(map(_same_outcome, mixed[::-1], first))


@pytest.mark.parametrize("fam_id", ["quadratic", "exp"])
def test_batched_siegel_rows_do_not_depend_on_the_block(fam_id, monkeypatch):
    fam = get_family(fam_id)
    alphas = _siegel_batch(32)
    default = siegel_series_many(fam, alphas, 64)
    # 3 rows of a quadratic table (3 x 65 entries) per block, so the last
    # block is short; exp (65 x 65 entries) drops from 15 rows to 1
    monkeypatch.setattr(linearize, "BLOCK_ENTRIES", 3 * 3 * 65)
    assert all(map(_same_outcome, siegel_series_many(fam, alphas, 64), default))


def test_batched_siegel_rows_of_different_degree_are_solved_apart():
    # a stack may mix degrees of F: a row of lower degree carries zeros up to
    # the stack's top and still comes out as on its own
    alphas = (golden_rotation().value, silver_rotation().value, 0.3, 0.7)
    inputs = [_siegel_inputs(get_family(fam_id), a, 64)
              for fam_id, a in zip(("quadratic", "poly_3", "quadratic", "poly_3"), alphas)]
    F, divisors = (np.array(rows) for rows in zip(*inputs))
    g = linearize._solve_siegel(F, divisors)
    for row, (f, d) in zip(g, inputs):
        assert row.tobytes() == _rowwise_solve_siegel(f, d).tobytes()


def test_siegel_series_many_edges():
    fam = get_family("quadratic")
    assert siegel_series_many(fam, [], 64) == []
    with pytest.raises(PreconditionError):
        siegel_series_many(fam, [golden_rotation().value], 1)
    ss = siegel_series_many(fam, [golden_rotation()], 64)[0]  # a RotationNumber is accepted
    assert ss.alpha == golden_rotation().value
    assert ss.lam == cmath.exp(2j * math.pi * ss.alpha)


def test_siegel_non_finite_alpha_is_a_row_precondition_error():
    fam = get_family("quadratic")
    golden = golden_rotation().value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = siegel_series_many(fam, [math.nan, golden, math.inf, -math.inf], 64)
        with pytest.raises(PreconditionError, match="finite"):
            siegel_series(fam, math.nan, 64)
    assert [type(out) for out in outcomes] == [PreconditionError, linearize.SiegelSeries] + [
        PreconditionError
    ] * 2
    assert outcomes[1].g.coeffs.tobytes() == siegel_series(fam, golden, 64).g.coeffs.tobytes()


@pytest.mark.parametrize("fam_id", ["quadratic", "sin", "reduced(tan)"])
def test_rho_coefficients_match_rho_coefficient(fam_id):
    fam = get_family(fam_id)
    alphas = _siegel_batch(32)[:24] + [golden_rotation(), rational_rotation(1, 3), 1.5]
    expected = []
    for alpha in alphas:
        try:
            expected.append(repr(radius.rho_coefficient(fam, alpha, 128)))
        except SiegelnumError as exc:
            expected.append(repr(exc))
    assert [repr(out) for out in radius.rho_coefficients(fam, alphas, 128)] == expected
    assert isinstance(radius.rho_coefficients(fam, [1.5], 128)[0], PreconditionError)
    with pytest.raises(PreconditionError):
        radius.rho_coefficients(fam, alphas, 16)


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
    if not np.isfinite(h).all():
        raise _overflow_error(h, "Koenigs")
    return h


def _tail_majorant(h, r):
    """sum_{N/2 < k <= N} |h_k| r^k, one term at a time."""
    n = len(h) - 1
    total = 0.0
    for k in range(n // 2 + 1, n + 1):
        total += abs(h[k]) * r**k
    return total


def _scalar_entry_radius(h):
    for r in ENTRY_RADIUS_GRID:
        if _tail_majorant(h, r) <= ENTRY_TAIL_TOL:
            return r
    raise EntryRadiusError(
        f"no radius in {ENTRY_RADIUS_GRID} gives two-truncation agreement <= {ENTRY_TAIL_TOL:g}"
    )


def _reference_orbit(family, lam, z, r_entry, budget):
    """Reference basin orbit: a while loop that tests each exit on its own."""
    m = 0
    while abs(z) > r_entry:
        if m >= budget:
            raise NoConvergenceError(budget)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > ESCAPE_BOUND:
            raise NoConvergenceError(
                budget, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
            )
        z = family_eval(family, lam, z)
        m += 1
    return z, m


def _scalar_yoccoz(fam, lam, n=128, budget=DEFAULT_BUDGET):
    """Reference: yoccoz_w one lambda at a time, series to orbit to log."""
    lam = complex(lam)
    if not 0 < abs(lam) < 1:
        raise PreconditionError("yoccoz_w needs 0 < |lambda| < 1")
    h = _scalar_koenigs(fam, lam, n)
    r_e = _scalar_entry_radius(h)
    z, m = _reference_orbit(fam, lam, lam * fam.v, r_e, budget)
    hz = 0j if z == 0 else complex(evaluate(TruncatedSeries.from_coeffs(h), z))
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
    # 0.7646 - 0.5291i: 0.4 relative at degree 50-65), so their tail
    # majorants can straddle ENTRY_TAIL_TOL (reduced(tan) at -0.1816 - 0.9118i:
    # 0.82e-13 batched, 2.49e-13 loop at r = 0.5; up to 20x apart at
    # |lambda| = 0.95).  The pipeline's radius must be the oracle's rule on
    # its own solve, the radii one rung apart, and at the larger radius the
    # solve that fails there may miss ENTRY_TAIL_TOL by at most a factor 64;
    # a genuine rung of difference moves the majorant by at least 2^(N/2).
    h = koenigs_series(fam, lam, n).h.coeffs
    assert new.entry_radius == _scalar_entry_radius(h), lam
    rungs = [ENTRY_RADIUS_GRID.index(x.entry_radius) for x in (new, ref)]
    assert abs(rungs[0] - rungs[1]) == 1, (lam, new.entry_radius, ref.entry_radius)
    r = max(new.entry_radius, ref.entry_radius)
    failing = _scalar_koenigs(fam, lam, n) if new.entry_radius == r else h
    tail = _tail_majorant(failing, r)
    assert ENTRY_TAIL_TOL < tail <= 64 * ENTRY_TAIL_TOL, (lam, r, tail)


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
        # the 8-point tail at r = 0.2 straddled the tolerance: 1.19e-13 batched, 0.99e-13 loop
        (get_family("zexp"), [0.7646197002379004 - 0.5291398744589179j], 128, DEFAULT_BUDGET),
        # tail majorant at r = 0.5: 0.82e-13 on the batched coefficients, 2.49e-13 on the loop's
        (get_family("reduced(tan)"), [-0.18157682244954285 - 0.9117832556070424j], 128, DEFAULT_BUDGET),
    ]
    for fam, lams, n, budget in cases:
        outcomes = zip(lams, u_values(fam, lams, n, budget), _scalar_u_values(fam, lams, n, budget), strict=True)
        for lam, new, ref in outcomes:
            _assert_same_outcome(fam, lam, n, new, ref)
            if isinstance(ref, SiegelnumError):
                with pytest.raises(type(ref), match=re.escape(str(ref))):
                    yoccoz_w(fam, lam, n, budget)
    # a degree below 2 fails the whole call, before any solve
    with pytest.raises(PreconditionError, match="series degree must be >= 2"):
        u_values(quad, [0.5, 2.0], 1)


def test_u_values_rows_do_not_depend_on_the_block(monkeypatch):
    # a lambda's value is the same whether yoccoz_w, a grid or a ray scan
    # asks for it, whatever block it is solved in
    fam = get_family("exp")
    lams = [r * cmath.exp(2j * math.pi * t) for r in (0.2, 0.6, 0.9) for t in (0.1, 0.45, 0.8)]
    alone = [yoccoz_w(fam, lam, 64) for lam in lams]
    monkeypatch.setattr(linearize, "BLOCK_ENTRIES", 4 * 65)  # 4 rows of degree 64
    assert u_values(fam, lams, 64) == alone


def test_broken_down_row_is_not_solved_with_the_batch():
    # lambda = 1e-15 breaks down at k = 2 (|lambda^2 - lambda| ~ 1e-15 is
    # under the Koenigs floor); the rows around it are those of a batch of one
    quad = get_family("quadratic")
    good, broken, other = u_values(quad, [0.5, 1e-15, 0.3j], 64)
    assert good == yoccoz_w(quad, 0.5, 64)
    assert other == yoccoz_w(quad, 0.3j, 64)
    assert isinstance(broken, DivisorBreakdownError)
    assert (broken.k, broken.magnitude, broken.floor) == (2, abs(1e-15**2 - 1e-15), 1e-14)
    assert str(broken) == "divisor breakdown at k=2: |lambda^k - lambda| = 1.000e-15 < 1.0e-14"


def test_entry_radii_do_not_depend_on_the_batch():
    # rows scaled so that their tail majorant at r = 0.2 sits within
    # rounding of ENTRY_TAIL_TOL: the decision between 0.2 and 0.1 then
    # turns on the last bits of the sum, which must not depend on the other rows
    rng = np.random.default_rng(7)
    n, ks = 128, np.arange(65, 129)
    h = rng.standard_normal((400, n + 1)) + 1j * rng.standard_normal((400, n + 1))
    h *= 0.2 ** -np.arange(n + 1) * 10.0 ** rng.uniform(-3, 3, (400, 1))
    h *= (ENTRY_TAIL_TOL / (np.abs(h[:, ks]) @ 0.2**ks))[:, None]
    batch = linearize._entry_radii(h)
    assert set(batch.tolist()) == {0.1, 0.2}
    alone = np.concatenate([linearize._entry_radii(h[b : b + 1]) for b in range(h.shape[0])])
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch[::3], linearize._entry_radii(h[::3]))


def test_entry_radii_above_the_old_grid_keep_u(monkeypatch):
    # the rungs 1.0 and 0.5 shorten ray orbits; on the golden ray at depths
    # 2..14 (rho_radial's depth in ray scans) and on the silver and six
    # bounded-type rays at depths 2..12 every family must read the same u as
    # with every orbit run into |z| <= 0.01
    rng = np.random.default_rng(13)
    alphas = [silver_rotation().value] + [rotation_from_cf(rng.integers(1, 5, 40).tolist()).value for _ in range(6)]
    rays = [(golden_rotation().value, 14)] + [(a, 12) for a in alphas]
    lams = [(1 - 2.0**-k) * cmath.exp(2j * math.pi * a) for a, depth in rays for k in range(2, depth + 1)]
    entered_high = 0
    for fam_id in ALL_FAMILY_IDS:
        fam = get_family(fam_id)
        fast = u_values(fam, lams)
        with monkeypatch.context() as m:
            m.setattr(linearize, "ENTRY_RADIUS_GRID", (0.01,))
            deep = u_values(fam, lams)
        for lam, new, ref in zip(lams, fast, deep, strict=True):
            assert type(new) is type(ref), (fam_id, lam, new, ref)
            if isinstance(ref, YoccozValue):
                assert abs(new.u - ref.u) <= 1e-11, (fam_id, lam, new.u, ref.u)
                entered_high += new.entry_radius >= 0.5
    assert entered_high > 0


def test_koenigs_eval_matches_yoccoz_w():
    # both run the one basin step, so h on the basin is evaluated the same
    # way bit for bit, whichever entry point asks
    rng = np.random.default_rng(11)
    for fam_id in ALL_FAMILY_IDS:
        fam = get_family(fam_id)
        lams = rng.uniform(0.1, 0.95, 30) * np.exp(2j * math.pi * rng.uniform(0, 1, 30))
        compared = 0
        for lam in lams.tolist():
            try:
                value = yoccoz_w(fam, lam, 128)
            except SiegelnumError:
                continue
            w, m = koenigs_eval(koenigs_series(fam, lam, 128), lam * fam.v)
            assert (w, m) == (value.w, value.iterations_used), (fam_id, lam)
            compared += 1
        assert compared >= 20, fam_id


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


def _orbit_outcome(orbit, *args):
    try:
        return orbit(*args)
    except SiegelnumError as exc:  # PoleError from tan as well as the orbit's own errors
        return type(exc), str(exc)


def _assert_same_orbit(family, lam, z, r_entry, budget):
    """_orbit against the reference: equal (z, m) by repr, so bit for bit
    (signed zeros and NaN included), or the same error type and message."""
    args = (family, complex(lam), complex(z), r_entry, budget)
    new = _orbit_outcome(linearize._orbit, *args)
    ref = _orbit_outcome(_reference_orbit, *args)
    assert repr(new) == repr(ref), (family.family_id, lam, z, r_entry, budget)
    return new


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_orbit_matches_reference_along_golden_ray(fam_id):
    fam = get_family(fam_id)
    lam_unit = cmath.exp(2j * math.pi * golden_rotation().value)
    entered = 0
    for k in range(2, 13):
        lam = (1 - 2.0**-k) * lam_unit
        for r_entry in (0.2, 0.01):
            out = _assert_same_orbit(fam, lam, lam * fam.v, r_entry, DEFAULT_BUDGET)
            entered += isinstance(out[1], int) and out[1] > 0
    assert entered > 0


def test_orbit_exits_match_reference():
    quad = get_family("quadratic")
    # escape from z = 3: the budget error when the budget runs out on the
    # escaping iterate, the escape error one iterate later
    z, m_esc = 3 + 0j, 0
    while abs(z) <= ESCAPE_BOUND:
        z = family_eval(quad, 0.5, z)
        m_esc += 1
    assert _assert_same_orbit(quad, 0.5, 3, 0.01, m_esc) == (
        NoConvergenceError, f"iteration budget {m_esc} exhausted"
    )
    assert _assert_same_orbit(quad, 0.5, 3, 0.01, m_esc + 1) == (
        NoConvergenceError, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m_esc} iterations"
    )
    assert _assert_same_orbit(quad, 0.5, 0.001, 0.01, 5) == (0.001 + 0j, 0)
    nan_z, m = _assert_same_orbit(quad, 0.5, complex(math.nan, 0.0), 0.01, 5)
    assert math.isnan(nan_z.real) and m == 0
    assert _assert_same_orbit(quad, 0.5, complex(math.inf, 0.0), 0.01, 5)[0] is NoConvergenceError
    # the budget exactly the entry step succeeds; one below it does not
    _, m_in = _assert_same_orbit(quad, 0.5, 0.2, 0.01, DEFAULT_BUDGET)
    assert m_in > 1
    assert _assert_same_orbit(quad, 0.5, 0.2, 0.01, m_in)[1] == m_in
    assert _assert_same_orbit(quad, 0.5, 0.2, 0.01, m_in - 1) == (
        NoConvergenceError, f"iteration budget {m_in - 1} exhausted"
    )


def test_budget_below_one_is_a_precondition_error():
    quad = get_family("quadratic")
    for budget in (0, -5):
        with pytest.raises(PreconditionError, match="budget"):
            u_values(quad, [0.9], 64, budget)
        with pytest.raises(PreconditionError, match="budget"):
            yoccoz_w(quad, 0.9, 64, budget)


@pytest.mark.parametrize(
    "fam_id, z, m",
    [("exp", 50, 2), ("zexp", 800, 1), ("sin", 800j, 1), ("tan", 800j, 1)],
)
def test_overflowing_map_is_a_typed_escape(fam_id, z, m):
    # cmath raises OverflowError inside the map; the orbit reports it as an
    # escape at the iterate that overflowed, like |z| > ESCAPE_BOUND
    ks = koenigs_series(get_family(fam_id), 0.5, 64)
    with pytest.raises(NoConvergenceError) as exc:
        koenigs_eval(ks, z)
    assert str(exc.value) == f"orbit escaped (map overflowed) after {m} iterations"
    assert exc.value.budget == DEFAULT_BUDGET
