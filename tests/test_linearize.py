import cmath
import dataclasses
import itertools
import math
import re
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelnum import (
    YoccozValue,
    base_series,
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
from siegelnum import families, linearize, radius
from siegelnum.errors import (
    CoefficientOverflowError,
    DivisorBreakdownError,
    EntryRadiusError,
    NoConvergenceError,
    NumericalError,
    PoleError,
    PreconditionError,
    SiegelnumError,
)
from siegelnum.linearize import (
    DEFAULT_BUDGET,
    ENTRY_RADIUS_GRID,
    ENTRY_TAIL_TOL,
    ESCAPE_BOUND,
    SIEGEL_DIVISOR_FLOOR,
    _read_rows,
    koebe_cap_log,
)
from siegelnum.families import FamilySpec, custom_family
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
    # one basin rule, 0 < |lambda| < 1: a repelling point has no basin to
    # extend h over, lambda = 0 no linearization, the circle is Siegel's
    for lam in (1.2, 0.0):
        with pytest.raises(PreconditionError, match=re.escape("needs 0 < |lambda| < 1")):
            koenigs_series(get_family("quadratic"), lam, 16)
    with pytest.raises(PreconditionError):
        koenigs_series(get_family("quadratic"), cmath.exp(1.3j), 16)


def test_siegel_residual_at_golden():
    ss = siegel_series(get_family("quadratic"), golden_rotation(), 128)
    assert conjugacy_residual(ss) <= 1e-7


def test_residual_needs_a_conjugacy_series():
    with pytest.raises(PreconditionError, match="expected a KoenigsSeries or SiegelSeries"):
        conjugacy_residual(get_family("quadratic"))


def test_siegel_rational_breaks_down(monkeypatch):
    with pytest.raises(DivisorBreakdownError) as exc:
        siegel_series(get_family("quadratic"), 0.5, 64)
    assert exc.value.k >= 2
    assert exc.value.magnitude < exc.value.floor
    # an exact p/q whose resonance k = q + 1 lies beyond the series: its float
    # passes the float guard, but the rational itself is refused, unsolved
    solve, solved = linearize._siegel_rows, []
    monkeypatch.setattr(linearize, "_siegel_rows", lambda family, lams, divisors: (
        solved.append(lams.tolist()) or solve(family, lams, divisors)))
    for fam_id, (p, q, n) in itertools.product(
            ALL_FAMILY_IDS, [(89, 144, 128), (144, 233, 128), (233, 377, 256)]):
        family, rot, case = get_family(fam_id), rational_rotation(p, q), (fam_id, p, q)
        with pytest.raises(DivisorBreakdownError) as exc:
            siegel_series(family, rot, n)
        assert (exc.value.k, exc.value.magnitude, exc.value.floor) == (q + 1, 0.0, SIEGEL_DIVISOR_FLOOR), case
        solved.clear()
        golden, broken, silver = siegel_series_many(family, [golden_rotation(), rot, silver_rotation()], n)
        assert len(solved) == 1 and len(solved[0]) == 2, case
        assert isinstance(broken, DivisorBreakdownError) and str(broken) == str(exc.value), case
        for got, alone in zip((golden, silver), siegel_series_many(family, [golden_rotation(), silver_rotation()], n)):
            assert got.g.coeffs.tobytes() == alone.g.coeffs.tobytes(), case
        assert siegel_series(family, rot.value, n).alpha == rot.value, case


def test_entry_radius_comes_from_grid():
    ks = koenigs_series(get_family("quadratic"), 0.4, 64)
    assert entry_radius(ks.h) in ENTRY_RADIUS_GRID
    # a tail too large at every grid radius has no entry disc
    with pytest.raises(EntryRadiusError, match="no radius in"):
        entry_radius(TruncatedSeries.from_coeffs([0, 1] + [1e30] * 30))


def test_yoccoz_asymptote_and_koebe():
    for fam_id in ("quadratic", "exp"):
        fam = get_family(fam_id)
        val = yoccoz_w(fam, 0.01, n=64)
        assert abs(val.w / 0.01 - fam.v) <= 0.05 * abs(fam.v)
        assert val.u < koebe_cap_log(fam)


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


def _siegel_inputs(fam, alpha, n):
    powers = np.exp(2j * math.pi * linearize._phases(np.array([alpha]), n))[0]
    return family_series(fam, powers[1], n).coeffs, powers - powers[1]


def _majorant_error(new, ref, F, divisors):
    """max |new_k - ref_k| / maj_k over k >= 2, with maj_k the summed term
    sizes of g_k's recurrence (|F| o |ref|) over |lambda^k - lambda|; exact
    zeros of ref (maj_k = 0) must be reproduced exactly."""
    moduli = (TruncatedSeries.from_coeffs(np.abs(c)) for c in (F, ref))
    maj = (abs(F[1]) * np.abs(ref) + compose(*moduli).coeffs.real)[2:] / np.abs(divisors[2:])
    diff = np.abs(new - ref)[2:]
    assert np.all(diff[maj == 0] == 0)
    return float(np.max(diff[maj > 0] / maj[maj > 0]))


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_siegel_rows_satisfy_the_functional_equation(fam_id):
    # f_lambda(g(w)) = g(lambda w) to rounding (measured: at most 2.8e-16),
    # on the rows of the map's own solve and of the composition solve
    for fam in {get_family(fam_id), _composition_spec(get_family(fam_id))}:  # one spec without an ODE
        for alpha in (golden_rotation().value, silver_rotation().value):
            assert conjugacy_residual(siegel_series(fam, alpha, 128)) <= 1e-14, (fam.ode, alpha)


def _mpmath_solve_siegel(F, divisors):
    """g_0..g_n from g_k d_k = [w^k] sum_{j>=2} F_j g^j in 50-digit
    arithmetic, with F_0..F_n and d_k = lambda^k - lambda given as mpmath
    or binary64 numbers (taken exactly)."""
    n = len(F) - 1
    with mpmath.workdps(50):
        F, divisors = ([mpmath.mpmathify(c) for c in seq] for seq in (F, divisors))
        pows = [[mpmath.mpc(0)] * (n + 1) for _ in range(n + 1)]
        g = pows[1]
        g[1] = mpmath.mpc(1)
        for k in range(2, n + 1):
            for j in range(2, k + 1):
                pows[j][k] = mpmath.fsum(g[i] * pows[j - 1][k - i] for i in range(1, k))
            rhs = mpmath.fsum(F[j] * pows[j][k] for j in range(2, k + 1))
            g[k] = rhs / divisors[k]
        return np.array([complex(c) for c in g])


@pytest.mark.parametrize("fam_id, base_coeffs", [
    ("quadratic", [0, 1, -1] + [0] * 46), ("exp", [0] + [1 / mpmath.factorial(k) for k in range(1, 49)])])
def test_siegel_solver_matches_mpmath_oracle(fam_id, base_coeffs):
    fam = get_family(fam_id)
    for alpha in (golden_rotation().value, silver_rotation().value):
        with mpmath.workdps(50):  # F and the divisors at the exact binary64 alpha
            lam = mpmath.expj(2 * mpmath.pi * mpmath.mpf(alpha))
            ref = _mpmath_solve_siegel([lam * c for c in base_coeffs], [lam**k - lam for k in range(49)])
        new = siegel_series(fam, alpha, 48).g.coeffs
        F, divisors = _siegel_inputs(fam, alpha, 48)
        # beyond the recurrence's own rounding, the binary64 solve sees each
        # lambda^k rounded by ~2 pi k eps against divisors >= 0.04 up to
        # degree 48 here: relative divisor errors up to ~7.5e3 eps
        assert _majorant_error(new, ref, F, divisors) <= 1e4 * EPS, (fam_id, alpha)


# alpha_1..alpha_3 of the default quadratic certificate: 21/34 plus 1.7e-7
# down to 6e-13, where the weights F_j / d_k meet their smallest divisors
CERTIFICATE_ALPHAS = (0.6176472305906705, 0.6176470591259526, 0.6176470588241312)


def test_certificate_rows_match_mpmath_on_their_own_divisors():
    # the mpmath recurrence fed the package's binary64 F and divisors, down
    # to 1.3e-10 by degree 48: only the recurrence's own rounding separates
    # the two (measured: at most 2.6 eps of the majorant)
    fam = get_family("quadratic")
    for alpha in CERTIFICATE_ALPHAS:
        F, divisors = _siegel_inputs(fam, alpha, 48)
        new = siegel_series(fam, alpha, 48).g.coeffs
        assert _majorant_error(new, _mpmath_solve_siegel(F, divisors), F, divisors) <= 1e3 * EPS, alpha


def test_siegel_overflow_is_typed_with_warnings_as_errors():
    # divisors pass the floor but coefficients outgrow binary64; the solver's
    # errstate must keep the mat-vec overflow from surfacing as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            siegel_series(get_family("quadratic"), 0.5 + 1e-12, 128)


# -- batched Siegel rows, and maps scaled by a power of two ------------------


def _same_outcome(new, ref):
    """Bitwise-equal SiegelSeries coefficients, or the same error and message."""
    if isinstance(ref, SiegelnumError):
        return type(new) is type(ref) and str(new) == str(ref)
    return isinstance(new, linearize.SiegelSeries) and new.g.coeffs.tobytes() == ref.g.coeffs.tobytes()


def _composition_spec(fam):
    """fam's map with no ODE declared, so that its Siegel rows come from the
    composition solve (_solve_siegel)."""
    return dataclasses.replace(fam, ode=None)


RATIONAL_SLOT, DEEP_DIP_SLOT = 11, 21


def _siegel_batch(size, seed=5):
    """size rotation numbers; from 32 up, a rational and a deep-dip alpha
    (0.5 + 1e-12: the quadratic series overflows binary64 there at n = 128)
    sit in the middle of the batch."""
    alphas = np.random.default_rng(seed).uniform(0.05, 0.95, size).tolist()
    if size >= 32:
        alphas[RATIONAL_SLOT], alphas[DEEP_DIP_SLOT] = 2 / 7, 0.5 + 1e-12
    return alphas


@dataclasses.dataclass(frozen=True)
class _Scaled:
    """f_s(z) = f(s z) / s in closed form, and its coefficients c_k s^(k-1)."""
    family: FamilySpec
    s: float

    def __call__(self, z):
        return self.family._point_eval(self.s * z) / self.s

    def coeffs(self, n):
        return base_series(self.family, n).coeffs * self.s ** np.arange(-1.0, n)


SCALES = (4.0, 0.125)


def _scaled(fam, s):
    """f_s, with singular value v / s.  For a power of two s every
    coefficient and every step scales exactly while no entry leaves
    binary64's normal range: h_s(z) = h(s z) / s and g_s(w) = g(s w) / s, so
    their rows are h_k s^(k-1) and g_k s^(k-1), and u_s = u - log s."""
    scaled = _Scaled(fam, s)
    with pytest.warns(UserWarning, match="single-singular-value"):
        return custom_family(f"{fam.family_id}@{s}", fam.v / s, 1, scaled.coeffs, scaled)


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_siegel_rows_are_scale_covariant(fam_id, n):
    # every term of degree k's sum scales by s^(k-1), so the composition
    # solve's rows of f_s are those of f times s^(k-1), bit for bit
    fam = _composition_spec(get_family(fam_id))
    alphas = [golden_rotation().value, silver_rotation().value] + _siegel_batch(6)
    refs = siegel_series_many(fam, alphas, n)
    for s in SCALES:
        for ref, new in zip(refs, siegel_series_many(_scaled(fam, s), alphas, n), strict=True):
            assert new.g.coeffs.tobytes() == (ref.g.coeffs * s ** np.arange(-1.0, n)).tobytes(), (ref.alpha, s)


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


def test_every_small_q_rational_trips_the_divisor_guard():
    # phases frac(k p/q) rounded once resolve every reduced p/q with q < 256
    # at n = 256, large q included (the first q a k alpha rounding hid was 133)
    alphas = [p / q for q in range(2, 256) for p in range(1, q) if math.gcd(p, q) == 1]
    assert len(alphas) == 19819
    outcomes = siegel_series_many(get_family("quadratic"), alphas, 256)
    assert {type(out) for out in outcomes} == {DivisorBreakdownError}


def test_every_large_q_rational_trips_the_divisor_guard():
    # the float p/q sits up to ulp/2 off the rational, so the degree-(q + 1)
    # divisor is up to ~pi q ulp(alpha), above the 1e-13 floor for 29 of
    # these 2064 (200/289, 176/293, ...): the floor 2 pi (k - 1) ulp(alpha)
    # is what trips there
    alphas = [p / q for q in range(289, 300) for p in range(1, q) if math.gcd(p, q) == 1]
    assert len(alphas) == 2064
    outcomes = siegel_series_many(get_family("quadratic"), alphas, 512)
    assert {type(out) for out in outcomes} == {DivisorBreakdownError}


def test_the_guard_reports_the_relative_floor_it_tripped():
    # the float 200/289 sits so far off the rational that its resonant
    # divisor clears SIEGEL_DIVISOR_FLOOR; only the relative floor catches it
    alpha = 200 / 289
    with pytest.raises(DivisorBreakdownError) as exc:
        siegel_series(get_family("quadratic"), alpha, 512)
    assert exc.value.k == 290
    assert exc.value.floor == 2 * math.pi * 289 * math.ulp(alpha) > SIEGEL_DIVISOR_FLOOR
    assert exc.value.magnitude < exc.value.floor


def test_phases_are_rounded_once():
    # against exact Fraction arithmetic: |phase - frac(k alpha)| <= 2^-53
    # mod 1 for every k, including tiny, negative and large alpha, and
    # column 1 is alpha itself on [0, 1), so lambda is e^{2 pi i alpha}
    rng = np.random.default_rng(26)
    alphas = np.concatenate([
        rng.uniform(0, 1, 40), rng.uniform(-3, 3, 10), 10.0 ** rng.uniform(-300, 0, 10),
        -(10.0 ** rng.uniform(-300, 0, 5)), rng.uniform(1, 1e6, 5),
        [0.0, 1.0, 128 / 133, 1 - 2**-53, 2.0**60 + 2**8, 1e300, 5e-324, 1e-310],
    ])
    phases = linearize._phases(alphas, 256)
    for alpha, row in zip(alphas.tolist(), phases.tolist()):
        exact = Fraction(alpha)
        for k, phase in enumerate(row):
            d = (Fraction(phase) - k * exact) % 1
            assert min(d, 1 - d) <= Fraction(1, 2**53), (alpha, k)
    unit = np.concatenate([rng.uniform(0, 1, 2000), 10.0 ** rng.uniform(-320, 0, 200)])
    assert linearize._phases(unit, 1)[:, 1].tobytes() == unit.tobytes()


BATCH_CASES = [(fam_id, 128) for fam_id in ALL_FAMILY_IDS] + [("quadratic", 256), ("poly_3", 256)]


@pytest.mark.parametrize("fam_id, n", BATCH_CASES)
def test_batched_siegel_rows_match_rowwise_oracle(fam_id, n):
    # the composition solve on every map's coefficients, against the rowwise
    # oracle: each alpha solved alone, as a batch of one.  Each row, and each
    # failure, is that row's bit for bit
    fam = _composition_spec(get_family(fam_id))
    alphas = _siegel_batch(32)
    batched = siegel_series_many(fam, alphas, n)
    assert len(batched) == len(alphas) and isinstance(batched[RATIONAL_SLOT], DivisorBreakdownError)
    for a, out in zip(alphas, batched):
        assert _same_outcome(siegel_series_many(fam, [a], n)[0], out), (fam_id, a)


def test_batched_siegel_row_does_not_depend_on_its_batch():
    # on every map's composition solve, the 32-alpha batch reversed inside
    # another batch gives each row, and each failure, bit for bit
    others = _siegel_batch(9, seed=6)
    alphas = _siegel_batch(32)
    for fam_id, n in BATCH_CASES:
        fam = _composition_spec(get_family(fam_id))
        first = siegel_series_many(fam, alphas, n)
        mixed = siegel_series_many(fam, others[:4] + alphas[::-1] + others[4:], n)[4 : 4 + len(alphas)]
        assert all(map(_same_outcome, mixed[::-1], first)), (fam_id, n)


@pytest.mark.parametrize("fam_id", ["quadratic", "exp"])
def test_batched_siegel_rows_do_not_depend_on_the_block(fam_id, monkeypatch):
    fam = get_family(fam_id)
    alphas = _siegel_batch(32)
    default = siegel_series_many(fam, alphas, 64)
    # 3 rows of a quadratic table (3 x 65 entries) per block, so the last
    # block is short; exp's ODE state (66 entries) takes 8 rows per block
    monkeypatch.setattr(linearize, "BLOCK_ENTRIES", 3 * 3 * 65)
    assert all(map(_same_outcome, siegel_series_many(fam, alphas, 64), default))


def _quadratic_stack(alphas, n):
    """(F, divisors) of quadratic, one row per alpha, as _solve_siegel takes them."""
    inputs = [_siegel_inputs(get_family("quadratic"), a, n) for a in alphas]
    return tuple(np.array(rows) for rows in zip(*inputs))


def test_siegel_plan_outputs_do_not_alias_the_workspace():
    # the plan's workspace is reused by the next solve of the same shape
    first, second = (_quadratic_stack(_siegel_batch(8, seed), 64) for seed in (7, 8))
    g = linearize._solve_siegel(*first)
    before = g.tobytes()
    linearize._solve_siegel(*second)
    assert g.tobytes() == before
    pows, weights, _ = linearize._siegel_plan(8, 2, 64, threading.get_ident())
    assert not np.shares_memory(g, pows) and not np.shares_memory(g, weights)


def _in_threads(jobs):
    """Each job's results over 5 calls, the jobs run at once, one thread
    each (more threads than cores, switching often)."""
    barrier = threading.Barrier(len(jobs), timeout=60)
    results = [[] for _ in jobs]

    def run(i):
        barrier.wait()
        for _ in range(5):
            results[i].append(jobs[i]())

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_siegel_plans_are_private_to_their_thread():
    # numpy drops the GIL inside matmul: threads solving batches of one
    # shape at once must each get its serial bytes
    stacks = [_quadratic_stack(_siegel_batch(32, seed), 256) for seed in (9, 10, 11, 12)]
    serial = [linearize._solve_siegel(*stack).tobytes() for stack in stacks]
    jobs = [lambda stack=stack: linearize._solve_siegel(*stack).tobytes() for stack in stacks]
    assert _in_threads(jobs) == [[row] * 5 for row in serial]


def test_ode_plans_are_private_to_their_thread():
    # the same for the ODE solve's plans: 31 live rows of exp per batch
    fam = get_family("exp")

    def solve(alphas):
        return [out.g.coeffs.tobytes() if isinstance(out, linearize.SiegelSeries) else str(out)
                for out in siegel_series_many(fam, alphas, 128)]

    batches = [_siegel_batch(32, seed) for seed in (9, 10, 11, 12)]
    serial = [solve(alphas) for alphas in batches]
    jobs = [lambda alphas=alphas: solve(alphas) for alphas in batches]
    assert _in_threads(jobs) == [[rows] * 5 for rows in serial]


def test_siegel_plan_memo_is_bounded():
    for rows in range(1, 12):
        linearize._solve_siegel(*_quadratic_stack(_siegel_batch(rows), 16))
    info = linearize._siegel_plan.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8


def test_siegel_series_rows_are_the_solved_rows_read_only():
    fam = get_family("quadratic")
    alphas = _siegel_batch(4)
    F, divisors = _quadratic_stack(alphas, 128)
    for ss, row in zip(siegel_series_many(fam, alphas, 128), linearize._solve_siegel(F, divisors)):
        assert not ss.g.coeffs.flags.writeable
        assert ss.g.coeffs.tobytes() == row.tobytes()
        with pytest.raises(ValueError):
            ss.g.coeffs[2] = 0


# -- the ODE solve of the maps that declare one --------------------------------

ODE_FAMILY_IDS = ("exp", "zexp", "sin", "tan", "reduced(sin)", "reduced(tan)")
ODE_ALPHAS = (golden_rotation().value, silver_rotation().value, golden_rotation().value / 2)


def _mpmath_ode_siegel(ode, alpha, n):
    """g_0..g_n at the exact binary64 alpha from the ODE recurrences, in
    40-digit arithmetic, stepping every degree: A is e^g, sin g or tan g,
    B is cos g or 1 + tan^2 g, and g_k (lambda^k - lambda) = lambda R_k with
    R_k the part of [f o g]_k without g_k."""
    with mpmath.workdps(40):
        lam = mpmath.expj(2 * mpmath.pi * mpmath.mpf(alpha))
        g, A, B = ([mpmath.mpc(0)] * (n + 1) for _ in range(3))
        g[1] = A[1] = B[0] = 1
        if ode in ("exp", "zexp"):
            A[0] = 1
        elif ode == "tan":
            B[2] = 1
        for k in range(2, n + 1):
            d = lam**k - lam
            if ode == "zexp":  # [g E]_k = g_k + sum_{i<k} g_i E_{k-i}
                g[k] = lam * mpmath.fsum(g[i] * A[k - i] for i in range(1, k)) / d
                A[k] = mpmath.fsum(j * g[j] * A[k - j] for j in range(1, k + 1)) / k
                continue
            # k A_k = sum_{j<=k} j g_j A'_{k-j}, A' = E, cos g or 1 + tan^2 g
            r = mpmath.fsum(j * g[j] * (A if ode == "exp" else B)[k - j] for j in range(1, k))
            g[k] = lam * r / (k * d)
            A[k] = g[k] + r / k
            if ode == "sin":
                B[k] = -mpmath.fsum(j * g[j] * A[k - j] for j in range(1, k + 1)) / k
            elif ode == "tan" and k + 1 <= n:
                B[k + 1] = mpmath.fsum(A[i] * A[k + 1 - i] for i in range(1, k + 1))
        return np.array([complex(c) for c in g])


@pytest.mark.parametrize("alpha", ODE_ALPHAS, ids=["golden", "silver", "golden/2"])
@pytest.mark.parametrize("ode", ["exp", "zexp", "sin", "tan"])
def test_ode_rows_match_mpmath_oracle(ode, alpha):
    # measured: within 1.3e-13 at n = 128 and 3.5e-13 at n = 256
    ref = _mpmath_ode_siegel(ode, alpha, 128)
    new = siegel_series(get_family(ode), alpha, 128).g.coeffs
    assert np.array_equal(new != 0, ref != 0)
    live = ref != 0
    assert np.max(np.abs(new[live] - ref[live]) / np.abs(ref[live])) <= 1e-10


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("fam_id", ["exp", "zexp", "sin", "reduced(sin)"])
def test_ode_rows_match_the_composition_solve(fam_id, n):
    # where the composition sum keeps its digits (not tan's): measured up
    # to 3.7e-11 on exp at n = 256, ~1e-14 on the others
    fam = get_family(fam_id)
    for new, ref in zip(siegel_series_many(fam, ODE_ALPHAS, n),
                        siegel_series_many(_composition_spec(fam), ODE_ALPHAS, n)):
        new, ref = new.g.coeffs, ref.g.coeffs
        assert np.array_equal(new != 0, ref != 0)
        live = ref != 0
        assert np.max(np.abs(new[live] - ref[live]) / np.abs(ref[live])) <= 1e-10


@pytest.mark.parametrize("fam_id", ODE_FAMILY_IDS)
def test_ode_rows_equal_their_batch_of_one(fam_id):
    fam = get_family(fam_id)
    alphas = _siegel_batch(32)
    batched = siegel_series_many(fam, alphas, 128)
    assert isinstance(batched[RATIONAL_SLOT], DivisorBreakdownError)
    for a, new in zip(alphas, batched):
        assert _same_outcome(siegel_series_many(fam, [a], 128)[0], new), (fam_id, a)
    assert sum(isinstance(out, linearize.SiegelSeries) for out in batched) >= 30


@pytest.mark.parametrize("fam_id", ["reduced(sin)", "reduced(tan)"])
def test_folded_rows_keep_the_reduced_divisor_guard(fam_id):
    # the fold solves f at alpha / 2, but the guard runs on the reduced
    # map's own divisors: every p/q breaks down at a resonance k = 1 + j q
    # with the (k, magnitude, floor) of an unfolded map at the same alpha
    fam = get_family(fam_id)
    pqs = [(p, q) for q in range(2, 12) for p in range(1, q) if math.gcd(p, q) == 1]
    outs, refs = (siegel_series_many(f, [p / q for p, q in pqs], 128) for f in (fam, get_family("quadratic")))
    for (p, q), out, ref in zip(pqs, outs, refs):
        assert isinstance(out, DivisorBreakdownError) and (out.k - 1) % q == 0, (p, q)
        assert (out.k, out.magnitude, out.floor) == (ref.k, ref.magnitude, ref.floor), (p, q)


def test_siegel_series_many_edges():
    fam = get_family("quadratic")
    assert siegel_series_many(fam, [], 64) == []
    with pytest.raises(PreconditionError):
        siegel_series_many(fam, [golden_rotation().value], 1)
    ss = siegel_series_many(fam, [golden_rotation()], 64)[0]  # a RotationNumber is accepted
    assert ss.alpha == golden_rotation().value
    assert ss.lam == cmath.exp(2j * math.pi * ss.alpha)


# each entry point that takes a series degree n, called at n on quadratic or exp
_DEGREE_ENTRIES = {
    "siegel_series": lambda fam, n: siegel_series(fam, golden_rotation(), n),
    "siegel_series_many": lambda fam, n: siegel_series_many(fam, [golden_rotation(), 0.3], n),
    "rho_coefficient": lambda fam, n: radius.rho_coefficient(fam, golden_rotation(), n),
    "rho_coefficients": lambda fam, n: radius.rho_coefficients(fam, [golden_rotation(), 0.3], n),
    "koenigs_series": lambda fam, n: koenigs_series(fam, 0.5, n),
    "u_values": lambda fam, n: u_values(fam, [0.5, 0.3j], n),
    "yoccoz_w": lambda fam, n: yoccoz_w(fam, 0.5, n),
    "rho_radial": lambda fam, n: rho_radial(fam, golden_rotation(), depth=4, n=n),
}


def _degree_bits(out):
    """An entry point's output as bits: _fingerprint per outcome, and a
    RadiusEstimate's repr with its fitted series, if it has one."""
    if isinstance(out, list):
        return [_degree_bits(o) for o in out]
    if isinstance(out, radius.RadiusEstimate):
        return repr(out), out.series and _fingerprint(out.series)
    return _fingerprint(out)


@pytest.mark.parametrize("fam_id", ["quadratic", "exp"])
@pytest.mark.parametrize("entry", list(_DEGREE_ENTRIES))
def test_series_degree_is_an_integer(entry, fam_id):
    # a numpy integer gives the int's outputs bit for bit; a float, a whole
    # one too, is refused, also once the int's tables are memoized
    call, fam = _DEGREE_ENTRIES[entry], get_family(fam_id)
    want = _degree_bits(call(fam, 64))
    assert _degree_bits(call(fam, np.int64(64))) == want
    for bad in (64.0, 64.5):
        with pytest.raises(PreconditionError, match=re.escape(f"series degree must be an integer, got {bad!r}")):
            call(fam, bad)


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


# -- the lambda pipeline against the Koenigs limit and exact relations -------


def _tail_majorant(h, r):
    """sum_{N/2 < k <= N} |h_k| r^k, one term at a time."""
    n = len(h) - 1
    return sum(abs(h[k]) * r**k for k in range(n // 2 + 1, n + 1))


def _scalar_entry_radius(h):
    """The entry rule: the first (largest) rung whose tail majorant passes."""
    return next(r for r in ENTRY_RADIUS_GRID if _tail_majorant(h, r) <= ENTRY_TAIL_TOL)


def _first_entry_orbit(family, lam, z, r_entry, budget):
    """Basin orbit to its first entry: a while loop that tests each exit on
    its own after every step (the rule _orbit follows for its first
    _ORBIT_CHUNK steps and in every chunk it reruns)."""
    m = 0
    while abs(z) > r_entry:
        if m >= budget:
            raise NoConvergenceError(budget)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > ESCAPE_BOUND:
            raise NoConvergenceError(
                budget, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
            )
        m += 1
        try:
            z = family_eval(family, lam, z)
        except OverflowError:
            raise NoConvergenceError(budget, f"orbit escaped (map overflowed) after {m} iterations") from None
    return z, m


def _reference_orbit(family, lam, z, r_entry, budget):
    """Reference basin orbit: _orbit's rule as one while loop.  It steps as
    _first_entry_orbit does, except that from step _ORBIT_CHUNK on, while a
    chunk of _ORBIT_CHUNK steps fits in the budget, it takes the chunk whole
    when none of its steps raised and its last iterate lies strictly between
    r_entry and ESCAPE_BOUND; from the first chunk that fails, it steps."""
    chunk = linearize._ORBIT_CHUNK
    m, chunked = 0, True
    while abs(z) > r_entry:
        if m >= budget:
            raise NoConvergenceError(budget)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > ESCAPE_BOUND:
            raise NoConvergenceError(
                budget, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
            )
        if chunked and m >= chunk and m + chunk <= budget:
            y = z
            try:
                for _ in range(chunk):
                    y = family_eval(family, lam, y)
                whole = r_entry < abs(y) <= ESCAPE_BOUND
            except Exception:  # any error: the chunk is stepped instead
                whole = False
            if whole:
                z, m = y, m + chunk
                continue
            chunked = False
        m += 1
        try:
            z = family_eval(family, lam, z)
        except OverflowError:
            raise NoConvergenceError(budget, f"orbit escaped (map overflowed) after {m} iterations") from None
    return z, m


def _planned_degrees(fam, n):
    return [k for k, _, _ in linearize._koenigs_table(fam, n)[1]]


# the last one 0.05 from the circle, where the rows reach 1e221 at n = 257
KOENIGS_LAMS = (0.3, 0.5j, 0.7 * cmath.exp(2.1j), 0.95 * cmath.exp(-0.4j))


@pytest.mark.parametrize("n", [2, 3, 7, 64, 257])
@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_planned_koenigs_rows_satisfy_the_functional_equation(fam_id, n):
    # the degree plan reads only table entries that can be nonzero: a
    # batch's rows are those of koenigs_series, exactly 0 on the degrees off
    # the plan and only there, and each solves h(f_lambda(z)) = lambda h(z)
    # to rounding (measured: at most 4.0e-16)
    fam, planned = get_family(fam_id), _planned_degrees(get_family(fam_id), n)
    rows = linearize._solve_koenigs(*linearize._koenigs_table(fam, n), np.array(KOENIGS_LAMS))
    for lam, row in zip(KOENIGS_LAMS, rows, strict=True):
        ks = koenigs_series(fam, lam, n)
        assert row.tobytes() == ks.h.coeffs.tobytes()
        assert row[:2].tolist() == [0, 1] and np.flatnonzero(row[2:]).tolist() == [k - 2 for k in planned]
        assert conjugacy_residual(ks) <= 1e-14, (fam_id, n, lam)


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_koenigs_rows_are_scale_covariant(fam_id):
    # the rows of f_s are h_k s^(k-1) bit for bit where neither power table
    # holds a subnormal part.  Exempt, all at n = 128: exp, zexp and sin at
    # s = 1/8 (8^-(k-1) / k! < 2.2e-308) and reduced(sin), whose own table
    # is subnormal; at n = 257 the rows overflow (s = 4) or turn subnormal.
    # u_s = u - log s to rounding either way (measured: at most 1.4e-15)
    fam, compared = get_family(fam_id), 0
    for s, n in itertools.product(SCALES, (7, 64, 128)):
        scaled = _scaled(fam, s)
        parts = [abs(linearize._koenigs_table(f, n)[0].view(np.float64)) for f in (fam, scaled)]
        if any(np.any((0 < p) & (p < np.finfo(np.float64).tiny)) for p in parts):
            continue
        for lam in KOENIGS_LAMS:
            want = koenigs_series(fam, lam, n).h.coeffs * s ** np.arange(-1.0, n)
            assert koenigs_series(scaled, lam, n).h.coeffs.tobytes() == want.tobytes(), (s, n, lam)
            compared += 1
    assert compared >= 16
    lams = _LIMIT_LAMS[:-1]  # off the depth-7 ray, where orbits of other lengths move u by 2.9e-14
    for s in SCALES:
        for lam, value, new in zip(lams, u_values(fam, lams), u_values(_scaled(fam, s), lams), strict=True):
            assert abs(new.u - (value.u - math.log(s))) <= 1e-14, (s, lam)


@pytest.mark.parametrize("n", [7, 64, 257])
def test_degree_plan_reads_the_nonzero_band(n):
    def plan(fam_id):
        return {k: sl for k, sl, _ in linearize._koenigs_table(get_family(fam_id), n)[1]}

    # polynomial rows are banded: [z^k] f^j = 0 below j = ceil(k/d)
    for fam_id, d in (("quadratic", 2), ("poly_3", 3)):
        assert plan(fam_id) == {k: slice(-(-k // d), k, 1) for k in range(2, n + 1)}, fam_id
    # odd maps: every even degree is structurally 0, odd degrees read odd j;
    # sin's 1/k! underflows to 0 from k = 179, where its slices start later
    for fam_id in ("sin", "tan"):
        odd = plan(fam_id)
        assert list(odd) == list(range(3, n + 1, 2)), fam_id
        assert all((sl.start % 2, sl.stop, sl.step) == (1, k - 1, 2) for k, sl in odd.items())
        assert all(sl.start == 1 for k, sl in odd.items() if k < 179), fam_id
    # the others read full rows while their coefficients are representable
    if n < 170:
        for fam_id in ("exp", "zexp", "reduced(sin)", "reduced(tan)"):
            assert plan(fam_id) == {k: slice(1, k, 1) for k in range(2, n + 1)}, fam_id
    # each row view is the table's own read-only slice
    cols, degrees = linearize._koenigs_table(get_family("sin"), n)
    for k, sl, row in degrees:
        assert np.shares_memory(row, cols) and row[:, 0].tobytes() == cols[k, sl].tobytes()


def test_degree_plan_ignores_the_declared_symmetry():
    # a map that declares symmetry order 2 but is not odd: the plan is read
    # off the table, so no degree is skipped and every row is solved
    with pytest.warns(UserWarning, match="single-singular-value"):
        lying = custom_family("lying", 0.25, 2, families._quadratic_coeffs, lambda z: z * (1 - z))
    assert _planned_degrees(lying, 64) == list(range(2, 65))
    quad = get_family("quadratic")
    for lam in (0.5, 0.7j):
        assert (koenigs_series(lying, lam, 64).h.coeffs.tobytes()
                == koenigs_series(quad, lam, 64).h.coeffs.tobytes())
        assert np.all(koenigs_series(lying, lam, 64).h.coeffs[2::2] != 0)


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_entry_value_product_matches_horner(fam_id):
    # h(z_m) is one product of each row with the cumulative powers z^k; on
    # random rows and points inside the entry disc it is within 16 ulps of
    # Horner's value, relative to the term majorant sum |h_k| |z|^k (at most
    # 1.6 ulps seen: inside the entry disc the terms decay fast, so the
    # k roundings behind z^k only reach terms that hardly count)
    fam = get_family(fam_id)
    rng = np.random.default_rng(32)
    n = 128
    lams = (rng.uniform(0.05, 0.9, 12) * np.exp(2j * math.pi * rng.uniform(0, 1, 12))).tolist()
    rows = [koenigs_series(fam, lam, n).h for lam in lams]
    radii = [entry_radius(h) for h in rows]
    starts = [r * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform(0, 1)) for r in radii]
    steps = linearize._basin_step(fam, lams, np.array([h.coeffs for h in rows]), starts, 1)
    for h, z, r, (hz, m, r_entry) in zip(rows, starts, radii, steps, strict=True):
        assert (m, r_entry) == (0, r)
        terms = np.abs(h.coeffs) * abs(z) ** np.arange(n + 1)
        assert abs(hz - evaluate(h, z)) <= 16 * EPS * terms.sum(), (fam_id, z)


# f in mpmath, in forms that do not cancel near 0: with exp(z) - 1 for exp
# the limit below drifts by 2e-9
_MPMATH_MAPS = {
    "quadratic": lambda z: z * (1 - z), "poly_3": lambda z: z + z**2 / 3 + z**3 / 27,
    "exp": mpmath.expm1, "zexp": lambda z: z * mpmath.exp(z), "sin": mpmath.sin, "tan": mpmath.tan,
    "reduced(sin)": lambda w: mpmath.sin(mpmath.sqrt(w)) ** 2,
    "reduced(tan)": lambda w: mpmath.tan(mpmath.sqrt(w)) ** 2,
}
# six multipliers with |lambda| in [0.1, 0.9], and the golden ray at depth 7,
# where every map's orbit takes 55 to 178 steps into its entry disc, so
# through accepted chunks
_LIMIT_LAMS = (np.random.default_rng(17).uniform(0.1, 0.9, 6) * np.exp(2j * math.pi * np.arange(6) / 6)).tolist() + [
    (1 - 2.0**-7) * cmath.exp(2j * math.pi * golden_rotation().value)]


def _koenigs_loop(fam_id, lam, z, tol=1e-20):
    """The loop oracle, no series: h(z) = lim lambda^-m f_lambda^m(z), the
    map iterated in 20 digits until |z_m| <= tol, where h(z_m) = z_m (1 + O(z_m))."""
    step = _MPMATH_MAPS[fam_id]
    with mpmath.workdps(20):
        lam_mp, z, m = mpmath.mpc(lam), mpmath.mpc(z), 0
        while abs(z) > tol:
            z, m = lam_mp * step(z), m + 1
        return complex(z / lam_mp**m)


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_u_matches_the_koenigs_limit(fam_id):
    # series, entry radius, orbit and unwinding against u = log|h(lambda v) / lambda|
    # from the limit, which uses none of them (measured: within 4.4e-14)
    fam = get_family(fam_id)
    values = u_values(fam, _LIMIT_LAMS)
    for lam, value in zip(_LIMIT_LAMS, values, strict=True):
        assert abs(value.u - math.log(abs(_koenigs_loop(fam_id, lam, lam * fam.v, 1e-14) / lam))) <= 1e-12, lam
    assert values[-1].iterations_used > 2 * linearize._ORBIT_CHUNK


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_koenigs_solver_matches_loop_oracle(fam_id):
    # koenigs_series' rows summed at half the entry radius, within 4 ulps of
    # the term majorant sum |h_k| |z|^k (measured: at most 0.87)
    fam = get_family(fam_id)
    for lam, turn in zip(KOENIGS_LAMS, (0.3, 2.5, 4.1, 5.6)):
        h = koenigs_series(fam, lam, 128).h
        z = 0.5 * entry_radius(h) * cmath.exp(1j * turn)
        terms = np.abs(h.coeffs) * abs(z) ** np.arange(129)
        assert abs(evaluate(h, z) - _koenigs_loop(fam_id, lam, z)) <= 4 * EPS * terms.sum(), (lam, z)


def test_entry_radius_is_the_first_rung_whose_tail_passes():
    # the rule one term at a time, on every map at the limit multipliers and
    # at two whose tail majorants sit near ENTRY_TAIL_TOL (zexp: 1.85e-13 at
    # r = 0.2; reduced(tan): 0.82e-13 at r = 0.5); u_values takes the same
    cases = [(fam_id, lam) for fam_id in ALL_FAMILY_IDS for lam in _LIMIT_LAMS] + [
        ("zexp", 0.7646197002379004 - 0.5291398744589179j), ("reduced(tan)", -0.18157682244954285 - 0.9117832556070424j)]
    for fam_id, lam in cases:
        fam = get_family(fam_id)
        h = koenigs_series(fam, lam).h
        assert entry_radius(h) == _scalar_entry_radius(h.coeffs) == yoccoz_w(fam, lam).entry_radius, (fam_id, lam)


def test_u_values_edge_cases_are_typed_errors():
    # the basin rule, the entry ladder and the budget: each a typed error in
    # its slot, next to a value, and raised by yoccoz_w
    quad, basin = get_family("quadratic"), "a Koenigs linearization needs 0 < |lambda| < 1"
    ladder = "no radius in the 49-rung ladder from 1 down to 0.01 gives two-truncation agreement <= 1e-13"
    cases = [(0.0, DEFAULT_BUDGET, PreconditionError, basin), (1.0, DEFAULT_BUDGET, PreconditionError, basin),
             (1 - 5e-16, DEFAULT_BUDGET, PreconditionError, "|lambda| = 1 is the Siegel regime; use siegel_series"),
             (0.999, DEFAULT_BUDGET, EntryRadiusError, ladder),
             (0.9, 1, NoConvergenceError, "iteration budget 1 exhausted"),
             (0.9j, 1, NoConvergenceError, "iteration budget 1 exhausted")]
    alone = yoccoz_w(quad, 0.5, 64)  # m = 0, so every budget gives it
    for lam, budget, kind, message in cases:
        value, out = u_values(quad, [0.5, lam], 64, budget)
        assert value == alone and type(out) is kind and str(out) == message, lam
        with pytest.raises(kind, match=re.escape(message)):
            yoccoz_w(quad, lam, 64, budget)
    # a degree below 2 fails the whole call, before any solve
    with pytest.raises(PreconditionError, match="series degree must be >= 2"):
        u_values(quad, [0.5, 2.0], 1)


def _fingerprint(outcome):
    """An outcome of u_values, koenigs_series or siegel_series_many as
    bytes: its numbers' binary64 bits, or its error class and message."""
    if isinstance(outcome, SiegelnumError):
        return type(outcome).__name__, str(outcome)
    if isinstance(outcome, YoccozValue):
        numbers = [outcome.lam, outcome.w, outcome.u, outcome.entry_radius]
        return np.array(numbers).tobytes(), outcome.iterations_used
    if isinstance(outcome, linearize.KoenigsSeries):
        return np.complex128(outcome.lam).tobytes(), outcome.h.coeffs.tobytes()
    return np.complex128(outcome.lam).tobytes(), outcome.g.coeffs.tobytes()


def _pipeline_fingerprints(fam, n):
    """u_values on interior, ray and refused multipliers, koenigs_series on
    some of them, siegel_series_many on irrational, rational and non-finite
    rotation numbers."""
    lams = [r * cmath.exp(2j * math.pi * t) for r in (0.1, 0.5, 0.9) for t in (0.05, 0.4, 0.7)]
    lams += [(1 - 2.0**-k) * cmath.exp(2j * math.pi * golden_rotation().value) for k in (4, 8)]
    lams += [0, 1.5, 1 - 2e-15]
    koenigs = []
    for lam in lams[::2]:
        try:
            koenigs.append(koenigs_series(fam, lam, n))
        except SiegelnumError as exc:
            koenigs.append(exc)
    alphas = [golden_rotation().value, silver_rotation().value, 2 / 7, float("nan")]
    outcomes = u_values(fam, lams, n) + koenigs + siegel_series_many(fam, alphas, n)
    return [_fingerprint(out) for out in outcomes]


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_shared_tables_give_the_rebuilt_results(fam_id, n, monkeypatch):
    # the power table and base series shared per (map, n) give, cold and
    # warm, the bytes of a table rebuilt from a fresh base series each call
    fam = get_family(fam_id)
    families.base_series.cache_clear()
    linearize._koenigs_table.cache_clear()
    cold = _pipeline_fingerprints(fam, n)
    warm = _pipeline_fingerprints(fam, n)
    with monkeypatch.context() as m:
        build = families.base_series.__wrapped__
        for module in (families, linearize):
            m.setattr(module, "base_series", build)
        m.setattr(linearize, "_koenigs_table", linearize._koenigs_table.__wrapped__)
        rebuilt = _pipeline_fingerprints(fam, n)
    assert cold == warm == rebuilt
    assert base_series(fam, n) is base_series(fam, n)
    cols, plan = linearize._koenigs_table(fam, n)
    with pytest.raises(ValueError):
        cols[1, 1] = 0
    assert not any(row.flags.writeable for _, _, row in plan)
    before = linearize._koenigs_table.cache_info()
    u_values(fam, [0.5], n)
    after = linearize._koenigs_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_rung_table_is_shared_and_read_only():
    table = linearize._rung_table(ENTRY_RADIUS_GRID, 128)
    assert linearize._rung_table(ENTRY_RADIUS_GRID, 128) is table
    assert table.shape == (64, len(ENTRY_RADIUS_GRID))
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_u_values_rows_do_not_depend_on_the_block(monkeypatch):
    # a lambda's value is the same whether yoccoz_w, a grid or a ray scan
    # asks for it, whatever block it is solved in: full rows (exp), banded
    # rows (quadratic) and rows that skip every even degree (sin)
    lams = [r * cmath.exp(2j * math.pi * t) for r in (0.2, 0.6, 0.9) for t in (0.1, 0.45, 0.8)]
    for fam_id in ("exp", "quadratic", "sin"):
        fam = get_family(fam_id)
        alone = [yoccoz_w(fam, lam, 64) for lam in lams]
        assert u_values(fam, lams, 64) == alone, fam_id
        with monkeypatch.context() as m:
            m.setattr(linearize, "BLOCK_ENTRIES", 4 * 65)  # 4 rows of degree 64
            assert u_values(fam, lams, 64) == alone, fam_id


def test_overflowed_row_is_reported_in_its_slot():
    # lambda = 1 - 2e-15 is close enough to the circle that its Koenigs
    # coefficients overflow by degree 64; the rows around it are those of
    # a batch of one
    quad = get_family("quadratic")
    good, broken, other = u_values(quad, [0.5, 1 - 2e-15, 0.3j], 64)
    assert good == yoccoz_w(quad, 0.5, 64)
    assert other == yoccoz_w(quad, 0.3j, 64)
    assert isinstance(broken, CoefficientOverflowError)
    assert str(broken).startswith("Koenigs coefficients overflowed binary64 at degree ")


def test_a_row_overflows_where_its_first_modulus_does():
    # finite parts, |c_3| = 2.1e308 > 1.8e308: the row is refused at degree
    # 3, without the overflow warning of |c_3| (Tier-1 runs with -W error)
    row = np.ones((1, 6), dtype=np.complex128)
    row[0, 3:] = 1.5e308 + 1.5e308j
    assert np.isfinite(row).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [out] = _read_rows(row, "Siegel")
    assert isinstance(out, CoefficientOverflowError)
    assert str(out).startswith("Siegel coefficients overflowed binary64 at degree 3;")


@pytest.mark.parametrize("lam", [1e-13, 1e-15, 1e-300])
def test_tiny_multiplier_gives_the_asymptote(lam):
    # w(lambda) / lambda -> v as lambda -> 0: a Koenigs divisor
    # lambda (lambda^{k-1} - 1) is tiny here but never vanishes
    quad = get_family("quadratic")
    assert abs(yoccoz_w(quad, lam, 64).w / lam - quad.v) <= 1e-12 * abs(quad.v)


def test_entry_radii_do_not_depend_on_the_batch():
    # rows scaled so that their tail majorant at r = 0.2 sits within
    # rounding of ENTRY_TAIL_TOL: the decision between 0.2 and the rung
    # below it then turns on the last bits of the sum, which must not
    # depend on the other rows; two rows growing like 200^k pass no rung,
    # and each gets an EntryRadiusError of its own in its slot
    rng = np.random.default_rng(7)
    n, ks = 128, np.arange(65, 129)
    h = rng.standard_normal((400, n + 1)) + 1j * rng.standard_normal((400, n + 1))
    h *= 0.2 ** -np.arange(n + 1) * 10.0 ** rng.uniform(-3, 3, (400, 1))
    h *= (ENTRY_TAIL_TOL / (np.abs(h[:, ks]) @ 0.2**ks))[:, None]
    stuck = 200.0 ** np.arange(n + 1) + 0j
    h = np.vstack([h[:200], stuck, h[200:], stuck])
    batch = linearize._entry_radii(h)
    failed = [batch[200], batch[-1]]
    below = ENTRY_RADIUS_GRID[ENTRY_RADIUS_GRID.index(0.2) + 1]
    assert set(batch[:200] + batch[201:-1]) == {0.2, below}
    message = "no radius in the 49-rung ladder from 1 down to 0.01 gives two-truncation agreement <= 1e-13"
    assert [type(e) for e in failed] == [EntryRadiusError] * 2 and failed[0] is not failed[1]
    assert [str(e) for e in failed] == [message] * 2
    with pytest.raises(EntryRadiusError, match=re.escape(message)):
        entry_radius(TruncatedSeries.from_coeffs(stuck))
    alone = [r for b in range(h.shape[0]) for r in linearize._entry_radii(h[b : b + 1])]
    assert list(map(repr, batch)) == list(map(repr, alone))
    assert list(map(repr, batch[::3])) == list(map(repr, linearize._entry_radii(h[::3])))


def _scan_rays():
    """The golden ray at depths 2..14 (rho_radial's depth in ray scans) and
    the silver and six bounded-type rays at depths 2..12."""
    rng = np.random.default_rng(13)
    alphas = [silver_rotation().value] + [rotation_from_cf(rng.integers(1, 5, 40).tolist()).value for _ in range(6)]
    rays = [(golden_rotation().value, 14)] + [(a, 12) for a in alphas]
    return [(1 - 2.0**-k) * cmath.exp(2j * math.pi * a) for a, depth in rays for k in range(2, depth + 1)]


def test_entry_radii_above_the_old_grid_keep_u(monkeypatch):
    # the rungs 1.0 and 0.5 shorten ray orbits; on the scan rays every
    # family must read the same u as with every orbit run into |z| <= 0.01
    lams = _scan_rays()
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


def test_subdivided_ladder_never_lengthens_an_orbit(monkeypatch):
    # the ladder keeps every 1-2-5 rung, so on the scan rays no lambda of
    # any family gets a smaller entry radius or a longer orbit than the
    # 1-2-5 ladder gives it, and u stays put
    lams = _scan_rays()
    shortened = 0
    for fam_id in ALL_FAMILY_IDS:
        fam = get_family(fam_id)
        fine = u_values(fam, lams)
        with monkeypatch.context() as m:
            m.setattr(linearize, "ENTRY_RADIUS_GRID", (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01))
            coarse = u_values(fam, lams)
        for lam, new, ref in zip(lams, fine, coarse, strict=True):
            assert type(new) is type(ref), (fam_id, lam, new, ref)
            if isinstance(ref, YoccozValue):
                assert new.entry_radius >= ref.entry_radius, (fam_id, lam)
                assert new.iterations_used <= ref.iterations_used, (fam_id, lam)
                assert abs(new.u - ref.u) <= 1e-12, (fam_id, lam, new.u, ref.u)
                shortened += new.iterations_used < ref.iterations_used
    assert shortened > 0


@pytest.mark.parametrize("fam_id, inner", [("reduced(sin)", mpmath.sin), ("reduced(tan)", mpmath.tan)])
def test_reduced_orbit_matches_mpmath(fam_id, inner):
    # the binary64 fold and orbit against the same orbit at 40 digits from
    # the same (binary64) lambda, for the number of steps the pipeline took,
    # unwound through the same degree-128 h: measured at most 9.2e-14
    fam = get_family(fam_id)
    lam_unit = cmath.exp(2j * math.pi * golden_rotation().value)
    for depth in (10, 12):
        lam = (1 - 2.0**-depth) * lam_unit
        value = yoccoz_w(fam, lam)
        h = koenigs_series(fam, lam, 128).h.coeffs
        with mpmath.workdps(40):
            mlam = mpmath.mpc(lam)
            w = mlam * fam.v
            for _ in range(value.iterations_used):
                w = mlam * inner(mpmath.sqrt(w)) ** 2
            hw = mpmath.polyval([mpmath.mpc(c) for c in h[::-1]], w)
            u_ref = float(mpmath.log(abs(hw / mlam ** (value.iterations_used + 1))))
        assert abs(value.u - u_ref) <= 1e-12, (fam_id, depth, value.u, u_ref)


# Near-parabolic quadratic multipliers (|lambda| = 1 - 2e-4 and 1 - 4e-4,
# alpha 5e-6 and 1.4e-5 below 1/175 and 1/133, so q > n): the degree-128
# tail test passes radii where h misses the parabolic resonance, so u is
# wrong with no flag.  References: the orbit of lambda/4 run at 45 digits
# into |z| <= 1e-30, unwound through h(z) = z + z^2 / (lambda - 1).  A
# degree-2n entry certificate is the planned fix; strict, so the fix
# shows up here.
@pytest.mark.xfail(strict=True, reason="entry radii do not see near-parabolic resonance")
@pytest.mark.parametrize(
    "lam, u_ref",
    [
        (0.9991972765939481 + 0.03585810501972899j, -3.3844555820655516),
        (0.9985217726890717 + 0.04711877107026653j, -3.1291246755688946),
    ],
    ids=["lambda1", "lambda2"],
)
def test_near_parabolic_u_matches_mpmath(lam, u_ref):
    assert abs(yoccoz_w(get_family("quadratic"), lam).u - u_ref) <= 1e-10


def test_an_orbit_onto_the_fixed_point_has_a_vanishing_yoccoz_value():
    # quadratic with v = 2 declared: at lambda = 0.5 the orbit of lambda v = 1
    # lands exactly on 0, where h = 0, so w = 0 and u = log 0 is refused
    quad = get_family("quadratic")
    with pytest.warns(UserWarning, match="single-singular-value"):
        pre0 = custom_family("pre0", 2.0, 1, quad._coeff_gen, quad._point_eval)
    (out,) = u_values(pre0, [0.5], 64)
    assert isinstance(out, NumericalError) and str(out) == "vanishing Yoccoz value at lambda = (0.5+0j)"


def test_a_wrong_singular_value_past_the_koebe_cap_is_refused():
    # quadratic with v = 0.9 (1 - 1/lambda) / lambda declared at lambda = 0.9:
    # lambda v sits near the repelling fixed point 1 - 1/lambda, where
    # u = log|h(lambda v) / lambda| exceeds M = log 4|v|, so the row is
    # refused rather than returned
    quad = get_family("quadratic")
    lam = 0.9
    with pytest.warns(UserWarning, match="single-singular-value"):
        wrong = custom_family("wrong_v", 0.9 * (1 - 1 / lam) / lam, 1, quad._coeff_gen, quad._point_eval)
    message = "Koebe bound violated: u = 0.352955 >= M = -0.81093 at lambda = (0.9+0j)"
    (out,) = u_values(wrong, [lam], 128)
    assert type(out) is NumericalError and str(out) == message
    with pytest.raises(NumericalError) as raised:
        yoccoz_w(wrong, lam, 128)
    assert type(raised.value) is NumericalError and str(raised.value) == message


@pytest.mark.parametrize("lam, v, message", [
    (0.5, 3.43313, "u = 2.66599 >= M = 2.61977"),
    (0.7, 1.95672, "u = 2.10945 >= M = 2.05756"),
    (0.8, 1.53978, "u = 1.99086 >= M = 1.81793"),
    (0.9, -0.08844, "u = -1.02864 >= M = -1.03914"),
    (0.95, -0.04059, "u = -1.81641 >= M = -1.81794"),
])
def test_a_wrong_singular_value_inside_4v_is_refused_by_u(lam, v, message):
    # quadratic with a wrongly declared v whose w stays below 4|v| but not
    # below 4|lambda v|: the Koebe bound is u < M, which refuses the row
    quad = get_family("quadratic")
    with pytest.warns(UserWarning, match="single-singular-value"):
        wrong = custom_family("wrong_v", v, 1, quad._coeff_gen, quad._point_eval)
    (out,) = u_values(wrong, [lam], 128)
    assert type(out) is NumericalError
    assert str(out) == f"Koebe bound violated: {message} at lambda = ({lam}+0j)"


def test_koenigs_eval_at_a_preimage_of_the_fixed_point_is_zero():
    # f_lambda(1) = 0 for quadratic, so h(1) = lambda^-1 h(0) = 0 after one step
    assert koenigs_eval(koenigs_series(get_family("quadratic"), 0.5, 64), 1.0) == (0j, 1)


def test_koenigs_eval_matches_yoccoz_w():
    # both run the one basin step, so h on the basin is evaluated the same
    # way bit for bit, whichever entry point asks; the depth-14 golden
    # multiplier's orbits run through hundreds of chunks
    rng = np.random.default_rng(11)
    deep_lam = (1 - 2.0**-14) * cmath.exp(2j * math.pi * golden_rotation().value)
    deep = 0
    for fam_id in ALL_FAMILY_IDS:
        fam = get_family(fam_id)
        lams = rng.uniform(0.1, 0.95, 30) * np.exp(2j * math.pi * rng.uniform(0, 1, 30))
        compared = 0
        for lam in lams.tolist() + [deep_lam]:
            try:
                value = yoccoz_w(fam, lam, 128)
            except SiegelnumError:
                continue
            w, m = koenigs_eval(koenigs_series(fam, lam, 128), lam * fam.v)
            assert (w, m) == (value.w, value.iterations_used), (fam_id, lam)
            compared += 1
            deep += m >= 100 * linearize._ORBIT_CHUNK
        assert compared >= 20, fam_id
    assert deep == len(ALL_FAMILY_IDS)


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


def _assert_first_entry_orbit(family, lam, z, r_entry, budget):
    """_orbit and its reference against _first_entry_orbit: the same (z, m)
    by repr, or the same error type and message."""
    new = _assert_same_orbit(family, lam, z, r_entry, budget)
    first = _orbit_outcome(_first_entry_orbit, family, complex(lam), complex(z), r_entry, budget)
    assert repr(new) == repr(first), (family.family_id, lam, z, r_entry, budget)
    return new


def _halving_family(name, point_eval):
    """A custom map; at lambda = 1 from z = 1 an orbit of z / 2 is 2^-k exactly."""
    with pytest.warns(UserWarning, match="single-singular-value"):
        return custom_family(name, 1.0, 1, families._quadratic_coeffs, point_eval)


CHUNK = linearize._ORBIT_CHUNK
CHUNK_BUDGETS = [CHUNK * j + d for j in range(1, 5) for d in (-1, 0, 1)]


def test_orbit_exits_at_chunk_boundaries_match_the_first_entry():
    quad = get_family("quadratic")
    # entering: from 0.2 at lambda = 0.5 the orbit shrinks monotonically, so
    # r_entry = |z_k| makes step k the entry
    orbit = [0.2 + 0j]
    while len(orbit) <= max(CHUNK_BUDGETS):
        orbit.append(family_eval(quad, 0.5, orbit[-1]))
    for k in CHUNK_BUDGETS:
        for budget in CHUNK_BUDGETS:
            out = _assert_first_entry_orbit(quad, 0.5, 0.2, abs(orbit[k]), budget)
            assert out == ((orbit[k], k) if budget >= k else (NoConvergenceError, f"iteration budget {budget} exhausted"))
    # escaping: from 3, and from -1 - 1.5^-i, which leaves the repelling
    # fixed point -1 at rate 1.5 and escapes one step later for each i
    escapes = {}
    for z in [3 + 0j] + [complex(-1 - 1.5**-i) for i in range(1, 70)]:
        out = _orbit_outcome(_first_entry_orbit, quad, 0.5 + 0j, z, 0.01, DEFAULT_BUDGET)
        escapes.setdefault(int(out[1].rsplit(" ", 2)[1]), z)
    assert set(CHUNK_BUDGETS) <= set(escapes)
    for m_esc in [min(escapes)] + CHUNK_BUDGETS:
        for budget in CHUNK_BUDGETS:
            out = _assert_first_entry_orbit(quad, 0.5, escapes[m_esc], 0.01, budget)
            if budget > m_esc:
                assert out == (NoConvergenceError, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m_esc} iterations")
            else:
                assert out == (NoConvergenceError, f"iteration budget {budget} exhausted")


def test_an_overflow_inside_a_chunk_is_the_first_entry_escape():
    # exp at lambda = 1 drifts off its parabolic point 0 and overflows; the
    # overflowing step lies past the first chunk's start
    exp, steps = get_family("exp"), set()
    for x in (0.02, 0.021, 0.022):
        out = _assert_first_entry_orbit(exp, 1.0, x, 0.01, DEFAULT_BUDGET)
        steps.add(int(re.fullmatch(r"orbit escaped \(map overflowed\) after (\d+) iterations", out[1]).group(1)))
    assert all(m > CHUNK for m in steps) and any(m % CHUNK for m in steps)


def _tan_start_onto_a_pole(m):
    """A real start whose orbit under tan (lambda = 1) meets a pole at step
    m: the orbit drifts off the parabolic point 0 slowly, so its iterate
    m - 1 grows with the start smoothly enough for bisection to bring it
    within TAN_POLE_THRESHOLD of pi / 2."""
    tan = get_family("tan")

    def passes(x):
        z = complex(x)
        for _ in range(m - 1):
            try:
                z = family_eval(tan, 1.0, z)
            except PoleError:
                return True
            if not 0 <= z.real < math.pi / 2:
                return True
        return False

    lo, hi = 0.05, 0.5
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("m", [9 * CHUNK + 5, 10 * CHUNK])
def test_a_pole_inside_a_chunk_is_the_first_entry_error(m):
    tan, x = get_family("tan"), _tan_start_onto_a_pole(m)
    out = _assert_first_entry_orbit(tan, 1.0, x, 0.01, DEFAULT_BUDGET)
    assert out[0] is PoleError
    assert _assert_first_entry_orbit(tan, 1.0, x, 0.01, m) == out
    assert _assert_first_entry_orbit(tan, 1.0, x, 0.01, m - 1) == (NoConvergenceError, f"iteration budget {m - 1} exhausted")


def test_non_finite_iterates_inside_a_chunk_stop_as_the_first_entry():
    m = 5 * CHUNK + 7
    last = 2.0 ** -(m - 1)  # the iterate whose step is step m
    nan = _halving_family("nan_at_m", lambda z: complex(math.nan, math.nan) if abs(z) <= last else z / 2)
    z, k = _assert_first_entry_orbit(nan, 1.0, 1.0, 1e-300, DEFAULT_BUDGET)
    assert math.isnan(z.real) and k == m
    inf = _halving_family("inf_at_m", lambda z: complex(math.inf, 0.0) if abs(z) <= last else z / 2)
    assert _assert_first_entry_orbit(inf, 1.0, 1.0, 1e-300, DEFAULT_BUDGET) == (
        NoConvergenceError, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
    )


def test_an_error_after_the_entry_inside_a_chunk_keeps_the_entry():
    m = 5 * CHUNK + 7
    r_entry = 2.0**-m

    def refuse_inside(z):
        if abs(z) <= r_entry:
            raise ValueError("evaluated inside the entry disc")
        return z / 2

    fam = _halving_family("refuse_inside", refuse_inside)
    for budget in (m, m + 1, m + CHUNK, DEFAULT_BUDGET):
        assert _assert_first_entry_orbit(fam, 1.0, 1.0, r_entry, budget) == (2.0**-m + 0j, m)


def test_a_dip_above_the_escape_bound_inside_a_chunk_runs_on():
    # the one difference from the first entry: an orbit that leaves the
    # annulus r_entry < |z| <= ESCAPE_BOUND and comes back inside one
    # accepted chunk runs on, and stops at a later iterate inside the disc
    dip = CHUNK + 5  # the step above the bound, inside the chunk of steps CHUNK + 1 .. 2 CHUNK
    top = 2.0 ** -(dip - 1)
    fam = _halving_family("dip", lambda z: 1e60 if z == top else top / 2 if z == 1e60 else z / 2)
    escaped = (NoConvergenceError, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {dip} iterations")
    assert _orbit_outcome(_first_entry_orbit, fam, 1 + 0j, 1 + 0j, 2.0**-40, DEFAULT_BUDGET) == escaped
    z, m = _assert_same_orbit(fam, 1.0, 1.0, 2.0**-40, DEFAULT_BUDGET)
    assert (z, m) == (2.0**-40 + 0j, 41)
    # a chunk runs only where it fits in the budget
    assert _assert_same_orbit(fam, 1.0, 1.0, 2.0**-40, 2 * CHUNK) == (
        NoConvergenceError, f"iteration budget {2 * CHUNK} exhausted"
    )
    assert _assert_same_orbit(fam, 1.0, 1.0, 2.0**-40, 2 * CHUNK - 1) == escaped


def test_chunked_orbits_stop_in_the_disc_at_or_after_the_first_entry(monkeypatch):
    # every family on the golden, silver and [0; 2, 1, 1, ...] rays at
    # depths 2..14, n = 128: the same outcomes and entry radii as first-entry
    # orbits; each stop is inside its disc, no earlier than the first entry,
    # and u moves by at most 1e-12 (measured: 4.4e-14)
    alphas = (golden_rotation().value, silver_rotation().value, rotation_from_cf([2] + [1] * 39).value)
    lams = [(1 - 2.0**-k) * cmath.exp(2j * math.pi * a) for a in alphas for k in range(2, 15)]
    worst, later = 0.0, 0
    for fam_id in ALL_FAMILY_IDS:
        fam = get_family(fam_id)
        new = u_values(fam, lams, 128)
        with monkeypatch.context() as patch:
            patch.setattr(linearize, "_orbit", _first_entry_orbit)
            first = u_values(fam, lams, 128)
        for lam, a, b in zip(lams, new, first, strict=True):
            assert type(a) is type(b), (fam_id, lam, a, b)
            if isinstance(b, SiegelnumError):
                assert str(a) == str(b), (fam_id, lam)
                continue
            z, m = linearize._orbit(fam, lam, lam * fam.v, a.entry_radius, DEFAULT_BUDGET)
            assert m == a.iterations_used and abs(z) <= a.entry_radius, (fam_id, lam)
            assert a.entry_radius == b.entry_radius and m >= b.iterations_used, (fam_id, lam)
            later += m > b.iterations_used
            worst = max(worst, abs(a.u - b.u))
    assert later > 0
    assert worst <= 1e-12


def test_budget_below_one_is_a_precondition_error():
    quad = get_family("quadratic")
    for budget in (0, -5):
        with pytest.raises(PreconditionError, match="budget"):
            u_values(quad, [0.9], 64, budget)
        with pytest.raises(PreconditionError, match="budget"):
            yoccoz_w(quad, 0.9, 64, budget)


@pytest.mark.parametrize(
    "fam_id, z, m",
    [("exp", 50, 2), ("zexp", 800, 1), ("sin", 800j, 1)],
)
def test_overflowing_map_is_a_typed_escape(fam_id, z, m):
    # cmath raises OverflowError inside the map; the orbit reports it as an
    # escape at the iterate that overflowed, like |z| > ESCAPE_BOUND
    ks = koenigs_series(get_family(fam_id), 0.5, 64)
    with pytest.raises(NoConvergenceError) as exc:
        koenigs_eval(ks, z)
    assert str(exc.value) == f"orbit escaped (map overflowed) after {m} iterations"
    assert exc.value.budget == DEFAULT_BUDGET


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.1, math.nan), complex(math.inf, 0.0),
                               complex(0.1, -math.inf)], ids=["nan-real", "nan-imag", "inf-real", "inf-imag"])
def test_koenigs_eval_refuses_a_non_finite_z(z):
    # a non-finite z is a caller's error, not a NaN value or an orbit escape
    ks = koenigs_series(get_family("quadratic"), 0.5, 64)
    with pytest.raises(PreconditionError, match="z must be finite"):
        koenigs_eval(ks, z)


def test_tan_is_bounded_off_the_real_axis():
    # tan(800j) == 1j where cos(800j) overflows, so 800j is an ordinary
    # basin point of 0.5 tan: its first iterate is exactly 0.5j, and h
    # there is h(0.5j) / lambda
    tan = get_family("tan")
    assert family_eval(tan, 0.5, 800j) == 0.5j
    ks = koenigs_series(tan, 0.5, 64)
    far, m_far = koenigs_eval(ks, 800j)
    near, m_near = koenigs_eval(ks, 0.5j)
    assert m_far == m_near + 1
    assert abs(far - near / 0.5) <= 4 * EPS * abs(far)


def _two_call_tan(z):
    z = complex(z)
    c = cmath.cos(z)
    if abs(c) < families.TAN_POLE_THRESHOLD:
        raise PoleError(f"tan evaluation too close to a pole at z={z!r}")
    return cmath.sin(z) / c


def _two_call_spec(fam_id):
    """fam_id's spec with the point evaluator it had before tan, sin and
    the n = 2 fold took one cmath call per step: tan as sin / cos, sin
    through a lambda, the fold through the module's cmath.sqrt."""
    spec = get_family(fam_id)
    inner = {"sin": lambda z: cmath.sin(z), "tan": _two_call_tan}.get(spec.reduced_from or fam_id)
    if inner is None:
        return spec
    if spec.reduced_from is None:
        return dataclasses.replace(spec, _point_eval=inner)

    def fold(w):
        s = inner(cmath.sqrt(w))
        return s * s

    return dataclasses.replace(spec, _point_eval=fold)


def test_one_call_evaluators_keep_every_orbit():
    # every family on the golden, silver and one bounded-type ray at depths
    # 2..14, n = 128, against the two-call evaluators: the same outcomes,
    # iterations and entry radii, and u within 1e-12 (measured: 9.5e-14)
    alphas = (golden_rotation().value, silver_rotation().value,
              rotation_from_cf([2, 1, 3, 1] * 10).value)
    lams = [(1 - 2.0**-k) * cmath.exp(2j * math.pi * a) for a in alphas for k in range(2, 15)]
    worst = 0.0
    for fam_id in ALL_FAMILY_IDS:
        one = u_values(get_family(fam_id), lams, 128)
        two = u_values(_two_call_spec(fam_id), lams, 128)
        for lam, new, ref in zip(lams, one, two, strict=True):
            assert type(new) is type(ref), (fam_id, lam, new, ref)
            if isinstance(ref, YoccozValue):
                assert (new.iterations_used, new.entry_radius) == (ref.iterations_used, ref.entry_radius)
                worst = max(worst, abs(new.u - ref.u))
            else:
                assert str(new) == str(ref), (fam_id, lam)
    assert worst <= 1e-12


# phi = h_lambda^-1 solves f_lambda(phi(w)) = phi(lambda w): the Siegel
# equation at |lambda| < 1, where the divisors lambda^k - lambda never vanish.
# phi extends to the disc of radius |w(lambda) / lambda| = e^u, bounded by
# the critical point (or asymptotic value), so the root test of its
# coefficients reads u, which the orbit pipeline gives to ~1e-12.  The band
# covers the pure-exponential fit's bias, +0.005 to +0.008 at n = 256.
INTERIOR_LAMS = np.array([
    r * cmath.exp(2j * math.pi * alpha)
    for alpha in (golden_rotation().value, silver_rotation().value, 0.1, 0.5)
    for r in (0.5, 15 / 16)
])


@pytest.mark.parametrize("fam_id", ALL_FAMILY_IDS)
def test_interior_root_test_reads_u(fam_id):
    family, n, lams = get_family(fam_id), 256, INTERIOR_LAMS
    k = np.arange(n + 1)
    phis = linearize._siegel_rows(family, lams, lams[:, None] ** k - lams[:, None])
    for phi, value in zip(phis, u_values(family, lams.tolist())):
        tail = k[n // 2:][phi[n // 2:] != 0]
        slope = radius._fit_slope(tail.astype(np.float64), np.log(np.abs(phi[tail])))
        assert abs(-slope - value.u) <= 0.01
