"""Linearizing conjugacies and the Yoccoz function.

Two regimes of the same functional equation:

* attracting (0 < |lambda| < 1): the Koenigs series h, normalized tangent to
  the identity, with h(f_lambda(z)) = lambda * h(z); extended to the whole
  basin of 0 by iterating into a small entry disc and unwinding the equation;
* indifferent (|lambda| = 1, lambda = e^{2 pi i alpha}): the Siegel series g
  with f_lambda(g(w)) = g(lambda * w), whose coefficient recurrence divides
  by the small divisors lambda^k - lambda.

On top of the basin extension sits the Yoccoz value w(lambda) = h(lambda v),
where v is the family's distinguished singular value.  Its log-modulus
u = log|w/lambda| is harmonic in lambda and bounded by M = log 4 + log|v|
via the Koebe quarter theorem; radial limits of u are the subject of the
radius module.

u_values is the one pipeline from multipliers to Yoccoz values (series,
entry radius, orbit, log), batched over lambda; yoccoz_w, the CLI grid and
the radius module's ray scans all go through it.  Its basin step (entry
radius, orbit, Horner pass) is also koenigs_eval's, so h on the basin has
one evaluation whichever entry point asks for it.

Residual checks here are *relative*: coefficients of Koenigs series grow
like dist(0, basin boundary)^{-k} and reach 1e120 at practical degrees, so
an absolute coefficientwise tolerance is meaningless in binary64.  Each
residual coefficient is normalized by the magnitude actually summed to
produce it (a majorant of the term sizes), which is the scale rounding
error lives on.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoefficientOverflowError,
    DivisorBreakdownError,
    EntryRadiusError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
    SiegelnumError,
)
from .families import FamilySpec, base_series, family_series
from .series import TruncatedSeries, compose, power_table

__all__ = [
    "KoenigsSeries",
    "SiegelSeries",
    "YoccozValue",
    "koenigs_series",
    "siegel_series",
    "siegel_series_many",
    "conjugacy_residual",
    "entry_radius",
    "koenigs_eval",
    "yoccoz_w",
    "u_values",
    "KOENIGS_DIVISOR_FLOOR",
    "SIEGEL_DIVISOR_FLOOR",
    "ENTRY_RADIUS_GRID",
    "ENTRY_TAIL_TOL",
    "DEFAULT_BUDGET",
    "BLOCK_ENTRIES",
]

KOENIGS_DIVISOR_FLOOR = 1e-14
SIEGEL_DIVISOR_FLOOR = 1e-13
ENTRY_RADIUS_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
ENTRY_TAIL_TOL = 1e-13
ESCAPE_BOUND = 1e50
DEFAULT_BUDGET = 10**6
# table entries per block of a batched Koenigs or Siegel solve: about 1 MB
# of complex128 per work array whatever the batch size
BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class KoenigsSeries:
    lam: complex
    h: TruncatedSeries
    family: FamilySpec


@dataclass(frozen=True)
class SiegelSeries:
    alpha: float
    lam: complex
    g: TruncatedSeries
    family: FamilySpec


@dataclass(frozen=True)
class YoccozValue:
    lam: complex
    w: complex
    u: float
    iterations_used: int
    entry_radius: float


def _overflow_error(row: np.ndarray, kind: str) -> CoefficientOverflowError:
    """Conjugacy coefficients can outgrow binary64 when the radius is tiny
    (deep near-rational dips); that is a numerical failure of the run, not
    a caller mistake, so it must not surface as a precondition error."""
    k = int(np.argmax(~np.isfinite(row)))
    return CoefficientOverflowError(
        f"{kind} coefficients overflowed binary64 at degree {k}; "
        "the conformal radius here is too small for this truncation"
    )


def _guarded_solve(solve, divisors: np.ndarray, floor: float, kind: str) -> list:
    """The divisor guard and overflow check of both coefficient solves.

    A row of divisors lambda^k - lambda whose smallest modulus over k >= 2
    is below floor gets that k's DivisorBreakdownError; solve(live) returns
    the coefficient rows of the others, and an overflowed row gets its
    CoefficientOverflowError.  Returns each row's coefficients or error.
    """
    mags = np.abs(divisors[:, 2:])
    k_min = np.argmin(mags, axis=1)
    outcomes: list = [
        DivisorBreakdownError(int(k) + 2, float(m), floor) if m < floor else None
        for k, m in zip(k_min, mags[np.arange(mags.shape[0]), k_min])
    ]
    live = [b for b, out in enumerate(outcomes) if out is None]
    if live:
        rows = solve(live)
        for b, row, finite in zip(live, rows, np.isfinite(rows).all(axis=1).tolist()):
            outcomes[b] = row if finite else _overflow_error(row, kind)
    return outcomes


def _single(outcomes: list):
    """The one outcome of a batch of one, raised if it is an error."""
    if isinstance(outcomes[0], SiegelnumError):
        raise outcomes[0]
    return outcomes[0]


def _check_multiplier(lam: complex) -> None:
    if lam == 0:
        raise PreconditionError("lambda = 0 has no Koenigs linearization")
    if abs(abs(lam) - 1.0) < 1e-15:
        raise PreconditionError("|lambda| = 1 is the Siegel regime; use siegel_series")


def _solve_koenigs(cols: np.ndarray, lams: np.ndarray) -> list:
    """Rows h of the normalized Koenigs series of lambda f, one per lambda.

    cols = power_table(f) serves every lambda (f_lambda = lambda f): degree k
    of h(f_lambda(z)) = lambda h(z) reads h_k (lambda^k - lambda) =
    -sum_{j<k} h_j lambda^j C[k, j], so with
    G[:, j] = h_j lambda^j each degree is one stacked dot product over the
    batch against row k of the table.  Each row's dot is computed
    on its own, so its coefficients do not depend on the rest of the batch
    (a plain matrix-vector product can sum a row differently by batch size).
    Returns, per lambda, its coefficient row or the DivisorBreakdownError /
    CoefficientOverflowError that koenigs_series raises for it; only rows
    that pass the divisor guard are solved.
    """
    n = cols.shape[0] - 1
    lam_pows = np.power(lams[:, None], np.arange(n + 1))
    divisors = lam_pows - lams[:, None]

    def solve(live):
        pows, divs = lam_pows[live], divisors[live]
        h = np.zeros((len(live), n + 1), dtype=np.complex128)
        h[:, 1] = 1
        g = np.zeros_like(h)
        g[:, 1] = pows[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):  # _guarded_solve reports it
            for k in range(2, n + 1):
                h[:, k] = -(g[:, None, :k] @ cols[k, :k, None])[:, 0, 0] / divs[:, k]
                g[:, k] = h[:, k] * pows[:, k]
        return h

    return _guarded_solve(solve, divisors, KOENIGS_DIVISOR_FLOOR, "Koenigs")


def koenigs_series(family: FamilySpec, lam: complex, n: int = 128) -> KoenigsSeries:
    """Normalized linearizer h with h(f_lambda(z)) = lambda h(z), degree n.

    Defined for 0 < |lambda| < 1; |lambda| > 1 is accepted too (the same
    recurrence linearizes a repelling point).  |lambda| = 1 and lambda = 0
    are rejected outright — those regimes belong to siegel_series and to
    no linearizer at all, respectively.  The solve is the batched one of
    u_values, run on a batch of one.
    """
    lam = complex(lam)
    _check_multiplier(lam)
    cols = power_table(base_series(family, n).coeffs)
    h = _single(_solve_koenigs(cols, np.array([lam])))
    return KoenigsSeries(lam=lam, h=TruncatedSeries.from_coeffs(h, n), family=family)


def siegel_series_many(
    family: FamilySpec, alphas: Iterable[float], n: int = 128
) -> list[SiegelSeries | SiegelnumError]:
    """Formal conjugacies g with f_lambda(g(w)) = g(lambda w), lambda = e^{2 pi i alpha},
    at many rotation numbers.

    Returns, in input order, one outcome per alpha: its SiegelSeries, or
    the PreconditionError (alpha not finite) / DivisorBreakdownError /
    CoefficientOverflowError that siegel_series raises for it (not raised
    here).  A degree below 2 is a PreconditionError, raised for the whole
    call.

    The recurrence for g is the reversed composition order of the Koenigs
    one; both divide by lambda^k - lambda.  Powers of lambda are taken as
    e^{2 pi i frac(k alpha)} so the divisor of an (effectively) rational
    alpha vanishes exactly instead of drifting, and the guard at
    SIEGEL_DIVISOR_FLOOR reports the offending k.  Every alpha that passes
    the guard goes into one batched _solve_siegel call.
    """
    alphas = np.array([float(getattr(a, "value", a)) for a in alphas])  # RotationNumber or float
    base = base_series(family, n).coeffs
    finite = np.isfinite(alphas)
    powers = np.exp(2j * math.pi * np.fmod(alphas[finite, None] * np.arange(n + 1), 1.0))
    divisors = powers - powers[:, 1:2]
    lams = np.exp(2j * math.pi * alphas[finite])
    solved = iter(zip(lams, _guarded_solve(
        # f_lambda = lambda f, as family_series builds it
        lambda live: _solve_siegel(lams[live, None] * base, divisors[live]),
        divisors, SIEGEL_DIVISOR_FLOOR, "Siegel",
    )))
    outcomes: list = []
    for alpha, ok in zip(alphas.tolist(), finite.tolist()):
        if not ok:
            outcomes.append(PreconditionError(f"alpha must be finite, got {alpha}"))
            continue
        lam, out = next(solved)
        outcomes.append(out if isinstance(out, SiegelnumError) else SiegelSeries(
            alpha=alpha, lam=complex(lam), g=TruncatedSeries.from_coeffs(out, n), family=family,
        ))
    return outcomes


def siegel_series(family: FamilySpec, alpha: float, n: int = 128) -> SiegelSeries:
    """Formal conjugacy g with f_lambda(g(w)) = g(lambda w), lambda = e^{2 pi i alpha}:
    siegel_series_many on a single alpha, raising its error."""
    return _single(siegel_series_many(family, [alpha], n))


def _solve_siegel(F: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Rows g_k from f_lambda(g(w)) = g(lambda w), one per row of F and divisors.

    Degree k of the left side is F_1 g_k + [w^k] sum_{j>=2} F_j g^j; since
    g^j has valuation j, the j >= 2 part only involves g_1..g_{k-1}.  The
    right side is lambda^k g_k, so g_k (lambda^k - lambda) equals that sum.
    The table pows[:, j] holds g^j of every row, filled through the current
    degree.  Column k of g^j is sum_{i<k} g_i [w^{k-i}] g^{j-1}, which reads
    only columns < k, so one stacked mat-vec per degree appends column k of
    every power of every row, and one stacked dot gives each row's g_k.
    Each row's product is computed on its own, as in _solve_koenigs, so a
    row's coefficients are those of a batch of one.

    Powers above top = deg F never meet a nonzero F_j and are not kept, so
    a row costs O(top * n^2): O(n^2) for polynomial families, O(n^3)
    (inside numpy) for entire ones.  Rows are solved in blocks of at most
    BLOCK_ENTRIES power-table entries, (top + 1)(n + 1) per row, and
    at least one row: a quadratic batch at n = 256 shares blocks of 85 rows,
    while an entire family at n = 256 is solved a row at a time, where a
    wider block would only add memory traffic.
    """
    n = F.shape[1] - 1
    nonzero = np.flatnonzero(F[:, 2:].any(axis=0))
    top = 2 + int(nonzero[-1]) if nonzero.size else 2
    per_block = max(1, BLOCK_ENTRIES // ((top + 1) * (n + 1)))
    out = np.zeros_like(F)
    for start in range(0, F.shape[0], per_block):
        rows = slice(start, start + per_block)
        F_b, d_b = F[rows], divisors[rows]
        pows = np.zeros((F_b.shape[0], top + 1, n + 1), dtype=np.complex128)
        g = pows[:, 1]
        g[:, 1] = 1
        with np.errstate(over="ignore", invalid="ignore"):  # _guarded_solve reports it
            for k in range(2, n + 1):
                m = min(k, top)
                pows[:, 2 : m + 1, k] = (pows[:, 1:m, k - 1 : 0 : -1] @ g[:, 1:k, None])[:, :, 0]
                g[:, k] = (F_b[:, None, 2 : m + 1] @ pows[:, 2 : m + 1, k, None])[:, 0, 0] / d_b[:, k]
        out[rows] = g
    return out


def conjugacy_residual(obj: KoenigsSeries | SiegelSeries) -> float:
    """Max relative residual coefficient of the defining functional equation.

    Koenigs: h∘F - lambda·h;  Siegel: F∘g - g(lambda·).  Each coefficient is
    divided by max(1, majorant_k) where majorant_k is the k-th coefficient
    of the same expression with every coefficient replaced by its modulus
    and the subtraction by addition — the magnitude scale on which the
    cancellation actually happened.
    """
    if isinstance(obj, KoenigsSeries):
        ser, lam = obj.h, obj.lam
        outer, inner = ser, family_series(obj.family, lam, ser.degree)
        rot = lam * ser.coeffs
    elif isinstance(obj, SiegelSeries):
        ser = obj.g
        outer, inner = family_series(obj.family, obj.lam, ser.degree), ser
        rot = ser.coeffs * np.power(obj.lam, np.arange(ser.degree + 1))
    else:
        raise PreconditionError("expected a KoenigsSeries or SiegelSeries")
    res = compose(outer, inner).coeffs - rot
    moduli = (TruncatedSeries.from_coeffs(np.abs(s.coeffs)) for s in (outer, inner))
    maj = compose(*moduli).coeffs.real + np.abs(rot)
    return float(np.max(np.abs(res) / np.maximum(1.0, maj)))


def _entry_radii(h: np.ndarray) -> np.ndarray:
    """entry_radius for each row of coefficients h; NaN where no radius passes.

    The tail majorant sum_{N/2 < k <= N} |h_k| r^k of every row at every
    grid radius is one product of |h| with the table of those powers.  As
    in _solve_koenigs the product is stacked per row: a plain matrix
    product over the batch could sum a row differently depending on which
    rows share it, and a last-bit change in a tail near ENTRY_TAIL_TOL
    would move the entry radius.  The majorant grows with r, so the first
    passing radius of the descending grid is the largest; one that
    overflows at large degree is inf and fails.
    """
    n = h.shape[1] - 1
    powers = np.arange(n // 2 + 1, n + 1)
    grid = np.array(ENTRY_RADIUS_GRID)
    with np.errstate(over="ignore", invalid="ignore"):
        passing = (np.abs(h[:, None, powers]) @ np.power(grid, powers[:, None]))[:, 0] <= ENTRY_TAIL_TOL
    return np.where(passing.any(axis=1), grid[passing.argmax(axis=1)], np.nan)


def _entry_radius_error() -> EntryRadiusError:
    return EntryRadiusError(
        f"no radius in {ENTRY_RADIUS_GRID} gives two-truncation agreement <= {ENTRY_TAIL_TOL:g}"
    )


def entry_radius(ser: TruncatedSeries) -> float:
    """Largest grid radius where the series evaluation is self-consistent.

    Accepts the first (largest) r in ENTRY_RADIUS_GRID whose tail majorant
    sum_{N/2 < k <= N} |h_k| r^k is <= ENTRY_TAIL_TOL.  The majorant bounds
    the gap between full-degree and half-degree evaluation at every point
    of |z| = r, not only at samples, so the whole entry disc agrees.
    Nothing on the grid passing means the series is untrustworthy even at
    |z| = 0.01 and evaluation should not be attempted.
    """
    r = float(_entry_radii(ser.coeffs[None, :])[0])
    if math.isnan(r):
        raise _entry_radius_error()
    return r


def _orbit(family: FamilySpec, lam: complex, z: complex, r_entry: float, budget: int) -> tuple[complex, int]:
    """Iterate f_lambda from z until |z| <= r_entry; returns (z_m, m).

    One scalar loop with one chained test per iterate.  It stops on entry,
    on |z| > ESCAPE_BOUND (abs is inf when a part is inf) and on a NaN
    iterate, which is returned as it stands: NaN is not > r_entry.  The
    iterate lam * step(z) is family_eval's expression, bit for bit.  A map
    that overflows (cmath raises OverflowError, as exp does at z = 800)
    counts as an escape.
    """
    step = family._point_eval
    lam = complex(lam)
    m = 0
    a = abs(z)
    if r_entry < a <= ESCAPE_BOUND:
        try:
            for m in range(1, budget + 1):
                z = lam * step(z)
                a = abs(z)
                if not r_entry < a <= ESCAPE_BOUND:
                    break
        except OverflowError:
            raise NoConvergenceError(
                budget, f"orbit escaped (map overflowed) after {m} iterations"
            ) from None
    if not a > r_entry:
        return z, m
    if m >= budget:
        raise NoConvergenceError(budget)
    raise NoConvergenceError(
        budget, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
    )


def _unwind(hz: complex, m: int, lam: complex) -> complex:
    """lambda^{-m} h(z_m), in log form: m can reach 1e5 near the unit
    circle, where lambda^{-m} overflows directly."""
    if hz == 0:
        return 0j
    if m == 0:
        return hz
    return cmath.exp(cmath.log(hz) - m * cmath.log(lam))


def _basin_step(family: FamilySpec, lams: list, h: np.ndarray, starts: list, budget: int) -> list:
    """h on the basin of 0 for each row b of solved Koenigs coefficients h
    (of lams[b]): the orbit of starts[b] into its entry disc (_orbit, one
    scalar loop per row, as orbit lengths differ widely), then h(z_m) by one
    Horner pass over the rows that entered.  Returns per row (h(z_m), m,
    entry radius) or its EntryRadiusError or orbit error; entry radii are
    stacked per row and Horner is elementwise, so each row is as in a batch
    of one."""
    radii = _entry_radii(h).tolist()
    outcomes: list = []
    for lam, z, r in zip(lams, starts, radii):
        try:
            if math.isnan(r):
                raise _entry_radius_error()
            outcomes.append(_orbit(family, lam, z, r, budget))
        except SiegelnumError as exc:
            outcomes.append(exc)
    rows = [b for b, out in enumerate(outcomes) if not isinstance(out, SiegelnumError)]
    if rows:
        coeffs = h[rows]
        z = np.array([outcomes[b][0] for b in rows])
        hz = coeffs[:, -1]
        for k in range(coeffs.shape[1] - 2, -1, -1):  # Horner, all rows at once
            hz = hz * z + coeffs[:, k]
        for b, value in zip(rows, hz.tolist()):
            outcomes[b] = (value, outcomes[b][1], radii[b])
    return outcomes


def koenigs_eval(ks: KoenigsSeries, z: complex) -> tuple[complex, int]:
    """h(z) on the whole basin of 0, by iterating into the entry disc.

    Iterates z_{m+1} = f_lambda(z_m) until |z_m| <= entry_radius(h), at
    most DEFAULT_BUDGET times, then returns lambda^{-m} h(z_m).  Returns
    (value, iterations used).  This is u_values' basin step on one row, so
    at z = lambda v it gives yoccoz_w's w and iterations, bit for bit.
    """
    lam = ks.lam
    if abs(lam) >= 1.0:
        raise PreconditionError("basin extension requires |lambda| < 1")
    hz, m, _ = _single(_basin_step(ks.family, [lam], ks.h.coeffs[None, :], [complex(z)], DEFAULT_BUDGET))
    return _unwind(hz, m, lam), m


def _yoccoz_value(family: FamilySpec, lam: complex, hz: complex, m: int,
                  r_entry: float) -> YoccozValue | NumericalError:
    """w = lambda^{-m} h(z_m) with its Koebe and non-vanishing checks; a
    failed check is returned as its NumericalError."""
    w = _unwind(hz, m, lam)
    cap = 4.0 * abs(family.v)
    if not abs(w) < cap:
        return NumericalError(
            f"Koebe bound violated: |w| = {abs(w):.6g} >= 4|v| = {cap:.6g} at lambda = {lam!r}"
        )
    if w == 0:
        return NumericalError(f"vanishing Yoccoz value at lambda = {lam!r}")
    return YoccozValue(lam=lam, w=w, u=math.log(abs(w / lam)), iterations_used=m, entry_radius=r_entry)


def u_values(
    family: FamilySpec,
    lams: Iterable[complex],
    n: int = 128,
    budget: int = DEFAULT_BUDGET,
) -> list[YoccozValue | SiegelnumError]:
    """Yoccoz values at many multipliers: the one lambda pipeline.

    Returns, in input order, one outcome per lambda: its YoccozValue, or
    the SiegelnumError instance that yoccoz_w raises for it (not raised
    here, so a sweep keeps going).  Any other exception, such as one from a
    user family's point evaluator, propagates.  A budget below 1 or a
    degree below 2 is a PreconditionError, raised for the whole call.

    The Koenigs series of every lambda come from one power table of f
    (f_lambda = lambda f) and one batched solve per block of
    BLOCK_ENTRIES // (n + 1) multipliers (508 at n = 128), followed by the
    block's basin step from lambda v (_basin_step).  Near the unit circle
    orbits run to 10^5 iterates, so its orbit loop is where deep ray scans
    (rho_radial, the benchmark's radius_scan) spend their time.
    """
    if budget < 1:
        raise PreconditionError(f"iteration budget must be >= 1, got {budget}")
    cols = power_table(base_series(family, n).coeffs)
    lams = [complex(lam) for lam in lams]
    outcomes: list = [None] * len(lams)
    todo = []
    for i, lam in enumerate(lams):
        try:
            if not 0 < abs(lam) < 1:
                raise PreconditionError("yoccoz_w needs 0 < |lambda| < 1")
            _check_multiplier(lam)
            todo.append(i)
        except PreconditionError as exc:
            outcomes[i] = exc
    per_block = max(1, BLOCK_ENTRIES // (n + 1))
    for start in range(0, len(todo), per_block):
        block = todo[start : start + per_block]
        for i, out in zip(block, _solve_koenigs(cols, np.array([lams[i] for i in block]))):
            outcomes[i] = out
        live = [i for i in block if not isinstance(outcomes[i], SiegelnumError)]
        if live:
            h = np.array([outcomes[i] for i in live])
            starts = [lams[i] * family.v for i in live]
            for i, step in zip(live, _basin_step(family, [lams[i] for i in live], h, starts, budget)):
                ok = not isinstance(step, SiegelnumError)
                outcomes[i] = _yoccoz_value(family, lams[i], *step) if ok else step
    return outcomes


def yoccoz_w(
    family: FamilySpec,
    lam: complex,
    n: int = 128,
    budget: int = DEFAULT_BUDGET,
) -> YoccozValue:
    """w(lambda) = h_lambda(lambda v) and its harmonic log-modulus u.

    The Koebe quarter theorem forces |w| < 4|v| (w lies in the Koenigs
    image of the basin, which omits the value of modulus 4|v|); a numerical
    violation therefore indicates a broken evaluation and raises rather
    than returning a value.  This is u_values on a single lambda.
    """
    return _single(u_values(family, [lam], n, budget))
