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
the radius module's ray scans all go through it.

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
    DivisorBreakdownError,
    EntryRadiusError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
    SiegelnumError,
)
from .families import FamilySpec, base_series, family_eval, family_series
from .series import TruncatedSeries, compose, evaluate

__all__ = [
    "KoenigsSeries",
    "SiegelSeries",
    "YoccozValue",
    "koenigs_series",
    "siegel_series",
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
]

KOENIGS_DIVISOR_FLOOR = 1e-14
SIEGEL_DIVISOR_FLOOR = 1e-13
ENTRY_RADIUS_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)
ENTRY_TAIL_TOL = 1e-13
ESCAPE_BOUND = 1e50
DEFAULT_BUDGET = 10**6
# multipliers per batched Koenigs solve in u_values: bounds its work arrays
# to a few (U_BLOCK x (n + 1)) complex tables whatever the sweep size
U_BLOCK = 256


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
    divisor_floor: float


@dataclass(frozen=True)
class YoccozValue:
    lam: complex
    w: complex
    u: float
    iterations_used: int
    entry_radius: float


def _require_finite(coeffs: np.ndarray, kind: str) -> None:
    """Conjugacy coefficients can outgrow binary64 when the radius is tiny
    (deep near-rational dips); that is a numerical failure of the run, not
    a caller mistake, so it must not surface as a precondition error."""
    bad = ~np.isfinite(coeffs)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalError(
            f"{kind} coefficients overflowed binary64 at degree {k}; "
            "the conformal radius here is too small for this truncation"
        )


def _divisor_floors(divisors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of lambda^k - lambda: the k >= 2 of smallest modulus and that modulus."""
    mags = np.abs(divisors[..., 2:])
    k_min = np.argmin(mags, axis=-1)
    return k_min + 2, np.take_along_axis(mags, k_min[..., None], axis=-1)[..., 0]


def _check_multiplier(lam: complex) -> None:
    if lam == 0:
        raise PreconditionError("lambda = 0 has no Koenigs linearization")
    if abs(abs(lam) - 1.0) < 1e-15:
        raise PreconditionError("|lambda| = 1 is the Siegel regime; use siegel_series")


def _power_columns(f: np.ndarray) -> np.ndarray:
    """C[k, j] = [z^k] f^j for j, k <= n, where n = deg of the truncation.

    f_lambda = lambda f, so [z^k] f_lambda^j = lambda^j C[k, j] and one table
    serves every lambda.  f has f_0 = 0, so f^j has valuation j and row j of
    the power table is one convolution of row j - 1 with f_1..f_deg f.
    Stored transposed: the Koenigs recurrence reads column k of the powers.
    """
    n = f.size - 1
    tail = np.trim_zeros(f[1:], "b")
    pows = np.zeros((n + 1, n + 1), dtype=np.complex128)
    pows[0, 0] = 1
    pows[1] = f
    for j in range(2, n + 1):
        pows[j, j:] = np.convolve(pows[j - 1, j - 1 : n], tail[: n + 1 - j])[: n + 1 - j]
    return np.ascontiguousarray(pows.T)


def _solve_koenigs(cols: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, list]:
    """Rows h of the normalized Koenigs series of lambda f, one per lambda.

    Degree k of h(f_lambda(z)) = lambda h(z) reads
    h_k (lambda^k - lambda) = -sum_{j<k} h_j lambda^j [z^k] f^j, so with
    G[:, j] = h_j lambda^j each degree is one stacked dot product over the
    batch against column k of the power table.  Each row's dot is computed
    on its own, so its coefficients do not depend on the rest of the batch
    (a plain matrix-vector product can sum a row differently by batch size).
    Returns the coefficient rows and, per row, None or the
    DivisorBreakdownError / NumericalError that koenigs_series raises for it
    (a failed row's coefficients are meaningless).
    """
    n = cols.shape[0] - 1
    lam_pows = np.power(lams[:, None], np.arange(n + 1))
    divisors = lam_pows - lams[:, None]
    k_min, floor_seen = _divisor_floors(divisors)
    errors = [
        DivisorBreakdownError(int(k), float(m), KOENIGS_DIVISOR_FLOOR)
        if m < KOENIGS_DIVISOR_FLOOR else None
        for k, m in zip(k_min, floor_seen)
    ]
    h = np.zeros((lams.size, n + 1), dtype=np.complex128)
    h[:, 1] = 1
    g = np.zeros_like(h)
    g[:, 1] = lam_pows[:, 1]
    # broken-down rows may divide by zero; overflow is reported below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            h[:, k] = -(g[:, None, :k] @ cols[k, :k, None])[:, 0, 0] / divisors[:, k]
            g[:, k] = h[:, k] * lam_pows[:, k]
    for b in np.flatnonzero(~np.isfinite(h).all(axis=1)):
        if errors[b] is None:
            try:
                _require_finite(h[b], "Koenigs")
            except NumericalError as exc:
                errors[b] = exc
    return h, errors


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
    cols = _power_columns(base_series(family, n).coeffs)
    h, errors = _solve_koenigs(cols, np.array([lam]))
    if errors[0] is not None:
        raise errors[0]
    return KoenigsSeries(lam=lam, h=TruncatedSeries.from_coeffs(h[0], n), family=family)


def siegel_series(family: FamilySpec, alpha: float, n: int = 128) -> SiegelSeries:
    """Formal conjugacy g with f_lambda(g(w)) = g(lambda w), lambda = e^{2 pi i alpha}.

    The recurrence for g is the reversed composition order of the Koenigs
    one; both divide by lambda^k - lambda.  Powers of lambda are taken as
    e^{2 pi i frac(k alpha)} so the divisor of an (effectively) rational
    alpha vanishes exactly instead of drifting, and the guard at
    SIEGEL_DIVISOR_FLOOR reports the offending k.
    """
    alpha = float(getattr(alpha, "value", alpha))  # RotationNumber or plain float
    lam = cmath.exp(2j * math.pi * alpha)
    # g(lam w) has coefficients g_k lam^k; solving f_lam(g(w)) - g(lam w) = 0
    # degree by degree gives g_k (lam^k - lam) = [w^k] sum_{j<k} (F_j) g^j ...
    # which is the same forward solve with the roles of the known/unknown
    # series exchanged; see _solve_siegel.
    powers = np.array([cmath.exp(2j * math.pi * math.fmod(k * alpha, 1.0)) for k in range(n + 1)])
    divisors = powers - powers[1]
    k_min, floor_seen = _divisor_floors(divisors)
    if floor_seen < SIEGEL_DIVISOR_FLOOR:
        raise DivisorBreakdownError(int(k_min), float(floor_seen), SIEGEL_DIVISOR_FLOOR)
    F = family_series(family, lam, n)
    g = _solve_siegel(F.coeffs, divisors)
    _require_finite(g, "Siegel")
    return SiegelSeries(
        alpha=alpha,
        lam=lam,
        g=TruncatedSeries.from_coeffs(g, n),
        family=family,
        divisor_floor=float(floor_seen),
    )


def _solve_siegel(F: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """g_k from f_lambda(g(w)) = g(lambda w).

    Degree k of the left side is F_1 g_k + [w^k] sum_{j>=2} F_j g^j; since
    g^j has valuation j, the j >= 2 part only involves g_1..g_{k-1}.  The
    right side is lambda^k g_k, so g_k (lambda^k - lambda) equals that sum.
    The table pows[j] holds g^j filled through the current degree.  Column k
    of g^j is sum_{i<k} g_i [w^{k-i}] g^{j-1}, which reads only columns < k,
    so one mat-vec per degree appends column k of every power at once.
    Powers above top = deg F never meet a nonzero F_j and are not kept, so
    the solve costs O(top * n^2): O(n^2) for polynomial families, O(n^3)
    (inside numpy) for entire ones.
    """
    n = F.size - 1
    nonzero = np.flatnonzero(F)
    top = max(2, int(nonzero[-1]) if nonzero.size else 0)
    pows = np.zeros((top + 1, n + 1), dtype=np.complex128)
    g = pows[1]
    g[1] = 1
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports it
        for k in range(2, n + 1):
            m = min(k, top)
            pows[2 : m + 1, k] = pows[1:m, k - 1 : 0 : -1] @ g[1:k]
            g[k] = (F[2 : m + 1] @ pows[2 : m + 1, k]) / divisors[k]
    return g.copy()


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
        F = family_series(obj.family, lam, ser.degree)
        res = compose(ser, F) - lam * ser
        maj = _abs_compose(ser.coeffs, F.coeffs) + abs(lam) * np.abs(ser.coeffs)
    elif isinstance(obj, SiegelSeries):
        ser, lam = obj.g, obj.lam
        F = family_series(obj.family, lam, ser.degree)
        rot = ser.coeffs * np.power(obj.lam, np.arange(ser.degree + 1))
        res = compose(F, ser) - TruncatedSeries.from_coeffs(rot, ser.degree)
        maj = _abs_compose(F.coeffs, ser.coeffs) + np.abs(ser.coeffs)
    else:
        raise PreconditionError("expected a KoenigsSeries or SiegelSeries")
    return float(np.max(np.abs(res.coeffs) / np.maximum(1.0, maj)))


def _abs_compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Coefficients of |outer| ∘ |inner|: a coefficientwise majorant of outer∘inner."""
    a = np.abs(outer)
    b = np.abs(inner)
    n = a.size - 1
    out = np.zeros(n + 1, dtype=np.float64)
    out[0] = a[0]
    power = np.zeros(n + 1, dtype=np.float64)
    power[0] = 1.0
    for k in range(1, n + 1):
        power = np.convolve(power, b)[: n + 1]
        if a[k] != 0:
            out += float(a[k]) * power
        if not power.any():
            break
    return out


def _entry_radii(h: np.ndarray, samples: int = 8) -> np.ndarray:
    """entry_radius for each row of coefficients h; NaN where no radius passes.

    Full minus half-degree evaluation is the tail sum over N/2 < k <= N, so
    at each grid radius the discrepancies of all rows still undecided are one
    product with the Vandermonde matrix of the sample points and those powers.
    As in _solve_koenigs the product is stacked per row: a plain matrix
    product over the undecided rows could sum a row differently depending on
    which rows share it, and a last-bit change in a tail near ENTRY_TAIL_TOL
    would move the entry radius.
    """
    n = h.shape[1] - 1
    powers = np.arange(n // 2 + 1, n + 1)
    turns = np.exp(2j * math.pi * np.arange(samples) / samples)
    radii = np.full(h.shape[0], np.nan)
    undecided = np.arange(h.shape[0])
    for r in ENTRY_RADIUS_GRID:
        tails = h[undecided[:, None, None], powers] @ np.power(r * turns[:, None], powers).T
        passing = np.abs(tails[:, 0]).max(axis=1, initial=0.0) <= ENTRY_TAIL_TOL
        radii[undecided[passing]] = r
        undecided = undecided[~passing]
        if not undecided.size:
            break
    return radii


def _entry_radius_error() -> EntryRadiusError:
    return EntryRadiusError(
        f"no radius in {ENTRY_RADIUS_GRID} gives two-truncation agreement <= {ENTRY_TAIL_TOL:g}"
    )


def entry_radius(ser: TruncatedSeries, samples: int = 8) -> float:
    """Largest grid radius where the series evaluation is self-consistent.

    Compares full-degree evaluation against the half-degree prefix at
    equispaced points on |z| = r for r in ENTRY_RADIUS_GRID; accepts the
    first (largest) r whose worst absolute discrepancy is <= ENTRY_TAIL_TOL.
    Nothing on the grid passing means the series is untrustworthy even at
    |z| = 0.01 and evaluation should not be attempted.
    """
    r = float(_entry_radii(ser.coeffs[None, :], samples)[0])
    if math.isnan(r):
        raise _entry_radius_error()
    return r


def _orbit(family: FamilySpec, lam: complex, z: complex, r_entry: float, budget: int) -> tuple[complex, int]:
    """Iterate f_lambda from z until |z| <= r_entry; returns (z_m, m)."""
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


def _unwind(hz: complex, m: int, lam: complex) -> complex:
    """lambda^{-m} h(z_m), in log form: m can reach 1e5 near the unit
    circle, where lambda^{-m} overflows directly."""
    if hz == 0:
        return 0j
    if m == 0:
        return hz
    return cmath.exp(cmath.log(hz) - m * cmath.log(lam))


def koenigs_eval(
    ks: KoenigsSeries,
    z: complex,
    budget: int = DEFAULT_BUDGET,
    r_entry: float | None = None,
) -> tuple[complex, int]:
    """h(z) on the whole basin of 0, by iterating into the entry disc.

    Iterates z_{m+1} = f_lambda(z_m) until |z_m| <= r_entry, then returns
    lambda^{-m} h(z_m).  Returns (value, iterations used).
    """
    lam = ks.lam
    if abs(lam) >= 1.0:
        raise PreconditionError("basin extension requires |lambda| < 1")
    if r_entry is None:
        r_entry = entry_radius(ks.h)
    z, m = _orbit(ks.family, lam, complex(z), r_entry, budget)
    return _unwind(complex(evaluate(ks.h, z).value), m, lam), m


def _yoccoz_value(family: FamilySpec, lam: complex, hz: complex, m: int, r_entry: float) -> YoccozValue:
    """w = lambda^{-m} h(z_m) with its Koebe and non-vanishing checks."""
    w = _unwind(hz, m, lam)
    cap = 4.0 * abs(family.v)
    if not abs(w) < cap:
        raise NumericalError(
            f"Koebe bound violated: |w| = {abs(w):.6g} >= 4|v| = {cap:.6g} at lambda = {lam!r}"
        )
    if w == 0:
        raise NumericalError(f"vanishing Yoccoz value at lambda = {lam!r}")
    return YoccozValue(lam=lam, w=w, u=math.log(abs(w / lam)), iterations_used=m, entry_radius=r_entry)


def _u_block(family: FamilySpec, cols: np.ndarray, lams: list[complex], budget: int) -> list:
    """u_values for at most U_BLOCK multipliers that passed the precondition."""
    h, outcomes = _solve_koenigs(cols, np.array(lams))
    live = [b for b, out in enumerate(outcomes) if out is None]
    radius = dict(zip(live, _entry_radii(h[live]).tolist()))
    reached = []  # (row, z_m, m) of each orbit that entered its disc
    for b in live:
        try:
            if math.isnan(radius[b]):
                raise _entry_radius_error()
            reached.append((b, *_orbit(family, lams[b], lams[b] * family.v, radius[b], budget)))
        except SiegelnumError as exc:
            outcomes[b] = exc
    if not reached:
        return outcomes
    rows, ends, iters = zip(*reached)
    coeffs = h[list(rows)]
    z = np.array(ends)
    hz = coeffs[:, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):  # Horner, all rows at once
        hz = hz * z + coeffs[:, k]
    for b, value, m in zip(rows, hz.tolist(), iters):
        try:
            outcomes[b] = _yoccoz_value(family, lams[b], value, m, radius[b])
        except NumericalError as exc:
            outcomes[b] = exc
    return outcomes


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
    user family's point evaluator, propagates.

    The Koenigs series of every lambda come from one power table of f
    (f_lambda = lambda f) and one batched solve per block of U_BLOCK
    multipliers; entry radii take one Vandermonde product per grid radius
    and block.  The basin orbit runs per lambda with the closed-form map,
    since orbit lengths differ widely; h(z_m) is then one Horner pass over
    the block.
    """
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
    if not todo:
        return outcomes
    try:
        f = base_series(family, n).coeffs
    except PreconditionError as exc:  # degree below 2: yoccoz_w raises it for every lambda
        return [exc if out is None else out for out in outcomes]
    cols = _power_columns(f)
    for start in range(0, len(todo), U_BLOCK):
        block = todo[start : start + U_BLOCK]
        for i, out in zip(block, _u_block(family, cols, [lams[i] for i in block], budget)):
            outcomes[i] = out
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
    out = u_values(family, [lam], n, budget)[0]
    if isinstance(out, SiegelnumError):
        raise out
    return out
