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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisorBreakdownError,
    EntryRadiusError,
    NoConvergenceError,
    NumericalError,
    PreconditionError,
)
from .families import FamilySpec, family_eval, family_series
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


def _solve_forward(F: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Coefficients h_k of the normalized h with h(F(z)) = c_1(F) * h(z).

    Recurrence: h_k * (lambda^k - lambda) = -[z^k] sum_{j<k} h_j F^j,
    with F^j accumulated one truncated convolution per degree.
    ``divisors`` holds lambda^k - lambda at index k (entries below index 2
    ignored).
    """
    n = F.size - 1
    h = np.zeros(n + 1, dtype=F.dtype)
    h[1] = 1
    fpow = F.copy()  # F^1
    acc = fpow.copy()  # sum_{j <= k-1} h_j F^j
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports it
        for k in range(2, n + 1):
            fpow = np.convolve(fpow, F)[: n + 1]
            h[k] = -acc[k] / divisors[k]
            acc = acc + h[k] * fpow
    return h


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


def _check_divisors(lam_powers: np.ndarray, lam: complex, floor: float) -> tuple[np.ndarray, float]:
    divisors = lam_powers - lam
    mags = np.abs(divisors[2:])
    k_min = int(np.argmin(mags)) + 2
    floor_seen = float(mags[k_min - 2])
    if floor_seen < floor:
        raise DivisorBreakdownError(k_min, floor_seen, floor)
    return divisors, floor_seen


def koenigs_series(family: FamilySpec, lam: complex, n: int = 128, dtype=np.complex128) -> KoenigsSeries:
    """Normalized linearizer h with h(f_lambda(z)) = lambda h(z), degree n.

    Defined for 0 < |lambda| < 1; |lambda| > 1 is accepted too (the same
    recurrence linearizes a repelling point).  |lambda| = 1 and lambda = 0
    are rejected outright — those regimes belong to siegel_series and to
    no linearizer at all, respectively.
    """
    lam = complex(lam)
    if lam == 0:
        raise PreconditionError("lambda = 0 has no Koenigs linearization")
    if abs(abs(lam) - 1.0) < 1e-15:
        raise PreconditionError("|lambda| = 1 is the Siegel regime; use siegel_series")
    F = family_series(family, lam, n, dtype)
    powers = np.power(dtype(lam), np.arange(n + 1))
    divisors, _ = _check_divisors(powers, dtype(lam), KOENIGS_DIVISOR_FLOOR)
    h = _solve_forward(F.coeffs, divisors)
    _require_finite(h, "Koenigs")
    return KoenigsSeries(lam=lam, h=TruncatedSeries.from_coeffs(h, n, dtype), family=family)


def siegel_series(family: FamilySpec, alpha: float, n: int = 128, dtype=np.complex128) -> SiegelSeries:
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
    powers = np.array(
        [cmath.exp(2j * math.pi * math.fmod(k * alpha, 1.0)) for k in range(n + 1)],
        dtype=dtype,
    )
    divisors, floor_seen = _check_divisors(powers, powers[1], SIEGEL_DIVISOR_FLOOR)
    F = family_series(family, lam, n, dtype)
    g = _solve_siegel(F.coeffs, divisors)
    _require_finite(g, "Siegel")
    return SiegelSeries(
        alpha=alpha,
        lam=lam,
        g=TruncatedSeries.from_coeffs(g, n, dtype),
        family=family,
        divisor_floor=floor_seen,
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
    pows = np.zeros((top + 1, n + 1), dtype=F.dtype)
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
        F = family_series(obj.family, lam, ser.degree, ser.dtype.type)
        res = compose(ser, F) - lam * ser
        maj = _abs_compose(ser.coeffs, F.coeffs) + abs(lam) * np.abs(ser.coeffs)
    elif isinstance(obj, SiegelSeries):
        ser, lam = obj.g, obj.lam
        F = family_series(obj.family, lam, ser.degree, ser.dtype.type)
        rot = ser.coeffs * np.power(obj.lam, np.arange(ser.degree + 1))
        res = compose(F, ser) - TruncatedSeries.from_coeffs(rot, ser.degree, ser.dtype)
        maj = _abs_compose(F.coeffs, ser.coeffs) + np.abs(ser.coeffs)
    else:
        raise PreconditionError("expected a KoenigsSeries or SiegelSeries")
    denom = np.maximum(1.0, maj.astype(np.float64))
    return float(np.max(np.abs(res.coeffs.astype(np.complex128)) / denom))


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


def entry_radius(ser: TruncatedSeries, samples: int = 8) -> float:
    """Largest grid radius where the series evaluation is self-consistent.

    Compares full-degree evaluation against the half-degree prefix at
    equispaced points on |z| = r for r in ENTRY_RADIUS_GRID; accepts the
    first (largest) r whose worst absolute discrepancy is <= ENTRY_TAIL_TOL.
    Nothing on the grid passing means the series is untrustworthy even at
    |z| = 0.01 and evaluation should not be attempted.
    """
    half = ser.truncated(ser.degree // 2)
    for r in ENTRY_RADIUS_GRID:
        worst = 0.0
        for j in range(samples):
            z = r * cmath.exp(2j * math.pi * j / samples)
            worst = max(worst, abs(complex(evaluate(ser, z).value) - complex(evaluate(half, z).value)))
        if worst <= ENTRY_TAIL_TOL:
            return r
    raise EntryRadiusError(
        f"no radius in {ENTRY_RADIUS_GRID} gives two-truncation agreement <= {ENTRY_TAIL_TOL:g}"
    )


def koenigs_eval(
    ks: KoenigsSeries,
    z: complex,
    budget: int = DEFAULT_BUDGET,
    r_entry: float | None = None,
) -> tuple[complex, int]:
    """h(z) on the whole basin of 0, by iterating into the entry disc.

    Iterates z_{m+1} = f_lambda(z_m) until |z_m| <= r_entry, then returns
    lambda^{-m} h(z_m).  The prefactor is applied in log form (m can reach
    1e5 near the unit circle, where lambda^{-m} overflows directly).
    Returns (value, iterations used).
    """
    lam = ks.lam
    if abs(lam) >= 1.0:
        raise PreconditionError("basin extension requires |lambda| < 1")
    if r_entry is None:
        r_entry = entry_radius(ks.h)
    z = complex(z)
    m = 0
    while abs(z) > r_entry:
        if m >= budget:
            raise NoConvergenceError(budget)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > ESCAPE_BOUND:
            raise NoConvergenceError(
                budget, f"orbit escaped (|z| > {ESCAPE_BOUND:g}) after {m} iterations"
            )
        z = family_eval(ks.family, lam, z)
        m += 1
    if z == 0:
        return 0j, m
    hz = complex(evaluate(ks.h, z).value)
    if hz == 0:
        return 0j, m
    if m == 0:
        return hz, 0
    return cmath.exp(cmath.log(hz) - m * cmath.log(lam)), m


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
    than returning a value.
    """
    lam = complex(lam)
    if not 0 < abs(lam) < 1:
        raise PreconditionError("yoccoz_w needs 0 < |lambda| < 1")
    ks = koenigs_series(family, lam, n)
    r_e = entry_radius(ks.h)
    w, m = koenigs_eval(ks, lam * family.v, budget=budget, r_entry=r_e)
    cap = 4.0 * abs(family.v)
    if not abs(w) < cap:
        raise NumericalError(
            f"Koebe bound violated: |w| = {abs(w):.6g} >= 4|v| = {cap:.6g} at lambda = {lam!r}"
        )
    if w == 0:
        raise NumericalError(f"vanishing Yoccoz value at lambda = {lam!r}")
    u = math.log(abs(w / lam))
    return YoccozValue(lam=lam, w=w, u=u, iterations_used=m, entry_radius=r_e)
