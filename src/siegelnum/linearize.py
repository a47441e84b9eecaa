"""Linearizing conjugacies and the Yoccoz function.

Two regimes of the same functional equation:

* attracting (0 < |lambda| < 1): the Koenigs series h, normalized tangent to
  the identity, with h(f_lambda(z)) = lambda * h(z); extended to the whole
  basin of 0 by iterating into a small entry disc and unwinding the equation;
* indifferent (|lambda| = 1, lambda = e^{2 pi i alpha}): the Siegel series g
  with f_lambda(g(w)) = g(lambda * w), whose coefficient recurrence divides
  by the small divisors lambda^k - lambda.  A map that declares the
  first-order ODE it satisfies (exp, zexp, sin, tan and the folds of sin and
  tan) gets g by ODE composition in O(n^2); any other map, by the
  composition sum over the powers g^j up to its degree.

On top of the basin extension sits the Yoccoz value w(lambda) = h(lambda v),
where v is the family's distinguished singular value.  Its log-modulus
u = log|w/lambda| is harmonic in lambda and bounded by M = log 4|v|
(koebe_cap_log, the one home of that bound) via Koebe's theorem; u_values
refuses a value with u >= M.  Radial limits of u are the subject of the
radius module.

u_values is the one pipeline from multipliers to Yoccoz values (series,
entry radius, orbit, log), batched over lambda; yoccoz_w, the CLI grid and
the radius module's ray scans all go through it.  Its basin step (entry
radius, orbit, one product for h(z_m), unwound to h(z) = lambda^{-m} h(z_m))
is also koenigs_eval's, so h on the basin has one evaluation whichever
entry point asks for it.

Residual checks here are *relative*: coefficients of Koenigs series grow
like dist(0, basin boundary)^{-k} and reach 1e120 at practical degrees, so
an absolute coefficientwise tolerance is meaningless in binary64.  Each
residual coefficient is normalized by the magnitude actually summed to
produce it (a majorant of the term sizes), which is the scale rounding
error lives on.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
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
    check_count,
    outcome,
    single,
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
    "koebe_cap_log",
    "SIEGEL_DIVISOR_FLOOR",
    "SIEGEL_EDGE",
    "ENTRY_RADIUS_GRID",
    "ENTRY_TAIL_TOL",
    "DEFAULT_BUDGET",
    "BLOCK_ENTRIES",
]

SIEGEL_DIVISOR_FLOOR = 1e-13
SIEGEL_EDGE = 1e-15  # a multiplier this close to |lambda| = 1 is in the Siegel regime
# the 1-2-5 ladder 1, 0.5, ..., 0.01 with each gap split into 8 geometric
# steps (ratio 0.89-0.92 per rung); every 1-2-5 rung is kept exactly, so
# the largest passing rung is never below the 1-2-5 ladder's choice
_DECADE_RUNGS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
ENTRY_RADIUS_GRID = tuple(
    hi * (lo / hi) ** (j / 8) for hi, lo in zip(_DECADE_RUNGS, _DECADE_RUNGS[1:]) for j in range(8)
) + (_DECADE_RUNGS[-1],)
ENTRY_TAIL_TOL = 1e-13
ESCAPE_BOUND = 1e50
_ORBIT_CHUNK = 16  # basin orbit steps per exit test once an orbit is long (_orbit)
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


def _read_rows(rows: np.ndarray, kind: str) -> list:
    """Each solved coefficient row, or the CoefficientOverflowError of a row
    with some |c_k| not finite (its parts may be finite).  Coefficients
    outgrow binary64 when the radius is tiny (deep near-rational dips): a
    numerical failure of the run, not a precondition error."""
    with np.errstate(over="ignore"):
        usable = np.isfinite(np.abs(rows))
    return [
        row if ok else CoefficientOverflowError(
            f"{kind} coefficients overflowed binary64 at degree {int(np.argmin(mods))}; "
            "the conformal radius here is too small for this truncation"
        )
        for row, mods, ok in zip(rows, usable, usable.all(axis=1).tolist())
    ]


def _check_multiplier(lam: complex) -> complex:
    """The one basin rule, 0 < |lambda| < 1 for a Koenigs linearization; returns lam."""
    if not 0 < abs(lam) < 1:
        raise PreconditionError("a Koenigs linearization needs 0 < |lambda| < 1")
    if 1.0 - abs(lam) < SIEGEL_EDGE:
        raise PreconditionError("|lambda| = 1 is the Siegel regime; use siegel_series")
    return lam


@functools.lru_cache(maxsize=16)
def _koenigs_table(family: FamilySpec, n: int) -> tuple[np.ndarray, tuple]:
    """(cols, plan) for every Koenigs solve of one map and degree: each
    sweep of a grid, each ray scan, each koenigs_series.  cols is
    power_table(f) of the degree-n base series f, read-only, and plan its
    _degree_plan.  Built once per (map, n); at most 16 tables of (n + 1)^2
    complex128 entries: 16 (n + 1)^2 16 B in the worst case, 4.3 MB at
    n = 128 and 67 MB at n = 512.
    """
    cols = power_table(base_series(family, n).coeffs)
    cols.flags.writeable = False
    return cols, _degree_plan(cols)


def _degree_plan(cols: np.ndarray) -> tuple:
    """(k, slice, row) for each degree k of h that can be nonzero, read off
    the exact zeros of cols = power_table(f), never off a declared symmetry.

    h_k is a sum over the live columns j < k (h_j not structurally 0,
    starting from j = 1) where C[k, j] != 0; a degree with no such column
    is exactly 0 and has no entry (every even degree of sin and tan).  The
    others read the one slice start:stop:step that holds all of them, and row
    is the matching view cols[k, slice] as a column: j >= ceil(k/2) for
    quadratic, j >= ceil(k/3) for poly_3, odd j for sin and tan, every j
    for exp, zexp and the reduced maps.  A column in the slice that is not
    needed contributes an exact 0.
    """
    n = cols.shape[0] - 1
    live = np.zeros(n + 1, dtype=bool)
    live[1] = True
    plan = []
    for k in range(2, n + 1):
        needed = np.flatnonzero(live[:k] & (cols[k, :k] != 0))
        if needed.size:
            live[k] = True
            step = int(np.gcd.reduce(k - needed))
            sl = slice(int(needed[0]), int(needed[-1]) + 1, step)
            plan.append((k, sl, cols[k, sl, None]))
    return tuple(plan)


def _solve_koenigs(cols: np.ndarray, plan: tuple, lams: np.ndarray) -> list:
    """Rows h of the normalized Koenigs series of lambda f, one per lambda.

    cols = power_table(f) and its plan, shared through _koenigs_table,
    serve every lambda (f_lambda = lambda f): degree k of
    h(f_lambda(z)) = lambda h(z) reads
    h_k (lambda - lambda^k) = sum_{j<k} h_j lambda^j C[k, j], so with
    G[:, j] = h_j lambda^j each planned degree is one stacked dot product
    of G's slice with the plan's slice of row k, written into h, one
    divide by lambda - lambda^k and one multiply by lambda^k into G, all in
    place; a degree off the plan stays exactly 0.  The powers lambda^k are
    one cumulative product.  Each row's dot is computed on its own, so its
    coefficients do not depend on the rest of the batch (a plain
    matrix-vector product can sum a row differently by batch size).
    Returns, per lambda, its coefficient row or the
    CoefficientOverflowError that koenigs_series raises for it.  There is
    no divisor guard: off 0 and the circle a divisor lambda (1 - lambda^{k-1})
    never vanishes, and divisors that round to tiny or zero values
    overflow their row instead (a lambda within ~1e-14 of the circle), while
    a tiny lambda such as 1e-300 gets its value (w/lambda -> v).
    """
    n = cols.shape[0] - 1
    pows = np.empty((n + 1, len(lams)), dtype=np.complex128)  # one column per lambda
    pows[0] = 1
    pows[1:] = lams
    np.cumprod(pows, axis=0, out=pows)
    divs = lams - pows
    h = np.zeros_like(pows)
    h[1] = 1
    g = np.zeros((len(lams), n + 1), dtype=np.complex128)  # one row per lambda
    g[:, 1] = lams
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _read_rows reports it
        for k, sl, row in plan:
            h_k = h[k]
            np.matmul(g[:, None, sl], row, out=h_k[:, None, None])
            np.divide(h_k, divs[k], out=h_k)
            np.multiply(h_k, pows[k], out=g[:, k])
    return _read_rows(h.T, "Koenigs")


def koenigs_series(family: FamilySpec, lam: complex, n: int = 128) -> KoenigsSeries:
    """Normalized linearizer h with h(f_lambda(z)) = lambda h(z), degree n.

    Defined for attracting 0 < |lambda| < 1 only, under the one basin rule
    (_check_multiplier) that u_values applies: lambda = 0 has no Koenigs
    linearization, |lambda| > 1 no basin to extend h over, and |lambda|
    within SIEGEL_EDGE of 1 is the Siegel regime (siegel_series).  The solve is
    the batched one of u_values, run on a batch of one, against the same
    shared power table of f (_koenigs_table).
    """
    lam = _check_multiplier(complex(lam))
    h = single(_solve_koenigs(*_koenigs_table(family, check_count(n, "series degree", 2)), np.array([lam])))
    return KoenigsSeries(lam=lam, h=TruncatedSeries.from_coeffs(h), family=family)


def _phases(alphas: np.ndarray, n: int) -> np.ndarray:
    """frac(k alpha) for k = 0..n, one row per alpha, within 2^-53 mod 1.

    alpha = hi + lo in 27 and 26 bits: k frac(hi), k frac(lo) and their fmod
    are exact for k < 2^26, so only the sum rounds, and column 1 is alpha
    on [0, 1).  A phase has alpha's sign and lies in (-2, 2).
    """
    mant, e = np.frexp(alphas)
    hi = np.ldexp(np.trunc(np.ldexp(mant, 27)), e - 27)
    k = np.arange(n + 1)
    a, b = (np.fmod(np.fmod(part, 1.0)[:, None] * k, 1.0) for part in (hi, alphas - hi))
    return a + b


def siegel_series_many(
    family: FamilySpec, alphas: Iterable, n: int = 128
) -> list[SiegelSeries | SiegelnumError]:
    """Formal conjugacies g with f_lambda(g(w)) = g(lambda w), lambda = e^{2 pi i alpha},
    at many rotation numbers, each a RotationNumber or a float.

    Returns, in input order, one outcome per alpha: its SiegelSeries, or
    the PreconditionError (alpha not finite) / DivisorBreakdownError /
    CoefficientOverflowError that siegel_series raises for it (not raised
    here).  A degree other than an integer >= 2 is a PreconditionError,
    raised for the whole call.

    The recurrence for g is the reversed composition order of the Koenigs
    one; both divide by lambda^k - lambda, which can vanish only here, on
    the circle.  Powers of lambda, lambda itself included, are
    e^{2 pi i frac(k alpha)} from _phases, rounded once, so the divisor of
    a rational alpha vanishes instead of drifting with k alpha's rounding.
    A float p/q still sits up to ulp/2 off the rational, which moves the
    resonant divisor (k = q + 1) by up to pi q ulp(alpha), so the guard
    trips where |lambda^k - lambda| < max(SIEGEL_DIVISOR_FLOOR,
    2 pi (k - 1) ulp(alpha)), and reports the k of the smallest ratio of
    divisor to floor, with that floor; it trips on every reduced p/q with
    q < n (measured for q < 1024).  An exact rational alpha that passes it
    (RotationNumber.is_rational) is DivisorBreakdownError(q + 1, 0.0,
    SIEGEL_DIVISOR_FLOOR), unsolved.  Every other alpha goes into one
    batched solve (_siegel_rows): the ODE solve (_solve_ode) when the
    family declares its ODE (exp, zexp, sin, tan, reduced(sin),
    reduced(tan)), else the composition solve (_solve_siegel: polynomial
    and custom maps).
    """
    n = check_count(n, "series degree", 2)
    given = list(alphas)
    alphas = np.array([float(getattr(a, "value", a)) for a in given])
    finite = np.isfinite(alphas)
    safe = np.where(finite, alphas, 0.0)  # a non-finite alpha's row is never read
    powers = np.exp(2j * math.pi * _phases(safe, n))
    divisors = powers - powers[:, 1:2]
    mags = np.abs(divisors[:, 2:])
    ulps = np.spacing(np.abs(safe))[:, None]
    floors = np.maximum(SIEGEL_DIVISOR_FLOOR, 2.0 * math.pi * np.arange(1, n) * ulps)
    worst = np.argmin(mags / floors, axis=1)
    at = np.arange(len(alphas)), worst
    smallest = zip((worst + 2).tolist(), mags[at].tolist(), floors[at].tolist())
    outcomes: list = []
    for rot, alpha, ok, (k, m, floor) in zip(given, alphas.tolist(), finite.tolist(), smallest):
        if not ok:
            outcomes.append(PreconditionError(f"alpha must be finite, got {alpha}"))
        elif m < floor:
            outcomes.append(DivisorBreakdownError(k, m, floor))
        elif getattr(rot, "is_rational", False):
            outcomes.append(DivisorBreakdownError(rot.q + 1, 0.0, SIEGEL_DIVISOR_FLOOR))
        else:
            outcomes.append(alpha)
    live = [b for b, out in enumerate(outcomes) if not isinstance(out, SiegelnumError)]
    if live:
        lams = powers[live, 1]
        solved = _siegel_rows(family, lams, divisors[live])
        solved.flags.writeable = False  # rows back their series
        for b, lam, out in zip(live, lams.tolist(), _read_rows(solved, "Siegel")):
            outcomes[b] = out if isinstance(out, SiegelnumError) else SiegelSeries(
                alpha=outcomes[b], lam=lam, g=TruncatedSeries(out), family=family,
            )
    return outcomes


def siegel_series(family: FamilySpec, alpha, n: int = 128) -> SiegelSeries:
    """Formal conjugacy g with f_lambda(g(w)) = g(lambda w), lambda = e^{2 pi i alpha}:
    siegel_series_many on a single alpha, raising its error."""
    return single(siegel_series_many(family, [alpha], n))


@functools.lru_cache(maxsize=8)
def _siegel_plan(rows: int, top: int, n: int, thread: int) -> tuple:
    """(pows, W, steps) for _solve_siegel's blocks of one shape in one thread
    (numpy drops the GIL inside matmul): pows[:, j, k] = [w^k] g^j,
    rev[:, n - i] = g_i, W[:, k, j] = F_j / d_k, and per degree k the views
    (powers 1..m-1 through column k-1, g_{k-1}, ..., g_1, column k of powers
    2..m, W's row k, g_k, its slot in rev), m = min(k, top).  A solve writes
    each entry it reads before reading it; the rest stay 0.  At most 8 plans
    of 2 max(BLOCK_ENTRIES, (top + 1)(n + 1)) + rows (n + 1) complex128
    entries and ~1 KB of views per degree: 2.7 MB at n = 256 (22 MB for 8).
    Only a custom map of high degree builds a larger one, up to 8.9 MB for
    a one-row entire block at n = 512 (71 MB for 8); the catalog's entire
    maps take the ODE solve, which keeps no power table.
    """
    pows = np.zeros((rows, top + 1, n + 1), dtype=np.complex128)
    rev = np.zeros((rows, n + 1), dtype=np.complex128)
    W = np.empty((rows, n + 1, top + 1), dtype=np.complex128)
    pows[:, 1, 1] = rev[:, n - 1] = 1
    steps = tuple(
        (pows[:, 1:m, 1:k], rev[:, n - k + 1 : n, None], pows[:, 2 : m + 1, k, None],
         W[:, k, None, 2 : m + 1], pows[:, 1, k, None, None], rev[:, n - k, None, None])
        for k, m in ((k, min(k, top)) for k in range(2, n + 1))
    )
    return pows, W, steps


def _solve_siegel(F: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Rows g_k from f_lambda(g(w)) = g(lambda w), one per row of F and divisors.

    Degree k of the left side is F_1 g_k + [w^k] sum_{j>=2} F_j g^j; since
    g^j has valuation j, the j >= 2 part only involves g_1..g_{k-1}.  The
    right side is lambda^k g_k, so g_k (lambda^k - lambda) equals that sum.
    The table pows[:, j] holds g^j of every row, filled through the current
    degree.  Column k of g^j is sum_{i<k} g_i [w^{k-i}] g^{j-1}, which reads
    only columns < k, so a degree is three numpy calls whatever the row
    count, on views _siegel_plan builds once per block shape (a memo of 8):
    a stacked mat-vec of powers 1..m-1 with g_{k-1}, ..., g_1 (g is kept
    reversed, so BLAS takes the unit-stride vector) appends column k of
    every power, a stacked dot with the weights F_j / d_k (one divide per
    block) gives g_k, and a copy puts g_k into the reversed g.  Each row's
    products are BLAS calls of their own, shaped by the call's one degree,
    so a row is bitwise that of a batch of one; returned rows are copies.

    Every row is lambda f of one map f (_siegel_rows), so a call has one
    top = deg F; higher powers never meet a nonzero F_j and are not kept,
    so a row costs O(top * n^2): O(n^2) for polynomial families, O(n^3)
    (inside numpy) for an entire custom map.  Rows are solved in slices of
    at most BLOCK_ENTRIES power-table entries, (top + 1)(n + 1) per row,
    and at least one row: a quadratic batch at n = 256 shares blocks of 85
    rows, while an entire custom map at n = 256 is solved a row at a time,
    where a wider block would only add memory traffic.
    """
    n = F.shape[1] - 1
    top = int(np.flatnonzero(F.any(axis=0)).max(initial=2))
    per_block = max(1, BLOCK_ENTRIES // ((top + 1) * (n + 1)))
    out = np.empty_like(F)
    for start in range(0, len(F), per_block):
        rows = slice(start, min(start + per_block, len(F)))
        pows, W, steps = _siegel_plan(rows.stop - start, top, n, threading.get_ident())
        with np.errstate(over="ignore", invalid="ignore"):  # _read_rows reports it
            np.divide(F[rows, None, : top + 1], divisors[rows, 2:, None], out=W[:, 2:])
            for powers, g_rev, col, weights, g_k, slot in steps:
                np.matmul(powers, g_rev, out=col)
                np.matmul(weights, col, out=g_k)
                np.positive(g_k, out=slot)
        out[rows] = pows[:, 1]
    return out


def _siegel_rows(family: FamilySpec, lams: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Rows g of f_lambda(g(w)) = g(lambda w), one per lambda, with
    divisors[:, k] = lambda^k - lambda for k = 0..n: the ODE solve
    (_solve_ode) for a map that declares its ODE (FamilySpec.ode), the
    composition solve (_solve_siegel) of F = lambda f for any other."""
    if family.ode is None:
        n = divisors.shape[1] - 1
        return _solve_siegel(lams[:, None] * base_series(family, n).coeffs, divisors)
    return _solve_ode(family.ode, family.reduced_from is not None, lams, divisors)


# per ODE: whether only odd degrees step (f odd, so g odd), and the number
# of left rows: k g_k for exp and sin, g_k and k g_k for zexp, k g_k and
# tan(g)_k for tan
_ODE_SHAPES = {"exp": (False, 1), "zexp": (False, 2), "sin": (True, 1), "tan": (True, 2)}


def _ode_start(ode: str, left, state, M, C, w, k) -> None:
    """Degree 1 of the left rows and of the state (degree 2 of the even
    part for sin and tan), and each step's weights from w = lambda / d and
    the step's degree k; see _solve_ode."""
    odd = _ODE_SHAPES[ode][0]
    left[:] = state[:] = 0
    left[:, :, 1 - odd] = 1  # every left row is 1 at degree 1
    T = state.shape[1] - 1
    if odd:
        state[:, T - 2] = -0.5 if ode == "sin" else 1  # cos(g)_2, (1 + tan^2 g)_2
    else:
        state[:, T - 1] = 1  # E_1
    s = (w + 1) / k  # the state's new coefficient per unit of r_k
    C[..., 0, 0] = w
    if ode == "exp":
        M[..., 0, 0] = s
    elif ode == "zexp":
        M[..., 0, 0], M[..., 0, 1], C[..., 1, 0] = w, 1 / k, k * w
    elif ode == "sin":  # (cos_{k+1}, sin_k) from (b, r): cos_{k+1} = -(b + sin_k + k g_k) / (k + 1)
        M[..., 0, 0], M[..., 0, 1], M[..., 1, 1] = -1 / (k + 1), -(s + w) / (k + 1), s
    else:  # (Q_{k+1}, tan_k) from (., r, c, .): Q_{k+1} = c + 2 tan_k
        M[..., 0, 1], M[..., 0, 2], M[..., 1, 1], C[..., 1, 0] = 2 * s, 1, s, s


@functools.lru_cache(maxsize=8)
def _ode_plan(ode: str, rows: int, top: int, thread: int) -> tuple:
    """(left, state, M, C, v, degrees, steps) for _solve_ode's blocks of one
    ODE and shape in one thread, stepping g to degree top: the left rows
    forward (odd degrees only, packed, for an odd map), the state reversed
    (state[:, T - d] = Z_d), each step's weights M and C, the dot's output
    v, and per step the views (left window, state window, M, the state's
    next slot(s), C, the left rows' next column).  At most 8 plans of at
    most 7 complex128 entries per row and degree, and ~1 KB of views per
    degree: 0.13 MB for one row at n = 128, 9 MB for 31 rows of
    reduced(tan) at n = 1024 (top = 2047).
    """
    odd, nl = _ODE_SHAPES[ode]
    degrees = np.arange(3, top + 1, 2) if odd else np.arange(2, top + 1)
    T = top + odd
    left = np.zeros((rows, nl, (top + 1) // 2 if odd else top + 1), dtype=np.complex128)
    state = np.zeros((rows, T + 1), dtype=np.complex128)
    M = np.zeros((rows, degrees.size, 1 + odd, nl * (1 + odd)), dtype=np.complex128)
    C = np.zeros((rows, degrees.size, nl, 1), dtype=np.complex128)
    v = np.empty((rows, nl, 1 + odd), dtype=np.complex128)
    steps = []
    for i, k in enumerate(degrees.tolist()):
        if odd:  # j = 1, 3, ..., k - 2 against (Z_{k+1-j}, Z_{k-j}); writes (Z_{k+1}, Z_k)
            j = (k - 1) // 2
            window = state[:, T - k : T - k + 2 * j].reshape(rows, j, 2)  # a view
            steps.append((left[:, :, :j], window, M[:, i], state[:, T - k - 1 : T - k + 1, None],
                          C[:, i], left[:, :, j, None]))
        else:  # j = 1, ..., k - 1 against E_{k-j}; writes E_k
            steps.append((left[:, :, 1:k], state[:, T - k + 1 : T, None], M[:, i],
                          state[:, T - k, None, None], C[:, i], left[:, :, k, None]))
    return left, state, M, C, v, degrees, tuple(steps)


def _solve_ode(ode: str, fold: bool, lams: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Siegel rows of a map that satisfies a first-order ODE, by ODE
    composition (Brent and Kung, J. ACM 25, 1978): O(n^2) per row, with no
    power table.  divisors[:, k] = lambda^k - lambda as for _solve_siegel.

    The state is E = e^g for exp (f o g = E - 1) and zexp (f o g = g E),
    Z = sin g + cos g for sin and Z = tan g + (1 + tan^2 g) for tan, an odd
    and an even series kept as one.  Since (e^g)' = g' e^g,
    (sin g)' = g' cos g, (cos g)' = -g' sin g and (tan g)' = g' (1 + tan^2 g),
    degree k of the state is a sum over j <= k of j g_j times state
    coefficients below k, and tan's even part a self-convolution of its odd
    part.  In each case the only unknown at degree k is g_k, with
    coefficient 1 in [f o g]_k, so with w_k = lambda / d_k and r_k the known
    part of the sum, k g_k = w_k r_k and the state's new coefficient is
    (w_k + 1) r_k / k (zexp: g_k = w_k r_k with r_k = sum_{j<k} g_j E_{k-j}).
    A step is three numpy calls on views _ode_plan builds once per block
    shape (a memo of 8): one stacked dot of the left rows with a window of
    the reversed state, one product with the step's state weights into the
    state's next slot (for sin and tan, the odd coefficient at k and the
    even one at k + 1), and one product of r_k with the left weights into
    the left rows.  sin and tan step only odd k; their even coefficients of
    g are exactly 0.

    fold: the map is reduced(f) with f = sin or tan, whose row is
    g(w) = g_f(sqrt(w))^2 for g_f the row of f at mu = sqrt(lambda) to
    degree 2n - 1; mu / (mu^{2m+1} - mu) = lambda / d_{m+1}, so f's step at
    degree 2m + 1 takes the reduced map's weight of degree m + 1, and the
    guard on the reduced map's divisors covers it.  Rows are solved in
    blocks of BLOCK_ENTRIES state entries (at least one row); each row's
    products are its own, so a row is bitwise that of a batch of one.
    """
    n = divisors.shape[1] - 1
    odd, _ = _ODE_SHAPES[ode]
    top = 2 * n - 1 if fold else n - 1 + n % 2 if odd else n
    out = np.zeros((lams.size, n + 1), dtype=np.complex128)
    per_block = max(1, BLOCK_ENTRIES // (top + 2))
    for start in range(0, lams.size, per_block):
        rows = slice(start, start + per_block)
        block = lams[rows]
        left, state, M, C, v, k, steps = _ode_plan(ode, block.size, top, threading.get_ident())
        flat, r = v.reshape(block.size, -1, 1), v[:, :1, -1:]
        with np.errstate(over="ignore", invalid="ignore"):  # _read_rows reports it
            w = block[:, None] / divisors[rows, (k + 1) // 2 if fold else k]
            _ode_start(ode, left, state, M, C, w, k)
            for window, stack, weights, slot, scale, column in steps:
                np.matmul(window, stack, out=v)
                np.matmul(weights, flat, out=slot)
                np.multiply(r, scale, out=column)
            if ode == "zexp":
                out[rows] = left[:, 0]
            elif not odd:
                out[rows, 1:] = left[:, 0, 1:] / np.arange(1, n + 1)
            elif not fold:
                out[rows, 1::2] = left[:, 0] / np.arange(1, top + 1, 2)
            else:  # g_f(sqrt(w))^2 from g_f's odd coefficients
                odd_part = left[:, 0] / np.arange(1, top + 1, 2)
                out[rows, 1:] = [np.convolve(g, g)[:n] for g in odd_part]
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
        rot = ser.coeffs * np.exp(2j * math.pi * _phases(np.array([obj.alpha]), ser.degree))[0]
    else:
        raise PreconditionError("expected a KoenigsSeries or SiegelSeries")
    res = compose(outer, inner).coeffs - rot
    moduli = (TruncatedSeries.from_coeffs(np.abs(s.coeffs)) for s in (outer, inner))
    maj = compose(*moduli).coeffs.real + np.abs(rot)
    return float(np.max(np.abs(res) / np.maximum(1.0, maj)))


def _entry_radii(h: np.ndarray) -> list[float | EntryRadiusError]:
    """entry_radius of each row of coefficients h, or that row's EntryRadiusError.

    The tail majorant sum_{N/2 < k <= N} |h_k| r^k of every row at every
    grid radius is one product of |h| with the table of those powers
    (_rung_table, built once per ladder and n).  As
    in _solve_koenigs the product is stacked per row: a plain matrix
    product over the batch could sum a row differently depending on which
    rows share it, and a last-bit change in a tail near ENTRY_TAIL_TOL
    would move the entry radius.  The majorant grows with r, so the first
    passing radius of the descending grid is the largest; one that
    overflows at large degree is inf and fails.  The grid holds every
    rung of the 1-2-5 ladder, so no row gets a smaller radius (and a
    longer orbit) than that ladder would give it.
    """
    n = h.shape[1] - 1
    grid = ENTRY_RADIUS_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        passing = (np.abs(h[:, None, n // 2 + 1 :]) @ _rung_table(grid, n))[:, 0] <= ENTRY_TAIL_TOL
    return [
        grid[rung] if ok else EntryRadiusError(
            f"no radius in the {len(grid)}-rung ladder from {grid[0]:g} down to {grid[-1]:g} "
            f"gives two-truncation agreement <= {ENTRY_TAIL_TOL:g}"
        )
        for rung, ok in zip(passing.argmax(axis=1).tolist(), passing.any(axis=1).tolist())
    ]


@functools.lru_cache(maxsize=16)
def _rung_table(grid: tuple, n: int) -> np.ndarray:
    """r^k for every rung r of the ladder (columns) and N/2 < k <= N (rows),
    read-only, built once per (ladder, n)."""
    powers = np.arange(n // 2 + 1, n + 1)
    table = np.power(np.array(grid), powers[:, None])
    table.flags.writeable = False
    return table


def entry_radius(ser: TruncatedSeries) -> float:
    """Largest grid radius where the series evaluation is self-consistent.

    Accepts the first (largest) r in ENTRY_RADIUS_GRID whose tail majorant
    sum_{N/2 < k <= N} |h_k| r^k is <= ENTRY_TAIL_TOL.  The majorant bounds
    the gap between full-degree and half-degree evaluation at every point
    of |z| = r, not only at samples, so the whole entry disc agrees.
    The grid is the 1-2-5 ladder from 1 to 0.01 with each gap split into
    8 geometric rungs.  Nothing on the grid passing means the series is
    untrustworthy even at |z| = 0.01 and evaluation should not be attempted.
    """
    return single(_entry_radii(ser.coeffs[None, :]))


def _orbit(family: FamilySpec, lam: complex, z: complex, r_entry: float, budget: int) -> tuple[complex, int]:
    """Iterate f_lambda from z to a stop in |z| <= r_entry; returns (z_m, m).

    Each exit test stops the orbit on entry, on |z| > ESCAPE_BOUND (abs is
    inf when a part is inf) and on a NaN iterate, returned as it stands (NaN
    is not > r_entry).  lam * step(z) is family_eval's expression, bit for
    bit; an OverflowError from the map (exp at z = 800) is an escape.

    The first _ORBIT_CHUNK steps are tested one by one, so short interior
    orbits stop where a per-step loop does.  Then, while a chunk of
    _ORBIT_CHUNK steps fits in the budget, only its last iterate is tested.
    A chunk that raises (hence `except Exception`, which swallows nothing)
    or fails the test is rerun step by step, as is the rest of the budget,
    and so stops, escapes or raises where a per-step loop would.  The one
    difference: an orbit that leaves r_entry < |z| <= ESCAPE_BOUND and comes
    back inside one accepted chunk runs on, to a later stop in the disc.
    """
    step = family._point_eval
    lam = complex(lam)
    m = 0
    a = abs(z)
    if r_entry < a <= ESCAPE_BOUND:
        try:
            for m in range(1, min(budget, _ORBIT_CHUNK) + 1):
                z = lam * step(z)
                a = abs(z)
                if not r_entry < a <= ESCAPE_BOUND:
                    break
            else:
                while m + _ORBIT_CHUNK <= budget:
                    try:  # the chunk written out: a loop gives back a third of the saving
                        y = lam * step(lam * step(lam * step(lam * step(
                            lam * step(lam * step(lam * step(lam * step(
                            lam * step(lam * step(lam * step(lam * step(
                            lam * step(lam * step(lam * step(lam * step(z))))))))))))))))
                    except Exception:  # rerun step by step below, which raises it again
                        break
                    a = abs(y)
                    if not r_entry < a <= ESCAPE_BOUND:
                        break
                    z, m = y, m + _ORBIT_CHUNK
                for m in range(m + 1, budget + 1):
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


def _basin_step(family: FamilySpec, lams: list, h: np.ndarray, starts: list, budget: int) -> list:
    """h on the basin of 0 for each row b of solved Koenigs coefficients h
    (of lams[b]): the orbit of starts[b] into its entry disc (_orbit, one
    scalar loop per row, as orbit lengths differ widely), then h(z_m) for
    every row that entered as one stacked product of its coefficients with
    the powers z_m^k from one cumulative product, and h(z) =
    lambda^{-m} h(z_m).  Returns per row (h(z), m, entry radius) or its
    EntryRadiusError or orbit error; entry radii and h(z_m) are stacked per
    row, so each row is as in a batch of one."""
    radii = _entry_radii(h)
    outcomes = [
        r if isinstance(r, SiegelnumError) else outcome(_orbit, family, lam, z, r, budget)
        for lam, z, r in zip(lams, starts, radii)
    ]
    rows = [b for b, out in enumerate(outcomes) if not isinstance(out, SiegelnumError)]
    if rows:
        zpow = np.empty((len(rows), h.shape[1]), dtype=np.complex128)
        zpow[:, 0] = 1
        zpow[:, 1:] = np.array([outcomes[b][0] for b in rows])[:, None]
        np.cumprod(zpow, axis=1, out=zpow)
        hz = (h[rows, None, :] @ zpow[:, :, None])[:, 0, 0]
        for b, value in zip(rows, hz.tolist()):
            m = outcomes[b][1]
            if value == 0:
                value = 0j
            elif m:  # lambda^{-m} h(z_m) in log form, which keeps the bits of w
                value = cmath.exp(cmath.log(value) - m * cmath.log(lams[b]))
            outcomes[b] = (value, m, radii[b])
    return outcomes


def koenigs_eval(ks: KoenigsSeries, z: complex) -> tuple[complex, int]:
    """h(z) on the whole basin of 0, by iterating into the entry disc.

    Iterates z_{m+1} = f_lambda(z_m), at most DEFAULT_BUDGET times, to the
    iterate z_m where _orbit stops in |z| <= entry_radius(h): the first
    entry, or a later iterate in the disc when the orbit dipped into it and
    out again inside one chunk.  Returns (lambda^{-m} h(z_m), m).  This is
    u_values' basin step on one row, so at z = lambda v it gives
    yoccoz_w's w and iterations, bit for bit.  A z with a NaN or infinite
    part is a PreconditionError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise PreconditionError(f"z must be finite, got {z!r}")
    return single(_basin_step(ks.family, [ks.lam], ks.h.coeffs[None, :], [z], DEFAULT_BUDGET))[:2]


def koebe_cap_log(family: FamilySpec) -> float:
    """M = log 4 + log|v|: Koebe's upper bound for u, and so for rho."""
    return math.log(4.0) + math.log(abs(family.v))


def _yoccoz_value(lam: complex, w: complex, m: int, r_entry: float,
                  cap: float) -> YoccozValue | NumericalError:
    """w = h(lambda v) with its non-vanishing check and the Koebe check
    u < M = cap (a NaN u fails it too); a failed check is returned as its
    NumericalError."""
    if w == 0:
        return NumericalError(f"vanishing Yoccoz value at lambda = {lam!r}")
    u = math.log(abs(w / lam))
    if not u < cap:
        return NumericalError(f"Koebe bound violated: u = {u:.6g} >= M = {cap:.6g} at lambda = {lam!r}")
    return YoccozValue(lam=lam, w=w, u=u, iterations_used=m, entry_radius=r_entry)


def u_values(
    family: FamilySpec,
    lams: Iterable[complex],
    n: int = 128,
    budget: int = DEFAULT_BUDGET,
) -> list[YoccozValue | SiegelnumError]:
    """Yoccoz values at many multipliers: the one lambda pipeline.

    Returns, in input order, one outcome per lambda: its YoccozValue, or
    the SiegelnumError instance that yoccoz_w raises for it (not raised
    here, so a sweep keeps going); past the 0 < |lambda| < 1 check these
    are coefficient overflow, entry radius, orbit and Koebe failures, never
    a divisor breakdown.  Any other exception, such as one from a user
    family's point evaluator, propagates.  A budget other than an integer
    >= 1, or a degree other than an integer >= 2, is a PreconditionError
    for the whole call (check_count).

    The Koenigs series of every lambda come from the power table of f
    (f_lambda = lambda f) and its degree plan, built once per (map, n) in a
    process and shared by every later call (_koenigs_table), and one batched
    solve per block of BLOCK_ENTRIES // (n + 1) multipliers (508 at
    n = 128) that reads only the table entries that can be nonzero,
    followed by the block's basin step from lambda v (_basin_step: orbits
    to their stopping iterates z_m in the entry disc, then one product for
    every h(z_m)); iterations_used is that m.  At 1 - |lambda| = 2^-k an
    orbit runs about 2^k iterates, so its loop is where deep ray scans
    (rho_radial, the benchmark's radius_scan) spend their time.
    """
    budget = check_count(budget, "iteration budget", 1)
    n = check_count(n, "series degree", 2)
    cols, plan = _koenigs_table(family, n)
    cap = koebe_cap_log(family)
    lams = [complex(lam) for lam in lams]
    outcomes = [outcome(_check_multiplier, lam) for lam in lams]
    todo = [i for i, out in enumerate(outcomes) if not isinstance(out, SiegelnumError)]
    per_block = max(1, BLOCK_ENTRIES // (n + 1))
    for start in range(0, len(todo), per_block):
        block = todo[start : start + per_block]
        for i, out in zip(block, _solve_koenigs(cols, plan, np.array([lams[i] for i in block]))):
            outcomes[i] = out
        live = [i for i in block if not isinstance(outcomes[i], SiegelnumError)]
        if live:
            h = np.array([outcomes[i] for i in live])
            starts = [lams[i] * family.v for i in live]
            for i, step in zip(live, _basin_step(family, [lams[i] for i in live], h, starts, budget)):
                ok = not isinstance(step, SiegelnumError)
                outcomes[i] = _yoccoz_value(lams[i], *step, cap) if ok else step
    return outcomes


def yoccoz_w(
    family: FamilySpec,
    lam: complex,
    n: int = 128,
    budget: int = DEFAULT_BUDGET,
) -> YoccozValue:
    """w(lambda) = h_lambda(lambda v) and its harmonic log-modulus u.

    Koebe's growth theorem forces u < M (koebe_cap_log): psi = h^{-1} is
    univalent on D(0, R), R = |w/lambda|, with psi'(0) = 1 and psi(w) =
    lambda v, so |lambda v| >= |w| / (1 + |w|/R)^2 > |w| / 4.  A violation
    is a broken evaluation (or a wrongly declared v) and raises.  This is
    u_values on a single lambda.
    """
    return single(u_values(family, [lam], n, budget))
