"""Iterated rotation-number refinement driving the radius to a target.

The driver walks a decreasing schedule of radius targets

    rho_n = rho_infinity + G * (D + 1 - n) / (D + 1),   n = 1 .. D,

with rho_infinity = rho_hat(alpha_0) - G (G = DEFAULT_DROP unless
rho_infinity is given), and at each step replaces the rotation number by a
nearby one whose coefficient estimate of the radius sits on the schedule,
certifying three things per step: the new value's flanks (FLANK_SAMPLES
per side, estimated together by one rho_coefficients call, so one batched
Siegel solve) stay strictly below the previous level (one-sided continuity
has teeth only on an interval), consecutive Siegel series stay close in the
derivative norm (order NORM_ORDER, CIRCLE_SAMPLES points) at the limiting
radius (budget delta * 2^-n), and the intervals nest.  The radial probe
cannot resolve a dip; it serves only as a one-sided cross-check.

Candidates live on a rational anchor's dip: for p/q close to alpha_n the
estimated radius falls off linearly in log distance, with slope 1/q per
log unit (measured 0.0694 per decade at q = 34, i.e. ln 10 / q).  The
step candidate is found by bisecting (at most MAX_ITER halvings) between
the anchor (whose estimate diverges — the small-divisor guard trips
exactly there) and alpha_n, on whichever side of alpha_n the anchor lies.
Anchor choice trades three pressures: the dip must stay resolvable in
binary64 (q * final_dip <= ~30, or the offset from p/q underflows), the
resonant spike index q+1 must sit low enough for the coefficient window to
see it, and the flank bump at twice the offset (ln 2 / q) must stay inside
the step gap.  A single anchor that is feasible for the *whole* schedule
is preferred, because every alpha_n then keeps p/q among its convergents
and the intervals nest around the common anchor for free; a step tries at
most RETRY_BUDGET anchors.  At the defaults (G = 0.75, q = 34 for the
golden mean) the ladder is feasible to depth ~5; beyond that the final
offsets sink under float resolution and the run stalls honestly.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BracketFailureError,
    ConstructionStallError,
    NumericalError,
    PreconditionError,
    SiegelnumError,
    UnreliableRadiusError,
)
from .families import FamilySpec, get_family
from .qanorm import _table_norm, circle_values, qa_norm
from .radius import (
    RadiusEstimate,
    RotationNumber,
    cf_convergents,
    cf_expand,
    golden_rotation,
    rho_coefficient,
    rho_coefficients,
    rho_radial,
)

__all__ = [
    "ConstructionConfig",
    "StepReport",
    "ConstructionReport",
    "BoundaryReport",
    "find_alpha_with_rho",
    "run_construction",
    "boundary_report",
]

MIN_ANCHOR_Q = 5
MIN_OFFSET_EPS = 200.0  # offsets below this many float-gaps are unresolvable
CROSSCHECK_SLACK = 0.1  # tolerance for the one-sided radial cross-check
DEFAULT_DROP = 0.75  # rho0 - rho_infinity when rho_infinity is not given
NORM_ORDER = 1  # derivative order cap of the step and total norm deltas
CIRCLE_SAMPLES = 512  # circle points of every norm and of the boundary report
FLANK_SAMPLES = 16  # flank probes per side of each candidate
RETRY_BUDGET = 8  # anchors tried per step
MAX_ITER = 80  # bisection steps per anchor


@dataclass(frozen=True)
class ConstructionConfig:
    """The nine settings of a construction run; the radius is always
    certified by the coefficient estimator."""

    family: str = "quadratic"
    alpha0: RotationNumber = field(default_factory=golden_rotation)
    depth: int = 3
    delta: float = 0.1
    eps0: float = 0.05
    rho_infinity: float | None = None  # rho0 - DEFAULT_DROP when None
    schedule: tuple | None = None  # explicit targets; overrides the linear ramp
    tol_rho: float = 0.02
    n_series: int = 256

    def __post_init__(self):
        if self.depth < 1:
            raise PreconditionError("depth must be at least 1")
        if not (self.delta > 0 and self.eps0 > 0 and self.tol_rho > 0):
            raise PreconditionError("delta, eps0 and tol_rho must be positive")
        if self.n_series < 64:
            raise PreconditionError("construction needs series degree >= 64")
        if self.schedule is not None:
            vals = tuple(float(v) for v in self.schedule)
            if len(vals) != self.depth:
                raise PreconditionError("schedule length must equal depth")
            if any(b >= a for a, b in zip(vals, vals[1:])):
                raise PreconditionError("schedule must be strictly decreasing")
            object.__setattr__(self, "schedule", vals)


@dataclass(frozen=True)
class StepReport:
    n: int
    alpha: float
    anchor_p: int
    anchor_q: int
    target_rho: float
    achieved_rho: float
    eps: float
    norm_delta: float
    norm_budget: float
    flank_worst: float
    flank_level: float
    radial_value: float
    retries: int

    def describe(self) -> dict:
        return {
            "n": self.n, "alpha": self.alpha,
            "anchor": f"{self.anchor_p}/{self.anchor_q}",
            "target_rho": self.target_rho, "achieved_rho": self.achieved_rho,
            "eps": self.eps, "norm_delta": self.norm_delta,
            "norm_budget": self.norm_budget, "flank_worst": self.flank_worst,
            "flank_level": self.flank_level, "radial_value": self.radial_value,
            "retries": self.retries,
        }


@dataclass(frozen=True)
class BoundaryReport:
    radius: float
    g_min: float
    g_max: float
    gprime_min: float
    gprime_max: float
    norm_value: float
    samples: int

    def describe(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConstructionReport:
    family: str
    alpha0: float
    rho0: float
    rho_infinity: float
    r_infinity: float
    schedule: tuple
    steps: tuple
    final_alpha: float
    total_distance: float
    boundary: BoundaryReport
    wall_time: float

    def describe(self) -> dict:
        return {**asdict(self), "steps": [s.describe() for s in self.steps]}


def _estimate(family: FamilySpec, alpha: float, n: int) -> RadiusEstimate | NumericalError:
    """rho_coefficient at alpha, with a NumericalError returned, not raised."""
    try:
        return rho_coefficient(family, alpha, n)
    except NumericalError as exc:
        return exc


def _effective_value(outcome: RadiusEstimate | SiegelnumError) -> float:
    """The effective value of a coefficient estimate's outcome.  Breakdown,
    coefficient overflow, an unusable sample run: every NumericalError
    happens exactly where the dip is effectively bottomless, so it reads as
    -infinity; any other package error is raised."""
    if isinstance(outcome, NumericalError):
        return -math.inf
    if isinstance(outcome, SiegelnumError):
        raise outcome
    return outcome.effective_rho


def find_alpha_with_rho(
    family: FamilySpec,
    target_rho: float,
    below: float,
    above: float,
    tol_rho: float = 0.02,
    n: int = 256,
) -> tuple[float, RadiusEstimate]:
    """Bisect between below and above, in either numeric order, for alpha
    with a coefficient estimate rho_hat ~ target_rho, in at most MAX_ITER
    steps.

    The below end must estimate below the target and the above end above
    it; a rational anchor whose estimate breaks down counts as -infinity,
    which is the standard way to seed the bracket.  Bisection needs only
    the intermediate-value property, which the estimate has by continuity
    away from breakdown points; the landscape is not monotone (other
    rationals dent it), so the returned alpha is *a* crossing, not the
    closest one to either end.
    """
    if below == above:
        raise PreconditionError("bracket ends must differ")
    below_val = _effective_value(_estimate(family, below, n))
    above_val = _effective_value(_estimate(family, above, n))
    if not below_val < target_rho:
        raise BracketFailureError(
            f"below end estimates {below_val:.4f}, not below target {target_rho:.4f}"
        )
    if not above_val > target_rho:
        raise BracketFailureError(
            f"above end estimates {above_val:.4f}, not above target {target_rho:.4f}"
        )
    lo, hi = below, above
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            raise BracketFailureError("bracket exhausted float resolution")
        est = _estimate(family, mid, n)
        val = _effective_value(est)
        if abs(val - target_rho) <= tol_rho:  # false at -infinity
            return mid, est
        if val < target_rho:
            lo = mid
        else:
            hi = mid
    raise BracketFailureError(f"no crossing within {MAX_ITER} bisection steps")


def _schedule(rho0: float, cfg: ConstructionConfig) -> tuple[float, list[float]]:
    """rho_infinity and the step targets, each target checked to lie
    strictly between rho_infinity and the base estimate rho0."""
    drop = DEFAULT_DROP if cfg.rho_infinity is None else rho0 - cfg.rho_infinity
    if drop <= 0:
        raise PreconditionError(
            f"rho_infinity {cfg.rho_infinity:.4f} is not below the base "
            f"estimate {rho0:.4f}"
        )
    rho_inf = rho0 - drop
    d = cfg.depth
    targets = list(cfg.schedule) if cfg.schedule is not None else [
        rho0 - drop * n / (d + 1) for n in range(1, d + 1)
    ]
    if any(not rho_inf < t < rho0 for t in targets):
        raise PreconditionError(
            "every schedule target must lie strictly between rho_infinity "
            f"({rho_inf:.4f}) and the base estimate ({rho0:.4f})"
        )
    return rho_inf, targets


def _anchor_ladder(alpha: float, n_series: int, final_dip: float) -> list[tuple[int, int]]:
    """Rational anchors (p, q) for dip candidates near alpha, best first.

    Preference goes to the largest denominator whose dip stays float-
    resolvable through the *final* schedule target, final_dip below the
    base estimate; anchors feasible only for earlier steps follow, as
    retries.  The spike index must also stay visible to the coefficient
    window, and tiny denominators are dropped because their flank bump
    ln2/q would swallow the schedule gap.  Convergent denominators strictly
    increase, so the sort key has no ties.
    """
    eps_floor = MIN_OFFSET_EPS * math.ulp(alpha)

    def rank(pq):  # (infeasible, -q): feasible anchors first, larger q first
        q = pq[1]
        return math.exp(-q * final_dip) / (math.sqrt(5.0) * q * q) < eps_floor, -q

    # within eps_floor of p/q, alpha already sits on the rational numerically
    anchors = [(p, q) for p, q in cf_convergents(cf_expand(alpha, 24))
               if MIN_ANCHOR_Q <= q < n_series // 3 and abs(alpha - p / q) > eps_floor]
    return sorted(anchors, key=rank)


def run_construction(cfg: ConstructionConfig) -> ConstructionReport:
    """Run the full schedule; raise ConstructionStallError (with the partial
    report attached) if some step exhausts its retry budget."""
    t_start = time.perf_counter()
    family = get_family(cfg.family)
    est0 = rho_coefficient(family, cfg.alpha0.value, cfg.n_series)
    if not est0.converged:
        raise PreconditionError(
            "base rotation number must have a converged, finite radius estimate"
        )
    rho0 = est0.rho_hat
    rho_inf, targets = _schedule(rho0, cfg)
    r_inf = math.exp(rho_inf)

    alpha_n = cfg.alpha0.value
    eps_n = cfg.eps0
    levelrho_n = rho0
    g_0 = g_n = est0.series.g
    steps: list[StepReport] = []

    for n, target in enumerate(targets, start=1):
        budget = cfg.delta * 2.0 ** (-(n - 1))
        accepted = None
        reasons = []
        ladder = _anchor_ladder(alpha_n, cfg.n_series, rho0 - targets[-1])
        for retries, (p, q) in enumerate(ladder[:RETRY_BUDGET]):
            anchor = p / q
            try:
                alpha_c, est_c = find_alpha_with_rho(
                    family, target, anchor, alpha_n, cfg.tol_rho, cfg.n_series
                )
            except BracketFailureError as exc:
                reasons.append(f"{p}/{q}: {exc}")
                continue
            eps_c = abs(alpha_c - anchor)
            # nesting
            if abs(alpha_c - alpha_n) + eps_c > eps_n:
                reasons.append(f"{p}/{q}: interval does not nest")
                continue
            # norm budget
            g_c = est_c.series.g
            try:
                delta_norm = qa_norm(
                    g_n - g_c, r_inf, order_cap=NORM_ORDER, circle_samples=CIRCLE_SAMPLES
                ).value
            except NumericalError as exc:
                reasons.append(f"{p}/{q}: {type(exc).__name__}: {exc}")
                continue
            if delta_norm > budget:
                reasons.append(f"{p}/{q}: norm delta {delta_norm:.3e} > {budget:.3e}")
                continue
            # flank scan: every probe in one batched estimate
            flanks = (alpha_c + sgn * j * eps_c / FLANK_SAMPLES
                      for j in range(1, FLANK_SAMPLES + 1) for sgn in (1.0, -1.0))
            probes = rho_coefficients(family, [b for b in flanks if 0.0 < b < 1.0], cfg.n_series)
            worst = max(map(_effective_value, probes), default=-math.inf)
            if not worst < levelrho_n:
                reasons.append(f"{p}/{q}: flank reaches {worst:.4f}, not below {levelrho_n:.4f}")
                continue
            # one-sided radial cross-check: the radial probe cannot resolve a
            # dip this narrow, so it must read at or above the coefficient
            # value; a reading *below* it would mean the two estimators
            # disagree about something the radial probe can actually see.
            radial_value = math.nan
            try:
                radial_value = rho_radial(family, alpha_c, depth=10, n=min(cfg.n_series, 128)).effective_rho
            except NumericalError:
                pass
            if radial_value < est_c.rho_hat - CROSSCHECK_SLACK:
                reasons.append(
                    f"{p}/{q}: radial probe {radial_value:.4f} undercuts "
                    f"coefficient estimate {est_c.rho_hat:.4f}"
                )
                continue
            accepted = StepReport(
                n=n, alpha=alpha_c, anchor_p=p, anchor_q=q,
                target_rho=target, achieved_rho=est_c.rho_hat, eps=eps_c,
                norm_delta=delta_norm, norm_budget=budget,
                flank_worst=worst, flank_level=levelrho_n,
                radial_value=radial_value, retries=retries,
            )
            alpha_n, eps_n, levelrho_n, g_n = alpha_c, eps_c, target, g_c
            break
        if accepted is None:
            raise ConstructionStallError(
                f"step {n}: no anchor produced an acceptable candidate: "
                + "; ".join(reasons),
                partial_report=_final_report(cfg, rho0, rho_inf, targets, steps, alpha_n, g_0, g_n, t_start),
            )
        steps.append(accepted)

    return _final_report(cfg, rho0, rho_inf, targets, steps, alpha_n, g_0, g_n, t_start)


def _final_report(cfg, rho0, rho_inf, targets, steps, alpha_n, g_0, g_n, t_start) -> ConstructionReport:
    r_inf = math.exp(rho_inf)
    try:
        total = qa_norm(g_0 - g_n, r_inf, order_cap=NORM_ORDER,
                        circle_samples=CIRCLE_SAMPLES).value
    except UnreliableRadiusError:
        total = math.nan
    boundary = boundary_report(g_n, r_inf)
    return ConstructionReport(
        family=cfg.family,
        alpha0=cfg.alpha0.value,
        rho0=rho0,
        rho_infinity=rho_inf,
        r_infinity=r_inf,
        schedule=tuple(targets),
        steps=tuple(steps),
        final_alpha=alpha_n,
        total_distance=total,
        boundary=boundary,
        wall_time=time.perf_counter() - t_start,
    )


def boundary_report(g, radius: float) -> BoundaryReport:
    """Geometry of the disc image at |w| = radius: range of |g| and |g'|
    over CIRCLE_SAMPLES points of the circle, plus the derivative norm
    there, all from one circle table.  gprime_min > 0 is the working
    injectivity indicator (g is normalized, g'(0) = 1)."""
    table = circle_values(g.coeffs, radius, CIRCLE_SAMPLES, order_cap=1)
    gv, gpv = np.abs(table)
    try:
        norm_val = _table_norm(g, radius, table).value
    except UnreliableRadiusError:
        norm_val = math.nan
    return BoundaryReport(
        radius=radius,
        g_min=float(np.min(gv)),
        g_max=float(np.max(gv)),
        gprime_min=float(np.min(gpv)),
        gprime_max=float(np.max(gpv)),
        norm_value=norm_val,
        samples=CIRCLE_SAMPLES,
    )
