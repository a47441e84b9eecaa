"""Iterated rotation-number refinement driving the radius to a target.

The driver walks a decreasing schedule of radius targets

    rho_n = rho_infinity + G * (D + 1 - n) / (D + 1),   n = 1 .. D,

with rho_infinity = rho_hat(alpha_0) - G (G = DEFAULT_DROP unless
rho_infinity is given), and at each step replaces the rotation number by a
nearby one whose coefficient estimate of the radius sits on the schedule.
One candidate check, _check_anchor, decides each anchor p/q a step tries,
in this order: the search for the target near p/q; nesting of the
intervals; the norm budget delta * 2^-(n-1) on consecutive Siegel series
in the derivative norm (order NORM_ORDER, CIRCLE_SAMPLES points) at the
limiting radius; the flank scan (FLANK_SAMPLES per side, one batched
rho_coefficients call) strictly below the previous level, since one-sided
continuity has teeth only on an interval, with probes that are distinct
floats; and that worst reading within tol_rho of the dip law (below) at
twice the offset.  It returns the step or the first failed check's reason;
when a step's anchors all fail, the run stalls with every reason.  Only the
coefficient estimator is read; rho_radial stays an independent oracle.

Candidates live on a rational anchor's dip: for p/q close to alpha_n the
estimated radius follows the dip law rho_hat = L + (1/q) * log|alpha - p/q|,
a straight line in t = log|alpha - p/q| (measured at q = 34: L stays within
1e-3 of -0.844 for offsets from 3e-5 down to 1e-8, on both sides).  So each
step aims, in one call find_alpha_with_rho(family, target, p, q, est_n):
the ends are the anchor, which reads -infinity unsolved (q < n puts its
resonance inside the series, where the small-divisor guard trips), and
alpha_n, whose estimate est_n the previous step already holds, on
whichever side of p/q it lies.  The first probe sits where the law, read
off est_n, puts the target; further probes take Illinois secant steps in
t, or bisection steps where a secant cannot be trusted.  The call returns
the accepted probe's estimate, which is alpha_{n+1} with its series, and
usually lands within tol_rho in one or two single-row estimates.
Anchor choice trades three pressures: the dip must stay resolvable in
binary64 (q * final_dip <= ~30, or the offset from p/q underflows), the
resonant spike index q+1 must sit low enough for the coefficient window to
see it, and the flank bump at twice the offset (ln 2 / q) must stay inside
the step gap.  A single anchor that is feasible for the *whole* schedule
is preferred, because every alpha_n then keeps p/q among its convergents
and the intervals nest around the common anchor for free; a step tries at
most RETRY_BUDGET anchors.  At the defaults (G = 0.75, q = 34 for the
golden mean) every step takes 21/34 and the run certifies to depth 5; at
depth 6, step 6 stalls on the norm budget (21/34's delta exceeds
delta * 2^-5, and no other anchor nests), long before the offsets reach
float resolution.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BracketFailureError,
    CoefficientOverflowError,
    ConstructionStallError,
    DivisorBreakdownError,
    NumericalError,
    PreconditionError,
    SiegelnumError,
    UnreliableRadiusError,
    check_count,
    outcome,
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
# offsets below this many float-gaps are unresolvable when ranking anchors;
# not a search floor: a crossing may sit closer to its anchor than this
MIN_OFFSET_EPS = 200.0
DEFAULT_DROP = 0.75  # rho0 - rho_infinity when rho_infinity is not given
NORM_ORDER = 1  # derivative order cap of the step and total norm deltas
CIRCLE_SAMPLES = 512  # circle points of every norm and of the boundary report
FLANK_SAMPLES = 16  # flank probes per side of each candidate
RETRY_BUDGET = 8  # anchors tried per step
MAX_ITER = 80  # probes of the log-offset bracket per anchor
# the estimate errors that mean "no disc", so rho = -infinity: a resonance,
# or a radius too small for binary64
NO_DISC = (DivisorBreakdownError, CoefficientOverflowError)


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
        if not isinstance(self.alpha0, RotationNumber):
            raise PreconditionError(f"alpha0 must be a RotationNumber, got {type(self.alpha0).__name__}")
        object.__setattr__(self, "depth", check_count(self.depth, "depth", 1))
        object.__setattr__(self, "n_series", check_count(self.n_series, "series degree", 64))
        if not all(0 < x < math.inf for x in (self.delta, self.eps0, self.tol_rho)):
            raise PreconditionError("delta, eps0 and tol_rho must be positive and finite")
        # r_infinity = e^rho_infinity is the radius of every norm: it must be positive
        if self.rho_infinity is not None and not (
                math.isfinite(self.rho_infinity) and math.exp(min(self.rho_infinity, 0.0)) > 0):
            raise PreconditionError(
                f"rho_infinity must be finite, with e^rho_infinity > 0, got {self.rho_infinity}")
        if self.schedule is not None:
            try:
                vals = tuple(float(v) for v in self.schedule)
            except (TypeError, ValueError):
                raise PreconditionError("schedule must be a sequence of numbers") from None
            if not all(map(math.isfinite, vals)):
                raise PreconditionError(f"schedule targets must be finite, got {vals}")
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
    retries: int

    def describe(self) -> dict:
        out = asdict(self)
        anchor = f"{out.pop('anchor_p')}/{out.pop('anchor_q')}"
        return {"n": out.pop("n"), "alpha": out.pop("alpha"), "anchor": anchor, **out}


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


def _effective_value(est: RadiusEstimate | SiegelnumError) -> float:
    """The effective value of a coefficient estimate's outcome: its rho_hat,
    or -infinity for a NO_DISC error, where the dip is bottomless.  Any
    other package error, such as an estimate above the Koebe cap, is
    raised."""
    if isinstance(est, NO_DISC):
        return -math.inf
    if isinstance(est, SiegelnumError):
        raise est
    return est.rho_hat


def find_alpha_with_rho(
    family: FamilySpec,
    target_rho: float,
    p: int,
    q: int,
    above: RadiusEstimate,
    tol_rho: float = 0.02,
    n: int = 256,
) -> RadiusEstimate:
    """Search t = log|alpha - p/q| between the anchor p/q and the held
    degree-n estimate above, whose alpha may lie on either side of p/q, for
    alpha with a coefficient estimate within tol_rho of target_rho, in at
    most MAX_ITER single-row estimates.  Returns that probe's estimate.

    The anchor reads -infinity and is never estimated: p and q are integers
    >= 1, and q < n puts the resonance at degree q + 1 inside the series,
    where exact phases make the small-divisor guard trip.  The target must
    be finite, and above must read above it.

    Near the anchor the estimate is linear in t with slope 1/q (the dip
    law).  So while the bracket has no finite below reading, each probe
    aims along that slope from a fresh above reading; once both ends read
    finite values, it takes an Illinois secant step between them.  A step
    that would leave the bracket or follows a -infinity reading is a
    bisection step: the geometric mean of the ends' distances from p/q,
    where p/q itself counts as one ulp.  Each end's t is the log of its
    realized float distance.  The search needs only the intermediate-value
    property, which the estimate has by continuity away from breakdown
    points; the landscape is not monotone (other rationals dent it), so
    the result is *a* crossing, not the closest one to either end.
    """
    p, q = check_count(p, "p", 1), check_count(q, "q", 1)
    if not q < n:
        raise PreconditionError(f"anchor denominator must satisfy 0 < q < n = {n}, got q = {q}")
    if not math.isfinite(target_rho):
        raise PreconditionError(f"target_rho must be finite, got {target_rho}")
    anchor, hi = p / q, above.alpha.value
    if anchor == hi:
        raise PreconditionError("bracket ends must differ")
    if not 0 < tol_rho < math.inf:
        raise PreconditionError(f"tol_rho must be positive and finite, got {tol_rho}")
    if not above.rho_hat > target_rho:
        raise BracketFailureError(
            f"above end estimates {above.rho_hat:.4f}, not above target {target_rho:.4f}"
        )
    side, lo = math.copysign(1.0, hi - anchor), anchor
    t_lo, t_hi = math.log(math.ulp(anchor)), math.log(abs(hi - anchor))
    # the ends' readings less the target; the anchor is no secant end
    f_lo, f_hi = -math.inf, above.rho_hat - target_rho
    moved = 1  # the end the last probe replaced: the law aims from a fresh above end
    for _ in range(MAX_ITER):
        if f_lo > -math.inf:
            t = t_lo - f_lo * (t_hi - t_lo) / (f_hi - f_lo)
        else:
            t = t_hi - q * f_hi if moved > 0 else math.nan
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
        mid = anchor + side * math.exp(t)
        if mid in (lo, hi):
            raise BracketFailureError("bracket exhausted float resolution")
        est = outcome(rho_coefficient, family, mid, n)
        val = _effective_value(est)
        if abs(val - target_rho) <= tol_rho:  # false at -infinity
            return est
        t, f = math.log(abs(mid - anchor)), val - target_rho
        if f < 0:
            if moved < 0:  # Illinois: an end kept twice in a row has its reading halved
                f_hi *= 0.5
            lo, t_lo, f_lo, moved = mid, t, f, -1
        else:
            if moved > 0:
                f_lo *= 0.5
            hi, t_hi, f_hi, moved = mid, t, f, 1
    raise BracketFailureError(f"no crossing within {MAX_ITER} probes")


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


def _check_anchor(family: FamilySpec, cfg: ConstructionConfig, p: int, q: int, target: float,
                  est_n: RadiusEstimate, eps_n: float, level: float, budget: float,
                  r_inf: float) -> tuple[RadiusEstimate, dict] | str:
    """Every check the anchor p/q must pass for one step from est_n, in
    order: the log-offset search for the target, nesting in alpha_n's
    interval eps_n, the norm budget at r_inf, the flank scan's float
    resolution, its worst reading below level, and that reading on the dip
    law at twice the offset.  Returns the accepted estimate with its
    StepReport fields, or the first failed check's reason."""
    try:
        est_c = find_alpha_with_rho(family, target, p, q, est_n, cfg.tol_rho, cfg.n_series)
    except BracketFailureError as exc:
        return str(exc)
    alpha_c, alpha_n = est_c.alpha.value, est_n.alpha.value
    eps_c = abs(alpha_c - p / q)
    if abs(alpha_c - alpha_n) + eps_c > eps_n:
        return "interval does not nest"
    try:
        delta_norm = qa_norm(est_n.series.g - est_c.series.g, r_inf,
                             order_cap=NORM_ORDER, circle_samples=CIRCLE_SAMPLES).value
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"
    if delta_norm > budget:
        return f"norm delta {delta_norm:.3e} > {budget:.3e}"
    # flank scan: every probe in one batched estimate, each a distinct float
    flanks = (alpha_c + sgn * j * eps_c / FLANK_SAMPLES
              for j in range(1, FLANK_SAMPLES + 1) for sgn in (1.0, -1.0))
    flanks = [b for b in flanks if 0.0 < b < 1.0]
    if len({alpha_c, *flanks}) <= len(flanks):
        return "flank scan below float resolution"
    worst = max(map(_effective_value, rho_coefficients(family, flanks, cfg.n_series)),
                default=-math.inf)
    if not worst < level:
        return f"flank reaches {worst:.4f}, not below {level:.4f}"
    # the worst flank sits near twice the offset, where the dip law reads ln 2 / q higher
    law = est_c.rho_hat + math.log(2.0) / q
    if not abs(worst - law) <= cfg.tol_rho:
        return f"flank reads {worst:.4f}, off the dip law's {law:.4f}"
    return est_c, dict(alpha=alpha_c, achieved_rho=est_c.rho_hat, eps=eps_c, norm_delta=delta_norm,
                       flank_worst=worst)


def run_construction(cfg: ConstructionConfig) -> ConstructionReport:
    """Run the full schedule; raise ConstructionStallError (with the partial
    report attached) if some step's anchors all fail _check_anchor.  An
    estimate error other than NO_DISC is raised, and so is any error of
    alpha0's: a rational alpha0 is a DivisorBreakdownError."""
    t_start = time.perf_counter()
    family = get_family(cfg.family)
    est0 = rho_coefficient(family, cfg.alpha0, cfg.n_series)
    if not est0.converged:
        raise PreconditionError(
            "base rotation number must have a converged, finite radius estimate"
        )
    rho0 = est0.rho_hat
    rho_inf, targets = _schedule(rho0, cfg)
    r_inf = math.exp(rho_inf)

    # the state of step n: alpha_n and g_n are est_n.alpha.value and est_n.series.g
    est_n, eps_n, levelrho_n = est0, cfg.eps0, rho0
    steps: list[StepReport] = []

    def report() -> ConstructionReport:  # of the steps made so far
        try:
            total = qa_norm(est0.series.g - est_n.series.g, r_inf, order_cap=NORM_ORDER,
                            circle_samples=CIRCLE_SAMPLES).value
        except UnreliableRadiusError:
            total = math.nan
        return ConstructionReport(
            family=cfg.family,
            alpha0=cfg.alpha0.value,
            rho0=rho0,
            rho_infinity=rho_inf,
            r_infinity=r_inf,
            schedule=tuple(targets),
            steps=tuple(steps),
            final_alpha=est_n.alpha.value,
            total_distance=total,
            boundary=boundary_report(est_n.series.g, r_inf),
            wall_time=time.perf_counter() - t_start,
        )

    for n, target in enumerate(targets, start=1):
        budget = cfg.delta * 2.0 ** (-(n - 1))
        ladder = _anchor_ladder(est_n.alpha.value, cfg.n_series, rho0 - targets[-1])
        reasons = []
        for retries, (p, q) in enumerate(ladder[:RETRY_BUDGET]):
            checked = _check_anchor(family, cfg, p, q, target, est_n, eps_n, levelrho_n, budget, r_inf)
            if not isinstance(checked, str):
                break
            reasons.append(f"{p}/{q}: {checked}")
        else:  # the ladder ran out: the run stalls at step n
            raise ConstructionStallError(
                f"step {n}: no anchor produced an acceptable candidate: " + "; ".join(reasons),
                partial_report=report(),
            )
        est_c, fields = checked
        steps.append(StepReport(n=n, anchor_p=p, anchor_q=q, target_rho=target, norm_budget=budget,
                                flank_level=levelrho_n, retries=retries, **fields))
        est_n, eps_n, levelrho_n = est_c, fields["eps"], target
    return report()


def boundary_report(g, radius: float) -> BoundaryReport:
    """Geometry of the disc image at |w| = radius: range of |g| and |g'|
    over CIRCLE_SAMPLES points of the circle, plus the derivative norm
    there, all from one circle table (g is normalized, g'(0) = 1).
    gprime_min > 0 is necessary for g to be injective on the disc, not
    sufficient: z + z^2 at radius 1 reads gprime_min = 1 and maps both
    e^(+-2 pi i/3) to -1."""
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
