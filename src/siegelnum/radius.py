"""Conformal-radius estimators, rotation numbers, and harmonic diagnostics.

The quantity of interest is rho(alpha) = log of the conformal radius of the
Siegel disc at rotation number alpha, obtained two independent ways:

* radially — u(r e^{2 pi i alpha}) for r climbing the dyadic ladder
  1 - 2^{-k}; u has radial limits almost everywhere and the limit is rho;
* from coefficients — the Siegel series g_alpha converges exactly on the
  disc of radius e^rho, so the decay exponent of |g_k| is -rho.

Rational alpha have rho = -infinity; on a rational ray u drops without
bound, and the measured rate is (log 2)/q per dyadic step for denominator q
(matching the local model u ~ (1/q) log(1 - r) + const).  The divergence
detector therefore fires on a sustained per-step drop of DIVERGENCE_DROP,
set to 0.1: denominators q <= 6 decay at 0.116/step or faster, while
convergent scans plateau at |drop| < 0.005 well before the default depth.
Denominators beyond 6 are indistinguishable from slow convergence on the
dyadic ladder at these depths; that horizon is documented, not hidden.

The coefficient estimator fits log|g_k| against k by least squares over the
tail window [N/2, N] and negates the slope.  A window *maximum* of
log|g_k|/k also converges to -rho but carries an O(1/k) bias from the
constant prefactor (measured ~0.07 at N = 128 on the quadratic family at
the golden mean — large enough to break cross-estimator agreement); the
fitted slope cancels the prefactor and agrees with depth-14 radial scans
to ~0.02 at N = 128.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CoefficientOverflowError,
    DivisorBreakdownError,
    EntryRadiusError,
    EstimateUnavailableError,
    NoConvergenceError,
    NumericalError,
    PoleError,
    PreconditionError,
    SiegelnumError,
)
from .families import FamilySpec
from .linearize import SiegelSeries, siegel_series, siegel_series_many, u_values

__all__ = [
    "RotationNumber",
    "RadiusEstimate",
    "HarmonicCheckReport",
    "PoissonBoundReport",
    "rotation_from_cf",
    "rotation_from_float",
    "rational_rotation",
    "golden_rotation",
    "silver_rotation",
    "parse_rotation",
    "cf_expand",
    "cf_convergents",
    "rho_radial",
    "rho_coefficient",
    "rho_coefficients",
    "koebe_cap_log",
    "harmonic_check",
    "harmonic_measure",
    "poisson_bound_check",
    "PLATEAU_TOL",
    "DIVERGENCE_DROP",
]

PLATEAU_TOL = 0.02
DIVERGENCE_DROP = 0.1
SLOPE_STABILITY_TOL = 0.1
M_SLACK = 0.1
RAY_BUDGET = 2 * 10**6  # orbit iterations per lambda of a ray scan
RAY_MAX_DEPTH = 12.0  # dyadic depth of the outermost poisson_bound_check radius
HARMONIC_R_LO, HARMONIC_R_HI = 0.1, 0.8  # annulus of the harmonic_check grid
HARMONIC_CIRCLE_POINTS = 4  # ring points per harmonic_check node


# -- rotation numbers ---------------------------------------------------------


@dataclass(frozen=True)
class RotationNumber:
    """A rotation number in (0,1), remembering how it was given.

    tag is one of golden, rational, float, cf; p/q are set only for the
    rational tag (reduced).  Exact rationals matter: they must reach the
    small-divisor guard exactly rather than as a nearby float.
    """

    value: float
    tag: str
    cf: tuple[int, ...] | None = None
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise PreconditionError(f"rotation number must lie in (0,1), got {self.value}")

    @property
    def is_rational(self) -> bool:
        return self.tag == "rational"

    def describe(self) -> dict:
        out = {"value": self.value, "tag": self.tag}
        if self.cf is not None:
            out["cf"] = list(self.cf)
        if self.is_rational:
            out["p"], out["q"] = self.p, self.q
        return out


def rotation_from_cf(coeffs) -> RotationNumber:
    """[0; a1, a2, ...] as a RotationNumber; terminating lists are rational."""
    coeffs = tuple(int(a) for a in coeffs)
    if not coeffs:
        raise PreconditionError("continued fraction needs at least one partial quotient")
    if any(a < 1 for a in coeffs):
        raise PreconditionError("partial quotients must be positive integers")
    frac = Fraction(0)
    for a in reversed(coeffs):
        frac = Fraction(1, a + frac)
    value = float(frac)
    # a short finite list is exactly rational; long lists are float-precision
    # stand-ins for an infinite expansion and keep the cf tag
    if len(coeffs) < 30 and frac.denominator <= 10**15:
        return RotationNumber(value, "rational", cf=coeffs,
                              p=frac.numerator, q=frac.denominator)
    return RotationNumber(value, "cf", cf=coeffs)


def rational_rotation(p: int, q: int) -> RotationNumber:
    if q <= 0 or not 0 < p < q:
        raise PreconditionError("need 0 < p < q")
    frac = Fraction(p, q)
    return RotationNumber(float(frac), "rational", p=frac.numerator, q=frac.denominator)


def rotation_from_float(value: float) -> RotationNumber:
    return RotationNumber(float(value), "float")


def golden_rotation() -> RotationNumber:
    return RotationNumber((math.sqrt(5.0) - 1.0) / 2.0, "golden", cf=(1,) * 40)


def silver_rotation() -> RotationNumber:
    return RotationNumber(math.sqrt(2.0) - 1.0, "cf", cf=(2,) * 40)


def parse_rotation(text: str) -> RotationNumber:
    """CLI syntax: float:X | cf:a1,a2,... | rat:P/Q | golden | silver."""
    if text == "golden":
        return golden_rotation()
    if text == "silver":
        return silver_rotation()
    if text.startswith("float:"):
        return rotation_from_float(float(text[6:]))
    if text.startswith("cf:"):
        return rotation_from_cf([int(s) for s in text[3:].split(",") if s])
    if text.startswith("rat:"):
        p, _, q = text[4:].partition("/")
        return rational_rotation(int(p), int(q))
    raise PreconditionError(
        f"bad rotation syntax {text!r}; use float:X, cf:a1,a2,..., rat:P/Q, golden, silver"
    )


def cf_expand(value: float, terms: int = 20) -> list[int]:
    """Leading partial quotients of value in (0,1) (float-accuracy only)."""
    out = []
    x = float(value)
    for _ in range(terms):
        if x <= 0:
            break
        x = 1.0 / x
        a = int(x)
        if a < 1:
            break
        out.append(a)
        x -= a
        if x < 1e-12:
            break
    return out


def cf_convergents(coeffs) -> list[tuple[int, int]]:
    """Convergents p_k/q_k of [0; a1, a2, ...]."""
    ps, qs = [1, 0], [0, 1]
    out = []
    for a in coeffs:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
        out.append((ps[-1], qs[-1]))
    return out


def _as_rotation(alpha) -> RotationNumber:
    if isinstance(alpha, RotationNumber):
        return alpha
    return rotation_from_float(float(alpha))


# -- radius estimates ---------------------------------------------------------


@dataclass(frozen=True)
class RadiusEstimate:
    alpha: RotationNumber
    method: str
    rho_hat: float | None  # None exactly when diverging_to_minus_infinity
    samples: tuple
    converged: bool
    diverging_to_minus_infinity: bool
    failures: tuple = ()
    # the fitted Siegel series (coefficient method only); kept out of the
    # repr, of equality and of describe()
    series: SiegelSeries | None = field(default=None, repr=False, compare=False)

    @property
    def effective_rho(self) -> float:
        """rho_hat with the divergence flag folded in as -inf, for ordering."""
        return -math.inf if self.diverging_to_minus_infinity else self.rho_hat

    def describe(self) -> dict:
        return {
            "alpha": self.alpha.describe(),
            "method": self.method,
            "rho_hat": self.rho_hat,
            "converged": self.converged,
            "diverging_to_minus_infinity": self.diverging_to_minus_infinity,
            "samples": [[float(a), float(b)] for a, b in self.samples],
            "failures": list(self.failures),
        }


def koebe_cap_log(family: FamilySpec) -> float:
    """M = log 4 + log|v|: the a-priori upper bound for u and rho."""
    return math.log(4.0) + math.log(abs(family.v))


def _check_cap(rho: float | None, family: FamilySpec, what: str):
    if rho is not None and rho > koebe_cap_log(family) + M_SLACK:
        raise NumericalError(
            f"{what} produced rho_hat = {rho:.4f} above the Koebe cap "
            f"M + {M_SLACK} = {koebe_cap_log(family) + M_SLACK:.4f}"
        )


def rho_radial(
    family: FamilySpec,
    alpha,
    depth: int = 12,
    n: int = 128,
) -> RadiusEstimate:
    """Radial-limit estimate: u at r_k = 1 - 2^{-k}, k = 2..depth.

    rho_hat is the deepest reliable sample.  converged means the last two
    samples differ by at most PLATEAU_TOL.  The diverging flag requires the
    final three consecutive steps to each drop by at least DIVERGENCE_DROP
    (see the module docstring for the calibration); a diverging estimate
    carries rho_hat = None, never a sentinel float.  Individual depths may
    fail (iteration budget, entry radius, orbit escape, divisor breakdown,
    Koenigs overflow, pole) and are recorded; flags are read off the
    trailing run of consecutive successes.  Any other error yoccoz_w raises
    for a depth, such as a Koebe-bound violation, is raised here too.
    """
    if depth < 4:
        raise PreconditionError("radial scan needs depth >= 4")
    rot = _as_rotation(alpha)
    samples: list[tuple[float, float]] = []
    failures: list[str] = []
    runs: list[list[float]] = [[]]  # u values split into consecutive-k runs
    ladder = [1.0 - 2.0**-k for k in range(2, depth + 1)]
    turn = cmath.exp(2j * math.pi * rot.value)
    values = u_values(family, [r * turn for r in ladder], n, RAY_BUDGET)
    for k, r, value in zip(range(2, depth + 1), ladder, values):
        if isinstance(value, (NoConvergenceError, EntryRadiusError, DivisorBreakdownError,
                              CoefficientOverflowError, PoleError)):
            failures.append(f"depth {k}: {type(value).__name__}: {value}")
            if runs[-1]:
                runs.append([])
            continue
        if isinstance(value, SiegelnumError):
            raise value
        samples.append((r, value.u))
        runs[-1].append(value.u)
    if not samples:
        raise EstimateUnavailableError(
            f"no radial sample succeeded to depth {depth}: {failures}"
        )
    # flags read off the deepest uninterrupted run; when the scan was cut
    # short by failures that is the run just before the cut
    trailing = next(run for run in reversed(runs) if run)
    diffs = [b - a for a, b in zip(trailing, trailing[1:])]
    converged = len(trailing) >= 2 and abs(diffs[-1]) <= PLATEAU_TOL
    diverging = len(diffs) >= 3 and all(d <= -DIVERGENCE_DROP for d in diffs[-3:])
    rho_hat = None if diverging else samples[-1][1]
    _check_cap(rho_hat, family, "rho_radial")
    return RadiusEstimate(
        alpha=rot,
        method="radial",
        rho_hat=rho_hat,
        samples=tuple(samples),
        converged=converged and not diverging,
        diverging_to_minus_infinity=diverging,
        failures=tuple(failures),
    )


def rho_coefficient(family: FamilySpec, alpha, n: int = 128) -> RadiusEstimate:
    """Root-test estimate from Siegel coefficients: -d log|g_k| / dk.

    Least-squares fit of log|g_k| against k over the window [N/2, N]
    (zero coefficients excluded — symmetric families have none at even
    index).  converged requires the slopes fitted on the two half-windows
    to agree within SLOPE_STABILITY_TOL.  A small-divisor breakdown
    propagates: that is the honest signal for effectively rational alpha.
    The estimate keeps the fitted SiegelSeries as ``series``.
    """
    _check_fit_degree(n)
    rot = _as_rotation(alpha)
    # DivisorBreakdownError propagates
    return _coefficient_estimate(family, rot, siegel_series(family, rot.value, n))


def rho_coefficients(family: FamilySpec, alphas, n: int = 128) -> list[RadiusEstimate | SiegelnumError]:
    """rho_coefficient at many rotation numbers, from one batched Siegel solve.

    Returns, in input order, one outcome per alpha: its RadiusEstimate, or
    the SiegelnumError that rho_coefficient raises for it (not raised
    here).  A degree below 32 is a PreconditionError, raised for the whole
    call.
    """
    _check_fit_degree(n)
    outcomes: list = []
    for alpha in alphas:
        try:
            outcomes.append(_as_rotation(alpha))
        except PreconditionError as exc:
            outcomes.append(exc)
    todo = [i for i, rot in enumerate(outcomes) if isinstance(rot, RotationNumber)]
    for i, out in zip(todo, siegel_series_many(family, [outcomes[i].value for i in todo], n)):
        if isinstance(out, SiegelSeries):
            try:
                out = _coefficient_estimate(family, outcomes[i], out)
            except SiegelnumError as exc:
                out = exc
        outcomes[i] = out
    return outcomes


def _check_fit_degree(n: int) -> None:
    if n < 32:
        raise PreconditionError("coefficient estimate needs degree >= 32")


def _coefficient_estimate(family: FamilySpec, rot: RotationNumber, ss: SiegelSeries) -> RadiusEstimate:
    """The fit of rho_coefficient on the solved series ss of rot."""
    n = ss.g.degree
    mags = np.abs(ss.g.coeffs)
    idx = np.arange(n // 2, n + 1)
    keep = mags[idx] > 0.0
    ks = idx[keep].astype(np.float64)
    ys = np.log(mags[idx][keep].astype(np.float64))
    if ks.size < 8:
        raise EstimateUnavailableError("tail window has too few nonzero coefficients")
    slope = float(np.polyfit(ks, ys, 1)[0])
    mid = ks.size // 2
    s1 = float(np.polyfit(ks[:mid], ys[:mid], 1)[0])
    s2 = float(np.polyfit(ks[mid:], ys[mid:], 1)[0])
    rho_hat = -slope
    _check_cap(rho_hat, family, "rho_coefficient")
    return RadiusEstimate(
        alpha=rot,
        method="coefficient",
        rho_hat=rho_hat,
        samples=tuple(zip(ks.tolist(), ys.tolist())),
        converged=abs(s1 - s2) <= SLOPE_STABILITY_TOL,
        diverging_to_minus_infinity=False,
        series=ss,
    )


# -- harmonic diagnostics -----------------------------------------------------


@dataclass(frozen=True)
class HarmonicCheckReport:
    max_deviation: float
    nodes_checked: int
    masked: int
    grid_step: float


def harmonic_check(field, nodes: int = 64) -> HarmonicCheckReport:
    """Mean-value-property deviation of a scalar field over an annulus grid.

    ``field`` maps a 1-d complex array of lambda to a real array of the
    same shape, and is called once with every point of a ``nodes`` x
    ``nodes`` polar grid over HARMONIC_R_LO <= |lambda| <= HARMONIC_R_HI
    and of the rings around it.  At each interior node the field's value is
    compared with its average over HARMONIC_CIRCLE_POINTS = P equispaced
    points on the Euclidean circle of radius one radial grid step; the
    circle average annihilates every harmonic polynomial of degree < P
    exactly, so a harmonic field deviates by O(h^P) and an affine field by
    rounding only.  A non-finite value marks a failed evaluation: nodes
    whose centre or ring holds one are masked and counted.
    """
    if nodes < 8:
        raise PreconditionError("grid needs at least 8 nodes per axis")
    rs = np.linspace(HARMONIC_R_LO, HARMONIC_R_HI, nodes)
    thetas = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    h = float(rs[1] - rs[0])
    centers = (rs[1:-1, None] * np.exp(1j * thetas)).reshape(-1, 1)
    offsets = h * np.exp(2j * math.pi * np.arange(HARMONIC_CIRCLE_POINTS) / HARMONIC_CIRCLE_POINTS)
    points = np.hstack([centers, centers + offsets])  # column 0 is the centre
    values = np.asarray(field(points.ravel()), dtype=np.float64).reshape(points.shape)
    ok = np.isfinite(values).all(axis=1)
    checked = int(ok.sum())
    masked = ok.size - checked
    if checked == 0:
        raise EstimateUnavailableError("every grid node masked; nothing to check")
    worst = float(np.max(np.abs(values[ok, 1:].mean(axis=1) - values[ok, 0])))
    return HarmonicCheckReport(max_deviation=worst, nodes_checked=checked, masked=masked, grid_step=h)


def harmonic_measure(t_lo: float, t_hi: float, z: complex) -> float:
    """Harmonic measure at z (|z| < 1) of the boundary arc t in [t_lo, t_hi].

    Arc endpoints are rotation numbers (fractions of a turn); the arc runs
    counterclockwise from e^{2 pi i t_lo} to e^{2 pi i t_hi} and must span
    at most one full turn.  Uses the closed-form antiderivative of the
    Poisson kernel: the cumulative measure of [0, x] (radians, seen from
    z = r e^{i phi}) is T(x - phi) - T(-phi) with
    T(x) = (1/pi) * atan2((1+r) sin(x/2), (1-r) cos(x/2)),
    extended by T(x + 2 pi k) = T(x) + k.
    """
    if not t_lo <= t_hi <= t_lo + 1.0 + 1e-15:
        raise PreconditionError("arc must run forward and span at most one turn")
    r = abs(z)
    if r >= 1.0:
        raise PreconditionError("harmonic measure needs an interior point")
    phi = cmath.phase(z) if z != 0 else 0.0

    def t_ext(x: float) -> float:
        k = math.floor((x + math.pi) / (2.0 * math.pi))
        xr = x - 2.0 * math.pi * k
        return k + math.atan2((1.0 + r) * math.sin(xr / 2.0), (1.0 - r) * math.cos(xr / 2.0)) / math.pi

    a = 2.0 * math.pi * t_lo - phi
    b = 2.0 * math.pi * t_hi - phi
    return t_ext(b) - t_ext(a)


@dataclass(frozen=True)
class PoissonBoundReport:
    alpha: float
    delta: float
    L: float
    R: float
    M: float
    limit_value: float
    violations: int
    min_margin: float
    masked: int
    samples: tuple  # (r, u, u_eps, margin)

    def describe(self) -> dict:
        return asdict(self)


def poisson_step_value(alpha: float, delta: float, L: float, R: float, M: float, z: complex) -> float:
    """Poisson integral at z of step boundary data: L on the arc
    (alpha - delta, alpha), R on (alpha, alpha + delta), M elsewhere."""
    w_left = harmonic_measure(alpha - delta, alpha, z)
    w_right = harmonic_measure(alpha, alpha + delta, z)
    return M * (1.0 - w_left - w_right) + L * w_left + R * w_right


def poisson_bound_check(
    family: FamilySpec,
    alpha: float,
    delta: float,
    L: float,
    R: float,
    ray_samples: int = 16,
    n: int = 128,
) -> PoissonBoundReport:
    """Verify u <= Poisson integral of the flank-capped step data on the ray.

    L and R cap rho on (alpha - delta, alpha) and (alpha, alpha + delta);
    the cap elsewhere is M = log 4 + log|v|.  The two arcs must not
    overlap, so 0 < delta <= 1/2 (beyond it the weight of M goes negative).
    Radii approach the circle on the dyadic ladder (depth 2 up to
    RAY_MAX_DEPTH, ray_samples >= 1 values).  A violation means the supplied
    caps were not actually valid; violations are counted and reported,
    never raised.  Ray samples where yoccoz_w raises a package error are
    masked and counted; other errors propagate.
    """
    if not 0 < delta <= 0.5:
        raise PreconditionError(f"delta must lie in (0, 1/2], got {delta}")
    if ray_samples < 1:
        raise PreconditionError(f"need at least 1 ray sample, got {ray_samples}")
    rot = _as_rotation(alpha)
    m_cap = koebe_cap_log(family)
    rows = []
    masked = 0
    violations = 0
    min_margin = math.inf
    radii = [
        1.0 - 2.0 ** -(2.0 + (RAY_MAX_DEPTH - 2.0) * j / max(1, ray_samples - 1))
        for j in range(ray_samples)
    ]
    turn = cmath.exp(2j * math.pi * rot.value)
    lams = [r * turn for r in radii]
    for r, lam, value in zip(radii, lams, u_values(family, lams, n, RAY_BUDGET)):
        if isinstance(value, SiegelnumError):
            masked += 1
            continue
        u = value.u
        u_eps = poisson_step_value(rot.value, delta, L, R, m_cap, lam)
        margin = u_eps - u
        min_margin = min(min_margin, margin)
        if margin < 0:
            violations += 1
        rows.append((r, u, u_eps, margin))
    if not rows:
        raise EstimateUnavailableError("every ray sample failed")
    return PoissonBoundReport(
        alpha=rot.value, delta=delta, L=L, R=R, M=m_cap,
        limit_value=0.5 * (L + R),
        samples=tuple(rows), violations=violations,
        min_margin=min_margin, masked=masked,
    )
