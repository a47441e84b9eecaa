"""Conformal-radius estimators, rotation numbers, and harmonic diagnostics.

The quantity of interest is rho(alpha) = log of the conformal radius of the
Siegel disc at rotation number alpha, obtained two independent ways:

* radially — u(r e^{2 pi i alpha}) for r climbing the dyadic ladder
  1 - 2^{-k}; u has radial limits almost everywhere and the limit is rho;
* from coefficients — the Siegel series g_alpha converges exactly on the
  disc of radius e^rho, so the decay exponent of |g_k| is -rho.

Rational alpha have rho = -infinity, read off the input
(RotationNumber.is_rational), never off the numbers: by rho_radial, as a
ray at p/q drops only about (log 2)/q per dyadic step, which for q beyond
6 the ladder's depths cannot tell from slow convergence, and by the Siegel
solve's divisor guard, as a degree-n series does not see a resonance
k = q + 1 beyond n.  A float is never rational, however close to p/q.

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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CoefficientOverflowError,
    EntryRadiusError,
    EstimateUnavailableError,
    NoConvergenceError,
    NumericalError,
    PoleError,
    PreconditionError,
    SiegelnumError,
    check_count,
    outcome,
    single,
)
from .families import FamilySpec
from .linearize import (
    SIEGEL_EDGE, SiegelSeries, koebe_cap_log, siegel_series, siegel_series_many, u_values,
)

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
    "harmonic_check",
    "harmonic_measure",
    "poisson_bound_check",
    "poisson_step_value",
    "PLATEAU_TOL",
]

PLATEAU_TOL = 0.02
SLOPE_STABILITY_TOL = 0.1
M_SLACK = 0.1
RAY_BUDGET = 2 * 10**6  # orbit iterations per lambda of a ray scan
RAY_MAX_DEPTH = 12.0  # dyadic depth of the outermost poisson_bound_check radius
# deepest radial scan: past it, 1 - 2^-depth lies within SIEGEL_EDGE of the circle (49)
RADIAL_DEPTH_CAP = int(-math.log2(SIEGEL_EDGE))
HARMONIC_R_LO, HARMONIC_R_HI = 0.1, 0.8  # annulus of the harmonic_check grid
HARMONIC_CIRCLE_POINTS = 4  # ring points per harmonic_check node
# the ray-sample failures that the ray scans skip; any other is raised
MISSING_SAMPLE = (NoConvergenceError, EntryRadiusError, CoefficientOverflowError, PoleError)


# -- rotation numbers ---------------------------------------------------------


@dataclass(frozen=True)
class RotationNumber:
    """A rotation number in (0,1), remembering how it was given.

    tag is one of golden, rational, float, cf; p/q are set only for the
    rational tag (reduced), and value is the nearest float.  rho_radial
    and the Siegel solve's divisor guard read is_rational: an exact p/q
    reads rho = -inf and has no Siegel series.
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
    """[0; a1, a2, ...] as a RotationNumber; terminating lists are rational.
    Each partial quotient is an integer >= 1 (check_count)."""
    coeffs = tuple(check_count(a, "partial quotient", 1) for a in coeffs)
    if not coeffs:
        raise PreconditionError("continued fraction needs at least one partial quotient")
    p, q = cf_convergents(coeffs)[-1]  # in lowest terms
    # a short finite list is exactly rational; long lists are float-precision
    # stand-ins for an infinite expansion and keep the cf tag
    if len(coeffs) < 30 and q <= 10**15:
        return RotationNumber(p / q, "rational", cf=coeffs, p=p, q=q)
    return RotationNumber(p / q, "cf", cf=coeffs)


def rational_rotation(p: int, q: int) -> RotationNumber:
    """p/q in lowest terms, for integers 0 < p < q (p >= q leaves (0,1))."""
    frac = Fraction(check_count(p, "p", 1), check_count(q, "q", 2))
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
    try:
        if text.startswith("float:"):
            return rotation_from_float(float(text[6:]))
        if text.startswith("cf:"):
            return rotation_from_cf([int(s) for s in text[3:].split(",") if s])
        if text.startswith("rat:"):
            p, _, q = text[4:].partition("/")
            return rational_rotation(int(p), int(q))
    except PreconditionError:
        raise
    except ValueError:  # a malformed number is bad syntax too
        pass
    raise PreconditionError(
        f"bad rotation syntax {text!r}; use float:X, cf:a1,a2,..., rat:P/Q, golden, silver"
    )


def cf_expand(value: float, terms: int = 20) -> list[int]:
    """Leading partial quotients of value in (0,1), each exact for the
    float, up to a remainder below 1e-12, at most terms >= 1 of them; any
    other value, NaN included, is a PreconditionError."""
    terms = check_count(terms, "terms", 1)
    x = float(value)
    if not 0.0 < x < 1.0:
        raise PreconditionError(f"continued fraction expansion needs a value in (0,1), got {x}")
    num, den = x.as_integer_ratio()  # Euclid on the float's own fraction
    out = []
    for _ in range(terms):
        a, num, den = den // num, den % num, num
        out.append(a)
        if num < 1e-12 * den:
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


@dataclass(frozen=True, eq=False, repr=False)
class _FitSamples(Sequence):
    """A fit's (k, log|g_k|) pairs as read-only views of its arrays, built
    only when read; they compare, hash, print and index as that tuple."""

    ks: np.ndarray
    ys: np.ndarray

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, _FitSamples) else other)

    def __iter__(self): return zip(self.ks.tolist(), self.ys.tolist())
    def __len__(self): return len(self.ks)
    def __getitem__(self, i): return tuple(self)[i]
    def __hash__(self): return hash(tuple(self))
    def __repr__(self): return repr(tuple(self))


@dataclass(frozen=True)
class RadiusEstimate:
    alpha: RotationNumber
    method: str
    rho_hat: float  # -inf (radial only) at an exactly rational alpha: there is no disc
    samples: tuple | _FitSamples  # (r, u) of a ray; (k, log|g_k|) of a fit
    converged: bool
    failures: tuple = ()
    # the fitted Siegel series (coefficient method only); kept out of the
    # repr, of equality and of describe()
    series: SiegelSeries | None = field(default=None, repr=False, compare=False)

    @property
    def diverging_to_minus_infinity(self) -> bool:
        return self.rho_hat == -math.inf

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


def _ray_values(family: FamilySpec, rot: RotationNumber, radii: list, n: int) -> list:
    """u_values on the ray of rot at radii, under the one sample policy of the
    ray scans: a MISSING_SAMPLE error is returned, and any other error of a
    sample (a Koebe-bound violation, a vanishing w) is raised."""
    turn = cmath.exp(2j * math.pi * rot.value)
    values = u_values(family, [r * turn for r in radii], n, RAY_BUDGET)
    for value in values:
        if isinstance(value, SiegelnumError) and not isinstance(value, MISSING_SAMPLE):
            raise value
    return values


def rho_radial(
    family: FamilySpec,
    alpha,
    depth: int = 12,
    n: int = 128,
) -> RadiusEstimate:
    """Radial-limit estimate: u at r_k = 1 - 2^{-k}, k = 2..depth.

    rho_hat is the deepest reliable sample, below M = koebe_cap_log since
    u_values refuses u >= M; at an exactly rational alpha it is -inf, the
    value rho takes there, after the same scan.  converged means the two
    deepest samples sit at consecutive depths and differ by at most
    PLATEAU_TOL, and is never set at a rational.  Individual depths may
    fail (MISSING_SAMPLE: iteration budget, entry radius, orbit escape,
    Koenigs overflow, pole) and are recorded.  Any other error of a depth,
    such as a Koebe-bound violation, is raised (_ray_values).
    """
    depth = check_count(depth, "depth", 4)
    if depth > RADIAL_DEPTH_CAP:
        raise PreconditionError(f"radial scan needs 4 <= depth <= {RADIAL_DEPTH_CAP}, got depth {depth}")
    rot = _as_rotation(alpha)
    samples: list[tuple[float, float]] = []
    depths: list[int] = []
    failures: list[str] = []
    ladder = [1.0 - 2.0**-k for k in range(2, depth + 1)]
    for k, r, value in zip(range(2, depth + 1), ladder, _ray_values(family, rot, ladder, n)):
        if isinstance(value, SiegelnumError):
            failures.append(f"depth {k}: {type(value).__name__}: {value}")
            continue
        samples.append((r, value.u))
        depths.append(k)
    if not samples:
        raise EstimateUnavailableError(f"no radial sample succeeded to depth {depth}: {failures}")
    plateau = depths[-2:] == [depths[-1] - 1, depths[-1]] and abs(samples[-1][1] - samples[-2][1]) <= PLATEAU_TOL
    return RadiusEstimate(
        alpha=rot, method="radial", rho_hat=-math.inf if rot.is_rational else samples[-1][1],
        samples=tuple(samples), converged=plateau and not rot.is_rational, failures=tuple(failures),
    )


def rho_coefficient(family: FamilySpec, alpha, n: int = 128) -> RadiusEstimate:
    """Root-test estimate from Siegel coefficients: -d log|g_k| / dk.

    Least-squares fit of log|g_k| against k over the window [N/2, N]
    (zero coefficients excluded — symmetric families have none at even
    index).  converged requires the slopes fitted on the two half-windows
    to agree within SLOPE_STABILITY_TOL.  A DivisorBreakdownError of the
    Siegel solve propagates.  The estimate keeps the fitted SiegelSeries as
    ``series``.  The fit is the batched one of rho_coefficients, run on a
    batch of one.
    """
    n = check_count(n, "series degree", 32)
    rot = _as_rotation(alpha)
    return single(_coefficient_estimates(family, [rot], [siegel_series(family, rot, n)]))


def rho_coefficients(family: FamilySpec, alphas, n: int = 128) -> list[RadiusEstimate | SiegelnumError]:
    """rho_coefficient at many rotation numbers, from one batched Siegel
    solve and one batched fit.

    Returns, in input order, one outcome per alpha: its RadiusEstimate, or
    the SiegelnumError that rho_coefficient raises for it (not raised
    here).  A degree other than an integer >= 32 is a PreconditionError,
    raised for the whole call.
    """
    n = check_count(n, "series degree", 32)
    rots = [outcome(_as_rotation, alpha) for alpha in alphas]
    outcomes = list(rots)
    todo = [i for i, rot in enumerate(rots) if not isinstance(rot, SiegelnumError)]
    for i, ss in zip(todo, siegel_series_many(family, [rots[i] for i in todo], n)):
        outcomes[i] = ss
    fit = [i for i in todo if not isinstance(outcomes[i], SiegelnumError)]
    estimates = _coefficient_estimates(family, [rots[i] for i in fit], [outcomes[i] for i in fit])
    for i, est in zip(fit, estimates):
        outcomes[i] = est
    return outcomes


def _fit_slope(ks: np.ndarray, ys: np.ndarray):
    """Least-squares slope of ys against ks, in closed form:
    sum (k - k_mean)(y - y_mean) / sum (k - k_mean)^2, for one row ys or
    for each row of a 2-D ys (means as ndarray.mean forms them).  Each row's
    sum is a (1, m) @ (m, 1) product of its own, as its 1-D dot would be."""
    dk = ks - ks.sum() / ks.size
    yc = ys - ys.sum(axis=-1, keepdims=True) / ks.size
    return (yc[..., None, :] @ dk[:, None])[..., 0, 0] / (dk @ dk)


def _coefficient_estimates(family: FamilySpec, rots: list, series: list) -> list[RadiusEstimate | SiegelnumError]:
    """The fit of rho_coefficient on each solved series of one degree, with
    its rotation number: per row, its RadiusEstimate, or the
    EstimateUnavailableError (fewer than 8 nonzero coefficients in the
    window) or NumericalError (above the Koebe cap M + M_SLACK) of that row.

    Rows are fitted together, one group per pattern of nonzero window
    coefficients; a row's numbers are those of a batch of one, since every
    reduction runs along that row alone, over a C-ordered array."""
    if not series:
        return []
    n = series[0].g.degree
    cap = koebe_cap_log(family) + M_SLACK
    window = np.abs(np.array([ss.g.coeffs[n // 2 :] for ss in series]))
    idx = np.arange(n // 2, n + 1, dtype=np.float64)
    keep = window > 0.0
    out: list = [None] * len(series)
    groups: dict[bytes, list[int]] = {}
    for b, row in enumerate(keep):
        groups.setdefault(row.tobytes(), []).append(b)
    for rows in groups.values():
        mask = keep[rows[0]]
        ks = idx[mask]
        if ks.size < 8:
            for b in rows:
                out[b] = EstimateUnavailableError("tail window has too few nonzero coefficients")
            continue
        ys = np.log(np.ascontiguousarray(window[rows][:, mask]))
        ks.flags.writeable = ys.flags.writeable = False  # each row's samples view them
        mid = ks.size // 2
        slopes, s1, s2 = (
            _fit_slope(ks[part], ys[:, part]).tolist()
            for part in (slice(None), slice(None, mid), slice(mid, None))
        )
        for b, slope, y, a, c in zip(rows, slopes, ys, s1, s2):
            out[b] = NumericalError(
                f"rho_coefficient produced rho_hat = {-slope:.4f} above the Koebe cap M + {M_SLACK} = {cap:.4f}"
            ) if -slope > cap else RadiusEstimate(
                alpha=rots[b], method="coefficient", rho_hat=-slope, samples=_FitSamples(ks, y),
                converged=abs(a - c) <= SLOPE_STABILITY_TOL, series=series[b],
            )
    return out


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
    nodes = check_count(nodes, "nodes", 8)
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
    if not r < 1.0:  # NaN too
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
    (alpha - delta, alpha), R on (alpha, alpha + delta), M elsewhere; each
    must be finite."""
    if not all(map(math.isfinite, (L, R, M))):
        raise PreconditionError(f"step values must be finite, got L = {L}, R = {R}, M = {M}")
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

    L and R cap rho on (alpha - delta, alpha) and (alpha, alpha + delta)
    and must be finite; the cap elsewhere is M = log 4 + log|v|.  The two
    arcs must not overlap, so 0 < delta <= 1/2 (beyond it the weight of M
    goes negative).  Radii approach the circle on the dyadic ladder (depth
    2 up to RAY_MAX_DEPTH, ray_samples >= 1 values).  A violation means the
    supplied caps were not actually valid; violations are counted and
    reported, never raised.  As in rho_radial, MISSING_SAMPLE failures are masked
    and counted, and any other error of a sample is raised.
    """
    if not 0 < delta <= 0.5:
        raise PreconditionError(f"delta must lie in (0, 1/2], got {delta}")
    if not (math.isfinite(L) and math.isfinite(R)):
        raise PreconditionError(f"caps L and R must be finite, got L = {L}, R = {R}")
    ray_samples = check_count(ray_samples, "ray samples", 1)
    rot = _as_rotation(alpha)
    m_cap = koebe_cap_log(family)
    radii = [
        1.0 - 2.0 ** -(2.0 + (RAY_MAX_DEPTH - 2.0) * j / max(1, ray_samples - 1))
        for j in range(ray_samples)
    ]
    rows = []
    for r, value in zip(radii, _ray_values(family, rot, radii, n)):
        if not isinstance(value, SiegelnumError):  # a missing sample is masked
            u_eps = poisson_step_value(rot.value, delta, L, R, m_cap, value.lam)
            rows.append((r, value.u, u_eps, u_eps - value.u))
    if not rows:
        raise EstimateUnavailableError("every ray sample failed")
    return PoissonBoundReport(
        alpha=rot.value, delta=delta, L=L, R=R, M=m_cap,
        limit_value=0.5 * (L + R),
        samples=tuple(rows), violations=sum(row[3] < 0 for row in rows),
        min_margin=min(row[3] for row in rows), masked=len(radii) - len(rows),
    )
