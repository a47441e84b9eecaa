"""The three benchmark workloads: seeded inputs, one job, and its output check.

Every workload is single-process, closed-loop and runs one job at a time.
Inputs come only from the seed; the program under test sees the generated
inputs, never the seed.  Calls into the package go through module
attributes (``cli.main``, ``radius.rho_radial``, ...) looked up at call
time, so the tracer's wrappers are seen when they are installed.

Why these three (the prediction table is in README.md):

* ``u_sweep`` sweeps the Yoccoz potential through the CLI ``grid``
  subcommand.  Interior lambda with short orbits: the Koenigs solve,
  ``entry_radius`` and Horner ``evaluate`` dominate and the Siegel solver
  is never called.
* ``radius_scan`` estimates rho(alpha) both ways.  lambda climbs to
  1 - 2^-14, so the basin orbit dominates; each Siegel solve is distinct.
* ``construct`` runs the depth-3 construction, where repeated n = 256
  Siegel solves take almost all of the time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass

from siegelnum import cli, construction, errors, radius
from siegelnum.construction import ConstructionConfig
from siegelnum.families import get_family
from siegelnum.radius import rational_rotation, rotation_from_cf

FAMILY_IDS = (
    "quadratic", "poly_3", "exp", "zexp", "sin", "tan", "reduced(sin)", "reduced(tan)",
)
ERROR_CLASSES = frozenset(errors.__all__)

GRID_RES = 8  # 64 lambda per sweep; degree stays at the CLI default (128)
RADIAL_DEPTH = 14
SCAN_DEGREE = 128
AGREEMENT_TOL = 0.05
CF_TERMS = 40  # >= 30 terms keeps a continued fraction irrational (radius.rotation_from_cf)


@dataclass
class Outcome:
    """Verdict of one job's output check.

    ``known_defect`` names a documented defect of the program that this
    failure matches; such a failure still counts as failed.
    """

    ok: bool
    detail: str = ""
    known_defect: str | None = None
    rejected_candidates: int = 0


def _family_cycle(rng: random.Random):
    """Families in a fresh seeded order every 8 jobs, so each run sees them evenly."""
    while True:
        order = list(FAMILY_IDS)
        rng.shuffle(order)
        yield from order


def _bounded_type(rng: random.Random, max_quotient: int, prefix_len: int):
    prefix = [rng.randint(1, max_quotient) for _ in range(prefix_len)]
    return rotation_from_cf(prefix + [1] * (CF_TERMS - prefix_len))


def _outcome_of(fn, *args, **kwargs):
    """The call's result, or the typed package error it raised."""
    try:
        return fn(*args, **kwargs)
    except errors.SiegelnumError as exc:
        return exc


# -- u_sweep -------------------------------------------------------------------


def u_sweep_inputs(rng: random.Random):
    for family_id in _family_cycle(rng):
        rmin, rmax = sorted(rng.uniform(0.05, 0.95) for _ in range(2))
        yield ["grid", "--family", family_id, "--rmin", f"{rmin:.6f}",
               "--rmax", f"{rmax:.6f}", "--res", str(GRID_RES)]


def u_sweep_job(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def u_sweep_check(argv, result) -> Outcome:
    code, text = result
    if code != 0:
        return Outcome(False, f"exit code {code}: {text[:200]}")
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != GRID_RES * GRID_RES:
        return Outcome(False, f"{len(rows)} rows, expected {GRID_RES * GRID_RES}")
    family = get_family(argv[argv.index("--family") + 1])
    cap = math.log(4.0 * abs(family.v))
    for row in rows:
        if row["status"] == "ok":
            u = float(row["u"])
            if not (math.isfinite(u) and u < cap):
                return Outcome(False, f"u = {u} not finite and below log(4|v|) = {cap}")
        elif row["status"] not in ERROR_CLASSES:
            return Outcome(False, f"status {row['status']!r} is not a package error class")
    return Outcome(True)


# -- radius_scan ---------------------------------------------------------------


def radius_scan_inputs(rng: random.Random):
    """About 3/4 bounded-type alpha, 1/4 rationals p/q with q <= 7.

    Stratified in groups of 4 blocks of 8 jobs, so that every run of the
    same length sees nearly the same mix: each block holds all eight
    families and exactly 2 rationals, each family is rational once per
    group, and each family's bounded-type alpha cycle through prefix
    lengths 0 to 3 (partial quotients in 1..4) in a seeded order.  The
    golden mean (the empty prefix) is thus common; reduced(tan) at the
    golden mean carries the known rho_coefficient rounding-floor defect,
    which must stay visible.
    """
    prefix_lengths = {f: [] for f in FAMILY_IDS}
    while True:
        order = list(FAMILY_IDS)
        rng.shuffle(order)
        rational_block = {f: i // 2 for i, f in enumerate(order)}
        for block in range(4):
            rng.shuffle(order)
            for family_id in order:
                if rational_block[family_id] == block:
                    q = rng.randint(2, 7)
                    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
                    alpha = rational_rotation(p, q)
                else:
                    lengths = prefix_lengths[family_id]
                    if not lengths:
                        lengths.extend(rng.sample(range(4), 4))
                    alpha = _bounded_type(rng, 4, lengths.pop())
                yield get_family(family_id), alpha


def radius_scan_job(inp):
    family, alpha = inp
    radial = _outcome_of(radius.rho_radial, family, alpha, depth=RADIAL_DEPTH, n=SCAN_DEGREE)
    coeff = _outcome_of(radius.rho_coefficient, family, alpha, n=SCAN_DEGREE)
    return radial, coeff


def radius_scan_check(inp, result) -> Outcome:
    family, alpha = inp
    radial, coeff = result
    if alpha.is_rational:
        if not isinstance(coeff, errors.DivisorBreakdownError):
            return Outcome(False, f"rho_coefficient at {alpha.p}/{alpha.q} gave {coeff!r}, "
                                  "expected DivisorBreakdownError")
        if isinstance(radial, radius.RadiusEstimate) and radial.converged:
            return Outcome(False, f"rho_radial reports converged at {alpha.p}/{alpha.q}")
        return Outcome(True)
    for name, est in (("rho_radial", radial), ("rho_coefficient", coeff)):
        if not isinstance(est, radius.RadiusEstimate):
            return Outcome(False, f"{name} refused a bounded-type alpha: {est!r}")
    if radial.converged and coeff.converged:
        gap = coeff.rho_hat - radial.rho_hat
        if abs(gap) > AGREEMENT_TOL:
            detail = (f"{family.family_id} alpha cf {alpha.cf[:4]}: radial {radial.rho_hat:.4f}, "
                      f"coefficient {coeff.rho_hat:.4f}")
            # rho_coefficient fits rounding noise when rho > 0 is large and
            # still reports converged; measured on reduced(tan) only.
            defect = ("rho_coefficient rounding floor"
                      if family.family_id == "reduced(tan)" and gap < 0 else None)
            return Outcome(False, detail, known_defect=defect)
    return Outcome(True)


# -- construct -----------------------------------------------------------------


def construct_inputs(rng: random.Random):
    """alpha0 = [0; a1, a2, 1, 1, ...] with a1, a2 in {1, 2, 3}.

    All nine certify at depth 3.  A third free quotient would admit
    [0; 3, 3, 3, 1, ...], which stalls at step 3 (norm delta 0.054 over its
    0.025 budget) and is left out so that no construct job is expected to fail.
    """
    while True:
        yield ConstructionConfig(alpha0=_bounded_type(rng, 3, 2))


def construct_job(cfg):
    return construction.run_construction(cfg)


def construct_check(cfg, report) -> Outcome:
    """Acceptance criterion 9: a whole, nested, in-budget depth-3 certificate."""
    steps = report.steps
    rejected = sum(s.retries for s in steps)
    problems = []
    if len(steps) != cfg.depth:
        problems.append(f"{len(steps)} steps, expected {cfg.depth}")
    alpha_prev, eps_prev = report.alpha0, cfg.eps0
    for s in steps:
        if abs(s.alpha - alpha_prev) + s.eps > eps_prev + 1e-15:
            problems.append(f"step {s.n} interval does not nest")
        alpha_prev, eps_prev = s.alpha, s.eps
        budget = cfg.delta * 2.0 ** -(s.n - 1)  # 0.1, 0.05, 0.025 at the defaults
        if not s.norm_delta <= budget:
            problems.append(f"step {s.n} norm delta {s.norm_delta:.3e} > {budget:.3e}")
        if not abs(s.achieved_rho - s.target_rho) <= cfg.tol_rho:
            problems.append(f"step {s.n} misses its target by more than {cfg.tol_rho}")
    if not report.total_distance <= 0.2:
        problems.append(f"total distance {report.total_distance:.3e} > 0.2")
    if not report.boundary.gprime_min > 0:
        problems.append(f"g'min {report.boundary.gprime_min} is not > 0")
    return Outcome(not problems, "; ".join(problems), rejected_candidates=rejected)


@dataclass(frozen=True)
class Workload:
    """``nominal_job_s`` is one job and its check, in seconds, as measured at
    the commit that defined the benchmark on a shared 2-core VM; it turns
    --seconds into a fixed job count, so it is a work budget, not a figure to
    keep up to date.  The count is a whole number of ``block`` jobs, the
    length of the input stream's cycle over families (and, on radius_scan,
    over rational slots and prefix lengths)."""

    name: str
    inputs: object
    job: object
    check: object
    nominal_job_s: float
    block: int = 1

    def input_stream(self, seed: int):
        return self.inputs(random.Random(f"{self.name}:{seed}"))

    def job_count(self, seconds: float) -> int:
        blocks = max(1, round(seconds / (self.nominal_job_s * self.block)))
        return blocks * self.block


WORKLOADS = {
    w.name: w
    for w in (
        Workload("u_sweep", u_sweep_inputs, u_sweep_job, u_sweep_check, 0.38, 8),
        Workload("radius_scan", radius_scan_inputs, radius_scan_job, radius_scan_check, 0.13, 32),
        Workload("construct", construct_inputs, construct_job, construct_check, 8.5),
    )
}
