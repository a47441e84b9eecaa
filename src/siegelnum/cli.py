"""Command-line front end.

One executable, nine subcommands, one exit-code contract:

    0  success (including reports that merely *count* violations)
    1  usage error (unknown flag, malformed argv shape)
    2  precondition error (value out of range, unknown family, bad file)
    3  numerical failure (divisor breakdown, budget exhaustion, stall)

Output goes to stdout, or to the subcommand's ``--out`` file.  Failures
are printed as structured JSON on stdout (even with ``--out``) so parameter
sweeps can log and continue; usage errors go to stderr like any other tool.
A reader that closes stdout early ends the run quietly, with the exit code
the command would have returned.  Angles are measured in turns throughout
(theta = 1 is a full circle), matching the rotation-number convention of
the library.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .construction import ConstructionConfig, run_construction
from .errors import NumericalError, PreconditionError, SiegelnumError, check_count
from .families import family_catalog, get_family
from .linearize import YoccozValue, siegel_series, u_values, yoccoz_w
from .qanorm import _table_norm, circle_values, qa_norm
from .radius import parse_rotation, poisson_bound_check, rho_coefficient, rho_coefficients, rho_radial
from .series import TruncatedSeries

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for
    precondition failures, so bad usage raises and main() maps it to 1."""

    def error(self, message):
        raise _UsageError(message, self.format_usage())


# -- serialization helpers ---------------------------------------------------


def _jsonable(obj):
    """Recursively coerce to JSON-clean values; non-finite floats become
    null (the reports carry explicit flags for the interesting infinities)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2)


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # a float is written as its repr
    return buf.getvalue()


def _error_body(exc: Exception) -> dict:
    body = {"type": type(exc).__name__, "message": str(exc)}
    for name in ("k", "magnitude", "floor", "budget"):
        if hasattr(exc, name):
            body[name] = getattr(exc, name)
    partial = getattr(exc, "partial_report", None)
    if partial is not None:
        body["partial_report"] = partial.describe()
    return {"error": body}


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise PreconditionError(f"expected RE,IM (or a bare real), got {text!r}")


def _load_series(path: str) -> TruncatedSeries:
    """Series file: {"coeffs": [...]} or a bare list, read by
    TruncatedSeries.from_pairs (each entry a real or an [re, im] pair)."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise PreconditionError(f"{path}: {exc}") from None
    if isinstance(raw, dict):
        if "coeffs" not in raw:
            raise PreconditionError(f"{path}: series object needs a 'coeffs' key")
        raw = raw["coeffs"]
    try:
        return TruncatedSeries.from_pairs(raw)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from None


# -- subcommand handlers -----------------------------------------------------


def _given(args, *names) -> dict:
    """The named options present on the command line.  Parsers suppress
    absent options, so each takes the default of the library function it
    feeds, written once in that function's signature."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_families(args) -> str:
    if args.action == "list":
        return _json([f.describe() for f in family_catalog()])
    if args.family_id is None:
        raise PreconditionError("families show needs a family id")
    return _json(get_family(args.family_id).describe())


def _cmd_yoccoz(args) -> str:
    family = get_family(args.family)
    lam = _parse_complex_pair(args.lam)
    value = yoccoz_w(family, lam, **_given(args, "n", "budget"))
    return _json(
        {
            "lambda": [lam.real, lam.imag],
            "w": [value.w.real, value.w.imag],
            "u": value.u,
            "iterations": value.iterations_used,
            "entry_radius": value.entry_radius,
        }
    )


def _cmd_grid(args) -> str:
    """u over a polar grid; never aborts for a package error, so a sweep
    survives bad parameters (the row carries the error class)."""
    if not 0.0 < args.rmin <= args.rmax < 1.0:
        raise PreconditionError("need 0 < rmin <= rmax < 1")
    check_count(args.res, "res", 1)
    family = get_family(args.family)
    radii = np.linspace(args.rmin, args.rmax, args.res)
    thetas = np.arange(args.res) / args.res
    points = [(float(r), float(t)) for r in radii for t in thetas]
    lams = [r * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)) for r, t in points]
    values = u_values(family, lams, **_given(args, "n", "budget"))
    rows = []
    for (r, theta), value in zip(points, values):
        row = {"r": r, "theta": theta, "u": math.nan, "iterations": 0, "status": "ok"}
        if isinstance(value, YoccozValue):
            row["u"] = value.u
            row["iterations"] = value.iterations_used
        else:
            row["status"] = type(value).__name__
        rows.append(row)
    if args.format == "json":
        return _json(rows)
    header = ["r", "theta", "u", "iterations", "status"]
    return _csv(header, [[row[k] for k in header] for row in rows])


def _cmd_radius(args) -> str:
    family = get_family(args.family)
    alpha = parse_rotation(args.alpha)
    if args.method == "radial":
        estimate = rho_radial(family, alpha, **_given(args, "depth", "n"))
    elif hasattr(args, "depth"):
        raise PreconditionError("--depth applies to --method radial only")
    else:
        estimate = rho_coefficient(family, alpha, **_given(args, "n"))
    return _json(estimate.describe())


def _cmd_poisson_check(args) -> str:
    family = get_family(args.family)
    alpha = parse_rotation(args.alpha)
    report = poisson_bound_check(
        family, alpha, args.delta, args.L, args.R, **_given(args, "ray_samples", "n")
    )
    return _json(report.describe())


def _cmd_norm(args) -> str:
    series = _load_series(args.series)
    options = _given(args, "order_cap", "circle_samples")
    if "order_cap" in options:
        # derivatives above the truncation degree vanish identically
        options["order_cap"] = min(options["order_cap"], series.degree)
    result = qa_norm(series, args.r, **options)
    return _json(dataclasses.asdict(result))


def _cmd_construct(args) -> str:
    settings = _given(args, *(f.name for f in dataclasses.fields(ConstructionConfig)))
    if "alpha0" in settings:
        settings["alpha0"] = parse_rotation(settings["alpha0"])
    schedule = settings.pop("schedule", "auto")
    if schedule != "auto":
        settings["schedule"] = schedule.split(",")
        settings.setdefault("depth", len(settings["schedule"]))
    report = run_construction(ConstructionConfig(**settings))
    return _json(report.describe())


def _cmd_dip(args) -> str:
    """rho_hat at the offsets +-halfwidth*e^(-6i/points), i < points, around
    alpha, from one batched estimate (log spacing: the dip at a rational is
    sharper than any linear grid).  A failed offset carries its error class."""
    check_count(args.points, "points", 1)
    if not 0.0 < args.halfwidth < math.inf:
        raise PreconditionError(f"halfwidth must be positive and finite, got {args.halfwidth}")
    family, center = get_family(args.family), parse_rotation(args.alpha).value
    widths = [args.halfwidth * math.exp(-6.0 * i / args.points) for i in range(args.points)]
    offsets = sorted(sign * w for w in widths for sign in (-1.0, 1.0))
    outcomes = rho_coefficients(family, [center + t for t in offsets], **_given(args, "n"))
    rows = [[t, math.nan, type(out).__name__] if isinstance(out, SiegelnumError)
            else [t, out.rho_hat, "ok"] for t, out in zip(offsets, outcomes)]
    return _csv(["offset", "rho_hat", "status"], rows)


def _cmd_boundary(args) -> str:
    g = siegel_series(get_family(args.family), parse_rotation(args.alpha), **_given(args, "n")).g
    try:
        radius = math.exp(args.rho)
    except OverflowError:
        raise PreconditionError(f"rho = {args.rho} puts the circle beyond float range") from None
    gv, gp = table = circle_values(g.coeffs, radius, args.samples, order_cap=1)
    # the norm's tail gate refuses a circle the truncated series cannot see
    _table_norm(g, radius, table)
    rows = [
        [j / args.samples, float(v.real), float(v.imag), float(a)]
        for j, (v, a) in enumerate(zip(gv, np.abs(gp)))
    ]
    return _csv(["theta", "re", "im", "abs_gprime"], rows)


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser of main, built on its first call and then shared.

    Each subcommand's dests are the parameter names of the library function
    its options feed (--degree is n everywhere, ConstructionConfig's
    n_series for construct), and an absent option leaves no attribute, so
    only the CLI's own settings (--out, grid --format, boundary --samples)
    carry a default here."""
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write output to this file")
    family, alpha, degree = (_Parser(add_help=False, argument_default=argparse.SUPPRESS)
                             for _ in range(3))
    family.add_argument("--family", required=True)
    alpha.add_argument("--alpha", required=True, metavar="float:X|cf:LIST|rat:P/Q|golden")
    degree.add_argument("--degree", dest="n", type=int)
    at_alpha = (family, alpha, degree)

    parser = _Parser(
        prog="siegelnum",
        description="Siegel-disc numerics: linearization, radius estimates, "
        "norms, and the rotation-number construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help,
                           argument_default=argparse.SUPPRESS)
        p.set_defaults(handler=handler)
        return p

    p = command("families", _cmd_families, "catalog of map families")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("family_id", nargs="?", default=None)

    p = command("yoccoz", _cmd_yoccoz, "w(lambda) inside the disc", family, degree)
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--budget", type=int)

    p = command("grid", _cmd_grid, "polar sweep of u(lambda)", family, degree)
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("radius", _cmd_radius, "conformal-radius estimate", *at_alpha)
    p.add_argument("--method", choices=("radial", "coeff"), required=True)
    p.add_argument("--depth", type=int)

    p = command("poisson-check", _cmd_poisson_check, "harmonic upper bound on a ray", *at_alpha)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--samples", dest="ray_samples", type=int)

    p = command("dip", _cmd_dip, "rho_hat on log-spaced offsets around alpha", *at_alpha)
    p.add_argument("--halfwidth", type=float, required=True)
    p.add_argument("--points", type=int, required=True, help="offsets per side")

    p = command("norm", _cmd_norm, "weighted derivative norm")
    p.add_argument("--series", required=True, metavar="FILE.json")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--K", dest="order_cap", type=int)
    p.add_argument("--samples", dest="circle_samples", type=int)

    p = command("construct", _cmd_construct, "rotation-number refinement run")
    p.add_argument("--family")
    p.add_argument("--alpha0")
    p.add_argument("--eps0", type=float)
    p.add_argument("--rho-inf", dest="rho_infinity", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--schedule", metavar="auto|R1,R2,...")
    p.add_argument("--tol-rho", dest="tol_rho", type=float)
    p.add_argument("--degree", dest="n_series", type=int)

    p = command("boundary", _cmd_boundary, "disc-boundary curve CSV", *at_alpha)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--samples", type=int, default=256)

    return parser


def _print(text: str) -> None:
    """Text and a trailing newline to stdout.  If the reader closed it, fd 1
    goes to os.devnull (as the signal module's docs advise), so the flush at
    exit cannot fail again."""
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    """Run one subcommand: the one place that writes its output and picks
    the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        text, code = args.handler(args), 0
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
            return 0
    except NumericalError as exc:
        text, code = _json(_error_body(exc)), 3
    except (OSError, ValueError) as exc:  # PreconditionError is a ValueError
        text, code = _json(_error_body(exc)), 2
    _print(text)
    return code
