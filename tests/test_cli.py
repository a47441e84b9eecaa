import cmath
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import siegelnum
from siegelnum import (
    ConstructionConfig,
    YoccozValue,
    cli,
    get_family,
    golden_rotation,
    parse_rotation,
    poisson_bound_check,
    qa_norm,
    qanorm,
    rho_coefficient,
    rho_coefficients,
    rho_radial,
    run_construction,
    siegel_series,
    u_values,
    yoccoz_w,
)
from siegelnum.cli import main
from siegelnum.errors import ConstructionStallError, SiegelnumError
from siegelnum.series import TruncatedSeries, evaluate


QUAD = get_family("quadratic")
GOLDEN = golden_rotation()


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_families_list_has_six_entries(capsys):
    code, out, _ = run(capsys, "families", "list")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 6
    assert entries[0]["id"] == "quadratic"


def test_families_show(capsys):
    code, out, _ = run(capsys, "families", "show", "exp")
    assert code == 0
    assert json.loads(out)["id"] == "exp"


def test_families_show_names_the_map_a_reduced_family_comes_from(capsys):
    code, out, _ = run(capsys, "families", "show", "reduced(sin)")
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced_from"] == "sin" and doc["symmetry_order"] == 1


def test_families_show_without_id_is_a_precondition_error(capsys):
    code, out, _ = run(capsys, "families", "show")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


def test_yoccoz_asymptotic_example(capsys):
    code, out, _ = run(capsys, "yoccoz", "--family", "quadratic", "--lambda", "0.01,0")
    assert code == 0
    doc = json.loads(out)
    w = complex(*doc["w"])
    assert abs(w / 0.01 - 0.25) <= 0.05
    assert set(doc) == {"lambda", "w", "u", "iterations", "entry_radius"}


@pytest.mark.parametrize("lam", ["0.3,0", "0.6,0.3"])
def test_yoccoz_large_degree_polynomial_tends_to_exp(capsys, lam):
    # C(d, k) passes binary64 near d = 12 300 at n = 128; poly_d -> exp
    u = {}
    for family in ("poly_20000", "exp"):
        code, out, _ = run(capsys, "yoccoz", "--family", family, "--lambda", lam)
        assert code == 0
        u[family] = json.loads(out)["u"]
    assert abs(u["poly_20000"] - u["exp"]) <= 1e-4


def test_yoccoz_rejects_unit_modulus(capsys):
    code, out, _ = run(capsys, "yoccoz", "--family", "quadratic", "--lambda", "1,0")
    assert code == 2


def test_yoccoz_malformed_lambda(capsys):
    code, out, _ = run(capsys, "yoccoz", "--family", "quadratic", "--lambda", "huh")
    assert code == 2


def test_radius_exact_rational_reports_breakdown(capsys):
    code, out, _ = run(
        capsys, "radius", "--family", "quadratic", "--alpha", "rat:1/2",
        "--method", "coeff",
    )
    assert code == 3
    body = json.loads(out)["error"]
    assert body["type"] == "DivisorBreakdownError"
    assert body["k"] >= 2 and body["magnitude"] < body["floor"]


# exact phases frac(k alpha) see a rational with q > 128 at n = 256
def test_radius_large_q_exact_rational_reports_breakdown(capsys):
    code, out, _ = run(
        capsys, "radius", "--family", "quadratic", "--alpha", "rat:128/133",
        "--method", "coeff", "--degree", "256",
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DivisorBreakdownError"


def test_radius_diverging_ray_prints_null(capsys):
    code, out, _ = run(
        capsys, "radius", "--family", "quadratic", "--alpha", "rat:1/2",
        "--method", "radial", "--depth", "12",
    )
    assert code == 0
    for text in ('"rho_hat": null', '"converged": false', '"diverging_to_minus_infinity": true'):
        assert text in out


def test_radius_depth_needs_the_radial_method(capsys):
    code, out, _ = run(
        capsys, "radius", "--family", "quadratic", "--alpha", "golden",
        "--method", "coeff", "--depth", "5",
    )
    assert code == 2
    body = json.loads(out)["error"]
    assert body["type"] == "PreconditionError" and "--depth" in body["message"]


def test_radius_depth_past_49_is_refused_by_name(capsys):
    # 1 - 2^-50 is within the multiplier check's 1e-15 of the circle
    code, out, _ = run(
        capsys, "radius", "--family", "quadratic", "--alpha", "golden",
        "--method", "radial", "--depth", "50",
    )
    assert code == 2
    body = json.loads(out)["error"]
    assert body["type"] == "PreconditionError" and "depth 50" in body["message"]


def test_jsonable_nulls_non_finite_floats():
    assert cli._jsonable({"a": math.nan, "b": [math.inf]}) == {"a": None, "b": [None]}


def test_radius_golden_coefficient(capsys):
    code, out, _ = run(
        capsys, "radius", "--family", "quadratic", "--alpha", "golden",
        "--method", "coeff", "--degree", "128",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rho_hat"] - (-1.117)) < 0.05


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "radius", "--family", "quadratic", "--method", "nope")
    assert code == 1
    assert "usage" in err
    # one spelling per choice: the coefficient method is "coeff"
    code, _, err = run(capsys, "radius", "--family", "quadratic", "--alpha", "golden",
                       "--method", "coefficient")
    assert code == 1
    assert "invalid choice: 'coefficient'" in err
    code, _, _ = run(capsys, "not-a-command")
    assert code == 1
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_family_exits_two(capsys):
    code, out, _ = run(
        capsys, "radius", "--family", "wat", "--alpha", "golden", "--method", "coeff"
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


def test_grid_csv_shape_and_determinism(capsys):
    args = ("grid", "--family", "quadratic", "--rmin", "0.1", "--rmax", "0.5",
            "--res", "3", "--degree", "32")
    code, first, _ = run(capsys, *args)
    assert code == 0
    lines = first.strip().splitlines()
    assert lines[0] == "r,theta,u,iterations,status"
    assert len(lines) == 10
    assert all(line.endswith("ok") for line in lines[1:])
    code, second, _ = run(capsys, *args)
    assert second == first


def test_grid_json_format(capsys):
    code, out, _ = run(
        capsys, "grid", "--family", "quadratic", "--rmin", "0.2", "--rmax", "0.2",
        "--res", "2", "--degree", "32", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert {"r", "theta", "u", "iterations", "status"} == set(rows[0])


@pytest.mark.parametrize(
    "argv",
    [
        ("yoccoz", "--family", "quadratic", "--lambda", "0.9,0", "--budget", "0"),
        ("grid", "--family", "quadratic", "--rmin", "0.1", "--rmax", "0.5", "--res", "2", "--budget", "-5"),
    ],
)
def test_nonpositive_budget_is_a_precondition_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


def test_grid_degree_below_two_is_a_precondition_error(capsys):
    code, out, _ = run(
        capsys, "grid", "--family", "quadratic", "--rmin", "0.1", "--rmax", "0.5",
        "--res", "2", "--degree", "1",
    )
    assert code == 2
    assert json.loads(out)["error"]["message"] == "series degree must be >= 2"


def test_grid_bad_range(capsys):
    code, _, _ = run(
        capsys, "grid", "--family", "quadratic", "--rmin", "0", "--rmax", "0.5",
        "--res", "2",
    )
    assert code == 2


def test_norm_hand_value(tmp_path, capsys):
    f = tmp_path / "series.json"
    f.write_text(json.dumps({"coeffs": [0, 1, [0.5, 0.0]]}))
    code, out, _ = run(capsys, "norm", "--series", str(f), "--r", "0.5", "--K", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.625)
    assert doc["k_at_max"] == 0


def test_norm_missing_file(tmp_path, capsys):
    code, out, _ = run(capsys, "norm", "--series", str(tmp_path / "missing.json"), "--r", "0.5")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "coeffs",
    [[0, 1, ["a", 0.5]], [0, 1, [0.5, None]], [0, 1, "1"], [0, 1, [1]], {"terms": [0, 1]}],
)
def test_norm_malformed_series_file(tmp_path, capsys, coeffs):
    f = tmp_path / "series.json"
    f.write_text(json.dumps(coeffs))
    code, out, _ = run(capsys, "norm", "--series", str(f), "--r", "0.5")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PreconditionError"
    assert str(f) in error["message"]


@pytest.mark.parametrize(
    "content", [b'{"coeffs": [0, 1', b"\xff\xfe"], ids=["truncated-json", "not-utf8"]
)
def test_norm_unreadable_series_file(tmp_path, capsys, content):
    f = tmp_path / "series.json"
    f.write_bytes(content)
    code, out, _ = run(capsys, "norm", "--series", str(f), "--r", "0.5")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PreconditionError"
    assert str(f) in error["message"]


@pytest.mark.parametrize("r", ["nan", "inf", "0"])
def test_norm_radius_must_be_positive_and_finite(tmp_path, capsys, r):
    f = tmp_path / "series.json"
    f.write_text(json.dumps([0, 1, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "norm", "--series", str(f), "--r", r)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"
    assert err == ""


@pytest.mark.parametrize(
    "last, code, key",
    [(0, 0, "value"), (1, 3, "error")],  # padded w + w^2/2; then w^64 overflows there
)
def test_norm_at_a_large_radius(tmp_path, capsys, last, code, key):
    f = tmp_path / "series.json"
    f.write_text(json.dumps([0, 1, 0.5] + [0] * 61 + [last]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, "norm", "--series", str(f), "--r", "1e10", "--K", "1")
    assert (got, err) == (code, "")
    doc = json.loads(out)[key]
    if code == 0:
        assert doc == pytest.approx(1e10 + 5e19, rel=1e-12)
    else:
        assert doc["type"] == "UnreliableRadiusError"


def test_norm_keeps_a_term_past_an_overflowing_power(tmp_path, capsys):
    # r^40 overflows at r = 1e10, the w^40 term 1e-300 r^40 = 1e100 does not
    f = tmp_path / "series.json"
    f.write_text(json.dumps([0, 1] + [0] * 38 + [1e-300] + [0] * 24))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "norm", "--series", str(f), "--r", "1e10")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == pytest.approx(1e100, rel=1e-12)


@pytest.mark.parametrize(
    "flag, value", [("--samples", "0"), ("--delta", "0.7"), ("--L", "nan"), ("--R", "inf")]
)
def test_poisson_check_input_range(capsys, flag, value):
    argv = {"--family": "quadratic", "--alpha": "golden", "--delta": "0.01",
            "--L": "-1.1", "--R": "-1.1", "--samples": "4", "--degree": "64", flag: value}
    code, out, _ = run(capsys, "poisson-check", *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize(
    "argv, message",
    [(("grid", "--family", "quadratic", "--rmin", "0.1", "--rmax", "0.5", "--res", "0"),
      "res must be >= 1"),
     (("construct", "--degree", "32"), "series degree must be >= 64"),
     (("radius", "--family", "quadratic", "--alpha", "rat:a/b", "--method", "coeff"),
      "bad rotation syntax"),
     (("construct", "--schedule", "abc"), "schedule must be a sequence of numbers"),
     (("construct", "--schedule="), "schedule must be a sequence of numbers")],
    ids=["grid-res-0", "construct-degree-32", "radius-alpha-rat:a/b", "construct-schedule-abc",
         "construct-schedule-empty"],
)
def test_out_of_range_option_names_its_rule(capsys, argv, message):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "PreconditionError" and message in error["message"]


def test_poisson_check_runs(capsys):
    code, out, _ = run(
        capsys, "poisson-check", "--family", "quadratic", "--alpha", "golden",
        "--delta", "0.01", "--L", "-1.1", "--R", "-1.1", "--samples", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert {"violations", "min_margin", "limit_value", "samples"} <= set(doc)


def test_boundary_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "boundary", "--family", "quadratic", "--alpha", "golden",
        "--rho", "-1.2", "--samples", "8", "--degree", "128", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "theta,re,im,abs_gprime"
    assert len(lines) == 9
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    # degree 128 over 8 samples exercises the folding of the circle
    # evaluator; at degree 64 the tail gate refuses rho = -1.2
    g = siegel_series(get_family("quadratic"), golden_rotation(), 128).g
    n = g.degree
    gp = TruncatedSeries.from_coeffs(g.coeffs[1:] * np.arange(1, n + 1))
    for row in csv.DictReader(io.StringIO(out_file.read_text())):
        w = math.exp(-1.2) * cmath.exp(2j * math.pi * float(row["theta"]))
        gv = evaluate(g, w)
        assert abs(float(row["re"]) - gv.real) <= 1e-12
        assert abs(float(row["im"]) - gv.imag) <= 1e-12
        assert abs(float(row["abs_gprime"]) - abs(evaluate(gp, w))) <= 1e-12


def test_boundary_gate_reads_the_curve_table(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return circle_values(*args, **kwargs)

    circle_values = qanorm.circle_values
    monkeypatch.setattr(qanorm, "circle_values", counted)
    monkeypatch.setattr(cli, "circle_values", counted)
    code, _, _ = run(
        capsys, "boundary", "--family", "quadratic", "--alpha", "golden",
        "--rho", "-1.2", "--samples", "8", "--degree", "128",
    )
    assert code == 0
    assert calls == [8]


def test_boundary_rejects_nonpositive_samples(capsys):
    code, out, _ = run(
        capsys, "boundary", "--family", "quadratic", "--alpha", "golden",
        "--rho", "-1.2", "--samples", "0",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize(
    "rho, code, error",
    [
        ("1000", 2, "PreconditionError"),  # e^rho overflows
        ("nan", 2, "PreconditionError"),
        ("0", 3, "UnreliableRadiusError"),  # outside the disc of convergence
        ("5", 3, "UnreliableRadiusError"),
        ("-1.15", 3, "UnreliableRadiusError"),  # tail above TAIL_TOL at degree 128
    ],
)
def test_boundary_refuses_a_circle_the_series_cannot_see(capsys, rho, code, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, _ = run(
            capsys, "boundary", "--family", "quadratic", "--alpha", "golden",
            "--rho", rho, "--samples", "8", "--degree", "128",
        )
    assert got == code
    assert json.loads(out)["error"]["type"] == error


def test_construct_validation_error(capsys):
    # comma-joined negative values need the = form, or argparse reads a flag
    code, out, _ = run(capsys, "construct", "--schedule=-1.4,-1.3")
    assert code == 2
    assert "decreasing" in json.loads(out)["error"]["message"]


def test_construct_schedule_does_not_override_depth(capsys):
    code, out, _ = run(capsys, "construct", "--depth", "5", "--schedule=-1.3,-1.4")
    assert code == 2
    assert json.loads(out)["error"]["message"] == "schedule length must equal depth"
    # without --depth the schedule sets it
    code, out, _ = run(capsys, "construct", "--schedule=-1.3,-1.4")
    assert code == 0 and len(json.loads(out)["steps"]) == 2


def test_two_calls_build_one_parser(capsys):
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "families", "list")[0] == 0
        assert run(capsys, "families", "show", "exp")[0] == 0
        assert cli.build_parser.cache_info().misses == 1
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize("argv", [("--config", "x.json", "families", "list"),
                                  ("families", "list", "--config", "x.json")])
def test_config_flag_is_gone(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage")


def test_out_flag_writes_json(tmp_path, capsys):
    target = tmp_path / "families.json"
    code, out, _ = run(capsys, "families", "list", "--out", str(target))
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())) == 6


# -- every optional flag reaches the library call it feeds -------------------
#
# Absent flags are left to the library's defaults, so a flag whose dest does
# not name its parameter would fall back silently.  Each case gives one flag a
# non-default value, compares the output with the library call at that value,
# and checks that the flag changes the output.


def _printed(payload):
    """A payload as the CLI prints it, read back; wall_time is not compared."""
    doc = json.loads(json.dumps(cli._jsonable(payload)))
    if isinstance(doc, dict):
        doc.pop("wall_time", None)
    return doc


def _yoccoz_doc(family, lam, **options):
    try:
        value = yoccoz_w(family, lam, **options)
    except SiegelnumError as exc:
        return cli._error_body(exc)
    return {"lambda": [lam.real, lam.imag], "w": [value.w.real, value.w.imag], "u": value.u,
            "iterations": value.iterations_used, "entry_radius": value.entry_radius}


RADIUS = ("radius", "--family", "quadratic", "--alpha", "golden", "--method")
POISSON = ("poisson-check", "--family", "quadratic", "--alpha", "golden",
           "--delta", "0.01", "--L", "-1.1", "--R", "-1.1")
CONSTRUCT = ("construct", "--depth", "1")


@pytest.mark.parametrize(
    "argv, flag, expected",
    [
        (("yoccoz", "--family", "quadratic", "--lambda", "0.5,0.3"), ("--degree", "32"),
         lambda: _yoccoz_doc(QUAD, 0.5 + 0.3j, n=32)),
        (("yoccoz", "--family", "quadratic", "--lambda", "0.9,0"), ("--budget", "3"),
         lambda: _yoccoz_doc(QUAD, 0.9 + 0j, budget=3)),
        ((*RADIUS, "radial"), ("--depth", "5"),
         lambda: rho_radial(QUAD, GOLDEN, depth=5).describe()),
        ((*RADIUS, "radial"), ("--degree", "64"),
         lambda: rho_radial(QUAD, GOLDEN, n=64).describe()),
        ((*RADIUS, "coeff"), ("--degree", "64"),
         lambda: rho_coefficient(QUAD, GOLDEN, n=64).describe()),
        (POISSON, ("--samples", "3"),
         lambda: poisson_bound_check(QUAD, GOLDEN, 0.01, -1.1, -1.1, ray_samples=3).describe()),
        ((*POISSON, "--samples", "4"), ("--degree", "64"),
         lambda: poisson_bound_check(QUAD, GOLDEN, 0.01, -1.1, -1.1, ray_samples=4, n=64).describe()),
        ((*CONSTRUCT, "--degree", "64"), ("--alpha0", "silver"),
         lambda: run_construction(ConstructionConfig(
             depth=1, n_series=64, alpha0=parse_rotation("silver"))).describe()),
        (CONSTRUCT, ("--degree", "64"),
         lambda: run_construction(ConstructionConfig(depth=1, n_series=64)).describe()),
    ],
    ids=["yoccoz-degree", "yoccoz-budget", "radial-depth", "radial-degree", "coeff-degree",
         "poisson-samples", "poisson-degree", "construct-alpha0", "construct-degree"],
)
def test_json_flags_reach_the_library(capsys, argv, flag, expected):
    _, out, _ = run(capsys, *argv, *flag)
    assert _printed(json.loads(out)) == _printed(expected())
    assert run(capsys, *argv)[1] != out


def _grid_cells(text, fmt):
    """(u as printed, iterations, status) of each grid row."""
    if fmt == "json":
        return [(repr(math.nan if row["u"] is None else row["u"]), row["iterations"], row["status"])
                for row in json.loads(text)]
    return [(row["u"], int(row["iterations"]), row["status"])
            for row in csv.DictReader(io.StringIO(text))]


@pytest.mark.parametrize(
    "flag, options",
    [(("--degree", "32"), {"n": 32}), (("--budget", "3"), {"budget": 3}),
     (("--format", "json"), {})],
)
def test_grid_flags_reach_u_values(capsys, flag, options):
    argv = ("grid", "--family", "quadratic", "--rmin", "0.9", "--rmax", "0.9", "--res", "2")
    code, out, _ = run(capsys, *argv, *flag)
    assert code == 0
    lams = [0.9 * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
            for t in (0.0, 0.5, 0.0, 0.5)]
    expected = [
        (repr(v.u), v.iterations_used, "ok") if isinstance(v, YoccozValue)
        else ("nan", 0, type(v).__name__)
        for v in u_values(QUAD, lams, **options)
    ]
    fmt = "json" if "json" in flag else "csv"
    assert _grid_cells(out, fmt) == expected
    assert run(capsys, *argv)[1] != out


@pytest.mark.parametrize(
    "flag, options",
    [(("--K", "3"), {"order_cap": 3}), (("--K", "99"), {"order_cap": 64}),
     (("--samples", "16"), {"circle_samples": 16})],
    ids=["K", "K-clamped-to-degree", "samples"],
)
def test_norm_flags_reach_qa_norm(tmp_path, capsys, flag, options):
    g = siegel_series(QUAD, GOLDEN, 64).g
    f = tmp_path / "g.json"
    f.write_text(json.dumps(g.to_pairs()))
    argv = ("norm", "--series", str(f), "--r", "0.15")
    _, out, _ = run(capsys, *argv, *flag)
    assert json.loads(out) == _printed(dataclasses.asdict(qa_norm(g, 0.15, **options)))
    assert run(capsys, *argv)[1] != out


def test_norm_negative_order_cap_is_a_precondition_error(tmp_path, capsys):
    f = tmp_path / "series.json"
    f.write_text(json.dumps([0, 1, 0.5]))
    code, out, _ = run(capsys, "norm", "--series", str(f), "--r", "0.5", "--K", "-1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize(
    "flag, n, samples", [(("--degree", "64"), 64, 4), (("--samples", "6"), 128, 6)]
)
def test_boundary_flags_reach_the_curve(capsys, flag, n, samples):
    argv = ("boundary", "--family", "quadratic", "--alpha", "golden", "--rho", "-1.5")
    if "--samples" not in flag:
        argv += ("--samples", "4")
    code, out, _ = run(capsys, *argv, *flag)
    assert code == 0
    g = siegel_series(QUAD, GOLDEN, n).g
    gv, gp = qanorm.circle_values(g.coeffs, math.exp(-1.5), samples, order_cap=1)
    rows = [[float(x) for x in row] for row in list(csv.reader(io.StringIO(out)))[1:]]
    assert rows == [[j / samples, v.real, v.imag, a] for j, (v, a) in enumerate(zip(gv, np.abs(gp)))]
    assert run(capsys, *argv)[1] != out


# -- dip ---------------------------------------------------------------------

DIP = ("dip", "--family", "quadratic", "--alpha", "rat:1/2", "--halfwidth", "1e-2")


def _dip_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_dip_rows_are_sorted_symmetric_offsets_down_the_dip(capsys):
    code, out, _ = run(capsys, *DIP, "--points", "5", "--degree", "64")
    assert code == 0
    assert out.splitlines()[0] == "offset,rho_hat,status"
    rows = _dip_rows(out)
    offsets = [float(row["offset"]) for row in rows]
    assert len(rows) == 10 and offsets == sorted(offsets)
    assert [-t for t in reversed(offsets)] == offsets
    assert offsets[-1] == 1e-2
    assert {row["status"] for row in rows} == {"ok"}
    # rho falls toward 1/2 from either side
    rho = [float(row["rho_hat"]) for row in rows]
    assert rho[:5] == sorted(rho[:5], reverse=True) and rho[5:] == sorted(rho[5:])


@pytest.mark.parametrize(
    "alpha, bad, status",
    # 1/2 +- 1e-2 are the floats of 49/100 and 51/100, resonant at the
    # default degree 128; 0.995 + 1e-2 leaves (0, 1)
    [("rat:1/2", [0, 3], "DivisorBreakdownError"), ("float:0.995", [3], "PreconditionError")],
)
def test_dip_failed_offsets_carry_their_error_class(capsys, alpha, bad, status):
    code, out, _ = run(capsys, *DIP, "--alpha", alpha, "--points", "2")
    assert code == 0
    rows = _dip_rows(out)
    assert [i for i, row in enumerate(rows) if row["status"] != "ok"] == bad
    for i in bad:
        assert (rows[i]["rho_hat"], rows[i]["status"]) == ("nan", status)


@pytest.mark.parametrize("flag, options", [((), {}), (("--degree", "64"), {"n": 64})])
def test_dip_degree_reaches_rho_coefficients(capsys, flag, options):
    argv = (*DIP, "--points", "3")
    code, out, _ = run(capsys, *argv, *flag)
    assert code == 0
    rows = _dip_rows(out)
    expected = [
        ("nan", type(est).__name__) if isinstance(est, SiegelnumError) else (repr(est.rho_hat), "ok")
        for est in rho_coefficients(QUAD, [0.5 + float(row["offset"]) for row in rows], **options)
    ]
    assert [(row["rho_hat"], row["status"]) for row in rows] == expected
    if flag:
        assert run(capsys, *argv)[1] != out


@pytest.mark.parametrize(
    "flag",
    [("--points", "0"), ("--halfwidth", "0"), ("--halfwidth", "nan"), ("--halfwidth", "inf"),
     ("--alpha", "rat:3/2"), ("--degree", "16")],
    ids=["points-0", "halfwidth-0", "halfwidth-nan", "halfwidth-inf", "alpha-3/2", "degree-16"],
)
def test_dip_bad_input_is_a_precondition_error(capsys, flag):
    code, out, err = run(capsys, *DIP, "--points", "3", *flag)
    assert (code, err) == (2, "")
    assert json.loads(out)["error"]["type"] == "PreconditionError"


# -- failure paths of grid and construct ---------------------------------------


def test_grid_failed_cells_carry_their_error_class(capsys):
    code, out, _ = run(
        capsys, "grid", "--family", "quadratic", "--rmin", "0.9", "--rmax", "0.99",
        "--res", "2", "--budget", "1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    statuses = {row["status"] for row in rows}
    assert {"NoConvergenceError", "EntryRadiusError"} <= statuses
    for row in rows:
        if row["status"] != "ok":
            assert (row["u"], row["iterations"]) == ("nan", "0")


def test_construct_stall_reports_the_partial_run(capsys):
    code, out, _ = run(capsys, "construct", "--delta", "1e-9")
    assert code == 3
    body = json.loads(out)["error"]
    assert body["type"] == "ConstructionStallError"
    assert body["partial_report"]["steps"] == []


def test_construct_stall_prints_the_steps_it_made(capsys):
    code, out, _ = run(capsys, "construct", "--depth", "6")
    assert code == 3
    steps = json.loads(out)["error"]["partial_report"]["steps"]
    assert len(steps) == 5
    for step in steps:
        keys = list(step)
        assert keys[:4] == ["n", "alpha", "anchor", "target_rho"] and keys[-1] == "retries"
        p, q = step["anchor"].split("/")
        assert 0 < int(p) < int(q)
    with pytest.raises(ConstructionStallError) as exc:
        run_construction(ConstructionConfig(depth=6))
    assert steps == _printed(exc.value.partial_report.describe())["steps"]


# -- where output goes, and the exit code when it cannot ---------------------


def test_unwritable_out_exits_two_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "families", "list", "--out", str(target))
    assert (code, err) == (2, "")
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (("families", "show", "nope"), 2, "PreconditionError"),
        (("radius", "--family", "quadratic", "--alpha", "rat:1/2", "--method", "coeff"),
         3, "DivisorBreakdownError"),
        # an exact rational has no Siegel series, however far beyond the
        # degree its resonance lies
        (("boundary", "--family", "quadratic", "--alpha", "rat:89/144", "--degree", "128", "--rho", "-1.3"),
         3, "DivisorBreakdownError"),
        (("construct", "--alpha0", "rat:233/377"), 3, "DivisorBreakdownError"),
    ],
)
def test_failure_body_goes_to_stdout_despite_out(tmp_path, capsys, argv, code, error):
    target = tmp_path / "out.json"
    got, out, _ = run(capsys, *argv, "--out", str(target))
    assert got == code
    assert json.loads(out)["error"]["type"] == error
    assert not target.exists()


def test_top_level_out_is_gone(capsys):
    code, out, err = run(capsys, "--out", "f", "families", "list")
    assert (code, out) == (1, "")
    assert err.startswith("usage")


def _run_with_closed_stdout(command, unbuffered):
    """Exit code and stderr of `python *command` writing to a pipe whose
    read end is closed before the child starts, so every write meets EPIPE:
    at the flush when stdout is buffered, at the write itself under -u."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(siegelnum.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    flags = ["-u"] if unbuffered else []
    try:
        proc = subprocess.run(
            [sys.executable, *flags, *command], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


DIP_ARGV = ("-m", "siegelnum", *DIP, "--points", "3", "--degree", "64")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command, code",
    [
        (("-m", "siegelnum", "families", "show", "exp"), 0),
        (("-m", "siegelnum", "grid", "--family", "exp", "--rmin", "0.1", "--rmax", "0.9", "--res", "8"), 0),
        (("-m", "siegelnum", "families", "show", "nope"), 2),
        (DIP_ARGV, 0),
    ],
    ids=["json", "csv", "error-body", "dip"],
)
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(command, code, unbuffered):
    assert _run_with_closed_stdout(command, unbuffered) == (code, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_out_with_a_closed_stdout_writes_the_file_quietly(tmp_path, unbuffered):
    target = tmp_path / "dip.csv"
    assert _run_with_closed_stdout((*DIP_ARGV, "--out", str(target)), unbuffered) == (0, b"")
    lines = target.read_text().splitlines()
    assert lines[0] == "offset,rho_hat,status" and len(lines) == 7
