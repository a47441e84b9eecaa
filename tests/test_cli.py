import cmath
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from siegelnum import cli, get_family, golden_rotation, qanorm, siegel_series
from siegelnum.cli import main
from siegelnum.series import TruncatedSeries, evaluate


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


def test_norm_missing_file(capsys):
    code, out, _ = run(capsys, "norm", "--series", "/nope/missing.json", "--r", "0.5")
    assert code == 2


@pytest.mark.parametrize(
    "coeffs", [[0, 1, ["a", 0.5]], [0, 1, [0.5, None]], [0, 1, "1"], [0, 1, [1]]]
)
def test_norm_malformed_series_file(tmp_path, capsys, coeffs):
    f = tmp_path / "series.json"
    f.write_text(json.dumps(coeffs))
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
    "flag, value", [("--samples", "0"), ("--delta", "0.7")]
)
def test_poisson_check_input_range(capsys, flag, value):
    argv = {"--family": "quadratic", "--alpha": "golden", "--delta": "0.01",
            "--L": "-1.1", "--R": "-1.1", "--samples": "4", flag: value}
    code, out, _ = run(capsys, "poisson-check", *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"


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


@pytest.mark.parametrize("key", ["not_a_field", "precision_mode", "seed", "worker_count"])
def test_config_file_unknown_key(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    code, out, _ = run(capsys, "families", "list", "--config", str(cfg))
    assert code == 2


def test_config_file_applies_degree(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"default_degree": 32}))
    code, out, _ = run(
        capsys, "yoccoz", "--family", "exp", "--lambda", "0.05,0",
        "--config", str(cfg),
    )
    assert code == 0


def test_out_flag_writes_json(tmp_path, capsys):
    target = tmp_path / "families.json"
    code, out, _ = run(capsys, "families", "list", "--out", str(target))
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())) == 6
