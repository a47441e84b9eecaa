"""Self-check of the benchmark: every workload at a tiny size, traced and plain.

    python3 bench/selfcheck.py

Asserts that each workload's output checks pass (known defects aside),
that the untraced and traced runs report exactly the metrics, and units,
that BENCHMARK.json names, and that each per-layer metric attributed to a
workload reads non-zero on it.  A rename or re-import inside the package that made the
tracer miss a layer would otherwise read as a silent zero.
"""

from __future__ import annotations

import json
import os
import sys

import run

ATTRIBUTED = {
    "u_sweep": (
        "cli.main.calls", "linearize.yoccoz_w.calls", "linearize.koenigs_series.calls",
        "linearize.entry_radius.calls", "linearize.koenigs_eval.orbit_iters",
        "series.evaluate.calls", "families.family_series.calls",
    ),
    "radius_scan": (
        "radius.rho_radial.calls", "radius.rho_coefficient.calls",
        "radius.rho_coefficient.refused", "linearize.koenigs_eval.orbit_iters",
        "linearize.koenigs_series.calls", "linearize.entry_radius.calls",
        "linearize.siegel_series.calls", "linearize.siegel_series.distinct_ratio",
    ),
    "construct": (
        "linearize.siegel_series.calls", "linearize.siegel_series.distinct_ratio",
        "construction.find_alpha_with_rho.calls", "construction.find_alpha_with_rho.probes",
        "construction.boundary_report.calls", "qanorm.qa_norm.calls",
        "radius.rho_coefficient.calls", "radius.rho_radial.calls",
    ),
}
# one block of 8 radius_scan jobs holds every family and two rationals
TINY_JOBS = {"u_sweep": 1, "radius_scan": 8, "construct": 1}
SEED = 0


def main() -> int:
    run._import_package()
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for group, unit_of in (("end_to_end", run.END_TO_END_UNITS.get),
                           ("per_layer", run.per_layer_unit)):
        for m in spec[group]:
            if unit_of(m["name"]) != m["unit"]:
                problems.append(f"{m['name']}: unit {m['unit']} in BENCHMARK.json, "
                                f"{unit_of(m['name'])} in run.py")
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]} == set(ATTRIBUTED)
    for name, workload in WORKLOADS.items():
        jobs = TINY_JOBS[name]
        plain = run.run_untraced(workload, SEED, jobs)
        traced = run.run_traced(workload, SEED, jobs)
        for label, res in (("untraced", plain), ("traced", traced)):
            if res["tally"].unexpected:
                problems.append(f"{name} {label}: output check failed: {res['tally'].summary()}")
        missing = end_to_end - set(plain)
        if missing:
            problems.append(f"{name}: untraced run lacks {sorted(missing)}")
        if set(traced["metrics"]) != per_layer:
            problems.append(f"{name}: traced metrics differ from BENCHMARK.json: "
                            f"{sorted(set(traced['metrics']) ^ per_layer)}")
        zero = [m for m in ATTRIBUTED[name] if not traced["metrics"].get(m)]
        if zero:
            problems.append(f"{name}: attributed per-layer metrics read zero: {zero}")
        print(f"{name}: {jobs} job(s) checked, {traced['spans']} spans", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
