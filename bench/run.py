"""siegelnum benchmark: end-to-end timings, or per-layer numbers from a traced run.

Run from the root of a checkout (``src/siegelnum`` must be there):

    python3 bench/run.py --workload u_sweep --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with the package untouched.
--trace 1 runs every job twice, once plain and once with the outside-in
tracer installed (alternating which goes first), and reports per-layer
metrics plus the tracing overhead (traced minus untraced median job time).
Jobs run one at a time.  --seconds fixes how many: the workload's job
count for that many seconds at its nominal job time (workloads.py), so the
same seed and --seconds always give the same jobs, the same outcomes and the
same attempted and failed counts, and a faster program finishes sooner.  A
run that overruns TIME_CAP times --seconds stops after its current job and
says so in the result file.  Every job's output is checked.  A summary line goes to stdout and
the full result, with the machine's environment, to bench/out/; the last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Job times are normalized to a reference machine speed.  On a shared
2-core VM the processor's speed drifted by tens of percent between runs a
few minutes apart, and within a run too.  So a background thread times a
fixed 1 ms reference kernel every quarter second, and each job's time is
scaled by REFERENCE_S over the median kernel time sampled during it (and
within a second either side); setup_s likewise, per interpreter start.
Raw times stay in the result file.
"""

from __future__ import annotations

import os

# Pin before numpy loads: one BLAS thread, and no worker pool behind grid
# (SIEGELNUM_WORKERS is the only environment override RunConfig honours).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SIEGELNUM_WORKERS", None)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 9
SPEED_EVERY_S = 0.25
SPEED_WINDOW_S = 1.0
REFERENCE_S = 0.001  # reference-kernel time at which normalized figures equal raw ones
TIME_CAP = 2.0  # a run stops early once it has taken this many times --seconds
MAX_RUN_S = 150.0  # and in any case by then, to leave room for setup within 180 s


def _import_package():
    """Import siegelnum from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "siegelnum", "__init__.py")):
        sys.stderr.write(f"bench: no siegelnum package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import siegelnum

    if os.path.dirname(os.path.dirname(os.path.abspath(siegelnum.__file__))) != SRC:
        sys.stderr.write(f"bench: imported siegelnum from {siegelnum.__file__}, not {SRC}\n")
        sys.exit(2)


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import the package, build the first job's inputs."""
    _import_package()
    from workloads import WORKLOADS

    next(WORKLOADS[workload].input_stream(seed))
    print(time.monotonic(), flush=True)


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python complex arithmetic loop (about 1 ms).

    It holds the interpreter lock throughout, well under the 5 ms switch
    interval, so a sample taken while a job runs times the processor alone.
    """
    t0 = time.perf_counter()
    acc, z = 0j, 0.5 + 0.25j
    for _ in range(10_000):
        acc = acc * z + 1.0
    return time.perf_counter() - t0


class Speedometer:
    """Samples the reference kernel from a background thread through a run.

    ``scale(t0, t1)`` converts raw seconds spent in [t0, t1] (perf_counter
    times) to seconds on a machine that runs the kernel in REFERENCE_S,
    from the samples taken within SPEED_WINDOW_S of that interval.  A
    sample costs the job about 1 ms in SPEED_EVERY_S.
    """

    def __init__(self):
        self.samples = []  # (perf_counter time, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        self.samples.append((time.perf_counter(), reference_kernel()))

    def _run(self):
        while not self._stop.wait(SPEED_EVERY_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        near = [k for t, k in self.samples if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        return REFERENCE_S / statistics.median(near)

    def run_scale(self) -> float:
        return REFERENCE_S / statistics.median(k for _, k in self.samples)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the first job's inputs
    ready: normalized and raw, one of each per start."""
    raw, windows = [], []
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            t0, w0 = time.monotonic(), time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            raw.append(float(proc.stdout.split()[-1]) - t0)
            windows.append((w0, time.perf_counter()))
    return [t * speed.scale(*w) for t, w in zip(raw, windows)], raw


def environment() -> dict:
    import numpy as np
    from siegelnum.config import RunConfig

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    worker_count = RunConfig.load(None).worker_count
    if worker_count != 1:
        raise RuntimeError(f"grid would run with {worker_count} workers")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(np)},
        "blas_threads_pinned_by": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "SIEGELNUM_WORKERS": "cleared",
        "grid_worker_count": worker_count,
    }


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


class Tally:
    """Counts job outcomes; a failure matching no known defect makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.known = {}
        self.examples = []
        self.rejected_candidates = 0

    def add(self, ok: bool, detail: str = "", known_defect: str | None = None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_defect:
            self.known[known_defect] = self.known.get(known_defect, 0) + 1
        else:
            self.unexpected += 1
        if len(self.examples) < 5:
            self.examples.append(detail)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "error_frac": self.failed / self.attempted,
                "unexpected_failures": self.unexpected, "known_defects": self.known,
                "failure_examples": self.examples}


def run_job(workload, inp, tally: Tally, tracer=None, job_id=None) -> float:
    """Run and check one job; returns its wall time (the check is not timed)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.job(inp)
        else:
            with tracer.installed(job_id):
                result = workload.job(inp)
    except Exception as exc:  # an error the workload does not expect fails the job, not the run
        seconds = time.perf_counter() - t0
        tally.add(False, f"{type(exc).__name__}: {exc}")
        return seconds
    seconds = time.perf_counter() - t0
    outcome = workload.check(inp, result)
    tally.add(outcome.ok, outcome.detail, outcome.known_defect)
    tally.rejected_candidates += outcome.rejected_candidates
    return seconds


def run_untraced(workload, seed: int, n_jobs: int, cap_s: float = math.inf) -> dict:
    tally = Tally()
    jobs = []  # (job seconds, start, end of job and its check)
    inputs = workload.input_stream(seed)
    with Speedometer() as speed:
        t_start = time.perf_counter()
        while len(jobs) < n_jobs:
            t0 = time.perf_counter()
            job_s = run_job(workload, next(inputs), tally)
            t1 = time.perf_counter()
            jobs.append((job_s, t0, t1))
            if t1 - t_start >= cap_s:
                break
    raw = [job_s for job_s, _, _ in jobs]
    scales = [speed.scale(t0, t1) for _, t0, t1 in jobs]
    times = [job_s * k for (job_s, _, _), k in zip(jobs, scales)]
    busy = sum((t1 - t0) * k for (_, t0, t1), k in zip(jobs, scales))
    result = {
        "jobs": len(jobs),
        "capped": len(jobs) < n_jobs,
        "job_p50_s": statistics.median(times),
        "jobs_per_s": len(jobs) / busy,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_job_p50_s": statistics.median(raw),
        "raw_jobs_per_s": len(jobs) / (jobs[-1][2] - jobs[0][1]),
        "run_scale": speed.run_scale(),
        "speed_samples": len(speed.samples),
        "tally": tally,
    }
    if len(jobs) >= 100:  # the 90th percentile needs at least 10 jobs above it
        result["job_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return result


def run_traced(workload, seed: int, n_jobs: int, cap_s: float = math.inf,
               spans_path: str | None = None) -> dict:
    """Each job runs plain and traced, alternating which goes first."""
    from tracing import Tracer

    tracer = Tracer()
    tally = Tally()
    plain, traced = [], []  # (job seconds, start, end)
    inputs = workload.input_stream(seed)
    with Speedometer() as speed:
        t_start = time.perf_counter()
        while len(traced) < n_jobs:
            inp = next(inputs)
            job_id = len(traced)
            for with_trace in ((False, True) if job_id % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if with_trace:
                    traced.append((run_job(workload, inp, tally, tracer, job_id), t0,
                                   time.perf_counter()))
                else:
                    plain.append((run_job(workload, inp, tally), t0, time.perf_counter()))
            if time.perf_counter() - t_start >= cap_s:
                break
    jobs = len(traced)
    agg = tracer.aggregate(jobs)
    metrics = agg["per_job"]
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] *= speed.run_scale()
    # the tally saw every job twice, once plain and once traced
    metrics["construction.rejected_candidates"] = tally.rejected_candidates / (2 * jobs)
    traced_p50 = statistics.median(t * speed.scale(t0, t1) for t, t0, t1 in traced)
    plain_p50 = statistics.median(t * speed.scale(t0, t1) for t, t0, t1 in plain)
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    if spans_path:
        tracer.write(spans_path)
    return {"jobs": jobs, "capped": jobs < n_jobs, "metrics": metrics, "refused_by_class": agg["refused_by_class"],
            "spans": agg["spans"], "tally": tally, "run_scale": speed.run_scale(),
            "traced_job_p50_s": traced_p50, "untraced_job_p50_s": plain_p50}


END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "jobs_per_s": "1/s",
                    "ok_frac": "ratio", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(("distinct_ratio", "span_coverage")):
        return "ratio"
    if name.endswith("overhead_s"):
        return "s"
    return "s/job" if name.endswith("self_s") else "count/job"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    cap_s = min(TIME_CAP * args.seconds, MAX_RUN_S)

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz")
        # every job runs twice, plain and traced, in the same time as an untraced run
        n_jobs = workload.job_count(args.seconds / 2)
        res = run_traced(workload, args.seed, n_jobs, cap_s, spans_path=spans_path)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in res["metrics"].items()}
        record.update(traced_jobs=res["jobs"], spans=res["spans"],
                      spans_file=os.path.relpath(spans_path, ROOT),
                      refused_by_class=res["refused_by_class"],
                      traced_job_p50_s=res["traced_job_p50_s"],
                      untraced_job_p50_s=res["untraced_job_p50_s"],
                      run_scale=res["run_scale"])
    else:
        setup, raw_setup = measure_setup(args.workload, args.seed)
        n_jobs = workload.job_count(args.seconds)
        res = run_untraced(workload, args.seed, n_jobs, cap_s)
        values = {"setup_s": statistics.median(setup),
                  **{k: res[k] for k in ("job_p50_s", "jobs_per_s", "ok_frac", "peak_rss_mb")}}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record.update(jobs=res["jobs"], speed_samples=res["speed_samples"],
                      raw_setup_samples_s=raw_setup,
                      raw_setup_s=statistics.median(raw_setup),
                      raw_job_p50_s=res["raw_job_p50_s"], raw_jobs_per_s=res["raw_jobs_per_s"],
                      run_scale=res["run_scale"],
                      job_p90_s=res.get("job_p90_s"),
                      job_p90_note=None if "job_p90_s" in res else
                      f"omitted: {res['jobs']} jobs in the run, fewer than 100")
    tally = res["tally"]
    record.update(jobs_planned=n_jobs, capped=res["capped"], outcomes=tally.summary(), metrics=metrics)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "environment")}))
    # "failed" counts failures that match no known defect, so on a correct
    # program it is 0 whatever the seed; known defects still lower ok_frac
    # and are counted in the result file's outcomes.
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.unexpected, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
