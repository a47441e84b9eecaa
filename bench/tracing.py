"""Outside-in tracing: spans around the package's public functions.

The package has no tracing of its own, so the benchmark wraps each layer's
public functions and patches every ``siegelnum`` module that bound the
original, under any name (``from .linearize import siegel_series`` makes
a second binding that the wrapper must replace, or calls from ``radius``
or ``cli`` would skip it).  Spans are kept in memory as (name, start, end, parent, job,
refusal, extra) and aggregated or written out after the run.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from siegelnum import errors

# (module, function): the layers named in README.md.  config and errors do
# no timed work.
TARGETS = (
    ("series", "evaluate"),
    ("families", "family_series"),
    ("linearize", "koenigs_series"),
    ("linearize", "entry_radius"),
    ("linearize", "koenigs_eval"),
    ("linearize", "yoccoz_w"),
    ("linearize", "siegel_series"),
    ("radius", "rho_radial"),
    ("radius", "rho_coefficient"),
    ("qanorm", "qa_norm"),
    ("construction", "boundary_report"),
    ("construction", "find_alpha_with_rho"),
    ("cli", "main"),
)
LAYERS = tuple(f"{m}.{f}" for m, f in TARGETS)
ESTIMATORS = ("radius.rho_coefficient", "radius.rho_radial")
FIND_ALPHA = "construction.find_alpha_with_rho"
JOB = "job"  # root span of one traced job; every other span nests inside one


def _siegel_key(signature):
    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return (a["family"].family_id, float(getattr(a["alpha"], "value", a["alpha"])), a["n"])
    return key


class Tracer:
    """Records spans for the calls made while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._job = None
        self._originals = {}
        for mod_name, fn_name in TARGETS:
            module = sys.modules[f"siegelnum.{mod_name}"]
            self._originals[(mod_name, fn_name)] = getattr(module, fn_name)
        sig = inspect.signature(self._originals[("linearize", "siegel_series")])
        self._before = {"linearize.siegel_series": _siegel_key(sig)}
        self._after = {
            "linearize.koenigs_eval": lambda result: result[1],
            "radius.rho_radial": lambda result: len(result.failures),
        }
        self._wrappers = {
            key: self._wrap(f"{key[0]}.{key[1]}", fn) for key, fn in self._originals.items()
        }

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = self._before.get(name), self._after.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = before(args, kwargs) if before else None
            refusal = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after:
                    extra = after(result)
                return result
            except errors.SiegelnumError as exc:
                refusal = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._job, refusal, extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, to_wrapper: bool):
        """Rebind every siegelnum module attribute that holds a target (under
        any name) to its wrapper, or back to the original."""
        swap = {}
        for key, original in self._originals.items():
            wrapper = self._wrappers[key]
            swap[id(original if to_wrapper else wrapper)] = wrapper if to_wrapper else original
        for module_name, module in list(sys.modules.items()):
            if module_name != "siegelnum" and not module_name.startswith("siegelnum."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])

    @contextlib.contextmanager
    def installed(self, job_id):
        """Trace one job: patch the wrappers in, record a root span, restore."""
        self._patch(to_wrapper=True)
        self._job = job_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (JOB, t0, t1, -1, job_id, None, None)
            self._job = None
            self._patch(to_wrapper=False)

    def aggregate(self, jobs: int) -> dict:
        """Per-job layer metrics, span coverage of job wall time, refusals by class."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls, self_s, refused = Counter(), defaultdict(float), Counter()
        refused_by_class = defaultdict(Counter)
        extras = Counter()
        probes = 0
        siegel_keys = defaultdict(set)
        job_time = covered = 0.0
        for idx, (name, t0, t1, parent, job, refusal, extra) in enumerate(self.spans):
            if name == JOB:
                job_time += t1 - t0
                covered += child_time[idx]
                continue
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[idx]
            if refusal:
                refused[name] += 1
                refused_by_class[name][refusal] += 1
            if name == "linearize.siegel_series":
                siegel_keys[job].add(extra)
            elif extra is not None:
                extras[name] += extra
            if name in ESTIMATORS and self.spans[parent][0] == FIND_ALPHA:
                probes += 1
        siegel_calls = calls["linearize.siegel_series"]
        distinct = sum(len(keys) for keys in siegel_keys.values())
        per_job = {}
        for name in LAYERS:
            per_job[f"{name}.calls"] = calls[name] / jobs
            per_job[f"{name}.self_s"] = self_s[name] / jobs
        per_job.update({
            "linearize.koenigs_eval.orbit_iters": extras["linearize.koenigs_eval"] / jobs,
            "linearize.yoccoz_w.refused": refused["linearize.yoccoz_w"] / jobs,
            "linearize.siegel_series.distinct_ratio": distinct / siegel_calls if siegel_calls else 0.0,
            "linearize.siegel_series.refused": refused["linearize.siegel_series"] / jobs,
            "radius.rho_radial.failed_depths": extras["radius.rho_radial"] / jobs,
            "radius.rho_coefficient.refused": refused["radius.rho_coefficient"] / jobs,
            "qanorm.qa_norm.refused": refused["qanorm.qa_norm"] / jobs,
            "construction.find_alpha_with_rho.probes": probes / jobs,
            "trace.span_coverage": covered / job_time if job_time else 0.0,
        })
        return {
            "per_job": per_job,
            "refused_by_class": {k: dict(v) for k, v in sorted(refused_by_class.items())},
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, t0, t1, parent, job, refusal, extra in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, job, refusal, extra]) + "\n")
