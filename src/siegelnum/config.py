"""Run-wide configuration: precision mode, default resolutions, output format."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = ["RunConfig", "dtype_for", "WORKER_ENV_VAR"]

# The only setting that may be overridden from the environment.
WORKER_ENV_VAR = "SIEGELNUM_WORKERS"

_DTYPES = {
    "double": np.complex128,
    # 80-bit x87 extended on x86 Linux; backend choice is deliberately opaque
    # to callers, who only ever name the mode.
    "extended": np.clongdouble,
}


def dtype_for(precision_mode: str):
    """Map a precision mode name to the complex dtype used for series work."""
    try:
        return _DTYPES[precision_mode]
    except KeyError:
        raise PreconditionError(
            f"unknown precision mode {precision_mode!r}; expected one of {sorted(_DTYPES)}"
        ) from None


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by CLI subcommands.

    worker_count is validated but drives nothing: grid runs its whole sweep
    as one batched u_values call, which a process pool no longer beats.
    The field stays because bench/run.py reads it.
    """

    precision_mode: str = "double"
    default_degree: int = 128
    default_depth: int = 12
    output_format: str = "csv"  # tabular sweeps (grid); other output is JSON
    seed: int = 0
    worker_count: int = 1

    def __post_init__(self):
        dtype_for(self.precision_mode)  # validate eagerly
        if self.output_format not in ("json", "csv"):
            raise PreconditionError(f"unknown output format {self.output_format!r}")
        if self.default_degree < 2:
            raise PreconditionError("default_degree must be >= 2")
        if self.default_depth < 2:
            raise PreconditionError("default_depth must be >= 2")
        if self.worker_count < 1:
            raise PreconditionError("worker_count must be >= 1")

    @property
    def dtype(self):
        return dtype_for(self.precision_mode)

    @classmethod
    def load(cls, path: str | None = None) -> "RunConfig":
        """Build a config from an optional JSON file plus the environment.

        Only ``worker_count`` honours an environment override
        (``SIEGELNUM_WORKERS``); every other field comes from the file or
        the defaults.
        """
        fields = {}
        if path is not None:
            with open(path) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise PreconditionError(f"config file {path} must hold a JSON object")
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = set(raw) - known
            if unknown:
                raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
            fields.update(raw)
        env_workers = os.environ.get(WORKER_ENV_VAR)
        if env_workers is not None:
            try:
                fields["worker_count"] = int(env_workers)
            except ValueError:
                raise PreconditionError(
                    f"{WORKER_ENV_VAR} must be an integer, got {env_workers!r}"
                ) from None
        return cls(**fields)
