"""Run-wide configuration: default resolutions and output format."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import ClassVar

from .errors import PreconditionError

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by CLI subcommands."""

    default_degree: int = 128
    default_depth: int = 12
    output_format: str = "csv"  # tabular sweeps (grid); other output is JSON
    # not a setting: grid runs in one process; stays because bench/run.py reads it
    worker_count: ClassVar[int] = 1

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise PreconditionError(f"unknown output format {self.output_format!r}")
        if self.default_degree < 2:
            raise PreconditionError("default_degree must be >= 2")
        if self.default_depth < 2:
            raise PreconditionError("default_depth must be >= 2")

    @classmethod
    def load(cls, path: str | None = None) -> "RunConfig":
        """Build a config from an optional JSON file; absent keys keep their defaults."""
        if path is None:
            return cls()
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise PreconditionError(f"config file {path} must hold a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)
