"""RunConfig.load(None).worker_count, which bench/run.py reads to check that
grid runs in one process.  The CLI has no run configuration: an absent flag
takes the default of the library function it feeds."""

from typing import ClassVar

__all__ = ["RunConfig"]


class RunConfig:
    worker_count: ClassVar[int] = 1  # grid evaluates in one process

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        return cls()
