"""Run manifests: what a sweep did and what it cost.

Every :meth:`SweepRunner.run` invocation produces a
:class:`RunManifest` recording the specs it was handed, per-spec cache
hits and execution timings, the worker count and the code-version salt.
When the runner has a ``runs_dir`` the manifest is also written to
``<runs_dir>/<run_id>/manifest.json`` so sweeps are auditable after the
fact — "did that figure actually re-simulate anything?" is answered by
``cache_hits == n_specs``.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.atomicio import atomic_write_text
from repro.runner.cache import strict_json_dumps


@dataclass(frozen=True)
class SpecRecord:
    """Outcome of one spec within a sweep."""

    index: int
    label: str
    cache_key: str
    #: served from the on-disk cache.
    cache_hit: bool
    #: duplicate of an earlier spec in the same batch (shared result).
    deduplicated: bool
    #: execution wall time, seconds; 0.0 for hits and duplicates.
    duration_s: float

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "cache_key": self.cache_key,
            "cache_hit": self.cache_hit,
            "deduplicated": self.deduplicated,
            "duration_s": self.duration_s,
        }


@dataclass
class RunManifest:
    """One sweep invocation, summarized for observability."""

    run_id: str
    created: str
    jobs: int
    n_specs: int
    cache_hits: int
    deduplicated: int
    executed: int
    salt: str
    wall_time_s: float
    cache_dir: Optional[str]
    cache_stats: dict
    records: tuple[SpecRecord, ...] = ()
    #: failure-recovery accounting for the batch (retries, rebuilt
    #: pools, chunk timeouts, degraded-serial executions...); empty
    #: when the sweep ran clean.
    recovery: dict = field(default_factory=dict)
    #: where the manifest was written, when it was.
    path: Optional[Path] = None

    @staticmethod
    def new_run_id() -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S")
        return f"{stamp}-{uuid.uuid4().hex[:6]}"

    @property
    def hit_rate(self) -> float:
        """Fraction of specs served without executing a simulation."""
        if self.n_specs == 0:
            return 1.0
        return (self.cache_hits + self.deduplicated) / self.n_specs

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "created": self.created,
            "jobs": self.jobs,
            "n_specs": self.n_specs,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "executed": self.executed,
            "hit_rate": self.hit_rate,
            "salt": self.salt,
            "wall_time_s": self.wall_time_s,
            "cache_dir": self.cache_dir,
            "cache_stats": self.cache_stats,
            "recovery": self.recovery,
            "specs": [record.as_dict() for record in self.records],
        }

    def write(self, runs_dir: Union[str, Path]) -> Path:
        """Persist to ``<runs_dir>/<run_id>/manifest.json``.

        Compact, strict JSON (a value JSON cannot hold exactly raises
        instead of being stringified), written atomically (temp file +
        fsync + ``os.replace``): a SIGKILL mid-write can never leave a
        truncated manifest behind.
        """
        path = (Path(runs_dir).expanduser() / self.run_id
                / "manifest.json")
        atomic_write_text(path, strict_json_dumps(
            self.as_dict(), separators=(",", ":")))
        self.path = path
        return path

    def summary(self) -> str:
        """One line for CLI output."""
        line = (f"sweep {self.run_id}: {self.n_specs} specs, "
                f"{self.cache_hits} cache hits, "
                f"{self.deduplicated} deduplicated, "
                f"{self.executed} executed, jobs={self.jobs}, "
                f"{self.wall_time_s:.2f}s")
        noteworthy = {k: v for k, v in self.recovery.items() if v}
        quarantined = (self.cache_stats or {}).get("quarantined", 0)
        if quarantined:
            noteworthy["quarantined"] = quarantined
        if noteworthy:
            line += " [recovery: " + ", ".join(
                f"{value} {key}" for key, value in
                sorted(noteworthy.items())) + "]"
        return line
