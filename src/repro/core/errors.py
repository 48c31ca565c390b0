"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate the failure class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object was constructed with inconsistent values."""


class RequestLimitError(ConfigError):
    """A request asked for more work than
    :class:`repro.core.limits.RequestLimits` allows.

    Raised before anything is allocated; ``field`` names what was
    asked for, ``value`` how much, ``limit`` the cap.
    """

    def __init__(self, field: str, value: int, limit: int) -> None:
        super().__init__(f"{field} = {value} exceeds the cap of {limit}")
        self.field = field
        self.value = value
        self.limit = limit

    def __reduce__(self):
        # Rebuilt from its fields when it crosses a process boundary.
        return type(self), (self.field, self.value, self.limit)


class OutOfMemoryError(ReproError):
    """No physical frame could satisfy an allocation request.

    Raised by the physical allocator when *every* zone in the fallback
    chain is exhausted, mirroring the kernel OOM condition.  Policies that
    merely prefer a full zone fall back silently instead of raising.
    """


class AllocationError(ReproError):
    """A virtual allocation request was malformed (zero size, bad hint...)."""


class TranslationError(ReproError):
    """A virtual address was dereferenced without a valid mapping."""


class PolicyError(ReproError):
    """A placement policy was misconfigured or used out of contract."""


class ProfileError(ReproError):
    """Profile data was missing, malformed, or inconsistent with a trace."""


class SimulationError(ReproError):
    """The GPU simulator reached an inconsistent internal state."""


class WorkloadError(ReproError):
    """A workload or dataset name could not be resolved, or a trace request
    was invalid for the given workload."""


class IngestError(WorkloadError):
    """An external trace file failed validation or exceeded a cap.

    Raised by :mod:`repro.ingest` for every rejection of untrusted
    input — malformed lines, unknown commands, resource-cap overruns,
    registry checksum mismatches.  Carries a line-precise location so
    error reports (CLI, HTTP 422 bodies, quarantine records) can point
    at the offending byte: ``file`` is the source label, ``line`` and
    ``column`` are 1-based (0 = not line-specific), ``reason`` the
    human-readable diagnosis.
    """

    def __init__(self, reason: str, file: str = "<bytes>",
                 line: int = 0, column: int = 0) -> None:
        location = file
        if line > 0:
            location += f":{line}"
            if column > 0:
                location += f":{column}"
        super().__init__(f"{location}: {reason}")
        self.reason = reason
        self.file = file
        self.line = line
        self.column = column

    def __reduce__(self):
        return type(self), (self.reason, self.file, self.line, self.column)

    def to_dict(self) -> dict:
        """JSON-able structure for HTTP error bodies and quarantine
        records."""
        return {
            "reason": self.reason,
            "file": self.file,
            "line": self.line,
            "column": self.column,
        }


class RunnerError(ReproError):
    """The sweep runner was misconfigured or a worker failed."""


class SweepError(RunnerError):
    """A sweep could not resolve every spec despite recovery.

    Raised by :class:`~repro.runner.sweep.SweepRunner` after retries,
    pool rebuilds, and the degraded serial fallback have all been
    exhausted (or a deadline expired).  ``failed_specs`` names the
    offending spec labels so the caller knows exactly what to exclude
    or investigate; ``causes`` carries one representative exception
    string per failed spec.
    """

    def __init__(self, message: str,
                 failed_specs: "tuple[str, ...] | list[str]" = (),
                 causes: "tuple[str, ...] | list[str]" = ()) -> None:
        super().__init__(message)
        self.failed_specs = tuple(failed_specs)
        self.causes = tuple(causes)


class CacheEncodingError(RunnerError):
    """A cache record contained a value JSON cannot represent exactly.

    Raised instead of silently stringifying unknown types (the old
    ``default=str`` behavior), which produced records that decoded to
    *different* values than were stored — a wrong-result bug, the one
    thing the cache is designed never to do.
    """


class UncacheableSpecError(RunnerError):
    """An experiment input cannot be canonicalized into a :class:`RunSpec`
    (e.g. a custom policy object with state the runner cannot serialize).

    Callers usually fall back to a direct, uncached
    :func:`repro.core.experiment.run_experiment` call.
    """


class ServeError(ReproError):
    """A placement-service request failed.

    Raised by :mod:`repro.serve.client` for non-2xx responses and by the
    daemon for malformed requests.  ``status`` carries the HTTP status
    code (0 for transport failures) and ``retry_after`` the server's
    backpressure hint in seconds, when one was given.
    """

    def __init__(self, message: str, status: int = 0,
                 retry_after: "float | None" = None,
                 payload: "dict | None" = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.payload = payload or {}
