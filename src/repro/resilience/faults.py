"""Deterministic fault injection at named sites.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries, each
saying "at *site*, for the first *times* operations whose key contains
*match*, perform *mode*".  The consulting side calls
:meth:`FaultPlan.decide` with the site name and an operation key (a
spec label, a cache key, ...) and gets back either ``None`` or a
:class:`FaultAction` describing what to break.

Decisions are made **in the parent process** — including for faults
that fire inside pool workers: the runner consults the plan at submit
time and ships the resulting action across the process boundary as an
argument, so rule counters live in exactly one process and firing is
fully deterministic (no shared state, no races).

Sites
-----

``runner.chunk``
    One chunk submission (or one serial spec execution) in
    :class:`~repro.runner.sweep.SweepRunner`.  The key is the ``|``-
    joined spec labels of the chunk.  Modes: ``crash`` (worker calls
    ``os._exit``), ``hang`` (worker sleeps ``delay_s`` — pair with a
    chunk timeout), ``error`` (raise :class:`InjectedFaultError`).
``cache.read``
    One :meth:`~repro.runner.cache.ResultCache.get` for an **existing**
    record; the key is the cache key.  Modes: ``corrupt`` (overwrite
    the start of the frame's body with garbage), ``truncate`` (zero
    the frame's second half) — both in place in the segment, before
    the read, so the integrity/quarantine path runs against a
    genuinely damaged frame.
``cache.write``
    One record of a :meth:`~repro.runner.cache.ResultCache.put` or
    ``put_many``.  Mode ``truncate`` appends half the frame and
    abandons the segment — what a writer killed mid-append leaves —
    and later records go to another segment; ``error`` raises after
    the records before it are stored.
``serve.simulate``
    One simulate job in :class:`~repro.serve.service.PlacementService`.
    Modes: ``error`` (job fails — feeds the circuit breaker), ``hang``
    (job sleeps ``delay_s`` on the event loop — pair with deadlines
    or drain tests).

Environment form (``REPRO_FAULTS``)::

    REPRO_FAULTS='runner.chunk:crash:1;cache.write:truncate:1@bfs'

i.e. ``site:mode[:times][@match]`` entries separated by ``;``.  An
installed plan (:func:`install_plan`) takes precedence over the
environment; both are consulted lazily via :func:`active_plan`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.errors import ConfigError, ReproError

#: environment variable carrying a fault plan spec string.
FAULTS_ENV = "REPRO_FAULTS"

FAULT_SITES = (
    "runner.chunk",
    "cache.read",
    "cache.write",
    "serve.simulate",
)

FAULT_MODES = ("crash", "hang", "error", "corrupt", "truncate")

#: default artificial-hang duration; long relative to the chunk
#: timeouts tests pair it with, short enough not to strand CI workers.
DEFAULT_HANG_S = 1.5


class InjectedFaultError(ReproError):
    """A transient failure raised by fault injection.

    Recovery code treats it like any other transient exception — the
    point of injecting it is that the retry/breaker paths cannot tell
    it apart from the real thing.
    """


@dataclass(frozen=True)
class FaultAction:
    """One concrete decision: what to break, where, how."""

    site: str
    mode: str
    delay_s: float = DEFAULT_HANG_S

    def describe(self) -> str:
        return f"{self.site}:{self.mode}"


@dataclass
class FaultRule:
    """Fire ``mode`` at ``site`` for the first ``times`` matching ops."""

    site: str
    mode: str
    times: int = 1
    match: str = ""
    delay_s: float = DEFAULT_HANG_S
    #: how often this rule has fired (mutated by the owning plan).
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if self.mode not in FAULT_MODES:
            raise ConfigError(
                f"unknown fault mode {self.mode!r}; known: {FAULT_MODES}"
            )
        if self.times < 1:
            raise ConfigError("fault rule 'times' must be >= 1")

    def wants(self, key: str) -> bool:
        return self.fired < self.times and self.match in key


class FaultPlan:
    """An ordered set of fault rules with deterministic accounting."""

    def __init__(self, rules: Sequence[FaultRule] = (),
                 seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.describe() or 'empty'}>"

    def decide(self, site: str, key: str = "") -> Optional[FaultAction]:
        """The action to perform at ``site`` for ``key``, if any.

        The first still-armed rule matching (site, key) fires and its
        counter advances; later rules for the same site wait their
        turn.  Deterministic: depends only on the plan and the
        sequence of ``decide`` calls.
        """
        for rule in self.rules:
            if rule.site == site and rule.wants(key):
                rule.fired += 1
                return FaultAction(site=site, mode=rule.mode,
                                   delay_s=rule.delay_s)
        return None

    def fired_counts(self) -> dict[str, int]:
        """``{'site:mode': fired}`` for every rule that fired."""
        counts: dict[str, int] = {}
        for rule in self.rules:
            if rule.fired:
                label = f"{rule.site}:{rule.mode}"
                counts[label] = counts.get(label, 0) + rule.fired
        return counts

    def describe(self) -> str:
        return ";".join(
            f"{r.site}:{r.mode}:{r.times}"
            + (f"@{r.match}" if r.match else "")
            for r in self.rules
        )

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_string(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``site:mode[:times][@match][;...]`` into a plan."""
        rules = []
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            body, _, match = entry.partition("@")
            parts = body.strip().split(":")
            if len(parts) < 2 or len(parts) > 3:
                raise ConfigError(
                    f"bad fault entry {entry!r}; expected "
                    "site:mode[:times][@match]"
                )
            times = 1
            if len(parts) == 3:
                try:
                    times = int(parts[2])
                except ValueError:
                    raise ConfigError(
                        f"fault entry {entry!r}: times must be an integer"
                    )
            rules.append(FaultRule(site=parts[0].strip(),
                                   mode=parts[1].strip(),
                                   times=times, match=match.strip()))
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or ``None``."""
        raw = (environ or os.environ).get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        return cls.from_string(raw)


# ----------------------------------------------------------------------
# The process-wide plan: installed explicitly or parsed from the env.
# ----------------------------------------------------------------------

_INSTALLED: Optional[FaultPlan] = None
_ENV_PLAN: Optional[FaultPlan] = None
_ENV_PARSED = False


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or with ``None``, remove) the process-wide plan."""
    global _INSTALLED
    _INSTALLED = plan
    return plan


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the (lazily parsed) ``REPRO_FAULTS`` one."""
    global _ENV_PLAN, _ENV_PARSED
    if _INSTALLED is not None:
        return _INSTALLED
    if not _ENV_PARSED:
        _ENV_PLAN = FaultPlan.from_env()
        _ENV_PARSED = True
    return _ENV_PLAN


def reset_active_plan() -> None:
    """Forget both the installed plan and the cached env parse (tests)."""
    global _INSTALLED, _ENV_PLAN, _ENV_PARSED
    _INSTALLED = None
    _ENV_PLAN = None
    _ENV_PARSED = False


def perform_worker_action(action: Optional[FaultAction]) -> None:
    """Honor an action shipped into a pool worker.

    ``crash`` kills the worker abruptly (the parent sees a broken
    pool, exactly like a segfault or an OOM kill); ``hang`` sleeps
    through the parent's chunk timeout then lets the worker finish
    normally; ``error`` raises a transient exception out of the chunk.
    """
    if action is None:
        return
    if action.mode == "crash":
        os._exit(86)
    elif action.mode == "hang":
        time.sleep(action.delay_s)
    elif action.mode == "error":
        raise InjectedFaultError(
            f"injected fault at {action.site}"
        )
