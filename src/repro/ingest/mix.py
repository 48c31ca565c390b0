"""Multi-program trace mixes with per-member fault isolation.

Modeled on the Kill-Llama ``mix1``–``mix7`` DRAMSim2 benchmarks: 2–4
registered traces are interleaved *by cycle* into one heterogeneous
memory system, each member occupying its own slice of the footprint
(so placement policies see per-program data structures competing for
the same bandwidth-optimized capacity).

The mix spec grammar is ``mix:<a>+<b>[+<c>[+<d>]]`` where each member
is a registered trace name with an optional ``#sha12`` content pin.
The resolved workload's canonical name embeds every member's digest,
salting the result-cache key with the full mix content.

:func:`run_mix` is the fault-isolated co-scheduling harness: each
member is resolved and checksum-verified *individually* before the
sweep, so one corrupt or capped-out member fails with a structured
per-member error while the surviving members still run — and, because
the canonical name is rebuilt from survivors only, their results are
byte-identical to a run that never mentioned the corrupt member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import IngestError, WorkloadError
from repro.core.units import PAGE_SIZE
from repro.obs.log import log_event
from repro.workloads.base import DataStructureSpec, TraceWorkload

from .registry import TraceRegistry, default_registry
from .workload import (IngestedTraceWorkload, ReplayedTraceWorkload,
                       _RESOLVER_CACHE, _resolve_record)

MIN_MIX_MEMBERS = 2
MAX_MIX_MEMBERS = 4


def parse_mix_spec(name: str) -> list[str]:
    """``"mix:a+b#1a2b"`` -> ``["a", "b#1a2b"]`` (validated)."""
    if not name.startswith("mix:"):
        raise WorkloadError(f"not a mix name: {name!r}")
    members = [m.strip() for m in name[len("mix:"):].split("+")]
    if any(not m for m in members):
        raise WorkloadError(
            f"malformed mix spec {name!r}: empty member (grammar: "
            "mix:<a>+<b>[+<c>[+<d>]], each member a registered trace "
            "name with optional #sha12)")
    if not MIN_MIX_MEMBERS <= len(members) <= MAX_MIX_MEMBERS:
        raise WorkloadError(
            f"mix needs {MIN_MIX_MEMBERS}-{MAX_MIX_MEMBERS} member "
            f"traces, got {len(members)} in {name!r}")
    bare = [m.partition("#")[0] for m in members]
    if len(set(bare)) != len(bare):
        raise WorkloadError(
            f"mix members must be distinct traces: {name!r}")
    return members


class IngestedMixWorkload(ReplayedTraceWorkload):
    """2–4 registered traces interleaved by cycle, one footprint."""

    description = "multi-program mix of ingested traces"
    #: multiprogrammed streams overlap more memory requests than one
    #: program; keep the base parallelism (each member is itself a
    #: full post-cache stream).

    def __init__(self, members: Sequence[IngestedTraceWorkload]) -> None:
        self.members = tuple(members)
        self.name = "mix:" + "+".join(
            f"{m.record.name}#{m.record.short_sha}" for m in self.members)

    def define_structures(self, dataset: str = "default"
                          ) -> tuple[DataStructureSpec, ...]:
        return tuple(
            DataStructureSpec(
                name=member.record.name,
                size_bytes=max(
                    PAGE_SIZE,
                    member.record.footprint_pages * PAGE_SIZE),
                traffic_weight=float(member.record.n_accesses),
                pattern="uniform",
                read_fraction=1.0 - (member.record.n_writes
                                     / max(1, member.record.n_accesses)),
            )
            for member in self.members
        )

    def _stream(self) -> tuple:
        """Cycle-ordered interleave of the members.

        Each member's pages are offset into its own footprint slice;
        the merged order is a *stable* sort on issue cycle, so
        within-member order is preserved exactly and equal-cycle ties
        break deterministically by member position.
        """
        pages_parts: list[np.ndarray] = []
        flags_parts: list[np.ndarray] = []
        cycle_parts: list[np.ndarray] = []
        offset = 0
        for member in self.members:
            pages, flags, cycles = member._load()
            pages_parts.append(pages + offset)
            flags_parts.append(flags)
            cycle_parts.append(cycles)
            offset += member.record.footprint_pages
        order = np.argsort(np.concatenate(cycle_parts), kind="stable")
        return (np.concatenate(pages_parts)[order],
                np.concatenate(flags_parts)[order], offset)


def resolve_mix(name: str, registry: Optional[TraceRegistry] = None
                ) -> IngestedMixWorkload:
    """Resolve a ``mix:`` name into a workload (all members must be
    registered and match any ``#sha12`` pins)."""
    registry = registry or default_registry()
    member_specs = parse_mix_spec(name)
    members = []
    for spec in member_specs:
        record = _resolve_record(registry, spec)
        cache_key = (str(registry.root), record.canonical)
        member = _RESOLVER_CACHE.get(cache_key)
        if member is None:
            member = IngestedTraceWorkload(record, registry)
            _RESOLVER_CACHE[cache_key] = member
        members.append(member)
    mix = IngestedMixWorkload(members)
    mix_key = (str(registry.root), mix.name)
    cached = _RESOLVER_CACHE.get(mix_key)
    if cached is not None:
        return cached
    _RESOLVER_CACHE[mix_key] = mix
    return mix


# -- fault-isolated co-scheduling harness -----------------------------


@dataclass(frozen=True)
class MixMemberStatus:
    """Outcome of admitting one member into a mix run."""

    name: str
    ok: bool
    canonical: Optional[str] = None
    #: structured error for a failed member (IngestError.to_dict() or
    #: a {"reason": ...} shell for other workload errors).
    error: Optional[dict] = None
    accesses: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "canonical": self.canonical,
            "error": self.error,
            "accesses": self.accesses,
        }


@dataclass(frozen=True)
class MixOutcome:
    """A fault-isolated mix sweep: per-member statuses + the results
    of whatever subset survived admission."""

    requested: tuple[str, ...]
    members: tuple[MixMemberStatus, ...]
    #: canonical workload name actually swept (None when <1 member
    #: survived).
    workload_name: Optional[str]
    results: list = field(default_factory=list)
    manifest: Optional[object] = None

    @property
    def failed(self) -> tuple[MixMemberStatus, ...]:
        return tuple(m for m in self.members if not m.ok)

    @property
    def survivors(self) -> tuple[MixMemberStatus, ...]:
        return tuple(m for m in self.members if m.ok)


def run_mix(member_names: Sequence[str], policies: Sequence,
            runner, registry: Optional[TraceRegistry] = None,
            **spec_kwargs) -> MixOutcome:
    """Run *policies* over a mix of *member_names* with per-member
    fault isolation.

    Each member is resolved and checksum-verified up front; a corrupt
    or missing member becomes a structured :class:`MixMemberStatus`
    failure while the rest proceed.  The swept workload's canonical
    name is built from the survivors only, so survivor results are
    byte-identical to a run that never included the failed member.
    With one survivor the single trace runs standalone; with none, no
    sweep happens and the outcome only carries the failures.
    """
    from repro.runner.spec import make_spec

    registry = registry or default_registry()
    bare = [n[len("trace:"):] if n.startswith("trace:") else n
            for n in member_names]
    # reuse the spec-grammar validation (member count, distinctness)
    parse_mix_spec("mix:" + "+".join(bare))
    statuses: list[MixMemberStatus] = []
    survivors: list[IngestedTraceWorkload] = []
    for raw_name in member_names:
        spec = raw_name[len("trace:"):] if raw_name.startswith(
            "trace:") else raw_name
        try:
            record = _resolve_record(registry, spec)
            cache_key = (str(registry.root), record.canonical)
            member = _RESOLVER_CACHE.get(cache_key)
            if member is None:
                member = IngestedTraceWorkload(record, registry)
                _RESOLVER_CACHE[cache_key] = member
            member._load()  # force checksum verification now
        except IngestError as err:
            log_event("ingest.mix.member_failed", level="warning",
                      member=raw_name, reason=err.reason,
                      line=err.line)
            statuses.append(MixMemberStatus(
                name=raw_name, ok=False, error=err.to_dict()))
            continue
        except WorkloadError as err:
            log_event("ingest.mix.member_failed", level="warning",
                      member=raw_name, reason=str(err))
            statuses.append(MixMemberStatus(
                name=raw_name, ok=False, error={"reason": str(err)}))
            continue
        survivors.append(member)
        statuses.append(MixMemberStatus(
            name=raw_name, ok=True, canonical=member.record.canonical,
            accesses=member.record.n_accesses))

    if not survivors:
        return MixOutcome(requested=tuple(member_names),
                          members=tuple(statuses), workload_name=None)
    if len(survivors) == 1:
        workload: TraceWorkload = survivors[0]
    else:
        workload = IngestedMixWorkload(survivors)
        _RESOLVER_CACHE[(str(registry.root), workload.name)] = workload
    specs = [make_spec(workload.name, policy, **spec_kwargs)
             for policy in policies]
    outcome = runner.run(specs)
    return MixOutcome(
        requested=tuple(member_names),
        members=tuple(statuses),
        workload_name=workload.name,
        results=list(outcome.results),
        manifest=outcome.manifest,
    )
