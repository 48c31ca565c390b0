"""Canonical experiment specifications.

A :class:`RunSpec` names everything that determines the outcome of one
:func:`repro.core.experiment.run_experiment` call: workload, dataset,
policy, topology, capacity constraint, trace length, seed and engine.
Two properties make it the unit of work for the sweep runner:

* it is **canonical** — policies and topologies are reduced to stable,
  value-based descriptions, so two specs that would produce the same
  result hash to the same cache key regardless of how they were built;
* it is **portable** — a spec is picklable (for process-pool workers)
  and its canonical form is JSON-serializable (for cache records and
  run manifests).

Policies are carried as canonical policy-spec strings rather than
objects; the grammar, :func:`canonical_policy` and :func:`parse_policy`
live in :mod:`repro.policies.registry`.  Policy objects whose behaviour
cannot be reconstructed from a string raise
:class:`UncacheableSpecError` so callers can fall back to direct,
uncached execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.memory.topology import SystemTopology, simulated_baseline
from repro.policies.base import PlacementPolicy
from repro.policies.registry import canonical_policy, check_fraction_count
from repro.workloads.base import TraceWorkload


def describe_topology(topology: Optional[SystemTopology]) -> Optional[dict]:
    """A stable, JSON-able, value-based description of a topology.

    ``None`` (= the simulated baseline default) stays ``None`` so specs
    built with and without an explicit default topology object hash
    differently only when the topologies actually differ — callers that
    want the former equivalence pass the baseline explicitly.
    """
    if topology is None:
        return None
    description = {
        "name": topology.name,
        "gpu_local_zone": topology.gpu_local_zone,
        "zones": [dataclasses.asdict(zone) for zone in topology.zones],
    }
    # An explicit distance matrix is result-affecting, so it salts the
    # cache key; the key is absent for scalar-derived topologies so
    # pre-existing cached results keep their digests.
    if topology.distance is not None:
        description["distance"] = topology.distance.to_dict()
    # Round-trip through JSON (enums and other non-JSON leaves via str)
    # so the canonical form is plain data, not live objects.
    return json.loads(json.dumps(description, default=str))


def content_key(canonical: dict, salt: str) -> str:
    """Salted SHA-256 (64 hex) of a canonical description: the key of
    every result-cache record.  Records other than experiments carry a
    ``"kind"`` in ``canonical``, so their keys never meet a spec's."""
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"),
                         default=str)
    digest = hashlib.sha256()
    digest.update(payload.encode())
    digest.update(b"\0")
    digest.update(salt.encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one experiment's result.

    ``topology=None`` means the Table 1 simulated baseline (the
    ``run_experiment`` default).  ``trace_accesses=None`` means the
    workload-default raw trace length.
    """

    workload: str
    policy: str
    dataset: str = "default"
    topology: Optional[SystemTopology] = None
    bo_capacity_fraction: Optional[float] = None
    trace_accesses: Optional[int] = None
    seed: int = 0
    training_dataset: Optional[str] = None
    engine: str = "throughput"

    def canonical(self) -> dict:
        """The value-based description hashed into the cache key."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "dataset": self.dataset,
            "topology": describe_topology(self.topology),
            "bo_capacity_fraction": (
                None if self.bo_capacity_fraction is None
                else float(self.bo_capacity_fraction)
            ),
            "trace_accesses": self.trace_accesses,
            "seed": self.seed,
            "training_dataset": self.training_dataset,
            "engine": self.engine,
        }

    def cache_key(self, salt: str) -> str:
        """Content hash of the canonical spec plus a code-version salt."""
        return content_key(self.canonical(), salt)

    def label(self) -> str:
        """Short human-readable tag for manifests and logs."""
        parts = [self.workload, self.policy]
        if self.dataset != "default":
            parts.append(self.dataset)
        if self.bo_capacity_fraction is not None:
            parts.append(f"cap={self.bo_capacity_fraction:g}")
        if self.topology is not None:
            parts.append(self.topology.name)
        return "/".join(parts)


def make_spec(workload: Union[str, TraceWorkload],
              policy: Union[str, PlacementPolicy],
              dataset: str = "default",
              topology: Optional[SystemTopology] = None,
              bo_capacity_fraction: Optional[float] = None,
              trace_accesses: Optional[int] = None,
              seed: int = 0,
              training_dataset: Optional[str] = None,
              engine: str = "throughput") -> RunSpec:
    """Canonicalize experiment inputs into a :class:`RunSpec`.

    Raises :class:`UncacheableSpecError` when ``policy`` is an object
    the runner cannot serialize, :class:`PolicyError` for an unknown or
    malformed policy spec or one whose fraction vector (its own, or an
    ONLINE ``initial=``) does not give one fraction per zone of
    ``topology`` (the baseline when ``None``), and
    :class:`WorkloadError` (with the
    unified unknown-workload message) when a workload *name* does not
    resolve, and :class:`RequestLimitError` when ``trace_accesses``
    exceeds :data:`~repro.core.limits.DEFAULT_REQUEST_LIMITS`.  String
    names pass through the registry so ingested traces canonicalize to
    their checksum-carrying form (``trace:<name>#<sha12>``) — the
    digest salts the cache key.
    """
    DEFAULT_REQUEST_LIMITS.check_accesses(trace_accesses)
    if isinstance(workload, TraceWorkload):
        name = workload.name
    else:
        from repro.workloads.suite import get_workload

        name = get_workload(workload).name
    canonical = canonical_policy(policy)
    if "@" in canonical:  # only a tail can carry a fraction vector
        system = topology if topology is not None else simulated_baseline()
        check_fraction_count(canonical, len(system.zones))
    return RunSpec(
        workload=name.lower(),
        policy=canonical,
        dataset=dataset,
        topology=topology,
        bo_capacity_fraction=bo_capacity_fraction,
        trace_accesses=trace_accesses,
        seed=seed,
        training_dataset=training_dataset,
        engine=engine,
    )
