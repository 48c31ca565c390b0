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

Policies are carried as spec strings rather than objects.  The grammar
is the registry name, optionally extended with an explicit fraction
vector::

    "LOCAL"                      registry policies, incl. ORACLE and
    "ANNOTATED"                  ANNOTATED (profiled inside the run)
    "BW-AWARE"                   SBIT-driven bandwidth ratio
    "BW-AWARE@0.7,0.3"           explicit fraction vector (Figure 3's
                                 xC-yB sweeps, two-pool ablations)
    "BW-AWARE-COUNTER@0.5,0.5"   the deterministic ablation variant
    "ONLINE"                     dynamic promotion/demotion, defaults
    "ONLINE@cost=0.1,epochs=8"   k=v knob tail (sorted, non-default
                                 knobs only; see repro.policies.online)

:func:`canonical_policy` maps the policy inputs the experiment layer
accepts (names, :class:`BwAwarePolicy` instances) onto this grammar;
:func:`parse_policy` turns a spec string back into what
``run_experiment`` expects.  Policy objects whose behaviour cannot be
reconstructed from a string raise :class:`UncacheableSpecError` so
callers can fall back to direct, uncached execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.errors import (
    PolicyError,
    RunnerError,
    UncacheableSpecError,
)
from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.memory.topology import SystemTopology
from repro.policies.base import PlacementPolicy
from repro.policies.bwaware import BwAwarePolicy, CounterBwAwarePolicy
from repro.policies.online import OnlinePolicy
from repro.workloads.base import TraceWorkload

#: policy names that may carry an explicit ``@f0,f1,...`` fraction tail.
_FRACTION_POLICIES = {
    "BW-AWARE": BwAwarePolicy,
    "BW-AWARE-COUNTER": CounterBwAwarePolicy,
}


def _format_fractions(fractions) -> str:
    return ",".join(repr(float(f)) for f in fractions)


def bw_ratio_policy(co_percent: float) -> str:
    """Policy spec for an explicit two-zone xC-yB split.

    >>> bw_ratio_policy(30)
    'BW-AWARE@0.7,0.3'
    """
    from repro.policies.bwaware import two_zone_fractions

    return "BW-AWARE@" + _format_fractions(two_zone_fractions(co_percent))


def canonical_policy(policy: Union[str, PlacementPolicy]) -> str:
    """Reduce a policy input to its canonical spec string.

    Accepts registry names (any case), already-canonical spec strings,
    and BW-AWARE policy objects (whose only state is the optional
    explicit fraction vector).  Anything else — custom policy classes,
    oracle/annotated *instances* carrying profile data — raises
    :class:`UncacheableSpecError`.
    """
    if isinstance(policy, str):
        if policy.upper().partition("@")[0] == "ONLINE":
            from repro.policies.online import (
                canonical_online_tail,
                parse_online_options,
            )

            tail = policy.partition("@")[2] or None
            try:
                canon = canonical_online_tail(parse_online_options(tail))
            except PolicyError as exc:
                raise UncacheableSpecError(str(exc))
            return f"ONLINE@{canon}" if canon else "ONLINE"
        name = policy.upper()
        if "@" in name:
            base, _, tail = name.partition("@")
            if base not in _FRACTION_POLICIES:
                raise UncacheableSpecError(
                    f"policy {base!r} does not take a fraction vector"
                )
            try:
                fractions = tuple(float(f) for f in tail.split(","))
            except ValueError:
                raise UncacheableSpecError(
                    f"malformed fraction vector in policy spec {policy!r}"
                )
            return f"{base}@{_format_fractions(fractions)}"
        return name
    if type(policy) in (BwAwarePolicy, CounterBwAwarePolicy):
        explicit = policy.explicit_fractions
        if explicit is None:
            return policy.name
        return f"{policy.name}@{_format_fractions(explicit)}"
    if isinstance(policy, OnlinePolicy):
        # describe() emits the canonical sorted non-default knob tail.
        return policy.describe()
    raise UncacheableSpecError(
        f"cannot canonicalize policy object {policy!r}; pass a registry "
        "name or a BW-AWARE fraction spec instead"
    )


def parse_policy(spec: str) -> Union[str, PlacementPolicy]:
    """Rebuild the ``run_experiment`` policy input from a spec string."""
    if "@" not in spec:
        return spec
    base, _, tail = spec.partition("@")
    if base.upper() == "ONLINE":
        from repro.policies.online import online_from_spec

        return online_from_spec(spec)
    try:
        cls = _FRACTION_POLICIES[base]
    except KeyError:
        raise RunnerError(f"unknown fraction policy {base!r} in {spec!r}")
    fractions = tuple(float(f) for f in tail.split(","))
    return cls(fractions=fractions)


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
    the runner cannot serialize, and :class:`WorkloadError` (with the
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
    return RunSpec(
        workload=name.lower(),
        policy=canonical_policy(policy),
        dataset=dataset,
        topology=topology,
        bo_capacity_fraction=bo_capacity_fraction,
        trace_accesses=trace_accesses,
        seed=seed,
        training_dataset=training_dataset,
        engine=engine,
    )
