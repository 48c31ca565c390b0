"""Differential test: batch placement vs the per-page placement loop.

:meth:`Process.fault_in` places an allocation at a time (one policy
call, then :meth:`PhysicalMemory.allocate_pages`).  The loop it
replaced — one ``preferred_zones`` call, one chain walk and one
``map_page`` per page — lives on below, in this file only, as the
oracle.  Hypothesis drives both through the same random scenarios:

* every registry policy plus BIND and PREFERRED, as the task policy
  and through ``mbind``;
* two-pool, three-pool and chiplet-4 topologies with random (small)
  capacities, so spill, total OOM and strict-BIND OOM all happen;
* ``mmap``/``mbind``/``place_all`` mixes, and ``free()`` followed by
  re-faulting (which recycles frames through the free lists).

After every operation the page tables (zones and frames), the
allocators, the RNG state, the round-robin and counter state of the
policies, and any raised error (type and message) must be identical.
The number of examples follows the hypothesis profile (``dev`` by
default, ``HYPOTHESIS_PROFILE=ci`` for more; see ``conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import OutOfMemoryError, PolicyError
from repro.core.units import PAGE_SIZE
from repro.memory.topology import (
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
)
from repro.policies.base import PlacementPolicy
from repro.policies.registry import make_policy, policy_names
from repro.vm.mempolicy import BindPolicy, PreferredPolicy
from repro.vm.page import PageMapping
from repro.vm.process import Process

TOPOLOGIES = {
    "two-pool": simulated_baseline,
    "three-pool": three_pool_topology,
    "chiplet-4": lambda: chiplet_topology(4),
}

POLICY_KINDS = ("LOCAL", "INTERLEAVE", "BW-AWARE", "BW-AWARE-COUNTER",
                "ORACLE", "ANNOTATED", "ONLINE", "BIND", "PREFERRED")


# ----------------------------------------------------------------------
# The oracle: the per-page placement loop, as it was
# ----------------------------------------------------------------------

def reference_allocate(physical, preferred, strict):
    chain = list(preferred)
    if not strict:
        chain += [z for z in physical._allocators if z not in chain]
    for zone_id in chain:
        allocator = physical.allocator(zone_id)
        if not allocator.full:
            return PageMapping(zone_id, allocator.allocate())
    raise OutOfMemoryError(
        f"zones {chain} exhausted in topology {physical.topology.name}"
    )


class ReferenceProcess(Process):
    """A process that places and frees page by page."""

    def fault_in(self, allocation):
        policy = self._vma_policies.get(allocation.alloc_id, self._policy)
        self._ensure_prepared(policy)
        strict = bool(getattr(policy, "strict", False))
        for page_index, vpn in enumerate(allocation.vpns()):
            if self.space.is_mapped(vpn):
                continue
            chain = policy.preferred_zones(allocation, page_index, self._ctx)
            mapping = reference_allocate(self.physical, chain, strict)
            self.space.map_page(vpn, mapping)

    def free(self, allocation):
        for vpn in allocation.vpns():
            if self.space.is_mapped(vpn):
                self.physical.free(self.space.unmap_page(vpn))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def fraction_vectors(n_zones):
    weights = st.lists(st.integers(0, 8), min_size=n_zones,
                       max_size=n_zones).filter(any)
    return weights.map(lambda w: tuple(x / sum(w) for x in w))


def zone_masks(n_zones):
    return st.lists(st.integers(0, n_zones - 1), min_size=1,
                    max_size=n_zones, unique=True)


def policy_specs(n_zones):
    """``(kind, argument)`` pairs; :func:`build_policy` makes objects."""
    return st.one_of(
        st.sampled_from([("LOCAL", None), ("BW-AWARE", None),
                         ("ORACLE", None), ("ANNOTATED", None),
                         ("INTERLEAVE", None)]),
        st.tuples(st.just("INTERLEAVE"), zone_masks(n_zones).map(tuple)),
        st.tuples(st.just("BW-AWARE"), fraction_vectors(n_zones)),
        st.tuples(st.just("BW-AWARE-COUNTER"),
                  st.none() | fraction_vectors(n_zones)),
        st.tuples(st.just("ONLINE"),
                  st.sampled_from(["BW-AWARE", "INTERLEAVE", "LOCAL"])),
        st.tuples(st.just("BIND"), zone_masks(n_zones).map(tuple)),
        st.tuples(st.just("PREFERRED"), st.integers(0, n_zones - 1)),
    )


def build_policy(spec, oracle_accesses):
    kind, arg = spec
    if kind == "BIND":
        return BindPolicy(arg)
    if kind == "PREFERRED":
        return PreferredPolicy(arg)
    if kind == "INTERLEAVE":
        return make_policy(kind, zone_subset=arg)
    if kind in ("BW-AWARE", "BW-AWARE-COUNTER"):
        return make_policy(kind, fractions=arg)
    if kind == "ORACLE":
        return make_policy(kind, page_accesses=oracle_accesses)
    if kind == "ONLINE":
        return make_policy(kind, initial=arg)
    return make_policy(kind)


@st.composite
def scenarios(draw):
    topology = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]()
    n_zones = len(topology)
    for zone in topology.zones:
        pages = draw(st.integers(1, 48))
        topology = topology.replace_zone(zone.resized(pages * PAGE_SIZE))
    hints = st.sampled_from([None, "BO", "CO", "BW"])
    reserved = draw(st.lists(st.tuples(st.integers(1, 40), hints),
                             min_size=1, max_size=5))
    specs = policy_specs(n_zones)
    index = st.integers(0, 63)
    ops = draw(st.lists(st.one_of(
        st.just(("place_all",)),
        st.tuples(st.just("mmap"), st.integers(1, 40), hints),
        st.tuples(st.just("mbind"), index, specs),
        st.tuples(st.just("fault_in"), index),
        st.tuples(st.just("free"), index),
        st.tuples(st.just("set_mempolicy"), specs),
    ), min_size=1, max_size=8))
    return {
        "topology": topology,
        "reserved": reserved,
        "task": draw(specs),
        "ops": ops,
        "seed": draw(st.integers(0, 2**16)),
    }


# ----------------------------------------------------------------------
# Driving both implementations
# ----------------------------------------------------------------------

class Run:
    """One process plus the policy objects it was handed, by spec."""

    def __init__(self, cls, scenario):
        self.process = cls(scenario["topology"], seed=scenario["seed"])
        for pages, hint in scenario["reserved"]:
            self.process.reserve(pages * PAGE_SIZE, hint=hint)
        total = sum(pages for pages, _ in scenario["reserved"])
        self.accesses = np.random.default_rng(
            scenario["seed"]).integers(0, 50, total)
        self.policies = {}
        self.process.set_mempolicy(self.policy(scenario["task"]))

    def policy(self, spec):
        key = repr(spec)
        if key not in self.policies:
            self.policies[key] = build_policy(spec, self.accesses)
        return self.policies[key]

    def allocation(self, index):
        allocations = self.process.space.allocations
        return allocations[index % len(allocations)]

    def apply(self, op):
        """Run one operation; the error it raised, as (type, message)."""
        process = self.process
        try:
            if op[0] == "place_all":
                process.place_all()
            elif op[0] == "mmap":
                process.mmap(op[1] * PAGE_SIZE, hint=op[2])
            elif op[0] == "mbind":
                allocation = self.allocation(op[1])
                process.mbind(allocation, self.policy(op[2]))
                process.fault_in(allocation)
            elif op[0] == "fault_in":
                process.fault_in(self.allocation(op[1]))
            elif op[0] == "free":
                process.free(self.allocation(op[1]))
            else:
                process.set_mempolicy(self.policy(op[1]))
        except Exception as exc:  # compared, not swallowed
            return type(exc).__name__, str(exc)
        return None

    def state(self):
        process = self.process
        allocators = [process.physical.allocator(zone.zone_id)
                      for zone in process.topology]
        policy_state = {}
        for key, policy in sorted(self.policies.items()):
            inner = [policy]
            if hasattr(policy, "initial_policy"):
                inner.append(policy.initial_policy())
            if hasattr(policy, "_fallback"):
                inner.append(policy._fallback)
            policy_state[key] = [
                (getattr(p, "_counter", None),
                 None if getattr(p, "_placed", None) is None
                 else p._placed.tolist())
                for p in inner
            ]
        return {
            "zones": process.space._zone.tolist(),
            "frames": process.space._frame.tolist(),
            "used": [a.used_pages for a in allocators],
            "next": [a._next_frame for a in allocators],
            "free_lists": [list(a._free_list) for a in allocators],
            "rng": process.context.rng.bit_generator.state,
            "policies": policy_state,
        }


def assert_same_behaviour(scenario):
    """Run ``scenario`` both ways; the batch run and its outcomes."""
    batch = Run(Process, scenario)
    paged = Run(ReferenceProcess, scenario)
    outcomes = []
    for step, op in enumerate(scenario["ops"]):
        outcome = batch.apply(op)
        assert outcome == paged.apply(op), (step, op)
        assert batch.state() == paged.state(), (step, op, outcome)
        outcomes.append(outcome)
    return batch, outcomes


@given(scenarios())
def test_batch_placement_matches_per_page_loop(scenario):
    assert_same_behaviour(scenario)


# ----------------------------------------------------------------------
# Pinned scenarios: each edge case runs on every invocation
# ----------------------------------------------------------------------

def _scenario(topology="two-pool", capacities=(8, 8), reserved=((6, None),),
              task=("BW-AWARE", None), ops=(("place_all",),), seed=3):
    topo = TOPOLOGIES[topology]()
    for zone, pages in zip(topo.zones, capacities):
        topo = topo.replace_zone(zone.resized(pages * PAGE_SIZE))
    return {"topology": topo, "reserved": list(reserved), "task": task,
            "ops": list(ops), "seed": seed}


def test_total_oom_keeps_the_mapped_prefix():
    scenario = _scenario(capacities=(5, 4), reserved=((7, None), (6, None)))
    batch, outcomes = assert_same_behaviour(scenario)
    assert outcomes == [(
        "OutOfMemoryError",
        f"zones [0, 1] exhausted in topology {scenario['topology'].name}",
    )]
    assert (batch.process.space._zone >= 0).sum() == 9


def test_strict_bind_oom_keeps_the_mapped_prefix():
    scenario = _scenario(capacities=(4, 30), reserved=((6, None),),
                         task=("BIND", (0,)))
    batch, outcomes = assert_same_behaviour(scenario)
    assert outcomes == [(
        "OutOfMemoryError",
        f"zones [0] exhausted in topology {scenario['topology'].name}",
    )]
    assert (batch.process.space._zone == 0).sum() == 4


def test_refault_after_free_recycles_frames():
    scenario = _scenario(
        capacities=(6, 20), reserved=((5, None), (4, None)),
        task=("LOCAL", None),
        ops=(("place_all",), ("free", 0),
             ("set_mempolicy", ("BW-AWARE", None)), ("fault_in", 0),
             ("free", 1), ("mmap", 7, None), ("fault_in", 1)))
    batch, outcomes = assert_same_behaviour(scenario)
    assert outcomes == [None] * 7
    assert batch.process.physical.allocator(0)._free_list == []


def test_mbind_mix_on_chiplet_4():
    scenario = _scenario(
        topology="chiplet-4", capacities=(3, 3, 3, 3, 40),
        reserved=((5, "BO"), (6, None), (4, "CO")), task=("ANNOTATED", None),
        ops=(("mbind", 1, ("INTERLEAVE", (3, 1))),
             ("mbind", 2, ("PREFERRED", 2)), ("place_all",),
             ("mmap", 9, None), ("mbind", 3, ("BIND", (4,)))))
    assert_same_behaviour(scenario)


def test_every_registry_policy_is_exercised():
    assert set(policy_names()) <= set(POLICY_KINDS)


def test_policy_answering_the_wrong_number_of_zones_is_rejected():
    class ShortPolicy(PlacementPolicy):
        name = "SHORT"

        def first_zones(self, allocation, pages, ctx):
            return pages[1:] % ctx.n_zones

    process = Process(simulated_baseline(), policy=ShortPolicy())
    with pytest.raises(PolicyError, match="SHORT answered 2 zones for 3"):
        process.mmap(3 * PAGE_SIZE)
