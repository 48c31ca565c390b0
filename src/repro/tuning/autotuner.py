"""Closed-loop autotuning of the per-pool interleave ratio.

:func:`autotune` replays a workload trace epoch by epoch.  Pages are
striped across zones by the current fraction vector; after each epoch
the per-pool bandwidth counters (``SimResult.bytes_by_zone``) feed the
:class:`~repro.tuning.controller.RatioController`, which adjusts the
fractions for the next epoch.  The tuned run's total time *includes*
the adaptation transient, so "tuned beats static" is an honest online
claim, not an oracle one.

Placement is a low-discrepancy stripe: page *p* lands at position
``(p * φ) mod 1`` of the unit interval, partitioned by the cumulative
fraction vector.  This is deterministic, spreads every zone's share
uniformly across the footprint at any scale (hot leading pages do not
all land in zone 0 the way contiguous block placement would), and —
because positions never move — re-partitioning for new fractions only
migrates pages near the moved boundaries, which is what makes the
epoch-to-epoch placement *persistent* rather than a reshuffle.

Tuned reports are records of the sweep runner's result cache, keyed by
the salted hash of :func:`autotune_spec` — which carries the
``topology`` description, so a chiplet profile can never be replayed
onto the wrong fabric.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.errors import ConfigError
from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.gpu.config import GpuConfig, table1_config
from repro.gpu.simulator import EngineName, make_engine, replay_epochs
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import SystemTopology, simulated_baseline
from repro.policies.base import validate_fractions
from repro.runner.spec import describe_topology
from repro.tuning.controller import RatioController
from repro.workloads.base import TraceWorkload
from repro.workloads.suite import get_workload

#: golden-ratio conjugate for the low-discrepancy page stripe.
_GOLDEN = 0.6180339887498949


@functools.lru_cache(maxsize=8)
def _stripe_positions(footprint_pages: int) -> np.ndarray:
    """``(p * φ) mod 1`` for every page *p*, read-only, built once per
    footprint (the tuner re-stripes the same footprint every epoch)."""
    pos = (np.arange(footprint_pages, dtype=np.float64) * _GOLDEN) % 1.0
    pos.flags.writeable = False
    return pos


def place_fractions(fractions, footprint_pages: int) -> np.ndarray:
    """Deterministic zone map striping pages by ``fractions``.

    Page *p* occupies position ``(p * φ) mod 1``; the cumulative
    fraction vector partitions [0, 1) into per-zone buckets.
    """
    fracs = validate_fractions(fractions)
    if footprint_pages <= 0:
        raise ConfigError("footprint_pages must be positive")
    cum = np.cumsum(np.asarray(fracs, dtype=np.float64))
    cum[-1] = 1.0  # absorb float drift so every position has a bucket
    zone_map = np.searchsorted(cum, _stripe_positions(footprint_pages),
                               side="right")
    return np.minimum(zone_map, len(fracs) - 1).astype(np.int16)


def static_epoch_time_ns(trace: DramTrace, topology: SystemTopology,
                         engine, chars: WorkloadCharacteristics,
                         fractions) -> float:
    """Epoch-summed runtime of one fixed fraction vector."""
    zone_map = place_fractions(fractions, trace.footprint_pages)
    return replay_epochs(trace, zone_map, engine, topology, chars,
                         lambda *_: None).total_time_ns


@dataclass(frozen=True)
class AutotuneReport:
    """Outcome of one closed-loop tuning run."""

    workload: str
    dataset: str
    topology: str
    engine: str
    seed: int
    epochs: int
    n_accesses: int
    static_fractions: tuple[float, ...]
    tuned_fractions: tuple[float, ...]
    closed_form_fractions: tuple[float, ...]
    static_time_ns: float
    tuned_time_ns: float
    #: per-epoch fraction trajectory (first entry is the start vector).
    history: tuple[tuple[float, ...], ...]
    controller: dict

    @property
    def speedup(self) -> float:
        """Static time over tuned time; > 1 means tuning won."""
        return self.static_time_ns / self.tuned_time_ns

    @property
    def closed_form_gap(self) -> float:
        """Largest per-zone gap to the closed-form SBIT split."""
        return max(
            abs(t - c) for t, c in
            zip(self.tuned_fractions, self.closed_form_fractions)
        )

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["speedup"] = self.speedup
        payload["closed_form_gap"] = self.closed_form_gap
        return json.loads(json.dumps(payload))

    @classmethod
    def from_dict(cls, payload: dict) -> "AutotuneReport":
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in fields}
        for key in ("static_fractions", "tuned_fractions",
                    "closed_form_fractions"):
            kwargs[key] = tuple(kwargs[key])
        kwargs["history"] = tuple(tuple(h) for h in kwargs["history"])
        return cls(**kwargs)


def autotune(workload: Union[str, TraceWorkload],
             topology: Optional[SystemTopology] = None,
             *,
             dataset: str = "default",
             engine: EngineName = "throughput",
             n_accesses: int = 120_000,
             seed: int = 0,
             epochs: int = 16,
             controller: Optional[RatioController] = None,
             static_fractions=None,
             config: Optional[GpuConfig] = None) -> AutotuneReport:
    """Tune the interleave ratio online and race it against static.

    The static baseline defaults to the uniform 1/N stripe — what an
    operator gets from plain INTERLEAVE with no SBIT.  The tuned run
    starts from the *same* vector, so every bit of its advantage was
    learned from the bandwidth counters during the run.
    """
    if epochs < 2:
        raise ConfigError("autotune needs at least 2 epochs to adapt")
    DEFAULT_REQUEST_LIMITS.check_epochs(epochs)
    model = (workload if isinstance(workload, TraceWorkload)
             else get_workload(workload))
    system = topology if topology is not None else simulated_baseline()
    controller = controller if controller is not None else RatioController()
    n_zones = len(system)
    if static_fractions is None:
        static_fractions = tuple(1.0 / n_zones for _ in range(n_zones))
    static_fractions = validate_fractions(static_fractions)
    if len(static_fractions) != n_zones:
        raise ConfigError(
            f"{len(static_fractions)} fractions for {n_zones} zones"
        )

    gpu = config if config is not None else table1_config()
    engine_obj = make_engine(engine, gpu)
    trace = model.dram_trace(dataset, n_accesses=n_accesses, seed=seed,
                             n_epochs=epochs)
    chars = model.characteristics(dataset)

    usable_bw = np.asarray(system.gpu_usable_bandwidths())
    history = [tuple(static_fractions)]

    def retune(pages, result, elapsed_ns, last):
        """Move the fractions after every epoch that ran."""
        if result is None:
            return None  # an empty epoch has no counters to learn from
        busy = tuple(np.asarray(result.bytes_by_zone) / usable_bw)
        history.append(controller.update(history[-1], busy))
        return place_fractions(history[-1], trace.footprint_pages)

    tuned_ns = replay_epochs(
        trace, place_fractions(static_fractions, trace.footprint_pages),
        engine_obj, system, chars, retune).total_time_ns
    static_ns = static_epoch_time_ns(trace, system, engine_obj, chars,
                                     static_fractions)

    return AutotuneReport(
        workload=model.name,
        dataset=dataset,
        topology=system.name,
        engine=engine,
        seed=seed,
        epochs=epochs,
        n_accesses=n_accesses,
        static_fractions=static_fractions,
        tuned_fractions=history[-1],
        closed_form_fractions=system.bandwidth_fractions(),
        static_time_ns=static_ns,
        tuned_time_ns=tuned_ns,
        history=tuple(history),
        controller=dataclasses.asdict(controller),
    )


def autotune_spec(workload: str, topology: SystemTopology, *,
                  dataset: str, engine: str, seed: int, epochs: int,
                  n_accesses: int, controller: RatioController) -> dict:
    """The canonical description of one tuning run.

    Its salted hash (:func:`repro.runner.spec.content_key`) keys the
    run's :class:`AutotuneReport` in the result cache, so ``repro
    autotune`` and ``/v1/autotune`` find each other's reports.
    ``workload`` is the canonical name: an ingested trace's checksum
    is part of it.
    """
    return {
        "kind": "autotune",
        "workload": workload,
        "dataset": dataset,
        "topology": describe_topology(topology),
        "engine": engine,
        "seed": seed,
        "epochs": epochs,
        "n_accesses": n_accesses,
        "controller": dataclasses.asdict(controller),
    }
