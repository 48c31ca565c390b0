"""Frozen replay digests: epoch-by-epoch replays give what they always did.

The dynamic studies replay a trace one epoch at a time while the zone
map changes between epochs: ONLINE migration (every engine, with and
without oracle hotness or an overhead cap), the ext_migration cost
sweep, the ratio autotuner on flat and chiplet topologies, and the
static epoch-summed baseline it races against.  The serve daemon's
``/v1/profile`` and ``/v1/autotune`` payloads are pinned too, cold and
warm from the daemon's cache.  Each case pins the sha256 of its
canonical JSON, so a refactor that claims bit-identical results is
checked against values recorded before it.

Regenerate (prints each moved key with its old and new digest, then
rewrites the file)::

    PYTHONPATH=src python tests/test_replay_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from frozen_digests import assert_unmoved, regenerate_main

GOLDEN = Path(__file__).resolve().parent / "golden" / "replay_digests.json"

#: raw-trace length of every ONLINE and autotune case.
ACCESSES = 20_000

ONLINE_POLICIES = ("ONLINE", "ONLINE@oracle=1", "ONLINE@overhead=none")
ENGINES = ("throughput", "detailed", "banked")
ONLINE_WORKLOADS = ("phase_shift", "bfs")
TUNE_TOPOLOGIES = ("baseline", "chiplet-2", "chiplet-4")
TUNE_ENGINES = ("throughput", "detailed")
SERVE_PROFILE_WORKLOADS = ("bfs", "xsbench", "phase_shift")
SERVE_AUTOTUNE_CASES = (("xsbench", "chiplet-2"), ("phase_shift", "baseline"))


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _online_digests() -> dict[str, str]:
    from repro.core.experiment import run_experiment
    from repro.runner.cache import encode_result, result_digest

    return {
        f"online|{workload}|{policy}|{engine}": result_digest(encode_result(
            run_experiment(workload, policy=policy, engine=engine,
                           trace_accesses=ACCESSES)))
        for workload in ONLINE_WORKLOADS
        for policy in ONLINE_POLICIES
        for engine in ENGINES
    }


def _figure_payload(figure) -> dict:
    return json.loads(figure.to_json())


def _experiment_digests() -> dict[str, str]:
    from repro.experiments import ext_chiplet, ext_migration

    return {
        "ext_migration|bfs": _digest(
            _figure_payload(ext_migration.run_workload("bfs"))),
        "ext_chiplet|quick": _digest(
            _figure_payload(ext_chiplet.run_chiplet(quick=True))),
    }


def _autotune_digests() -> dict[str, str]:
    from repro.gpu.config import table1_config
    from repro.gpu.simulator import make_engine
    from repro.memory.topology import topology_by_name
    from repro.tuning import autotune, static_epoch_time_ns
    from repro.workloads import get_workload

    digests = {}
    for name in TUNE_TOPOLOGIES:
        topology = topology_by_name(name)
        for engine in TUNE_ENGINES:
            report = autotune("phase_shift", topology, engine=engine,
                              n_accesses=ACCESSES)
            digests[f"autotune|phase_shift|{name}|{engine}"] = _digest(
                report.to_dict())
        workload = get_workload("phase_shift")
        trace = workload.dram_trace("default", n_accesses=ACCESSES,
                                    n_epochs=16)
        static_ns = static_epoch_time_ns(
            trace, topology, make_engine("throughput", table1_config()),
            workload.characteristics("default"),
            topology.bandwidth_fractions())
        digests[f"static_sbit|phase_shift|{name}"] = _digest(static_ns)
    return digests


def _serve_digests() -> dict[str, str]:
    """``/v1/profile`` (without ``cached``) and the ``profile`` of
    ``/v1/autotune``, each asked twice of one daemon with a cache: the
    cold answer and the warm one must digest alike."""
    import asyncio
    import tempfile

    from repro.serve import ServeConfig
    from repro.serve.service import PlacementService

    async def ask(service) -> dict[str, str]:
        digests = {}
        for workload in SERVE_PROFILE_WORKLOADS:
            answers = [await service.profile({"workload": workload,
                                              "n_accesses": ACCESSES})
                       for _ in range(2)]
            assert [a.pop("cached") for a in answers] == [False, True]
            digests[f"serve_profile|{workload}"] = [
                _digest(a) for a in answers]
        for workload, topology in SERVE_AUTOTUNE_CASES:
            answers = [await service.autotune({
                "workload": workload, "topology": topology,
                "n_accesses": ACCESSES}) for _ in range(2)]
            assert [a["cached"] for a in answers] == [False, True]
            digests[f"serve_autotune|{workload}|{topology}"] = [
                _digest(a["profile"]) for a in answers]
        return digests

    async def run(root: str) -> dict[str, str]:
        service = PlacementService(ServeConfig(port=0, cache_dir=root))
        await service.start()
        try:
            return await ask(service)
        finally:
            await service.stop()

    with tempfile.TemporaryDirectory() as root:
        pairs = asyncio.run(run(root))
    for key, (cold, warm) in pairs.items():
        assert cold == warm, f"{key}: warm answer differs from cold"
    return {key: cold for key, (cold, _) in pairs.items()}


def compute_digests() -> dict[str, str]:
    return {**_online_digests(), **_experiment_digests(),
            **_autotune_digests(), **_serve_digests()}


def test_replays_match_frozen_digests():
    assert_unmoved(GOLDEN, compute_digests(), "replays")


if __name__ == "__main__":
    sys.exit(regenerate_main(sys.argv[1:], GOLDEN, compute_digests,
                             __doc__))
