"""Per-layer ledger for the traced runs of the end-to-end benchmark.

:func:`install` turns on the program's own span tracer
(:mod:`repro.obs.trace`) and wraps the six entry points that record no
span of their own: trace synthesis, the L1/L2 cache filter, policy
resolution, page placement, the migration replay and the ratio
autotuner.  The engines, runner, result cache and serve daemon already
record spans; nothing under ``src/`` changes.

:func:`ledger` folds the recorded events into one flat table of
``<layer>.<stat>`` numbers (:data:`PER_LAYER`).  A layer's *self time*
is its span's duration minus the part of it that child spans on the
same pid and tid cover, so self times add up instead of double
counting nested work.  ``other.self_ms`` is the traced wall time that
no layer claims.

Nothing here runs at import time; the module needs ``repro`` on the
path only when :func:`install` is called.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Iterable, Mapping, Optional

#: every per-layer metric a traced run reports, with its unit.  Layers
#: that do not run on a workload report 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("import.ms", "ms"),
    ("workloads.synth.self_ms", "ms"),
    ("workloads.synth.calls", "count"),
    ("workloads.synth.ns_per_access", "ns"),
    ("gpu.cache.filter.self_ms", "ms"),
    ("gpu.cache.filter.calls", "count"),
    ("gpu.cache.filter.accesses", "count"),
    ("gpu.cache.filter.misses", "count"),
    ("gpu.cache.filter.ns_per_access", "ns"),
    ("policies.resolve.self_ms", "ms"),
    ("policies.resolve.calls", "count"),
    ("vm.place_all.self_ms", "ms"),
    ("vm.place_all.calls", "count"),
    ("vm.place_all.pages", "count"),
    ("vm.place_all.us_per_page", "us"),
    *((f"gpu.engine.{engine}.{stat}", unit)
      for engine in ("throughput", "detailed", "banked")
      for stat, unit in (("self_ms", "ms"), ("calls", "count"),
                         ("accesses", "count"), ("ns_per_access", "ns"))),
    ("migration.replay.self_ms", "ms"),
    ("migration.replay.epochs", "count"),
    ("migration.replay.pages_migrated", "count"),
    ("tuning.autotune.self_ms", "ms"),
    ("tuning.autotune.calls", "count"),
    ("runner.parent.self_ms", "ms"),
    ("runner.worker.self_ms", "ms"),
    ("runner.publish.self_ms", "ms"),
    ("runner.wait.self_ms", "ms"),
    ("runner.decode.self_ms", "ms"),
    ("runner.parent.executed", "count"),
    ("runner.retries", "count"),
    ("runner.cache.get.self_ms", "ms"),
    ("runner.cache.get.hits", "count"),
    ("runner.cache.get.misses", "count"),
    ("runner.cache.put.self_ms", "ms"),
    ("runner.cache.put.calls", "count"),
    ("serve.http.self_ms", "ms"),
    ("serve.placement.self_ms", "ms"),
    ("serve.simulate.self_ms", "ms"),
    ("serve.profile.self_ms", "ms"),
    ("serve.autotune.self_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.placement.mean_batch", "count"),
    ("serve.simulate.cache_hits", "count"),
    ("serve.simulate.dedup", "count"),
    ("serve.errors", "count"),
    ("other.self_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: span name -> layer.  The first six are the spans :func:`install`
#: adds; the rest are spans the program records itself.
SPAN_LAYER = {
    "workloads.synth": "workloads.synth",
    "gpu.cache.filter": "gpu.cache.filter",
    "policies.resolve": "policies.resolve",
    "vm.place_all": "vm.place_all",
    "migration.replay": "migration.replay",
    "tuning.autotune": "tuning.autotune",
    "engine.throughput": "gpu.engine.throughput",
    "engine.detailed": "gpu.engine.detailed",
    "engine.banked": "gpu.engine.banked",
    "runner.run": "runner.parent",
    "runner.submit": "runner.parent",
    "runner.chunk": "runner.parent",
    "runner.exec": "runner.parent",
    "runner.shm.attach": "runner.parent",
    "runner.shm.publish": "runner.publish",
    "runner.wait": "runner.wait",
    "runner.decode": "runner.decode",
    "cache.get": "runner.cache.get",
    "cache.put": "runner.cache.put",
    "http.request": "serve.http",
    "serve.placement": "serve.placement",
    "serve.simulate": "serve.simulate",
    "serve.profile": "serve.profile",
    "serve.autotune": "serve.autotune",
}

#: layers that must fire on each workload (the README's layer table).
EXPECTED = {
    "cold_cli": (
        "workloads.synth", "gpu.cache.filter", "policies.resolve",
        "vm.place_all", "gpu.engine.throughput", "gpu.engine.detailed",
        "gpu.engine.banked"),
    "figure_sweep": (
        "workloads.synth", "gpu.cache.filter", "policies.resolve",
        "vm.place_all", "gpu.engine.throughput", "runner.parent",
        "runner.publish", "runner.wait", "runner.decode",
        "runner.cache.get", "runner.cache.put"),
    "serve_mixed": (
        "workloads.synth", "gpu.cache.filter", "policies.resolve",
        "vm.place_all", "gpu.engine.throughput", "tuning.autotune",
        "runner.parent", "runner.cache.get", "runner.cache.put", "serve.http",
        "serve.placement", "serve.simulate", "serve.profile",
        "serve.autotune"),
    "dynamic_epochs": (
        "workloads.synth", "gpu.cache.filter", "policies.resolve",
        "vm.place_all", "gpu.engine.throughput", "gpu.engine.detailed",
        "migration.replay", "tuning.autotune"),
}


def _wrap(owner, attr: str, name: str, describe=None) -> None:
    """Replace ``owner.attr`` with a version that records span ``name``.

    ``describe(args, result)`` returns fields to attach to the span.
    """
    from repro.obs import trace as obs_trace

    original = getattr(owner, attr)
    if getattr(original, "__e2e_layer__", None) == name:
        return

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with obs_trace.span(name, cat="layer") as span:
            result = original(*args, **kwargs)
            if describe is not None:
                span.annotate(**describe(args, result))
        return result

    traced.__e2e_layer__ = name
    setattr(owner, attr, traced)


def install(serve: bool = False):
    """Install the tracer and the six entry-point wrappers; returns the
    tracer.

    Fork-started sweep workers inherit the wrappers.  ``serve=True``
    also rebinds the daemon's own reference to ``autotune``.
    """
    import repro.tuning
    from repro.core import experiment
    from repro.gpu.cache import CacheHierarchy
    from repro.migration.engine import MigrationSimulator
    from repro.obs import trace as obs_trace
    from repro.tuning import autotuner
    from repro.vm.process import Process
    from repro.workloads.base import TraceWorkload

    tracer = obs_trace.install()
    _wrap(TraceWorkload, "raw_access_stream", "workloads.synth",
          lambda args, out: {"accesses": int(out[0].size)})
    _wrap(CacheHierarchy, "filter_stream_indices", "gpu.cache.filter",
          lambda args, out: {"accesses": int(len(args[1])),
                             "misses": int(out.size)})
    _wrap(experiment, "resolve_policy", "policies.resolve")
    _wrap(Process, "place_all", "vm.place_all",
          lambda args, out: {"pages": int(out.size)})
    _wrap(MigrationSimulator, "run", "migration.replay",
          lambda args, out: {"epochs": int(out.epochs),
                             "pages_migrated": int(out.pages_migrated)})
    _wrap(autotuner, "autotune", "tuning.autotune")
    repro.tuning.autotune = autotuner.autotune
    if serve:
        from repro.serve import service

        service.run_autotune = autotuner.autotune
    return tracer


def self_times(events: Iterable[Mapping]) -> list[tuple[Mapping, float]]:
    """``(span, self_us)`` for every complete span in ``events``.

    Spans nest per (pid, tid); a child that outlives its parent by clock
    jitter is clipped to the parent's end.
    """
    lanes: dict[tuple, list] = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            lanes[(event["pid"], event["tid"])].append(event)
    out: list[tuple[Mapping, float]] = []
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[list] = []  # [span, end_us, covered_us]
        for span in spans:
            start = span["ts"]
            end = start + span["dur"]
            while stack and stack[-1][1] <= start:
                done = stack.pop()
                out.append((done[0], max(done[0]["dur"] - done[2], 0)))
            if stack:
                stack[-1][2] += min(end, stack[-1][1]) - start
            stack.append([span, end, 0])
        for done in reversed(stack):
            out.append((done[0], max(done[0]["dur"] - done[2], 0)))
    return out


def ledger(events: list, wall_ms: float, *, import_ms: float = 0.0,
           main_pids: Optional[set] = None,
           serve_metrics: Optional[Mapping[str, float]] = None
           ) -> tuple[dict[str, float], set[str]]:
    """Fold a trace into the :data:`PER_LAYER` table.

    ``wall_ms`` is the traced wall time the layers should account for,
    including ``import_ms`` when that is part of it; ``main_pids``
    limits which processes count toward it (a sweep's workers run
    beside the parent, so their busy time is reported but not
    subtracted from the parent's wall).  Returns the table and the set
    of layers that fired.
    """
    stats: dict[str, float] = defaultdict(float)
    runner_pids = {e["pid"] for e in events if e.get("name") == "runner.run"}
    attributed_ms = import_ms
    client_ms: dict[str, float] = {}
    server_ms: dict[str, float] = {}
    for span, self_us in self_times(events):
        args = span.get("args", {})
        if span["name"] == "client.request" and "trace_id" in args:
            client_ms[args["trace_id"]] = span["dur"] / 1e3
            continue
        layer = SPAN_LAYER.get(span["name"])
        if layer is None:
            continue
        if layer == "serve.http" and "trace_id" in args:
            server_ms[args["trace_id"]] = span["dur"] / 1e3
        if layer == "runner.parent" and span["pid"] not in runner_pids:
            layer = "runner.worker"
        stats[f"{layer}.self_ms"] += self_us / 1e3
        stats[f"{layer}.calls"] += 1
        if main_pids is None or span["pid"] in main_pids:
            attributed_ms += self_us / 1e3
        for key in ("accesses", "misses", "pages", "epochs",
                    "pages_migrated", "executed"):
            stats[f"{layer}.{key}"] += float(args.get(key, 0))
        if layer == "runner.cache.get":
            hit = args.get("outcome") == "hit"
            stats[f"{layer}.{'hits' if hit else 'misses'}"] += 1
    stats["runner.retries"] = float(sum(
        1 for e in events if e.get("name") == "runner.retry"))
    stats["serve.transport_ms"] = sum(
        client_ms[t] - server_ms[t]
        for t in client_ms.keys() & server_ms.keys())
    attributed_ms += stats["serve.transport_ms"]
    for layer, per, scale in (
            ("workloads.synth", "accesses", 1e6),
            ("gpu.cache.filter", "accesses", 1e6),
            ("vm.place_all", "pages", 1e3),
            *((f"gpu.engine.{e}", "accesses", 1e6)
              for e in ("throughput", "detailed", "banked"))):
        count = stats[f"{layer}.{per}"]
        unit = "ns_per_access" if per == "accesses" else "us_per_page"
        stats[f"{layer}.{unit}"] = (stats[f"{layer}.self_ms"] * scale / count
                                    if count else 0.0)
    stats.update(serve_metrics or {})
    stats["import.ms"] = import_ms
    stats["other.self_ms"] = wall_ms - attributed_ms
    stats["trace.wall_ms"] = wall_ms
    fired = {name[:-len(".calls")] for name, n in stats.items()
             if name.endswith(".calls") and n}
    return {name: float(stats[name]) for name, _ in PER_LAYER}, fired


def serve_counters(metrics: Mapping[str, float]) -> dict[str, float]:
    """The serve-layer counters a daemon's ``/metrics`` scrape carries."""
    def total(prefix: str, exclude: str = "") -> float:
        return sum(value for key, value in metrics.items()
                   if key.startswith(prefix)
                   and not (exclude and exclude in key))

    batches = total("repro_serve_placement_batches_total")
    batched = total("repro_serve_placement_batched_requests_total")
    return {
        "serve.placement.mean_batch": batched / batches if batches else 0.0,
        "serve.simulate.cache_hits": total(
            "repro_serve_simulate_cache_hits_total"),
        "serve.simulate.dedup": total(
            "repro_serve_simulate_deduplicated_total"),
        "serve.errors": total("repro_serve_requests_total{",
                              exclude='status="200"'),
    }
