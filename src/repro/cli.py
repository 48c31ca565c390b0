"""Command-line interface.

Everything the library does is reachable from the shell::

    repro list workloads
    repro run --workload bfs --policy BW-AWARE --capacity 0.1
    repro compare --workload lbm bfs --jobs 4
    repro figure fig03_ratio_sweep --jobs 4
    repro profile --workload bfs
    repro trace --workload bfs --out bfs.npz
    repro serve --port 8077
    repro request simulate -w bfs -p BW-AWARE

(or ``python -m repro ...`` without the console script installed).

``compare`` and ``figure`` execute their experiment grids through
:mod:`repro.runner`: ``--jobs N`` fans misses across N worker
processes, and completed results are cached on disk (default
``$REPRO_CACHE_DIR`` or ``./.repro-cache``; disable with
``--no-cache``) so re-running a figure after an unrelated edit is
near-instant.  Each sweep writes a manifest under
``<cache>/runs/<run-id>/manifest.json`` recording specs, timings and
cache hits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.cachedir import cache_root, describe_default
from repro.core.errors import (ConfigError, ReproError, RequestLimitError,
                               RunnerError, ServeError)
from repro.obs import trace as obs_trace
from repro.core.experiment import compare_policies, run_experiment
from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.core.metrics import normalize
from repro.core.units import format_bytes
from repro.memory.topology import (
    NAMED_TOPOLOGIES,
    SystemTopology,
    topology_by_name,
    topology_names,
)
from repro.policies.registry import policy_names
from repro.workloads import get_workload, scenario_names, workload_names

#: the CLI spelling of the shared topology registry.
TOPOLOGIES = NAMED_TOPOLOGIES


def _topology(name: str) -> SystemTopology:
    try:
        return topology_by_name(name)
    except ConfigError as exc:
        raise SystemExit(str(exc))


def _experiment_names() -> list[str]:
    from repro import experiments

    return sorted(experiments.__all__)


def _trace_registry(cache_dir: Optional[str]):
    """The trace registry the ingest/mix verbs operate on.

    ``--cache-dir`` relocates it (and becomes the session default so
    ``trace:``/``mix:`` workload resolution finds the same traces);
    otherwise $REPRO_TRACE_DIR or ``<cache-root>/traces``.
    """
    from repro.core.cachedir import cache_root
    from repro.ingest import TraceRegistry, default_root, set_default_root
    from repro.ingest.registry import TRACES_DIRNAME

    if cache_dir:
        root = cache_root(cache_dir) / TRACES_DIRNAME
        set_default_root(root)
        return TraceRegistry(root)
    return TraceRegistry(default_root())


def cmd_list(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "traces":
        registry = _trace_registry(getattr(args, "cache_dir", None))
        names = registry.names()
        for name in names:
            record = registry.record(name)
            if record is None:
                continue
            print(f"{record.canonical:32s} [{record.fmt:4s}] "
                  f"{record.n_accesses} accesses, "
                  f"{record.footprint_pages} pages, "
                  f"{format_bytes(record.source_bytes)}")
        if not names:
            print("no ingested traces "
                  "(add one with `repro ingest <file>`)")
        quarantined = registry.quarantined_count()
        if quarantined:
            print(f"{quarantined} quarantined reject(s) under "
                  f"{registry.quarantine_dir()}")
        return 0
    if kind == "workloads":
        for name in workload_names():
            workload = get_workload(name)
            print(f"{name:12s} [{workload.suite:8s}] "
                  f"{workload.description}")
        for name in scenario_names():
            workload = get_workload(name)
            print(f"{name:14s} [{workload.suite:8s}] "
                  f"{workload.description}")
    elif kind == "policies":
        for name in policy_names():
            print(name)
    elif kind == "experiments":
        for name in _experiment_names():
            print(name)
    elif kind == "topologies":
        for name, factory in sorted(TOPOLOGIES.items()):
            topology = factory()
            zones = ", ".join(
                f"{z.name}={z.bandwidth_gbps:.0f}GB/s" for z in topology
            )
            print(f"{name:10s} {zones}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(
        args.workload,
        dataset=args.dataset,
        policy=args.policy,
        topology=_topology(args.topology),
        bo_capacity_fraction=args.capacity,
        engine=args.engine,
        trace_accesses=args.accesses,
        seed=args.seed,
    )
    print(result.describe())
    print(f"achieved bandwidth: "
          f"{result.sim.achieved_bandwidth / 1e9:.1f} GB/s")
    print(f"dominant bound: {result.sim.dominant_bound()}")
    return 0


def _sweep_runner(args: argparse.Namespace):
    """A scoped :mod:`repro.runner` configuration from CLI flags.

    Caching defaults ON for CLI sweeps; ``--no-cache`` bypasses it and
    ``--cache-dir`` relocates it (otherwise ``$REPRO_CACHE_DIR`` or
    ``./.repro-cache``).
    """
    from repro.runner import ResultCache, configured

    if args.no_cache:
        cache: object = False
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = True
    return configured(jobs=args.jobs, cache=cache,
                      runs_dir=args.runs_dir,
                      chunk_timeout_s=args.chunk_timeout,
                      max_retries=args.max_retries,
                      shm=getattr(args, "shm", None))


def cmd_autotune(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache, code_version_salt, content_key
    from repro.tuning import (AutotuneReport, RatioController, autotune,
                              autotune_spec)

    topology = _topology(args.topology)
    controller = RatioController()
    try:
        report = autotune(
            args.workload, topology,
            dataset=args.dataset,
            engine=args.engine,
            n_accesses=args.accesses,
            seed=args.seed,
            epochs=args.epochs,
            controller=controller,
        )
    except ReproError as exc:
        raise SystemExit(str(exc))

    def fmt(fractions) -> str:
        return "[" + ", ".join(f"{f:.3f}" for f in fractions) + "]"

    print(f"{report.workload}/{report.dataset} on {report.topology} "
          f"({report.engine}, {report.epochs} epochs)")
    print(f"static fractions : {fmt(report.static_fractions)} "
          f"-> {report.static_time_ns / 1e6:.3f} ms")
    print(f"tuned fractions  : {fmt(report.tuned_fractions)} "
          f"-> {report.tuned_time_ns / 1e6:.3f} ms")
    print(f"closed-form SBIT : {fmt(report.closed_form_fractions)}")
    print(f"speedup over static: {report.speedup:.3f}x   "
          f"gap to closed form: {report.closed_form_gap:.4f}")
    if not args.no_save:
        spec = autotune_spec(
            report.workload, topology, dataset=report.dataset,
            engine=report.engine, seed=report.seed, epochs=report.epochs,
            n_accesses=report.n_accesses, controller=controller)
        key = content_key(spec, code_version_salt())
        cache = ResultCache(cache_root(args.cache_dir))
        cache.put(key, spec, report, AutotuneReport.to_dict)
        print(f"profile saved: {key} in {cache.root}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.runner import make_spec

    topology = _topology(args.topology)
    specs = [
        make_spec(
            workload, policy,
            dataset=args.dataset,
            topology=topology,
            bo_capacity_fraction=args.capacity,
            trace_accesses=args.accesses,
            seed=args.seed,
        )
        for workload in args.workload
        for policy in args.policies
    ]
    with _sweep_runner(args) as runner:
        outcome = runner.run(specs)
        results = iter(outcome.results)
        for workload in args.workload:
            per_policy = {policy: next(results)
                          for policy in args.policies}
            normalized = normalize(
                {name: r.throughput for name, r in per_policy.items()},
                args.policies[0],
            )
            if len(args.workload) > 1:
                print(f"{workload}:")
            for name in args.policies:
                result = per_policy[name]
                print(f"{name:18s} {normalized[name]:6.3f}x  "
                      f"{result.time_ns / 1e6:8.3f} ms  "
                      f"{result.sim.achieved_bandwidth / 1e9:6.1f} GB/s")
        print(outcome.manifest.summary())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    if args.name not in _experiment_names():
        raise SystemExit(
            f"unknown experiment {args.name!r}; see `repro list "
            "experiments`"
        )
    module = importlib.import_module(f"repro.experiments.{args.name}")
    with _sweep_runner(args) as runner:
        if args.chart:
            from repro.analysis.charts import ascii_chart
            from repro.analysis.report import FigureResult

            candidates = [getattr(module, "run", None)] + [
                getattr(module, name) for name in sorted(dir(module))
                if name.startswith("run_")
            ]
            result = None
            for candidate in candidates:
                if callable(candidate):
                    produced = candidate()
                    if isinstance(produced, FigureResult):
                        result = produced
                        break
            if result is None:
                raise SystemExit(
                    f"{args.name} does not produce a line figure; run "
                    "without --chart"
                )
            print(ascii_chart(result))
        else:
            module.main()
        if runner.last_manifest is not None:
            print(runner.last_manifest.summary())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling import AccessCdf, PageAccessProfiler

    workload = get_workload(args.workload)
    profile = PageAccessProfiler().profile(
        workload, args.dataset,
        n_accesses=args.accesses, seed=args.seed,
    )
    print(f"{args.workload}/{args.dataset}: "
          f"{profile.total_accesses} DRAM accesses over "
          f"{profile.footprint_pages} pages")
    for structure in profile.hotness_ranking():
        share = structure.accesses / max(profile.total_accesses, 1)
        print(f"  {structure.name:24s} "
              f"{format_bytes(structure.n_pages * 4096):>10} "
              f"{share:7.1%}  {structure.hotness_density:10.1f} acc/page")
    cdf = AccessCdf.from_counts(profile.page_counts)
    print(f"traffic from hottest 10% of pages: "
          f"{cdf.traffic_at_footprint(0.1):.0%} "
          f"(skew {cdf.skew():.2f})")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.calibration import run_scorecard

    workloads = args.workloads if args.workloads else None
    scorecard = run_scorecard(workloads)
    print(scorecard.render())
    return 0 if scorecard.all_within_band else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.ingest.npz import save_npz

    workload = get_workload(args.workload)
    kwargs = {} if args.accesses is None else {"n_accesses": args.accesses}
    trace = workload.dram_trace(args.dataset, seed=args.seed, **kwargs)
    path = save_npz(trace, args.out)
    print(f"wrote {trace.n_accesses} accesses "
          f"({trace.footprint_pages} pages) to {path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.core.errors import IngestError
    from repro.ingest import DEFAULT_LIMITS

    if args.name is not None and len(args.files) != 1:
        raise SystemExit("--name requires exactly one input file")
    registry = _trace_registry(args.cache_dir)
    overrides = {}
    if args.max_bytes is not None:
        overrides["max_bytes"] = args.max_bytes
    if args.max_lines is not None:
        overrides["max_lines"] = args.max_lines
    if args.max_pages is not None:
        overrides["max_pages"] = args.max_pages
    if args.deadline is not None:
        overrides["deadline_s"] = args.deadline
    try:
        limits = dataclasses.replace(DEFAULT_LIMITS, **overrides)
    except ConfigError as exc:
        raise SystemExit(str(exc))
    rejected = 0
    for path in args.files:
        try:
            record = registry.admit(Path(path), name=args.name,
                                    fmt=args.format, limits=limits)
        except (IngestError, OSError) as exc:
            rejected += 1
            print(f"REJECTED {path}: {exc}", file=sys.stderr)
        else:
            print(f"admitted {record.canonical}  "
                  f"[{record.fmt}] {record.n_accesses} accesses, "
                  f"{record.footprint_pages} pages, "
                  f"{format_bytes(record.source_bytes)}")
    if rejected:
        print(f"{rejected} of {len(args.files)} input(s) rejected; "
              f"see {registry.quarantine_dir()}", file=sys.stderr)
    return 1 if rejected else 0


def cmd_mix(args: argparse.Namespace) -> int:
    from repro.ingest import run_mix

    registry = _trace_registry(args.cache_dir)
    topology = _topology(args.topology)
    try:
        with _sweep_runner(args) as runner:
            outcome = run_mix(
                args.members, args.policies, runner,
                registry=registry,
                topology=topology,
                bo_capacity_fraction=args.capacity,
                seed=args.seed,
            )
            for member in outcome.members:
                if member.ok:
                    print(f"member {member.canonical}: ok "
                          f"({member.accesses} accesses)")
                else:
                    reason = (member.error or {}).get("reason",
                                                      "unknown failure")
                    print(f"member {member.name}: FAILED — {reason}",
                          file=sys.stderr)
            if outcome.workload_name is None:
                print("no members survived admission; nothing to run",
                      file=sys.stderr)
                return 1
            print(f"swept {outcome.workload_name}")
            for policy, result in zip(args.policies, outcome.results):
                print(f"{policy:18s} {result.time_ns / 1e6:8.3f} ms  "
                      f"{result.sim.achieved_bandwidth / 1e9:6.1f} GB/s")
            if outcome.manifest is not None:
                print(outcome.manifest.summary())
    except ConfigError as exc:
        raise SystemExit(str(exc))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig
    from repro.serve import run as serve_run

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            jobs=args.jobs if args.jobs is not None else 1,
            max_pending_jobs=args.max_pending,
            simulate_workers=args.workers,
            request_timeout_s=args.timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            drain_timeout_s=args.drain_timeout,
            chunk_timeout_s=args.chunk_timeout,
            max_retries=args.max_retries,
            use_shm=args.shm,
        )
    except ConfigError as exc:
        raise SystemExit(str(exc))
    serve_run(config)
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.serve.config import default_serve_url
    from repro.serve.loadtest import (
        format_summary,
        run_loadtest,
        write_report,
    )

    report = run_loadtest(
        args.url or default_serve_url(),
        duration_s=args.duration,
        placement_workers=args.placement_workers,
        simulate_workers=args.simulate_workers,
        distinct_specs=args.distinct,
        workload=args.workload,
        trace_accesses=args.accesses,
        seed_base=args.seed_base,
        timeout_s=args.timeout,
    )
    print(format_summary(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote report to {args.out}")
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url, timeout_s=args.timeout)
    try:
        if args.endpoint == "health":
            _print_json(client.health())
        elif args.endpoint == "metrics":
            print(client.metrics_text(), end="")
        elif args.endpoint == "placement":
            sizes = _csv_values(args.sizes, int, "--sizes")
            hotness = _csv_values(args.hotness, float, "--hotness")
            _print_json(client.placement(
                sizes=sizes, hotness=hotness,
                bo_capacity_bytes=args.bo_capacity,
                topology=args.topology,
            ))
        elif args.endpoint == "simulate":
            _print_json(client.simulate(
                workload=args.workload,
                policy=args.policy,
                dataset=args.dataset,
                topology=args.topology,
                bo_capacity_fraction=args.capacity,
                trace_accesses=args.accesses,
                seed=args.seed,
                engine=args.engine,
                retries=args.retries,
            ))
        elif args.endpoint == "profile":
            _print_json(client.profile(
                args.workload, dataset=args.dataset,
                accesses=args.accesses, seed=args.seed,
            ))
    except ServeError as exc:
        hint = (f" (retry after {exc.retry_after:g}s)"
                if exc.retry_after is not None else "")
        print(f"error [{exc.status or 'transport'}]: {exc}{hint}",
              file=sys.stderr)
        return 1
    return 0


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _capped(check, field: str):
    """An argparse type: an integer within one shared request cap."""
    def parse(raw: str) -> int:
        try:
            return check(int(raw), field)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
        except RequestLimitError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


_accesses = _capped(DEFAULT_REQUEST_LIMITS.check_accesses, "accesses")
_epochs = _capped(DEFAULT_REQUEST_LIMITS.check_epochs, "epochs")


def _chunk_timeout(raw: str) -> float:
    """An argparse type: a chunk budget the sweep runner accepts."""
    from repro.runner import check_chunk_timeout

    try:
        return check_chunk_timeout(float(raw))
    except (ValueError, RunnerError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _csv_values(raw: str, cast, flag: str) -> list:
    try:
        return [cast(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"{flag} must be comma-separated numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Page Placement Strategies for "
                     "GPUs within Heterogeneous Memory Systems' "
                     "(ASPLOS 2015)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate library entities")
    p_list.add_argument("kind", choices=("workloads", "policies",
                                         "experiments", "topologies",
                                         "traces"))
    p_list.add_argument("--cache-dir", default=None,
                        help="cache root whose trace registry to list "
                             f"(default: {describe_default()})")
    p_list.set_defaults(fn=cmd_list)

    def common(p: argparse.ArgumentParser,
               multi_workload: bool = False) -> None:
        if multi_workload:
            p.add_argument("--workload", "-w", required=True, nargs="+",
                           help="benchmark name(s) "
                                "(see `repro list workloads`)")
        else:
            p.add_argument("--workload", "-w", required=True,
                           help="benchmark name "
                                "(see `repro list workloads`)")
        p.add_argument("--dataset", "-d", default="default")
        p.add_argument("--topology", "-t", default="baseline",
                       choices=sorted(TOPOLOGIES))
        p.add_argument("--capacity", "-c", type=float, default=None,
                       help="BO capacity as a fraction of the footprint")
        p.add_argument("--accesses", "-n", type=_accesses, default=None,
                       help="raw trace length")
        p.add_argument("--seed", type=int, default=0)

    def trace_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record a span trace and write Chrome "
                            "trace-event JSON here on exit (also: "
                            "REPRO_TRACE=<path>); open in Perfetto or "
                            "about:tracing")

    def runner_options(p: argparse.ArgumentParser) -> None:
        trace_option(p)
        p.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes for the sweep "
                            "(default: $REPRO_JOBS or 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
        p.add_argument("--cache-dir", default=None,
                       help="result cache root (default: "
                            f"{describe_default()})")
        p.add_argument("--runs-dir", default=None,
                       help="manifest directory "
                            "(default: <cache-dir>/runs)")
        p.add_argument("--chunk-timeout", type=_chunk_timeout,
                       help="wall-clock budget per worker chunk in "
                            "seconds; hung chunks are retried "
                            "(default: $REPRO_CHUNK_TIMEOUT or off)")
        p.add_argument("--max-retries", type=int, default=None,
                       help="retry budget per spec before the sweep "
                            "fails (default: $REPRO_MAX_RETRIES or 2)")
        p.add_argument("--shm", dest="shm", action="store_true",
                       default=None,
                       help="force shared-memory trace shipping "
                            "(default: $REPRO_SHM, or automatic when "
                            "--jobs > 1)")
        p.add_argument("--no-shm", dest="shm", action="store_false",
                       help="disable shared-memory trace shipping "
                            "(workers synthesize traces themselves)")

    p_run = sub.add_parser("run", help="run one placement experiment")
    common(p_run)
    p_run.add_argument("--policy", "-p", default="BW-AWARE")
    p_run.add_argument("--engine", default="throughput",
                       choices=("throughput", "detailed", "banked"))
    trace_option(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_tune = sub.add_parser(
        "autotune",
        help="close the loop: tune the interleave ratio from observed "
             "per-pool bandwidth counters",
    )
    p_tune.add_argument("--workload", "-w", required=True)
    p_tune.add_argument("--dataset", "-d", default="default")
    p_tune.add_argument("--topology", "-t", default="baseline",
                        choices=sorted(TOPOLOGIES))
    p_tune.add_argument("--engine", default="throughput",
                        choices=("throughput", "detailed", "banked"))
    p_tune.add_argument("--epochs", type=_epochs, default=16,
                        help="controller epochs (>= 2)")
    p_tune.add_argument("--accesses", "-n", type=_accesses, default=60_000,
                        help="raw trace length")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: "
                             f"{describe_default()})")
    p_tune.add_argument("--no-save", action="store_true",
                        help="don't persist the tuned profile")
    p_tune.set_defaults(fn=cmd_autotune)

    p_cmp = sub.add_parser("compare", help="compare policies")
    common(p_cmp, multi_workload=True)
    p_cmp.add_argument("--policies", "--policy", "-p", nargs="+",
                       default=["LOCAL", "INTERLEAVE", "BW-AWARE"])
    runner_options(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_fig = sub.add_parser("figure",
                           help="regenerate a paper figure/table")
    p_fig.add_argument("name",
                       help="experiment module, e.g. fig03_ratio_sweep")
    p_fig.add_argument("--chart", action="store_true",
                       help="render line figures as an ASCII chart")
    runner_options(p_fig)
    p_fig.set_defaults(fn=cmd_figure)

    p_prof = sub.add_parser("profile",
                            help="profile a workload (Section 5.1)")
    p_prof.add_argument("--workload", "-w", required=True)
    p_prof.add_argument("--dataset", "-d", default="default")
    p_prof.add_argument("--accesses", "-n", type=_accesses, default=None)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.set_defaults(fn=cmd_profile)

    p_cal = sub.add_parser(
        "calibrate",
        help="score measured headline numbers against the paper",
    )
    p_cal.add_argument("--workloads", "-w", nargs="*", default=None)
    p_cal.set_defaults(fn=cmd_calibrate)

    p_trace = sub.add_parser(
        "trace", help="synthesize and save a trace (.npz, readable by "
                      "`repro ingest`)")
    p_trace.add_argument("--workload", "-w", required=True)
    p_trace.add_argument("--dataset", "-d", default="default")
    p_trace.add_argument("--accesses", "-n", type=_accesses, default=None)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", "-o", required=True)
    p_trace.set_defaults(fn=cmd_trace)

    p_ing = sub.add_parser(
        "ingest",
        help="validate and register external trace files (DRAMSim2 "
             "k6/mase, or npz from `repro trace`); rejects are "
             "quarantined, exit 1 if any",
    )
    p_ing.add_argument("files", nargs="+", metavar="FILE",
                       help="trace file(s): '<address> <command> "
                            "<cycle>' lines, or a .npz archive")
    p_ing.add_argument("--name", default=None,
                       help="registry name (single file only; default: "
                            "sanitized file stem)")
    p_ing.add_argument("--format", choices=("k6", "mase", "npz"),
                       default=None,
                       help="trace format (default: inferred from the "
                            "k6*/mase* filename prefix or .npz suffix)")
    p_ing.add_argument("--cache-dir", default=None,
                       help="cache root holding the trace registry "
                            f"(default: {describe_default()})")
    p_ing.add_argument("--max-bytes", type=int, default=None,
                       help="reject inputs larger than this many bytes")
    p_ing.add_argument("--max-lines", type=int, default=None,
                       help="reject inputs with more lines (npz: "
                            "accesses) than this")
    p_ing.add_argument("--max-pages", type=int, default=None,
                       help="reject traces touching more distinct "
                            "pages than this")
    p_ing.add_argument("--deadline", type=float, default=None,
                       help="wall-clock parse budget in seconds")
    p_ing.set_defaults(fn=cmd_ingest)

    p_mix = sub.add_parser(
        "mix",
        help="co-schedule 2-4 ingested traces as one cycle-interleaved "
             "workload with per-member fault isolation",
    )
    p_mix.add_argument("members", nargs="+", metavar="TRACE",
                       help="ingested trace names (with or without the "
                            "'trace:' prefix / '#<sha>' fragment)")
    p_mix.add_argument("--policies", "--policy", "-p", nargs="+",
                       default=["LOCAL", "INTERLEAVE", "BW-AWARE"])
    p_mix.add_argument("--topology", "-t", default="baseline",
                       choices=sorted(TOPOLOGIES))
    p_mix.add_argument("--capacity", "-c", type=float, default=None,
                       help="BO capacity as a fraction of the footprint")
    p_mix.add_argument("--seed", type=int, default=0)
    runner_options(p_mix)
    p_mix.set_defaults(fn=cmd_mix)

    from repro.serve.config import DEFAULT_HOST, DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve",
        help="run the placement-as-a-service daemon (HTTP/JSON)",
    )
    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="bind port (0 picks a free one)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="result cache root (default: "
                              f"{describe_default()})")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk result cache")
    p_serve.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes per simulate job")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="threads draining the simulate queue")
    p_serve.add_argument("--max-pending", type=int, default=8,
                         help="distinct in-flight simulate jobs before "
                              "429 backpressure")
    p_serve.add_argument("--timeout", type=float, default=120.0,
                         help="per-request timeout in seconds")
    p_serve.add_argument("--breaker-threshold", type=int, default=5,
                         help="consecutive simulate failures before "
                              "the circuit breaker opens (fast 503)")
    p_serve.add_argument("--breaker-reset", type=float, default=30.0,
                         help="seconds the breaker stays open before "
                              "half-open probes are admitted")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         help="seconds graceful shutdown waits for "
                              "in-flight jobs")
    p_serve.add_argument("--chunk-timeout", type=_chunk_timeout,
                         help="runner per-chunk wall-clock budget in "
                              "seconds (default: $REPRO_CHUNK_TIMEOUT "
                              "or off)")
    p_serve.add_argument("--max-retries", type=int, default=None,
                         help="runner retry budget per spec "
                              "(default: $REPRO_MAX_RETRIES or 2)")
    p_serve.add_argument("--shm", dest="shm", action="store_true",
                         default=None,
                         help="force shared-memory trace shipping for "
                              "the daemon's runner (default: "
                              "$REPRO_SHM, or automatic when "
                              "--jobs > 1)")
    p_serve.add_argument("--no-shm", dest="shm", action="store_false",
                         help="disable shared-memory trace shipping")
    trace_option(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_req = sub.add_parser(
        "request",
        help="issue one request against a running daemon",
    )
    req_sub = p_req.add_subparsers(dest="endpoint", required=True)

    def req_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default=None,
                       help="daemon base URL (default: $REPRO_SERVE_URL "
                            "or http://127.0.0.1:8077)")
        p.add_argument("--timeout", type=float, default=300.0)
        trace_option(p)
        p.set_defaults(fn=cmd_request)

    r_health = req_sub.add_parser("health", help="GET /healthz")
    req_common(r_health)

    r_metrics = req_sub.add_parser("metrics", help="GET /metrics")
    req_common(r_metrics)

    r_place = req_sub.add_parser(
        "placement", help="POST /v1/placement (GetAllocation hints)")
    r_place.add_argument("--sizes", required=True,
                         help="comma-separated allocation sizes in bytes")
    r_place.add_argument("--hotness", required=True,
                         help="comma-separated hotness values")
    r_place.add_argument("--bo-capacity", type=int, required=True,
                         help="BO pool capacity in bytes")
    r_place.add_argument("--topology", "-t", default=None,
                         choices=sorted(TOPOLOGIES))
    req_common(r_place)

    r_sim = req_sub.add_parser(
        "simulate", help="POST /v1/simulate (experiment via runner)")
    r_sim.add_argument("--workload", "-w", required=True)
    r_sim.add_argument("--policy", "-p", default="BW-AWARE")
    r_sim.add_argument("--dataset", "-d", default="default")
    r_sim.add_argument("--topology", "-t", default=None,
                       choices=sorted(TOPOLOGIES))
    r_sim.add_argument("--capacity", "-c", type=float, default=None)
    r_sim.add_argument("--accesses", "-n", type=_accesses, default=None)
    r_sim.add_argument("--seed", type=int, default=0)
    r_sim.add_argument("--engine", default="throughput",
                       choices=("throughput", "detailed", "banked"))
    r_sim.add_argument("--retries", type=int, default=0,
                       help="retry count for 429 backpressure")
    req_common(r_sim)

    r_prof = req_sub.add_parser(
        "profile", help="GET /v1/profile/<workload>")
    r_prof.add_argument("--workload", "-w", required=True)
    r_prof.add_argument("--dataset", "-d", default="default")
    r_prof.add_argument("--accesses", "-n", type=_accesses, default=None)
    r_prof.add_argument("--seed", type=int, default=0)
    req_common(r_prof)

    p_load = sub.add_parser(
        "loadtest",
        help="closed-loop load generator against a running daemon "
             "(per-lane QPS/p50/p99 JSON report)")
    p_load.add_argument("--url", default=None,
                        help="target base URL (default "
                             "$REPRO_SERVE_URL or the local daemon)")
    p_load.add_argument("--duration", type=float, default=10.0,
                        help="seconds to drive load for")
    p_load.add_argument("--placement-workers", type=int, default=4,
                        help="closed-loop placement worker threads")
    p_load.add_argument("--simulate-workers", type=int, default=0,
                        help="closed-loop simulate worker threads")
    p_load.add_argument("--distinct", type=int, default=4,
                        help="distinct simulate specs (seeds) cycled "
                             "by the simulate workers")
    p_load.add_argument("--workload", "-w", default="bfs")
    p_load.add_argument("--accesses", "-n", type=_accesses, default=20_000,
                        help="trace accesses per simulate spec")
    p_load.add_argument("--seed-base", type=int, default=1000)
    p_load.add_argument("--timeout", type=float, default=60.0,
                        help="per-request client timeout in seconds")
    p_load.add_argument("--out", default=None,
                        help="write the JSON report here")
    p_load.set_defaults(fn=cmd_loadtest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    tracer = obs_trace.install(trace_path) if trace_path else None
    try:
        return args.fn(args)
    except ReproError as exc:
        # A user error (unknown policy, bad spec tail, ...): one line
        # and exit status 2, as argparse reports a bad flag.
        parser.exit(2, f"repro {args.command}: error: {exc}\n")
    finally:
        if tracer is not None:
            obs_trace.uninstall()
            tracer.export()
            print(f"wrote trace to {trace_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
