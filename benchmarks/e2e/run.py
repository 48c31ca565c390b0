"""End-to-end benchmark of the placement simulator: one command.

Runs the four workloads (``cold_cli``, ``figure_sweep``,
``serve_mixed``, ``dynamic_epochs``), each in a fresh interpreter,
prints every metric by name with its unit, checks every output against
the frozen digests in ``digests.json``, and prints one JSON result as
its last line.  See README.md for what each workload and metric means.

Usage, from the repo root (no install needed; ``src`` is found from
this file's location)::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
    python3 benchmarks/e2e/run.py --freeze     # re-record digests.json

``--trace 1`` runs the workload untraced and then traced, for half of
``--seconds`` each, and reports the per-layer ledger of the traced run
(plus tracing overhead) instead of the end-to-end metrics.  It writes a
Perfetto-loadable trace per workload to ``--trace-dir``.

Exit status: 0 when every operation succeeded and matched, 1 when an
operation failed (the result line is still printed), 2 when the
benchmark itself could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".e2e-bench"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("cold_cli", "figure_sweep", "serve_mixed", "dynamic_epochs")

#: end-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cold_ms", "ms"),
    ("warm_ms", "ms"),
)

#: seeds whose digests are frozen (seed 1 is held out for claim checks).
FROZEN_SEEDS = (0, 1)

#: traced wall must cover the layer self times to within this share.
RECONCILE_TOLERANCE = 0.05
RECONCILED_WORKLOADS = ("cold_cli", "dynamic_epochs")

#: one workload run (both halves of a traced run) must finish well
#: inside three minutes.
WORKLOAD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(workload: str, seed: int, seconds: float, work: Path,
              deadline: float, traced: bool = False,
              freeze: bool = False) -> dict:
    """Run one workload in a fresh interpreter; returns its result.

    ``deadline`` is the ``time.monotonic()`` instant by which the child
    must have finished.
    """
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--work", str(work)]
    if traced:
        command.append("--traced")
    if freeze:
        command.append("--freeze")
    # A session of its own, so a timeout can stop the whole tree
    # (sweep workers, the serve daemon) and not leave any behind.
    proc = subprocess.Popen(command, env=child_env(work), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: no result within "
                         f"{WORKLOAD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited {proc.returncode}:\n"
                         f"{stderr[-4000:]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{workload}: unreadable result:\n{stdout[-2000:]}")


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())["seeds"]
    except FileNotFoundError:
        return {}


def check_digests(result: dict, seed: int, frozen: dict) -> list[str]:
    """Labels whose digest differs from (or is missing in) the frozen
    file; empty when the seed has no frozen digests."""
    expected = frozen.get(str(seed))
    if expected is None:
        return []
    return sorted(label for label, value in result["digests"].items()
                  if expected.get(label) != value)


def run_workload(workload: str, args, frozen: dict) -> dict:
    """One workload run, as the report and the result line need it."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        if args.trace:
            half = args.seconds / 2
            plain = run_child(workload, args.seed, half, work / "plain",
                              deadline)
            traced = run_child(workload, args.seed, half, work / "traced",
                               deadline, traced=True)
            report = ledger_report(workload, args, plain, traced)
            runs = (plain, traced)
        else:
            result = run_child(workload, args.seed, args.seconds, work,
                               deadline)
            report = {"metrics": {name: (result["metrics"][name], unit)
                                  for name, unit in END_TO_END},
                      "diagnostics": result["diagnostics"],
                      "problems": []}
            runs = (result,)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mismatched = [label for run in runs
                  for label in check_digests(run, args.seed, frozen)]
    report["problems"] += [f"digest mismatch: {label}"
                           for label in mismatched]
    report["problems"] += [e for run in runs for e in run["errors"]]
    report["attempted"] = sum(run["attempted"] for run in runs)
    report["failed"] = sum(run["failed"] for run in runs) + len(mismatched)
    return report


def ledger_report(workload: str, args, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced run, with its overhead and checks."""
    import layers

    table = dict(traced["layers"])
    base = plain["metrics"]["cold_ms"]
    table["trace.overhead_ms"] = traced["metrics"]["cold_ms"] - base
    table["trace.overhead_pct"] = 100 * table["trace.overhead_ms"] / base
    problems = [f"layer {layer} did not fire"
                for layer in layers.EXPECTED[workload]
                if layer not in traced["fired"]]
    wall = table["trace.wall_ms"]
    if (workload in RECONCILED_WORKLOADS
            and table["other.self_ms"] < -RECONCILE_TOLERANCE * wall):
        problems.append(
            f"layer self times exceed traced wall by "
            f"{-table['other.self_ms']:.1f} ms of {wall:.1f} ms")
    trace_dir = Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    kept = trace_dir / f"{workload}-seed{args.seed}.json"
    shutil.copyfile(traced["trace_file"], kept)
    return {"metrics": {name: (table[name], unit)
                        for name, unit in layers.PER_LAYER},
            "diagnostics": {"trace_file": [str(kept), "path"],
                            "unattributed_pct": [
                                100 * table["other.self_ms"] / wall, "%"]},
            "problems": problems}


def print_report(workload: str, report: dict) -> None:
    print(f"== {workload}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for name, (value, unit) in report["diagnostics"].items():
        shown = f"{value:14.4f}" if isinstance(value, float) else value
        print(f"  ({name:32s} {shown} {unit})")
    print(f"  attempted {report['attempted']}, failed {report['failed']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def host_details() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def freeze() -> int:
    """Re-record digests.json for the frozen seeds; print what moved."""
    old = load_digests()
    new: dict[str, dict] = {}
    for seed in FROZEN_SEEDS:
        digests: dict[str, str] = {}
        for workload in WORKLOADS:
            work = WORK_ROOT / f"freeze-{workload}-{os.getpid()}"
            try:
                result = run_child(workload, seed, 0, work,
                                   time.monotonic() + WORKLOAD_TIMEOUT_S,
                                   freeze=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result["failed"]:
                print(f"seed {seed} {workload}: {result['errors']}",
                      file=sys.stderr)
                return 1
            digests.update(result["digests"])
        new[str(seed)] = dict(sorted(digests.items()))
    for seed, digests in new.items():
        before = old.get(seed, {})
        for label in sorted(digests.keys() | before.keys()):
            if label not in before:
                print(f"seed {seed} added   {label}")
            elif label not in digests:
                print(f"seed {seed} removed {label}")
            elif before[label] != digests[label]:
                print(f"seed {seed} moved   {label}")
    DIGESTS.write_text(json.dumps({"seeds": new}, indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=str(WORK_ROOT / "traces"))
    parser.add_argument("--out", help="also write the full report here")
    parser.add_argument("--freeze", action="store_true",
                        help="re-record digests.json and exit")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if args.freeze:
        return freeze()

    frozen = load_digests()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    started = time.time()
    try:
        for workload in names:
            reports[workload] = run_workload(workload, args, frozen)
            print_report(workload, reports[workload])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    correct = all(not r["problems"] and not r["failed"]
                  for r in reports.values())
    if args.out:
        Path(args.out).write_text(json.dumps({
            "host": host_details(), "started_unix": started,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workloads": reports}, indent=1) + "\n")
    prefix = len(names) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (f"{workload}.{name}" if prefix else name):
                {"value": value, "unit": unit}
            for workload, report in reports.items()
            for name, (value, unit) in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
