"""Record a baseline set of benchmark runs, or compare two sets.

A set is one ``run.py`` run per (workload, seed); seeds vary in the
outer loop so each workload's runs spread over the whole set.  For
every metric the file keeps the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  Untraced sets also
keep the raw (not speed-normalized) values and each run's speed factor.

Usage, from the repo root::

    python3 benchmarks/e2e/baseline.py record --label a [--trace 1]
        [--seeds 0,2,3,4,5,6,7,8,9,10] [--seconds S] [--rev REV]
    python3 benchmarks/e2e/baseline.py compare BASELINE_x_a.json \
        BASELINE_x_b.json

``compare`` checks each end-to-end metric against its bound in
``BENCHMARK.json``: both spreads within a third of the bound, and the
second median no worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: seed 1 stays out of baselines: it is held out for claim checks.
DEFAULT_SEEDS = "0,2,3,4,5,6,7,8,9,10"


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(args) -> int:
    from run import host_details

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    values: dict[str, dict[str, list]] = {w: {} for w in names}
    raw: dict[str, dict[str, list]] = {w: {} for w in names}
    units: dict[str, str] = {}
    report_path = ROOT / ".e2e-bench" / "baseline-run.json"
    report_path.parent.mkdir(exist_ok=True)
    failed = attempted = 0
    correct = True
    for seed in seeds:
        for workload in names:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(args.trace),
                 "--out", str(report_path)],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode == 2:
                print(out.stderr, file=sys.stderr)
                return 2
            result = json.loads(out.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(
                    metric["value"])
                units[name] = metric["unit"]
            diagnostics = json.loads(report_path.read_text())[
                "workloads"][workload]["diagnostics"]
            for name, (value, unit) in diagnostics.items():
                if name.startswith("raw.") or name == "speed_factor":
                    raw[workload].setdefault(name, []).append(value)
            print(f"seed {seed} {workload}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in
                              result["metrics"].items()
                              if args.trace == 0), flush=True)
    report = {
        "rev": args.rev or git_rev(),
        "host": host_details(),
        "seconds": seconds, "trace": args.trace, "seeds": seeds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "workloads": {
            workload: {name: {"unit": units[name], **summarize(vals)}
                       for name, vals in metrics.items()}
            for workload, metrics in values.items()},
        "raw": {workload: {name: summarize(vals)
                           for name, vals in metrics.items()}
                for workload, metrics in raw.items() if metrics},
    }
    path = HERE / f"BASELINE_{report['rev']}_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if correct else 1


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first = json.loads(Path(args.first).read_text())["workloads"]
    second = json.loads(Path(args.second).read_text())["workloads"]
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in first:
            a, b = first[workload][name], second[workload][name]
            drift = (b["median"] - a["median"]) / a["median"]
            worse = drift if lower else -drift
            spreads_ok = (name == "setup_s"
                          or max(a["spread"], b["spread"]) < bound / 3)
            passed = spreads_ok and worse <= bound
            ok &= passed
            print(f"{'ok ' if passed else 'BAD'} {workload:15s} {name:13s}"
                  f" spread {a['spread']:.3f}/{b['spread']:.3f}"
                  f" drift {drift:+.3f} bound {bound}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--label", required=True)
    rec.add_argument("--seeds", default=DEFAULT_SEEDS)
    rec.add_argument("--seconds", type=int,
                     help="run length (default: BENCHMARK.json run_seconds)")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rec.add_argument("--rev")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
