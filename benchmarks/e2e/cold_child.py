"""One cold ``repro run`` sample, run in a fresh interpreter.

Times ``import repro.cli`` and then one ``run_experiment`` call with
every memo cold, then the same call again with the trace memo warm,
then the reference kernel of :mod:`speed`.  Digests are computed after
the timed regions.  Prints one JSON line.

Usage (``PYTHONPATH`` must name the repo's ``src``)::

    python3 cold_child.py --workload bfs --engine detailed --seed 0 \
        --accesses 240000 [--trace-file events.json]
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from speed import child_samples_ms


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--engine", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--accesses", type=int, required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.cli  # noqa: F401 - the import being timed
    import_s = time.perf_counter() - start

    from repro.core.experiment import run_experiment
    from repro.runner.cache import encode_result, result_digest

    tracer = None
    if args.trace_file:
        import layers

        tracer = layers.install()

    def run():
        return run_experiment(args.workload, policy="BW-AWARE",
                              engine=args.engine,
                              trace_accesses=args.accesses, seed=args.seed)

    start = time.perf_counter()
    cold = run()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run()
    warm_s = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed_ms = child_samples_ms()

    if tracer is not None:
        with open(args.trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.events, handle)
    print(json.dumps({
        "import_s": import_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rss_mib": rss_mib,
        "speed_ms": speed_ms,
        "cold_digest": result_digest(encode_result(cold)),
        "warm_digest": result_digest(encode_result(warm)),
    }))


if __name__ == "__main__":
    main()
