"""Start ``repro serve`` with its default config for the benchmark.

Traced and untraced runs start the daemon through this same launcher;
with ``--trace-file`` it first installs the tracer and the layer
wrappers, and exports the trace after the daemon drains on SIGTERM.
The daemon binds a free port and prints it on its ready line.  After
the daemon stops, the launcher prints one JSON line of host-speed
samples (``speed.py``), which normalize the launch time.

Usage (``PYTHONPATH`` must name the repo's ``src``)::

    python3 serve_launcher.py --cache-dir DIR [--trace-file trace.json]
"""

from __future__ import annotations

import argparse
import json


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    from repro.serve import ServeConfig, run

    tracer = None
    if args.trace_file:
        import layers

        tracer = layers.install(serve=True)
    run(ServeConfig(port=0, cache_dir=args.cache_dir))
    if tracer is not None:
        tracer.export(args.trace_file)

    from speed import child_samples_ms

    print(json.dumps({"speed_ms": child_samples_ms()}), flush=True)


if __name__ == "__main__":
    main()
