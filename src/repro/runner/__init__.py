"""Parallel sweep execution with persistent result caching.

The experiment grid every figure sweeps — (workload, dataset, policy,
topology, capacity, seed) — is fully deterministic per point, which
makes it embarrassingly parallel *and* cacheable.  This package supplies
both:

* :class:`RunSpec` / :func:`make_spec` — canonical, hashable, portable
  descriptions of one experiment;
* :class:`ResultCache` — content-addressed records keyed by spec
  hash + code-version salt, appended to a few segment files, with
  hit/miss/invalidation accounting;
* :class:`SweepRunner` — cache lookup, in-batch dedup, and
  process-pool fan-out with deterministic chunking (bit-identical to
  serial execution);
* :class:`RunManifest` — per-batch observability records written to
  ``<runs_dir>/<run_id>/manifest.json``;
* :func:`active` / :func:`configure` / :func:`configured` — the shared
  process-wide runner the CLI and figure regenerators go through.

See ``docs/api.md`` ("Running sweeps in parallel") for usage.
"""

from repro.core.lazy import lazy_exports

_API = {
    "CacheStats": "repro.runner.cache",
    "RecoveryStats": "repro.runner.sweep",
    "ResultCache": "repro.runner.cache",
    "RunManifest": "repro.runner.manifest",
    "RunSpec": "repro.runner.spec",
    "SharedTraceArena": "repro.runner.shm",
    "SpecRecord": "repro.runner.manifest",
    "SweepOutcome": "repro.runner.sweep",
    "SweepRunner": "repro.runner.sweep",
    "TraceHandle": "repro.runner.shm",
    "active": "repro.runner.sweep",
    "bw_ratio_policy": "repro.policies.registry",
    "canonical_policy": "repro.policies.registry",
    "check_chunk_timeout": "repro.runner.sweep",
    "code_version_salt": "repro.runner.salt",
    "configure": "repro.runner.sweep",
    "configured": "repro.runner.sweep",
    "content_key": "repro.runner.spec",
    "decode_result": "repro.runner.cache",
    "default_cache_root": "repro.runner.sweep",
    "default_chunk_timeout": "repro.runner.sweep",
    "default_jobs": "repro.runner.sweep",
    "default_max_retries": "repro.runner.sweep",
    "describe_topology": "repro.runner.spec",
    "encode_result": "repro.runner.cache",
    "execute_spec": "repro.runner.sweep",
    "make_spec": "repro.runner.spec",
    "pack_chunk": "repro.runner.wire",
    "parse_policy": "repro.policies.registry",
    "result_digest": "repro.runner.cache",
    "shm_available": "repro.runner.shm",
    "strict_json_dumps": "repro.runner.cache",
    "unpack_chunk": "repro.runner.wire",
}

__all__ = sorted(_API)

__getattr__, __dir__ = lazy_exports(__name__, _API)
