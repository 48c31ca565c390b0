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

from repro.runner.cache import (
    CacheStats,
    ResultCache,
    decode_result,
    encode_result,
    result_digest,
    strict_json_dumps,
)
from repro.runner.manifest import RunManifest, SpecRecord
from repro.runner.salt import code_version_salt
from repro.runner.shm import (
    SharedTraceArena,
    TraceHandle,
    shm_available,
)
from repro.runner.spec import (
    RunSpec,
    bw_ratio_policy,
    canonical_policy,
    content_key,
    describe_topology,
    make_spec,
    parse_policy,
)
from repro.runner.sweep import (
    RecoveryStats,
    SweepOutcome,
    SweepRunner,
    active,
    check_chunk_timeout,
    configure,
    configured,
    default_cache_root,
    default_chunk_timeout,
    default_jobs,
    default_max_retries,
    execute_spec,
)
from repro.runner.wire import pack_chunk, unpack_chunk

__all__ = [
    "CacheStats",
    "RecoveryStats",
    "ResultCache",
    "RunManifest",
    "RunSpec",
    "SharedTraceArena",
    "SpecRecord",
    "SweepOutcome",
    "SweepRunner",
    "TraceHandle",
    "active",
    "bw_ratio_policy",
    "canonical_policy",
    "check_chunk_timeout",
    "code_version_salt",
    "configure",
    "configured",
    "content_key",
    "decode_result",
    "default_cache_root",
    "default_chunk_timeout",
    "default_jobs",
    "default_max_retries",
    "describe_topology",
    "encode_result",
    "execute_spec",
    "make_spec",
    "pack_chunk",
    "parse_policy",
    "result_digest",
    "shm_available",
    "strict_json_dumps",
    "unpack_chunk",
]
