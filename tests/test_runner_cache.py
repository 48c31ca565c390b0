"""The runner's spec canonicalization and on-disk result cache.

Key invariants: every result-affecting :class:`RunSpec` field (and the
code-version salt) feeds the cache key, so no stale result can ever be
served; and a damaged cache degrades to misses, never to crashes or
wrong numbers.
"""

import dataclasses
import json
import struct

import pytest

from repro.core.errors import UncacheableSpecError
from repro.core.experiment import run_experiment
from repro.memory.topology import simulated_baseline, symmetric_topology
from repro.policies.bwaware import BwAwarePolicy, CounterBwAwarePolicy
from repro.policies.local import LocalPolicy
from repro.runner import (
    ResultCache,
    bw_ratio_policy,
    canonical_policy,
    code_version_salt,
    decode_result,
    encode_result,
    make_spec,
    parse_policy,
)

ACCESSES = 8_000

#: bytes before a cache frame's result part (see repro.runner.cache).
FRAME_HEADER = 112


def small_result():
    return run_experiment("bfs", policy="LOCAL", trace_accesses=ACCESSES)


class TestCanonicalPolicy:
    def test_strings_uppercased(self):
        assert canonical_policy("local") == "LOCAL"
        assert canonical_policy("bw-aware") == "BW-AWARE"

    def test_explicit_fractions_embedded(self):
        policy = BwAwarePolicy.from_ratio(30)
        spec = canonical_policy(policy)
        assert spec.startswith("BW-AWARE@")
        assert spec == bw_ratio_policy(30)

    def test_counter_variant_distinct(self):
        plain = canonical_policy(BwAwarePolicy(fractions=(0.7, 0.3)))
        counter = canonical_policy(
            CounterBwAwarePolicy(fractions=(0.7, 0.3)))
        assert plain != counter
        assert counter.startswith("BW-AWARE-COUNTER@")

    def test_round_trip_through_parse(self):
        for spec in ("LOCAL", "INTERLEAVE", "BW-AWARE",
                     bw_ratio_policy(30), bw_ratio_policy(62.5),
                     canonical_policy(
                         CounterBwAwarePolicy(fractions=(0.5, 0.5)))):
            rebuilt = parse_policy(spec)
            assert canonical_policy(rebuilt) == canonical_policy(spec)

    def test_sbit_driven_instance_maps_to_bare_name(self):
        # A BwAwarePolicy with no pinned fractions reads firmware at
        # prepare time, so its entire configuration is the class: it
        # canonicalizes to the bare registry name.
        assert canonical_policy(BwAwarePolicy()) == "BW-AWARE"

    def test_arbitrary_policy_object_uncacheable(self):
        with pytest.raises(UncacheableSpecError):
            canonical_policy(LocalPolicy())


class TestRequestLimits:
    def test_make_spec_rejects_oversized_traces(self):
        from repro.core.errors import RequestLimitError
        from repro.core.limits import DEFAULT_REQUEST_LIMITS

        cap = DEFAULT_REQUEST_LIMITS.max_accesses
        assert make_spec("bfs", "LOCAL", trace_accesses=cap)
        with pytest.raises(RequestLimitError) as excinfo:
            make_spec("bfs", "LOCAL", trace_accesses=10 ** 12)
        assert (excinfo.value.field, excinfo.value.limit) == (
            "trace_accesses", cap)

    def test_cap_sits_well_above_every_shipped_config(self):
        from repro.core.limits import DEFAULT_REQUEST_LIMITS
        from repro.experiments.ext_online_placement import (
            SCENARIO_ACCESSES)

        assert DEFAULT_REQUEST_LIMITS.max_accesses >= 8 * SCENARIO_ACCESSES


class TestCacheKeyInvalidation:
    """Changing anything that could change the numbers changes the key."""

    def base_spec(self):
        return make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)

    def test_every_field_feeds_the_key(self):
        base = self.base_spec()
        variants = [
            make_spec("lbm", "LOCAL", trace_accesses=ACCESSES),
            make_spec("bfs", "INTERLEAVE", trace_accesses=ACCESSES),
            make_spec("bfs", "LOCAL", dataset="large",
                      trace_accesses=ACCESSES),
            make_spec("bfs", "LOCAL", topology=symmetric_topology(),
                      trace_accesses=ACCESSES),
            make_spec("bfs", "LOCAL", bo_capacity_fraction=0.5,
                      trace_accesses=ACCESSES),
            make_spec("bfs", "LOCAL", trace_accesses=ACCESSES + 1),
            make_spec("bfs", "LOCAL", trace_accesses=ACCESSES, seed=1),
            make_spec("bfs", "LOCAL", trace_accesses=ACCESSES,
                      training_dataset="small"),
            make_spec("bfs", "LOCAL", trace_accesses=ACCESSES,
                      engine="detailed"),
        ]
        keys = {base.cache_key("s")}
        for variant in variants:
            key = variant.cache_key("s")
            assert key not in keys, f"collision for {variant}"
            keys.add(key)

    def test_salt_feeds_the_key(self):
        base = self.base_spec()
        assert base.cache_key("salt-a") != base.cache_key("salt-b")

    def test_key_is_stable(self):
        assert (self.base_spec().cache_key("s")
                == self.base_spec().cache_key("s"))

    def test_topology_capacity_feeds_the_key(self):
        a = make_spec("bfs", "LOCAL",
                      topology=simulated_baseline(bo_capacity_gib=1.0),
                      trace_accesses=ACCESSES)
        b = make_spec("bfs", "LOCAL",
                      topology=simulated_baseline(bo_capacity_gib=2.0),
                      trace_accesses=ACCESSES)
        assert a.cache_key("s") != b.cache_key("s")

    def test_equivalent_policy_spellings_share_a_key(self):
        a = make_spec("bfs", "local", trace_accesses=ACCESSES)
        b = make_spec("BFS", "LOCAL", trace_accesses=ACCESSES)
        assert a.cache_key("s") == b.cache_key("s")

    def test_code_version_salt_is_stable_in_process(self):
        assert code_version_salt() == code_version_salt()

    def test_salt_covers_vectorized_hot_paths(self):
        """The kernels the engines/filter route through are
        result-affecting: editing any of them must orphan cached
        results."""
        import repro
        from pathlib import Path

        from repro.runner.salt import _iter_sources

        root = Path(repro.__file__).resolve().parent
        sources = {str(p.relative_to(root)) for p in _iter_sources(root)}
        for module in ("gpu/lru.py", "gpu/service.py", "gpu/cache.py",
                       "gpu/engine.py"):
            assert module in sources, module

    def test_salt_covers_native_kernel_source(self, tmp_path):
        """Editing the C kernel must orphan cached results too."""
        import shutil
        from pathlib import Path

        import repro
        from repro.runner.salt import source_salt

        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = source_salt(copy)
        kernel = copy / "gpu" / "_windowed.c"
        kernel.write_bytes(kernel.read_bytes() + b"\n/* edited */\n")
        assert source_salt(copy) != before
        assert source_salt(Path(repro.__file__).resolve().parent) == (
            code_version_salt())


class TestResultCodec:
    def test_round_trip_identity(self):
        result = small_result()
        rebuilt = decode_result(
            json.loads(json.dumps(encode_result(result))))
        assert encode_result(rebuilt) == encode_result(result)
        assert rebuilt.sim.total_time_ns == result.sim.total_time_ns
        assert rebuilt.zone_page_counts == result.zone_page_counts
        assert rebuilt.throughput == result.throughput


class TestStrictEncoder:
    """Regression: ``put`` once used ``json.dumps(..., default=str)``,
    which silently stringified unknown types — the record decoded to
    *different* values than were stored.  The strict encoder must raise
    at write time instead."""

    def test_rejects_numpy_types(self):
        # np.float64 subclasses float and serializes exactly; np.int64
        # and ndarrays do not and must be rejected, not stringified.
        import numpy as np

        from repro.core.errors import CacheEncodingError
        from repro.runner import strict_json_dumps

        with pytest.raises(CacheEncodingError):
            strict_json_dumps({"x": np.int64(3)})
        with pytest.raises(CacheEncodingError):
            strict_json_dumps({"x": np.arange(3)})

    def test_rejects_paths_and_sets(self, tmp_path):
        from repro.core.errors import CacheEncodingError
        from repro.runner import strict_json_dumps

        with pytest.raises(CacheEncodingError):
            strict_json_dumps({"p": tmp_path})
        with pytest.raises(CacheEncodingError):
            strict_json_dumps({"s": {1, 2}})

    def test_rejects_non_finite_floats(self):
        from repro.core.errors import CacheEncodingError
        from repro.runner import strict_json_dumps

        for bad in (float("nan"), float("inf")):
            with pytest.raises(CacheEncodingError):
                strict_json_dumps({"x": bad})

    def test_put_raises_instead_of_stringifying(self, tmp_path):
        """A poisoned record must fail the write, not poison the disk."""
        import numpy as np

        from repro.core.errors import CacheEncodingError

        cache = ResultCache(tmp_path)
        result = small_result()
        poisoned = dataclasses.replace(
            result, zone_page_counts=(np.int64(1), np.int64(2)))
        spec = make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)
        key = spec.cache_key("s")
        with pytest.raises(CacheEncodingError):
            cache.put(key, spec.canonical(), poisoned)
        assert cache.get(key) is None  # nothing half-written served
        assert len(cache) == 0

    def test_inf_link_bandwidth_spec_still_cacheable(self, tmp_path):
        """Canonical specs legitimately carry ``inf`` (an uncapped zone
        link); the record writer must keep round-tripping them through
        Python's Infinity literal while result payloads stay strict."""
        cache = ResultCache(tmp_path)
        spec = make_spec("bfs", "LOCAL",
                         topology=simulated_baseline(),
                         trace_accesses=ACCESSES)
        assert any(zone["link_bandwidth"] == float("inf")
                   for zone in spec.canonical()["topology"]["zones"])
        result = small_result()
        key = spec.cache_key("s")
        cache.put(key, spec.canonical(), result)
        got = cache.get(key)
        assert encode_result(got) == encode_result(result)

    def test_valid_records_unchanged(self):
        """The strict encoder must not perturb the canonical digest of
        well-formed payloads (existing caches stay valid)."""
        from repro.runner import result_digest

        payload = encode_result(small_result())
        assert result_digest(payload) == __import__("hashlib").sha256(
            json.dumps(payload, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()


class TestResultCache:
    def test_get_put_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = small_result()
        spec = make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)
        key = spec.cache_key("s")
        assert cache.get(key) is None
        cache.put(key, spec.canonical(), result)
        got = cache.get(key)
        assert encode_result(got) == encode_result(result)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def put_one(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)
        key = spec.cache_key("s")
        cache.put(key, spec.canonical(), small_result())
        return cache, key

    def test_corrupted_record_is_a_miss_not_a_crash(self, tmp_path,
                                                    damage_frame):
        cache, key = self.put_one(tmp_path)

        def not_json(frame):
            filler = b"this is not json {"
            size = len(frame) - FRAME_HEADER
            frame[FRAME_HEADER:] = (filler * size)[:size]

        damage_frame(cache, key, not_json)
        assert cache.get(key) is None
        assert cache.stats.invalid == 1
        assert ResultCache(tmp_path).locate(key) is None, (
            "corrupt record should be evicted")

    def test_truncated_record_is_a_miss(self, tmp_path, damage_frame):
        cache, key = self.put_one(tmp_path)
        damage_frame(cache, key, cut=True)
        assert cache.get(key) is None
        assert cache.stats.invalid == 1

    def test_wrong_format_version_is_a_miss(self, tmp_path, damage_frame):
        cache, key = self.put_one(tmp_path)

        def older_version(frame):
            frame[3] = 2

        damage_frame(cache, key, older_version)
        assert cache.get(key) is None
        assert cache.stats.invalid == 1

    def test_missing_result_payload_is_a_miss(self, tmp_path,
                                              damage_frame):
        cache, key = self.put_one(tmp_path)

        def drop_result(frame):
            # the result part's bytes now count as spec bytes
            n_result, n_spec = struct.unpack_from("<II", frame, 72)
            struct.pack_into("<II", frame, 72, 0, n_result + n_spec)

        damage_frame(cache, key, drop_result, reseal=True)
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)
        cache.put(spec.cache_key("s"), spec.canonical(), small_result())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestSpecCanonical:
    def test_canonical_is_json_serializable(self):
        spec = make_spec("bfs", BwAwarePolicy.from_ratio(30),
                         topology=simulated_baseline(),
                         bo_capacity_fraction=0.25,
                         trace_accesses=ACCESSES, seed=3)
        text = json.dumps(spec.canonical(), sort_keys=True)
        assert json.loads(text) == spec.canonical()

    def test_frozen(self):
        spec = make_spec("bfs", "LOCAL")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 5
