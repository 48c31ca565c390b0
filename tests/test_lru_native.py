"""The native cache-hierarchy filter against its numpy and loop oracles.

:meth:`repro.gpu.cache.CacheHierarchy.filter_stream_indices` runs a
compiled one-pass filter (``gpu/_lru.c``, built by
:mod:`repro.gpu._native`) where the library loads, else the vectorized
numpy kernel (:mod:`repro.gpu.lru`).  Both must equal the per-access
OrderedDict loop (:class:`repro.gpu._reference.ReferenceCacheHierarchy`)
exactly, so everything here compares with ``==``:

* a hypothesis differential test over random geometries (1-20 SMs,
  non-power-of-two set counts, 1-16 ways, 1-16 channels) and random
  programs of ``filter_stream_indices``, scalar ``access`` and
  ``flush`` calls, on streams that are empty, one access long, cross
  2**16 and 2**31, reach 2**40 or hold negative lines.  Miss indices
  and hit flags are compared at every step, L1/L2 stats and the final
  residents at the end (checking residents forces the lazy write-back,
  so mid-program checks would skip the pending-state paths).  A fourth
  hierarchy switches kernels between calls, so each kernel warm-starts
  from the other's pending state;
* the Table 1 geometry on real workload streams;
* the build seam: a missing compiler gives the numpy path and the same
  results, a truncated library is rebuilt, concurrent first builds are
  safe.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import _native, cache, service
from repro.gpu._reference import ReferenceCacheHierarchy
from repro.gpu.cache import CacheHierarchy
from repro.gpu.config import GpuConfig, table1_config
from repro.workloads import get_workload
from repro.workloads.base import BASELINE_CHANNELS, FOOTPRINT_SCALE

LINE = 128


@pytest.fixture(scope="module")
def native():
    kernel = _native.kernel("lru")
    if kernel is None and shutil.which(_native.CC) is None:
        pytest.skip(f"no C compiler ({_native.CC}) on this host")
    assert kernel is not None, "a compiler exists but the build failed"
    return kernel


@contextmanager
def numpy_kernel():
    """Run the hierarchy's numpy kernel inside the block."""
    saved = cache._native_filter
    cache._native_filter = lambda: None
    try:
        yield
    finally:
        cache._native_filter = saved


def _odd(draw, low, high):
    """A set count, usually not a power of two."""
    return draw(st.one_of(st.integers(low, high),
                          st.sampled_from([3, 5, 6, 7, 12])))


@st.composite
def geometries(draw):
    l1_assoc = draw(st.integers(1, 16))
    l2_assoc = draw(st.integers(1, 16))
    config = GpuConfig(
        n_sms=draw(st.integers(1, 20)),
        l1_bytes_per_sm=_odd(draw, 1, 9) * l1_assoc * LINE,
        l2_bytes_per_channel=_odd(draw, 1, 17) * l2_assoc * LINE,
        line_size=LINE, l1_assoc=l1_assoc, l2_assoc=l2_assoc)
    return config, draw(st.integers(1, 16))


@st.composite
def line_streams(draw):
    n = draw(st.sampled_from([0, 1, 2, 7, 64, 300, 1500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["hot", "sweep", "2**16", "2**31", "2**40", "negative"]))
    if kind == "hot":  # a small universe: mostly hits
        lines = rng.integers(0, draw(st.integers(1, 200)), n)
    elif kind == "sweep":  # streaming with reuse at a random distance
        lines = np.arange(n) % draw(st.integers(1, 400))
    elif kind == "negative":
        lines = rng.integers(-50, 50, n)
    else:
        base = {"2**16": 2**16, "2**31": 2**31, "2**40": 2**40}[kind]
        lines = base - 64 + rng.integers(0, 128, n)
        if kind == "2**40":  # plus far-flung lines anywhere below
            far = rng.random(n) < 0.3
            lines[far] = rng.integers(0, 2**40, int(far.sum()))
    return lines.astype(np.int64)


operations = st.lists(st.one_of(
    st.tuples(st.just("filter"), line_streams()),
    st.tuples(st.just("access"), st.integers(0, 2**33), st.integers(0, 40)),
    st.tuples(st.just("flush")),
), min_size=1, max_size=6)


def _reference_flush(hierarchy: ReferenceCacheHierarchy) -> None:
    for level in (hierarchy._l1s, hierarchy._l2s):
        for one in level:
            for cache_set in one._sets:
                cache_set.clear()


def _residents(hierarchy) -> list:
    if isinstance(hierarchy, CacheHierarchy):
        hierarchy._materialize()
    return [[list(cache_set) for cache_set in one._sets]
            for one in (*hierarchy._l1s, *hierarchy._l2s)]


def _stats(hierarchy) -> tuple:
    return hierarchy.l1_stats(), hierarchy.l2_stats()


class _Run:
    """One hierarchy per path, driven through the same program."""

    def __init__(self, config: GpuConfig, n_channels: int) -> None:
        self.native = CacheHierarchy(config, n_channels)
        self.numpy = CacheHierarchy(config, n_channels)
        self.mixed = CacheHierarchy(config, n_channels)
        self.reference = ReferenceCacheHierarchy(config, n_channels)
        self.n_filters = 0

    def filter(self, lines: np.ndarray) -> None:
        expected = self.reference.filter_stream_indices(lines)
        got = [self.native.filter_stream_indices(lines)]
        with numpy_kernel():
            got.append(self.numpy.filter_stream_indices(lines))
            if self.n_filters % 2:
                got.append(self.mixed.filter_stream_indices(lines))
        if not self.n_filters % 2:
            got.append(self.mixed.filter_stream_indices(lines))
        self.n_filters += 1
        for misses in got:
            assert misses.tolist() == expected.tolist()

    def access(self, line: int, sm: int) -> None:
        expected = self.reference.access(line, sm)
        assert [h.access(line, sm) for h in self.hierarchies()] == (
            [expected] * 3)

    def flush(self) -> None:
        _reference_flush(self.reference)
        for hierarchy in self.hierarchies():
            hierarchy.flush()

    def hierarchies(self) -> tuple:
        return self.native, self.numpy, self.mixed

    def check_state(self) -> None:
        expected = _stats(self.reference), _residents(self.reference)
        for hierarchy in self.hierarchies():
            assert (_stats(hierarchy), _residents(hierarchy)) == expected


class TestDifferential:
    @settings(deadline=None)
    @given(geometries(), operations)
    def test_native_numpy_reference_agree(self, native, geometry,
                                          program):
        run = _Run(*geometry)
        for op, *args in program:
            getattr(run, op)(*args)
        run.check_state()

    @settings(deadline=None)
    @given(geometries(), st.lists(line_streams(), min_size=2,
                                  max_size=4))
    def test_pending_state_round_trips(self, native, geometry, streams):
        """Back-to-back filters warm-start from pending state; the
        residents are checked only at the end, after every write-back
        was deferred."""
        run = _Run(*geometry)
        for lines in streams:
            run.filter(lines[lines >= 0])
        run.check_state()

    @pytest.mark.parametrize("name", ("bfs", "sgemm", "lbm", "kmeans"))
    def test_table1_workload_streams(self, native, name):
        config = table1_config().scaled_caches(FOOTPRINT_SCALE)
        lines = get_workload(name).raw_line_trace("default", 40_000, 0)
        native_h = CacheHierarchy(config, BASELINE_CHANNELS)
        numpy_h = CacheHierarchy(config, BASELINE_CHANNELS)
        misses = native_h.filter_stream_indices(lines)
        with numpy_kernel():
            expected = numpy_h.filter_stream_indices(lines)
        assert np.array_equal(misses, expected)
        assert _stats(native_h) == _stats(numpy_h)
        assert _residents(native_h) == _residents(numpy_h)


def _filter_results(lines: np.ndarray) -> tuple:
    hierarchy = CacheHierarchy(table1_config(), 12)
    return (hierarchy.filter_stream_indices(lines).tolist(),
            _stats(hierarchy), _residents(hierarchy))


class TestBuild:
    LINES = np.random.default_rng(7).integers(0, 5_000, 20_000)

    def test_missing_compiler_falls_back_to_numpy(self, native,
                                                  fresh_loader,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(_native, "CC", "repro-no-such-cc")
        assert _native.kernel("lru") is None
        assert service.kernel_path() == "numpy"
        fallback = _filter_results(self.LINES)
        assert capsys.readouterr().err.count("using numpy") == 1
        assert not list(fresh_loader.glob("*.so"))
        monkeypatch.setattr(_native, "_kernels", {"lru": native})
        monkeypatch.setattr(_native, "_resolved", True)
        assert _filter_results(self.LINES) == fallback

    def test_truncated_library_is_rebuilt(self, native, fresh_loader):
        path = _native.library_path()
        _native._compile(path)
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        assert _native.kernel("lru") is not None
        assert path.stat().st_size == size
        rebuilt = _filter_results(self.LINES)
        with numpy_kernel():
            assert rebuilt == _filter_results(self.LINES)

    def test_concurrent_first_builds(self, native, tmp_path):
        go = tmp_path / "go"
        script = textwrap.dedent(f"""
            import os, time, zlib
            while not os.path.exists({str(go)!r}):
                time.sleep(0.005)
            import numpy as np
            from repro.gpu import cache
            from repro.gpu.cache import CacheHierarchy
            from repro.gpu.config import table1_config
            assert cache._native_filter() is not None
            lines = np.arange(30_000) * 7 % 9_000
            misses = CacheHierarchy(table1_config(),
                                    12).filter_stream_indices(lines)
            print(misses.size, zlib.crc32(misses.tobytes()))
        """)
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"),
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        children = [subprocess.Popen([sys.executable, "-c", script],
                                     env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
                    for _ in range(2)]
        go.touch()
        outputs = [child.communicate(timeout=120) for child in children]
        for child, (_, err) in zip(children, outputs):
            assert child.returncode == 0, err
        assert outputs[0][0] == outputs[1][0]
        lines = np.arange(30_000) * 7 % 9_000
        with numpy_kernel():
            expected = CacheHierarchy(table1_config(),
                                      12).filter_stream_indices(lines)
        assert outputs[0][0].split() == [
            str(expected.size), str(zlib.crc32(expected.tobytes()))]
        built = list((tmp_path / "xdg" / "repro" / "native").iterdir())
        assert [p.name for p in built] == [_native.library_path().name]
