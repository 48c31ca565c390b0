"""The native cache-hierarchy filter against its numpy and loop oracles.

:meth:`repro.gpu.cache.CacheHierarchy.filter_stream_indices` runs a
compiled one-pass filter (``gpu/_lru.c``, built by
:mod:`repro.gpu._native`) where the library loads, else the vectorized
numpy kernel (:mod:`repro.gpu.lru`).  Both must equal the per-access
OrderedDict loop (:class:`ReferenceCacheHierarchy` in
``tests/reference_loops.py``) exactly, so everything here compares with
``==``:

* a hypothesis differential test over random geometries (1-20 SMs,
  non-power-of-two set counts, 1-16 ways, 1-16 channels) and streams
  that are empty, one access long, cross 2**16 and 2**31 or reach
  2**40, comparing miss indices and L1/L2 stats;
* the one-shot contract: every call starts from empty caches, stats
  add up over calls, and negative lines are rejected on both paths;
* the Table 1 geometry on real workload streams;
* the build seam: a missing compiler gives the numpy path and the same
  results, a truncated library is rebuilt, concurrent first builds are
  safe, and a process that finds the library built never imports
  ``subprocess``.
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

from reference_loops import ReferenceCacheHierarchy
from repro.core.errors import ConfigError
from repro.gpu import _native, cache, service
from repro.gpu.cache import CacheHierarchy, CacheStats
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
    kind = draw(st.sampled_from(["hot", "sweep", "2**16", "2**31", "2**40"]))
    if kind == "hot":  # a small universe: mostly hits
        lines = rng.integers(0, draw(st.integers(1, 200)), n)
    elif kind == "sweep":  # streaming with reuse at a random distance
        lines = np.arange(n) % draw(st.integers(1, 400))
    else:
        base = {"2**16": 2**16, "2**31": 2**31, "2**40": 2**40}[kind]
        lines = base - 64 + rng.integers(0, 128, n)
        if kind == "2**40":  # plus far-flung lines anywhere below
            far = rng.random(n) < 0.3
            lines[far] = rng.integers(0, 2**40, int(far.sum()))
    return lines.astype(np.int64)


def _stats(hierarchy) -> tuple:
    return hierarchy.l1_stats(), hierarchy.l2_stats()


def _filter(config: GpuConfig, n_channels: int, lines: np.ndarray,
            kind: str) -> tuple:
    """Miss indices and stats of one fresh ``kind`` hierarchy:
    ``"native"`` runs the hierarchy's own kernel choice."""
    if kind == "reference":
        hierarchy = ReferenceCacheHierarchy(config, n_channels)
    else:
        hierarchy = CacheHierarchy(config, n_channels)
    if kind == "numpy":
        with numpy_kernel():
            misses = hierarchy.filter_stream_indices(lines)
    else:
        misses = hierarchy.filter_stream_indices(lines)
    return misses.tolist(), _stats(hierarchy)


@pytest.fixture(params=["native", "numpy"])
def path(request):
    """Each kernel in turn: ``"native"`` (skipped without a compiler)
    and ``"numpy"``."""
    if request.param == "native":
        request.getfixturevalue("native")
        yield "native"
    else:
        with numpy_kernel():
            yield "numpy"


class TestDifferential:
    @settings(deadline=None)
    @given(geometries(), line_streams())
    def test_native_numpy_reference_agree(self, geometry, lines):
        """The hierarchy's own kernel (native wherever the library
        builds) and the numpy kernel both equal the reference; without
        a compiler this still pins the numpy kernel."""
        expected = _filter(*geometry, lines, "reference")
        assert _filter(*geometry, lines, "native") == expected
        assert _filter(*geometry, lines, "numpy") == expected

    @pytest.mark.parametrize("name", ("bfs", "sgemm", "lbm", "kmeans"))
    def test_table1_workload_streams(self, native, name):
        config = table1_config().scaled_caches(FOOTPRINT_SCALE)
        lines = get_workload(name).raw_line_trace("default", 40_000, 0)
        assert (_filter(config, BASELINE_CHANNELS, lines, "native")
                == _filter(config, BASELINE_CHANNELS, lines, "numpy"))


class TestOneShot:
    LINES = np.random.default_rng(5).integers(0, 3_000, 20_000)

    def test_calls_start_from_empty_caches(self, path):
        """A second call on one hierarchy filters exactly as a fresh
        hierarchy does; the stats add up over both calls."""
        config = table1_config()
        first, second = self.LINES[:12_000], self.LINES[12_000:]
        hierarchy = CacheHierarchy(config, 12)
        got = [hierarchy.filter_stream_indices(lines).tolist()
               for lines in (first, second)]
        fresh = [CacheHierarchy(config, 12) for _ in range(2)]
        want = [one.filter_stream_indices(lines).tolist()
                for one, lines in zip(fresh, (first, second))]
        assert got == want
        l1, l2 = (a.merge(b) for a, b in zip(*map(_stats, fresh)))
        assert _stats(hierarchy) == (l1, l2)

    def test_negative_lines_rejected(self, path):
        hierarchy = CacheHierarchy(table1_config(), 12)
        lines = self.LINES.copy()
        lines[777] = -1
        with pytest.raises(ConfigError, match="non-negative"):
            hierarchy.filter_stream_indices(lines)
        assert _stats(hierarchy) == (CacheStats(), CacheStats())


def _filter_results(lines: np.ndarray) -> tuple:
    hierarchy = CacheHierarchy(table1_config(), 12)
    return hierarchy.filter_stream_indices(lines).tolist(), _stats(hierarchy)


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

    def test_built_library_skips_subprocess(self, native, fresh_loader):
        """A process that finds the library built never imports
        ``subprocess``: only a build needs it."""
        _native._compile(_native.library_path())
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from repro.gpu.cache import CacheHierarchy
            from repro.gpu.config import table1_config
            from repro.gpu.service import kernel_path
            CacheHierarchy(table1_config(),
                           12).filter_stream_indices(np.arange(9_000) % 3_000)
            print(kernel_path(), "subprocess" in sys.modules)
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["native", "False"]

    def test_concurrent_first_builds(self, native, tmp_path):
        go = tmp_path / "go"
        script = textwrap.dedent(f"""
            import os, time, zlib
            while not os.path.exists({str(go)!r}):
                time.sleep(0.005)
            import numpy as np
            from repro.gpu import cache
            from repro.gpu.cache import CacheHierarchy, CacheStats
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
