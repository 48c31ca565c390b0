"""The native windowed-service kernel against its numpy oracle.

The event pass runs a compiled port of the batched numpy kernel
(``gpu/_windowed.c``, built by :mod:`repro.gpu._native`).  The port
promises the *same float*, not a close one, so everything here compares
with ``==``:

* a hypothesis differential test over raw streams, through the
  library's ``"windowed"`` test entry (tiny windows that take the
  sequential branch, windows equal to and above the stream length,
  1-64 channels, zero and tied occupancies, compute-throttled and
  saturated streams, and the empty stream), plus stream lengths on
  every seam of the core's sliding buffer (``stream_seams``);
* the test entry's input checks: a channel id outside
  ``[0, n_channels)`` and arrays of unequal length raise;
* whole :class:`SimResult` equality for both event engines (the
  engine spans' ``kernel`` field is checked in test_obs_integration);
* the fallback: no compiler means the numpy kernel and the same result;
* the build seam: concurrent first builds, a truncated cached library,
  a cached library missing an entry point, and the engines' int16
  channel limit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bwaware_zone_map, stream_seams
from repro.core.errors import SimulationError
from repro.core.experiment import run_experiment
from repro.gpu import _native, service
from repro.gpu.config import table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.memory.topology import simulated_baseline, symmetric_topology
from repro.workloads import get_workload

WORKLOADS = ("bfs", "xsbench", "sgemm", "kmeans", "mummergpu")

N_RAW = 30_000


@pytest.fixture(scope="module")
def native():
    kernel = _native.kernel("windowed")
    if kernel is None and shutil.which(_native.CC) is None:
        pytest.skip(f"no C compiler ({_native.CC}) on this host")
    assert kernel is not None, "a compiler exists but the build failed"
    return kernel


@pytest.fixture(scope="module")
def bound(native):
    """Every kernel of the loaded library, by name."""
    return dict(_native.kernels())


@st.composite
def streams(draw):
    batched = service._MIN_BATCH_WINDOW
    if draw(st.booleans()):
        n = draw(st.integers(1, 1500))
        window = draw(st.one_of(
            st.integers(1, batched - 1),  # the sequential branch
            st.just(n),  # one fill batch, no pops
            st.integers(n + 1, n + 64),
            st.integers(batched, max(batched, n // 2)),  # pops
        ))
    else:  # a length on a seam of the native core's sliding buffer
        window = draw(st.sampled_from((1, 9, batched - 1, batched,
                                       batched + 1, 100)))
        n = draw(st.sampled_from(stream_seams(window)))
    n_channels = draw(st.integers(1, 64))
    # 0 saturates the channels; large steps leave them compute-throttled.
    step = draw(st.sampled_from([0.0, 0.01, 0.5, 3.0, 40.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def times(kind):
        if kind == "ties":  # a few repeated values, zero among them
            palette = np.array([0.0, 1.0, 2.5, 7.25])
            return palette[rng.integers(0, palette.size, n)]
        if kind == "zero":
            return np.zeros(n)
        return rng.random(n) * rng.choice([0.1, 10.0, 500.0])

    kinds = st.sampled_from(["ties", "zero", "uniform"])
    occupancy = times(draw(kinds))
    latency = times(draw(kinds))
    hot = draw(st.booleans())  # skew traffic onto one channel
    channels = rng.integers(0, n_channels, n)
    if hot:
        channels[rng.random(n) < 0.7] = 0
    return (np.arange(n, dtype=np.float64) * step, occupancy, latency,
            channels.astype(np.int16), n_channels, window)


def _stream(n, window, n_channels=8, step=0.3, seed=0):
    rng = np.random.default_rng(seed)
    return (np.arange(n) * step, rng.random(n) * 4.0,
            rng.random(n) * 90.0, rng.integers(0, n_channels, n),
            n_channels, window)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(streams())
    @example(_stream(31, 32))
    @example(_stream(129, 32, step=0.0))
    @example(_stream(5 * 400 + 7, 100, step=0.0))
    @example(_stream(61, 15, n_channels=3))
    def test_native_equals_numpy(self, native, stream):
        assert native(*stream) == service._simulate_numpy(*stream)

    @pytest.mark.parametrize("step", (0.0, 0.3, 40.0))
    @pytest.mark.parametrize("window", (1, 5, 31, 32, 33, 100, 257))
    def test_every_buffer_seam(self, native, window, step):
        """Lengths around the window and the sliding buffer's capacity,
        saturated and compute-throttled, so refills fall inside fill
        batches, pop batches and the sequential heap loop."""
        for n in stream_seams(window):
            stream = _stream(n, window, step=step, seed=n)
            assert native(*stream) == service._simulate_numpy(*stream), n

    def test_empty_stream(self, native):
        empty = np.empty(0)
        stream = (empty, empty, empty, np.empty(0, dtype=np.int16), 4, 8)
        assert native(*stream) == service._simulate_numpy(*stream) == 0.0

    def test_sequential_branch_is_the_numpy_one(self, native):
        rng = np.random.default_rng(3)
        n = 2_000
        stream = (np.arange(n) * 0.2, rng.random(n) * 4, np.full(n, 90.0),
                  rng.integers(0, 8, n), 8, 20)
        assert native(*stream) == service._simulate_sequential(*stream)


class TestInputChecks:
    """The test entry checks what it cannot trust, instead of writing
    past the core's per-channel arrays."""

    @pytest.mark.parametrize("bad", (-1, 4, 1 << 40))
    @pytest.mark.parametrize("n, window", ((50, 8), (50, 64), (600, 40)))
    def test_channel_outside_the_topology(self, native, bad, n, window):
        ready, occupancy, latency, channels, n_channels, _ = _stream(
            n, window, n_channels=4)
        channels[n - 3] = bad
        with pytest.raises(SimulationError, match=r"outside \[0, 4\)"):
            native(ready, occupancy, latency, channels, n_channels, window)

    def test_no_channels(self, native):
        stream = _stream(10, 8, n_channels=1)[:4]
        with pytest.raises(SimulationError, match="outside"):
            native(*stream, 0, 8)

    @pytest.mark.parametrize("short", range(4))
    def test_arrays_of_unequal_length(self, native, short):
        arrays = list(_stream(40, 8)[:4])
        arrays[short] = arrays[short][:-1]
        with pytest.raises(SimulationError, match="one value per access"):
            native(*arrays, 8, 8)


def _engine_inputs(name):
    workload = get_workload(name)
    topology = simulated_baseline()
    trace = workload.dram_trace("default", n_accesses=N_RAW, seed=0)
    chars = workload.characteristics("default")
    zone_map = bwaware_zone_map(workload, "default", topology, 0)
    return trace, zone_map, topology, chars


def _result_fields(result):
    return {key: (value.tolist() if isinstance(value, np.ndarray)
                  else value)
            for key, value in vars(result).items()}


class TestEngines:
    @pytest.mark.parametrize("engine_cls", (DetailedEngine, BankedEngine))
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_sim_result_identical(self, native, monkeypatch, name,
                                  engine_cls):
        engine = engine_cls(table1_config())
        inputs = _engine_inputs(name)
        fast = engine.run(*inputs)
        monkeypatch.setattr(service, "_native_kernels", lambda: None)
        slow = engine.run(*inputs)
        assert _result_fields(fast) == _result_fields(slow)


class TestChannelLimit:
    @pytest.mark.parametrize("engine", ("detailed", "banked"))
    def test_31250_channels_run(self, engine):
        topology = symmetric_topology(bandwidth_gbps=400_000)
        assert sum(zone.channels for zone in topology) == 62_500 // 2
        result = run_experiment("bfs", policy="INTERLEAVE",
                                topology=topology, engine=engine,
                                trace_accesses=N_RAW)
        assert result.sim.total_time_ns > 0

    @pytest.mark.parametrize("engine", ("detailed", "banked"))
    def test_62500_channels_raise_typed_error(self, engine):
        topology = symmetric_topology(bandwidth_gbps=800_000)
        with pytest.raises(SimulationError, match="32767"):
            run_experiment("bfs", policy="INTERLEAVE", topology=topology,
                           engine=engine, trace_accesses=N_RAW)


class TestBuild:
    def test_missing_compiler_falls_back_to_numpy(self, bound,
                                                  fresh_loader,
                                                  monkeypatch, capsys):
        inputs = _engine_inputs("bfs")
        engine = DetailedEngine(table1_config())
        monkeypatch.setattr(_native, "CC", "repro-no-such-cc")
        assert _native.kernel("windowed") is None
        assert service.kernel_path() == "numpy"
        fallback = engine.run(*inputs)
        # One log line for the process, not one per call.
        assert capsys.readouterr().err.count("using numpy") == 1
        assert not list(fresh_loader.glob("*.so"))
        monkeypatch.setattr(_native, "_kernels", bound)
        monkeypatch.setattr(_native, "_resolved", True)
        assert _result_fields(engine.run(*inputs)) == _result_fields(
            fallback)

    def test_truncated_library_is_rebuilt(self, native, fresh_loader):
        path = _native.library_path()
        _native._compile(path)
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        assert service.kernel_path() == "native"
        assert path.stat().st_size == size
        n = 500
        stream = (np.arange(n, dtype=float), np.ones(n), np.full(n, 5.0),
                  np.arange(n) % 4, 4, 8)
        assert (_native.kernel("windowed")(*stream)
                == service._simulate_numpy(*stream))

    def test_library_missing_entry_points_is_rebuilt(self, native,
                                                     fresh_loader):
        """A cached library of the right name and ABI that lacks a
        kernel's entry point (here, built without ``_passes.c``) is
        rebuilt, not used."""
        path = _native.library_path()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "SOURCES", tuple(
                source for source in _native.SOURCES
                if source.name != "_passes.c"))
            _native._compile(path)
        with pytest.raises(OSError,
                           match="repro_(throughput_run|event_pass)"):
            _native._bind(_native._open(path))
        # The rebuilt library binds every kernel, in this process too.
        assert sorted(_native.kernels()) == sorted(_native._BINDERS)
        assert service.kernel_path() == "native"

    def test_concurrent_first_builds(self, native, tmp_path):
        go = tmp_path / "go"
        script = textwrap.dedent(f"""
            import os, time
            while not os.path.exists({str(go)!r}):
                time.sleep(0.005)
            import numpy as np
            from repro.gpu import _native, service
            assert service.kernel_path() == "native"
            n = 3000
            stream = (np.arange(n) * 0.3, np.linspace(0, 4, n),
                      np.full(n, 80.0), np.arange(n) % 16, 16, 256)
            print(repr(_native.kernel("windowed")(*stream)))
            print(repr(service._simulate_numpy(*stream)))
        """)
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"),
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        children = [subprocess.Popen([sys.executable, "-c", script],
                                     env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
                    for _ in range(2)]
        go.touch()
        outputs = [child.communicate(timeout=120) for child in children]
        for child, (out, err) in zip(children, outputs):
            assert child.returncode == 0, err
            native_value, numpy_value = out.split()
            assert native_value == numpy_value
        assert outputs[0][0] == outputs[1][0]
        built = list((tmp_path / "xdg" / "repro" / "native").iterdir())
        assert [p.name for p in built] == [
            _native.library_path().name]
