"""The native engine passes against their numpy forms, bit for bit.

The throughput engine's (epoch, zone) bins (``repro_throughput_pass``,
driven through :mod:`native_probes`) and
:func:`repro.gpu.service.event_pass` run a compiled port
(``gpu/_passes.c``) of the engines' numpy per-access passes where the
native library loads.  The port promises the *same* floats, so
everything here compares with ``==``:

* the passes themselves on hypothesis streams — 1 to 50k accesses, 1
  to 1024 epochs, with and without write flags, 1 to 4 zones plus
  chiplet-4 — on every output: the (epoch, zone) counts and occupancy,
  the last completion, the per-channel busy time and the zone counts;
* the event pass on stream lengths at every seam of the windowed
  core's sliding buffer, both event engines, with and without write
  flags;
* whole :class:`SimResult`\\ s of all three engines;
* failure parity: both paths raise :class:`SimulationError` on the
  same non-finite inputs, before either kernel runs;
* working memory: a warm native event pass on a long trace allocates
  no buffer of the trace's length (it takes almost no page faults).

The numpy forms run with ``service._native_kernels`` patched to
``None`` (the bins: ``service._throughput_pass_numpy``); with no
compiler both sides are numpy and the suite checks the fallback against
itself.
"""

import math
import resource

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import stream_seams
from native_probes import probes
from repro.core.errors import SimulationError
from repro.gpu import _native, service
from repro.gpu.config import table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import (
    SystemTopology,
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
)

#: one to four zones plus chiplet-4 (five zones, an explicit distance
#: matrix, one channel per chiplet HBM).
TOPOLOGIES = (
    SystemTopology("one-pool", simulated_baseline().zones[:1], 0),
    simulated_baseline(),
    three_pool_topology(),
    SystemTopology("four-pool", chiplet_topology(4).zones[:4], 0),
    chiplet_topology(4),
)

ENGINES = (ThroughputEngine, DetailedEngine, BankedEngine)

SLOW = settings(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def numpy_and_native(fn, *args, **kwargs):
    """``fn`` on the numpy kernels, then on the native ones (numpy
    again where the library is unavailable)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service, "_native_kernels", lambda: None)
        slow = fn(*args, **kwargs)
    return slow, fn(*args, **kwargs)


def bits(array):
    return np.asarray(array).dtype.str, np.asarray(array).tobytes()


@st.composite
def traces(draw, n_zones):
    n = draw(st.integers(1, 50_000))
    footprint = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pages = rng.integers(0, footprint, n)
    if draw(st.booleans()):  # sequential runs reuse DRAM rows
        pages = (np.arange(n) // draw(st.integers(1, 64))) % footprint
    writes = (rng.random(n) < draw(st.sampled_from((0.0, 0.3, 1.0)))
              if draw(st.booleans()) else None)
    trace = DramTrace(page_indices=pages, footprint_pages=footprint,
                      n_raw_accesses=n + int(rng.integers(0, 4 * n + 1)),
                      n_epochs=draw(st.integers(1, 1024)),
                      is_write=writes)
    zone_map = rng.integers(0, n_zones, footprint)
    if draw(st.booleans()):  # one zone takes most pages
        zone_map[rng.random(footprint) < 0.8] = 0
    return trace, zone_map.astype(draw(st.sampled_from(
        (np.int8, np.int16, np.int64))))


class TestThroughputPass:
    @SLOW
    @given(data=st.data(), topology=st.sampled_from(TOPOLOGIES))
    def test_bins_equal(self, data, topology):
        trace, zone_map = data.draw(traces(len(topology)))
        factors = np.asarray(topology.write_cost_factors)
        slow = service._throughput_pass_numpy(trace, zone_map, factors)
        native = probes()
        fast = (slow if native is None else native["throughput"](
            trace.page_indices, trace.is_write, zone_map, factors,
            trace.n_epochs))
        for want, got in zip(slow, fast):
            assert got.shape == (trace.n_epochs, len(topology))
            assert bits(got) == bits(want)


class TestEventPass:
    @SLOW
    @given(data=st.data(), n_zones=st.integers(1, 5),
           banks=st.sampled_from((0, 0, 1, 3, 16)),
           window=st.one_of(st.integers(1, service._MIN_BATCH_WINDOW - 1),
                            st.integers(service._MIN_BATCH_WINDOW, 2048)),
           step=st.sampled_from((0.0, 0.01, 0.5, 3.0, 40.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_outputs_equal(self, data, n_zones, banks, window, step,
                           seed):
        trace, zone_map = data.draw(traces(n_zones))
        rng = np.random.default_rng(seed)
        channels = rng.integers(1, 9, n_zones)
        tables = dict(
            write_cost_factors=1.0 + rng.random(n_zones) * 0.3,
            zone_channels=channels,
            service_ns=rng.random(n_zones) * 20.0 + 0.1,
            latency_ns=rng.random(n_zones) * 300.0)
        if banks:
            tables.update(row_miss_ns=rng.random(n_zones) * 15.0,
                          banks_per_channel=banks)
        slow, fast = numpy_and_native(
            service.event_pass, trace, zone_map, compute_step=step,
            window=window, **tables)
        last, busy, zone_counts = fast
        assert last == slow[0]
        assert bits(busy) == bits(slow[1])
        assert busy.size == int(channels.sum())
        assert bits(zone_counts) == bits(slow[2])
        assert int(zone_counts.sum()) == trace.n_accesses


def _event_tables(n_zones, banks, seed=0):
    rng = np.random.default_rng(seed)
    tables = dict(write_cost_factors=1.0 + rng.random(n_zones) * 0.3,
                  zone_channels=rng.integers(1, 9, n_zones),
                  service_ns=rng.random(n_zones) * 20.0 + 0.1,
                  latency_ns=rng.random(n_zones) * 300.0)
    if banks:
        tables.update(row_miss_ns=rng.random(n_zones) * 15.0,
                      banks_per_channel=banks)
    return tables


class TestEventPassSeams:
    """Lengths on every seam of the native core's sliding buffer, where
    the event pass's producer refills it mid-replay."""

    @pytest.mark.parametrize("step", (0.0, 3.0))
    @pytest.mark.parametrize("window", (1, 31, 32, 33, 720))
    @pytest.mark.parametrize("writes", (False, True),
                             ids=("reads", "writes"))
    @pytest.mark.parametrize("banks", (0, 16), ids=("detailed", "banked"))
    def test_outputs_equal(self, banks, writes, window, step):
        for n in stream_seams(window):
            rng = np.random.default_rng(n)
            trace = DramTrace(
                page_indices=(np.arange(n) // 5 + rng.integers(0, 3, n))
                % 97,
                footprint_pages=97, n_raw_accesses=2 * n,
                is_write=rng.random(n) < 0.3 if writes else None)
            zone_map = rng.integers(0, 3, 97)
            slow, fast = numpy_and_native(
                service.event_pass, trace, zone_map, compute_step=step,
                window=window, **_event_tables(3, banks))
            assert fast[0] == slow[0], n
            assert bits(fast[1]) == bits(slow[1]), n
            assert bits(fast[2]) == bits(slow[2]), n


def _fields(result):
    return {key: (value.tolist() if isinstance(value, np.ndarray)
                  else value)
            for key, value in vars(result).items()}


class TestEngines:
    @settings(SLOW, max_examples=25)
    @given(data=st.data(), topology=st.sampled_from(TOPOLOGIES),
           engine_cls=st.sampled_from(ENGINES),
           parallelism=st.floats(1.0, 2048.0),
           compute_ns=st.sampled_from((0.0, 0.05, 3.0)))
    def test_sim_result_identical(self, data, topology, engine_cls,
                                  parallelism, compute_ns):
        trace, zone_map = data.draw(traces(len(topology)))
        chars = WorkloadCharacteristics(parallelism=parallelism,
                                        compute_ns_per_access=compute_ns)
        engine = engine_cls(table1_config())
        slow, fast = numpy_and_native(engine.run, trace, zone_map,
                                      topology, chars)
        assert _fields(fast) == _fields(slow)


#: (change to the event pass's inputs, expected message): each makes
#: one input non-finite.
BAD_EVENT_INPUTS = (
    (dict(service_ns=np.array([3.0, math.inf])), "service"),
    (dict(latency_ns=np.array([math.nan, 1.0])), "latency"),
    (dict(write_cost_factors=np.array([1.0, math.inf])), "write cost"),
    (dict(row_miss_ns=np.array([math.nan, 1.0])), "row miss"),
    (dict(compute_step=math.inf), "ready times"),
    (dict(compute_step=math.nan), "ready times"),
    # Each table is finite, a written line's occupancy is not.
    (dict(service_ns=np.array([1.6e308, 1.0])), "occupancy"),
)


class TestFailureParity:
    """Non-finite inputs raise before either kernel runs, alike."""

    def pass_inputs(self, **changes):
        trace = DramTrace(page_indices=np.arange(40) % 8,
                          footprint_pages=8, n_raw_accesses=80,
                          is_write=np.arange(40) % 3 == 0)
        inputs = dict(trace=trace, zone_map=np.arange(8) % 2,
                      write_cost_factors=np.array([1.15, 1.1]),
                      zone_channels=np.array([2, 3]),
                      service_ns=np.array([3.0, 5.0]),
                      latency_ns=np.array([100.0, 180.0]),
                      compute_step=0.5, window=8,
                      row_miss_ns=np.array([4.0, 6.0]),
                      banks_per_channel=4)
        inputs.update(changes)
        return inputs

    @pytest.mark.parametrize("changes, match, banked", [
        pytest.param(changes, match, banked,
                     id=f"{banked}-changes{index}-{match}")
        for banked in (False, True)
        for index, (changes, match) in enumerate(BAD_EVENT_INPUTS)
        # the detailed pass has no row-miss table
        if banked or match != "row miss"
    ])
    def test_both_paths_raise(self, changes, match, banked):
        inputs = self.pass_inputs(**changes)
        if not banked:
            inputs.update(row_miss_ns=None, banks_per_channel=0)
        for kernels in (None, _native.kernels()):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(service, "_native_kernels", lambda: kernels)
                with pytest.raises(SimulationError, match=match):
                    service.event_pass(**inputs)

    def test_single_access_with_infinite_step(self):
        """``(n - 1) * step`` is ``0 * inf``: NaN, not finite."""
        inputs = self.pass_inputs(compute_step=math.inf)
        inputs["trace"] = DramTrace(page_indices=np.array([3]),
                                    footprint_pages=8, n_raw_accesses=1)
        with pytest.raises(SimulationError, match="ready times"):
            service.event_pass(**inputs)

    @pytest.mark.parametrize("engine_cls", (DetailedEngine, BankedEngine))
    def test_engines_reject_infinite_compute(self, engine_cls):
        topology = simulated_baseline()
        trace = DramTrace(page_indices=np.arange(64) % 16,
                          footprint_pages=16, n_raw_accesses=64)
        chars = WorkloadCharacteristics(compute_ns_per_access=math.inf)
        engine = engine_cls(table1_config())
        for kernels in (None, _native.kernels()):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(service, "_native_kernels", lambda: kernels)
                with pytest.raises(SimulationError, match="ready times"):
                    engine.run(trace, np.zeros(16, dtype=np.int64),
                               topology, chars)


class TestNativeBounds:
    """The compiled passes check every page and zone index they read,
    so arrays changed after validation raise instead of reading past a
    table."""

    @pytest.fixture
    def kernels(self):
        bound = probes()
        if bound is None:
            pytest.skip("no native library on this host")
        return bound

    def test_page_outside_the_map(self, kernels):
        trace = DramTrace(page_indices=np.arange(50) % 10,
                          footprint_pages=10, n_raw_accesses=50)
        trace.page_indices[17] = 10
        with pytest.raises(SimulationError, match="outside the zone map"):
            kernels["throughput"](trace.page_indices, None,
                                  np.zeros(10, dtype=np.int64),
                                  np.array([1.1]), 4)

    @pytest.mark.parametrize("bad_zone", (-1, 2))
    @pytest.mark.parametrize("n_banks", (0, 4))
    def test_zone_outside_the_topology(self, kernels, bad_zone, n_banks):
        zone_map = np.arange(10) % 2
        zone_map[3] = bad_zone
        with pytest.raises(SimulationError, match="outside the topology"):
            kernels["events"](np.arange(50) % 10, None, zone_map,
                              np.array([1.1, 1.2]), np.array([2, 2]),
                              np.array([1.0, 2.0]), np.array([9.0, 9.0]),
                              np.array([3.0, 3.0]), n_banks, 32, 16, 0.5,
                              8)

    def test_write_flags_must_align(self):
        """The bound passes read write flags only from a trace, which
        rejects flags that do not align with its pages."""
        with pytest.raises(SimulationError, match="align"):
            DramTrace(page_indices=np.arange(50) % 10, footprint_pages=10,
                      n_raw_accesses=50, is_write=np.zeros(49, dtype=bool))



class TestWorkingMemory:
    """The native event pass streams the trace through a window-sized
    buffer, so a warm call on a long trace maps no new pages; a pass
    that allocated its per-access arrays afresh faults one page per
    4 KiB of them (~1,800 at 240k accesses)."""

    @pytest.mark.parametrize("banks", (0, 16), ids=("detailed", "banked"))
    def test_warm_call_takes_almost_no_page_faults(self, banks):
        if _native.kernels() is None:
            pytest.skip("no native library on this host")
        n, footprint = 240_000, 3_000
        rng = np.random.default_rng(5)
        trace = DramTrace(page_indices=rng.integers(0, footprint, n),
                          footprint_pages=footprint, n_raw_accesses=2 * n,
                          is_write=rng.random(n) < 0.3)
        zone_map = rng.integers(0, 2, footprint)
        inputs = dict(compute_step=0.1, window=720,
                      **_event_tables(2, banks))
        first = service.event_pass(trace, zone_map, **inputs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        second = service.event_pass(trace, zone_map, **inputs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert second[0] == first[0]
        assert faults < 64, f"{faults} page faults in a warm event pass"
