"""Engines bound once per replay, and the throughput bound tail in C.

:func:`repro.gpu.simulator.replay_epochs` binds its engine to
``(topology, chars, bytes_per_access)`` once and calls the binding once
per epoch; :meth:`engine.run` is that binding plus one call.  The
compiled throughput pass also reduces its (epoch, zone) bins to the
bound tail, repeating numpy's summation order.  Everything here holds
with ``==``:

* the compiled tail against the numpy tail, bit for bit, on hypothesis
  bins: 1 to 12 zones, 1 to 1,024 epochs, all-zero epochs, zones that
  serve nothing and write factors other than 1;
* every bound per-epoch call of a replay against ``engine.run`` on the
  same sub-trace and map, on all three engines and both kernels, under
  maps that change in place and maps that are replaced;
* a zone map corrupted in place between epochs, and a page outside the
  tracker's range, still raise :class:`SimulationError`, on the
  compiled kernels and on the numpy ones (no compiler).

Without a compiler both sides of the differential are numpy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from native_probes import probes
from repro.core.errors import SimulationError
from repro.gpu import _native, service
from repro.gpu.config import table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.gpu.simulator import replay_epochs
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import chiplet_topology, simulated_baseline
from repro.migration.tracker import HotnessTracker

ENGINES = (ThroughputEngine, DetailedEngine, BankedEngine)

SLOW = settings(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def bits(value):
    array = np.asarray(value, dtype=np.float64)
    return array.shape, array.tobytes()


@st.composite
def tail_inputs(draw):
    """Bins as the pass makes them: integer counts, occupancy the reads
    plus the writes at their zone's factor."""
    n_zones = draw(st.integers(1, 12))
    n_epochs = draw(st.integers(1, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1, 40, 5_000, 2**40)))
    counts = rng.integers(0, scale + 1, (n_epochs, n_zones)).astype(float)
    counts[rng.random(n_epochs) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0
    if draw(st.booleans()):  # zones that serve nothing
        counts[:, rng.random(n_zones) < 0.5] = 0
    writes = np.floor(counts * rng.random(counts.shape))
    factors = draw(st.sampled_from((
        np.ones(n_zones), 1.0 + rng.random(n_zones) * 0.5,
        rng.choice((1.15, 1.1, 2.5), n_zones))))
    occupancy = (counts - writes) + writes * factors
    return dict(
        counts=counts, occupancy=occupancy,
        bandwidths=rng.random(n_zones) * 1e12 + 1e9,
        latencies=rng.random(n_zones) * 500.0 + 20.0,
        line=float(draw(st.sampled_from((32, 64, 128)))),
        parallelism=draw(st.floats(1.0, 2048.0)),
        t_compute=draw(st.sampled_from(
            (0.0, 1e-3, 173.25, float(rng.random() * 1e6)))))


def compiled_tail(**inputs):
    """The compiled tail, or the numpy one where no library loads."""
    native = probes()
    tail = (service._throughput_tail_numpy if native is None
            else native["throughput_tail"])
    return tail(**inputs)


class TestThroughputTail:
    @SLOW
    @given(inputs=tail_inputs())
    def test_native_equals_numpy(self, inputs):
        slow = service._throughput_tail_numpy(**inputs)
        fast = compiled_tail(**inputs)
        for want, got in zip(slow, fast):
            assert bits(got) == bits(want)

    def test_sums_cross_numpys_pairwise_seams(self):
        """Z = 8 and 9 leave the sequential sum, E = 129 splits the
        128-value block; values of wildly different size make the
        order visible."""
        rng = np.random.default_rng(3)
        for n_zones, n_epochs in ((7, 1), (8, 1), (9, 129), (12, 1024)):
            counts = np.floor(rng.random((n_epochs, n_zones))
                              * 10.0 ** rng.integers(0, 15, n_zones))
            inputs = dict(counts=counts, occupancy=counts * 1.3,
                          bandwidths=rng.random(n_zones) * 1e11 + 1.0,
                          latencies=10.0 ** rng.integers(-3, 4, n_zones),
                          line=128.0, parallelism=7.0, t_compute=0.1)
            slow = service._throughput_tail_numpy(**inputs)
            fast = compiled_tail(**inputs)
            for want, got in zip(slow, fast):
                assert bits(got) == bits(want), (n_zones, n_epochs)


def _fields(result):
    return {key: (value.tolist() if isinstance(value, np.ndarray)
                  else value)
            for key, value in vars(result).items()}


@pytest.fixture(params=("native", "numpy"))
def kernels(request, monkeypatch):
    """The kernels the engines run (``numpy`` forces the fallback)."""
    if request.param == "numpy":
        monkeypatch.setattr(service, "_native_kernels", lambda: None)
    return request.param


def _replay_trace(seed, footprint=96, n=6_000, n_epochs=12):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, footprint, n)
    pages[: n // n_epochs] = rng.integers(0, 8, n // n_epochs)
    return DramTrace(page_indices=pages, footprint_pages=footprint,
                     n_raw_accesses=3 * n, n_epochs=n_epochs,
                     is_write=rng.random(n) < 0.3)


class TestBoundReplay:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("topology", (simulated_baseline(),
                                          chiplet_topology(4)),
                             ids=("baseline", "chiplet-4"))
    def test_every_epoch_equals_engine_run(self, kernels, engine_cls,
                                           topology):
        engine = engine_cls(table1_config())
        trace = _replay_trace(5)
        chars = WorkloadCharacteristics(parallelism=96.0,
                                        compute_ns_per_access=0.4)
        n_zones = len(topology)
        rng = np.random.default_rng(11)
        zone_map = rng.integers(0, n_zones, trace.footprint_pages
                                ).astype(np.int16)
        calls = []
        bind = engine.bind

        def recording_bind(*args):
            run = bind(*args)

            def recorded(sub_trace, current):
                result = run(sub_trace, current)
                calls.append((sub_trace, np.array(current), result))
                return result
            return recorded

        engine.bind = recording_bind

        current = [zone_map]

        def on_boundary(pages, result, elapsed_ns, last):
            step = len(calls) % 3
            if step == 0:  # change the current map in place
                current[0][rng.integers(0, trace.footprint_pages, 9)] = (
                    rng.integers(0, n_zones, 9))
            elif step == 1:  # a new map: read in place, or copied
                width = (np.int8, np.uint8, np.int64)[len(calls) // 3 % 3]
                current[0] = rng.integers(
                    0, n_zones, trace.footprint_pages).astype(width)
                return current[0]
            return None

        replay_epochs(trace, zone_map, engine, topology, chars,
                      on_boundary)
        del engine.bind
        assert len(calls) == trace.n_epochs
        for sub_trace, current, result in calls:
            alone = engine.run(sub_trace, current, topology, chars)
            assert _fields(result) == _fields(alone)

    def test_replays_read_the_same_on_both_kernels(self):
        trace = _replay_trace(9)
        zone_map = np.arange(trace.footprint_pages) % 2
        chars = WorkloadCharacteristics()
        for engine_cls in ENGINES:
            engine = engine_cls(table1_config())
            results = []
            for native in (None, _native.kernels()):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(service, "_native_kernels",
                                  lambda: native)
                    results.append(replay_epochs(
                        trace, zone_map.copy(), engine,
                        simulated_baseline(), chars, lambda *_: None))
            assert _fields(results[0]) == _fields(results[1])

    def test_binding_rejects_another_line_size(self):
        trace = _replay_trace(1)
        run = ThroughputEngine(table1_config()).bind(
            simulated_baseline(), WorkloadCharacteristics(), 64)
        with pytest.raises(SimulationError, match="bytes per access"):
            run(trace.epoch_traces[0], np.zeros(96, dtype=np.int64))


@pytest.fixture(params=("native", "numpy"))
def loader(request, fresh_loader, monkeypatch):
    """A fresh library load: built, or with no compiler to build it
    (the numpy kernels)."""
    if request.param == "numpy":
        monkeypatch.setattr(_native, "CC", "repro-no-such-cc")
    elif _native.kernels() is None:
        pytest.skip("no native library on this host")
    return request.param


class TestCorruptInputs:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("bad_zone", (-1, 2, 300))
    def test_zone_corrupted_in_place_is_rejected(self, loader, engine_cls,
                                                 bad_zone):
        """After the second epoch the map gains a zone outside the
        topology, on a page the stream never reads: only a check of
        the whole map sees it."""
        assert service.kernel_path() == loader
        trace = _replay_trace(2)
        unread = np.setdiff1d(np.arange(trace.footprint_pages),
                              trace.page_indices)
        footprint = trace.footprint_pages + 4
        trace = DramTrace(page_indices=trace.page_indices,
                          footprint_pages=footprint,
                          n_raw_accesses=trace.n_raw_accesses,
                          n_epochs=trace.n_epochs, is_write=trace.is_write)
        unread = np.concatenate((unread, np.arange(footprint - 4,
                                                   footprint)))
        zone_map = np.zeros(footprint, dtype=np.int16)
        epochs = []

        def on_boundary(pages, result, elapsed_ns, last):
            epochs.append(result)
            if len(epochs) == 2:
                zone_map[unread[0]] = bad_zone

        with pytest.raises(SimulationError, match="names zone"):
            replay_epochs(trace, zone_map, engine_cls(table1_config()),
                          simulated_baseline(), WorkloadCharacteristics(),
                          on_boundary)
        assert len(epochs) == 2

    @pytest.mark.parametrize("page", (-1, 16, 10**6))
    def test_tracker_rejects_a_page_outside_its_range(self, loader, page):
        tracker = HotnessTracker(16)
        tracker.observe_epoch(np.array([0, 15, 3]))
        before = tracker.scores.copy()
        with pytest.raises(SimulationError, match="outside tracked range"):
            tracker.observe_epoch(np.array([1, page, 2]))
        assert tracker.scores.tolist() == before.tolist()
        assert tracker.epochs_observed == 1
