"""Trace synthesis's native interleave and pattern arithmetic, bit for bit.

Synthesis promises the *same* streams and the same generator draws as
its first forms, so everything here compares with ``==``:

* the native per-phase interleave (``gpu/_synth.c``) against
  :func:`repro.workloads.interleave.interleave_numpy` on hypothesis
  phases -- 1 to 16 structures, zero counts, 0 to 50k accesses, random
  generator seeds and four bit generators -- on lines, write flags and
  the generator's state afterwards;
* :func:`repro.workloads.patterns.phase_shift` and
  :func:`~repro.workloads.patterns.sliding_window` against their first
  forms in ``tests/reference_loops.py``, down to n = 0 and 1, fewer
  accesses than phases, ``hot_traffic = 1.0``,
  ``window_fraction = 1.0`` and several passes;
* whole :meth:`TraceWorkload.raw_access_stream` results against the
  first loop (:func:`reference_raw_access_stream`) on random
  workloads: several phases, structures that draw nothing, phases that
  only one structure draws;
* the fallbacks: a kernel that fails its first-use check is dropped
  with one log line, and no compiler gives the frozen manifest.

With no compiler both sides of the first check are numpy and the suite
checks the fallback against itself.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from frozen_digests import assert_unmoved
from reference_loops import (
    reference_phase_shift,
    reference_raw_access_stream,
    reference_sliding_window,
)
from repro.gpu import _native
from repro.workloads import interleave, patterns
from repro.workloads.base import AccessPhase, DataStructureSpec, TraceWorkload
from repro.workloads.suite import get_workload
from test_synth_digests import GOLDEN, compute_digests, stream_digest

SLOW = settings(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)


def native_or_numpy():
    """The bound native kernel, or the numpy form without a library."""
    return _native.kernel("interleave") or interleave.interleave_numpy


def same_draws(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Whether both generators draw the same next doubles and 32-bit
    words (the latter read a half-used 64-bit output first)."""
    return all(np.array_equal(draw(a), draw(b)) for draw in (
        lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
        lambda g: g.random(3)))


@st.composite
def phases(draw):
    """``(streams, bases, flags)`` of one phase of 0 to 50k accesses."""
    k = draw(st.integers(1, 16))
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 50_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(k) * (rng.random(k)
                               < draw(st.sampled_from((1.0, 0.5, 0.2))))
    weights[0] += weights.sum() == 0
    counts = rng.multinomial(n, weights / weights.sum())
    streams = [rng.integers(0, 1 << 40, c) for c in counts]
    flags = [rng.random(c) < 0.4 for c in counts]
    bases = rng.integers(0, 1 << 40, k)
    return streams, bases, flags


class TestInterleave:
    @SLOW
    @given(phase=phases(), seed=st.integers(0, 2**63),
           bit_generator=st.sampled_from(BIT_GENERATORS))
    def test_native_equals_numpy(self, phase, seed, bit_generator):
        numpy_rng = np.random.Generator(bit_generator(seed))
        native_rng = np.random.Generator(bit_generator(seed))
        want = interleave.interleave_numpy(numpy_rng, *phase)
        got = native_or_numpy()(native_rng, *phase)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])
        assert got[0].dtype == np.int64 and got[1].dtype == np.bool_
        assert same_draws(numpy_rng, native_rng)

    def test_each_structure_keeps_its_order(self):
        streams = [np.arange(50) * 10, np.arange(30) * 10 + 1,
                   np.empty(0, dtype=np.int64), np.arange(20) * 10 + 3]
        flags = [np.arange(s.size) % 2 == 0 for s in streams]
        lines, is_write = native_or_numpy()(np.random.default_rng(3),
                                            streams, [0, 0, 0, 0], flags)
        for i, stream in enumerate(streams):
            mine = lines % 10 == i
            assert np.array_equal(lines[mine], stream)
            assert np.array_equal(is_write[mine], flags[i])

    def test_checked_kernel_is_the_native_one(self):
        # The first-use check passes wherever the library loads.
        checked = interleave.native_interleave()
        assert (checked is None) == (_native.kernel("interleave") is None)

    def test_mismatched_flags_rejected(self):
        kernel = _native.kernel("interleave")
        if kernel is None:
            pytest.skip("no native library on this host")
        with pytest.raises(ValueError):
            kernel(np.random.default_rng(0), [np.arange(3)], [0],
                   [np.zeros(2, dtype=bool)])


lengths = st.one_of(st.integers(0, 4), st.integers(0, 20_000))
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestPatterns:
    @SLOW
    @given(n=lengths, n_lines=st.integers(1, 200_000),
           n_phases=st.integers(1, 12), hot_fraction=open_unit,
           hot_traffic=st.one_of(st.just(1.0), open_unit),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, n_lines=7, n_phases=4, hot_fraction=0.1,
             hot_traffic=0.85, seed=0)
    @example(n=1, n_lines=1, n_phases=4, hot_fraction=0.5,
             hot_traffic=1.0, seed=1)
    @example(n=3, n_lines=100, n_phases=8, hot_fraction=0.3,
             hot_traffic=0.85, seed=2)
    @example(n=10_000, n_lines=65_536, n_phases=4, hot_fraction=0.1,
             hot_traffic=1.0, seed=3)
    def test_phase_shift(self, n, n_lines, n_phases, hot_fraction,
                         hot_traffic, seed):
        params = {"n_phases": n_phases, "hot_fraction": hot_fraction,
                  "hot_traffic": hot_traffic}
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(
            patterns.phase_shift(a, n, n_lines, params),
            reference_phase_shift(b, n, n_lines, params))
        assert same_draws(a, b)

    @SLOW
    @given(n=lengths, n_lines=st.integers(1, 200_000),
           window_fraction=st.one_of(st.just(1.0), open_unit),
           passes=st.one_of(st.sampled_from((1.0, 2.0, 3.5)),
                            st.floats(1e-3, 50.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, n_lines=5, window_fraction=0.2, passes=1.0, seed=0)
    @example(n=1, n_lines=1, window_fraction=1.0, passes=1.0, seed=1)
    @example(n=9_999, n_lines=98_304, window_fraction=1.0, passes=3.0,
             seed=2)
    def test_sliding_window(self, n, n_lines, window_fraction, passes,
                            seed):
        params = {"window_fraction": window_fraction, "passes": passes}
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(
            patterns.sliding_window(a, n, n_lines, params),
            reference_sliding_window(b, n, n_lines, params))
        assert same_draws(a, b)


class DrawnWorkload(TraceWorkload):
    """A workload made of hypothesis-drawn structures and phases."""

    name = "drawn"
    dataset_scales = {"default": 1.0}

    def __init__(self, specs, phase_list):
        self._specs = tuple(specs)
        self._phases = tuple(phase_list)

    def define_structures(self, dataset="default"):
        return self._specs

    def phases(self, dataset="default"):
        return self._phases


PATTERN_PARAMS = {
    "phase_shift": {"n_phases": 3, "hot_fraction": 0.2, "hot_traffic": 0.9},
    "sliding_window": {"window_fraction": 0.3, "passes": 2.0},
}


@st.composite
def workloads(draw):
    specs = []
    for i in range(draw(st.integers(1, 6))):
        pattern = draw(st.sampled_from(sorted(patterns.PATTERNS)))
        specs.append(DataStructureSpec(
            f"s{i}", draw(st.integers(1, 64)) * 4096,
            traffic_weight=draw(st.sampled_from((0.0, 0.5, 1.0, 4.0))),
            pattern=pattern, pattern_params=PATTERN_PARAMS.get(pattern, {}),
            read_fraction=draw(st.sampled_from((0.0, 0.7, 1.0)))))
    phase_list = []
    for p in range(draw(st.integers(1, 4))):
        # An override of 0 drops a structure from the phase; dropping
        # all but one gives the one-structure phases.
        overrides = {spec.name: draw(st.sampled_from((0.0, 1.0, 3.0)))
                     for spec in specs if draw(st.booleans())}
        weights = [s.traffic_weight * overrides.get(s.name, 1.0)
                   for s in specs]
        assume(sum(weights) > 0)
        phase_list.append(AccessPhase(
            f"p{p}", draw(st.sampled_from((0.2, 1.0, 2.5))), overrides))
    return DrawnWorkload(specs, phase_list)


class TestRawStream:
    @SLOW
    @given(workload=workloads(),
           n=st.one_of(st.integers(1, 10), st.integers(1, 20_000)),
           seed=st.integers(0, 2**16))
    def test_equals_first_loop(self, workload, n, seed):
        lines, flags = workload.raw_access_stream(n_accesses=n, seed=seed)
        want_lines, want_flags = reference_raw_access_stream(
            workload, "default", n, seed)
        assert np.array_equal(lines, want_lines)
        assert np.array_equal(flags, want_flags)

    @pytest.mark.parametrize("name", ["bfs", "phase_shift", "backprop"])
    def test_registered_workloads_equal_first_loop(self, name):
        workload = get_workload(name)
        for n in (1, 5, 30_000):
            got = workload.raw_access_stream(n_accesses=n, seed=3)
            want = reference_raw_access_stream(workload, "default", n, 3)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestFallback:
    def test_failed_check_falls_back_to_numpy(self, monkeypatch, capsys):
        bound = native_or_numpy()

        def one_draw_more(rng, streams, bases, flags):
            out = bound(rng, streams, bases, flags)
            rng.random()
            return out

        real_kernel = _native.kernel
        monkeypatch.setattr(
            _native, "kernel",
            lambda name: (one_draw_more if name == "interleave"
                          else real_kernel(name)))
        monkeypatch.setattr(interleave, "_checked", interleave._UNCHECKED)
        workload = get_workload("bfs")
        lines, flags = workload.raw_access_stream(n_accesses=60_000, seed=7)
        assert capsys.readouterr().err.count(
            "native interleave disagrees") == 1
        assert interleave.native_interleave() is None
        frozen = json.loads(GOLDEN.read_text())
        assert stream_digest(lines, flags) == frozen["bfs|7|60000"]
        workload.raw_access_stream(n_accesses=5, seed=0)
        assert capsys.readouterr().err == ""

    def test_no_compiler_matches_the_manifest(self, fresh_loader,
                                              monkeypatch, capsys):
        monkeypatch.setattr(_native, "CC", "repro-no-such-cc")
        assert_unmoved(GOLDEN, compute_digests(), "raw streams")
        assert interleave.native_interleave() is None
        assert capsys.readouterr().err.count("using numpy") == 1
