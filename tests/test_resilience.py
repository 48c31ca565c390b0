"""Failure modes and recovery: fault injection, retries, quarantine,
breaker, drain.

Every fault in this module is injected through a deterministic
:class:`~repro.resilience.FaultPlan` — no monkeypatched randomness, no
wall-clock races.  The golden acceptance test at the bottom runs one
sweep through a worker crash, a hung chunk, *and* a corrupted cache
entry and demands results bit-identical to a fault-free serial run.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.core.atomicio import atomic_write_json, atomic_write_text
from repro.core.errors import (ConfigError, RunnerError, ServeError,
                               SweepError)
from repro.memory.topology import simulated_baseline
from repro.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    install_plan,
    reset_active_plan,
)
from repro.runner import (
    ResultCache,
    RunManifest,
    SweepRunner,
    encode_result,
    make_spec,
    result_digest,
)
from repro.serve.config import ServeConfig
from repro.serve.service import (
    DeadlineExceededError,
    PlacementService,
    ServiceUnavailableError,
)

ACCESSES = 6_000

#: shorter than DEFAULT_HANG_S so hung-chunk tests stay fast; still an
#: order of magnitude past the chunk timeouts paired with it.
HANG_S = 0.8


def specs_for(workloads=("bfs", "lbm"), policies=("LOCAL", "BW-AWARE")):
    return [
        make_spec(workload, policy, trace_accesses=ACCESSES)
        for workload in workloads
        for policy in policies
    ]


def quiet(runner):
    """Disable real inter-retry sleeps (determinism, speed)."""
    runner._sleep = lambda _s: None
    return runner


@pytest.fixture(autouse=True)
def _clean_plan():
    reset_active_plan()
    yield
    reset_active_plan()


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.from_string(
            "runner.chunk:crash:1;cache.write:truncate:2@bfs"
        )
        assert plan.describe() == (
            "runner.chunk:crash:1;cache.write:truncate:2@bfs"
        )

    @pytest.mark.parametrize("text", [
        "nowhere:crash", "runner.chunk:explode",
        "runner.chunk:crash:zero", "runner.chunk",
        "runner.chunk:crash:1:extra",
    ])
    def test_bad_entries_rejected(self, text):
        with pytest.raises(ConfigError):
            FaultPlan.from_string(text)

    def test_decide_fires_each_rule_times_then_disarms(self):
        plan = FaultPlan([FaultRule("cache.read", "corrupt", times=2)])
        assert plan.decide("cache.read", "k1").mode == "corrupt"
        assert plan.decide("cache.read", "k2").mode == "corrupt"
        assert plan.decide("cache.read", "k3") is None
        assert plan.fired_counts() == {"cache.read:corrupt": 2}

    def test_match_filters_keys(self):
        plan = FaultPlan([FaultRule("runner.chunk", "error", match="bfs")])
        assert plan.decide("runner.chunk", "lbm|LOCAL") is None
        assert plan.decide("runner.chunk", "bfs|LOCAL") is not None

    def test_site_isolation(self):
        plan = FaultPlan([FaultRule("cache.read", "corrupt")])
        assert plan.decide("cache.write", "k") is None
        assert plan.decide("cache.read", "k") is not None

    def test_determinism(self):
        def run():
            plan = FaultPlan.from_string(
                "runner.chunk:error:2;runner.chunk:hang:1"
            )
            return [
                (a.mode if a else None)
                for a in (plan.decide("runner.chunk", f"k{i}")
                          for i in range(5))
            ]
        assert run() == run() == ["error", "error", "hang", None, None]

    def test_env_plan_lazy_and_resettable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serve.simulate:error:3")
        reset_active_plan()
        plan = active_plan()
        assert plan is not None and plan.rules[0].times == 3
        assert active_plan() is plan  # cached parse
        installed = FaultPlan([FaultRule("cache.read", "corrupt")])
        assert active_plan() is not installed
        install_plan(installed)
        assert active_plan() is installed

    def test_empty_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        reset_active_plan()
        assert active_plan() is None


# ----------------------------------------------------------------------
# BackoffPolicy / CircuitBreaker
# ----------------------------------------------------------------------

class TestBackoffPolicy:
    def test_deterministic_and_bounded(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, max_s=0.5,
                               jitter=0.25, seed=7)
        delays = [policy.delay(n) for n in range(8)]
        assert delays == [policy.delay(n) for n in range(8)]
        for n, delay in enumerate(delays):
            raw = min(0.5, 0.1 * 2.0 ** n)
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_no_jitter_is_exact(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, max_s=10.0,
                               jitter=0.0)
        assert [policy.delay(n) for n in range(3)] == [0.1, 0.2, 0.4]

    def test_total_budget(self):
        policy = BackoffPolicy(max_total_s=1.0)
        assert not policy.exhausted(0.99)
        assert policy.exhausted(1.0)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3,
                                 reset_timeout_s=10.0,
                                 clock=clock, **kwargs)
        return breaker, clock

    def test_opens_after_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_full_cycle_open_half_open_closed(self):
        transitions = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.now += 4.0
        assert breaker.retry_after() == pytest.approx(6.0)
        clock.now += 7.0
        assert breaker.state == "half_open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one probe admitted
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert transitions == [("closed", "open"),
                               ("open", "half_open"),
                               ("half_open", "closed")]

    def test_half_open_failure_reopens_and_restarts_timer(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

class TestAtomicIO:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp left behind

    def test_json_helper(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"a": 1}, indent=2)
        assert json.loads(path.read_text()) == {"a": 1}

    def test_manifest_write_is_atomic_json(self, tmp_path):
        manifest = RunManifest(
            run_id="r1", created="2026-08-07T00:00:00Z", jobs=1,
            n_specs=1, cache_hits=0, deduplicated=0, executed=1,
            salt="s", wall_time_s=0.1, cache_dir=None,
            cache_stats={"quarantined": 1}, recovery={"retries": 2},
        )
        written = manifest.write(tmp_path)
        payload = json.loads(written.read_text())
        assert payload["recovery"] == {"retries": 2}
        summary = manifest.summary()
        assert "2 retries" in summary and "1 quarantined" in summary


# ----------------------------------------------------------------------
# Cache integrity
# ----------------------------------------------------------------------

class TestCacheIntegrity:
    def warm_one(self, tmp_path, fault_plan=None):
        spec = specs_for(("bfs",), ("LOCAL",))[0]
        cache = ResultCache(tmp_path / "cache",
                            fault_plan=fault_plan or FaultPlan())
        runner = SweepRunner(jobs=1, cache=cache)
        outcome = runner.run([spec])
        key = spec.cache_key(runner.salt)
        return cache, spec, key, outcome.results[0]

    def test_digest_verified_roundtrip(self, tmp_path):
        cache, _, key, result = self.warm_one(tmp_path)
        fetched = cache.get(key)
        assert fetched is not None
        assert encode_result(fetched) == encode_result(result)
        path, offset, length = cache.locate(key)
        frame = path.read_bytes()[offset:offset + length]
        n_result = int.from_bytes(frame[72:76], "little")
        stored = json.loads(frame[112:112 + n_result])
        assert frame[80:112].hex() == result_digest(stored)

    def test_hand_tampered_record_quarantined(self, tmp_path,
                                              damage_frame):
        cache, _, key, result = self.warm_one(tmp_path)
        total = json.dumps(result.sim.total_time_ns).encode()

        def silent_flip(frame):
            # one digit of total_time_ns, CRC resealed: only the
            # SHA-256 of the result part can tell
            at = frame.index(b'"total_time_ns":' + total) + 16
            frame[at] = ord("1") if frame[at] != ord("1") else ord("2")

        damage_frame(cache, key, silent_flip, reseal=True)
        assert cache.get(key) is None  # never served wrong data
        assert cache.stats.quarantined == 1
        assert ResultCache(cache.root).locate(key) is None
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_quarantine_excluded_from_len_and_clear(self, tmp_path,
                                                    damage_frame):
        cache, _, key, _ = self.warm_one(tmp_path)
        damage_frame(cache, key, cut=True)
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.clear() == 0
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_injected_read_corruption_recovers(self, tmp_path):
        plan = FaultPlan([FaultRule("cache.read", "corrupt")])
        cache, spec, key, original = self.warm_one(tmp_path,
                                                   fault_plan=plan)
        assert cache.get(key) is None  # fault fired, quarantined
        assert cache.stats.quarantined == 1
        runner = SweepRunner(jobs=1, cache=cache)
        rerun = runner.run([spec])  # recompute, re-store
        assert encode_result(rerun.results[0]) == encode_result(original)
        assert cache.get(key) is not None

    def test_injected_torn_write_detected_next_read(self, tmp_path):
        plan = FaultPlan([FaultRule("cache.write", "truncate")])
        cache, spec, key, original = self.warm_one(tmp_path,
                                                   fault_plan=plan)
        assert cache.get(key) is None  # torn record quarantined
        fresh = ResultCache(tmp_path / "cache", fault_plan=FaultPlan())
        runner = SweepRunner(jobs=1, cache=fresh)
        rerun = runner.run([spec])
        assert encode_result(rerun.results[0]) == encode_result(original)

    def test_write_error_fault_raises(self, tmp_path):
        _, spec, key, result = self.warm_one(tmp_path)
        plan = FaultPlan([FaultRule("cache.write", "error")])
        cache = ResultCache(tmp_path / "other", fault_plan=plan)
        with pytest.raises(InjectedFaultError):
            cache.put(key, spec.canonical(), result)


# ----------------------------------------------------------------------
# Runner recovery
# ----------------------------------------------------------------------

class TestRunnerRecovery:
    def test_worker_crash_recovered_bit_identical(self):
        baseline = SweepRunner(jobs=1, cache=False).run(specs_for())
        plan = FaultPlan([FaultRule("runner.chunk", "crash")])
        runner = quiet(SweepRunner(jobs=2, cache=False, fault_plan=plan,
                                   chunk_timeout_s=30.0))
        outcome = runner.run(specs_for())
        assert plan.fired_counts() == {"runner.chunk:crash": 1}
        for a, b in zip(baseline.results, outcome.results):
            assert encode_result(a) == encode_result(b)
        recovery = outcome.manifest.recovery
        assert recovery["worker_crashes"] >= 1
        assert recovery["pool_rebuilds"] >= 1
        assert recovery["retries"] >= 1

    def test_hung_chunk_recovered(self):
        baseline = SweepRunner(jobs=1, cache=False).run(specs_for())
        plan = FaultPlan([FaultRule("runner.chunk", "hang",
                                    delay_s=HANG_S)])
        runner = quiet(SweepRunner(jobs=2, cache=False, fault_plan=plan,
                                   chunk_timeout_s=0.2))
        outcome = runner.run(specs_for())
        for a, b in zip(baseline.results, outcome.results):
            assert encode_result(a) == encode_result(b)
        recovery = outcome.manifest.recovery
        assert recovery["chunk_timeouts"] >= 1
        assert recovery["pool_rebuilds"] >= 1

    def test_timeout_counts_run_time_not_queue_time(self):
        """A budget longer than any one chunk's run but shorter than the
        whole sweep: chunks queued behind others must not time out."""
        specs = specs_for(("bfs", "lbm", "needle", "srad", "kmeans",
                           "spmv", "hotspot", "lud"), ("LOCAL",))
        baseline = SweepRunner(jobs=1, cache=False).run(specs)
        # Eight one-spec chunks on two workers, each slowed to ~0.4 s:
        # the last starts ~1.2 s after it was submitted.
        plan = FaultPlan([FaultRule("runner.chunk", "hang", times=99,
                                    delay_s=0.4)])
        runner = quiet(SweepRunner(jobs=2, cache=False, fault_plan=plan,
                                   chunk_timeout_s=1.0))
        try:
            outcome = runner.run(specs)
        finally:
            runner.close()
        assert outcome.manifest.wall_time_s > runner.chunk_timeout_s
        assert outcome.manifest.recovery["chunk_timeouts"] == 0
        for a, b in zip(baseline.results, outcome.results):
            assert encode_result(a) == encode_result(b)

    def test_transient_error_retried_serially(self):
        plan = FaultPlan([FaultRule("runner.chunk", "error")])
        runner = quiet(SweepRunner(jobs=1, cache=False, fault_plan=plan,
                                   max_retries=2))
        outcome = runner.run(specs_for(("bfs",), ("LOCAL",)))
        assert len(outcome.results) == 1
        assert outcome.manifest.recovery["retries"] == 1

    def test_persistent_failure_raises_sweep_error(self):
        plan = FaultPlan([FaultRule("runner.chunk", "error", times=99)])
        runner = quiet(SweepRunner(jobs=1, cache=False, fault_plan=plan,
                                   max_retries=1))
        with pytest.raises(SweepError) as excinfo:
            runner.run(specs_for(("bfs",), ("LOCAL", "BW-AWARE")))
        err = excinfo.value
        assert len(err.failed_specs) == 2
        assert all("bfs" in label for label in err.failed_specs)
        assert all("InjectedFaultError" in cause for cause in err.causes)

    def test_persistent_parallel_failure_degrades_then_raises(self):
        plan = FaultPlan([FaultRule("runner.chunk", "error", times=99)])
        runner = quiet(SweepRunner(jobs=2, cache=False, fault_plan=plan,
                                   max_retries=1))
        degraded = []
        original = runner._degraded_serial

        def spy(*args, **kwargs):
            degraded.append(1)
            return original(*args, **kwargs)

        runner._degraded_serial = spy
        with pytest.raises(SweepError) as excinfo:
            runner.run(specs_for())
        assert len(excinfo.value.failed_specs) == len(specs_for())
        assert len(degraded) >= 1  # serial fallback was attempted

    def test_expired_deadline_raises_before_executing(self):
        runner = SweepRunner(jobs=1, cache=False)
        with pytest.raises(SweepError) as excinfo:
            runner.run(specs_for(("bfs",), ("LOCAL",)),
                       deadline=time.monotonic() - 1.0)
        assert "deadline exceeded" in excinfo.value.causes

    def test_checkpoint_preserves_partial_progress(self, tmp_path):
        """Specs completed before a sweep fails are already cached."""
        cache = ResultCache(tmp_path / "cache", fault_plan=FaultPlan())
        plan = FaultPlan([FaultRule("runner.chunk", "error", times=99,
                                    match="lbm")])
        runner = quiet(SweepRunner(jobs=1, cache=cache, fault_plan=plan,
                                   max_retries=0))
        with pytest.raises(SweepError):
            runner.run(specs_for(("bfs", "lbm"), ("LOCAL",)))
        assert len(cache) == 1  # bfs checkpointed before lbm failed
        retry = SweepRunner(jobs=1, cache=cache)
        outcome = retry.run(specs_for(("bfs", "lbm"), ("LOCAL",)))
        assert outcome.manifest.cache_stats["hits"] == 1

    def test_acceptance_crash_hang_corruption_in_one_sweep(self, tmp_path):
        """ISSUE acceptance: crash + hung chunk + corrupt cache entry in
        one sweep, results bit-identical to a fault-free serial run."""
        specs = specs_for(("bfs", "lbm", "needle"), ("LOCAL", "BW-AWARE"))
        baseline = SweepRunner(jobs=1, cache=False).run(specs)

        # Warm exactly one cache entry, then damage it on read.
        cache = ResultCache(tmp_path / "cache", fault_plan=FaultPlan())
        SweepRunner(jobs=1, cache=cache).run(specs[:1])
        # The crash (no match filter) hits a first-wave chunk and the
        # hang is pinned to the retried single-spec chunk, so both
        # recovery paths — broken pool and chunk timeout — fire in the
        # same sweep rather than the crash masking the hang.
        plan = FaultPlan([
            FaultRule("cache.read", "corrupt", times=1),
            FaultRule("runner.chunk", "crash", times=1),
            FaultRule("runner.chunk", "hang", times=1, delay_s=HANG_S,
                      match=specs[0].label()),
        ])
        runner = quiet(SweepRunner(jobs=2,
                                   cache=ResultCache(tmp_path / "cache",
                                                     fault_plan=plan),
                                   fault_plan=plan,
                                   chunk_timeout_s=0.25,
                                   max_retries=3))
        outcome = runner.run(specs)

        fired = plan.fired_counts()
        assert fired == {"cache.read:corrupt": 1,
                         "runner.chunk:crash": 1,
                         "runner.chunk:hang": 1}
        assert len(outcome.results) == len(specs)
        for a, b in zip(baseline.results, outcome.results):
            assert encode_result(a) == encode_result(b)
        recovery = outcome.manifest.recovery
        assert recovery["worker_crashes"] >= 1
        assert recovery["chunk_timeouts"] >= 1
        assert outcome.manifest.cache_stats["quarantined"] == 1
        assert "recovery:" in outcome.manifest.summary()


class TestFailFast:
    """An input error (``FAIL_FAST_ERRORS``) fails its spec at once, in
    both modes: no retry, no backoff, no halving; the rest of the sweep
    still runs."""

    @staticmethod
    def oom_spec():
        # bfs needs 720 pages; this machine has 512.
        tiny = simulated_baseline(bo_capacity_gib=0.001,
                                  co_capacity_gib=0.001)
        return make_spec("bfs", "LOCAL", topology=tiny,
                         trace_accesses=ACCESSES)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_out_of_memory_is_not_retried(self, jobs, capsys):
        doomed = self.oom_spec()
        specs = specs_for(("lbm",)) + [doomed] + specs_for(("needle",))
        runner = SweepRunner(jobs=jobs, cache=False, max_retries=2)
        sleeps = []
        runner._sleep = sleeps.append
        try:
            with pytest.raises(SweepError) as excinfo:
                runner.run(specs)
        finally:
            runner.close()
        err = excinfo.value
        assert list(err.failed_specs) == [doomed.label()]
        assert list(err.causes) == ["OutOfMemoryError: zones [0, 1] "
                                    "exhausted in topology "
                                    "simulated-baseline"]
        logged = capsys.readouterr().err
        assert "runner.retry" not in logged
        assert "runner.degraded_serial" not in logged
        assert sleeps == []

    def test_rest_of_the_chunk_still_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fault_plan=FaultPlan())
        specs = specs_for(("lbm", "needle")) + [self.oom_spec()]
        runner = quiet(SweepRunner(jobs=2, cache=cache))
        try:
            with pytest.raises(SweepError):
                runner.run(specs)
        finally:
            runner.close()
        outcome = SweepRunner(jobs=1, cache=cache).run(specs[:-1])
        assert outcome.manifest.cache_stats["hits"] == len(specs) - 1

    def test_input_errors_survive_the_process_boundary(self):
        # A worker's exception reaches the parent pickled; an error that
        # cannot be rebuilt breaks the pool instead of failing its spec.
        import pickle

        from repro.core.errors import IngestError, RequestLimitError
        for error in (RequestLimitError("epochs", 2000, 1024),
                      IngestError("bad line", file="t.txt", line=3,
                                  column=2)):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is type(error)
            assert str(copy) == str(error)
            assert vars(copy) == vars(error)

    def test_injected_faults_stay_retriable(self):
        plan = FaultPlan([FaultRule("runner.chunk", "error", times=1)])
        runner = quiet(SweepRunner(jobs=2, cache=False, fault_plan=plan,
                                   max_retries=2))
        try:
            outcome = runner.run(specs_for())
        finally:
            runner.close()
        assert outcome.manifest.recovery["retries"] >= 1


class TestChunkTimeoutValidation:
    """One check guards every way in to the chunk budget and rejects a
    budget no wait can honour before any chunk runs: ``nan`` used to
    declare every chunk hung, ``inf`` and ``1e308`` overflowed the
    wait inside each chunk."""

    @pytest.mark.parametrize("raw", ("0", "-1", "nan", "inf", "1e308"))
    def test_rejected_alike_on_every_path(self, raw, monkeypatch,
                                          capsys):
        from repro.cli import main

        with pytest.raises(RunnerError) as ctor:
            SweepRunner(jobs=2, cache=False, chunk_timeout_s=float(raw))
        message = str(ctor.value)
        assert message.startswith("chunk timeout must be")

        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", raw)
        with pytest.raises(RunnerError) as env:
            SweepRunner(jobs=2, cache=False)
        assert str(env.value) == message
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT")

        with pytest.raises(SystemExit) as cli:
            main(["compare", "-w", "bfs", "--chunk-timeout", raw])
        assert cli.value.code == 2
        assert message in capsys.readouterr().err

    def test_longest_budget_runs_parallel_chunks(self):
        runner = SweepRunner(jobs=2, cache=False,
                             chunk_timeout_s=threading.TIMEOUT_MAX)
        try:
            outcome = runner.run(specs_for(("bfs",)))
        finally:
            runner.close()
        assert outcome.manifest.recovery["chunk_errors"] == 0
        assert outcome.manifest.recovery["retries"] == 0


# ----------------------------------------------------------------------
# Serve degradation
# ----------------------------------------------------------------------

def serve_config(**overrides):
    base = dict(use_cache=False, simulate_workers=2,
                breaker_threshold=2, breaker_reset_s=30.0,
                retry_after_s=0.01, drain_timeout_s=5.0)
    base.update(overrides)
    return ServeConfig(**base)


def sim_payload(seed=0, workload="bfs"):
    return {"workload": workload, "policy": "LOCAL",
            "trace_accesses": ACCESSES, "seed": seed}


class TestServeBreaker:
    def test_open_half_open_closed_cycle(self):
        plan = FaultPlan([FaultRule("serve.simulate", "error", times=2)])
        clock = FakeClock()

        async def scenario():
            service = PlacementService(serve_config(), fault_plan=plan)
            service.breaker.clock = clock
            await service.start()
            try:
                for seed in range(2):
                    with pytest.raises(InjectedFaultError):
                        await service.simulate(sim_payload(seed))
                assert service.breaker.state == "open"
                with pytest.raises(ServiceUnavailableError) as excinfo:
                    await service.simulate(sim_payload(2))
                assert excinfo.value.retry_after >= 0.01
                assert service.health()["breaker"] == "open"

                clock.now += 31.0  # past breaker_reset_s
                report = await service.simulate(sim_payload(3))
                assert report["result"]["workload"] == "bfs"
                assert service.breaker.state == "closed"

                metrics = service.metrics_text()
                assert ('repro_serve_breaker_transitions_total'
                        '{transition="closed_to_open"} 1') in metrics
                assert ('repro_serve_breaker_transitions_total'
                        '{transition="half_open_to_closed"} 1') in metrics
                assert "repro_serve_breaker_rejected_total 1" in metrics
                assert "repro_serve_simulate_failures_total 2" in metrics
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_deadline_rejection_does_not_trip_breaker(self):
        async def scenario():
            service = PlacementService(serve_config())
            await service.start()
            try:
                with pytest.raises(DeadlineExceededError):
                    await service.simulate(
                        sim_payload(), deadline=time.monotonic() - 1.0)
                assert service.breaker.state == "closed"
                assert ("repro_serve_deadline_rejected_total 1"
                        in service.metrics_text())
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestServeDrain:
    def test_drain_finishes_inflight_and_refuses_new(self):
        async def scenario():
            service = PlacementService(serve_config())
            await service.start()
            gate = threading.Event()
            original = service._run_job

            def gated(body, deadline=None):
                assert gate.wait(timeout=30), "gate never released"
                return original(body, deadline)

            service._run_job = gated
            job = asyncio.ensure_future(service.simulate(sim_payload()))
            while not len(service._flight):
                await asyncio.sleep(0.01)

            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.05)
            assert service.draining
            with pytest.raises(ServiceUnavailableError):
                await service.simulate(sim_payload(seed=9))

            gate.set()
            await stopping
            report = await job
            assert report["result"]["workload"] == "bfs"
            metrics = service.metrics_text()
            assert "repro_serve_draining 1" in metrics
            assert "repro_serve_drained_jobs_total 1" in metrics

        asyncio.run(scenario())

    def test_drain_refuses_profile_and_autotune(self):
        async def scenario():
            service = PlacementService(serve_config())
            await service.start()
            await service.stop()
            assert service.draining
            for ask, workload in ((service.profile, "bfs"),
                                  (service.autotune, "xsbench")):
                with pytest.raises(ServiceUnavailableError) as excinfo:
                    await ask({"workload": workload})
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after == pytest.approx(0.01)

        asyncio.run(scenario())

    def test_runner_recovery_surfaces_on_metrics(self):
        plan = FaultPlan([FaultRule("runner.chunk", "error", times=1)])

        async def scenario():
            service = PlacementService(serve_config(), fault_plan=plan)
            service.runner._fault_plan = plan
            quiet(service.runner)
            await service.start()
            try:
                report = await service.simulate(sim_payload())
                assert report["recovery"]["retries"] == 1
                assert ("repro_serve_runner_retries_total 1"
                        in service.metrics_text())
            finally:
                await service.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Client retries
# ----------------------------------------------------------------------

class TestClientRetries:
    def make_client(self, statuses, retry_after=None, **backoff_kwargs):
        from repro.serve.client import ServeClient

        kwargs = dict(base_s=0.01, jitter=0.0, max_total_s=60.0)
        kwargs.update(backoff_kwargs)
        client = ServeClient("http://test.invalid",
                             backoff=BackoffPolicy(**kwargs))
        sleeps = []
        client._sleep = sleeps.append
        remaining = list(statuses)

        def fake_json(method, path, payload=None):
            if remaining:
                status = remaining.pop(0)
                raise ServeError(f"HTTP {status}", status=status,
                                 retry_after=retry_after)
            return {"ok": True}

        client._json = fake_json
        return client, sleeps

    def test_retries_429_with_backoff_then_succeeds(self):
        client, sleeps = self.make_client([429, 429])
        assert client.simulate("bfs", retries=5) == {"ok": True}
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_retries_503(self):
        client, _ = self.make_client([503])
        assert client.simulate("bfs", retries=1) == {"ok": True}

    def test_retry_budget_capped(self):
        client, sleeps = self.make_client([429] * 10)
        with pytest.raises(ServeError):
            client.simulate("bfs", retries=3)
        assert len(sleeps) == 3  # retries, not unbounded

    def test_non_retryable_raises_immediately(self):
        client, sleeps = self.make_client([500])
        with pytest.raises(ServeError):
            client.simulate("bfs", retries=5)
        assert sleeps == []

    def test_server_hint_capped_at_policy_max(self):
        client, sleeps = self.make_client([429], retry_after=120.0,
                                          max_s=2.0)
        assert client.simulate("bfs", retries=1) == {"ok": True}
        assert sleeps == [pytest.approx(2.0)]

    def test_total_sleep_budget_stops_retries(self):
        client, sleeps = self.make_client([429] * 10, max_total_s=0.005)
        with pytest.raises(ServeError):
            client.simulate("bfs", retries=50)
        assert len(sleeps) == 1  # 0.01 slept, budget hit, gave up
