"""The closed-loop interleave-ratio autotuner (repro.tuning).

Covers the controller's safeguards (deadband hysteresis, step clamp,
min-fraction floor), the low-discrepancy page stripe, the two ISSUE
acceptance bars — convergence to within 2% of the closed-form
``bandwidth_fractions()`` split on a stationary workload and beating
the static ratio on ``phase_shift`` — plus the persistence layer, the
``/v1/autotune`` endpoint and the ``repro autotune`` CLI verb.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.errors import ConfigError, ServeError
from repro.memory.topology import (
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
)
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve.service import (
    BadRequestError,
    PlacementService,
    parse_autotune_request,
)
from repro.runner import ResultCache, code_version_salt, content_key
from repro.tuning import (
    AutotuneReport,
    RatioController,
    autotune,
    autotune_spec,
    place_fractions,
)
from repro.tuning.autotuner import _GOLDEN, _stripe_positions

#: small tuning problems keep every test well under a second.
ACCESSES = 8_000
EPOCHS = 6


class TestRatioController:
    def test_deadband_holds_converged_fractions(self):
        controller = RatioController(deadband=0.05)
        fractions = (0.6, 0.4)
        # 4% imbalance — inside the deadband, nothing moves.
        assert controller.update(fractions, (1000.0, 960.0)) == fractions

    def test_outside_deadband_shifts_toward_idle_pool(self):
        controller = RatioController(deadband=0.01)
        updated = controller.update((0.5, 0.5), (2000.0, 500.0))
        assert updated[0] < 0.5 < updated[1]
        assert sum(updated) == pytest.approx(1.0)

    def test_idle_epoch_is_a_noop(self):
        controller = RatioController()
        assert controller.update((0.7, 0.3), (0.0, 0.0)) == (0.7, 0.3)

    def test_max_step_clamps_single_epoch_swing(self):
        controller = RatioController(gain=1.0, deadband=0.0,
                                     max_step=0.1, min_fraction=0.0)
        updated = controller.update((0.5, 0.5), (1000.0, 1.0))
        # The raw proposal would slam zone 0 to ~0.03; the clamp caps
        # the move at 0.1 per zone.
        assert updated == pytest.approx((0.4, 0.6))

    def test_min_fraction_keeps_starved_pool_alive(self):
        controller = RatioController(gain=1.0, deadband=0.0,
                                     max_step=1.0, min_fraction=0.05)
        updated = controller.update((0.3, 0.7), (1e9, 1.0))
        assert updated[0] >= 0.05 - 1e-12
        assert sum(updated) == pytest.approx(1.0)

    def test_zero_busy_pool_reenters(self):
        controller = RatioController(deadband=0.0)
        updated = controller.update((0.01, 0.99), (0.0, 1000.0))
        # the idle pool reads as deeply underloaded and gains share.
        assert updated[0] > 0.01

    def test_update_validation(self):
        controller = RatioController()
        with pytest.raises(ConfigError):
            controller.update((0.5, 0.5), (1.0,))
        with pytest.raises(ConfigError):
            controller.update((0.5, 0.5), (1.0, -1.0))
        with pytest.raises(ConfigError):
            RatioController(min_fraction=0.4).update(
                (0.25,) * 4, (1.0, 2.0, 3.0, 4.0))

    @pytest.mark.parametrize("kwargs", [
        {"gain": 0.0}, {"gain": 1.5}, {"deadband": 1.0},
        {"deadband": -0.1}, {"max_step": 0.0}, {"min_fraction": 1.0},
    ])
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RatioController(**kwargs)

    def test_repeated_updates_stay_normalized(self):
        controller = RatioController(deadband=0.0)
        fractions = (0.25, 0.25, 0.25, 0.25)
        rng = np.random.default_rng(7)
        for _ in range(50):
            busy = tuple(rng.uniform(0.0, 100.0, size=4))
            fractions = controller.update(fractions, busy)
            assert sum(fractions) == pytest.approx(1.0)
            assert all(f > 0 for f in fractions)


class TestPlaceFractions:
    def test_counts_track_fractions(self):
        zone_map = place_fractions((0.7, 0.3), 1000)
        counts = np.bincount(zone_map, minlength=2)
        # golden-ratio stripes have logarithmic discrepancy.
        assert abs(counts[0] - 700) <= 5
        assert abs(counts[1] - 300) <= 5

    def test_values_are_valid_zone_ids(self):
        zone_map = place_fractions((0.2, 0.3, 0.5), 257)
        assert zone_map.min() >= 0
        assert zone_map.max() <= 2
        assert zone_map.dtype == np.int16

    def test_deterministic(self):
        a = place_fractions((0.4, 0.6), 512)
        b = place_fractions((0.4, 0.6), 512)
        assert np.array_equal(a, b)

    def test_repartition_moves_only_boundary_pages(self):
        before = place_fractions((0.50, 0.50), 1000)
        after = place_fractions((0.52, 0.48), 1000)
        moved = int(np.sum(before != after))
        # a 2% boundary shift should migrate ~2% of pages, not reshuffle.
        assert moved <= 40

    def test_validation(self):
        with pytest.raises(ConfigError):
            place_fractions((0.5, 0.5), 0)

    @pytest.mark.parametrize("footprint", (1, 257, 720, 3_072, 2**16))
    @pytest.mark.parametrize("fractions", ((0.5, 0.5), (0.7, 0.3),
                                           (0.2, 0.3, 0.5),
                                           (0.1, 0.2, 0.3, 0.4)))
    def test_memoised_stripe_equals_inline_positions(self, footprint,
                                                     fractions):
        """The memoised positions give the zone map the inline
        ``(arange(n) * φ) % 1`` stripe gives, twice in a row."""
        cum = np.cumsum(np.asarray(fractions, dtype=np.float64))
        cum[-1] = 1.0
        pos = (np.arange(footprint, dtype=np.float64) * _GOLDEN) % 1.0
        want = np.minimum(np.searchsorted(cum, pos, side="right"),
                          len(fractions) - 1).astype(np.int16)
        for _ in range(2):
            got = place_fractions(fractions, footprint)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(_stripe_positions(footprint), pos)

    def test_memoised_positions_are_read_only(self):
        place_fractions((0.5, 0.5), 720)
        positions = _stripe_positions(720)
        assert positions is _stripe_positions(720)
        with pytest.raises(ValueError):
            positions[0] = 0.5
        zone_map = place_fractions((0.5, 0.5), 720)
        zone_map[0] = 1  # the returned zone map stays the caller's


class TestAutotune:
    def test_converges_within_2pct_of_closed_form_when_stationary(self):
        """ISSUE acceptance: stationary workload → the controller finds
        the Section 3.1 split without ever reading the SBIT."""
        report = autotune("xsbench", simulated_baseline(),
                          n_accesses=30_000, epochs=12)
        assert report.closed_form_gap < 0.02
        assert report.speedup > 1.0

    def test_beats_static_on_phase_shift(self):
        """ISSUE acceptance: tuned beats the static 1/N ratio on the
        phase-changing workload, adaptation transient included."""
        report = autotune("phase_shift", chiplet_topology(2),
                          n_accesses=ACCESSES, epochs=EPOCHS)
        assert report.speedup > 1.0

    def test_three_pool_history_tracks_every_epoch(self):
        report = autotune("xsbench", three_pool_topology(),
                          n_accesses=ACCESSES, epochs=EPOCHS)
        assert len(report.tuned_fractions) == 3
        # start vector + one entry per completed epoch.
        assert len(report.history) == EPOCHS + 1
        assert report.history[0] == report.static_fractions
        for entry in report.history:
            assert sum(entry) == pytest.approx(1.0)

    def test_needs_two_epochs(self):
        with pytest.raises(ConfigError):
            autotune("xsbench", epochs=1)

    def test_report_round_trips_through_json(self):
        report = autotune("xsbench", n_accesses=ACCESSES, epochs=EPOCHS)
        payload = json.loads(json.dumps(report.to_dict()))
        again = AutotuneReport.from_dict(payload)
        assert again.tuned_fractions == report.tuned_fractions
        assert again.history == report.history
        assert again.speedup == pytest.approx(report.speedup)


class TestTunedProfileStore:
    """Tuned reports are records of the one result cache."""

    def spec(self, topology=None, controller=None, **overrides):
        params = dict(dataset="default", engine="throughput", seed=0,
                      epochs=EPOCHS, n_accesses=ACCESSES,
                      controller=controller or RatioController())
        params.update(overrides)
        return autotune_spec("xsbench", topology or simulated_baseline(),
                             **params)

    def test_store_load_round_trip(self, tmp_path):
        report = autotune("xsbench", n_accesses=ACCESSES, epochs=EPOCHS)
        spec = self.spec()
        key = content_key(spec, code_version_salt())
        ResultCache(tmp_path).put(key, spec, report, AutotuneReport.to_dict)
        loaded = ResultCache(tmp_path).get(key, AutotuneReport.from_dict)
        assert loaded == report

    def test_load_missing_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get(
            "0" * 64, AutotuneReport.from_dict) is None

    def test_load_corrupt_is_none(self, tmp_path):
        """A record of a stale schema is a miss, and is quarantined."""
        spec = self.spec()
        key = content_key(spec, code_version_salt())
        cache = ResultCache(tmp_path)
        cache.put(key, spec, {"workload": "xsbench"}, dict)
        assert cache.get(key, AutotuneReport.from_dict) is None
        assert cache.stats.quarantined == 1
        assert cache.locate(key) is None

    def test_key_separates_topologies_and_configs(self):
        salt = code_version_salt()
        k1 = content_key(self.spec(), salt)
        k2 = content_key(self.spec(chiplet_topology(2)), salt)
        k3 = content_key(self.spec(epochs=EPOCHS + 1), salt)
        k4 = content_key(self.spec(controller=RatioController(gain=0.3)),
                         salt)
        assert content_key(self.spec(), salt) == k1
        assert len({k1, k2, k3, k4}) == 4
        assert all(len(key) == 64 for key in (k1, k2, k3, k4))


class TestParseAutotuneRequest:
    def test_defaults(self):
        parsed = parse_autotune_request({"workload": "xsbench"})
        assert parsed["workload"] == "xsbench"
        assert parsed["topology_name"] == "baseline"
        assert parsed["epochs"] == 16
        assert isinstance(parsed["controller"], RatioController)

    def test_rejections(self):
        with pytest.raises(BadRequestError):
            parse_autotune_request({})
        with pytest.raises(BadRequestError):
            parse_autotune_request({"workload": "no-such-workload"})
        with pytest.raises(BadRequestError):
            parse_autotune_request({"workload": "xsbench",
                                    "topology": "no-such-topology"})
        with pytest.raises(BadRequestError):
            parse_autotune_request({"workload": "xsbench", "epochs": 1})
        with pytest.raises(BadRequestError):
            parse_autotune_request({"workload": "xsbench",
                                    "controller": {"bogus_knob": 1.0}})
        with pytest.raises(BadRequestError):
            parse_autotune_request({"workload": "xsbench",
                                    "engine": "warp-drive"})


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(
        port=0,
        cache_dir=tmp_path_factory.mktemp("autotune-cache"),
        simulate_workers=2,
        max_pending_jobs=8,
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    client = ServeClient(server.base_url)
    client.wait_until_ready()
    return client


class TestServeAutotune:
    def test_tune_then_profile_hit(self, client):
        first = client.autotune("xsbench", topology="chiplet-2",
                                epochs=4, n_accesses=4_000)
        assert first["cached"] is False
        profile = first["profile"]
        assert len(profile["tuned_fractions"]) == 3
        assert profile["speedup"] > 0

        second = client.autotune("xsbench", topology="chiplet-2",
                                 epochs=4, n_accesses=4_000)
        assert second["cached"] is True
        assert second["profile_key"] == first["profile_key"]
        assert second["profile"]["tuned_fractions"] \
            == profile["tuned_fractions"]

    def test_bad_workload_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.autotune("no-such-workload")
        assert err.value.status == 400

    def test_bad_controller_knob_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.autotune("xsbench", controller={"warp": 9})
        assert err.value.status == 400


class TestTunedRecordIntegrity:
    def test_tampered_report_is_quarantined_and_recomputed(
            self, tmp_path, damage_frame):
        """A record whose tuned_time_ns was edited (CRC resealed, so
        only the SHA-256 notices) is never served."""
        payload = {"workload": "xsbench", "epochs": EPOCHS,
                   "n_accesses": ACCESSES}

        def edit(frame):
            field = b'"tuned_time_ns":'
            at = frame.index(field) + len(field)
            frame[at] = ord("2" if frame[at] != ord("2") else "3")

        async def scenario():
            service = PlacementService(ServeConfig(cache_dir=tmp_path))
            await service.start()
            try:
                first = await service.autotune(payload)
                cache = service.runner.cache
                damage_frame(cache, first["profile_key"], edit,
                             reseal=True)
                second = await service.autotune(payload)
                assert second["cached"] is False
                assert cache.stats.quarantined == 1
                assert second["profile"] == first["profile"]
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestCliAutotune:
    def test_autotune_verb(self, capsys, tmp_path):
        code = cli_main([
            "autotune", "-w", "xsbench", "-t", "chiplet-2",
            "--epochs", "4", "-n", "4000",
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "tuned fractions" in out
        assert "speedup over static" in out
        assert "profile saved" in out
        key = out.split("profile saved: ")[1].split()[0]
        assert ResultCache(tmp_path).get(key, AutotuneReport.from_dict) \
            is not None
        assert not (tmp_path / "autotune").exists()

    def test_cli_report_is_warm_for_the_daemon(self, capsys, tmp_path):
        assert cli_main([
            "autotune", "-w", "xsbench", "-t", "chiplet-2",
            "--epochs", "4", "-n", "4000",
            "--cache-dir", str(tmp_path),
        ]) == 0
        key = capsys.readouterr().out.split("profile saved: ")[1].split()[0]
        config = ServeConfig(port=0, cache_dir=tmp_path)
        with BackgroundServer(config) as background:
            client = ServeClient(background.base_url)
            client.wait_until_ready()
            answer = client.autotune("xsbench", topology="chiplet-2",
                                     epochs=4, n_accesses=4_000)
        assert answer["cached"] is True
        assert answer["profile_key"] == key

    def test_no_save_skips_persistence(self, capsys, tmp_path):
        code = cli_main([
            "autotune", "-w", "phase_shift", "-t", "chiplet-2",
            "--epochs", "4", "-n", "4000",
            "--cache-dir", str(tmp_path), "--no-save",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile saved" not in out
        assert len(ResultCache(tmp_path)) == 0

    def test_unknown_workload_exits(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["autotune", "-w", "definitely-not-a-workload",
                      "--cache-dir", str(tmp_path)])
