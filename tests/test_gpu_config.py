"""GPU configuration (Table 1)."""

import pytest

from repro.core.errors import ConfigError
from repro.core.units import KIB
from repro.gpu.config import GpuConfig, table1_config


class TestTable1Config:
    def test_core_parameters(self):
        config = table1_config()
        assert config.n_sms == 15
        assert config.clock_ghz == pytest.approx(1.4)
        assert config.warp_size == 32

    def test_cache_parameters(self):
        config = table1_config()
        assert config.l1_bytes_per_sm == 16 * KIB
        assert config.l2_bytes_per_channel == 128 * KIB
        assert config.mshrs_per_l2_slice == 128

    def test_l1_total(self):
        assert table1_config().l1_total_bytes == 15 * 16 * KIB

    def test_l2_total_for_baseline_channels(self):
        # 8 GDDR5 + 4 DDR4 channels = 12 memory-side slices.
        assert table1_config().l2_total_bytes(12) == 12 * 128 * KIB

    def test_total_mshrs(self):
        assert table1_config().total_mshrs(12) == 12 * 128

    def test_cycle_conversion(self):
        config = table1_config()
        assert config.cycles_to_ns(140) == pytest.approx(100.0)
        assert config.ns_to_cycles(100.0) == pytest.approx(140.0)


class TestScaling:
    def test_scaled_clock(self):
        config = table1_config().scaled_clock(2.0)
        assert config.clock_ghz == pytest.approx(2.8)

    def test_scaled_clock_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            table1_config().scaled_clock(0)

    def test_scaled_caches_preserve_geometry(self):
        config = table1_config().scaled_caches(1 / 8)
        assert config.l1_bytes_per_sm % (config.line_size * config.l1_assoc) == 0
        assert config.l2_bytes_per_channel % (
            config.line_size * config.l2_assoc
        ) == 0
        assert config.l1_bytes_per_sm == 2 * KIB
        assert config.l2_bytes_per_channel == 16 * KIB

    def test_scaled_caches_floor_at_one_set(self):
        config = table1_config().scaled_caches(1e-9)
        assert config.l1_bytes_per_sm == config.line_size * config.l1_assoc

    def test_identity_scale(self):
        config = table1_config().scaled_caches(1.0)
        assert config.l1_bytes_per_sm == 16 * KIB


class TestValidation:
    def test_zero_sms_rejected(self):
        with pytest.raises(ConfigError):
            GpuConfig(n_sms=0)

    def test_bad_l1_geometry_rejected(self):
        with pytest.raises(ConfigError):
            GpuConfig(l1_bytes_per_sm=100)
        with pytest.raises(ConfigError):
            GpuConfig(l1_bytes_per_sm=1000, l1_assoc=3)
        with pytest.raises(ConfigError):
            GpuConfig(l1_bytes_per_sm=0)

    def test_bad_channel_count_rejected(self):
        with pytest.raises(ConfigError):
            table1_config().total_mshrs(0)
        with pytest.raises(ConfigError):
            table1_config().l2_total_bytes(-1)
