import numpy as np
import pytest

from isacsim import (
    ConfigError,
    RngStream,
    SPEED_OF_LIGHT,
    SystemConfig,
    load_config,
    sample_user_gains,
    save_config,
)
from isacsim.config import _FILE_FORMAT

REFERENCE_CFG = """\
# sub-6 GHz sensing link
carrier_freq_hz = 3.5e9
bandwidth_hz = 1.0e7
sample_rate_hz = 1.0e7
sweep_time_s = 1.0e-5
slot_time_s = 5.0e-5
pri_s = 1.0e-3
tx_power_w = 1.0
noise_power_dbm = -100
sensing_gain_db = 25
comm_gain_db = 0
total_time_s = 3.0
num_targets = 1
num_users = 5
user_pathloss_db = -50,-50,-50,-50,-50
seed = 7
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "link.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def drop_keys(text, *keys):
    return "".join(
        line + "\n" for line in text.splitlines() if line.split("=")[0].strip() not in keys
    )


REQUIRED_KEYS = [key for key, (_, required, _, _) in _FILE_FORMAT.items() if required]
OPTIONAL_KEYS = [key for key, (_, required, _, _) in _FILE_FORMAT.items() if not required]


class TestLoadConfig:
    def test_reference_values(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, REFERENCE_CFG))
        assert cfg.carrier_freq == 3.5e9
        assert cfg.bandwidth == 1e7
        assert cfg.sample_rate == 1e7
        assert cfg.sweep_time == 1e-5
        assert cfg.tx_power == 1.0
        assert cfg.noise_power == pytest.approx(1e-13)
        assert cfg.sensing_antenna_gain == pytest.approx(10**2.5)
        assert cfg.comm_antenna_gain == pytest.approx(1.0)
        assert cfg.user_pathloss == pytest.approx((1e-5,) * 5)
        assert cfg.wavelength == pytest.approx(SPEED_OF_LIGHT / 3.5e9)
        assert cfg.fast_time_len == 500

    def test_sample_count_example(self, tmp_path):
        text = REFERENCE_CFG.replace("slot_time_s = 5.0e-5", "slot_time_s = 1.0e-6")
        text = text.replace("sample_rate_hz = 1.0e7", "sample_rate_hz = 1.0e8")
        text = text.replace("sweep_time_s = 1.0e-5", "sweep_time_s = 1.0e-6")
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.fast_time_len == 100

    def test_sweep_longer_than_slot_names_key(self, tmp_path):
        text = REFERENCE_CFG.replace("sweep_time_s = 1.0e-5", "sweep_time_s = 9.0e-5")
        with pytest.raises(ConfigError, match="sweep_time"):
            load_config(write_cfg(tmp_path, text))

    def test_missing_key_named(self, tmp_path):
        text = REFERENCE_CFG.replace("bandwidth_hz = 1.0e7\n", "")
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            load_config(write_cfg(tmp_path, text))

    def test_unparsable_value_named(self, tmp_path):
        text = REFERENCE_CFG.replace("tx_power_w = 1.0", "tx_power_w = one")
        with pytest.raises(ConfigError, match="tx_power_w"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_each_missing_required_key_named(self, tmp_path, key):
        text = drop_keys(REFERENCE_CFG, key)
        with pytest.raises(ConfigError, match=f"^{key}: missing required key$"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("key", list(_FILE_FORMAT))
    def test_each_unparsable_value_named(self, tmp_path, key):
        # Drop every key of the same field: both noise keys set noise_power.
        field = _FILE_FORMAT[key][0]
        same_field = [k for k, row in _FILE_FORMAT.items() if row[0] == field]
        text = drop_keys(REFERENCE_CFG, *same_field) + f"{key} = one\n"
        with pytest.raises(ConfigError, match=f"^{key}: unparsable value 'one'$"):
            load_config(write_cfg(tmp_path, text))

    def test_every_optional_key_round_trips(self, tmp_path):
        # noise_power_dbm is not written back: save_config gives watts.
        values = {"pri_s": "2.0e-3", "noise_power_w": "1.0e-12",
                  "sensing_gain_db": "20", "comm_gain_db": "3",
                  "num_targets": "2", "seed": "99"}
        assert set(values) == set(OPTIONAL_KEYS) - {"noise_power_dbm"}
        text = drop_keys(REFERENCE_CFG, "noise_power_dbm", *values) + "".join(
            f"{key} = {value}\n" for key, value in values.items()
        )
        cfg = load_config(write_cfg(tmp_path, text))
        default = SystemConfig(carrier_freq=3.5e9, bandwidth=1e7, sample_rate=1e7,
                               sweep_time=1e-5, slot_time=5e-5)
        for key in values:
            field = _FILE_FORMAT[key][0]
            assert getattr(cfg, field) != getattr(default, field), key
        out = tmp_path / "saved.cfg"
        save_config(cfg, out)
        assert load_config(out) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_cfg(tmp_path, REFERENCE_CFG + "bogus = 1\n"))

    def test_noise_variants_conflict(self, tmp_path):
        text = REFERENCE_CFG + "noise_power_w = 1e-13\n"
        with pytest.raises(ConfigError, match="noise_power"):
            load_config(write_cfg(tmp_path, text))

    def test_pathloss_count_mismatch(self, tmp_path):
        text = REFERENCE_CFG.replace("user_pathloss_db = -50,-50,-50,-50,-50",
                                       "user_pathloss_db = -50,-50")
        with pytest.raises(ConfigError, match="user_pathloss"):
            load_config(write_cfg(tmp_path, text))

    def test_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, REFERENCE_CFG))
        out = tmp_path / "saved.cfg"
        save_config(cfg, out)
        again = load_config(out)
        assert again == cfg

    def test_sampling_grid_must_close(self, tmp_path):
        text = REFERENCE_CFG.replace("slot_time_s = 5.0e-5", "slot_time_s = 5.05e-5")
        text = text.replace("sample_rate_hz = 1.0e7", "sample_rate_hz = 1.0e4")
        with pytest.raises(ConfigError, match="slot_time"):
            load_config(write_cfg(tmp_path, text))


class TestSystemConfigValidation:
    def test_slot_exceeding_pri(self):
        with pytest.raises(ConfigError, match="slot_time"):
            SystemConfig(
                carrier_freq=3.5e9, bandwidth=1e7, sample_rate=1e7,
                sweep_time=1e-5, slot_time=2e-3, pri=1e-3,
            )

    def test_negative_power(self):
        with pytest.raises(ConfigError, match="tx_power"):
            SystemConfig(
                carrier_freq=3.5e9, bandwidth=1e7, sample_rate=1e7,
                sweep_time=1e-5, slot_time=5e-5, tx_power=-1.0,
            )

    def test_zero_noise_allowed(self):
        cfg = SystemConfig(
            carrier_freq=3.5e9, bandwidth=1e7, sample_rate=1e7,
            sweep_time=1e-5, slot_time=5e-5, noise_power=0.0,
        )
        assert cfg.noise_power == 0.0


class TestRngStream:
    def test_determinism(self):
        a = RngStream(99, "clutter").uniform(size=32)
        b = RngStream(99, "clutter").uniform(size=32)
        assert np.array_equal(a, b)

    def test_stream_separation(self):
        a = RngStream(99, "clutter").uniform(size=32)
        b = RngStream(99, "noise").uniform(size=32)
        assert not np.array_equal(a, b)

    def test_spawn_reproducible_and_independent(self):
        root = RngStream(5, "root")
        child1 = root.spawn("a").normal(16)
        child2 = RngStream(5, "root").spawn("a").normal(16)
        assert np.array_equal(child1, child2)
        assert not np.array_equal(child1, RngStream(5, "root").spawn("b").normal(16))

    def test_spawn_rejects_separator_in_label(self):
        with pytest.raises(ValueError, match="label"):
            RngStream(5, "root").spawn("class0/sample1")

    def test_two_step_spawn_keeps_slash_stream(self):
        # generate_dataset spawns class then sample; the stream equals the
        # one a single "class0/sample1" label used to address.
        two_step = RngStream(5, "root").spawn("class0").spawn("sample1")
        assert two_step.stream_id == "root/class0/sample1"
        assert np.array_equal(
            two_step.normal(16), RngStream(5, "root/class0/sample1").normal(16)
        )

    def test_complex_normal_unit_power(self):
        z = RngStream(0, "z").standard_complex_normal(200_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_poisson_arrivals_rate(self):
        times = RngStream(3, "arr").poisson_arrivals(2.0e8, 100_000)
        gaps = np.diff(times)
        assert np.mean(gaps) == pytest.approx(5e-9, rel=0.02)
        assert np.all(np.diff(times) > 0)


class TestUserGains:
    def test_zero_variance_edge(self, base_cfg):
        # Pathloss must be positive by config contract; verify the
        # limiting behaviour on a tiny variance instead.
        cfg = base_cfg.replace(user_pathloss=(1e-30,) * 5)
        g = sample_user_gains(cfg, RngStream(0, "g"))
        assert np.all(g < 1e-27)

    def test_mean_matches_pathloss(self, base_cfg):
        # One million draws via a single wide config.
        cfg_wide = base_cfg.replace(
            num_users=1_000_000, user_pathloss=(1e-5,) * 1_000_000
        )
        g = sample_user_gains(cfg_wide, RngStream(11, "gains"))
        assert np.mean(g) == pytest.approx(1e-5, rel=0.01)

    def test_exponential_distribution_ks(self, base_cfg):
        cfg_wide = base_cfg.replace(
            num_users=1_000_000, user_pathloss=(1e-5,) * 1_000_000
        )
        g = np.sort(sample_user_gains(cfg_wide, RngStream(12, "gains")))
        emp = (np.arange(g.size) + 0.5) / g.size
        theory = 1.0 - np.exp(-g / 1e-5)
        assert np.max(np.abs(emp - theory)) < 0.01

    def test_seeded_repeatability(self, base_cfg):
        g1 = sample_user_gains(base_cfg, RngStream(42, "gains"))
        g2 = sample_user_gains(base_cfg, RngStream(42, "gains"))
        assert np.array_equal(g1, g2)
