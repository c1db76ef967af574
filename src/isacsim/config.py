"""System configuration, units, and deterministic random streams.

All quantities are stored in SI base units: Hz, s, W, m, and linear
(dimensionless) antenna gains and path losses.  dB-valued inputs are
converted at the file boundary by :func:`load_config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .validation import check_positive

SPEED_OF_LIGHT = 3.0e8  # m/s, propagation constant used throughout


class ConfigError(ValueError):
    """Raised for unreadable, incomplete, or inconsistent configurations."""


@dataclass(frozen=True)
class SystemConfig:
    """Radio, sampling, and time-budget parameters of the sensing link.

    Attributes
    ----------
    carrier_freq : float
        Carrier frequency in Hz.
    bandwidth : float
        Chirp sweep bandwidth in Hz (also the bandwidth available to the
        communication users).
    sample_rate : float
        Fast-time sampling rate in Hz.
    sweep_time : float
        Chirp duration in s; the remainder of a slot is guard time with no
        transmitted signal.
    slot_time : float
        Slot duration in s charged against the time budget for every
        sensing cycle.
    pri : float
        Pulse repetition interval in s: the slow-time spacing between the
        starts of consecutive sensing cycles.  ``sweep_time <= slot_time
        <= pri`` must hold.
    tx_power : float
        Transmit power in W; the chirp has constant squared envelope equal
        to this value.
    noise_power : float
        Per-sample receiver noise power in W.  Zero is allowed and yields
        a noiseless simulation.
    sensing_antenna_gain : float
        Linear antenna gain applied to the sensing link.
    comm_antenna_gain : float
        Linear antenna gain of the communication link (informational; the
        user rate model works directly off the per-user channel gains).
    total_time : float
        Total shared time budget in s split between sensing cycles and
        per-user communication time.
    num_targets : int
        Number of sensed targets, each charged ``slot_time`` per cycle.
    num_users : int
        Number of communication users.
    user_pathloss : tuple of float
        Per-user mean channel power (linear), one entry per user; the
        per-user gains are drawn from it by :func:`sample_user_gains`.
    seed : int
        Base seed for all random streams derived from this configuration.
    """

    carrier_freq: float
    bandwidth: float
    sample_rate: float
    sweep_time: float
    slot_time: float
    pri: float = 1.0e-3
    tx_power: float = 1.0
    noise_power: float = 1.0e-13
    sensing_antenna_gain: float = 10.0 ** 2.5
    comm_antenna_gain: float = 1.0
    total_time: float = 1.0
    num_targets: int = 1
    num_users: int = 1
    user_pathloss: tuple[float, ...] = (1.0e-5,)
    seed: int = 0

    def __post_init__(self):
        try:
            self._validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _validate(self) -> None:
        check_positive("carrier_freq", self.carrier_freq)
        check_positive("bandwidth", self.bandwidth)
        check_positive("sample_rate", self.sample_rate)
        check_positive("sweep_time", self.sweep_time)
        check_positive("slot_time", self.slot_time)
        check_positive("pri", self.pri)
        check_positive("tx_power", self.tx_power)
        check_positive("noise_power", self.noise_power, strict=False)
        check_positive("sensing_antenna_gain", self.sensing_antenna_gain)
        check_positive("comm_antenna_gain", self.comm_antenna_gain)
        check_positive("total_time", self.total_time)
        if self.num_targets < 1:
            raise ValueError(f"num_targets: must be >= 1, got {self.num_targets}")
        if self.num_users < 1:
            raise ValueError(f"num_users: must be >= 1, got {self.num_users}")
        if self.sweep_time > self.slot_time:
            raise ValueError(
                f"sweep_time: chirp ({self.sweep_time!r} s) does not fit in the "
                f"slot_time ({self.slot_time!r} s)"
            )
        if self.slot_time > self.pri:
            raise ValueError(
                f"slot_time: slot ({self.slot_time!r} s) exceeds the pri "
                f"({self.pri!r} s)"
            )
        # The fast-time sampling grid must close: slot_time * sample_rate has
        # to be (numerically) an integer number of samples.
        n_float = self.slot_time * self.sample_rate
        n = round(n_float)
        if n < 1:
            raise ValueError(
                f"slot_time: slot_time*sample_rate = {n_float!r} yields no samples"
            )
        if abs(n_float - n) >= 1e-9 * n:
            raise ValueError(
                f"slot_time: slot_time*sample_rate = {n_float!r} is not an "
                "integer sample count"
            )
        if len(self.user_pathloss) != self.num_users:
            raise ValueError(
                f"user_pathloss: expected {self.num_users} entries, "
                f"got {len(self.user_pathloss)}"
            )
        for k, rho in enumerate(self.user_pathloss):
            if not (rho > 0 and np.isfinite(rho)):
                raise ValueError(f"user_pathloss: entry {k} must be positive, got {rho!r}")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in m."""
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def fast_time_len(self) -> int:
        """Number of fast-time samples per slot."""
        return round(self.slot_time * self.sample_rate)

    @property
    def sweep_len(self) -> int:
        """Number of fast-time samples in the chirp."""
        return round(self.sweep_time * self.sample_rate)

    def replace(self, **changes) -> "SystemConfig":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


def _from_db(text: str) -> float:
    return 10.0 ** (float(text) / 10.0)


def _to_db(value: float) -> str:
    return repr(float(10.0 * np.log10(value)))


# The file format, one row per key: key -> (SystemConfig field, required,
# parser from file units, formatter back to them).  A key without a
# formatter is read but never written.  Optional keys absent from a file
# keep the SystemConfig defaults.  noise_power_w and noise_power_dbm set
# the same field; load_config requires exactly one of them.
_FILE_FORMAT = {
    "carrier_freq_hz": ("carrier_freq", True, float, repr),
    "bandwidth_hz": ("bandwidth", True, float, repr),
    "sample_rate_hz": ("sample_rate", True, float, repr),
    "sweep_time_s": ("sweep_time", True, float, repr),
    "slot_time_s": ("slot_time", True, float, repr),
    "pri_s": ("pri", False, float, repr),
    "tx_power_w": ("tx_power", True, float, repr),
    "noise_power_w": ("noise_power", False, float, repr),
    "noise_power_dbm": ("noise_power", False, lambda t: _from_db(t) * 1e-3, None),
    "sensing_gain_db": ("sensing_antenna_gain", False, _from_db, _to_db),
    "comm_gain_db": ("comm_antenna_gain", False, _from_db, _to_db),
    "total_time_s": ("total_time", True, float, repr),
    "num_targets": ("num_targets", False, int, str),
    "num_users": ("num_users", True, int, str),
    "user_pathloss_db": (
        "user_pathloss",
        True,
        lambda t: tuple(_from_db(tok) for tok in t.split(",")),
        lambda v: ",".join(_to_db(p) for p in v),
    ),
    "seed": ("seed", False, int, str),
}


def _parse_kv_file(path: Path) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FILE_FORMAT:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config(path) -> SystemConfig:
    """Load and validate a ``key = value`` configuration file.

    The file is UTF-8 text with one assignment per line and ``#`` comments.
    Either ``noise_power_w`` or ``noise_power_dbm`` must be present (not
    both); gains given in dB are converted to linear units.  Errors name
    the offending key.
    """
    path = Path(path)
    raw = _parse_kv_file(path)
    for key, (_, required, _, _) in _FILE_FORMAT.items():
        if required and key not in raw:
            raise ConfigError(f"{key}: missing required key")
    if "noise_power_w" in raw and "noise_power_dbm" in raw:
        raise ConfigError("noise_power_w: conflicts with noise_power_dbm; give one")
    if "noise_power_w" not in raw and "noise_power_dbm" not in raw:
        raise ConfigError("noise_power_w: missing (or provide noise_power_dbm)")

    values = {}
    for key, (name, _, parse, _) in _FILE_FORMAT.items():
        if key in raw:
            try:
                values[name] = parse(raw[key])
            except ValueError:
                raise ConfigError(f"{key}: unparsable value {raw[key]!r}") from None
    return SystemConfig(**values)


def save_config(cfg: SystemConfig, path) -> None:
    """Write ``cfg`` in the canonical file format (linear watts, dB gains).

    ``load_config(save_config(cfg))`` restores every field, the linear
    gains and path losses up to the rounding of the dB conversion.
    """
    lines = [
        f"{key} = {fmt(getattr(cfg, name))}"
        for key, (name, _, _, fmt) in _FILE_FORMAT.items()
        if fmt is not None
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class RngStream:
    """Deterministic, label-addressable random stream.

    The same ``(seed, stream_id)`` pair and draw sequence produce identical
    samples on every run.  Streams are single-owner: parallel work must
    derive independent child streams via :meth:`spawn` instead of sharing
    one stream across workers.
    """

    def __init__(self, seed: int, stream_id: str = "root"):
        self.seed = int(seed)
        self.stream_id = str(stream_id)
        entropy = [self.seed & 0xFFFFFFFFFFFFFFFF]
        entropy.extend(self.stream_id.encode("utf-8"))
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy))

    def spawn(self, label: str) -> "RngStream":
        """Derive an independent stream addressed by ``label``.

        Spawning is a pure function of (seed, stream_id, label) and does
        not consume draws from this stream.  ``label`` may not contain
        ``/``, the separator of stream ids: ``spawn("a/b")`` would alias
        ``spawn("a").spawn("b")``.
        """
        if "/" in label:
            raise ValueError(f"label: must not contain '/', got {label!r}")
        return RngStream(self.seed, f"{self.stream_id}/{label}")

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._rng.uniform(low, high, size)

    def normal(self, size=None):
        return self._rng.standard_normal(size)

    def standard_complex_normal(self, size):
        """Circularly symmetric complex normal with E|z|^2 = 1.

        The real parts are drawn before the imaginary parts.  Both are
        written into one complex array and scaled in place, so a large
        draw holds one complex and one real array at a time rather than
        two of each.
        """
        z = np.empty(size, dtype=complex)
        z.real = self._rng.standard_normal(size)
        z.imag = self._rng.standard_normal(size)
        z /= np.sqrt(2.0)
        return z

    def rayleigh(self, scale: float = 1.0, size=None):
        return self._rng.rayleigh(scale, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._rng.integers(low, high, size)

    def poisson_arrivals(self, rate: float, max_count: int):
        """The first ``max_count`` arrival times of a Poisson process."""
        check_positive("rate", rate)
        return np.cumsum(self._rng.exponential(1.0 / rate, max_count))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"


def sample_user_gains(cfg: SystemConfig, rng: RngStream) -> np.ndarray:
    """Draw per-user channel power gains.

    User ``k``'s complex amplitude is circularly symmetric normal with
    variance ``user_pathloss[k]``; the returned gain is its squared
    magnitude, hence exponentially distributed with mean
    ``user_pathloss[k]``.
    """
    if cfg.num_users < 1:
        raise ValueError("num_users: need at least one user to sample gains")
    rho = np.asarray(cfg.user_pathloss, dtype=float)
    h = np.sqrt(rho / 2.0) * (rng.normal(cfg.num_users) + 1j * rng.normal(cfg.num_users))
    return np.abs(h) ** 2
