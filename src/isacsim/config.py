"""System configuration, units, and deterministic random streams.

All quantities are stored in SI base units: Hz, s, W, m, and linear
(dimensionless) antenna gains and path losses.  dB-valued inputs are
converted at the file boundary by :func:`load_config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .validation import check_count, check_positive, check_seed

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
        Per-sample receiver noise power in W: circularly symmetric complex
        noise with ``noise_power / 2`` in each part.  Zero is allowed and
        yields a noiseless simulation; the accuracy-rate tradeoff rejects
        it, since every user rate would be unbounded.
    sensing_antenna_gain : float
        Linear antenna gain applied to the sensing link.
    comm_antenna_gain : float
        Linear antenna gain of the communication link; it scales every
        user's SNR ``g_k * comm_antenna_gain * tx_power / noise_power``.
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
        Base seed for all random streams derived from this configuration,
        an integer in [0, 2**64).
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
        # A tuple keeps the config hashable (dsp.synthesize_chirp caches on it).
        object.__setattr__(self, "user_pathloss", tuple(self.user_pathloss))
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
        check_seed("seed", self.seed)
        for name in ("num_targets", "num_users"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))
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


def _from_db(text: str) -> float:
    return 10.0 ** (float(text) / 10.0)


# The file format, one row per key: key -> (SystemConfig field, required,
# parser from file units).  Optional keys absent from a file keep the
# SystemConfig defaults.  noise_power_w and noise_power_dbm set the same
# field; load_config requires exactly one of them.
_FILE_FORMAT = {
    "carrier_freq_hz": ("carrier_freq", True, float),
    "bandwidth_hz": ("bandwidth", True, float),
    "sample_rate_hz": ("sample_rate", True, float),
    "sweep_time_s": ("sweep_time", True, float),
    "slot_time_s": ("slot_time", True, float),
    "pri_s": ("pri", False, float),
    "tx_power_w": ("tx_power", True, float),
    "noise_power_w": ("noise_power", False, float),
    "noise_power_dbm": ("noise_power", False, lambda t: _from_db(t) * 1e-3),
    "sensing_gain_db": ("sensing_antenna_gain", False, _from_db),
    "comm_gain_db": ("comm_antenna_gain", False, _from_db),
    "total_time_s": ("total_time", True, float),
    "num_targets": ("num_targets", False, int),
    "num_users": ("num_users", True, int),
    "user_pathloss_db": (
        "user_pathloss",
        True,
        lambda t: tuple(_from_db(tok) for tok in t.split(",")),
    ),
    "seed": ("seed", False, int),
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
    for key, (_, required, _) in _FILE_FORMAT.items():
        if required and key not in raw:
            raise ConfigError(f"{key}: missing required key")
    if "noise_power_w" in raw and "noise_power_dbm" in raw:
        raise ConfigError("noise_power_w: conflicts with noise_power_dbm; give one")
    if "noise_power_w" not in raw and "noise_power_dbm" not in raw:
        raise ConfigError("noise_power_w: missing (or provide noise_power_dbm)")

    values = {}
    for key, (name, _, parse) in _FILE_FORMAT.items():
        if key in raw:
            try:
                values[name] = parse(raw[key])
            except ValueError:
                raise ConfigError(f"{key}: unparsable value {raw[key]!r}") from None
    return SystemConfig(**values)


class RngStream:
    """Deterministic, label-addressable random stream.

    The same ``(seed, stream_id)`` pair and draw sequence produce identical
    samples on every run.  The seed is an integer in [0, 2**64); any other
    raises ValueError instead of aliasing one in range.  Streams are
    single-owner: parallel work must derive independent child streams via
    :meth:`spawn` instead of sharing one stream across workers.
    """

    def __init__(self, seed: int, stream_id: str = "root"):
        self.seed = seed = check_seed("seed", seed)
        self.stream_id = str(stream_id)
        # The uint32 words numpy makes of the list [seed, *id bytes]: the
        # seed's 32-bit words, low word first, then one word per UTF-8 byte.
        # An array skips that coercion, which costs several times the rest.
        words = (seed & 0xFFFFFFFF, seed >> 32) if seed >> 32 else (seed,)
        entropy = np.array([*words, *self.stream_id.encode("utf-8")], dtype=np.uint32)
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

    def normal(self, size=None, out=None):
        """Standard normals; with ``out``, fill that float64 array in place.

        Draws come off one sequential stream, so filling a buffer in
        consecutive blocks gives the values of one draw of the whole.
        """
        return self._rng.standard_normal(size, out=out)

    def rayleigh(self, scale: float = 1.0, size=None):
        return self._rng.rayleigh(scale, size)

    def integers(self, low: int, high: int):
        return self._rng.integers(low, high)

    def poisson_arrivals(self, rate: float, shape):
        """Arrival times of Poisson processes, one per row of ``shape``.

        Each row holds the first ``shape[-1]`` arrivals of its own process;
        the rows take consecutive draws, so one call equals one call per row.
        """
        check_positive("rate", rate)
        return np.cumsum(self._rng.exponential(1.0 / rate, shape), axis=-1)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"


def sample_user_gains(cfg: SystemConfig, rng: RngStream) -> np.ndarray:
    """Draw per-user channel power gains.

    User ``k``'s complex amplitude is circularly symmetric normal with
    variance ``user_pathloss[k]``; the returned gain is its squared
    magnitude, hence exponentially distributed with mean
    ``user_pathloss[k]``.
    """
    rho = np.asarray(cfg.user_pathloss, dtype=float)
    h = np.sqrt(rho / 2.0) * (rng.normal(cfg.num_users) + 1j * rng.normal(cfg.num_users))
    return np.abs(h) ** 2
