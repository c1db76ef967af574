"""Accuracy-rate tradeoff: rates, optimal time split, boundary, zones.

Under the shared budget ``N * T0 * C + sum_k t_k = T`` the worst-user
rate is maximized by the equal-rate allocation

    t_k* = (T - N T0 C) / (w_k * sum_j 1/w_j),   w_k = B log2(1 + g_k P / s2)

giving the closed-form boundary

    R*(C) = (T - N T0 C) / (T * sum_j 1/w_j),    A(C) = curve(C).

Sweeping integer C traces the Pareto boundary of the accuracy-rate
region: R* falls strictly with C, so it keeps each C whose accuracy beats
every smaller C.  Its normalized slope splits it into a communication-
saturation zone, an adversarial zone, and a sensing-saturation zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SystemConfig
from .curvefit import CurveFit, eval_curve, invert_curve
from .manifest import write_csv
from .validation import as_float_array

DEFAULT_SLOPE_HI = 5.0  # |normalized slope| above this: sensing saturation
DEFAULT_SLOPE_LO = 0.2  # |normalized slope| below this: comm saturation
IDENTITY_RTOL = 1e-9  # budget-identity tolerance of each boundary point, relative to T
DEFAULT_NUM_POINTS = 200  # cycle counts swept by region_boundary

ZONE_COMM = "comm_saturation"
ZONE_ADVERSARIAL = "adversarial"
ZONE_SENSING = "sensing_saturation"


class InfeasibleError(ValueError):
    """Raised when the requested operating point cannot be scheduled."""


def user_rate(t_k: float, gain: float, cfg: SystemConfig) -> float:
    """Rate of one user given its communication time share (bit/s)."""
    if t_k < 0:
        raise ValueError(f"t_k must be >= 0, got {t_k!r}")
    if gain < 0:
        raise ValueError(f"gain must be >= 0, got {gain!r}")
    snr = gain * cfg.tx_power / cfg.noise_power
    return t_k / cfg.total_time * cfg.bandwidth * math.log2(1.0 + snr)


def min_rate(times, gains, cfg: SystemConfig) -> float:
    """Worst-user rate of an allocation (bit/s)."""
    times = as_float_array(times, "times", ndim=1)
    gains = as_float_array(gains, "gains", ndim=1)
    if times.size != gains.size:
        raise ValueError(f"times and gains differ in length: {times.size} vs {gains.size}")
    return min(user_rate(t, g, cfg) for t, g in zip(times, gains))


@dataclass
class AllocationResult:
    """Optimal communication time split for a fixed cycle count.

    ``multipliers`` are the reconstructed stationarity multipliers (one
    per user, summing to one) and ``budget_multiplier`` the one attached
    to the time-budget constraint; both diagnostic.
    """

    times: np.ndarray  # t_k, s
    cycles: int
    rate: float  # R*, bit/s
    multipliers: np.ndarray
    budget_multiplier: float


def _rate_weights(gains: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    snr = gains * cfg.tx_power / cfg.noise_power
    return cfg.bandwidth * np.log2(1.0 + snr)


def optimal_allocation(cycles: int, gains, cfg: SystemConfig) -> AllocationResult:
    """Max-min optimal time allocation for a fixed cycle count.

    All users end up with identical rates; the allocation exhausts the
    budget exactly.  Raises :class:`InfeasibleError` when the sensing
    time alone exceeds the budget, and :class:`ValueError` when a zero
    user gain pins the min-rate to zero.
    """
    gains = as_float_array(gains, "gains", ndim=1)
    if gains.size != cfg.num_users:
        raise ValueError(f"gains: expected {cfg.num_users} entries, got {gains.size}")
    if np.any(gains <= 0):
        raise ValueError(
            "gains: zero (or negative) user gain pins the min-rate to zero; "
            f"offending users {np.nonzero(gains <= 0)[0].tolist()}"
        )
    sensing = cfg.num_targets * cfg.slot_time * cycles
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    if sensing > cfg.total_time * (1 + 1e-12):
        raise InfeasibleError(
            f"sensing budget N*T0*C = {sensing!r} s exceeds the total time "
            f"{cfg.total_time!r} s"
        )
    remaining = max(cfg.total_time - sensing, 0.0)
    w = _rate_weights(gains, cfg)
    inv_sum = float(np.sum(1.0 / w))
    times = remaining / (w * inv_sum)
    rate = remaining / (cfg.total_time * inv_sum)
    multipliers = 1.0 / (w * inv_sum)
    budget_multiplier = -1.0 / (cfg.total_time * inv_sum)
    return AllocationResult(
        times=times,
        cycles=cycles,
        rate=rate,
        multipliers=multipliers,
        budget_multiplier=budget_multiplier,
    )


@dataclass
class BoundaryPoint:
    cycles: int
    accuracy: float
    rate: float
    zone: str = ""


@dataclass
class RegionBoundary:
    """Pareto boundary of the accuracy-rate region, ascending in accuracy."""

    points: list[BoundaryPoint]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def accuracies(self) -> np.ndarray:
        return np.asarray([p.accuracy for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.asarray([p.rate for p in self.points])

    def to_csv(self, path):
        """CSV ``C,A,R_bps,zone``; returns the path."""
        rows = ((p.cycles, p.accuracy, p.rate, p.zone) for p in self.points)
        return write_csv(path, ("C", "A", "R_bps", "zone"), rows)


def _min_feasible_cycles(fit: CurveFit) -> int:
    """Smallest integer cycle count with a defined, non-negative accuracy."""
    c_lo = max(int(math.floor(fit.domain[0])) + 1, 1)
    if not fit.increasing or eval_curve(fit, float(c_lo)) >= 0.0:
        return c_lo
    # Accuracy is a probability: advance to the first C with curve(C) >= 0.
    try:
        c = math.ceil(invert_curve(fit, 0.0))
        return c + 1 if eval_curve(fit, float(c)) < 0.0 else c
    except ValueError:
        raise InfeasibleError("the fitted curve never reaches a valid accuracy") from None


def region_boundary(
    fit: CurveFit,
    gains,
    cfg: SystemConfig,
    num_points: int = DEFAULT_NUM_POINTS,
) -> RegionBoundary:
    """Sweep integer cycle counts and collect Pareto boundary points.

    Every swept C is checked against the budget identity
    ``N T0 C + (sum_k T/w_k) R = T`` within ``IDENTITY_RTOL * T``.  R falls
    strictly with C, so a C is kept only when its accuracy exceeds every
    kept one; the others are Pareto-dominated (no more accuracy, less rate).
    """
    if num_points < 2:
        raise ValueError(f"num_points must be >= 2, got {num_points}")
    gains = as_float_array(gains, "gains", ndim=1)
    c_min = _min_feasible_cycles(fit)
    c_max = int(math.floor(cfg.total_time / (cfg.num_targets * cfg.slot_time)))
    if math.isfinite(fit.domain[1]):  # the largest integer strictly inside the domain
        c_max = min(c_max, math.ceil(fit.domain[1]) - 1)
    if c_max < c_min:
        raise InfeasibleError(
            f"no feasible cycle count: need C in [{c_min}, {c_max}]"
        )
    cs = np.unique(np.linspace(c_min, c_max, num_points).round().astype(int))
    span = abs(eval_curve(fit, float(c_max)) - eval_curve(fit, float(c_min)))
    if span < 1e-9:
        raise InfeasibleError(
            f"the fitted curve is constant over the feasible cycle range "
            f"[{c_min}, {c_max}]; no accuracy-rate tradeoff to trace"
        )

    time_over_rate = float(np.sum(cfg.total_time / _rate_weights(gains, cfg)))
    points = []
    for c in cs.tolist():
        rate = optimal_allocation(c, gains, cfg).rate
        lhs = cfg.num_targets * cfg.slot_time * c + time_over_rate * rate
        if abs(lhs - cfg.total_time) > IDENTITY_RTOL * cfg.total_time:
            raise AssertionError(
                f"budget identity violated at C={c}: {lhs!r} != {cfg.total_time!r}"
            )
        acc = eval_curve(fit, float(c))
        if not points or acc > points[-1].accuracy:
            points.append(BoundaryPoint(cycles=c, accuracy=acc, rate=rate))
    return RegionBoundary(points=points)


def classify_zones(
    boundary: RegionBoundary,
    slope_hi: float = DEFAULT_SLOPE_HI,
    slope_lo: float = DEFAULT_SLOPE_LO,
) -> RegionBoundary:
    """Label boundary points by the normalized rate-accuracy slope.

    The slope dR/dA (central differences, one-sided at the ends) is
    normalized by R_max / A_range.  A prefix of points with |slope| below
    ``slope_lo`` forms the communication-saturation zone; a suffix with
    |slope| above ``slope_hi`` the sensing-saturation zone; everything
    between is the adversarial zone where the two functions genuinely
    compete.  The labels always form at most three contiguous bands.
    """
    if len(boundary) < 3:
        raise InfeasibleError(
            f"need at least 3 boundary points, got {len(boundary)}: accuracy "
            "stops rising with C (the fitted curve saturates or decreases)"
        )
    if slope_lo > slope_hi:
        raise ValueError("slope_lo must not exceed slope_hi")
    a = boundary.accuracies
    r = boundary.rates
    slopes = np.gradient(r, a)
    r_max = float(np.max(np.abs(r)))
    a_range = float(a[-1] - a[0])
    if r_max == 0.0 or a_range == 0.0:
        raise ValueError("degenerate boundary: zero rate range or accuracy range")
    norm = np.abs(slopes) / (r_max / a_range)

    n = len(boundary)
    comm_end = 0
    while comm_end < n and norm[comm_end] < slope_lo:
        comm_end += 1
    sens_start = n
    while sens_start > comm_end and norm[sens_start - 1] > slope_hi:
        sens_start -= 1
    for i, p in enumerate(boundary.points):
        if i < comm_end:
            p.zone = ZONE_COMM
        elif i >= sens_start:
            p.zone = ZONE_SENSING
        else:
            p.zone = ZONE_ADVERSARIAL
    return boundary


def zone_bands(boundary: RegionBoundary) -> list[tuple[str, int, int]]:
    """Contiguous (zone, first_index, last_index) bands along the boundary."""
    bands = []
    for i, p in enumerate(boundary.points):
        if bands and bands[-1][0] == p.zone:
            bands[-1] = (p.zone, bands[-1][1], i)
        else:
            bands.append((p.zone, i, i))
    return bands


def gains_from_csv(path) -> np.ndarray:
    """Read per-user linear gains: one value per line, optional header."""
    values = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tok = line.split("#", 1)[0].strip()
        if not tok or tok.lower() in ("gain", "g", "gains"):
            continue
        values.append(float(tok))
    if not values:
        raise ValueError(f"{path}: no gains found")
    return np.asarray(values)
