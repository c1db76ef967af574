"""Accuracy-rate tradeoff: rates, optimal time split, boundary, zones.

Under the shared budget ``N * T0 * C + sum_k t_k = T`` the worst-user
rate is maximized by the equal-rate allocation

    t_k* = T R*(C) / w_k,   w_k = B log2(1 + g_k G_c P / s2)

with the one closed-form rate, for a single C or an array of C,

    R*(C) = (T - N T0 C) / (T * sum_j 1/w_j),    A(C) = curve(C).

Sweeping integer C traces the Pareto boundary of the accuracy-rate
region as columns: R* falls strictly with C, so it keeps each C whose
accuracy beats every smaller C.  Its normalized slope splits it into a
communication-saturation zone, an adversarial zone, and a
sensing-saturation zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .curvefit import CurveFit, eval_curve, invert_curve
from .manifest import read_floats, write_csv
from .validation import as_float_array, check_count, check_positive

DEFAULT_SLOPE_HI = 5.0  # |normalized slope| above this: sensing saturation
DEFAULT_SLOPE_LO = 0.2  # |normalized slope| below this: comm saturation
IDENTITY_RTOL = 1e-9  # budget-identity tolerance of each boundary point, relative to T
DEFAULT_NUM_POINTS = 200  # cycle counts swept by region_boundary
MIN_ZONE_POINTS = 3  # fewest boundary points classify_zones labels: two ends, one inner point

ZONE_COMM = "comm_saturation"
ZONE_ADVERSARIAL = "adversarial"
ZONE_SENSING = "sensing_saturation"


class InfeasibleError(ValueError):
    """Raised when the requested operating point cannot be scheduled."""


@dataclass
class AllocationResult:
    """Optimal communication time split for a fixed cycle count."""

    times: np.ndarray  # t_k, s
    cycles: int
    rate: float  # R*, bit/s


def _rate_weights(gains, cfg: SystemConfig) -> np.ndarray:
    """w_k = B log2(1 + g_k G_c P / s2) of checked per-user gains g_k."""
    gains = as_float_array(gains, "gains")
    if gains.size != cfg.num_users:
        raise ValueError(f"gains: expected {cfg.num_users} entries, got {gains.size}")
    if np.any(gains <= 0):
        raise ValueError(
            "gains: zero (or negative) user gain pins the min-rate to zero; "
            f"offending users {np.nonzero(gains <= 0)[0].tolist()}"
        )
    if cfg.noise_power == 0.0:
        raise ValueError("noise_power: a noiseless link has unbounded user rates; "
                         "the accuracy-rate tradeoff needs noise_power > 0")
    snr = gains * cfg.comm_antenna_gain * cfg.tx_power / cfg.noise_power
    return cfg.bandwidth * np.log2(1.0 + snr)


def _max_min_rate(cycles, w: np.ndarray, cfg: SystemConfig):
    """R*(C) for an int C or an int array of C; raises
    :class:`InfeasibleError` when the sensing time alone exceeds the budget."""
    sensing = cfg.num_targets * cfg.slot_time * np.asarray(cycles)
    if np.max(sensing) > cfg.total_time * (1 + 1e-12):
        raise InfeasibleError(
            f"sensing budget N*T0*C = {float(np.max(sensing))!r} s exceeds the total time "
            f"{cfg.total_time!r} s"
        )
    remaining = np.maximum(cfg.total_time - sensing, 0.0)
    return remaining / (cfg.total_time * float(np.sum(1.0 / w)))


def optimal_allocation(cycles: int, gains, cfg: SystemConfig) -> AllocationResult:
    """Max-min optimal time allocation for a fixed cycle count.

    All users end up with identical rates; the allocation exhausts the
    budget exactly.  Raises :class:`InfeasibleError` when the sensing
    time alone exceeds the budget, and :class:`ValueError` when a zero
    user gain pins the min-rate to zero or a noiseless link unbounds it.
    """
    w = _rate_weights(gains, cfg)
    cycles = check_count("cycles", cycles)
    rate = float(_max_min_rate(cycles, w, cfg))
    return AllocationResult(times=cfg.total_time * rate / w, cycles=cycles, rate=rate)


@dataclass
class RegionBoundary:
    """Pareto boundary of the accuracy-rate region, ascending in accuracy.

    One column per quantity, one entry per boundary point: the swept cycle
    count, its accuracy A(C) and max-min rate R*(C) in bit/s, and its zone
    ("" until :func:`classify_zones` labels it).
    """

    cycles: np.ndarray
    accuracies: np.ndarray
    rates: np.ndarray
    zones: list[str]

    def __len__(self) -> int:
        return len(self.cycles)

    def to_csv(self, path):
        """CSV ``C,A,R_bps,zone``; returns the path."""
        rows = zip(self.cycles.tolist(), self.accuracies, self.rates, self.zones)
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


def _true_then(op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The bool mask ``[True, *op(x, y)]``, written into one array."""
    mask = np.empty(x.size + 1, dtype=bool)
    mask[0] = True
    op(x, y, out=mask[1:])
    return mask


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
    num_points = check_count("num_points", num_points, 2)
    w = _rate_weights(gains, cfg)
    if not fit.domain[0] < fit.domain[1]:
        raise InfeasibleError(f"{fit.family}: empty domain {fit.domain!r}")
    c_min = _min_feasible_cycles(fit)
    c_max = int(math.floor(cfg.total_time / (cfg.num_targets * cfg.slot_time)))
    if math.isfinite(fit.domain[1]):  # the largest integer strictly inside the domain
        c_max = min(c_max, math.ceil(fit.domain[1]) - 1)
    if c_max < c_min:
        raise InfeasibleError(
            f"no feasible cycle count: need C in [{c_min}, {c_max}]"
        )
    # The rounded grid never falls, so dropping adjacent repeats is np.unique.
    cs = np.linspace(c_min, c_max, num_points).round().astype(int)
    cs = cs[_true_then(np.not_equal, cs[1:], cs[:-1])]
    acc = eval_curve(fit, cs.astype(float))  # from c_min to c_max
    if abs(acc[-1] - acc[0]) < 1e-9:
        raise InfeasibleError(
            f"the fitted curve is constant over the feasible cycle range "
            f"[{c_min}, {c_max}]; no accuracy-rate tradeoff to trace"
        )

    rates = _max_min_rate(cs, w, cfg)
    lhs = cfg.num_targets * cfg.slot_time * cs + float(np.sum(cfg.total_time / w)) * rates
    bad = np.abs(lhs - cfg.total_time) > IDENTITY_RTOL * cfg.total_time
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AssertionError(
            f"budget identity violated at C={cs[i]}: {float(lhs[i])!r} != {cfg.total_time!r}"
        )
    # Keep C when its accuracy beats the last kept one.  A NaN is never
    # kept after the first point; a NaN first point is never beaten.
    floor = np.where(np.isnan(acc), -np.inf, acc)
    floor[0] = acc[0]
    keep = _true_then(np.greater, acc[1:], np.maximum.accumulate(floor)[:-1])
    return RegionBoundary(cycles=cs[keep], accuracies=acc[keep], rates=rates[keep],
                          zones=[""] * int(keep.sum()))


def _slopes(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """df/dx of 1-d float arrays of at least 2 points, bit for bit
    ``np.gradient(f, x)``: on spacings dx all equal to h,
    ``(f[i+1] - f[i-1]) / (2 h)``; otherwise the three-point weights of
    the second-order formula on uneven spacing,
    ``-dx2 / (dx1 (dx1 + dx2)) f[i-1] + (dx2 - dx1) / (dx1 dx2) f[i]
    + dx1 / (dx2 (dx1 + dx2)) f[i+1]`` with ``dx1 = x[i] - x[i-1]`` and
    ``dx2 = x[i+1] - x[i]``; first-order differences at both ends."""
    dx = x[1:] - x[:-1]
    out = np.empty_like(f)
    if (dx == dx[0]).all():
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx[0])
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        span = dx1 + dx2
        out[1:-1] = (-dx2 / (dx1 * span) * f[:-2] + (dx2 - dx1) / (dx1 * dx2) * f[1:-1]
                     + dx1 / (dx2 * span) * f[2:])
    out[0] = (f[1] - f[0]) / dx[0]
    out[-1] = (f[-1] - f[-2]) / dx[-1]
    return out


def _run_length(holds: np.ndarray) -> int:
    """Length of the leading run of True in a non-empty bool array."""
    first_fail = int(holds.argmin())
    return len(holds) if holds[first_fail] else first_fail


def classify_zones(
    boundary: RegionBoundary,
    slope_hi: float = DEFAULT_SLOPE_HI,
    slope_lo: float = DEFAULT_SLOPE_LO,
) -> RegionBoundary:
    """Label boundary points by the normalized rate-accuracy slope.

    The slope dR/dA is ``np.gradient(R, A)``'s: at each inner point the
    three-point formula exact for quadratics on the uneven accuracy
    spacing (see :func:`_slopes`), first-order differences at the two
    ends.  It is normalized by R_max / A_range.  A prefix of points with
    |slope| below ``slope_lo`` forms the communication-saturation zone; a
    suffix with |slope| above ``slope_hi`` the sensing-saturation zone;
    everything between is the adversarial zone where the two functions
    genuinely compete.  The labels always form at most three contiguous bands.
    """
    if len(boundary) < MIN_ZONE_POINTS:
        raise InfeasibleError(
            f"need at least {MIN_ZONE_POINTS} boundary points, got {len(boundary)}: accuracy "
            "stops rising with C (the fitted curve saturates or decreases)"
        )
    check_positive("slope_hi", slope_hi, strict=False)
    check_positive("slope_lo", slope_lo, strict=False)
    if slope_lo > slope_hi:
        raise ValueError("slope_lo must not exceed slope_hi")
    a = np.asarray(boundary.accuracies, dtype=float)
    r = np.asarray(boundary.rates, dtype=float)
    slopes = _slopes(r, a)
    r_max = float(np.max(np.abs(r)))
    a_range = float(a[-1] - a[0])
    if r_max == 0.0 or a_range == 0.0:
        raise ValueError("degenerate boundary: zero rate range or accuracy range")
    norm = np.abs(slopes) / (r_max / a_range)

    n = len(boundary)
    # The prefix (< slope_lo) and the suffix (> slope_hi) never overlap.
    comm_end = _run_length(norm < slope_lo)
    sens_start = n - _run_length(norm[::-1] > slope_hi)
    boundary.zones = ([ZONE_COMM] * comm_end + [ZONE_ADVERSARIAL] * (sens_start - comm_end)
                      + [ZONE_SENSING] * (n - sens_start))
    return boundary


def zone_bands(boundary: RegionBoundary) -> list[tuple[str, int, int]]:
    """Contiguous (zone, first_index, last_index) bands along the boundary."""
    bands = []
    for i, zone in enumerate(boundary.zones):
        if bands and bands[-1][0] == zone:
            bands[-1] = (zone, bands[-1][1], i)
        else:
            bands.append((zone, i, i))
    return bands


def gains_from_csv(path) -> np.ndarray:
    """Per-user linear gains from the ``gain`` column of a table, read by
    :func:`~isacsim.manifest.read_floats`, which names a bad cell's line."""
    values = [gain for _, (gain,) in read_floats(path, ("gain",))]
    if not values:
        raise ValueError(f"{path}: no gains found")
    return np.asarray(values)
