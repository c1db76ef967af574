"""Hybrid sensing channel: deterministic target taps plus evolving clutter.

The impulse response of one sensing cycle is a sum of two sets of taps:

* the target channel, with one tap per body primitive at round-trip delay
  ``2 D_b / c`` and amplitude proportional to ``sqrt(G_b) / D_b^2``;
* the clutter channel, a cluster/ray model whose complex tap amplitudes
  evolve across cycles as a first-order autoregressive process with
  mixing coefficient ``rho`` (rho=1 freezes the clutter, rho=0 redraws it
  every cycle).

Both tap sets come for all cycles of a sample at once, as (taps x
cycles) amplitude matrices; ``simulate.synthesize_received_matrix``
places them on the fast-time grid.  ``rho`` is an argument of
:class:`ClutterProcess` and of the pipeline functions above it, not part
of :class:`ClutterConfig`, so a calibration sweep varies it per call on
one scene; ``DEFAULT_RHO`` is the rate used when a caller gives none.

Cluster delays come from mirror images of the radar in the six walls of
one declared room (:class:`ClutterConfig`, where only ``rays_per_cluster``
is settable), plus the direct leakage path; ray arrival offsets within a
cluster follow a Poisson process with mean ray power decaying
exponentially in the offset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import SPEED_OF_LIGHT, RngStream, SystemConfig
from .validation import check_count, check_in_range

DEFAULT_RHO = 0.997


def target_amplitudes(
    gains, distances, cfg: SystemConfig, phases
) -> np.ndarray:
    """Complex tap amplitudes of the target channel (broadcasts over shape).

    amp = (lambda^2 sqrt(Pt) / sqrt(4 pi)) * sqrt(G) / D^2
          * exp(-j 4 pi f_c D / c) * exp(j phi)
    """
    G = np.asarray(gains, dtype=float)
    D = np.asarray(distances, dtype=float)
    phi = np.asarray(phases, dtype=float)
    if not np.all((D > 0) & (D < np.inf)):  # NaN fails both comparisons
        raise ValueError("distances: must be finite and strictly positive")
    a_const = cfg.wavelength**2 * math.sqrt(cfg.sensing_antenna_gain)
    carrier_phase = -2.0 * math.pi * cfg.carrier_freq * (2.0 * D) / SPEED_OF_LIGHT
    return a_const / math.sqrt(4.0 * math.pi) * np.sqrt(G) / D**2 * _phasor(carrier_phase + phi)


def _phasor(phase: np.ndarray) -> np.ndarray:
    """``np.exp(1j * phase)``, in fewer steps.

    The real part of ``1j * phase`` is +-0 and cexp(+-0 + i phi) is
    (cos phi, sin phi), so the two real calls give the same bits, except
    for the sign of the imaginary zero at phase -0.0 (a sum or a uniform
    draw, as both callers pass, is never -0.0).
    """
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def draw_primitive_phases(num_primitives: int, rng: RngStream) -> np.ndarray:
    """Initial phases, uniform in [-pi, pi], fixed for one motion sample."""
    return rng.uniform(-math.pi, math.pi, check_count("num_primitives", num_primitives))


@dataclass(frozen=True)
class ClutterConfig:
    """The one scene of the target-unrelated returns.

    ``rays_per_cluster`` is the only field: no caller sets the rest, so the
    room (the box [0, L_x] x [0, L_y] x [0, L_z], the radar inside it), the
    direct TX-RX leakage path length ``baseline`` (cluster delays are excess
    delays over it) and one reflection factor per cluster are constants.
    Self-interference cancellation removes almost all of the direct
    leakage; wall bounces carry moderate reflection loss.
    """

    rays_per_cluster: int = 8
    room: ClassVar[tuple[float, float, float]] = (3.0, 4.5, 3.0)
    radar_position: ClassVar[tuple[float, float, float]] = (1.5, 1.0, 1.0)
    baseline: ClassVar[float] = 0.5  # D_0, m
    ray_arrival_rate: ClassVar[float] = 2.0e8  # 1/s, Poisson intra-cluster arrivals
    ray_decay_const: ClassVar[float] = 2.0e-8  # s, exponential mean-power decay
    reflection_factors: ClassVar[tuple[float, ...]] = (0.02,) + (0.3,) * 6

    def __post_init__(self):
        object.__setattr__(self, "rays_per_cluster",
                           check_count("rays_per_cluster", self.rays_per_cluster, 1))


@functools.cache
def cluster_delays() -> np.ndarray:
    """Excess delays (s) of the scene's clusters, read-only.

    Cluster 0 is the direct leakage path (zero excess delay).  Single
    bounces off each of the six walls contribute round-trip path lengths
    ``2 d_wall``; double bounces off perpendicular wall pairs contribute
    ``2 sqrt(d_i^2 + d_j^2)``.  Excess delay is (path - baseline) / c,
    sorted ascending, one per entry of ``reflection_factors``.
    """
    scene = ClutterConfig
    q = np.asarray(scene.radar_position, dtype=float)
    dims = np.asarray(scene.room, dtype=float)
    wall_dist = np.concatenate([q, dims - q])  # distance to the six planes

    paths = [scene.baseline]
    paths.extend(2.0 * d for d in wall_dist)
    for i in range(3):
        for j in range(i + 1, 3):
            for di in (wall_dist[i], wall_dist[i + 3]):
                for dj in (wall_dist[j], wall_dist[j + 3]):
                    paths.append(2.0 * math.hypot(di, dj))
    paths = np.sort(np.asarray(paths))
    excess = (paths[: len(scene.reflection_factors)] - scene.baseline) / SPEED_OF_LIGHT
    excess.flags.writeable = False
    return excess


class ClutterProcess:
    """Clutter taps on a frozen ray layout, evolving at rate ``rho``.

    Construction draws the ray layout once: tap ``delays`` (s, ascending),
    per-tap ``scales`` carrying the cluster amplitude factor
    ``sqrt(H_n) * lambda / (4 pi (D_0 + tau_n c))``, and ``ray_power``,
    the mean squared Rayleigh amplitude of each tap.  :meth:`run` draws
    fresh amplitudes for every cycle of a sample and applies the
    autoregressive update across them.
    """

    def __init__(self, ccfg: ClutterConfig, cfg: SystemConfig, rng: RngStream, rho: float):
        check_in_range("rho", rho, 0.0, 1.0)
        self.rho = rho
        self._rng = rng
        tau = cluster_delays()
        scale = np.sqrt(ccfg.reflection_factors) * cfg.wavelength / (
            4.0 * math.pi * (ccfg.baseline + tau * SPEED_OF_LIGHT)
        )
        # First ray rides on the cluster arrival; later rays are Poisson, one
        # row of arrivals per cluster, drawn in cluster order.
        rays = ccfg.rays_per_cluster
        offsets = np.zeros((tau.size, rays))
        offsets[:, 1:] = rng.poisson_arrivals(ccfg.ray_arrival_rate, (tau.size, rays - 1))
        delays = (tau[:, None] + offsets).ravel()
        order = np.argsort(delays, kind="stable")
        self.delays = delays[order]
        self.scales = np.repeat(scale, rays)[order]
        self.ray_power = np.exp(-offsets / ccfg.ray_decay_const).ravel()[order]

    def run(self, num_cycles: int) -> np.ndarray:
        """Amplitudes for ``num_cycles`` cycles, shape (num_taps, C).

        Fresh amplitudes are Rayleigh magnitudes with mean power
        ``ray_power`` times uniform phases, scaled per cluster.  Cycle 0
        is its fresh draw; each later cycle is ``rho * previous + (1 -
        rho) * fresh``.  A tap's mean power therefore starts at the fresh
        power P0 and decays as ``P0 (rho**2t + (1-rho)(1-rho**2t)/(1+rho))``
        toward ``(1-rho)/(1+rho) P0``, with a time constant of about
        ``1/(2(1-rho))`` cycles: at rho=0.997 the mean over cycles
        500-3000 of a 3000-cycle dwell is 23 dB below P0 (floor -28 dB).
        """
        shape = (check_count("num_cycles", num_cycles), self.delays.size)
        mag = self._rng.rayleigh(1.0, shape)
        mag *= np.sqrt(self.ray_power / 2.0)
        mag *= self.scales
        out = _phasor(self._rng.uniform(-math.pi, math.pi, shape))
        np.multiply(mag, out, out=out)
        out[1:] *= 1.0 - self.rho  # elementwise, so one pass for all rows
        step = np.empty(self.delays.size, dtype=complex)
        for prev, cur in zip(out[:-1], out[1:]):  # row views, updated in place
            cur += np.multiply(self.rho, prev, out=step)
        return out.T
