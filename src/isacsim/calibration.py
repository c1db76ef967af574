"""Evolution-rate calibration by matching gray-level distributions.

A reference pmf (from measured spectrogram files or a held-out simulation)
is compared against simulated pmfs across a grid of evolution rates; the
calibrated rate minimizes the average KL divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RngStream
from .dsp import DEFAULT_PMF_BINS, gray_pmf, read_pgm
from .manifest import write_csv
from .validation import check_pmf

KL_FLOOR = 1e-9  # pmf floor keeping the divergence finite on empty bins
DEFAULT_SAMPLES_PER_POINT = 10  # simulations pooled per grid point


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum(p * log(p / max(q, KL_FLOOR))).

    Natural log; terms with p=0 contribute nothing.  Flooring keeps the
    result finite when ``q`` has empty bins where ``p`` does not, at the
    cost of a vanishing negative bias, which is clamped to zero.
    """
    p = check_pmf(p, "p")
    q = check_pmf(q, "q")
    if p.size != q.size:
        raise ValueError(f"pmf length mismatch: {p.size} vs {q.size}")
    mask = p > 0
    val = float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], KL_FLOOR))))
    return max(val, 0.0)


@dataclass
class RhoFit:
    """Result of the evolution-rate grid search."""

    rho: float
    grid: np.ndarray
    kl: np.ndarray  # mean divergence per grid point

    def to_csv(self, path):
        """CSV ``rho,kl``; returns the path."""
        return write_csv(path, ("rho", "kl"), zip(self.grid, self.kl))


def fit_rho(
    reference_pmf,
    simulate_pmf,
    grid,
    rng: RngStream,
    samples_per_point: int = DEFAULT_SAMPLES_PER_POINT,
) -> RhoFit:
    """Brute-force search for the evolution rate best matching a reference.

    ``simulate_pmf(rho, rng)`` must regenerate a full-pipeline spectrogram
    pmf at the given rate.  A single simulated draw is far too noisy for a
    stable argmin, so each grid point pools ``samples_per_point``
    independent simulations into one Monte-Carlo estimate of the pmf
    before a single divergence evaluation.  Ties break toward the larger
    rate.
    """
    reference = check_pmf(reference_pmf, "reference_pmf")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty rho grid")
    if np.any((grid < 0) | (grid > 1)):
        raise ValueError("rho grid must lie within [0, 1]")
    if samples_per_point < 1:
        raise ValueError(f"samples_per_point must be >= 1, got {samples_per_point}")

    kl = np.empty(grid.size)
    for i, rho in enumerate(grid):
        point_rng = rng.spawn(f"rho{i}")
        pmfs = [
            simulate_pmf(rho, point_rng.spawn(f"s{j}"))
            for j in range(samples_per_point)
        ]
        pooled = np.mean(pmfs, axis=0)
        kl[i] = kl_divergence(reference, pooled / pooled.sum())

    best = grid.size - 1 - int(np.argmin(kl[::-1]))
    return RhoFit(rho=float(grid[best]), grid=grid, kl=kl)


def reference_pmf_from_pgms(path, bins: int = DEFAULT_PMF_BINS) -> np.ndarray:
    """Pool gray-level statistics of one PGM file or a directory of them."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.pgm"))
        if not files:
            raise ValueError(f"{path}: no .pgm files found")
        return gray_pmf([read_pgm(f) for f in files], bins)
    return gray_pmf(read_pgm(path), bins)
