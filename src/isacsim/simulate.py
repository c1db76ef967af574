"""End-to-end spectrogram synthesis for one motion sample.

Ties kinematics, channel, and DSP together: primitive tracks are sampled
on the slow-time grid, per-cycle tap amplitudes are synthesized (target
taps deterministic given the initial phases, clutter taps autoregressive),
the received matrix is cleaned (only its chirp rows, which the dechirp
reads, are formed), dechirped, and transformed into a gray-scale
spectrogram with its gray-level pmf.  X is the one L x C array a sample
builds: the receiver noise is drawn into it in row blocks of at most
``_BLOCK_BYTES``, each offset's split taps are summed in column blocks,
and the chirp copies are added to it row block by row block, only up to
the last row a chirp reaches.

Randomness is split into fixed child streams ("phases", "clutter",
"noise"), so a (seed, config, motion) triple fully determines the output
bytes regardless of how samples are scheduled.  No sample starts a thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_RHO,
    ClutterConfig,
    ClutterProcess,
    draw_primitive_phases,
    target_amplitudes,
)
from .config import SPEED_OF_LIGHT, RngStream, SystemConfig
from .dsp import (
    DEFAULT_DYNAMIC_RANGE_DB,
    DEFAULT_PMF_BINS,
    DEFAULT_STFT_WINDOW,
    DEFAULT_SVD_THRESHOLD,
    Spectrogram,
    dechirp_and_collapse,
    stft,
    svd_denoise,
    synthesize_chirp,
    to_gray_and_pmf,
)
from .kinematics import MotionSpec, PrimitiveTracks, synthesize_tracks
from .validation import as_float_array, check_count


@dataclass
class SpectrogramResult:
    spectrogram: Spectrogram
    gray: np.ndarray
    pmf: np.ndarray
    tracks: PrimitiveTracks


# Largest temporary, in bytes, that one step of the noise draw or the tap
# placement allocates next to the L x C received matrix; at paper scale
# (L=500, C=3000) X itself is 24 MB.
_BLOCK_BYTES = 1 << 20


def _block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fit in ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


def _tap_columns(
    amps: np.ndarray, delays_samples: np.ndarray, fast_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """The occupied offsets, ascending, and each one's (C,) summed split taps.

    One rule for static (K, 1) and moving (K, C) delays: for each occupied
    offset, the split rows that reach it in some cycle are gathered from
    ``amps`` in ascending order, times their real split weight, or an exact
    zero in a cycle they miss, and summed.  The gather runs in column blocks
    of at most ``_BLOCK_BYTES``, but never one column alone where C > 1
    (numpy sums a lone column pairwise), so every column is one sequential
    sum whatever the block width.
    """
    pos = delays_samples
    if pos.shape not in ((len(amps), 1), amps.shape):
        raise ValueError(f"delays_samples: shape {pos.shape} for amps {amps.shape}")
    # One pass rejects negative, beyond-slot and non-finite positions alike
    # (NaN fails both comparisons).
    if not np.all((pos >= 0) & (pos <= fast_len - 1)):
        raise ValueError(
            "delays_samples: tap delay is not finite or exceeds the slot time "
            "(target outside the unambiguous range)"
        )
    base = np.floor(pos).astype(int)
    frac = pos - base
    split_offsets = np.concatenate([base, np.minimum(base + 1, fast_len - 1)])
    split_weights = np.concatenate([1.0 - frac, frac])
    offsets = np.flatnonzero(np.bincount(split_offsets.ravel()))
    K, C = amps.shape
    cols = np.empty((len(offsets), C), dtype=complex)
    for col, off in zip(cols, offsets):
        hit = split_offsets == off
        sel = np.flatnonzero(hit.any(axis=1))
        starts = range(0, max(C - 1, 1), max(2, _block_rows(len(sel) * amps.itemsize)))
        for lo, hi in zip(starts, [*starts[1:], C]):
            span = slice(lo, hi) if pos.shape[1] > 1 else slice(None)
            taps_hit = amps[sel % K, lo:hi]
            taps_hit *= np.where(hit[sel, span], split_weights[sel, span], 0.0)
            col[lo:hi] = taps_hit.sum(axis=0)
    return offsets, cols


def _lay(out: np.ndarray, tap_sets, chirp: np.ndarray) -> None:
    """Add the chirp copies of each ``(offsets, cols)`` tap set to ``out``.

    Only the rows up to the last one a chirp reaches are visited, in row
    blocks of at most ``_BLOCK_BYTES``.  Each set is laid, its offsets in
    ascending order, into a zeroed scratch block: set 0 into the first,
    each later set into the second, which is then added to the first.  The
    first is then added to ``out``, so an element reads
    ``out + ((set 0 + set 1) + ...)`` as if each set filled a matrix of its
    own (a sum from 0.0 is never -0.0, so adding it to zeros keeps its bits).
    """
    end = max((min(len(out), int(offsets[-1]) + chirp.size)
               for offsets, _ in tap_sets if offsets.size), default=0)
    step = _block_rows(out.itemsize * out.shape[1])
    scratch = np.empty((min(len(tap_sets), 2), min(step, end), out.shape[1]),
                       dtype=out.dtype)
    for lo in range(0, end, step):
        rows = out[lo : min(lo + step, end)]
        total = scratch[0, : len(rows)]
        for k, (offsets, cols) in enumerate(tap_sets):
            block = scratch[min(k, 1), : len(rows)]
            block.fill(0.0)
            for off, col in zip(offsets, cols):
                a, b = max(off, lo), min(off + chirp.size, lo + len(rows))
                if a < b:
                    block[a - lo : b - lo] += chirp[a - off : b - off, None] * col
            if k:
                total += block
        rows += total


def place_taps_fractional(
    amps: np.ndarray, delays_samples: np.ndarray, chirp: np.ndarray, fast_len: int
) -> np.ndarray:
    """Place taps at sub-sample delays by linear splitting.

    A tap at fast-time position k + f (0 <= f < 1) contributes
    ``(1-f) * amp`` at sample k and ``f * amp`` at sample k+1.  Whole
    range cells are far coarser than indoor scene depth, so keeping the
    sub-sample structure is what lets the strongest-component removal
    separate static returns from a slowly migrating target; rounding
    every delay onto one shared cell would collapse the matrix to rank
    one and the cleaning step would strip the target as well.

    ``amps`` has shape (num_taps, C); ``delays_samples`` is (num_taps, C)
    for taps that move each cycle or (num_taps, 1) for static ones, and
    both take one rule.  The result is the L x C matrix of accumulated
    chirp copies.  Indoor delays span only a handful of distinct offsets,
    so the split taps are first summed into one column per occupied offset
    (one ``bincount`` finds them, the gathers run in column blocks), and
    then each column's chirp copy is added to the zeros in row blocks.
    """
    offsets, cols = _tap_columns(amps, delays_samples, fast_len)
    out = np.zeros((fast_len, amps.shape[1]), dtype=complex)
    _lay(out, [(offsets, cols)], chirp)
    return out


def _fill_noise(x: np.ndarray, rng: RngStream, scale: float) -> np.ndarray:
    """Fill and return X: each part, the real one first, is one ``rng.normal``
    draw taken in row blocks, times ``(1 / sqrt(2)) * scale``.  The float
    scratch holds half of X's rows, capped at ``_BLOCK_BYTES``."""
    height = min((len(x) + 1) // 2, _block_rows(8 * x.shape[1]))
    scratch = np.empty((height, x.shape[1]))
    for part in (x.real, x.imag):  # the real draw comes first
        for lo in range(0, len(part), height):
            block = part[lo : lo + height]
            drawn = rng.normal(out=scratch[: len(block)])
            # By the reciprocal: x * (1/sqrt(2)) and x / sqrt(2) round
            # differently, and the recorded outputs hold the former.
            drawn *= 1.0 / np.sqrt(2.0)
            np.multiply(drawn, scale, out=block)  # X's strided part is written once
    return x


def synthesize_received_matrix(
    cfg: SystemConfig,
    tracks: PrimitiveTracks,
    phases: np.ndarray,
    clutter_amps: np.ndarray | None,
    clutter_delays: np.ndarray | None,
    noise_rng: RngStream | None,
) -> np.ndarray:
    """Received slow-time matrix X (L x C) for a whole motion sample.

    ``phases`` holds one finite initial phase per primitive;
    ``clutter_amps`` is (taps x cycles), like the target amplitudes, with
    one static delay (s) per tap in ``clutter_delays``.  Any target
    or clutter tap beyond the last fast-time sample raises (outside the
    unambiguous range).

    Receiver noise of power ``cfg.noise_power`` takes its real parts from
    one ``noise_rng.normal((L, C))`` draw and its imaginary parts from the
    next, each times ``(1 / sqrt(2)) * sqrt(noise_power)``; without a
    stream, or with zero noise power, X has no noise.  Every element is
    ``noise + (target + clutter)``, as if each term filled a whole L x C
    matrix, but the taps are added only to the rows they occupy.
    """
    phases = as_float_array(phases, "phases")
    if phases.size != tracks.num_primitives:
        raise ValueError(
            f"phases: expected {tracks.num_primitives} entries, got {phases.size}"
        )
    L = cfg.fast_time_len
    C = tracks.times.size
    chirp = synthesize_chirp(cfg)
    amps = target_amplitudes(tracks.gains, tracks.distances, cfg, phases[:, None])
    positions = 2.0 * tracks.distances / SPEED_OF_LIGHT * cfg.sample_rate
    tap_sets = [_tap_columns(amps, positions, L)]
    del amps, positions
    if clutter_amps is not None:
        c_pos = (clutter_delays * cfg.sample_rate)[:, None]
        tap_sets.append(_tap_columns(clutter_amps, c_pos, L))
        del clutter_amps  # frees them when the caller kept no name
    if noise_rng is None or not cfg.noise_power > 0:
        x = np.zeros((L, C), dtype=complex)
    else:
        x = _fill_noise(np.empty((L, C), dtype=complex), noise_rng,
                        math.sqrt(cfg.noise_power))
    _lay(x, tap_sets, chirp)
    return x


def simulate_spectrogram(
    cfg: SystemConfig,
    motion: MotionSpec,
    cycles: int,
    rng: RngStream,
    clutter: ClutterConfig,
    rho: float = DEFAULT_RHO,
    *,
    svd_threshold: int = DEFAULT_SVD_THRESHOLD,
    stft_window: int = DEFAULT_STFT_WINDOW,
    dynamic_range_db: float = DEFAULT_DYNAMIC_RANGE_DB,
    pmf_bins: int = DEFAULT_PMF_BINS,
    phases=None,
) -> SpectrogramResult:
    """Full pipeline: motion -> received cycles -> cleaned spectrogram.

    The radar sits at :attr:`ClutterConfig.radar_position`.  ``rho`` is the
    clutter evolution rate (the calibration sweep varies it per call).
    ``phases`` pins the per-primitive initial phases, which keeps the
    target return identical across runs that redraw only clutter and
    noise (one fixed motion recording, many channel realizations).  The
    motion must cover the sensing dwell ``cycles * pri``.
    """
    cycles = check_count("cycles", cycles, 1)
    stft_window = check_count("stft_window", stft_window, 2)
    if cycles < stft_window:
        raise ValueError(
            f"cycles={cycles} shorter than the STFT window ({stft_window})"
        )
    dwell = (cycles - 1) * cfg.pri
    if motion.duration < dwell:
        raise ValueError(
            f"motion duration {motion.duration} s does not cover the "
            f"sensing dwell {dwell} s"
        )

    grid = np.arange(cycles) * cfg.pri
    tracks = synthesize_tracks(motion, ClutterConfig.radar_position, grid)
    if phases is None:
        phases = draw_primitive_phases(tracks.num_primitives, rng.spawn("phases"))

    process = ClutterProcess(clutter, cfg, rng.spawn("clutter"), rho)
    # The clutter amplitudes and X are passed without a name, so the
    # amplitudes are freed once their columns are summed and X once it is
    # cleaned.  The dechirp reads only the chirp's rows, so only those are
    # cleaned.
    y = svd_denoise(
        synthesize_received_matrix(cfg, tracks, phases, process.run(cycles),
                                   process.delays, rng.spawn("noise")),
        svd_threshold, rows=cfg.sweep_len,
    )
    slow = dechirp_and_collapse(y, synthesize_chirp(cfg))
    spec = stft(slow, cfg.pri, stft_window)
    gray, pmf = to_gray_and_pmf(spec.values, dynamic_range_db, pmf_bins)
    return SpectrogramResult(spectrogram=spec, gray=gray, pmf=pmf, tracks=tracks)
