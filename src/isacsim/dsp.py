"""Spectrogram front end: chirp, SVD cleaning, dechirp, STFT.

Processing chain for one motion sample, starting from the received
slow-time matrix X (L x C, one column per cycle):

    X -> svd_denoise -> Y          (drop the strongest r-1 components)
    Y -> dechirp_and_collapse -> y (slow-time sequence, length C)
    y -> stft -> Z                 (|STFT|, frequency rows x time columns)
    Z -> to_gray_and_pmf           (8-bit image and gray-level pmf)

Clutter suppression reads the strongest r-1 singular directions from one
Hermitian eigendecomposition of the short-side Gram matrix (L x L for
L <= C, else C x C) instead of a full SVD, and checks r against that
spectrum; only matrices whose removed components lie below about 1e-4 of
the largest fall back to a full SVD.

Spectrogram rows are ordered by descending frequency, so the 8-bit image
writes straight to PGM with +f_slow/2 at the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SystemConfig
from .validation import check_positive

DEFAULT_STFT_WINDOW = 128
DEFAULT_KAISER_BETA = 8.0  # about 60 dB sidelobe suppression
DEFAULT_SVD_THRESHOLD = 2  # drop the strongest (static) component
DEFAULT_DYNAMIC_RANGE_DB = 60.0
DEFAULT_PMF_BINS = 64
# Smallest Gram eigenvalue ratio w[k-1]/w[0] trusted for the rank check;
# below it the Gram spectrum is too close to its rounding floor (~eps).
_GRAM_RESOLVED = 1e-8


def synthesize_chirp(cfg: SystemConfig) -> np.ndarray:
    """Complex baseband up-chirp with constant envelope.

    Sweeps from -B/2 at t=0 to +B/2 at t=sweep_time (slope B/sweep_time);
    every sample has squared magnitude ``tx_power``.
    """
    n = cfg.sweep_len
    if n < 1:
        raise ValueError("sweep_time: chirp must span at least one sample")
    t = np.arange(n) / cfg.sample_rate
    slope = cfg.bandwidth / cfg.sweep_time
    phase = 2.0 * math.pi * (-0.5 * cfg.bandwidth * t + 0.5 * slope * t**2)
    return math.sqrt(cfg.tx_power) * np.exp(1j * phase)


def numerical_rank(x: np.ndarray) -> int:
    s = np.linalg.svd(x, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * max(x.shape) * np.finfo(float).eps))


def svd_denoise(x: np.ndarray, r: int = DEFAULT_SVD_THRESHOLD) -> np.ndarray:
    """Remove the strongest r-1 rank-one components of ``x``.

    r=1 returns the input unchanged; r=rank+1 removes everything.  The
    strongest components of a slow-time matrix are dominated by static
    returns, so this acts as clutter suppression.

    The top k=r-1 singular subspace is read from one ``eigh`` of the Gram
    matrix of the short side (``X X^H`` for L <= C, ``X^H X`` otherwise)
    and projected out: ``X - U_k (U_k^H X)``, or ``X - (X V_k) V_k^H``.
    The rank check needs s[k-1] > s[0] * max(L, C) * eps, which the Gram
    spectrum (eigenvalues s**2) resolves only down to about sqrt(eps) *
    s[0]; when w[k-1] <= 1e-8 * w[0] the check and the projection fall
    back to a full SVD.  Non-finite entries raise ``ValueError``.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {x.shape}")
    if r != int(r):
        raise ValueError(f"r must be an integer, got {r!r}")
    r = int(r)
    if r < 1:
        raise ValueError(f"r={r} outside the valid range [1, rank+1]")
    if not np.all(np.isfinite(x)):
        raise ValueError("x has non-finite entries (NaN or inf)")
    if r == 1:
        return x.copy()
    k = r - 1
    wide = x.shape[0] <= x.shape[1]
    w, v = np.linalg.eigh(x @ x.conj().T if wide else x.conj().T @ x)
    w, v = w[::-1], v[:, ::-1]  # descending, like singular values
    if k <= w.size and w[k - 1] > _GRAM_RESOLVED * w[0]:
        top = v[:, :k]
        removed = top @ (top.conj().T @ x) if wide else (x @ top) @ top.conj().T
        return np.subtract(x, removed, out=removed)
    rank = numerical_rank(x)
    if r > rank + 1:
        raise ValueError(f"r={r} outside the valid range [1, rank+1] = [1, {rank + 1}]")
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    # Subtracting the removed components is cheaper and better conditioned
    # than reconstructing the kept ones.
    top = (u[:, : r - 1] * s[: r - 1]) @ vh[: r - 1]
    return x - top


def dechirp(y: np.ndarray, ref_chirp: np.ndarray) -> np.ndarray:
    """Mix each fast-time column with the conjugate reference chirp.

    Returns the per-cycle beat signal over the sweep samples, shape
    (len(ref_chirp), C); a static tap at delay tau mixes down to a tone at
    ``tau * bandwidth / sweep_time``.
    """
    y = np.asarray(y, dtype=complex)
    ref = np.asarray(ref_chirp, dtype=complex)
    if y.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {y.shape}")
    if ref.size > y.shape[0]:
        raise ValueError(
            f"reference chirp ({ref.size} samples) longer than fast time "
            f"({y.shape[0]} samples)"
        )
    return y[: ref.size, :] * np.conj(ref)[:, None]


def dechirp_and_collapse(y: np.ndarray, ref_chirp: np.ndarray) -> np.ndarray:
    """Dechirp, conjugate, and sum over fast time: the slow-time sequence."""
    return np.sum(np.conj(dechirp(y, ref_chirp)), axis=0)


@dataclass
class Spectrogram:
    """Magnitude time-frequency map.

    ``values`` has shape (window, n_frames) with rows ordered by
    descending frequency (+f_slow/2 at row 0); ``freqs`` and ``times``
    label rows and columns.
    """

    values: np.ndarray
    freqs: np.ndarray
    times: np.ndarray
    window: int
    hop: int

    @property
    def freq_resolution(self) -> float:
        return abs(self.freqs[0] - self.freqs[1])


def stft(
    y: np.ndarray,
    slow_time_step: float,
    window: int = DEFAULT_STFT_WINDOW,
    hop: int = 1,
) -> Spectrogram:
    """Short-time Fourier magnitude of the slow-time sequence.

    Frames of ``window`` samples advance by ``hop`` samples and are
    tapered with a Kaiser window.  Frequencies span
    [-1/(2 dt), +1/(2 dt)) with dt = ``slow_time_step``.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {y.shape}")
    check_positive("slow_time_step", slow_time_step)
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if y.size < window:
        raise ValueError(
            f"sequence of {y.size} samples shorter than the window ({window})"
        )
    taper = np.kaiser(window, DEFAULT_KAISER_BETA)
    frames = np.lib.stride_tricks.sliding_window_view(y, window)[::hop]
    spec = np.fft.fftshift(np.fft.fft(frames * taper, axis=1), axes=1)
    values = np.abs(spec).T[::-1]  # rows: descending frequency
    freqs = np.fft.fftshift(np.fft.fftfreq(window, d=slow_time_step))[::-1]
    n_frames = frames.shape[0]
    times = (np.arange(n_frames) * hop + window / 2.0) * slow_time_step
    return Spectrogram(values=values, freqs=freqs, times=times, window=window, hop=hop)


def to_gray(z: np.ndarray, dynamic_range_db: float = DEFAULT_DYNAMIC_RANGE_DB) -> np.ndarray:
    """Map magnitudes to 8-bit gray: dB scale clipped to the top window.

    The peak maps to 255 and anything ``dynamic_range_db`` below it (or
    zero) maps to 0.  Raises on an all-zero input.
    """
    z = np.asarray(z, dtype=float)
    check_positive("dynamic_range_db", dynamic_range_db)
    if np.any(z < 0):
        raise ValueError("magnitudes must be non-negative")
    peak = z.max() if z.size else 0.0
    if peak <= 0.0:
        raise ValueError("degenerate spectrogram: all entries are zero")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(z / peak)
    db = np.clip(db, -dynamic_range_db, 0.0)
    return np.round(255.0 * (db + dynamic_range_db) / dynamic_range_db).astype(np.uint8)


def gray_pmf(gray, bins: int = DEFAULT_PMF_BINS) -> np.ndarray:
    """Normalized histogram of gray levels over ``bins`` equal-width bins.

    With bins=256 the bins coincide with the gray levels.  Accepts one
    image or a sequence of images (pooled into one pmf).
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if isinstance(gray, (list, tuple)):
        flat = np.concatenate([np.asarray(g).ravel() for g in gray])
    else:
        flat = np.asarray(gray).ravel()
    if flat.size == 0:
        raise ValueError("empty gray image")
    idx = (flat.astype(np.int64) * bins) // 256
    counts = np.bincount(idx, minlength=bins).astype(float)
    return counts / counts.sum()


def to_gray_and_pmf(
    z: np.ndarray,
    dynamic_range_db: float = DEFAULT_DYNAMIC_RANGE_DB,
    bins: int = DEFAULT_PMF_BINS,
) -> tuple[np.ndarray, np.ndarray]:
    gray = to_gray(z, dynamic_range_db)
    return gray, gray_pmf(gray, bins)


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an 8-bit gray image as binary PGM (P5, maxval 255)."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError("expected a 2-d uint8 image")
    h, w = gray.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + gray.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) image written by :func:`write_pgm`."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).copy()
