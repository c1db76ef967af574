"""Spectrogram front end: chirp, SVD cleaning, dechirp, STFT.

Processing chain for one motion sample, starting from the received
slow-time matrix X (L x C, one column per cycle):

    X -> svd_denoise -> Y[:rows]   (drop the strongest r-1 components)
    Y[:rows] -> dechirp_and_collapse -> y (slow-time sequence, length C)
    y -> stft -> Z                 (|STFT|, frequency rows x time columns)
    Z -> to_gray_and_pmf           (8-bit image and gray-level pmf)

Clutter suppression finds the strongest r-1 singular directions of the
short side by block subspace iteration on k+4 columns, stopped by the
Ritz residuals, instead of a full SVD, and checks r against the Ritz
values.  Matrices whose removed directions are not separated from the
rest (a small gap) or lie below about 1e-4 of the largest component fall
back to one full SVD for both the check and the removal.  The dechirp
reads only the first ``sweep_len`` fast-time rows, so only those rows of
Y are formed (``rows``); the subspace still comes from all of X.

Spectrogram rows are ordered by descending frequency, so the 8-bit image
writes straight to PGM with +f_slow/2 at the top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SystemConfig
from .validation import check_count, check_positive

DEFAULT_STFT_WINDOW = 128
DEFAULT_KAISER_BETA = 8.0  # about 60 dB sidelobe suppression
DEFAULT_SVD_THRESHOLD = 2  # drop the strongest (static) component
DEFAULT_DYNAMIC_RANGE_DB = 60.0
DEFAULT_PMF_BINS = 64
# Smallest Ritz value ratio theta[k-1]/theta[0] trusted for the rank check;
# the Ritz values are squared singular values, so below it they are too
# close to their rounding floor (~eps).
_RITZ_RESOLVED = 1e-8
# Subspace iteration stops when each kept Ritz residual is within
# _SUBSPACE_TOL times the gap theta[k-1] - theta[k] (which bounds the angle
# to the true subspace); after _SUBSPACE_STEPS steps the full SVD takes over.
_SUBSPACE_TOL = 1e-13
_SUBSPACE_STEPS = 32


@functools.lru_cache(maxsize=16)
def synthesize_chirp(cfg: SystemConfig) -> np.ndarray:
    """Complex baseband up-chirp with constant envelope, read-only.

    Sweeps from -B/2 at t=0 to +B/2 at t=sweep_time (slope B/sweep_time);
    every sample has squared magnitude ``tx_power``.  One array per
    configuration is made and handed to every caller.
    """
    n = cfg.sweep_len
    if n < 1:
        raise ValueError("sweep_time: chirp must span at least one sample")
    t = np.arange(n) / cfg.sample_rate
    slope = cfg.bandwidth / cfg.sweep_time
    phase = 2.0 * math.pi * (-0.5 * cfg.bandwidth * t + 0.5 * slope * t**2)
    return _read_only(math.sqrt(cfg.tx_power) * np.exp(1j * phase))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _start_basis(m: int, b: int) -> np.ndarray:
    """Orthonormal basis of the fixed (m, b) start block of the subspace
    iteration (the Q of its QR factors), read-only."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((m, b)))
    return _read_only(q)


def _top_left_subspace(a: np.ndarray, k: int) -> np.ndarray | None:
    """Top-k left singular vectors of ``a`` (m x n, m <= n), or None.

    Each step orthonormalizes a block of min(m, k+4) columns, applies
    ``a a^H`` and takes the block's Rayleigh-Ritz pairs (theta_i, u_i).
    None when k > m, when ``||a a^H u_i - theta_i u_i||`` has not reached
    its bound for every i < k within ``_SUBSPACE_STEPS`` steps, or when
    theta[k-1] is too small for the rank check.
    """
    m = a.shape[0]
    if k > m:
        return None
    q = _start_basis(m, min(m, k + 4))
    for _ in range(_SUBSPACE_STEPS):
        z = (q.conj().T @ a).conj().T  # a^H q, without a conjugated copy of a
        theta, w = np.linalg.eigh(z.conj().T @ z)
        theta, w = theta[::-1], w[:, ::-1]  # descending, like singular values
        u = q @ w
        q = a @ (z @ w)  # a a^H u: the residual now, the next block after
        gap = theta[k - 1] - (theta[k] if k < theta.size else 0.0)
        resid = np.linalg.norm(q[:, :k] - u[:, :k] * theta[:k], axis=0)
        if np.all(resid <= _SUBSPACE_TOL * gap):
            return u[:, :k] if theta[k - 1] > _RITZ_RESOLVED * theta[0] else None
        q, _ = np.linalg.qr(q)
    return None


def svd_denoise(
    x: np.ndarray, r: int = DEFAULT_SVD_THRESHOLD, *, rows: int | None = None
) -> np.ndarray:
    """Remove the strongest r-1 rank-one components of ``x``.

    r=1 returns the input unchanged; r=rank+1 removes everything.  The
    strongest components of a slow-time matrix are dominated by static
    returns, so this acts as clutter suppression.

    ``rows`` keeps only the first ``rows`` rows of the result (all of
    them when None or when ``x`` has fewer), with the bytes of those rows
    of the whole result; the components removed still come from all of
    ``x``.

    The top k=r-1 singular subspace of the short side comes from block
    subspace iteration (Halko, Martinsson and Tropp 2011, Alg. 4.4) on
    ``a = X`` for L <= C, else ``a = X^T`` (its left singular vectors are
    the conjugates of X's right ones, and no conjugated copy of X is
    made), from a fixed start block, so the result depends on ``x``
    alone.  It is projected out: ``X - U_k (U_k^H X)``, or
    ``X - (X V_k) V_k^H``.

    The rank check needs s[k-1] > s[0] * max(L, C) * eps, which the Ritz
    values (s**2) resolve only down to about sqrt(eps) * s[0].  When
    theta[k-1] <= 1e-8 * theta[0], or the iteration does not converge
    within its step cap (removed directions not separated from the rest),
    one full SVD gives both the rank and the removed components.
    Non-finite entries raise ``ValueError``.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {x.shape}")
    r = check_count("r", r, 1)
    rows = x.shape[0] if rows is None else check_count("rows", rows, 1)
    if not np.all(np.isfinite(x)):
        raise ValueError("x has non-finite entries (NaN or inf)")
    if r == 1:
        return x[:rows].copy()
    # At least two rows are formed and then sliced: a one-row product takes
    # numpy's vector path, whose bytes can differ from that row of the full
    # product, while two or more rows keep the matrix path and its bytes.
    head = x[: max(rows, 2)]
    k = r - 1
    wide = x.shape[0] <= x.shape[1]
    top = _top_left_subspace(x if wide else x.T, k)
    if top is not None:
        if wide:
            removed = top[: len(head)] @ (top.conj().T @ x)
        else:
            removed = (head @ top.conj()) @ top.T
        return np.subtract(head, removed, out=removed)[:rows]
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    # np.linalg.matrix_rank's tolerance; an empty or all-zero x has rank 0.
    rank = int(np.sum(s > s[:1] * max(x.shape) * np.finfo(float).eps))
    if r > rank + 1:
        raise ValueError(f"r={r} outside the valid range [1, rank+1] = [1, {rank + 1}]")
    # Subtracting the removed components is cheaper and better conditioned
    # than reconstructing the kept ones.
    top = (u[: len(head), : r - 1] * s[: r - 1]) @ vh[: r - 1]
    return (head - top)[:rows]


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
    """Dechirp, conjugate (in place), and sum over fast time: the slow-time sequence."""
    d = dechirp(y, ref_chirp)
    return np.sum(np.conjugate(d, out=d), axis=0)


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

    @property
    def freq_resolution(self) -> float:
        return abs(self.freqs[0] - self.freqs[1])


@functools.lru_cache(maxsize=16)
def _kaiser_taper(window: int) -> np.ndarray:
    """The STFT taper of ``window`` samples, read-only."""
    return _read_only(np.kaiser(window, DEFAULT_KAISER_BETA))


def stft(
    y: np.ndarray,
    slow_time_step: float,
    window: int = DEFAULT_STFT_WINDOW,
) -> Spectrogram:
    """Short-time Fourier magnitude of the slow-time sequence.

    Frames of ``window`` samples advance by one sample and are
    tapered with a Kaiser window.  Frequencies span
    [-1/(2 dt), +1/(2 dt)) with dt = ``slow_time_step``.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {y.shape}")
    check_positive("slow_time_step", slow_time_step)
    window = check_count("window", window, 2)
    if y.size < window:
        raise ValueError(
            f"sequence of {y.size} samples shorter than the window ({window})"
        )
    taper = _kaiser_taper(window)
    frames = np.lib.stride_tricks.sliding_window_view(y, window)
    spec = np.fft.fftshift(np.fft.fft(frames * taper, axis=1), axes=1)
    values = np.abs(spec).T[::-1]  # rows: descending frequency
    freqs = np.fft.fftshift(np.fft.fftfreq(window, d=slow_time_step))[::-1]
    times = (np.arange(frames.shape[0]) + window / 2.0) * slow_time_step
    return Spectrogram(values=values, freqs=freqs, times=times)


def to_gray(z: np.ndarray, dynamic_range_db: float = DEFAULT_DYNAMIC_RANGE_DB) -> np.ndarray:
    """Map magnitudes to 8-bit gray: dB scale clipped to the top window.

    The peak maps to 255 and anything ``dynamic_range_db`` below it (or
    zero) maps to 0.  Raises on an all-zero input and on a negative or
    non-finite magnitude.
    """
    z = np.asarray(z, dtype=float)
    check_positive("dynamic_range_db", dynamic_range_db)
    if np.any(z < 0):  # -inf included
        raise ValueError("magnitudes must be non-negative")
    peak = z.max() if z.size else 0.0
    if not math.isfinite(peak):  # the max of an array holding NaN is NaN
        raise ValueError("magnitudes must be finite")
    if peak <= 0.0:
        raise ValueError("degenerate spectrogram: all entries are zero")
    # In place, the steps of round(255 * (clip(20 log10(z / peak)) + dr) / dr).
    db = z / peak
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 20.0
    np.clip(db, -dynamic_range_db, 0.0, out=db)
    db += dynamic_range_db
    db *= 255.0
    db /= dynamic_range_db
    return np.round(db, out=db).astype(np.uint8)


def gray_pmf(gray, bins: int = DEFAULT_PMF_BINS) -> np.ndarray:
    """Normalized histogram of gray levels over ``bins`` equal-width bins.

    With bins=256 the bins coincide with the gray levels.  Accepts one
    image or a sequence of images (pooled into one pmf) of integer gray
    levels in [0, 255]; any other dtype or value raises ``ValueError``.
    """
    bins = check_count("bins", bins, 2)
    if isinstance(gray, (list, tuple)):
        flat = np.concatenate([np.asarray(g).ravel() for g in gray])
    else:
        flat = np.asarray(gray).ravel()
    if flat.size == 0:
        raise ValueError("empty gray image")
    if flat.dtype.kind not in "ui":
        raise ValueError(f"gray levels must be integers, got dtype {flat.dtype}")
    if flat.dtype != np.uint8 and not 0 <= flat.min() <= flat.max() <= 255:
        raise ValueError(
            f"gray levels must lie in [0, 255], got [{flat.min()}, {flat.max()}]"
        )
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
    """Read a binary PGM (P5) image written by :func:`write_pgm`.

    A truncated or non-numeric header, a size that is not positive, a
    maxval other than 255 or a short pixel block raises ``ValueError``
    naming the path and the cause.
    """
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
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        if not data[start:pos].isdigit():
            raise ValueError(f"{path}: PGM header field {data[start:pos]!r} is not "
                             "a non-negative integer")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(f) for f in fields)
    if w == 0 or h == 0:
        raise ValueError(f"{path}: PGM size {w} x {h} is empty")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(data) - pos < w * h:
        raise ValueError(f"{path}: PGM pixel block holds {max(len(data) - pos, 0)} "
                         f"bytes, {w} x {h} needs {w * h}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).copy()
