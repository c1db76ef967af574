"""Small input-validation helpers shared across the package."""

from __future__ import annotations

import numbers

import numpy as np


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name}: must be finite, got {value!r}")
    if strict and value <= 0.0:
        raise ValueError(f"{name}: must be strictly positive, got {value!r}")
    if not strict and value < 0.0:
        raise ValueError(f"{name}: must be non-negative, got {value!r}")
    return value


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer-valued real: an integer of any kind
    or an integral float."""
    return (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer())


def check_seed(name: str, value) -> int:
    """``value`` as an int, by :func:`check_count`'s integer rule; anything
    else, or a seed outside [0, 2**64), raises ``ValueError`` naming
    ``name`` rather than alias another seed
    (:class:`~isacsim.config.RngStream` hashes 64 bits)."""
    if not (_is_integer(value) and 0 <= value < 2**64):
        raise ValueError(f"{name}: must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def check_count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int: the one rule for a count.  Any integer-valued
    real passes (numpy integers and integral floats too); anything else,
    or a count below ``minimum``, raises ``ValueError`` naming ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def check_heading(name: str, heading) -> None:
    """Raise unless ``np.linalg.norm(heading)``, the norm a heading is
    normalized by, is positive and finite.  Unlike ``math.hypot`` it
    underflows to 0 below about 1e-154 and overflows above about 1e154."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(heading)
    if not 0.0 < norm < np.inf:
        raise ValueError(
            f"{name}: must be a non-zero direction with a finite norm, got {tuple(heading)!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo <= value <= hi):
        raise ValueError(f"{name}: must lie in [{lo}, {hi}], got {value!r}")
    return value


def as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d array, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite entries")
    return arr


def check_pmf(p, name: str) -> np.ndarray:
    """Validate a probability mass function: 1-d, non-negative, sums to 1 +- 1e-9."""
    arr = as_float_array(p, name)
    if arr.size == 0:
        raise ValueError(f"{name}: empty pmf")
    if np.any(arr < 0):
        raise ValueError(f"{name}: contains negative probabilities")
    total = arr.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name}: probabilities sum to {total!r}, expected 1")
    return arr
