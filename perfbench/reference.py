"""Output hashes and the stored reference outputs they are compared with.

Every output is turned into a numpy array: gray images and pmfs as they
are, ``rho_star``/KL/accuracy points/fit parameters/SSR as float arrays,
and a region boundary as the bytes of the CSV ``RegionBoundary.to_csv``
writes.  Its SHA-256 is that of the array's raw bytes.  For each
workload, ``reference/<workload>.json`` holds the hashes of the check
outputs at the default seed and ``reference/<workload>.npz`` their
values, so that a mismatch can say how many pixels or values differ.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def as_array(value, scratch: Path) -> np.ndarray:
    if hasattr(value, "to_csv"):
        path = scratch / "boundary.csv"
        value.to_csv(path)
        return np.frombuffer(path.read_bytes(), dtype=np.uint8)
    return np.ascontiguousarray(value)


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def digest_all(hashes: dict) -> str:
    """One hash over all output names and hashes, in name order."""
    h = hashlib.sha256()
    for name in sorted(hashes):
        h.update(f"{name}={hashes[name]}\n".encode())
    return h.hexdigest()


def _describe(name: str, got: np.ndarray, ref: np.ndarray) -> str:
    if name.endswith("/boundary"):
        got_lines = got.tobytes().decode().splitlines()
        ref_lines = ref.tobytes().decode().splitlines()
        differ = sum(a != b for a, b in zip(got_lines, ref_lines))
        differ += abs(len(got_lines) - len(ref_lines))
        return f"{differ} of {len(ref_lines)} CSV lines differ"
    if got.shape != ref.shape or got.dtype != ref.dtype:
        return f"shape/dtype {got.shape} {got.dtype} vs reference {ref.shape} {ref.dtype}"
    differ = int(np.count_nonzero(got != ref))
    delta = np.max(np.abs(got.astype(float) - ref.astype(float))) if differ else 0.0
    unit = "pixels" if got.dtype == np.uint8 else "values"
    return f"{differ} of {ref.size} {unit} differ (max |diff| {delta:.3g})"


def compare(workload: str, arrays: dict) -> tuple[int, int, list[str]]:
    """(unchanged, total, messages) for the check outputs of a workload.

    An output in the reference that is missing from ``arrays`` counts as
    changed; outputs without a reference are listed but not counted.
    """
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return 0, 1, [f"no stored reference at {path.name}"]
    expected = json.loads(path.read_text(encoding="utf-8"))
    messages = []
    unchanged = 0
    values = None
    for name, ref_hash in sorted(expected.items()):
        got = arrays.get(name)
        if got is None:
            messages.append(f"{name}: missing")
            continue
        if sha256(got) == ref_hash:
            unchanged += 1
            continue
        if values is None:
            values = np.load(REFERENCE_DIR / f"{workload}.npz")
        messages.append(f"{name}: {_describe(name, got, values[name])}")
    messages.extend(f"{name}: no reference" for name in sorted(set(arrays) - set(expected)))
    return unchanged, len(expected), messages


def record(workload: str, arrays: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    hashes = {name: sha256(a) for name, a in sorted(arrays.items())}
    (REFERENCE_DIR / f"{workload}.json").write_text(
        json.dumps(hashes, indent=1) + "\n", encoding="utf-8"
    )
    np.savez_compressed(REFERENCE_DIR / f"{workload}.npz", **arrays)
