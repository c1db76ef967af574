"""Run manifests and the artifact text format they hash.

A manifest is one JSON object: the command, its inputs (config reference
and seed), the output directory and the content hash of every artifact the
run produced.  Identical inputs must reproduce identical manifests byte
for byte, so no volatile data (timestamps, hostnames) is recorded.

The hashes cover artifact bytes, so the text format is part of that
contract and is decided here once: :func:`write_csv` writes every CSV
table, :func:`read_csv` reads every input table and :func:`read_floats` its numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

MANIFEST_NAME = "manifest.json"


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write the header and row lines alike: floats (numpy ones too) as
    ``repr(float(v))``, the shortest text that reads back to the same double;
    ints and strings as ``str``; ``None`` as an empty cell."""
    lines = [",".join(_cell(v) for v in header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv(path) -> list[tuple[int, dict]]:
    """``(line number, row)`` pairs, each row keyed by the header line, so a
    reader can name the line of a bad cell.  ``#`` starts a comment running
    to the end of the line, as in config files; blank lines are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [(n, line.split("#", 1)[0].strip()) for n, line in enumerate(fh, start=1)]
    lines = [(n, text) for n, text in lines if text]
    rows = csv.DictReader(text for _, text in lines)
    return [(n, row) for (n, _), row in zip(lines[1:], rows)]


def read_floats(path, columns) -> list[tuple[int, tuple[float, ...]]]:
    """``(line number, values)`` per row of :func:`read_csv`, each of
    ``columns`` parsed as a finite float; other columns are ignored.  A
    missing column or a cell that is not a finite number raises
    ValueError naming the path, the line and the column."""

    def cell(line, row, key):
        text = row.get(key)
        if text is None:
            raise ValueError(f"{path}:{line}: missing column {key!r}")
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}:{line}: {key}: not a number: {text!r}") from None
        if not np.isfinite(value):  # float() takes nan, inf and 1e400
            raise ValueError(f"{path}:{line}: {key}: not a finite number: {text!r}")
        return value

    return [(line, tuple(cell(line, row, key) for key in columns))
            for line, row in read_csv(path)]


def write_manifest(
    out_dir, command: str, config_ref: str, seed: int, files
) -> Path:
    """Hash ``files`` (paths under ``out_dir``) and write manifest.json."""
    out_dir = Path(out_dir)
    artifacts = sorted(
        (
            {"file": Path(f).name, "sha256": file_sha256(f)}
            for f in files
        ),
        key=lambda a: a["file"],
    )
    manifest = {
        "command": command,
        "config": str(config_ref),
        "seed": int(seed),
        "out_dir": str(out_dir),
        "artifacts": artifacts,
    }
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path
