"""Run manifests and the artifact text format they hash.

A manifest lists the command, its inputs (config reference and seed), and
the content hash of every artifact the run produced.  Identical inputs
must reproduce identical manifests byte for byte, so no volatile data
(timestamps, hostnames) is recorded.

The hashes cover artifact bytes, so the text format is part of that
contract and is decided here once: :func:`write_csv` writes every CSV
table and :func:`read_csv` reads every tabular CSV input.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
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
    """Write a header line and one line per row: floats (numpy ones too) as
    ``repr(float(v))``, the shortest text that reads back to the same double;
    ints and strings as ``str``; ``None`` as an empty cell."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv(path) -> list[dict]:
    """Rows keyed by the header line.  ``#`` starts a comment running to the
    end of the line, as in config files; blank lines are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    return list(csv.DictReader(line for line in lines if line))


@dataclass
class RunManifest:
    command: str
    config: str
    seed: int
    out_dir: str
    artifacts: list[dict]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


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
    manifest = RunManifest(
        command=command,
        config=str(config_ref),
        seed=int(seed),
        out_dir=str(out_dir),
        artifacts=artifacts,
    )
    path = out_dir / MANIFEST_NAME
    path.write_text(manifest.to_json(), encoding="utf-8")
    return path


def read_manifest(path) -> RunManifest:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest(**data)
