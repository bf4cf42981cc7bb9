"""Deterministic serialization helpers: 17-significant-digit CSV cells,
canonical JSON, file digests, and the per-run manifest."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalError


def format_float(value) -> str:
    """Shortest representation that still round-trips a double (17 sig digits)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return format_float(value)


def write_csv(path, header, rows, comments=()) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def jsonable(obj):
    """Recursively convert numpy containers for json.dump."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    """Canonical JSON. A NaN or an infinity has no JSON form, so it raises
    NumericalError, naming the file, before any byte is written."""
    try:
        text = json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write {path}: {exc}") from exc
    _write_text(path, text + "\n")


def _write_text(path, text: str) -> None:
    """Write a file, making its directory first: a run that stops before its
    first write leaves no directory behind."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Record of one CLI run: echoed config, toolkit version, wall time, and
    sha256 digests of every result file. The wall time varies between runs;
    the digests must not."""

    config: dict
    version: str
    wall_time_s: float = 0.0
    outputs: dict = field(default_factory=dict)

    def add(self, path) -> None:
        p = Path(path)
        self.outputs[p.name] = file_digest(p)

    def write(self, path) -> None:
        write_json(
            path,
            {
                "config": self.config,
                "version": self.version,
                "wall_time_s": self.wall_time_s,
                "outputs": self.outputs,
            },
        )
