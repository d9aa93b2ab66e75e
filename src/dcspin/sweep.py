"""Sweep result tables, CSV emission, and small sweep utilities."""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


@dataclass
class SweepResult:
    """One table of (swept value, observable columns) rows.

    The metadata dict is emitted as '#'-prefixed header lines; it must not
    contain anything run-dependent (timestamps, hostnames), so identical
    inputs produce byte-identical files.
    """

    name: str
    axis: str
    values: np.ndarray
    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        for key in list(self.columns):
            col = np.asarray(self.columns[key], dtype=float)
            if col.shape != self.values.shape:
                raise ValueError(f"column {key!r} length {col.shape} != axis {self.values.shape}")
            self.columns[key] = col

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def write_csv(self, path: str | Path) -> Path:
        """RFC-4180-style CSV, UTF-8, LF line endings, shortest round-trip floats."""
        path = Path(path)
        lines = []
        for key in sorted(self.metadata):
            lines.append(f"# {key} = {json.dumps(self.metadata[key], sort_keys=True)}")
        header = [self.axis] + list(self.columns)
        lines.append(",".join(header))
        cols = [self.values] + [self.columns[k] for k in self.columns]
        for row in zip(*cols):
            lines.append(",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def parallel_map(fn: Callable, items: Sequence, workers: int | None = 1) -> list:
    """Order-preserving map; uses a process pool when workers != 1 (None: all CPUs)."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (8 * (workers or 8)))))


def refine_extremum(x: np.ndarray, y: np.ndarray, kind: str = "min") -> tuple[float, float]:
    """Parabolic refinement of a grid extremum; returns (x*, y*).

    Falls back to the grid point when the extremum sits on the boundary.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i = int(np.argmin(y) if kind == "min" else np.argmax(y))
    if i == 0 or i == len(y) - 1:
        return float(x[i]), float(y[i])
    a, b, c = y[i - 1], y[i], y[i + 1]
    denom = a - 2 * b + c
    if denom == 0:
        return float(x[i]), float(y[i])
    frac = 0.5 * (a - c) / denom
    step = 0.5 * (x[i + 1] - x[i - 1])
    return float(x[i] + frac * step), float(b - 0.25 * (a - c) * frac)
