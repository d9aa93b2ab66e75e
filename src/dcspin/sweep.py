"""Sweep result tables, CSV emission, and small sweep utilities."""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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


_pool: ProcessPoolExecutor | None = None  # the process's one pool, keyed by its size
_pool_workers = 0


def resolve_workers(workers: int | None) -> int:
    """The worker count a sweep runs with: ``workers`` (at least 1), or for
    None the CPUs this process may run on (its affinity mask where the OS
    has one)."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers is None and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return workers or os.cpu_count() or 1


def parallel_map(fn: Callable, items: Sequence, workers: int | None = 1) -> list:
    """Order-preserving map; uses a process pool when workers != 1 (None:
    the CPUs this process may run on).

    The items go out as one chunk per worker. The pool is started (forked,
    on Linux) at the first pooled call and reused by later ones until a call
    asks for another worker count, the pool breaks (the call raises
    BrokenProcessPool and the next call starts a new pool) or the
    interpreter exits, which joins its workers. So module state changed
    after the pool started, such as a monkeypatch, does not reach the
    workers. If this process is killed by SIGKILL, its idle workers stay
    blocked on the pool's call queue.
    """
    global _pool, _pool_workers
    workers, items = resolve_workers(workers), list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    if _pool is not None and _pool_workers != workers:
        _pool.shutdown()
        _pool = None
    if _pool is None:
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    try:
        return list(_pool.map(fn, items, chunksize=math.ceil(len(items) / workers)))
    except BrokenProcessPool:
        _pool.shutdown()
        _pool = None
        raise


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
