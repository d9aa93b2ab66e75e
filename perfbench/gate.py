"""Correctness gate: every run's CSV values against stored reference outputs.

A run fails when it raises, when a preset check fails, or when any value
lies more than TOLERANCE (absolute) from its reference. References are
stored per workload under ``reference/`` as gzipped JSON written by
``run.py --write-reference``. Where none holds for the seed, the first pass
of the run becomes the reference, so later passes, serial and pooled, must
reproduce it.
"""
from __future__ import annotations

import copy
import gzip
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

TOLERANCE = 1e-12
PERTURBATION = 1e-11
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Tables = dict[str, np.ndarray]  # "<csv stem>/<column>" -> values


def read_tables(out_dir: Path) -> Tables:
    """Every column of every CSV a run wrote, keyed by file stem and header."""
    tables: Tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        for i, column in enumerate(header):
            tables[f"{path.stem}/{column}"] = rows[:, i]
    return tables


def deviation(outputs: Tables, reference: Tables) -> float:
    """Largest absolute difference; infinite when the tables do not match up."""
    if outputs.keys() != reference.keys():
        return math.inf
    worst = 0.0
    for key, ref in reference.items():
        out = outputs[key]
        if out.shape != ref.shape:
            return math.inf
        if out.size:
            diff = float(np.max(np.abs(out - ref)))
            worst = max(worst, diff if math.isfinite(diff) else math.inf)
    return worst


class Gate:
    """Counts runs attempted and failed, and the largest deviation seen."""

    def __init__(self, reference: dict[str, Tables], quiet: bool = False):
        self.reference = reference
        self.quiet = quiet
        self.attempted = 0
        self.failed = 0
        self.max_abs_dev = 0.0

    def record(self, run: str, outputs: Tables | None = None,
               failed_checks: Sequence[str] = (), error: str | None = None) -> bool:
        self.attempted += 1
        problems = [f"check failed: {c}" for c in failed_checks]
        if error is not None:
            problems.append(error)
        elif outputs is not None:
            if run not in self.reference:
                self.reference[run] = outputs
            dev = deviation(outputs, self.reference[run])
            self.max_abs_dev = max(self.max_abs_dev, dev)
            if dev > TOLERANCE:
                problems.append(f"deviation {dev:.3e} from the reference")
        if problems:
            self.failed += 1
            if not self.quiet:
                print(f"FAIL {run}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def self_test(reference: dict[str, Tables], outputs: dict[str, Tables],
              seed: int) -> bool:
    """Adding PERTURBATION to one reference value must fail exactly one run.

    The value is drawn among those of magnitude at most 1 (every run records
    observables in [-1, 1]); on an axis in rad/s the addition would round away.
    """
    perturbed = copy.deepcopy(reference)
    rng = np.random.default_rng(seed)
    run = sorted(perturbed)[rng.integers(len(perturbed))]
    keys = [k for k in sorted(perturbed[run]) if np.any(np.abs(perturbed[run][k]) <= 1.0)]
    column = perturbed[run][keys[rng.integers(len(keys))]]
    small = np.flatnonzero(np.abs(column) <= 1.0)
    column[small[rng.integers(small.size)]] += PERTURBATION
    gate = Gate(perturbed, quiet=True)
    for name, tables in outputs.items():
        gate.record(name, tables)
    return gate.failed == 1


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str, seed: int, seeded_inputs: bool) -> dict[str, Tables]:
    """Stored outputs that hold for this seed, or an empty dict."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    if seeded_inputs and data["seed"] != seed:
        return {}
    return {run: {k: np.array(v, dtype=float) for k, v in tables.items()}
            for run, tables in data["runs"].items()}


def write_reference(workload: str, seed: int, reference: dict[str, Tables]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {"seed": seed,
            "runs": {run: {k: v.tolist() for k, v in sorted(tables.items())}
                     for run, tables in sorted(reference.items())}}
    # mtime=0 keeps the file byte-identical when the outputs are unchanged
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True).encode("utf-8"))
    return path
