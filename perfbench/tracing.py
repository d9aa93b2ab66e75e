"""Spans around dcspin's public functions, recorded from outside the package.

Each wrapper is installed in the namespace where its caller looks the name
up (``dynamics`` imports ``build_hamiltonian`` by name, ``protocols``
imports ``propagate``, methods are looked up on their class), and every
original is put back by ``restore``. The private stages inside ``dynamics``
are timed at the numpy calls it makes: its module global ``np`` is swapped
for a namespace whose ``einsum`` and ``linalg.eigh/svd/matrix_power`` are
wrapped, so numpy itself is never modified.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct child spans.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

from dcspin import cli, config, dynamics, presets, protocols, spincore, sweep, waveform

_MARK = "__perfbench_span__"

RUN_FUNCTIONS = ("run_dcs_sensing", "run_dcs_dnp", "run_pm", "run_topdnp",
                 "run_constant", "run_amplitude_error_sweep")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    amount: float = 0.0  # a quantity the span carries: items, periods, bytes
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Namespace:
    """Attribute lookups fall through to ``target`` except for the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _count_items(args, kwargs, result) -> float:
    return len(args[1])


def _exponent(args, kwargs, result) -> float:
    return args[1]


def _file_bytes(args, kwargs, result) -> float:
    return Path(result).stat().st_size


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, amount=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if span.parent is not None:
                    spans[span.parent].children_s += span.duration
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr: str, name: str, amount=None) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, amount))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        for module in (spincore, dynamics, protocols):
            self._patch(module, "build_hamiltonian", "spincore.build_hamiltonian")
        for module in (spincore, protocols):
            self._patch(module, "embed_operator", "spincore.embed_operator")
        for module in (dynamics, protocols):
            self._patch(module, "propagate", "dynamics.propagate")
            self._patch(module, "propagate_compiled", "dynamics.propagate_compiled")
        self._patch(dynamics, "compile_waveform", "dynamics.compile_waveform")
        for module in (waveform, presets):
            self._patch(module, "coupling_factor", "waveform.coupling_factor")
        for cls in (waveform.DcsWaveform, waveform.PmWaveform):
            self._patch(cls, "pieces", "waveform.pieces")
        for module in (protocols, presets, cli):
            for fn in RUN_FUNCTIONS:
                if fn in vars(module):
                    self._patch(module, fn, "protocols.run")
            if "solve_topdnp_detuning" in vars(module):
                self._patch(module, "solve_topdnp_detuning",
                            "protocols.solve_topdnp_detuning")
        for module in (sweep, protocols):
            self._patch(module, "parallel_map", "sweep.parallel_map", _count_items)
        self._patch(sweep.SweepResult, "write_csv", "sweep.write_csv", _file_bytes)
        self._patch(cli, "run_experiment", "cli.run_experiment")
        self._patch(config, "parse_config", "config.parse_config")
        self._patch(presets, "verify_preset", "presets.verify")
        linalg = _Namespace(np.linalg,
                            eigh=self.wrap("dynamics.eigh", np.linalg.eigh),
                            svd=self.wrap("dynamics.svd", np.linalg.svd),
                            matrix_power=self.wrap("dynamics.matrix_power",
                                                   np.linalg.matrix_power, _exponent))
        self._undo.append((dynamics, "np", dynamics.np))
        dynamics.np = _Namespace(np, linalg=linalg,
                                 einsum=self.wrap("dynamics.einsum", np.einsum))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, summed amount."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "amount": 0.0})
            t["calls"] += 1
            t["total_s"] += s.duration
            t["self_s"] += s.duration - s.children_s
            t["amount"] += s.amount
        return out


def leftover_wrappers() -> list[str]:
    """Names in dcspin's modules, classes and numpy that still hold a span wrapper."""
    found = []
    modules = [cli, config, dynamics, presets, protocols, spincore, sweep, waveform]
    owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    owners += [np, np.linalg]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(value, _MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    if not isinstance(dynamics.np, ModuleType):
        found.append("dcspin.dynamics.np")
    return found
