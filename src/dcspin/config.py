"""Experiment configuration: JSON schema, validation, unit ingestion.

Configs carry frequencies in linear units (MHz/kHz) and times in ms/ns; the
loader converts to angular frequencies and seconds.  A config contains
either a single ``preset`` name (plus an optional ``output`` block) or the
explicit blocks ``system``, ``protocol``, ``sweep`` and optionally
``integration`` and ``output``.  Keys starting with ``_`` are ignored
everywhere, which is the annotation mechanism for the example configs.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import angular_from_khz, angular_from_mhz
from .dynamics import IntegrationPolicy
from .protocols import (OPERATING_POINT, TABLE_NAMES, ProtocolSpec, apply_amplitude_error,
                        check_reset_count, recorded_columns)
from .spincore import Nucleus, SpinSystem, nucleus_from_isotope

#: config sweep axis -> run_sweep axis and the conversion from config units
SWEEP_AXES = {
    "nu_mhz": ("nu", angular_from_mhz),
    "total_time_ms": ("T", lambda ms: ms * 1e-3),
    "detuning_mhz": ("detuning", angular_from_mhz),
    "amplitude_error": ("amplitude_error", float),
}
POLARIZATION_CONVENTIONS = ("doubled", "bare")
#: deepest nesting of JSON arrays and objects a config file may hold
MAX_NESTING = 100
#: the most points a sweep may hold: a grid of 10**15 cannot be allocated
MAX_POINTS = 10 ** 6


class ConfigError(ValueError):
    """Configuration file rejected; the message carries the field path."""


@dataclass(frozen=True)
class SweepPlan:
    axis: str
    start: float
    stop: float
    points: int
    total_time_ms: float | None = None
    nu_mhz: float | None = None
    detuning_mhz: float | str | None = None

    @property
    def grid_display(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    @property
    def horizon_field(self) -> str:
        """The field that sets the time a run ends at: stop of a total_time_ms
        sweep, else total_time_ms."""
        return "stop" if self.axis == "total_time_ms" else "total_time_ms"


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "dcspin_results"
    polarization_convention: str = "doubled"
    workers: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    preset: str | None = None
    system: SpinSystem | None = None
    protocol: ProtocolSpec | None = None
    sweep: SweepPlan | None = None
    policy: IntegrationPolicy = field(default_factory=IntegrationPolicy)
    output: OutputOptions = field(default_factory=OutputOptions)


def _clean(obj):
    """Drop annotation keys (leading underscore) recursively."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items() if not k.startswith("_")}
    if isinstance(obj, list):
        return [_clean(v) for v in obj]
    return obj


class _Block:
    """Dict wrapper producing field-path error messages."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self.data = data
        self.path = path

    def child(self, key: str) -> "_Block":
        return _Block(self.require(key, dict), f"{self.path}.{key}")

    def get(self, key: str, expected=None, default=None):
        if key not in self.data:
            return default
        value = self.data[key]
        names = expected if isinstance(expected, tuple) else (expected,)
        # JSON true/false are Python bools, and bool is a subclass of int
        if expected is not None and (not isinstance(value, expected)
                                     or isinstance(value, bool) and bool not in names):
            names = "/".join(t.__name__ for t in names)
            raise ConfigError(f"{self.path}.{key}: expected {names}, "
                              f"got {type(value).__name__}")
        # a JSON integer has no bound on its digits: it must fit a float, as a float must be finite
        if isinstance(value, _NUMBER) and not isinstance(value, bool) \
                and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{self.path}.{key}: must be a finite number, got " + (
                str(value) if isinstance(value, float) else "an integer too large for a float"))
        return value

    def require(self, key: str, expected=None):
        if key not in self.data:
            raise ConfigError(f"{self.path}.{key}: required field is missing")
        return self.get(key, expected)

    def reject_unknown(self, known: set[str]) -> None:
        unknown = set(self.data) - known
        if unknown:
            raise ConfigError(f"{self.path}: unknown fields {sorted(unknown)}")


_NUMBER = (int, float)


def _parse_nucleus(block: _Block) -> Nucleus:
    block.reject_unknown({"isotope", "gyromagnetic_mhz_per_tesla",
                          "hyperfine_x_khz", "hyperfine_z_khz", "label"})
    ax = angular_from_khz(block.require("hyperfine_x_khz", _NUMBER))
    az = angular_from_khz(block.require("hyperfine_z_khz", _NUMBER))
    gamma_mhz = block.get("gyromagnetic_mhz_per_tesla", _NUMBER)
    isotope = block.get("isotope", str)
    label = block.get("label", str, default=isotope or "")
    if gamma_mhz is None and isotope is None:
        raise ConfigError(f"{block.path}: needs isotope or gyromagnetic_mhz_per_tesla")
    try:
        if gamma_mhz is not None:
            return Nucleus(angular_from_mhz(gamma_mhz), ax, az, label=label)
        return nucleus_from_isotope(isotope, ax, az)
    except KeyError as exc:
        raise ConfigError(f"{block.path}.isotope: {exc.args[0]}") from None
    except ValueError as exc:  # a value that overflows in rad/s
        raise ConfigError(f"{block.path}: {exc}") from None


def _parse_system(block: _Block) -> SpinSystem:
    block.reject_unknown({"field_tesla", "nuclei"})
    field_z = block.require("field_tesla", _NUMBER)
    nuclei_raw = block.require("nuclei", list)
    nuclei = tuple(
        _parse_nucleus(_Block(n, f"{block.path}.nuclei[{i}]"))
        for i, n in enumerate(nuclei_raw)
    )
    return SpinSystem(field_z=field_z, nuclei=nuclei)


def _parse_protocol(block: _Block) -> ProtocolSpec:
    kind = block.require("kind", str)
    common = {"kind", "initial_state", "amplitude_error", "measured"}
    per_kind = {
        "dcs": {"rabi_mhz", "switch_fraction", "t_initial", "reset_every_ms"},
        "pm": {"omega0_mhz", "omega1_mhz"},
        "topdnp": {"rabi_mhz", "pulse_len_ns", "delay_ns"},
        "constant": {"omega_e_mhz"},
    }
    if kind not in per_kind:
        raise ConfigError(f"{block.path}.kind: unknown protocol {kind!r}")
    block.reject_unknown(common | per_kind[kind])
    # a field the block leaves out takes the ProtocolSpec default
    kwargs = {field: block.get(key, expected) for key, field, expected in (
        ("initial_state", "initial_state_kind", str),
        ("amplitude_error", "amplitude_error", _NUMBER),
        ("switch_fraction", "switch_fraction", _NUMBER),
        ("t_initial", "t_initial", (str, int, float))) if key in block.data}
    # as floats: a JSON integer past int64 would make numpy arrays of Python objects
    kwargs = {k: float(v) if isinstance(v, int) else v for k, v in kwargs.items()}
    if "measured" in block.data:
        measured = block.get("measured", list)
        if not measured or not all(isinstance(m, str) for m in measured):
            raise ConfigError(f"{block.path}.measured: expected a list of at least one "
                              "column name")
        kwargs["measured"] = tuple(measured)
    if "reset_every_ms" in block.data:
        kwargs["reset_every"] = block.get("reset_every_ms", _NUMBER) * 1e-3
    try:
        if kind == "dcs":
            kwargs["omega_max"] = angular_from_mhz(block.require("rabi_mhz", _NUMBER))
        elif kind == "pm":
            kwargs["omega0"] = angular_from_mhz(block.require("omega0_mhz", _NUMBER))
            kwargs["omega1"] = angular_from_mhz(block.require("omega1_mhz", _NUMBER))
        elif kind == "topdnp":
            kwargs["rabi"] = angular_from_mhz(block.require("rabi_mhz", _NUMBER))
            kwargs["pulse_len"] = block.require("pulse_len_ns", _NUMBER) * 1e-9
            kwargs["delay"] = block.require("delay_ns", _NUMBER) * 1e-9
        else:
            kwargs["omega_e"] = angular_from_mhz(block.require("omega_e_mhz", _NUMBER))
        return ProtocolSpec(kind, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{block.path}: {exc}") from None


def point_field(kind: str, axis: str) -> str | None:
    """The sweep field holding the operating point (protocols.OPERATING_POINT)
    that a sweep of ``kind`` along config ``axis`` keeps fixed, or None when
    the kind has none or the sweep moves it.  The field is named after the
    config axis of that point."""
    return next((name for name, (swept, _) in SWEEP_AXES.items()
                 if swept == OPERATING_POINT[kind] and name != axis), None)


def _parse_sweep(block: _Block, protocol: ProtocolSpec) -> SweepPlan:
    block.reject_unknown({"axis", "start", "stop", "points", "total_time_ms",
                          "nu_mhz", "detuning_mhz"})
    kind = protocol.kind
    axis = block.require("axis", str)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"{block.path}.axis: must be one of {tuple(SWEEP_AXES)}")
    points = block.require("points", int)
    if points < 2:
        raise ConfigError(f"{block.path}.points: need at least 2 sweep points")
    if points > MAX_POINTS:
        raise ConfigError(f"{block.path}.points: at most {MAX_POINTS} sweep points")
    detuning = block.get("detuning_mhz", (int, float, str))
    if isinstance(detuning, str) and detuning != "auto":
        raise ConfigError(f"{block.path}.detuning_mhz: a number or the string 'auto'")
    plan = SweepPlan(
        axis=axis,
        start=float(block.require("start", _NUMBER)),
        stop=float(block.require("stop", _NUMBER)),
        points=points,
        total_time_ms=block.get("total_time_ms", _NUMBER),
        nu_mhz=block.get("nu_mhz", _NUMBER),
        detuning_mhz=detuning,
    )
    if axis == "total_time_ms" and not 0 <= plan.start < plan.stop:
        raise ConfigError(f"{block.path}.stop: a total_time_ms sweep must increase "
                          f"from a start >= 0, got start {plan.start}, stop {plan.stop}")
    if axis != "total_time_ms" and plan.total_time_ms is None:
        raise ConfigError(f"{block.path}.total_time_ms: required for axis {axis!r}")
    if plan.total_time_ms is not None and not plan.total_time_ms > 0:
        raise ConfigError(f"{block.path}.total_time_ms: must be positive, "
                          f"got {plan.total_time_ms}")
    swept = SWEEP_AXES[axis][0]
    if (kind, swept) not in TABLE_NAMES:
        kinds = "/".join(k for k, point in OPERATING_POINT.items() if point == swept)
        raise ConfigError(f"{block.path}.axis: {axis} applies to {kinds}, not {kind!r}")
    fixed = point_field(kind, axis)
    if fixed is not None and getattr(plan, fixed) is None:
        raise ConfigError(f"{block.path}.{fixed}: required for a {axis} sweep of {kind!r}"
                          + (" (a number, or 'auto')" if fixed == "detuning_mhz" else ""))
    # the composed amplitude error grows with the grid value, so its ends bound the grid
    for name in ("start", "stop") if axis == "amplitude_error" else ():
        try:
            apply_amplitude_error(protocol, getattr(plan, name))
        except ValueError as exc:
            raise ConfigError(f"{block.path}.{name}: {exc}") from None
    # nu and the detuning enter the drive in rad/s, where every grid end and fixed value is finite
    grid_ends = ["start", "stop"] if axis in ("nu_mhz", "detuning_mhz") else []
    for name in grid_ends + ([fixed] if fixed else []):
        value = getattr(plan, name)
        if value != "auto" and not math.isfinite(angular_from_mhz(value)):
            raise ConfigError(f"{block.path}.{name}: {value} MHz is not finite in rad/s")
    # the dcs drive needs nu > rabi_mhz, the pm drive nu > omega0_mhz
    floor = {"dcs": ("rabi_mhz", protocol.omega_max), "pm": ("omega0_mhz", protocol.omega0)}
    if kind in floor:
        nus = ({"start": plan.start, "stop": plan.stop} if axis == "nu_mhz"
               else {"nu_mhz": plan.nu_mhz})
        name, lowest = min(nus.items(), key=lambda item: item[1])
        if not angular_from_mhz(lowest) > floor[kind][1]:
            raise ConfigError(f"{block.path}.{name}: every nu of a {kind!r} drive must "
                              f"exceed protocol.{floor[kind][0]}, got {lowest} MHz")
    # a field the (kind, axis) pair never reads is rejected, not ignored
    for key, used in (("total_time_ms", axis != "total_time_ms"),
                      ("nu_mhz", fixed == "nu_mhz"), ("detuning_mhz", fixed == "detuning_mhz")):
        if key in block.data and not used:
            raise ConfigError(f"{block.path}.{key}: not used by a {axis} sweep of {kind!r}")
    return plan


def _parse_integration(block: _Block) -> IntegrationPolicy:
    """Fields left out of the block take the IntegrationPolicy defaults."""
    block.reject_unknown({"max_step_ns", "ramp_substeps", "unitarity_check_interval",
                          "tolerance", "fast_forward"})
    kwargs = {key: block.get(key, expected) for key, expected in (
        ("ramp_substeps", int), ("unitarity_check_interval", int),
        ("tolerance", _NUMBER), ("fast_forward", bool)) if key in block.data}
    max_step_ns = block.get("max_step_ns", _NUMBER)
    if max_step_ns is not None:
        kwargs["max_step"] = max_step_ns * 1e-9
    try:
        return IntegrationPolicy(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{block.path}: {exc}") from None


def _parse_output(block: _Block) -> OutputOptions:
    """Fields left out of the block take the OutputOptions defaults."""
    block.reject_unknown({"directory", "polarization_convention", "workers"})
    kwargs = {key: block.get(key, expected) for key, expected in (
        ("directory", str), ("polarization_convention", str), ("workers", int))
        if key in block.data}
    if "polarization_convention" in kwargs \
            and kwargs["polarization_convention"] not in POLARIZATION_CONVENTIONS:
        raise ConfigError(f"{block.path}.polarization_convention: must be one of "
                          f"{POLARIZATION_CONVENTIONS}")
    if kwargs.get("workers", 1) < 1:
        raise ConfigError(f"{block.path}.workers: must be at least 1, got {kwargs['workers']}")
    return OutputOptions(**kwargs)


def parse_config(data: dict, source: str = "config") -> ExperimentConfig:
    """Validate and resolve an already-parsed config dict."""
    raw = data
    data = _clean(data)
    root = _Block(data, source)
    root.reject_unknown({"preset", "system", "protocol", "sweep", "integration",
                         "output"})
    preset = root.get("preset", str)
    explicit = {"system", "protocol", "sweep", "integration"} & set(data)
    if preset is not None and explicit:
        raise ConfigError(f"{source}: give either 'preset' or explicit blocks, not both")
    output = _parse_output(root.child("output")) if "output" in data else OutputOptions()
    if preset is not None:
        from .presets import PRESETS  # deferred: presets imports protocols
        if preset not in PRESETS:
            raise ConfigError(f"{source}.preset: unknown preset {preset!r}; "
                              f"known: {sorted(PRESETS)}")
        return ExperimentConfig(raw=raw, preset=preset, output=output)
    for block_name in ("system", "protocol", "sweep"):
        if block_name not in data:
            raise ConfigError(f"{source}.{block_name}: required block is missing "
                              "(or use 'preset')")
    protocol = _parse_protocol(root.child("protocol"))
    system = _parse_system(root.child("system"))
    sweep = _parse_sweep(root.child("sweep"), protocol)
    if sweep.detuning_mhz == "auto" and not system.nuclei:
        raise ConfigError(f"{source}.sweep.detuning_mhz: 'auto' solves for the "
                          f"resonance of nucleus 1, but {source}.system.nuclei is empty")
    if protocol.measured:
        recorded = recorded_columns(system)
        if unknown := [m for m in protocol.measured if m not in recorded]:
            raise ConfigError(f"{source}.protocol.measured: unknown columns {unknown}; "
                              f"available: {sorted(recorded)}")
    if protocol.reset_every is not None:
        try:  # the run ends at the horizon field, in seconds as cli passes it
            check_reset_count(protocol.reset_every, getattr(sweep, sweep.horizon_field) * 1e-3)
        except ValueError as exc:
            raise ConfigError(f"{source}.protocol.reset_every_ms: {exc}") from None
    return ExperimentConfig(
        raw=raw,
        system=system,
        protocol=protocol,
        sweep=sweep,
        policy=(_parse_integration(root.child("integration"))
                if "integration" in data else IntegrationPolicy()),
        output=output,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON config file.

    Raises ConfigError with line/column on parse failures and with the
    offending field path on schema violations.
    """
    path = Path(path)
    twice = {}  # id of a decoded object -> (its first key given twice, the object)

    def pairs_hook(pairs):
        obj, seen = dict(pairs), set()
        if len(obj) < len(pairs):
            twice[id(obj)] = next(k for k, _ in pairs if k in seen or seen.add(k)), obj
        return obj

    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=pairs_hook)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # e.g. a directory, or not UTF-8
        raise ConfigError(f"{path}: cannot read: {getattr(exc, 'strerror', exc)}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, deep nesting
        raise ConfigError(f"{path}: JSON parse error: {exc}") from None
    stack = [(str(path), data, 0)]
    while stack:  # in document order, so the first offending field is named
        where, value, depth = stack.pop()
        if id(value) in twice:
            raise ConfigError(f"{where}.{twice[id(value)][0]}: key given more than once")
        if depth > MAX_NESTING:
            raise ConfigError(f"{where}: values nested more than {MAX_NESTING} deep")
        items = ([(f"{where}.{k}", v) for k, v in value.items()] if isinstance(value, dict) else
                 [(f"{where}[{i}]", v) for i, v in enumerate(value)]
                 if isinstance(value, list) else [])
        stack += [(k, v, depth + 1) for k, v in reversed(items)]
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(data, source=str(path))
