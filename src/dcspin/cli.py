"""Command-line interface: run configs, execute presets, verify results.

Subcommands
-----------
run <config.json>   execute a config (preset or explicit blocks), write CSVs
preset <name>       execute a named preset
verify <name>       run a preset and evaluate its acceptance checks
list-presets        list available presets

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  Errors also emit a one-line JSON record on stderr,
with the preset (preset, verify) or the config path (run) it came from.
A usage error, such as a --workers value below 1, or a file that cannot
be read or written exits 2 with the same record.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import SWEEP_AXES, ConfigError, ExperimentConfig, load_config, point_field
from .constants import angular_from_mhz
from .dynamics import MAX_SLICES, PropagationError, SliceCountError
from .presets import PRESETS, run_preset, verify_preset
from .protocols import run_sweep, solve_topdnp_detuning
from .spincore import nuclear_frequency
from .sweep import SweepResult
from .waveform import FactorizationError, QuadratureError


class UsageError(ValueError):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the JSON record (main), not as the usage text."""

    def error(self, message):
        raise UsageError(message)


def _operating_point(system, spec, plan) -> float | None:
    """The operating point the sweep holds fixed (config.point_field), if any."""
    field = point_field(spec.kind, plan.axis)
    fixed = None if field is None else getattr(plan, field)
    if fixed is None:
        return None
    if fixed == "auto":
        omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
        try:
            return solve_topdnp_detuning(spec.rabi, spec.pulse_len, spec.delay, omega_n)
        except ValueError as exc:
            raise ConfigError(f"sweep.detuning_mhz: 'auto' finds no pulse-train "
                              f"resonance with nucleus 1: {exc}") from None
    return angular_from_mhz(fixed)


def _execute_explicit(config: ExperimentConfig, workers: int | None) -> list[SweepResult]:
    system, spec, plan = config.system, config.protocol, config.sweep
    axis, to_si = SWEEP_AXES[plan.axis]
    try:
        res = run_sweep(system, spec, axis, [to_si(v) for v in plan.grid_display],
                        T=None if plan.total_time_ms is None else plan.total_time_ms * 1e-3,
                        point=_operating_point(system, spec, plan), policy=config.policy,
                        workers=workers)
    except SliceCountError as exc:
        policy = config.policy
        field = "ramp_substeps" if policy.max_step is None or policy.ramp_substeps > MAX_SLICES \
            else "max_step_ns"
        raise ConfigError(f"integration.{field}: {exc}") from None
    columns = res.columns
    if spec.measured:
        unknown = [m for m in spec.measured if m not in columns]
        if unknown:
            raise ConfigError(f"protocol.measured: unknown columns {unknown}; "
                              f"available: {sorted(columns)}")
        columns = {m: columns[m] for m in spec.measured}
    metadata = {"config": config.raw, "version": __version__}
    return [SweepResult(res.name, plan.axis, plan.grid_display, columns, metadata)]


def _apply_polarization_convention(results: list[SweepResult],
                                   convention: str) -> list[SweepResult]:
    if convention == "doubled":
        return results
    for res in results:
        for key in list(res.columns):
            if "polarization" in key:
                res.columns[key] = 0.5 * res.columns[key]
        res.metadata["polarization_convention"] = convention
    return results


def write_outputs(results: list[SweepResult], out_dir: Path, manifest: dict) -> list[Path]:
    written = []
    for res in results:
        written.append(res.write_csv(out_dir / f"{res.name}.csv"))
    manifest = dict(manifest)
    manifest["outputs"] = [p.name for p in written]
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return written + [manifest_path]


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None,
                   workers: int | None = None) -> list[Path]:
    """Execute a resolved config and write one CSV per result plus a manifest."""
    workers = workers if workers is not None else config.output.workers
    out_dir = Path(out_dir or Path(config.output.directory, config.preset or ""))
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the run
    started = time.monotonic()
    if config.preset is not None:
        results = run_preset(config.preset, workers)
    else:
        results = _execute_explicit(config, workers)
    results = _apply_polarization_convention(results,
                                             config.output.polarization_convention)
    manifest = {
        "config": config.raw,
        "version": __version__,
        "workers": workers,
        "polarization_convention": config.output.polarization_convention,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    return write_outputs(results, out_dir, manifest)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    paths = run_experiment(config, out_dir=args.out, workers=args.workers)
    for p in paths:
        print(p)
    return 0


def _cmd_preset(args) -> int:
    if args.name not in PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; known: {sorted(PRESETS)}")
    config = ExperimentConfig(raw={"preset": args.name}, preset=args.name)
    out = args.out or Path("dcspin_results") / args.name
    paths = run_experiment(config, out_dir=out, workers=args.workers)
    for p in paths:
        print(p)
    return 0


def _cmd_verify(args) -> int:
    if args.name not in PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; known: {sorted(PRESETS)}")
    checks = verify_preset(args.name, workers=args.workers)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failures += not check.passed
        print(f"[{status}] {args.name}: {check.name} ({check.tolerance}) -- {check.detail}")
    print(f"{args.name}: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def _cmd_list_presets(_args) -> int:
    for name in sorted(PRESETS):
        print(f"{name:8s} {PRESETS[name].description}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcspin",
        description="Electron-nuclear resonance experiments with switched driving",
    )
    parser.add_argument("--version", action="version", version=f"dcspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--workers", type=_positive_int, default=None,
                       help="sweep workers (default: available parallelism)")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="execute a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--workers", type=_positive_int, default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_verify = sub.add_parser("verify", help="run a preset and check its assertions")
    p_verify.add_argument("name")
    p_verify.add_argument("--workers", type=_positive_int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list-presets", help="list available presets")
    p_list.set_defaults(func=_cmd_list_presets)
    return parser


def _error_record(exc: Exception, args: argparse.Namespace) -> str:
    """The error as one JSON line, with the preset (preset, verify) or the
    config path (run) it came from."""
    where = {key: vars(args)[attr] for key, attr in (("preset", "name"), ("config", "config"))
             if attr in vars(args)}
    return json.dumps({"error": type(exc).__name__, "message": str(exc), **where})


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, OSError, KeyError) as exc:
        print(_error_record(exc, args), file=sys.stderr)
        return 2
    except (PropagationError, QuadratureError, FactorizationError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(_error_record(exc, args), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
