"""The benchmark's four workloads, built from a seed.

A workload is a list of runs. Each run goes through dcspin's public API,
writes its result tables as CSV files into a directory of its own and
returns the names of the preset checks that failed. Every preset sits in
exactly one workload.

The seed fixes the order of the runs in a pass, the nuclear cluster of
``many_nuclei`` and the ramped drives of ``coupling``. The spectra and
buildup runs themselves do not depend on it, so their stored reference
outputs hold at every seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dcspin import cli, config, dynamics, presets, protocols, spincore, sweep, waveform
from dcspin.constants import angular_from_khz, angular_from_mhz

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
INPUTS = HERE / "inputs"

NAMES = ("spectra", "buildup", "many_nuclei", "coupling")

# many_nuclei and the N ladder: 1H nuclei at 0.35 T under a 2 MHz switching
# drive, hyperfine components drawn per nucleus from this range
CLUSTER_FIELD_T = 0.35
CLUSTER_HYPERFINE_KHZ = (0.3, 5.0)
CLUSTER_SIZE = 5
CLUSTER_RABI = angular_from_mhz(2.0)
CLUSTER_TIME = 1e-3
CLUSTER_SPECTRUM_POINTS = 41
CLUSTER_SPECTRUM_HALFSPAN = 2 * np.pi * 50e3
CLUSTER_BUILDUP_SAMPLES = 101

# coupling: ramped switching drives around nu = 10 MHz, averaged over a
# whole number of periods so the eta * J factorization check stays active;
# 7 drives of 43 points make a 301-point sweep in runs of a third of a second
COUPLING_NU = angular_from_mhz(10.0)
COUPLING_PERIODS = 50
COUPLING_DRIVES = 7
COUPLING_POINTS = 43
COUPLING_SWITCH_FRACTION = (0.05, 0.2)
COUPLING_RATIO = (0.2, 0.4)


@dataclass(frozen=True)
class Run:
    name: str
    execute: Callable[[int, Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    runs: tuple[Run, ...]
    seeded_inputs: bool  # outputs depend on the seed, not only the order
    calibration: str  # the calibrate.KERNELS entry whose work resembles the runs'


def _preset_run(name: str) -> Run:
    def execute(workers: int, out_dir: Path) -> list[str]:
        results = presets.run_preset(name, workers)
        checks = presets.verify_preset(name, results=results)
        for table in results:
            table.write_csv(out_dir / f"{table.name}.csv")
        return [c.name for c in checks if not c.passed]
    return Run(name, execute)


def _config_run(path: Path) -> Run:
    config.load_config(path)  # reject a broken input at set-up

    def execute(workers: int, out_dir: Path) -> list[str]:
        cli.run_experiment(config.load_config(path), out_dir=out_dir, workers=workers)
        return []
    return Run(path.stem, execute)


def cluster_system(seed: int, n: int) -> spincore.SpinSystem:
    """n 1H nuclei; the first n of any larger draw from the same seed."""
    khz = np.random.default_rng(seed).uniform(*CLUSTER_HYPERFINE_KHZ, size=(n, 2))
    nuclei = tuple(spincore.nucleus_from_isotope("1H", angular_from_khz(ax),
                                                 angular_from_khz(az))
                   for ax, az in khz)
    return spincore.SpinSystem(field_z=CLUSTER_FIELD_T, nuclei=nuclei)


def cluster_resonance(system: spincore.SpinSystem) -> float:
    return spincore.nuclear_frequency(system.nuclei[0], system.field_z)


def _cluster_runs(seed: int) -> list[Run]:
    system = cluster_system(seed, CLUSTER_SIZE)
    omega_n = cluster_resonance(system)
    nu_grid = omega_n + np.linspace(-CLUSTER_SPECTRUM_HALFSPAN, CLUSTER_SPECTRUM_HALFSPAN,
                                    CLUSTER_SPECTRUM_POINTS)
    T_grid = np.linspace(0.0, CLUSTER_TIME, CLUSTER_BUILDUP_SAMPLES)

    def spectrum(workers: int, out_dir: Path) -> list[str]:
        res = protocols.run_dcs_sensing(system, CLUSTER_RABI, nu_grid, CLUSTER_TIME,
                                        workers=workers)
        res.write_csv(out_dir / "dcs_sensing.csv")
        return []

    def buildup(workers: int, out_dir: Path) -> list[str]:
        res = protocols.run_dcs_dnp(system, CLUSTER_RABI, omega_n, T_grid)
        res.write_csv(out_dir / "dcs_dnp.csv")
        return []

    return [Run("cluster_spectrum", spectrum), Run("cluster_buildup", buildup)]


def coupling_point(args) -> tuple[float, float, float]:
    """|g|, Re g, Im g at one nuclear frequency (module level, so it pickles)."""
    w, omega_n, T = args
    g = waveform.coupling_factor(w, omega_n, T)
    return abs(g), g.real, g.imag


def _coupling_runs(seed: int) -> list[Run]:
    rng = np.random.default_rng(seed)
    drives = zip(rng.uniform(*COUPLING_SWITCH_FRACTION, size=COUPLING_DRIVES),
                 rng.uniform(*COUPLING_RATIO, size=COUPLING_DRIVES))
    return [_coupling_run(f"ramped_coupling_{k}", switch_fraction, ratio)
            for k, (switch_fraction, ratio) in enumerate(drives)]


def _coupling_run(name: str, switch_fraction: float, ratio: float) -> Run:
    w = protocols.build_dcs_waveform(ratio * COUPLING_NU, COUPLING_NU,
                                     switch_fraction=switch_fraction)
    T = COUPLING_PERIODS * w.period
    ratios = np.linspace(0.9, 1.1, COUPLING_POINTS)
    items = [(w, r * COUPLING_NU, T) for r in ratios]

    def execute(workers: int, out_dir: Path) -> list[str]:
        rows = np.array(sweep.parallel_map(coupling_point, items, workers))
        table = sweep.SweepResult("coupling_factor", "omega_n_over_nu", ratios,
                                  {"abs_g": rows[:, 0], "re_g": rows[:, 1],
                                   "im_g": rows[:, 2]},
                                  {"switch_fraction": switch_fraction,
                                   "omega_max_over_nu": ratio})
        table.write_csv(out_dir / "coupling_factor.csv")
        return [] if np.all(rows[:, 0] <= 1.0) else ["|g| <= 1"]

    return Run(name, execute)


def build(name: str, seed: int) -> Workload:
    """Parse the inputs of one workload and order its runs by the seed."""
    if name == "spectra":
        runs = [_preset_run(p) for p in ("fig2a", "fig2c", "fig3a", "fig3c")]
        runs += [_config_run(CONFIGS / "explicit_sensing_spectrum.json"),
                 _config_run(CONFIGS / "explicit_topdnp_sweep.json")]
    elif name == "buildup":
        runs = [_preset_run(p) for p in ("fig2b", "fig2d", "fig3b", "fig3d", "fig4a", "fig4b")]
        runs += [_config_run(CONFIGS / "explicit_dnp_buildup.json"),
                 _config_run(INPUTS / "explicit_dnp_buildup_sequential.json"),
                 _config_run(INPUTS / "explicit_dnp_buildup_resets.json")]
    elif name == "many_nuclei":
        runs = _cluster_runs(seed)
    elif name == "coupling":
        runs = [_preset_run("fig1f")] + _coupling_runs(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {NAMES}")
    order = np.random.default_rng(seed).permutation(len(runs))
    return Workload(name, seed, tuple(runs[i] for i in order),
                    seeded_inputs=name in ("many_nuclei", "coupling"),
                    calibration="wide" if name == "many_nuclei" else "narrow")


def ladder_propagate(seed: int, n: int) -> dynamics.Trajectory:
    """One 1 ms switching-drive propagation of an n-nucleus cluster, 21 samples."""
    system = cluster_system(seed, n)
    w = protocols.build_dcs_waveform(CLUSTER_RABI, cluster_resonance(system))
    state0 = spincore.initial_state("dnp_dcs", system)
    return dynamics.propagate(system, w, state0, CLUSTER_TIME,
                              sample_every=CLUSTER_TIME / 20)
