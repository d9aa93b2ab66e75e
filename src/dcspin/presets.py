"""Named experiment presets and their verification checks.

Each preset encodes one complete comparison scenario: the spin system, the
drive parameters, the swept axis and grid, and the acceptance assertions
that the produced tables must satisfy.  The fig2* presets use a weakly
coupled 13C nucleus at 1 T, the fig3*/fig4* presets a 1H nucleus at
0.35 T, and fig1f is the purely analytic coupling-factor sweep.  A fig2
or fig3 entry binds its runner and its verifier to one named drive
constant, so a check reads the drive that was run.  The phase-modulation
and pulse-train drives are module-level ProtocolSpecs that go straight to
protocols.run_sweep.

Grid resolutions are not externally mandated; every preset uses 301 points
over its displayed range and records that choice in the result metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .constants import angular_from_khz, angular_from_mhz, mhz_from_angular
from .dynamics import effective_flipflop_signal
from .protocols import (
    ProtocolSpec,
    key_table,
    run_dcs_dnp,
    run_dcs_sensing,
    run_sweep,
    solve_topdnp_detuning,
    topdnp_average_power,
)
from .spincore import Nucleus, SpinSystem, nuclear_frequency, nucleus_from_isotope
from .sweep import SweepResult, refine_extremum
from .waveform import (
    DcsWaveform,
    PmWaveform,
    TWO_PI,
    average_power,
    coupling_factor,
    optimal_dwell_times,
)

N_GRID = 301


@dataclass(frozen=True)
class Check:
    """One verification assertion with its tolerance and outcome."""

    name: str
    tolerance: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    runner: Callable[[int | None], list[SweepResult]]
    verifier: Callable[[list[SweepResult]], list[Check]]


def _meta(name: str, **parameters) -> dict:
    return {"preset": name, "version": __version__, "parameters": parameters}


def _table(results: list[SweepResult], name: str) -> SweepResult:
    for r in results:
        if r.name == name:
            return r
    raise KeyError(f"preset produced no table named {name!r}")


def _check_close(name: str, value: float, target: float, rtol: float) -> Check:
    err = abs(value - target) / abs(target)
    return Check(name, f"relative error <= {rtol:g}", bool(err <= rtol),
                 f"value {value:.6g}, target {target:.6g}, relative error {err:.3g}")


def _check_below(name: str, value: float, bound: float) -> Check:
    return Check(name, f"value < {bound:g}", bool(value < bound),
                 f"value {value:.6g}")


def _check_order(name: str, smaller: float, larger: float, what: str) -> Check:
    return Check(name, "strict ordering", bool(smaller < larger),
                 f"{what}: {smaller:.6g} < {larger:.6g}")


# ---------------------------------------------------------------------------
# scenario systems
# ---------------------------------------------------------------------------

def _phase_modulation(omega: float, initial_state_kind: str | None = None) -> ProtocolSpec:
    """The phase-modulation drive with omega0 = omega1 = omega."""
    return ProtocolSpec("pm", initial_state_kind, omega0=omega, omega1=omega)


CARBON_RESONANCE = angular_from_mhz(10.713)
RABI_FIG2 = angular_from_mhz(1.0)
SENSING_TIME_FIG2 = 0.308e-3
# phase modulation (omega0 = omega1) at the switching drive's peak Rabi
# frequency (fig2a, fig2b) and at its average power (fig2c, fig2d)
PM_FIG2A = _phase_modulation(angular_from_mhz(0.5))
PM_FIG2C = _phase_modulation(RABI_FIG2 / np.sqrt(2.0))

RABI_FIG3 = angular_from_mhz(2.0)
PULSE_LEN_FIG3 = 56e-9
DELAY_FIG3 = 28e-9
TOTAL_TIME_FIG3 = 1.0e-3
# equal average power: the switching drive runs continuously, the pulse
# train only for pulse_len out of every period
RABI_FIG3_MATCHED = RABI_FIG3 * np.sqrt(PULSE_LEN_FIG3 / (PULSE_LEN_FIG3 + DELAY_FIG3))
# the pulse train of fig3 and fig4 from the parallel preparation (its
# default) and from the perpendicular one
TOPDNP_FIG3 = ProtocolSpec("topdnp", rabi=RABI_FIG3, pulse_len=PULSE_LEN_FIG3,
                           delay=DELAY_FIG3)
TOPDNP_FIG3_PERPENDICULAR = replace(TOPDNP_FIG3, initial_state_kind="topdnp_perpendicular")


def carbon13_system() -> SpinSystem:
    """Weakly coupled 13C at 1 T (A_x = 2pi x 13.42 kHz, A_z = 2pi x 17.09 kHz).

    The gyromagnetic ratio is tuned so the shifted nuclear frequency
    gamma*B_z + A_z/2 lands exactly on this scenario's reference resonance
    of 2pi x 10.713 MHz (the tabulated 13C value would put it ~4 kHz above).
    """
    a_x = angular_from_khz(13.42)
    a_z = angular_from_khz(17.09)
    gamma = CARBON_RESONANCE - 0.5 * a_z  # per tesla, at B_z = 1 T
    return SpinSystem(field_z=1.0, nuclei=(Nucleus(gamma, a_x, a_z, label="13C"),))


def proton_system() -> SpinSystem:
    """Weakly coupled 1H at 0.35 T (A_x = A_z = 2pi x 0.5 kHz)."""
    a = angular_from_khz(0.5)
    return SpinSystem(field_z=0.35, nuclei=(nucleus_from_isotope("1H", a, a),))


def _fit_dip(sweep: Callable[[np.ndarray], SweepResult], center: float, halfspan: float,
             points: int = 41) -> float:
    """The nu of the signal dip that ``sweep(nu_grid)`` finds in a fine grid."""
    grid = np.linspace(center - halfspan, center + halfspan, points)
    nu_star, _ = refine_extremum(grid, sweep(grid).column("sigma_z"), "min")
    return nu_star


def fit_dcs_resonance(system: SpinSystem, omega_max: float, T: float,
                      center: float, halfspan: float, points: int = 41,
                      workers: int | None = 1, **kwargs) -> float:
    """Locate the switching-drive resonance by a fine sweep of the signal dip."""
    return _fit_dip(partial(run_dcs_sensing, system, omega_max, T=T, workers=workers, **kwargs),
                    center, halfspan, points)


# ---------------------------------------------------------------------------
# fig1f: analytic coupling factor of the optimal switching drive
# ---------------------------------------------------------------------------

FIG1F_NU = angular_from_mhz(10.0)
FIG1F_RATIO = 0.3
FIG1F_PERIODS = 50


def _fig1f_waveform() -> DcsWaveform:
    omega_max = FIG1F_RATIO * FIG1F_NU
    tau_plus, tau_minus = optimal_dwell_times(omega_max, FIG1F_NU)
    return DcsWaveform(omega_max, tau_plus, tau_minus, t_initial=-0.5 * tau_plus)


def _run_fig1f(workers=None) -> list[SweepResult]:
    w = _fig1f_waveform()
    T = FIG1F_PERIODS * w.period
    ratios = np.linspace(0.9, 1.1, N_GRID)
    g = np.array([coupling_factor(w, r * FIG1F_NU, T) for r in ratios])
    meta = _meta("fig1f", omega_max_over_nu=FIG1F_RATIO, nu_mhz=mhz_from_angular(FIG1F_NU),
                 periods=FIG1F_PERIODS, t_initial="symmetric", points=N_GRID)
    return [SweepResult("coupling_factor", "omega_n_over_nu", ratios,
                        {"abs_g": np.abs(g), "re_g": g.real, "im_g": g.imag}, meta)]


def _verify_fig1f(results: list[SweepResult]) -> list[Check]:
    table = _table(results, "coupling_factor")
    w = _fig1f_waveform()
    T = FIG1F_PERIODS * w.period
    target = 2 * w.omega_max / (np.pi * FIG1F_NU)
    step = table.values[1] - table.values[0]
    peak_x, _ = refine_extremum(table.values, table.column("abs_g"), "max")
    at_resonance = int(np.argmin(np.abs(table.values - 1.0)))
    checks = [
        Check("peak at omega_n/nu = 1", f"within one grid step ({step:.4g})",
              bool(abs(peak_x - 1.0) <= step), f"peak at omega_n/nu = {peak_x:.6g}"),
        _check_close("|g| at resonance vs 2*Omega/(pi*nu)",
                     float(table.column("abs_g")[at_resonance]), float(target), 0.01),
    ]
    for sign in (+1, -1):
        omega_n = FIG1F_NU + sign * TWO_PI / T
        value = abs(coupling_factor(w, omega_n, T))
        checks.append(_check_below(f"|g| at first zero ({sign:+d})", value, 0.02))
    return checks


# ---------------------------------------------------------------------------
# fig2: sensing spectra and time traces, switching vs phase modulation
# ---------------------------------------------------------------------------

def _fig2_spectrum(pm: ProtocolSpec, name: str, workers=None) -> list[SweepResult]:
    system = carbon13_system()
    grid = TWO_PI * np.linspace(10.60e6, 10.83e6, N_GRID)
    dcs = run_dcs_sensing(system, RABI_FIG2, grid, SENSING_TIME_FIG2, workers=workers)
    pm_run = run_sweep(system, pm, "nu", grid, T=SENSING_TIME_FIG2, workers=workers)
    meta = _meta(name, rabi_mhz=mhz_from_angular(RABI_FIG2),
                 pm_omega_mhz=mhz_from_angular(pm.omega0),
                 sensing_time_ms=SENSING_TIME_FIG2 * 1e3, points=N_GRID)
    values = np.array([mhz_from_angular(nu) for nu in grid])
    return [SweepResult("sigma_z", "nu_mhz", values,
                        {"dcs": dcs.column("sigma_z"), "pm": pm_run.column("sigma_z")},
                        meta)]


def _verify_fig2_spectrum(results: list[SweepResult], pm: ProtocolSpec,
                          power_matched: bool) -> list[Check]:
    table = _table(results, "sigma_z")
    step_mhz = table.values[1] - table.values[0]
    dip_mhz = table.values[int(np.argmin(table.column("dcs")))]
    checks = [
        Check("dip at the reference resonance", f"within one grid step ({step_mhz:.4g} MHz)",
              bool(abs(dip_mhz - 10.713) <= step_mhz),
              f"dip at {dip_mhz:.6f} MHz vs 10.713 MHz"),
        _check_order("signal contrast: switching beats phase modulation",
                     1.0 - float(np.min(table.column("pm"))),
                     1.0 - float(np.min(table.column("dcs"))),
                     "contrast pm < dcs"),
    ]
    if power_matched:
        pm_power = average_power(PmWaveform(pm.omega0, pm.omega1, 1.0))
        checks.append(_check_close("average drive power matches the switching drive",
                                   pm_power, RABI_FIG2 ** 2, 1e-12))
    return checks


def _fig2_time_trace(pm: ProtocolSpec, name: str, workers=None) -> list[SweepResult]:
    system = carbon13_system()
    halfspan = TWO_PI * 3e3
    nu_dcs = fit_dcs_resonance(system, RABI_FIG2, SENSING_TIME_FIG2,
                               CARBON_RESONANCE, halfspan, workers=workers)
    nu_pm = _fit_dip(partial(run_sweep, system, pm, "nu", T=SENSING_TIME_FIG2,
                             workers=workers), CARBON_RESONANCE, TWO_PI * 5e3)
    T_grid = np.linspace(0.0, 0.5e-3, 501)
    dcs = run_dcs_dnp(system, RABI_FIG2, nu_dcs, T_grid)
    pm_run = run_sweep(system, pm, "T", T_grid, point=nu_pm)
    a_x = system.nuclei[0].hyperfine_x
    model = np.array([effective_flipflop_signal(RABI_FIG2, nu_dcs, a_x, t)
                      for t in T_grid])
    meta = _meta(name, rabi_mhz=mhz_from_angular(RABI_FIG2),
                 pm_omega_mhz=mhz_from_angular(pm.omega0),
                 nu_dcs_mhz=mhz_from_angular(nu_dcs), nu_pm_mhz=mhz_from_angular(nu_pm))
    return [SweepResult("sigma_z", "T_ms", T_grid * 1e3,
                        {"dcs": dcs.column("sigma_z"), "pm": pm_run.column("sigma_z"),
                         "dcs_effective_model": model}, meta)]


def _verify_fig2_time_trace(results: list[SweepResult]) -> list[Check]:
    table = _table(results, "sigma_z")
    deviation = float(np.max(np.abs(table.column("dcs") - table.column("dcs_effective_model"))))
    reference = effective_flipflop_signal(RABI_FIG2, CARBON_RESONANCE,
                                          angular_from_khz(13.42), SENSING_TIME_FIG2)
    return [
        Check("full dynamics vs flip-flop model over the trace",
              "max deviation < 0.02", bool(deviation < 0.02),
              f"max |signal - cos^2 model| = {deviation:.4f}"),
        Check("closed form at T = 0.308 ms", "|value - 0.858| < 5e-4",
              bool(abs(reference - 0.858) < 5e-4), f"closed form = {reference:.6f}"),
    ]


# ---------------------------------------------------------------------------
# fig3: polarization transfer, switching drive vs pulse train
# ---------------------------------------------------------------------------

def _fig3_spectra(rabi_dcs: float, name: str, workers=None) -> list[SweepResult]:
    system = proton_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    halfspan = TWO_PI * 50e3
    nu_grid = omega_n + np.linspace(-halfspan, halfspan, N_GRID)
    dcs = run_dcs_sensing(system, rabi_dcs, nu_grid, TOTAL_TIME_FIG3, workers=workers)
    det_star = solve_topdnp_detuning(RABI_FIG3, PULSE_LEN_FIG3, DELAY_FIG3, omega_n)
    det_grid = det_star + np.linspace(-halfspan, halfspan, N_GRID)
    table = key_table(system, "topdnp")  # both preparations read the same keys
    par, perp = [run_sweep(system, spec, "detuning", det_grid, T=TOTAL_TIME_FIG3,
                           workers=workers, table=table)
                 for spec in (TOPDNP_FIG3, TOPDNP_FIG3_PERPENDICULAR)]
    meta = _meta(name, rabi_dcs_mhz=mhz_from_angular(rabi_dcs),
                 rabi_pulse_mhz=mhz_from_angular(RABI_FIG3),
                 pulse_len_ns=PULSE_LEN_FIG3 * 1e9, delay_ns=DELAY_FIG3 * 1e9,
                 total_time_ms=TOTAL_TIME_FIG3 * 1e3,
                 resonant_detuning_mhz=mhz_from_angular(det_star),
                 omega_n_mhz=mhz_from_angular(omega_n), points=N_GRID)
    return [
        SweepResult("dcs_polarization", "nu_mhz",
                    np.array([mhz_from_angular(v) for v in nu_grid]),
                    {"nuclear_polarization": dcs.column("nuclear_polarization")}, meta),
        SweepResult("topdnp_polarization", "detuning_mhz",
                    np.array([mhz_from_angular(v) for v in det_grid]),
                    {"parallel": par.column("nuclear_polarization"),
                     "perpendicular": perp.column("nuclear_polarization")}, meta),
    ]


def _verify_fig3_spectra(results: list[SweepResult], rabi_dcs: float,
                         power_matched: bool) -> list[Check]:
    dcs = _table(results, "dcs_polarization")
    top = _table(results, "topdnp_polarization")
    omega_n_mhz = dcs.metadata["parameters"]["omega_n_mhz"]
    det_star_mhz = top.metadata["parameters"]["resonant_detuning_mhz"]
    step = dcs.values[1] - dcs.values[0]
    dcs_peak_x, dcs_peak = refine_extremum(dcs.values,
                                           dcs.column("nuclear_polarization"), "max")
    top_peak_x, top_peak_par = refine_extremum(top.values, top.column("parallel"), "max")
    _, top_peak_perp = refine_extremum(top.values, top.column("perpendicular"), "max")
    checks = [
        _check_order("peak polarization: pulse train (parallel) < switching",
                     top_peak_par, dcs_peak, "topdnp < dcs"),
        _check_order("peak polarization: pulse train (perpendicular) < switching",
                     top_peak_perp, dcs_peak, "topdnp < dcs"),
        Check("switching peak at the nuclear frequency",
              f"within one grid step ({step:.4g} MHz)",
              bool(abs(dcs_peak_x - omega_n_mhz) <= step),
              f"peak at {dcs_peak_x:.6f} MHz vs {omega_n_mhz:.6f} MHz"),
        Check("pulse-train peak at the solved resonant detuning",
              f"within one grid step ({step:.4g} MHz)",
              bool(abs(top_peak_x - det_star_mhz) <= step),
              f"peak at {top_peak_x:.6f} MHz vs {det_star_mhz:.6f} MHz"),
    ]
    if power_matched:
        checks.append(_check_close(
            "average drive power matches the pulse train",
            rabi_dcs ** 2,
            topdnp_average_power(RABI_FIG3, PULSE_LEN_FIG3, DELAY_FIG3), 1e-12))
    return checks


def _fig3_time_traces(rabi_dcs: float, name: str, workers=None) -> list[SweepResult]:
    system = proton_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    det_star = solve_topdnp_detuning(RABI_FIG3, PULSE_LEN_FIG3, DELAY_FIG3, omega_n)
    T_grid = np.linspace(0.0, TOTAL_TIME_FIG3, N_GRID)
    dcs = run_dcs_dnp(system, rabi_dcs, omega_n, T_grid)
    par, perp = [run_sweep(system, spec, "T", T_grid, point=det_star)
                 for spec in (TOPDNP_FIG3, TOPDNP_FIG3_PERPENDICULAR)]
    meta = _meta(name, rabi_dcs_mhz=mhz_from_angular(rabi_dcs),
                 rabi_pulse_mhz=mhz_from_angular(RABI_FIG3),
                 resonant_detuning_mhz=mhz_from_angular(det_star),
                 omega_n_mhz=mhz_from_angular(omega_n))
    return [SweepResult("polarization", "T_ms", T_grid * 1e3,
                        {"dcs": dcs.column("nuclear_polarization"),
                         "topdnp_parallel": par.column("nuclear_polarization"),
                         "topdnp_perpendicular": perp.column("nuclear_polarization")},
                        meta)]


def _verify_fig3_time_traces(results: list[SweepResult], rabi_dcs: float) -> list[Check]:
    table = _table(results, "polarization")
    system = proton_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    a_x = system.nuclei[0].hyperfine_x
    final = {k: float(table.column(k)[-1]) for k in table.columns}
    model = 1.0 - effective_flipflop_signal(rabi_dcs, omega_n, a_x, TOTAL_TIME_FIG3)
    return [
        _check_order("final polarization: pulse train (parallel) < switching",
                     final["topdnp_parallel"], final["dcs"], "topdnp < dcs"),
        _check_order("final polarization: pulse train (perpendicular) < switching",
                     final["topdnp_perpendicular"], final["dcs"], "topdnp < dcs"),
        Check("switching transfer vs flip-flop model", "absolute deviation < 0.02",
              bool(abs(final["dcs"] - model) < 0.02),
              f"polarization {final['dcs']:.6g} vs model {model:.6g}"),
    ]


# ---------------------------------------------------------------------------
# fig4: robustness to amplitude errors, switching timing, and phase offset
# ---------------------------------------------------------------------------

SWITCH_FRACTION_FIG4 = 0.14
PM_FIG4 = _phase_modulation(RABI_FIG3_MATCHED / np.sqrt(2.0), "dnp_dcs")


def _fig4_curves(delta: float, with_variant: bool) -> dict[str, np.ndarray]:
    system = proton_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    det_star = solve_topdnp_detuning(RABI_FIG3, PULSE_LEN_FIG3, DELAY_FIG3, omega_n)
    T_grid = np.linspace(0.0, TOTAL_TIME_FIG3, N_GRID)
    dcs = run_dcs_dnp(system, RABI_FIG3_MATCHED, omega_n, T_grid,
                      amplitude_error=delta)
    pm = run_sweep(system, replace(PM_FIG4, amplitude_error=delta), "T", T_grid,
                   point=omega_n)
    top = run_sweep(system, replace(TOPDNP_FIG3, amplitude_error=delta), "T", T_grid,
                    point=det_star)
    curves = {
        "dcs": dcs.column("nuclear_polarization"),
        "pm": pm.column("nuclear_polarization"),
        "topdnp": top.column("nuclear_polarization"),
    }
    if with_variant:
        variant = run_dcs_dnp(system, RABI_FIG3_MATCHED, omega_n, T_grid,
                              switch_fraction=SWITCH_FRACTION_FIG4,
                              t_initial="zero", amplitude_error=delta)
        curves["dcs_variant"] = variant.column("nuclear_polarization")
    return curves


def _fig4_meta(name: str) -> dict:
    return _meta(name, rabi_dcs_mhz=mhz_from_angular(RABI_FIG3_MATCHED),
                 pm_omega_mhz=mhz_from_angular(PM_FIG4.omega0),
                 rabi_pulse_mhz=mhz_from_angular(RABI_FIG3),
                 switch_fraction=SWITCH_FRACTION_FIG4,
                 variant_t_initial="zero", total_time_ms=TOTAL_TIME_FIG3 * 1e3)


def _run_fig4a(workers=None) -> list[SweepResult]:
    T_grid = np.linspace(0.0, TOTAL_TIME_FIG3, N_GRID)
    return [SweepResult("polarization", "T_ms", T_grid * 1e3,
                        _fig4_curves(0.0, with_variant=True), _fig4_meta("fig4a"))]


def _verify_fig4a(results: list[SweepResult]) -> list[Check]:
    table = _table(results, "polarization")
    final = {k: float(table.column(k)[-1]) for k in table.columns}
    variant_shift = abs(final["dcs_variant"] - final["dcs"]) / abs(final["dcs"])
    return [
        _check_order("final polarization: phase modulation < switching",
                     final["pm"], final["dcs"], "pm < dcs"),
        _check_order("final polarization: pulse train < switching",
                     final["topdnp"], final["dcs"], "topdnp < dcs"),
        Check("ramped switching with shifted phase tracks the ideal drive",
              "relative difference < 5%", bool(variant_shift < 0.05),
              f"relative difference {variant_shift:.4f}"),
    ]


def _run_fig4b(workers=None) -> list[SweepResult]:
    T_grid = np.linspace(0.0, TOTAL_TIME_FIG3, N_GRID)
    meta = _fig4_meta("fig4b")
    ideal = _fig4_curves(0.0, with_variant=False)
    erred = _fig4_curves(0.01, with_variant=False)
    return [
        SweepResult("polarization", "T_ms", T_grid * 1e3, ideal, meta),
        SweepResult("polarization_error_1pct", "T_ms", T_grid * 1e3, erred,
                    {**meta, "amplitude_error": 0.01}),
    ]


def _verify_fig4b(results: list[SweepResult]) -> list[Check]:
    ideal = _table(results, "polarization")
    erred = _table(results, "polarization_error_1pct")
    rel_change = {}
    for key in ("dcs", "pm", "topdnp"):
        a, b = float(ideal.column(key)[-1]), float(erred.column(key)[-1])
        rel_change[key] = abs(b - a) / abs(a)
    return [
        _check_order("amplitude-error sensitivity: switching < phase modulation",
                     rel_change["dcs"], rel_change["pm"],
                     "relative signal change dcs < pm"),
        _check_order("amplitude-error sensitivity: switching < pulse train",
                     rel_change["dcs"], rel_change["topdnp"],
                     "relative signal change dcs < topdnp"),
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

PRESETS: dict[str, Preset] = {
    "fig1f": Preset("fig1f",
                    "Analytic coupling factor of the optimal switching drive "
                    "(Omega/nu = 0.3, 50 periods) vs the spin frequency",
                    _run_fig1f, _verify_fig1f),
    "fig2a": Preset("fig2a",
                    "13C sensing spectrum at 1 T: switching vs phase modulation "
                    "at equal peak Rabi frequency (1 MHz, T = 0.308 ms)",
                    partial(_fig2_spectrum, PM_FIG2A, "fig2a"),
                    partial(_verify_fig2_spectrum, pm=PM_FIG2A, power_matched=False)),
    "fig2b": Preset("fig2b",
                    "13C signal vs sensing time at the fitted resonance, with the "
                    "flip-flop model overlay",
                    partial(_fig2_time_trace, PM_FIG2A, "fig2b"),
                    _verify_fig2_time_trace),
    "fig2c": Preset("fig2c",
                    "13C sensing spectrum: phase modulation at equal average power "
                    "(omega0 = omega1 = 1/sqrt(2) MHz)",
                    partial(_fig2_spectrum, PM_FIG2C, "fig2c"),
                    partial(_verify_fig2_spectrum, pm=PM_FIG2C, power_matched=True)),
    "fig2d": Preset("fig2d",
                    "13C signal vs sensing time with the equal-average-power "
                    "phase modulation",
                    partial(_fig2_time_trace, PM_FIG2C, "fig2d"),
                    _verify_fig2_time_trace),
    "fig3a": Preset("fig3a",
                    "1H polarization spectra at 0.35 T: switching (2 MHz) vs "
                    "pulse train (56/28 ns), equal peak Rabi frequency",
                    partial(_fig3_spectra, RABI_FIG3, "fig3a"),
                    partial(_verify_fig3_spectra, rabi_dcs=RABI_FIG3, power_matched=False)),
    "fig3b": Preset("fig3b",
                    "1H polarization buildup at resonance, equal peak Rabi frequency",
                    partial(_fig3_time_traces, RABI_FIG3, "fig3b"),
                    partial(_verify_fig3_time_traces, rabi_dcs=RABI_FIG3)),
    "fig3c": Preset("fig3c",
                    "1H polarization spectra with the switching drive reduced to "
                    "the pulse train's average power",
                    partial(_fig3_spectra, RABI_FIG3_MATCHED, "fig3c"),
                    partial(_verify_fig3_spectra, rabi_dcs=RABI_FIG3_MATCHED,
                            power_matched=True)),
    "fig3d": Preset("fig3d",
                    "1H polarization buildup at resonance, equal average power",
                    partial(_fig3_time_traces, RABI_FIG3_MATCHED, "fig3d"),
                    partial(_verify_fig3_time_traces, rabi_dcs=RABI_FIG3_MATCHED)),
    "fig4a": Preset("fig4a",
                    "Robustness reference: polarization buildup for switching "
                    "(ideal and ramped/shifted variant), phase modulation, pulse train",
                    _run_fig4a, _verify_fig4a),
    "fig4b": Preset("fig4b",
                    "Robustness to a 1% drive-amplitude error: ideal vs erred "
                    "polarization curves for all three protocols",
                    _run_fig4b, _verify_fig4b),
}


def run_preset(name: str, workers: int | None = 1) -> list[SweepResult]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name].runner(workers)


def verify_preset(name: str, workers: int | None = 1,
                  results: list[SweepResult] | None = None) -> list[Check]:
    """Run a preset (or take its results) and evaluate its checks."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    if results is None:
        results = run_preset(name, workers)
    return PRESETS[name].verifier(results)
