"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  The criteria:

1. analytic optimum of the switching drive (|g| at resonance, zero locations)
2. closed-form / quadrature equivalence of the per-period coupling factor
3. sensing-spectrum dip location for the 13C scenario
4. resonant time law vs the flip-flop model for the 13C scenario
5. protocol orderings (switching vs phase modulation vs pulse train)
6. robustness to a 1% drive-amplitude error, ramped switching, phase offset
7. numerical hygiene (unitarity, trace drift, step halving, factorization)
8. two-spin exchange model transfer rate vs the predicted |g a|
"""
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dcspin import (
    DcsWaveform,
    IntegrationPolicy,
    QuantumState,
    angular_from_khz,
    angular_from_mhz,
    closed_form_period_coupling,
    coherence_factor,
    coupling_factor,
    effective_flipflop_signal,
    initial_state,
    nuclear_frequency,
    optimal_dwell_times,
    period_coupling_factor,
    propagate,
    propagate_spin_pair,
    resonance_frequency,
    run_dcs_sensing,
)
from dcspin.dynamics import (_slice_unitaries, _UnitaryCache, propagate_compiled,
                             standard_observables)
from dcspin.presets import (
    RABI_FIG2,
    SENSING_TIME_FIG2,
    carbon13_system,
    fit_dcs_resonance,
    run_preset,
)
from dcspin.spincore import build_hamiltonian
from dcspin.sweep import refine_extremum
from dcspin.waveform import phase_per_period

TWO_PI = 2 * np.pi


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")


# ---------------------------------------------------------------------------
# 1. analytic optimum
# ---------------------------------------------------------------------------

def test_criterion_1_analytic_optimum():
    nu = angular_from_mhz(10.0)
    omega = 0.3 * nu
    tau_plus, tau_minus = optimal_dwell_times(omega, nu)
    w = DcsWaveform(omega, tau_plus, tau_minus, t_initial=-tau_plus / 2)
    T = 50 * w.period
    g_res = abs(coupling_factor(w, nu, T))
    target = 2 * omega / (np.pi * nu)
    rel = abs(g_res - target) / target
    zeros = [abs(coupling_factor(w, nu + s * TWO_PI / T, T)) for s in (+1, -1)]
    passed = rel <= 0.01 and all(z < 0.02 for z in zeros)
    report("1 (analytic optimum)", passed,
           f"|g| = {g_res:.6f} vs 2*Omega/(pi*nu) = {target:.6f} "
           f"(rel {rel:.2e}, tol 1%); zeros {zeros[0]:.2e}, {zeros[1]:.2e} < 0.02")
    assert passed
    assert target == pytest.approx(0.19099, abs=1e-5)


# ---------------------------------------------------------------------------
# 2. closed form vs quadrature on the resonance manifold
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for _ in range(50):
        omega = rng.uniform(0.3, 2.5)
        tau_plus = rng.uniform(0.6, 2.0)
        tau_minus = rng.uniform(0.25, 0.95 * tau_plus)
        for harmonic in (1, 2):
            omega_n = resonance_frequency(omega, tau_plus, tau_minus, harmonic)
            sym = DcsWaveform(omega, tau_plus, tau_minus, 0.0, -tau_plus / 2)
            j_quad = abs(period_coupling_factor(sym, omega_n))
            j_closed = abs(closed_form_period_coupling(omega, omega_n, tau_plus,
                                                       tau_minus, harmonic))
            worst = max(worst, abs(j_quad - j_closed) / max(j_closed, 1e-300))
            count += 1
    passed = worst < 1e-8
    report("2 (closed form vs quadrature)", passed,
           f"{count} resonance-manifold points, k in {{1, 2}}; "
           f"worst relative error {worst:.2e} < 1e-8")
    assert passed


# ---------------------------------------------------------------------------
# 3. sensing-spectrum dip location (301-point sweep)
# ---------------------------------------------------------------------------

def test_criterion_3_dip_location():
    table = run_preset("fig2a", workers=1)[0]
    step = table.values[1] - table.values[0]
    dip = table.values[int(np.argmin(table.column("dcs")))]
    passed = abs(dip - 10.713) <= 0.8e-3
    report("3 (spectrum dip location)", passed,
           f"dip at {dip:.6f} MHz vs 10.713 MHz "
           f"(|diff| = {abs(dip - 10.713) * 1e3:.3f} kHz, tol 0.8 kHz = one step "
           f"of {step * 1e3:.3f} kHz)")
    assert passed


# ---------------------------------------------------------------------------
# 4. resonant time law
# ---------------------------------------------------------------------------

def test_criterion_4_time_law():
    """Evaluated at the observed resonance point of the spectrum, which is
    where the signal-vs-time comparison is defined."""
    system = carbon13_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    nu_star = fit_dcs_resonance(system, RABI_FIG2, SENSING_TIME_FIG2, omega_n,
                                TWO_PI * 3e3)
    from dcspin import build_dcs_waveform
    w = build_dcs_waveform(RABI_FIG2, nu_star)
    times = np.linspace(0.0, 0.5e-3, 501)
    traj = propagate(system, w, initial_state("sensing", system), times[-1],
                     sample_times=times)
    a_x = system.nuclei[0].hyperfine_x
    model = np.array([effective_flipflop_signal(RABI_FIG2, nu_star, a_x, t)
                      for t in times])
    deviation = float(np.max(np.abs(traj.observables["sigma_z"] - model)))
    reference = effective_flipflop_signal(RABI_FIG2, omega_n, a_x, 0.308e-3)
    passed = deviation < 0.02 and abs(reference - 0.858) < 5e-4
    report("4 (resonant time law)", passed,
           f"max |signal - cos^2| = {deviation:.4f} < 0.02 over [0, 0.5 ms]; "
           f"closed form at 0.308 ms = {reference:.4f} (vs 0.858)")
    assert passed


# ---------------------------------------------------------------------------
# 5. protocol orderings
# ---------------------------------------------------------------------------

def test_criterion_5_protocol_ordering():
    eq_rabi = run_preset("fig2a", workers=1)[0]
    eq_power = run_preset("fig2c", workers=1)[0]
    contrast = {
        "dcs@rabi": 1 - float(np.min(eq_rabi.column("dcs"))),
        "pm@rabi": 1 - float(np.min(eq_rabi.column("pm"))),
        "dcs@power": 1 - float(np.min(eq_power.column("dcs"))),
        "pm@power": 1 - float(np.min(eq_power.column("pm"))),
    }
    dnp_rabi = run_preset("fig3b", workers=1)[0]
    dnp_power = run_preset("fig3d", workers=1)[0]
    finals = {
        "dcs@rabi": float(dnp_rabi.column("dcs")[-1]),
        "top_par@rabi": float(dnp_rabi.column("topdnp_parallel")[-1]),
        "top_perp@rabi": float(dnp_rabi.column("topdnp_perpendicular")[-1]),
        "dcs@power": float(dnp_power.column("dcs")[-1]),
        "top_par@power": float(dnp_power.column("topdnp_parallel")[-1]),
        "top_perp@power": float(dnp_power.column("topdnp_perpendicular")[-1]),
    }
    passed = (contrast["dcs@rabi"] > contrast["pm@rabi"]
              and contrast["dcs@power"] > contrast["pm@power"]
              and finals["dcs@rabi"] > finals["top_par@rabi"]
              and finals["dcs@rabi"] > finals["top_perp@rabi"]
              and finals["dcs@power"] > finals["top_par@power"]
              and finals["dcs@power"] > finals["top_perp@power"])
    report("5 (protocol ordering)", passed,
           "sensing contrast dcs > pm at equal peak Rabi "
           f"({contrast['dcs@rabi']:.4f} > {contrast['pm@rabi']:.4f}) and equal power "
           f"({contrast['dcs@power']:.4f} > {contrast['pm@power']:.4f}); polarization "
           f"dcs > pulse train at equal peak Rabi ({finals['dcs@rabi']:.5f} > "
           f"{finals['top_par@rabi']:.5f}) and equal power ({finals['dcs@power']:.5f} "
           f"> {finals['top_par@power']:.5f})")
    assert passed


# ---------------------------------------------------------------------------
# 6. robustness
# ---------------------------------------------------------------------------

def test_criterion_6_robustness():
    # (a) relative on-resonance signal change under a 1% amplitude error
    ideal, erred = run_preset("fig4b", workers=1)
    rel_change = {}
    for key in ("dcs", "pm", "topdnp"):
        a, b = float(ideal.column(key)[-1]), float(erred.column(key)[-1])
        rel_change[key] = abs(b - a) / abs(a)
    ordering_ok = (rel_change["dcs"] < rel_change["pm"]
                   and rel_change["dcs"] < rel_change["topdnp"])

    # (b) the dip shift follows duty_asymmetry * delta * omega_max
    system = carbon13_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    delta = 0.01
    grid = omega_n + np.linspace(-TWO_PI * 3e3, TWO_PI * 3e3, 61)
    dips = {}
    for err in (0.0, delta):
        res = run_dcs_sensing(system, RABI_FIG2, grid, SENSING_TIME_FIG2,
                              amplitude_error=err)
        dips[err], _ = refine_extremum(grid, res.column("sigma_z"), "min")
    shift = abs(dips[delta] - dips[0.0])
    predicted = (RABI_FIG2 / omega_n) * delta * RABI_FIG2
    shift_ok = abs(shift - predicted) <= 0.2 * predicted

    # (c) ramp and phase-offset insensitivity of the on-resonance signal
    from dcspin import run_dcs_dnp
    from dcspin.presets import RABI_FIG3_MATCHED, TOTAL_TIME_FIG3, proton_system
    proton = proton_system()
    omega_h = nuclear_frequency(proton.nuclei[0], proton.field_z)
    times = np.linspace(0.0, TOTAL_TIME_FIG3, 41)
    base = run_dcs_dnp(proton, RABI_FIG3_MATCHED, omega_h, times)
    ramped = run_dcs_dnp(proton, RABI_FIG3_MATCHED, omega_h, times,
                         switch_fraction=0.14)
    offset = run_dcs_dnp(proton, RABI_FIG3_MATCHED, omega_h, times,
                         t_initial="zero")
    p0 = float(base.column("nuclear_polarization")[-1])
    ramp_change = abs(float(ramped.column("nuclear_polarization")[-1]) - p0) / abs(p0)
    offset_change = abs(float(offset.column("nuclear_polarization")[-1]) - p0) / abs(p0)
    insensitive_ok = ramp_change < 0.05 and offset_change < 0.05

    passed = ordering_ok and shift_ok and insensitive_ok
    report("6 (robustness)", passed,
           f"relative change dcs {rel_change['dcs']:.4f} < pm {rel_change['pm']:.4f} "
           f"and < pulse train {rel_change['topdnp']:.4f}; dip shift "
           f"{shift / TWO_PI:.1f} Hz vs predicted {predicted / TWO_PI:.1f} Hz "
           f"(tol 20%); ramp change {ramp_change:.4f} and phase-offset change "
           f"{offset_change:.4f} < 5%")
    assert passed


# ---------------------------------------------------------------------------
# 7. numerical hygiene
# ---------------------------------------------------------------------------

def test_criterion_7_numerical_hygiene():
    system = carbon13_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    from dcspin import build_dcs_waveform
    w = build_dcs_waveform(RABI_FIG2, omega_n)

    # unitarity of every cached segment exponential
    cache = _UnitaryCache(lambda omegas: build_hamiltonian(system, np.asarray(omegas)))
    defects = []
    for key in (w.omega_max, -w.omega_max):
        for dur in (w.tau_plus, w.tau_minus, 1e-12, 1e-3):
            u = _slice_unitaries(*cache.eigenpairs([key]), np.array([dur]))[0]
            defects.append(np.max(np.abs(u.conj().T @ u - np.eye(4))))
    unitarity = max(defects)

    # trace drift over 1e6 sequential steps (density representation)
    n_periods = 500_000  # two segments per period
    T = n_periods * w.period
    policy = IntegrationPolicy(fast_forward=False, unitarity_check_interval=10**7)
    rho0 = QuantumState.from_density(initial_state("sensing", system).density_matrix())
    schedule_steps = 2 * n_periods

    def hamiltonians_of(omegas):
        return build_hamiltonian(system, np.asarray(omegas))

    from dcspin.dynamics import compile_waveform
    traj = propagate_compiled(hamiltonians_of, compile_waveform(w, policy), rho0,
                              [T], policy, standard_observables(system))
    rho = traj.final_state.density_matrix()
    trace_drift = abs(np.trace(rho).real - 1.0)

    # step halving on the ramped millisecond configuration
    from dcspin.presets import RABI_FIG3_MATCHED, proton_system
    proton = proton_system()
    omega_h = nuclear_frequency(proton.nuclei[0], proton.field_z)
    wr = build_dcs_waveform(RABI_FIG3_MATCHED, omega_h, switch_fraction=0.14)
    state = initial_state("sensing", proton)
    finals = [propagate(proton, wr, state, 1e-3,
                        policy=IntegrationPolicy(ramp_substeps=n)
                        ).observables["I_z[1]"][-1] for n in (64, 128)]
    halving = abs(finals[1] - finals[0])

    # Magnus-oracle agreement (short horizon; criterion 4 covers 0.5 ms)
    nu_star = fit_dcs_resonance(system, RABI_FIG2, SENSING_TIME_FIG2, omega_n,
                                TWO_PI * 3e3)
    wm = build_dcs_waveform(RABI_FIG2, nu_star)
    times = np.linspace(0.0, 0.5e-3, 201)
    traj_m = propagate(system, wm, initial_state("sensing", system), times[-1],
                       sample_times=times)
    a_x = system.nuclei[0].hyperfine_x
    model = np.array([effective_flipflop_signal(RABI_FIG2, nu_star, a_x, t)
                      for t in times])
    magnus_dev = float(np.max(np.abs(traj_m.observables["sigma_z"] - model)))

    # eta * J factorization against the direct integral
    rng = np.random.default_rng(3)
    fact_worst = 0.0
    for _ in range(20):
        wf = DcsWaveform(rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0),
                         rng.uniform(0.3, 1.5), t_initial=rng.uniform(-1, 1))
        omega_r = rng.uniform(2.0, 12.0)
        n = int(rng.integers(2, 60))
        g = coupling_factor(wf, omega_r, n * wf.period)
        eta_j = (coherence_factor(phase_per_period(wf, omega_r), n)
                 * period_coupling_factor(wf, omega_r))
        fact_worst = max(fact_worst, abs(g - eta_j))

    passed = (unitarity < 1e-10 and trace_drift < 1e-9 and halving < 1e-8
              and magnus_dev < 0.02 and fact_worst < 1e-8)
    report("7 (numerical hygiene)", passed,
           f"segment unitarity {unitarity:.1e} < 1e-10; trace drift {trace_drift:.1e} "
           f"< 1e-9 over {schedule_steps:.0e} steps; step halving {halving:.1e} < 1e-8; "
           f"Magnus agreement {magnus_dev:.4f} < 0.02; factorization {fact_worst:.1e} < 1e-8")
    assert passed


# ---------------------------------------------------------------------------
# 8. two-spin exchange model
# ---------------------------------------------------------------------------

def test_criterion_8_two_spin_transfer_rate():
    omega_n = angular_from_mhz(10.0)
    omega = angular_from_mhz(1.0)
    tau_plus, tau_minus = optimal_dwell_times(omega, omega_n)
    w = DcsWaveform(omega, tau_plus, tau_minus, t_initial=-tau_plus / 2)
    g = 2 * omega / (np.pi * omega_n)
    worst = 0.0
    details = []
    for frac in (1e-3, 5e-4):
        a = frac * omega_n
        rate_pred = g * a
        vec = np.zeros(4, dtype=complex)
        vec[1] = 1.0  # electron-like spin up, partner down
        times = np.linspace(0.0, 2.5 * np.pi / rate_pred, 601)
        traj = propagate_spin_pair(w, omega_n, a, QuantumState.pure(vec),
                                   times[-1], sample_times=times)
        iz = traj.observables["I_z[1]"]

        def loss(c, iz=iz, times=times):
            return float(np.sum((iz + 0.5 * np.cos(2 * c * times)) ** 2))

        fit = minimize_scalar(loss, bracket=(0.7 * rate_pred, rate_pred,
                                             1.3 * rate_pred)).x
        rel = abs(fit - rate_pred) / rate_pred
        worst = max(worst, rel)
        details.append(f"a/omega_n = {frac:g}: fit {fit:.2f} vs |g a| = "
                       f"{rate_pred:.2f} rad/s (rel {rel:.2e})")
    passed = worst < 0.05
    report("8 (two-spin transfer rate)", passed,
           "; ".join(details) + "; tol 5%")
    assert passed
