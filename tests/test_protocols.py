import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dcspin import (
    IntegrationPolicy,
    Nucleus,
    ProtocolSpec,
    PulseTrain,
    QuantumState,
    SpinSystem,
    angular_from_khz,
    angular_from_mhz,
    apply_amplitude_error,
    build_dcs_waveform,
    build_hamiltonian,
    build_pm_waveform,
    effective_field_topdnp,
    effective_flipflop_signal,
    expectation,
    initial_state,
    nuclear_frequency,
    propagate,
    run_dcs_dnp,
    run_dcs_sensing,
    solve_topdnp_detuning,
    topdnp_average_power,
)
from dcspin import dynamics, presets, protocols, spincore
from dcspin.dynamics import PropagationError, Trajectory, standard_observables
from dcspin.protocols import _reset_electron, pm_resonant_period, run_sweep
from dcspin.spincore import _ELECTRON_VECTORS, SIGMA_Z, InitialStateKind
from dcspin.sweep import SweepResult, parallel_map

TWO_PI = 2 * np.pi


@pytest.fixture
def proton():
    a = angular_from_khz(0.5)
    return SpinSystem(field_z=0.35,
                      nuclei=(Nucleus(angular_from_mhz(42.5775), a, a, "1H"),))


# ---------------------------------------------------------------------------
# ProtocolSpec and amplitude errors
# ---------------------------------------------------------------------------

def test_spec_requires_kind_fields():
    with pytest.raises(ValueError):
        ProtocolSpec(kind="dcs")  # no omega_max
    with pytest.raises(ValueError):
        ProtocolSpec(kind="pm", omega0=1.0)  # no omega1
    with pytest.raises(ValueError):
        ProtocolSpec(kind="nope", omega_max=1.0)
    with pytest.raises(ValueError):
        ProtocolSpec(kind="dcs", omega_max=1.0, amplitude_error=-1.0)


def test_apply_amplitude_error_identity():
    spec = ProtocolSpec(kind="dcs", omega_max=angular_from_mhz(1.0))
    assert apply_amplitude_error(spec, 0.0) == spec


def test_amplitude_error_scales_dcs_drive_not_timing():
    omega = angular_from_mhz(1.0)
    nu = angular_from_mhz(10.713)
    spec = apply_amplitude_error(ProtocolSpec(kind="dcs", omega_max=omega), 0.01)
    w = build_dcs_waveform(spec.omega_max, nu, amplitude_error=spec.amplitude_error)
    ideal = build_dcs_waveform(omega, nu)
    assert w.omega_max == pytest.approx(1.01 * omega, rel=1e-15)
    assert w.tau_plus == ideal.tau_plus and w.tau_minus == ideal.tau_minus


def test_amplitude_error_scales_pm_both_amplitudes():
    omega0, omega1 = angular_from_mhz(0.5), angular_from_mhz(0.4)
    nu = angular_from_mhz(10.0)
    w = build_pm_waveform(omega0, omega1, nu, amplitude_error=0.01)
    assert w.omega0 == pytest.approx(1.01 * omega0, rel=1e-15)
    assert w.omega1 == pytest.approx(1.01 * omega1, rel=1e-15)
    assert w.period == pytest.approx(pm_resonant_period(omega0, nu), rel=1e-15)


def test_t_initial_modes():
    omega, nu = angular_from_mhz(1.0), angular_from_mhz(10.0)
    sym = build_dcs_waveform(omega, nu)
    assert sym.t_initial == pytest.approx(-sym.tau_plus / 2, rel=1e-15)
    zero = build_dcs_waveform(omega, nu, t_initial="zero")
    assert zero.t_initial == 0.0
    frac = build_dcs_waveform(omega, nu, t_initial=0.25)
    assert frac.t_initial == pytest.approx(0.25 * frac.period, rel=1e-15)


# ---------------------------------------------------------------------------
# DCS sensing and DNP
# ---------------------------------------------------------------------------

def test_sensing_grid_must_exceed_rabi(carbon_system, carbon_rabi):
    with pytest.raises(ValueError):
        run_dcs_sensing(carbon_system, carbon_rabi,
                        [angular_from_mhz(0.5)], T=1e-5)


def test_sensing_no_transverse_hyperfine_is_flat(carbon_rabi):
    system = SpinSystem(field_z=1.0,
                        nuclei=(Nucleus(angular_from_mhz(10.7), 0.0,
                                        angular_from_khz(17.09)),))
    omega_n = nuclear_frequency(system.nuclei[0], 1.0)
    grid = omega_n + TWO_PI * np.linspace(-5e3, 5e3, 7)
    res = run_dcs_sensing(system, carbon_rabi, grid, T=0.308e-3)
    assert np.min(res.column("sigma_z")) > 0.99


def test_sensing_off_resonance_signal_near_one(carbon_system, carbon_rabi):
    omega_n = nuclear_frequency(carbon_system.nuclei[0], 1.0)
    grid = omega_n + TWO_PI * np.array([-3e5, -1e5, 1e5, 3e5])
    res = run_dcs_sensing(carbon_system, carbon_rabi, grid, T=0.308e-3)
    assert np.min(res.column("sigma_z")) > 0.98


def test_dnp_starts_at_zero_and_follows_sine_law(proton):
    omega = angular_from_mhz(2.0)
    omega_n = nuclear_frequency(proton.nuclei[0], proton.field_z)
    times = np.linspace(0.0, 1e-3, 21)
    res = run_dcs_dnp(proton, omega, omega_n, times)
    pol = res.column("nuclear_polarization")
    assert pol[0] == 0.0
    a_x = proton.nuclei[0].hyperfine_x
    model = 1.0 - np.array([effective_flipflop_signal(omega, omega_n, a_x, t)
                            for t in times])
    npt.assert_allclose(pol, model, atol=2e-5)


def test_dnp_phase_offset_insensitivity(proton):
    """Symmetric vs zero waveform anchoring changes the signal below 1%."""
    omega = angular_from_mhz(2.0) * np.sqrt(56.0 / 84.0)
    omega_n = nuclear_frequency(proton.nuclei[0], proton.field_z)
    times = np.linspace(0.0, 1e-3, 21)
    sym = run_dcs_dnp(proton, omega, omega_n, times, t_initial="symmetric")
    zero = run_dcs_dnp(proton, omega, omega_n, times, t_initial="zero")
    a = sym.column("nuclear_polarization")[-1]
    b = zero.column("nuclear_polarization")[-1]
    assert abs(b - a) / abs(a) < 0.01


def test_dnp_detuned_transfer_suppressed(proton):
    omega = angular_from_mhz(2.0)
    omega_n = nuclear_frequency(proton.nuclei[0], proton.field_z)
    times = np.linspace(0.0, 1e-3, 41)
    res = run_dcs_dnp(proton, omega, omega_n + TWO_PI * 50e3, times)
    assert np.max(np.abs(res.column("nuclear_polarization"))) < 0.05


def test_dnp_reset_flag(carbon_system, carbon_rabi):
    omega_n = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    times = np.linspace(0.0, 0.2e-3, 9)
    plain = run_dcs_dnp(carbon_system, carbon_rabi, omega_n, times)
    noop = run_dcs_dnp(carbon_system, carbon_rabi, omega_n, times, reset_every=1.0)
    npt.assert_allclose(noop.column("nuclear_polarization"),
                        plain.column("nuclear_polarization"), atol=1e-10)
    # sampling just after a reset: the electron is repolarized while the
    # nuclear polarization carries over
    times = np.array([0.0, 0.9e-4, 1.0e-4, 1.02e-4, 2.0e-4])
    reset = run_dcs_dnp(carbon_system, carbon_rabi, omega_n, times, reset_every=1.0e-4)
    plain = run_dcs_dnp(carbon_system, carbon_rabi, omega_n, times)
    # (the ~0.005 residual is prompt micromotion re-excited by the projection)
    assert reset.column("sigma_z")[3] > 0.99
    assert plain.column("sigma_z")[3] < 0.97
    assert reset.column("nuclear_polarization")[3] == pytest.approx(
        reset.column("nuclear_polarization")[2], abs=1e-3)


def test_reset_reprojects_onto_the_initial_electron_state(carbon_system, carbon_rabi):
    """Just after a reset the electron is back in its prepared state: |+>
    (sigma_z = 1) for sensing, the lab-frame |1> (sigma_z = 0) for
    topdnp_parallel."""
    omega_n = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    times = np.array([0.0, 0.9e-4, 1.0e-4 + 1e-9])
    for kind, sigma_z in (("sensing", 1.0), ("topdnp_parallel", 0.0)):
        spec = ProtocolSpec("dcs", kind, omega_max=carbon_rabi, reset_every=1.0e-4)
        res = run_sweep(carbon_system, spec, "T", times, point=omega_n)
        assert res.column("sigma_z")[0] == pytest.approx(sigma_z, abs=1e-12)
        assert res.column("sigma_z")[2] == pytest.approx(sigma_z, abs=1e-3)
        assert res.metadata == {"reset_every_s": 1.0e-4}


def _density_reset(rho, electron):
    """|e><e| (x) Tr_e rho, the density-matrix formula of the electron reset."""
    dim_n = rho.shape[0] // 2
    blocks = rho.reshape(2, dim_n, 2, dim_n)
    return np.kron(np.outer(electron, electron.conj()), blocks[0, :, 0, :] + blocks[1, :, 1, :])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), n_branches=st.integers(1, 17), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["sensing", "topdnp_parallel"]))
def test_branch_reset_equals_the_density_formula(n, n_branches, seed, kind):
    rng = np.random.default_rng(seed)
    psi = (rng.standard_normal((2 * 2 ** n, n_branches))
           + 1j * rng.standard_normal((2 * 2 ** n, n_branches)))
    weights = rng.uniform(0.0, 1.0, n_branches)
    state = QuantumState.mixture(weights / weights.sum(), psi / np.linalg.norm(psi, axis=0))
    electron = _ELECTRON_VECTORS[InitialStateKind(kind)]
    reset = _reset_electron(state, electron)
    reset_weights, reset_vectors = reset.branches
    assert reset_vectors.shape[1] <= 2 ** n
    assert reset_weights.sum() == pytest.approx(1.0, abs=1e-15)
    npt.assert_allclose(reset.density_matrix(), _density_reset(state.density_matrix(), electron),
                        rtol=0, atol=1e-13)


def _density_reset_loop(system, w, T_grid, reset_every):
    """The reset loop as it ran on density matrices before the branch form."""
    electron = _ELECTRON_VECTORS[InitialStateKind.SENSING]
    obs = standard_observables(system)
    t_end = T_grid[-1]
    resets = np.arange(reset_every, t_end, reset_every)
    gap = np.abs(resets[:, None] - T_grid)  # a reset within rounding of a sample is at it
    resets = np.where(gap.min(axis=1) <= 1e-15 * t_end, T_grid[gap.argmin(axis=1)], resets)
    events = sorted({float(t) for t in np.concatenate([T_grid, resets]) if t > 0})
    samples = {float(t) for t in T_grid}
    rho = initial_state("sensing", system).density_matrix()
    rows = [[expectation(QuantumState.from_density(rho), o) for o in obs]]
    t_now = 0.0
    for t in events:
        w_seg = replace(w, t_initial=w.t_initial - t_now)
        traj = propagate(system, w_seg, QuantumState.from_density(rho), t - t_now,
                         sample_times=[t - t_now])
        rho = traj.final_state.density_matrix()
        if t in samples:
            rows.append([series[-1] for series in traj.observables.values()])
        if np.any(np.isclose(t, resets, rtol=0, atol=1e-15 * t_end)) and t < t_end:
            rho = _density_reset(rho, electron)
        t_now = t
    return {o.name: np.array(rows)[:, i] for i, o in enumerate(obs)}


def _two_nuclei(carbon_system):
    second = Nucleus(angular_from_mhz(10.6), angular_from_khz(30.0), angular_from_khz(8.0))
    return SpinSystem(field_z=1.0, nuclei=(*carbon_system.nuclei, second))


def test_dnp_resets_match_the_density_loop(carbon_system, carbon_rabi):
    system = _two_nuclei(carbon_system)
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    times = np.linspace(0.0, 0.1e-3, 6)
    res = run_dcs_dnp(system, carbon_rabi, omega_n, times, reset_every=0.03e-3)
    reference = _density_reset_loop(system, build_dcs_waveform(carbon_rabi, omega_n), times,
                                    0.03e-3)
    for name, values in reference.items():
        npt.assert_allclose(res.column(name), values, rtol=0, atol=1e-12, err_msg=name)


def test_dnp_resets_sampled_only_at_t0_read_the_initial_state(carbon_system, carbon_rabi):
    omega_n = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    res = run_dcs_dnp(carbon_system, carbon_rabi, omega_n, [0.0], reset_every=0.03e-3)
    assert res.column("sigma_z").tolist() == [1.0]
    assert res.column("I_z[1]").tolist() == [0.0]


def test_a_sample_at_a_reset_time_reads_the_state_before_the_reset(carbon_system,
                                                                    carbon_rabi):
    """np.linspace puts 0.06 ms 6.8e-21 s after np.arange's second reset; the
    table must not depend on that last bit."""
    system = _two_nuclei(carbon_system)
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    times = np.linspace(0.0, 0.1e-3, 6)
    resets = np.arange(0.03e-3, times[-1], 0.03e-3)
    exact = times.copy()
    for t in resets:
        exact[np.isclose(exact, t, rtol=0, atol=1e-15 * times[-1])] = t
    assert not np.array_equal(exact, times)
    grid = run_dcs_dnp(system, carbon_rabi, omega_n, times, reset_every=0.03e-3)
    bit_exact = run_dcs_dnp(system, carbon_rabi, omega_n, exact, reset_every=0.03e-3)
    for name, values in bit_exact.columns.items():
        npt.assert_allclose(grid.column(name), values, rtol=0, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# reference: the reset loop as it stood before the chained engine, one
# propagate call per event segment
# ---------------------------------------------------------------------------

def _reference_dnp_with_resets(system, w, spec, state0, T_grid, policy):
    """(trajectory, number of segments) of the per-segment reset loop."""
    electron = _ELECTRON_VECTORS[InitialStateKind(spec.initial_state_kind)]
    obs = standard_observables(system)
    T_grid = np.asarray(T_grid, dtype=float)
    t_end = float(T_grid[-1])
    resets = np.arange(spec.reset_every, t_end, spec.reset_every)
    gap = np.abs(resets[:, None] - T_grid)
    resets = np.where(gap.min(axis=1) <= 1e-15 * t_end, T_grid[gap.argmin(axis=1)], resets)
    events = sorted({float(t) for t in np.concatenate([T_grid, resets]) if t > 0})
    at = np.array(events)
    at_reset = np.isclose(at[:, None], resets, rtol=0, atol=1e-15 * t_end).any(1) & (at < t_end)
    samples = {float(t) for t in T_grid}
    state = state0
    rows = []
    t_now = 0.0
    for t, reset in zip(events, at_reset.tolist()):
        w_seg = replace(w, t_initial=w.t_initial - t_now)
        traj = propagate(system, w_seg, state, t - t_now, policy, sample_times=[t - t_now])
        state = traj.final_state
        series = traj.observables.values()  # sampled at t_now and t
        if t_now == 0.0 and 0.0 in samples:
            rows.append([s[0] for s in series])
        if t in samples:
            rows.append([s[-1] for s in series])
        if reset:
            state = _reset_electron(state, electron)
        t_now = t
    table = np.asarray(rows, dtype=float)
    return Trajectory(times=T_grid, final_state=state, observables={
        o.name: table[:, i] for i, o in enumerate(obs)}), len(events)


def _quadratic_segments(reset_every, sample_times):
    """The reset run's segment plan as protocols._segments formed it with a
    (resets x samples) gap matrix and a (segments x resets) isclose."""
    t_end = float(sample_times[-1])
    resets = np.arange(reset_every, t_end, reset_every)
    gap = np.abs(resets[:, None] - sample_times)
    resets = np.where(gap.min(axis=1) <= 1e-15 * t_end, sample_times[gap.argmin(axis=1)], resets)
    at = np.array(sorted({float(t) for t in np.concatenate([sample_times, resets]) if t > 0}))
    at_reset = np.isclose(at[:, None], resets, rtol=0, atol=1e-15 * t_end).any(1) & (at < t_end)
    return np.stack([np.concatenate([[0.0], at[:-1]]), at]), at_reset


@st.composite
def segment_plans(draw):
    """(reset_every, sample times): increasing times up to 1e-9..1 s, some
    within 8 ulps of a reset (on both sides of one, at times), and 0 to
    about 400 resets."""
    t_end = draw(st.floats(1e-9, 1.0))
    reset_every = t_end / draw(st.floats(0.5, 400.0))
    resets = np.arange(reset_every, t_end, reset_every)
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    near = [resets[k % len(resets)] + ulps * np.spacing(resets[k % len(resets)])
            for k, ulps in draw(st.lists(st.tuples(st.integers(0, 400), st.integers(-8, 8)),
                                         max_size=12 if len(resets) else 0))]
    times = np.unique(np.concatenate([np.asarray(fractions) * t_end, near, [t_end]]))
    return reset_every, times[(times >= 0) & (times <= t_end)]


@settings(max_examples=300, deadline=None)
@given(segment_plans())
def test_the_segment_plan_equals_the_quadratic_formula_bit_for_bit(case):
    reset_every, times = case
    bounds, at_reset = protocols._segments(reset_every, times)
    old_bounds, old_at_reset = _quadratic_segments(reset_every, times)
    assert bounds.tobytes() == old_bounds.tobytes()
    assert at_reset.tolist() == old_at_reset.tolist()


def test_the_segment_plan_takes_linear_memory_and_bounds_the_resets():
    """9,999 resets over 201 samples plan in well under 20 MB (the
    quadratic plan peaked at 916 MB); past MAX_SLICES resets, it raises
    before listing them."""
    times = np.linspace(0.0, 1e-3, 201)
    tracemalloc.start()
    try:
        bounds, at_reset = protocols._segments(1e-3 / 10_000, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert at_reset.sum() == 9_999 and bounds.shape == (2, 10_000)
    assert peak < 20e6
    with pytest.raises(ValueError, match="more than 10000 resets"):
        protocols._segments(1e-12, times)


#: a stack budget of 600 bytes holds at most 3 slices of dimension 2, so a
#: chain of more than 3 segments (of any dimension) spans several calls
_SMALL_STACK = 600


@st.composite
def reset_runs(draw):
    """(system, spec, point, times, policy, stack bytes): DCS DNP on 0-2 1H
    nuclei, square or ramped, with resets every 0.3-7.3 periods (drawn, so
    not commensurate with the period) and 1-12 samples within 6 reset
    intervals, some of them on reset times, with or without t = 0."""
    khz = st.floats(0.2, 20.0)
    system = SpinSystem(field_z=0.35, nuclei=tuple(
        Nucleus(angular_from_mhz(42.5775), angular_from_khz(draw(khz)),
                angular_from_khz(draw(khz)), "1H") for _ in range(draw(st.integers(0, 2)))))
    rabi, point = angular_from_mhz(2.0), angular_from_mhz(draw(st.floats(14.0, 15.5)))
    reset_every = build_dcs_waveform(rabi, point).period * draw(st.floats(0.3, 7.3))
    spec = ProtocolSpec("dcs", "dnp_dcs", omega_max=rabi, reset_every=reset_every,
                        switch_fraction=draw(st.sampled_from([0.0, 0.15])),
                        t_initial=draw(st.sampled_from(["symmetric", "zero", 0.3])))
    fractions = draw(st.lists(st.floats(0.01, 6.0), min_size=1, max_size=12))
    on_resets = draw(st.lists(st.integers(1, 5), max_size=3))
    times = np.unique(np.concatenate([np.asarray(fractions) * reset_every,
                                      np.asarray(on_resets, dtype=float) * reset_every]))
    if draw(st.booleans()):
        times = np.concatenate([[0.0], times])
    policy = IntegrationPolicy(ramp_substeps=draw(st.integers(1, 4)),
                               unitarity_check_interval=draw(st.sampled_from([1, 3, 1000])),
                               fast_forward=draw(st.booleans()))
    stack_bytes = draw(st.sampled_from([dynamics.STACK_BYTES, _SMALL_STACK]))
    return system, spec, point, times, policy, stack_bytes


@settings(max_examples=40, deadline=None)
@given(reset_runs())
def test_chained_resets_equal_the_per_segment_loop_bit_for_bit(case):
    """The chain takes every step of every segment that the per-segment loop
    takes, normalizes and resets at the same points, and samples the same
    states, whether its segments share one _evolve call or span several."""
    system, spec, point, times, policy, stack_bytes = case
    old, segments = _reference_dnp_with_resets(system, protocols._waveform(spec, point), spec,
                                               initial_state("dnp_dcs", system), times, policy)
    evolve, sizes = protocols._evolve, []

    def counted(hamiltonian_of, schedules, *args, **kwargs):
        sizes.append(len(schedules))
        return evolve(hamiltonian_of, schedules, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "STACK_BYTES", stack_bytes)
        patch.setattr(protocols, "_evolve", counted)
        new = protocols._trajectory(system, spec, point, times, policy)
    assert sum(sizes) == segments
    if stack_bytes == _SMALL_STACK:
        assert max(sizes) <= 3
    assert np.array_equal(new.times, old.times)
    assert list(new.observables) == list(old.observables)
    for name, series in old.observables.items():
        assert np.array_equal(new.observables[name], series), name
    assert np.array_equal(new.final_state.density_matrix(), old.final_state.density_matrix())


def test_a_failure_in_a_reset_run_names_the_time_of_the_run(monkeypatch, carbon_system,
                                                            carbon_rabi):
    """Samples at 10 and 20 us come before the first reset at 25 us.  A reset
    whose branches come out 5e-13 too long fails the state check at the
    next sample, the start of the segment after it, and the error names that
    time of the run, not the segment's own t = 0."""
    reset = protocols._reset_electron

    def long_reset(state, electron):
        weights, vectors = reset(state, electron).branches
        return QuantumState.mixture(weights, vectors * (1 + 5e-13))

    monkeypatch.setattr(protocols, "_reset_electron", long_reset)
    omega_n = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    with pytest.raises(PropagationError, match="^state drift ") as info:
        run_dcs_dnp(carbon_system, carbon_rabi, omega_n, [0.0, 10e-6, 20e-6, 40e-6],
                    IntegrationPolicy(tolerance=1e-13), reset_every=25e-6)
    assert str(info.value).endswith("at sample t = 2.500000e-05")


def test_a_drift_error_names_the_grid_point_of_a_later_stack(monkeypatch, proton_cluster):
    """At d = 64 a symmetric square drive has three slices a period, so a
    9-point amplitude-error sweep runs as stacks of 2 points.  Only grid
    point 7, point 1 of the fourth stack, leaks norm (its +omega_max slice
    unitaries are scaled by 1 + 1e-6), so the error names grid point 7 and
    its sweep value, not point 1."""
    spec = ProtocolSpec("dcs", omega_max=angular_from_mhz(2.0))
    omega_n = nuclear_frequency(proton_cluster.nuclei[0], proton_cluster.field_z)
    grid, T, policy = np.linspace(-0.02, 0.02, 9), 1e-6, IntegrationPolicy()
    stacks = protocols._stacks(proton_cluster, [(apply_amplitude_error(spec, d), omega_n)
                                                for d in grid], T, policy)
    assert [len(stack[3]) for stack in stacks] == [2, 2, 2, 2, 1]
    leaky = spec.omega_max * (1 + apply_amplitude_error(spec, grid[7]).amplitude_error)
    target = np.linalg.eigh(build_hamiltonian(proton_cluster, leaky).matrix)[0]
    unitaries = dynamics._slice_unitaries

    def leaking(vals, vecs, durations):
        u = unitaries(vals, vecs, durations)
        return np.where((vals == target).all(-1)[:, None, None], u * (1 + 1e-6), u)

    monkeypatch.setattr(dynamics, "_slice_unitaries", leaking)
    with pytest.raises(PropagationError, match="^state drift ") as info:
        run_sweep(proton_cluster, spec, "amplitude_error", grid, T=T, point=omega_n,
                  policy=policy, workers=1)
    assert str(info.value).endswith("at grid point 7 (amplitude_error = 0.015) "
                                    "at sample t = 1.000000e-06")


def _load_tracing(monkeypatch):
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_fig3a_decomposes_each_pulse_train_key_once(monkeypatch):
    """A serial fig3a run shares one key table between its parallel and
    perpendicular pulse-train sweeps: 604 4x4 decompositions (2 switching
    keys and 602 pulse-train keys, built as one stack for their eigh call)
    and the 18 2x2 ones of solve_topdnp_detuning, 622 in all."""
    tracing = _load_tracing(monkeypatch)
    eigh, sizes, builds = np.linalg.eigh, [], []

    def counted_eigh(a, *args, **kwargs):
        sizes.append((np.shape(a)[-1], np.size(a) // np.shape(a)[-1] ** 2))
        return eigh(a, *args, **kwargs)

    build = protocols._pulse_train_hamiltonians
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(protocols, "_pulse_train_hamiltonians",
                        lambda system, keys: builds.append(len(keys)) or build(system, keys))
    with tracing.Tracer() as tracer:
        presets.run_preset("fig3a", 1)
    assert tracer.totals()["dynamics.eigh"]["calls"] == len(sizes)
    assert sorted(n for d, n in sizes if d == 4) == [2, 602]
    assert sum(n for d, n in sizes if d == 2) == 18
    assert sum(n for _, n in sizes) == 622
    assert builds == [602]
    assert tracing.leftover_wrappers() == []


def test_run_sweep_rejects_what_a_kind_cannot_sweep(carbon_system, carbon_rabi):
    dcs = ProtocolSpec("dcs", omega_max=carbon_rabi)
    with pytest.raises(ValueError, match="does not apply"):
        run_sweep(carbon_system, dcs, "detuning", [1.0], T=1e-5)
    with pytest.raises(ValueError, match="operating point"):
        run_sweep(carbon_system, dcs, "T", [1e-5])
    with pytest.raises(ValueError, match="needs T"):
        run_sweep(carbon_system, dcs, "nu", [angular_from_mhz(10.7)])
    with pytest.raises(ValueError, match="reset_every"):
        ProtocolSpec("pm", omega0=1.0, omega1=1.0, reset_every=1e-4)


def test_run_sweep_rejects_an_empty_grid(carbon_system, carbon_rabi):
    dcs = ProtocolSpec("dcs", omega_max=carbon_rabi)
    nu = angular_from_mhz(10.7)
    with pytest.raises(ValueError, match="at least one grid value"):
        run_sweep(carbon_system, dcs, "nu", [], T=1e-3)
    with pytest.raises(ValueError, match="at least one grid value"):
        run_sweep(carbon_system, dcs, "T", [], point=nu)
    with pytest.raises(ValueError, match="at least one grid value"):
        run_sweep(carbon_system, dcs, "amplitude_error", [], T=1e-3, point=nu)


def test_spec_resolves_the_initial_state_default():
    assert ProtocolSpec("dcs", omega_max=1.0).initial_state_kind == "sensing"
    assert ProtocolSpec("topdnp", rabi=1.0, pulse_len=1e-8,
                        delay=1e-8).initial_state_kind == "topdnp_parallel"
    assert ProtocolSpec("constant", "dnp_dcs", omega_e=1.0).initial_state_kind == "dnp_dcs"


# ---------------------------------------------------------------------------
# PM protocol
# ---------------------------------------------------------------------------

def test_pm_zero_modulation_is_flat(carbon_system):
    omega0 = angular_from_mhz(0.5)
    grid = TWO_PI * np.linspace(10.6e6, 10.83e6, 5)
    res = run_sweep(carbon_system, ProtocolSpec("pm", omega0=omega0, omega1=0.0), "nu", grid,
                    T=0.308e-3)
    sz = res.column("sigma_z")
    npt.assert_allclose(sz, sz[0], atol=1e-9)


def test_pm_against_independent_two_segment_stepper(carbon_system):
    """Regression: the modulated-splitting waveform equals a direct two-level
    alternation, stepped here with scipy's expm."""
    omega0 = omega1 = angular_from_mhz(0.5)
    omega_n = nuclear_frequency(carbon_system.nuclei[0], 1.0)
    w = build_pm_waveform(omega0, omega1, omega_n)
    n_periods = 200
    T = n_periods * w.period
    res = run_sweep(carbon_system, ProtocolSpec("pm", omega0=omega0, omega1=omega1), "T",
                    [0.0, T], point=omega_n)

    u_hi = expm(-1j * build_hamiltonian(carbon_system, omega0 + omega1).matrix
                * (w.period / 2))
    u_lo = expm(-1j * build_hamiltonian(carbon_system, omega0 - omega1).matrix
                * (w.period / 2))
    u_period = u_lo @ u_hi
    rho = initial_state("sensing", carbon_system).density_matrix()
    u_total = np.linalg.matrix_power(u_period, n_periods)
    rho_t = u_total @ rho @ u_total.conj().T
    sz = np.trace(rho_t @ np.kron(SIGMA_Z, np.eye(2))).real
    assert res.column("sigma_z")[-1] == pytest.approx(sz, abs=1e-10)


# ---------------------------------------------------------------------------
# TOP-DNP pulse train
# ---------------------------------------------------------------------------

def test_modulation_frequency_value():
    train = PulseTrain(angular_from_mhz(2.0), 56e-9, 28e-9, 0.0)
    assert train.modulation_frequency == pytest.approx(TWO_PI / 84e-9, rel=1e-15)
    assert train.modulation_frequency == pytest.approx(angular_from_mhz(11.905), rel=1e-4)


def test_pulse_train_validation():
    with pytest.raises(ValueError):
        PulseTrain(1.0, 0.0, 28e-9, 0.0)


def test_no_drive_no_transfer(proton):
    times = np.linspace(0.0, 0.1e-3, 5)
    spec = ProtocolSpec("topdnp", rabi=0.0, pulse_len=56e-9, delay=28e-9)
    res = run_sweep(proton, spec, "T", times, point=0.0)
    npt.assert_allclose(res.column("nuclear_polarization"), 0.0, atol=1e-12)


def test_effective_field_limits():
    assert effective_field_topdnp(0.0, 0.0, 56e-9, 28e-9) == 0.0
    small = TWO_PI * 1e5
    assert effective_field_topdnp(0.0, small, 56e-9, 28e-9) == pytest.approx(small, rel=1e-12)


def test_the_effective_field_decomposes_pulse_and_delay_in_one_eigh(monkeypatch):
    """Both 2x2 Hamiltonians of one period go through one key table lookup
    of dynamics, so one eigh call decomposes the pair."""
    eigh, shapes = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    effective_field_topdnp(angular_from_mhz(2.0), angular_from_mhz(2.69), 56e-9, 28e-9)
    assert shapes == [(2, 2, 2)]


def test_effective_field_against_axis_angle_composition(rng):
    """Independent oracle: compose the two rotations with the spherical
    half-angle formula instead of matrix exponentials."""
    pulse_len, delay = 56e-9, 28e-9
    for _ in range(20):
        rabi = TWO_PI * rng.uniform(0.1e6, 4e6)
        det = TWO_PI * rng.uniform(0.0, 4e6)
        total = np.hypot(rabi, det)
        theta_p = total * pulse_len  # rotation angle of the pulse
        theta_d = det * delay        # rotation angle of the delay (about x)
        cos_axes = det / total       # pulse axis dotted with the delay axis
        half = (np.cos(theta_p / 2) * np.cos(theta_d / 2)
                - cos_axes * np.sin(theta_p / 2) * np.sin(theta_d / 2))
        beta = 2 * np.arccos(np.clip(abs(half), 0.0, 1.0))
        expected = beta / (pulse_len + delay)
        assert effective_field_topdnp(rabi, det, pulse_len, delay) == pytest.approx(
            expected, rel=1e-10, abs=1e-4)


def test_solve_detuning_satisfies_resonance(proton):
    rabi = angular_from_mhz(2.0)
    omega_n = nuclear_frequency(proton.nuclei[0], proton.field_z)
    det = solve_topdnp_detuning(rabi, 56e-9, 28e-9, omega_n)
    omega_m = TWO_PI / 84e-9
    assert omega_m + effective_field_topdnp(rabi, det, 56e-9, 28e-9) == pytest.approx(
        omega_n, rel=1e-12)
    assert det == pytest.approx(angular_from_mhz(2.6913), rel=1e-4)


def test_topdnp_transfer_orders_of_state_preparations(proton):
    rabi = angular_from_mhz(2.0)
    omega_n = nuclear_frequency(proton.nuclei[0], proton.field_z)
    det = solve_topdnp_detuning(rabi, 56e-9, 28e-9, omega_n)
    times = np.linspace(0.0, 1e-3, 11)
    spec = ProtocolSpec("topdnp", "topdnp_parallel", rabi=rabi, pulse_len=56e-9, delay=28e-9)
    par = run_sweep(proton, spec, "T", times, point=det)
    perp = run_sweep(proton, replace(spec, initial_state_kind="topdnp_perpendicular"), "T",
                     times, point=det)
    assert par.column("nuclear_polarization")[-1] > 0
    assert perp.column("nuclear_polarization")[-1] > 0
    assert par.column("nuclear_polarization")[-1] > perp.column("nuclear_polarization")[-1]


def test_topdnp_average_power():
    assert topdnp_average_power(2.0, 56e-9, 28e-9) == pytest.approx(4.0 * 56 / 84, rel=1e-15)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_constant_protocol_runs(proton):
    times = np.linspace(0.0, 1e-5, 5)
    res = run_sweep(proton, ProtocolSpec("constant", omega_e=angular_from_mhz(1.0)), "T", times)
    assert res.column("sigma_z").shape == times.shape


def test_parallel_map_matches_serial():
    items = list(range(23))
    assert parallel_map(_square, items, workers=2) == [x * x for x in items]
    assert parallel_map(_square, items, workers=1) == [x * x for x in items]


def _square(x):
    return x * x


def _pid_after_a_nap(_):
    time.sleep(0.2)  # long enough that every worker takes one of the chunks
    return os.getpid()


def _exit_abruptly(_):
    os._exit(1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(), max_size=60))
def test_parallel_map_keeps_the_item_order_across_uneven_chunks(items):
    assert parallel_map(_square, items, workers=2) == [_square(x) for x in items]


def test_pooled_calls_reuse_one_pool():
    first = parallel_map(_pid_after_a_nap, range(2), workers=2)
    second = parallel_map(_pid_after_a_nap, range(2), workers=2)
    assert len(set(first)) == 2 and os.getpid() not in first
    assert set(second) == set(first)


def test_a_broken_pool_raises_and_the_next_call_gets_new_workers():
    before = set(parallel_map(_pid_after_a_nap, range(2), workers=2))
    with pytest.raises(BrokenProcessPool):
        parallel_map(_exit_abruptly, range(2), workers=2)
    after = set(parallel_map(_pid_after_a_nap, range(2), workers=2))
    assert len(after) == 2 and not after & before


def test_another_worker_count_replaces_the_pool():
    two = set(parallel_map(_pid_after_a_nap, range(2), workers=2))
    three = set(parallel_map(_pid_after_a_nap, range(3), workers=3))
    assert len(three) == 3 and not three & two
    for pid in two:  # the replaced pool was shut down and its workers joined
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


_TWO_POOLED_MAPS = """
import json, os, time
from dcspin.sweep import parallel_map

def pid(_):
    time.sleep(0.2)
    return os.getpid()

print(json.dumps(parallel_map(pid, range(2), 2) + parallel_map(pid, range(2), 2)))
"""


def test_no_pool_worker_outlives_its_interpreter():
    src = str(Path(parallel_map.__code__.co_filename).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _TWO_POOLED_MAPS], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    pids = set(json.loads(done.stdout))
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _clear_system_caches():
    for cached in (spincore._operators, spincore.initial_state,
                   dynamics._standard_observables):
        cached.cache_clear()


def test_parallel_sensing_matches_serial(carbon_system, carbon_rabi):
    """Rows do not depend on the worker count or on what the per-system
    caches held before the sweep."""
    omega_n = nuclear_frequency(carbon_system.nuclei[0], 1.0)
    grid = omega_n + TWO_PI * np.linspace(-2e3, 2e3, 6)

    def sweep(workers):
        return run_dcs_sensing(carbon_system, carbon_rabi, grid, T=0.05e-3,
                               workers=workers).columns

    sweep(1)
    warm = sweep(1)
    _clear_system_caches()
    cold = sweep(1)
    _clear_system_caches()
    parallel = sweep(2)
    assert list(warm) == list(cold) == list(parallel)
    for name in warm:
        npt.assert_array_equal(cold[name], warm[name])
        npt.assert_array_equal(parallel[name], warm[name])


def test_sweep_result_csv_roundtrip(tmp_path):
    res = SweepResult("demo", "x", np.array([0.1, 0.2]),
                      {"y": np.array([1.0 / 3.0, 2.0 / 3.0])}, {"note": "n"})
    path = res.write_csv(tmp_path / "demo.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == '# note = "n"'
    assert lines[1] == "x,y"
    values = [float(v) for v in lines[2].split(",")]
    assert values == [0.1, 1.0 / 3.0]  # shortest round-trip formatting is exact
    again = res.write_csv(tmp_path / "demo2.csv")
    assert again.read_bytes() == path.read_bytes()
