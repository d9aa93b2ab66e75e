import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dcspin import (
    ConstantWaveform,
    DcsWaveform,
    IntegrationPolicy,
    Nucleus,
    Observable,
    QuantumState,
    SpinSystem,
    angular_from_khz,
    angular_from_mhz,
    build_dcs_waveform,
    build_hamiltonian,
    effective_flipflop_signal,
    expectation,
    initial_state,
    magnus_effective_hamiltonian,
    nuclear_frequency,
    nucleus_from_isotope,
    optimal_dwell_times,
    ProtocolSpec,
    propagate,
    propagate_spin_pair,
    run_dcs_dnp,
    run_dcs_sensing,
)
from dcspin import dynamics, presets
from dcspin.dynamics import (
    SEGMENT_UNITARITY_TOL,
    CompiledSchedule,
    HorizonError,
    PropagationError,
    Trajectory,
    _drive_hamiltonians,
    compile_waveform,
    propagate_compiled,
    sample_grid,
    standard_observables,
)
from dcspin.protocols import (_pulse_train_hamiltonians, _schedule_rows, _trajectory,
                              pm_resonant_period)
from dcspin.spincore import (
    nuclear_x_observable,
    nuclear_z_observable,
    sigma_x_observable,
    sigma_z_observable,
)
from dcspin.waveform import ResonanceConditionError

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# trivial propagation limits
# ---------------------------------------------------------------------------

def test_zero_hamiltonian_is_identity_evolution():
    system = SpinSystem(field_z=0.0, nuclei=(Nucleus(0.0, 0.0, 0.0),))
    traj = propagate(system, ConstantWaveform(0.0), initial_state("sensing", system),
                     T=1e-3, sample_every=1e-4)
    npt.assert_allclose(traj.observables["sigma_z"], 1.0, atol=1e-14)
    npt.assert_allclose(traj.observables["I_z[1]"], 0.0, atol=1e-14)


def test_free_larmor_precession():
    omega_n = angular_from_mhz(2.0)
    system = SpinSystem(field_z=1.0, nuclei=(Nucleus(omega_n, 0.0, 0.0),))
    # nucleus along +x, electron in |+>
    vec = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2)
    times = np.linspace(0.0, 2e-6, 40)
    traj = propagate(system, ConstantWaveform(0.0), QuantumState.pure(vec),
                     T=times[-1], sample_times=times,
                     extra_observables=[nuclear_x_observable(system, 1)])
    npt.assert_allclose(traj.observables["I_x[1]"], 0.5 * np.cos(omega_n * times),
                        atol=1e-10)
    npt.assert_allclose(traj.observables["I_z[1]"], 0.0, atol=1e-12)
    npt.assert_allclose(traj.observables["sigma_z"], 1.0, atol=1e-12)


def test_sample_grid():
    npt.assert_allclose(sample_grid(1.0, 0.25), [0, 0.25, 0.5, 0.75, 1.0])
    npt.assert_allclose(sample_grid(1.0, None), [0.0, 1.0])
    grid = sample_grid(1.0, 0.3)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    with pytest.raises(ValueError):
        sample_grid(-1.0, 0.1)


# ---------------------------------------------------------------------------
# representation equivalence and sampling invariance
# ---------------------------------------------------------------------------

def test_branch_and_density_propagation_agree(carbon_system, carbon_rabi):
    nu = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    w = build_dcs_waveform(carbon_rabi, nu)
    mixture = initial_state("sensing", carbon_system)
    density = QuantumState.from_density(mixture.density_matrix())
    times = np.linspace(0.0, 30e-6, 7)
    t1 = propagate(carbon_system, w, mixture, times[-1], sample_times=times)
    t2 = propagate(carbon_system, w, density, times[-1], sample_times=times)
    for name in t1.observables:
        npt.assert_allclose(t1.observables[name], t2.observables[name], atol=1e-11)
    npt.assert_allclose(t1.final_state.density_matrix(),
                        t2.final_state.density_matrix(), atol=1e-11)


@st.composite
def densities(draw):
    """(system, rho): a random density matrix of an electron and 0-2 nuclei,
    with full rank, deficient rank, or a degenerate spectrum."""
    n = draw(st.integers(0, 2))
    spectrum = draw(st.sampled_from(["full", "deficient", "degenerate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2 * 2 ** n
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    vals = rng.uniform(0.05, 1.0, dim)
    if spectrum == "deficient":
        vals[rng.integers(1, dim):] = 0.0  # rank 1 to dim - 1
    elif spectrum == "degenerate":
        vals[:max(2, dim // 2)] = vals[0]
    rho = (q * (vals / vals.sum())) @ q.conj().T
    nuclei = tuple(Nucleus(angular_from_mhz(10.7 + 0.3 * j), angular_from_khz(13.0 + 5 * j),
                           angular_from_khz(17.0 - 4 * j)) for j in range(n))
    return SpinSystem(field_z=1.0, nuclei=nuclei), 0.5 * (rho + rho.conj().T)


def _probe_observables(system):
    return [*standard_observables(system), sigma_x_observable(system),
            *(nuclear_x_observable(system, j) for j in range(1, system.n_nuclei + 1))]


@settings(max_examples=30, deadline=None)
@given(densities())
def test_density_enters_as_its_eigendecomposition(case):
    system, rho = case
    state = QuantumState.from_density(rho)
    weights, vectors = state.branches
    assert weights.shape == (system.dimension,)  # zero-weight branches are kept
    assert np.all(weights >= 0) and weights.sum() == pytest.approx(1.0, abs=1e-14)
    npt.assert_allclose((vectors * weights) @ vectors.conj().T, rho, rtol=0, atol=1e-14)
    for obs in _probe_observables(system):
        assert expectation(state, obs) == pytest.approx(
            np.trace(rho @ obs.matrix).real, abs=1e-14), obs.name


@settings(max_examples=15, deadline=None)
@given(densities())
def test_density_propagation_matches_an_expm_reference(case):
    system, rho = case
    w = build_dcs_waveform(angular_from_mhz(1.0), angular_from_mhz(10.8))
    n_periods = 3
    traj = propagate(system, w, QuantumState.from_density(rho), n_periods * w.period)
    u = np.eye(system.dimension)
    for _ in range(n_periods):
        for piece in w.pieces():  # constant pieces, from phase 0
            u = expm(-1j * build_hamiltonian(system, piece.v0).matrix * piece.duration) @ u
    expected = u @ rho @ u.conj().T
    npt.assert_allclose(traj.final_state.density_matrix(), expected, rtol=0, atol=1e-11)
    for obs in standard_observables(system):
        assert traj.observables[obs.name][-1] == pytest.approx(
            np.trace(expected @ obs.matrix).real, abs=1e-11), obs.name


def test_sampling_does_not_change_the_evolution(carbon_system, carbon_rabi):
    nu = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    w = build_dcs_waveform(carbon_rabi, nu, switch_fraction=0.1)
    state = initial_state("sensing", carbon_system)
    T = 20e-6
    dense = propagate(carbon_system, w, state, T, sample_every=T / 137)
    sparse = propagate(carbon_system, w, state, T)
    assert dense.observables["sigma_z"][-1] == pytest.approx(
        sparse.observables["sigma_z"][-1], abs=1e-10)


@st.composite
def drives(draw, max_periods: float = 40.0):
    """(system, spec, point, times, policy): a drive of any kind on 0-2 1H
    nuclei, sampled at 1-30 times within 0.05 to ``max_periods`` periods,
    with or without t = 0."""
    khz = st.floats(0.2, 20.0)
    system = SpinSystem(field_z=0.35, nuclei=tuple(
        Nucleus(angular_from_mhz(42.5775), angular_from_khz(draw(khz)),
                angular_from_khz(draw(khz)), "1H") for _ in range(draw(st.integers(0, 2)))))
    kind = draw(st.sampled_from(["dcs", "pm", "topdnp", "constant"]))
    error = draw(st.floats(-0.05, 0.05))
    point = angular_from_mhz(draw(st.floats(14.0, 15.5)))
    rabi, pm_omega, pulse_len, delay = angular_from_mhz(2.0), angular_from_mhz(1.0), 56e-9, 28e-9
    if kind == "dcs":
        spec = ProtocolSpec("dcs", omega_max=rabi, amplitude_error=error,
                            switch_fraction=draw(st.one_of(st.just(0.0),
                                                           st.floats(0.01, 0.3))),
                            t_initial=draw(st.one_of(st.sampled_from(["symmetric", "zero"]),
                                                     st.floats(0.0, 0.99))))
        period = build_dcs_waveform(rabi, point).period
    elif kind == "pm":
        spec = ProtocolSpec("pm", omega0=pm_omega, omega1=pm_omega, amplitude_error=error)
        period = pm_resonant_period(pm_omega, point)
    elif kind == "topdnp":
        spec = ProtocolSpec("topdnp", rabi=rabi, pulse_len=pulse_len, delay=delay,
                            amplitude_error=error)
        point, period = angular_from_mhz(draw(st.floats(2.5, 2.9))), pulse_len + delay
    else:
        spec = ProtocolSpec("constant", omega_e=point, amplitude_error=error)
        point, period = None, pulse_len + delay
    periods = draw(st.lists(st.floats(0.05, max_periods), min_size=1, max_size=30))
    times = np.unique(np.asarray(periods) * period)
    if draw(st.booleans()):
        times = np.concatenate([[0.0], times])
    policy = IntegrationPolicy(
        max_step=draw(st.one_of(st.none(), st.floats(5e-9, 50e-9))),
        ramp_substeps=draw(st.integers(1, 8)),
        unitarity_check_interval=draw(st.integers(1, 4)),
        fast_forward=draw(st.booleans()))
    return system, spec, point, times, policy


def _one_point(system, spec, point, policy):
    """The stacked Hamiltonian builder of ``spec`` on ``system`` and its
    compiled schedule at ``point``: one row of _schedule_rows."""
    build = _pulse_train_hamiltonians if spec.kind == "topdnp" else _drive_hamiltonians
    return (functools.partial(build, system),
            CompiledSchedule(*_schedule_rows([(spec, point)], policy)[:3]))


def _propagate_case(case, propagator=propagate_compiled, **policy_changes) -> Trajectory:
    system, spec, point, times, policy = case
    hamiltonians_of, schedule = _one_point(system, spec, point, replace(policy, **policy_changes))
    return propagator(hamiltonians_of, schedule, initial_state(spec.initial_state_kind, system),
                      times, replace(policy, **policy_changes), standard_observables(system))


_CARBON_A_X, _CARBON_A_Z = angular_from_khz(13.42), angular_from_khz(17.09)
_CARBON = SpinSystem(field_z=1.0, nuclei=(
    Nucleus(angular_from_mhz(10.713) - 0.5 * _CARBON_A_Z, _CARBON_A_X, _CARBON_A_Z,
            label="13C"),))


@settings(max_examples=40, deadline=None)
@given(drives(max_periods=300.0))
@example((_CARBON, ProtocolSpec("dcs", omega_max=angular_from_mhz(1.0)),
          nuclear_frequency(_CARBON.nuclei[0], _CARBON.field_z), np.array([15e-6]),
          IntegrationPolicy()))
def test_fast_forward_matches_sequential(case):
    fast = _propagate_case(case, fast_forward=True)
    slow = _propagate_case(case, fast_forward=False)
    for name, series in fast.observables.items():
        npt.assert_allclose(series, slow.observables[name], rtol=0, atol=1e-11, err_msg=name)


@settings(max_examples=40, deadline=None)
@given(drives())
def test_a_trajectory_equals_the_one_point_propagation_bit_for_bit(case):
    """protocols._trajectory, a one-point stack of _stacks, gives the bits of
    propagate_compiled on the point's row at every requested time and the
    same final branches, and holds exactly the requested times, with or
    without t = 0."""
    system, spec, point, times, policy = case
    trajectory, reference = _trajectory(system, spec, point, times, policy), _propagate_case(case)
    skip = len(reference.times) - len(times)  # the t = 0 row, when not asked for
    assert np.array_equal(trajectory.times, times)
    assert list(trajectory.observables) == list(reference.observables)
    for name, series in reference.observables.items():
        assert np.array_equal(trajectory.observables[name], series[skip:]), name
    for ours, theirs in zip(trajectory.final_state.branches, reference.final_state.branches):
        assert np.array_equal(ours, theirs)


# ---------------------------------------------------------------------------
# reference: the propagation loop as it stood before the stacked engine, one
# sample span and one slice at a time, with its own unitary cache
# ---------------------------------------------------------------------------

class _ReferenceCache:
    def __init__(self, hamiltonian_of):
        self._hamiltonian_of = hamiltonian_of
        self._eigs, self._unitaries = {}, {}

    def unitary(self, key, duration):
        u = self._unitaries.get((key, duration))
        if u is not None:
            return u
        if key not in self._eigs:
            self._eigs[key] = np.linalg.eigh(np.asarray(self._hamiltonian_of(key), dtype=complex))
        vals, vecs = self._eigs[key]
        u = (vecs * np.exp(-1j * vals * duration)) @ vecs.conj().T
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < SEGMENT_UNITARITY_TOL
        self._unitaries[(key, duration)] = u
        return u


class _ReferenceEngine:
    def __init__(self, hamiltonian_of, schedule, policy, state):
        self.cache, self.schedule, self.policy = _ReferenceCache(hamiltonian_of), schedule, policy
        self.bounds = np.concatenate([[0.0], np.cumsum([d for _, d in schedule.steps])])
        self.weights, vectors = state.branches
        self.psi = vectors.copy()
        self.steps_applied = 0

    def apply(self, u):
        self.psi = u @ self.psi
        self.steps_applied += 1
        if self.steps_applied % self.policy.unitarity_check_interval == 0:
            self.check()

    def check(self):
        drift = np.max(np.abs(np.linalg.norm(self.psi, axis=0) - 1.0))
        if not drift < self.policy.tolerance:
            raise PropagationError(f"state drift {drift}")

    def expectation(self, matrix):
        val = complex(np.einsum("ib,ij,jb,b->", self.psi.conj(), matrix, self.psi,
                                self.weights))
        assert abs(val.imag) < 1e-10
        return val.real

    def walk(self, u0, u1):
        for i, (key, dur) in enumerate(self.schedule.steps):
            take = min(self.bounds[i + 1], u1) - max(self.bounds[i], u0)
            if take > 0:
                self.apply(self.cache.unitary(key, take if take < dur else dur))

    def advance(self, t0, t1):
        sched = self.schedule
        if t1 <= t0:
            return
        if sched.period is None:
            n = max(1, math.ceil((t1 - t0) / self.policy.max_step)) \
                if self.policy.max_step is not None else 1
            u = self.cache.unitary(sched.constant_key, (t1 - t0) / n)
            for _ in range(n):
                self.apply(u)
            return
        tau = sched.period
        (k0, u0), (k1, u1) = divmod(t0, tau), divmod(t1, tau)
        if k1 == k0:
            self.walk(u0, u1)
            return
        self.walk(u0, tau)
        n_full = int(k1) - int(k0) - 1
        if n_full > 0 and self.policy.fast_forward:
            u = np.eye(self.psi.shape[0], dtype=complex)
            for key, dur in sched.steps:
                u = self.cache.unitary(key, dur) @ u
            w, _, vh = np.linalg.svd(u)
            self.apply(np.linalg.matrix_power(w @ vh, n_full))
        else:
            for _ in range(max(n_full, 0)):
                self.walk(0.0, tau)
        self.walk(0.0, u1)


def _reference_propagate(hamiltonians_of, schedule, state0, sample_times, policy,
                         observables) -> Trajectory:
    times = np.asarray(sample_times, dtype=float)
    if times[0] != 0.0:
        times = np.concatenate([[0.0], times])
    engine = _ReferenceEngine(lambda key: hamiltonians_of([key])[0], schedule, policy, state0)
    series = []
    for i, t in enumerate(times):
        if i > 0:
            engine.advance(times[i - 1], t)
            engine.check()
        series.append([engine.expectation(o.matrix) for o in observables])
    engine.check()
    final = QuantumState.mixture(engine.weights,
                                 engine.psi / np.linalg.norm(engine.psi, axis=0))
    return Trajectory(times=times, final_state=final, observables={
        o.name: np.asarray(column) for o, column in zip(observables, zip(*series))})


@settings(max_examples=60, deadline=None)
@given(drives())
def test_engine_equals_the_reference_loop_bit_for_bit(case):
    """The one-point stack takes every step the reference loop takes, in the
    same order and from the same unitaries, on every drive kind."""
    new = _propagate_case(case)
    old = _propagate_case(case, _reference_propagate)
    assert np.array_equal(new.times, old.times)
    assert list(new.observables) == list(old.observables)
    for name, series in old.observables.items():
        assert np.array_equal(new.observables[name], series), name
    assert np.array_equal(new.final_state.density_matrix(), old.final_state.density_matrix())


_CHUNK_TIMES = np.array([0.3, 1.7, 2.2, 5.5, 9.0, 9.4, 13.1, 20.0, 20.6, 31.25])


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("policy", [
    IntegrationPolicy(unitarity_check_interval=3),
    IntegrationPolicy(unitarity_check_interval=7, fast_forward=False),
    IntegrationPolicy(unitarity_check_interval=10 ** 6),
], ids=["every-3-steps", "sequential-every-7", "samples-only"])
def test_sample_chunks_equal_the_reference_loop_bit_for_bit(monkeypatch, chunk, policy):
    """Samples read in chunks of 1, 2 or 3 (of 11 samples, so the last chunk
    is short), with interval checks flushing a chunk part way, equal the
    reference loop bit for bit; with no interval check due, each chunk is
    one einsum."""
    spec = ProtocolSpec("dcs", omega_max=angular_from_mhz(1.0), switch_fraction=0.1)
    point = nuclear_frequency(_CARBON.nuclei[0], _CARBON.field_z)
    period = _one_point(_CARBON, spec, point, policy)[1].period
    case = (_CARBON, spec, point, _CHUNK_TIMES * period, policy)
    state0 = initial_state(spec.initial_state_kind, _CARBON)
    per_sample = 16 * state0.branches[1].size * (1 + len(standard_observables(_CARBON)))
    monkeypatch.setattr(dynamics, "STACK_BYTES", chunk * per_sample)
    einsum, calls = np.einsum, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", counted)
        new = _propagate_case(case)
    old = _propagate_case(case, _reference_propagate)
    assert len(new.times) == 11
    for name, series in old.observables.items():
        assert np.array_equal(new.observables[name], series), name
    assert np.array_equal(new.final_state.density_matrix(), old.final_state.density_matrix())
    if policy.unitarity_check_interval == 10 ** 6:
        assert len(calls) == math.ceil(11 / chunk)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tolerance, message", [
    (1e-9, "state became non-finite at point 0 at sample t = 1.000000e+01"),
    (1e-300, "state drift 2.220e-16 >= 1e-300 at point 0 at sample t = 1.000000e-09"),
])
def test_a_non_finite_state_is_reported_after_an_earlier_drift(tolerance, message):
    """Phases of 1e308 rad/s overflow over a one-slice period of 10 s, so
    the last of three samples in one chunk is NaN; a drift at the sample
    before it is reported first."""
    system = SpinSystem(field_z=0.35, nuclei=(Nucleus(1.0, 1.0, 1.0),))
    h = np.kron([[0.0, 1e308], [1e308, 0.0]], np.eye(2))
    with pytest.raises(PropagationError) as info:
        propagate_compiled(lambda keys: [h] * len(keys), CompiledSchedule(10.0, [0], [10.0]),
                           initial_state("sensing", system), [1e-9, 10.0],
                           IntegrationPolicy(tolerance=tolerance), standard_observables(system))
    assert str(info.value) == message


def test_a_constant_drive_past_its_eigenphase_horizon_raises():
    """As a constant drive, the same Hamiltonian over 10 s runs more than
    2**53 periods of its fastest eigenphase: HorizonError, before any step."""
    system = SpinSystem(field_z=0.35, nuclei=(Nucleus(1.0, 1.0, 1.0),))
    h = np.kron([[0.0, 1e308], [1e308, 0.0]], np.eye(2))
    with pytest.raises(HorizonError, match="2\\*\\*53 periods of the fastest eigenphase"):
        propagate_compiled(lambda keys: [h] * len(keys), CompiledSchedule(None, [0], [0.0]),
                           initial_state("sensing", system), [1e-9, 10.0],
                           IntegrationPolicy(), standard_observables(system))


@pytest.mark.parametrize("interval, where", [
    (1, "at point 0 after 3 slices"),
    (10, "at point 0 at sample t = 2.000000e-06"),
    (10 ** 6, "at point 0 at sample t = 2.000000e-06"),
])
def test_batched_health_checks_report_the_first_failure(interval, where):
    """A tolerance no rounded state meets fails the first check after t = 0,
    where the state is exact: the interval check after 3 slices when one
    falls due there, else the sample at 2 us, though all 11 samples share
    one chunk and later interval checks fall due before it is read."""
    a = angular_from_khz(0.5)
    system = SpinSystem(field_z=0.35, nuclei=(nucleus_from_isotope("1H", a, a),))
    drive = build_dcs_waveform(angular_from_mhz(2.0),
                               nuclear_frequency(system.nuclei[0], system.field_z))
    policy = IntegrationPolicy(tolerance=1e-300, unitarity_check_interval=interval)
    with pytest.raises(PropagationError, match="^state drift .* >= 1e-300 ") as info:
        propagate(system, drive, initial_state("dnp_dcs", system), 20e-6, policy,
                  sample_every=2e-6)
    assert str(info.value).endswith(where)


def _one_proton_drive(switch_fraction: float = 0.0):
    a = angular_from_khz(0.5)
    system = SpinSystem(field_z=0.35, nuclei=(nucleus_from_isotope("1H", a, a),))
    return system, build_dcs_waveform(angular_from_mhz(2.0),
                                      nuclear_frequency(system.nuclei[0], system.field_z),
                                      switch_fraction=switch_fraction)


@pytest.mark.parametrize("switch_fraction, fast_forward, interval, where", [
    (0.0, True, 5, "after 5 slices"),
    (0.0, False, 5, "after 6 slices"),
    (0.0, False, 10, "after 12 slices"),
    (0.0, False, 37, "after 39 slices"),
    (0.2, True, 10, "after 195 slices"),
    (0.2, False, 10, "after 195 slices"),
    (0.0, True, 10 ** 6, "at sample t = 2.000000e-06"),
    (0.0, False, 10 ** 6, "at sample t = 2.000000e-06"),
])
def test_interval_checks_fire_where_the_count_is_reached(switch_fraction, fast_forward, interval,
                                                         where):
    """The state is checked every ``interval`` applied steps, at the end of
    the head window, jump, tail window or whole period that reaches the
    count (a jump is one step): 20 us of the 1H system sampled every 2 us,
    against a tolerance no rounded state meets."""
    system, drive = _one_proton_drive(switch_fraction)
    policy = IntegrationPolicy(tolerance=1e-300, unitarity_check_interval=interval,
                               fast_forward=fast_forward)
    with pytest.raises(PropagationError, match="^state drift .* >= 1e-300 ") as info:
        propagate(system, drive, initial_state("dnp_dcs", system), 20e-6, policy,
                  sample_every=2e-6)
    assert str(info.value).endswith(where)


def test_chunked_step_programs_equal_one_program_bit_for_bit(monkeypatch):
    """A trace on fig4a's ramped variant drive (301 samples over 1 ms, or
    the first 31 of them when stepped period by period), planned and walked
    as many small chunks of step programs with their clipped unitaries in
    many small batches (STACK_BYTES of 16 KiB), equals the default walk bit
    for bit, and checks the same states: the check count carried across
    chunk edges puts every interval check where the default walk does.  (A
    span of this trace applies 196 steps, so an interval of 7 would put
    every chunk edge on a check boundary; 11 does not.)"""
    system = presets.proton_system()
    drive = build_dcs_waveform(presets.RABI_FIG3_MATCHED,
                               nuclear_frequency(system.nuclei[0], system.field_z),
                               switch_fraction=presets.SWITCH_FRACTION_FIG4, t_initial="zero")
    unitaries, norm, budget = dynamics._slice_unitaries, np.linalg.norm, dynamics.STACK_BYTES
    batches, checked = [], []

    def counted(vals, vecs, durations):
        batches.append(len(durations))
        return unitaries(vals, vecs, durations)

    def seen(x, *args, **kwargs):
        if np.ndim(x) == 4:  # the point stacks of a sample read or an interval check
            checked.extend(state.tobytes() for state in x)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_slice_unitaries", counted)
    monkeypatch.setattr(np.linalg, "norm", seen)
    for policy, samples in ((IntegrationPolicy(), presets.N_GRID),
                            (IntegrationPolicy(unitarity_check_interval=11), presets.N_GRID),
                            (IntegrationPolicy(fast_forward=False), 31)):
        times = np.linspace(0.0, presets.TOTAL_TIME_FIG3, presets.N_GRID)[:samples]
        runs = []
        for stack_bytes in (budget, 1 << 14):
            monkeypatch.setattr(dynamics, "STACK_BYTES", stack_bytes)
            batches.clear()
            checked.clear()
            runs.append((propagate(system, drive, initial_state("dnp_dcs", system), times[-1],
                                   policy, sample_times=times), len(batches), sorted(checked)))
        (default, default_batches, default_checked), (chunked, chunked_batches,
                                                       chunked_checked) = runs
        assert chunked_batches > default_batches + 3
        assert len(chunked_checked) > samples and chunked_checked == default_checked
        for name, series in default.observables.items():
            assert np.array_equal(chunked.observables[name], series), name
        assert np.array_equal(chunked.final_state.density_matrix(),
                              default.final_state.density_matrix())


def test_a_finely_sampled_trace_plans_one_chunk_at_a_time():
    """401 samples over 20 us at 2 MHz, in slices of at most 0.1 ns (about
    670 a period): a plan of every span at once peaked near 9 MB, a plan
    per chunk of spans within 3/4 of STACK_BYTES below 1 MB."""
    system = presets.proton_system()
    args = (system, angular_from_mhz(2.0), nuclear_frequency(system.nuclei[0], system.field_z),
            np.linspace(0.0, 20e-6, 401), IntegrationPolicy(max_step=1e-10))
    tracemalloc.start()
    try:
        run_dcs_dnp(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_propagate_builds_every_key_of_a_ramped_drive_in_one_stacked_call(monkeypatch):
    """The key table of a propagation builds its distinct keys, here the
    switching levels and the ramps' midpoint values, as one stack."""
    build, calls = dynamics.build_hamiltonian, []

    def counted(system, omega_e):
        calls.append(np.shape(omega_e))
        return build(system, omega_e)

    monkeypatch.setattr(dynamics, "build_hamiltonian", counted)
    system, drive = _one_proton_drive(0.2)
    propagate(system, drive, initial_state("dnp_dcs", system), 20e-6, sample_every=2e-6)
    keys = np.unique(compile_waveform(drive, IntegrationPolicy()).keys)
    assert len(keys) > 100
    assert calls == [keys.shape]


def test_the_key_table_holds_eigenpairs_within_its_byte_budget():
    """Ten 64-dimensional keys: the table holds the first seven (462 KB of
    the 512 KB budget), decomposes a key past it again for each lookup, never
    a held one, and every eigenpair equals the key's own eigh bit for bit."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(10, 64, 64)) + 1j * rng.normal(size=(10, 64, 64))
    h, asked = a + a.conj().swapaxes(1, 2), []
    table = dynamics._UnitaryCache(lambda keys: asked.extend(keys) or h[keys])
    first = table.eigenpairs(list(range(10)))
    held = table.eigenpairs([9, 0, 6])
    assert asked == [*range(10), 9]
    assert sum(v.nbytes + w.nbytes for v, w in table._eigs.values()) <= dynamics.STACK_BYTES
    for k, got in [*enumerate(zip(*first)), *zip([9, 0, 6], zip(*held))]:
        for ours, theirs in zip(got, np.linalg.eigh(h[k][None])):
            assert np.array_equal(ours, theirs[0]), k


_PAIR_STATE = QuantumState.pure(np.eye(4)[1])  # |up, down> of the spin pair


@pytest.mark.parametrize("make", [
    lambda system, drive, state: propagate(system, drive, state, math.nan),
    lambda system, drive, state: propagate(system, drive, state, 2e-6, sample_times=[math.nan]),
    lambda system, drive, state: propagate(system, drive, state, 2e-6, sample_every=0.0),
    lambda system, drive, state: propagate(system, drive, state, 2e-6, sample_every=-1e-6),
    lambda system, drive, state: propagate(system, drive, state, 2e-6, sample_every=math.nan),
    lambda *_: IntegrationPolicy(max_step=math.nan),
    lambda *_: IntegrationPolicy(tolerance=math.nan),
    lambda *_: IntegrationPolicy(tolerance=math.inf),
    lambda *_: IntegrationPolicy(ramp_substeps=2.5),
    lambda *_: IntegrationPolicy(unitarity_check_interval=2.5),
    lambda system, drive, state: propagate(system, drive, state, 1e-6, sample_times=[5e-6]),
    lambda system, drive, state: propagate(system, drive, state, 2e-6, sample_times=[]),
    lambda *_: propagate_spin_pair(ConstantWaveform(1.0), 1.0, 0.1, _PAIR_STATE, math.nan,
                                   sample_times=[1e-6]),
    lambda *_: propagate_spin_pair(ConstantWaveform(1.0), 1.0, 0.1, _PAIR_STATE, 1e-6,
                                   sample_times=[5e-6]),
    lambda *_: propagate_spin_pair(ConstantWaveform(1.0), math.nan, 0.1, _PAIR_STATE, 1e-6),
    lambda *_: propagate_spin_pair(ConstantWaveform(1.0), 1.0, math.inf, _PAIR_STATE, 1e-6),
], ids=["T-nan", "sample-time-nan", "sample-every-0", "sample-every-negative",
        "sample-every-nan", "max-step-nan", "tolerance-nan", "tolerance-inf",
        "ramp-substeps-2.5", "check-interval-2.5", "sample-time-past-T", "no-sample-times",
        "spin-pair-T-nan", "spin-pair-sample-time-past-T", "spin-pair-omega-n-nan",
        "spin-pair-coupling-inf"])
def test_bad_propagation_inputs_raise_before_any_slice_is_stepped(monkeypatch, make):
    def stepped(*args, **kwargs):
        raise AssertionError("a slice was stepped")

    monkeypatch.setattr(dynamics, "_evolve", stepped)
    system, drive = _one_proton_drive()
    with pytest.raises(ValueError):
        make(system, drive, initial_state("dnp_dcs", system))


def test_sampling_a_64_dimensional_cluster_matches_a_four_operand_einsum(proton_cluster):
    """At d = 64 with 32 branches, where BLAS blocks the sampling product,
    every observable, a dense one and nuclear I_x included, is Tr[rho O] at
    each of 11 sample times, rho taken from the reference loop."""
    system = proton_cluster
    rng = np.random.default_rng(7)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    dense = Observable((a + a.conj().T) / 16, name="dense")
    extra = [nuclear_x_observable(system, 1), nuclear_x_observable(system, 5), dense]
    w = build_dcs_waveform(angular_from_mhz(2.0),
                           nuclear_frequency(system.nuclei[0], system.field_z))
    state0 = initial_state("dnp_dcs", system)
    T = 20e-6
    times = np.linspace(0.0, T, 11)
    traj = propagate(system, w, state0, T, sample_times=times, extra_observables=extra)
    assert state0.branches[1].shape == (64, 32)
    engine = _ReferenceEngine(lambda omega: build_hamiltonian(system, omega).matrix,
                              compile_waveform(w, IntegrationPolicy()),
                              IntegrationPolicy(), state0)
    for row, t in enumerate(times):
        engine.advance(times[row - 1] if row else 0.0, t)
        for o in standard_observables(system) + extra:
            reference = np.einsum("ib,ij,jb,b->", engine.psi.conj(), o.matrix, engine.psi,
                                  engine.weights)
            assert abs(traj.observables[o.name][row] - reference) < 1e-13, (o.name, row)
    assert np.ptp(traj.observables["dense"]) > 1e-4  # the state moved


def _eigenpairs(rng, n: int, d: int):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return np.linalg.eigh(a + a.conj().swapaxes(1, 2))


def test_a_smaller_unitary_call_leaves_the_earlier_result_unchanged():
    """Two consecutive d = 64 _slice_unitaries calls, the second one smaller
    and so inside the first one's scratch buffers: each returns a fresh
    array, the first keeps its bits, and both equal the product written
    with temporaries, bit for bit."""
    vals, vecs = _eigenpairs(np.random.default_rng(3), 4, 64)
    durations = np.array([1e-3, 2e-3, 5e-4, 3e-3])
    first = dynamics._slice_unitaries(vals, vecs, durations)
    kept = first.copy()
    second = dynamics._slice_unitaries(vals[1:3], vecs[1:3], 2 * durations[1:3])
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    for u, (v, w, t) in ((first, (vals, vecs, durations)),
                         (second, (vals[1:3], vecs[1:3], 2 * durations[1:3]))):
        plain = (w * np.exp(-1j * v * t[:, None])[:, None, :]) @ w.conj().swapaxes(1, 2)
        assert u.tobytes() == plain.tobytes()


def _scratch_bytes() -> list[int]:
    return [buffer.nbytes for buffer in vars(dynamics._SCRATCH).values()]


def test_the_scratch_store_stays_within_its_bound(monkeypatch, proton_cluster):
    """A one-point d = 64 stack whose unitaries exceed STACK_BYTES (a ramped
    drive: about 130 distinct unitaries of 64 KB) gets them as plain
    temporaries; no scratch buffer grows past STACK_BYTES."""
    unitaries, sizes = dynamics._slice_unitaries, []

    def counted(vals, vecs, durations):
        sizes.append(vecs.nbytes)
        return unitaries(vals, vecs, durations)

    monkeypatch.setattr(dynamics, "_slice_unitaries", counted)
    vars(dynamics._SCRATCH).clear()
    w = build_dcs_waveform(angular_from_mhz(2.0),
                           nuclear_frequency(proton_cluster.nuclei[0], proton_cluster.field_z),
                           switch_fraction=0.1)
    propagate(proton_cluster, w, initial_state("dnp_dcs", proton_cluster), 3 * w.period)
    assert max(sizes) > dynamics.STACK_BYTES
    assert 0 < len(_scratch_bytes()) <= 4
    assert max(_scratch_bytes()) <= dynamics.STACK_BYTES


#: a one-point d = 64 sensing sweep of the proton cluster: its columns' digest
_SMALL_SWEEP = """
import hashlib, sys
import numpy as np
from dcspin import (SpinSystem, angular_from_khz, angular_from_mhz, nuclear_frequency,
                    nucleus_from_isotope, run_dcs_sensing)
khz = np.random.default_rng(0).uniform(0.3, 5.0, size=(5, 2))
system = SpinSystem(field_z=0.35, nuclei=tuple(
    nucleus_from_isotope("1H", angular_from_khz(ax), angular_from_khz(az)) for ax, az in khz))
omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
result = run_dcs_sensing(system, angular_from_mhz(2.0), [omega_n + angular_from_khz(40.0)], 20e-6)
digest = hashlib.sha256(b"".join(c.tobytes() for c in result.columns.values())).hexdigest()
if __name__ == "__main__":
    sys.stdout.write(digest)
"""


def test_a_sweep_after_a_larger_one_keeps_its_fresh_process_bits(proton_cluster):
    """The scratch buffers that larger runs left grown (a 6-point sweep and a
    41-sample trace, both at d = 64) hold stale values past what a one-point
    sweep uses; that sweep's columns equal those of a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(dynamics.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run([sys.executable, "-c", _SMALL_SWEEP], env=env, check=True,
                           capture_output=True, text=True).stdout
    scope: dict = {}
    vars(dynamics._SCRATCH).clear()
    exec(_SMALL_SWEEP, scope)
    small = _scratch_bytes()
    omega_n = nuclear_frequency(proton_cluster.nuclei[0], proton_cluster.field_z)
    run_dcs_sensing(proton_cluster, angular_from_mhz(2.0),
                    omega_n + angular_from_khz(10.0) * np.arange(-3.0, 3.0), 20e-6)
    run_dcs_dnp(proton_cluster, angular_from_mhz(2.0), omega_n, np.linspace(0.0, 20e-6, 41))
    assert sum(_scratch_bytes()) > sum(small)
    exec(_SMALL_SWEEP, scope)
    assert scope["digest"] == fresh


def _with_zeros(rng, shape, dtype=float) -> np.ndarray:
    """Normal draws, about a quarter of them 0.0 and a quarter -0.0."""
    parts = rng.normal(size=(2, *shape)) if dtype is complex else rng.normal(size=(1, *shape))
    draw = rng.random(parts.shape)
    parts[draw < 0.25], parts[(draw >= 0.25) & (draw < 0.5)] = 0.0, -0.0
    if dtype is float:
        return parts[0]
    out = np.empty(shape, complex)
    out.real, out.imag = parts
    return out


def _read(observables, weights, states, dense: bool) -> np.ndarray:
    """The values one _Walk.flush reads from ``states`` (samples, points, dim,
    branches), through the dense stacked product when ``dense``."""
    samples, points = states.shape[:2]
    plan = SimpleNamespace(n_times=samples, n_lanes=1, n=points,
                           times=np.zeros((samples, points)))
    walk = dynamics._Walk(plan, IntegrationPolicy(tolerance=1e300), observables)
    assert walk.stacked is None
    if dense:
        walk.stacked = np.concatenate([o.matrix for o in observables])
    walk.weights, walk.snapshots, walk.queued = weights, states, samples
    walk.taken = samples
    walk.flush()
    return walk.values


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 4, 16, 64]), st.integers(1, 32), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_the_diagonal_read_equals_the_dense_product_bit_for_bit(d, branches, points, samples,
                                                                n_observables, seed):
    """Diagonal observables (sigma_z and I_z values, or any reals, zeros of
    both signs included) read as diagonal x state give the values of the
    dense stacked product bit for bit, from states with exact and negative
    zeros and weights that are zero, for some points all of them."""
    rng = np.random.default_rng(seed)
    diagonals = np.where(rng.random((n_observables, 1)) < 0.5,
                         rng.choice([1.0, -1.0, 0.5, -0.5], (n_observables, d)),
                         _with_zeros(rng, (n_observables, d)))
    observables = [Observable(np.diag(row), name=f"D{i}") for i, row in enumerate(diagonals)]
    weights = np.abs(_with_zeros(rng, (points, branches)))
    weights[rng.random(points) < 0.25] = 0.0
    states = _with_zeros(rng, (samples, points, d, branches), complex)
    diagonal = _read(observables, weights, states, dense=False)
    assert diagonal.tobytes() == _read(observables, weights, states, dense=True).tobytes()


@settings(max_examples=30, deadline=None)
@given(drives())
def test_a_set_with_non_diagonal_observables_equals_the_reference_loop(case):
    """sigma_z and every I_z read alongside sigma_x and every I_x, which take
    the dense stacked product, equal the reference loop bit for bit."""
    system, spec, point, times, policy = case
    observables = [*standard_observables(system), sigma_x_observable(system),
                   *(nuclear_x_observable(system, j) for j in range(1, system.n_nuclei + 1))]
    hamiltonians_of, schedule = _one_point(system, spec, point, policy)
    state0 = initial_state(spec.initial_state_kind, system)
    new, old = (run(hamiltonians_of, schedule, state0, times, policy, observables)
                for run in (propagate_compiled, _reference_propagate))
    for name, series in old.observables.items():
        assert np.array_equal(new.observables[name], series), name


def test_max_step_split_is_exact_for_constant_segments(carbon_system, carbon_rabi):
    nu = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    w = build_dcs_waveform(carbon_rabi, nu)
    state = initial_state("sensing", carbon_system)
    T = 5e-6
    a = propagate(carbon_system, w, state, T)
    b = propagate(carbon_system, w, state, T, policy=IntegrationPolicy(max_step=2e-9))
    assert a.observables["sigma_z"][-1] == pytest.approx(
        b.observables["sigma_z"][-1], abs=1e-11)


def test_ramp_substep_convergence():
    """Halving the ramp step at the default resolution changes the endpoint
    below 1e-8, on the millisecond-horizon ramped configuration."""
    a = angular_from_khz(0.5)
    proton = SpinSystem(field_z=0.35,
                        nuclei=(Nucleus(angular_from_mhz(42.5775), a, a),))
    omega = angular_from_mhz(2.0) * np.sqrt(56.0 / 84.0)
    nu = nuclear_frequency(proton.nuclei[0], proton.field_z)
    w = build_dcs_waveform(omega, nu, switch_fraction=0.14)
    state = initial_state("sensing", proton)
    default_n = IntegrationPolicy().ramp_substeps
    finals = [propagate(proton, w, state, 1e-3,
                        policy=IntegrationPolicy(ramp_substeps=n)
                        ).observables["I_z[1]"][-1]
              for n in (default_n, 2 * default_n)]
    assert abs(finals[1] - finals[0]) < 1e-8


def test_trajectory_validation_bounds(carbon_system, carbon_rabi):
    nu = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    w = build_dcs_waveform(carbon_rabi, nu)
    traj = propagate(carbon_system, w, initial_state("sensing", carbon_system), 1e-5)
    assert np.all(np.abs(traj.observables["sigma_z"]) <= 1 + 1e-9)
    assert np.all(np.abs(traj.observables["I_z[1]"]) <= 0.5 + 1e-9)
    assert np.all(np.diff(traj.times) > 0)


# ---------------------------------------------------------------------------
# effective flip-flop model
# ---------------------------------------------------------------------------

def test_effective_signal_examples():
    omega, nu = angular_from_mhz(1.0), angular_from_mhz(10.713)
    a_x = angular_from_khz(13.42)
    assert effective_flipflop_signal(omega, nu, a_x, 0.0) == 1.0
    t_full = np.pi ** 2 * nu / (omega * a_x)
    assert effective_flipflop_signal(omega, nu, a_x, t_full) == pytest.approx(0.0, abs=1e-24)
    assert effective_flipflop_signal(omega, nu, a_x, 0.308e-3) == pytest.approx(0.858, abs=5e-4)


def test_magnus_hamiltonian_flipflop(carbon_system, carbon_rabi):
    nu = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    tau_plus, tau_minus = optimal_dwell_times(carbon_rabi, nu)
    w = DcsWaveform(carbon_rabi, tau_plus, tau_minus)
    h = magnus_effective_hamiltonian(carbon_system, w, "flipflop").matrix
    # conserves sigma_z/2 + I_z
    conserved = (0.5 * sigma_z_observable(carbon_system).matrix
                 + nuclear_z_observable(carbon_system, 1).matrix)
    npt.assert_allclose(h @ conserved - conserved @ h, 0, atol=1e-12 * np.abs(h).max())
    # coupling magnitude (largest matrix element) is Omega/(2 pi nu) * A_x
    coeff = carbon_rabi / (TWO_PI * nu) * carbon_system.nuclei[0].hyperfine_x
    assert np.max(np.abs(h)) == pytest.approx(coeff, rel=1e-12)
    assert coeff == pytest.approx(1252.7, rel=1e-3)  # rad/s, i.e. 2pi x 199.4 Hz
    # exact evolution under the effective Hamiltonian conserves the quantity
    state = initial_state("sensing", carbon_system).density_matrix()
    for t in (1e-4, 7e-4):
        u = expm(-1j * h * t)
        rho = u @ state @ u.conj().T
        value = np.trace(rho @ conserved).real
        assert value == pytest.approx(np.trace(state @ conserved).real, abs=1e-12)


def test_magnus_hamiltonian_doublequantum(carbon_rabi):
    a_x, a_z = angular_from_khz(13.42), angular_from_khz(17.09)
    nu = angular_from_mhz(10.713)
    target = nu - 2 * carbon_rabi ** 2 / nu
    gamma = (target - 0.5 * a_z) / 1.0
    system = SpinSystem(field_z=1.0, nuclei=(Nucleus(gamma, a_x, a_z),))
    tau_plus, tau_minus = optimal_dwell_times(carbon_rabi, nu)
    w = DcsWaveform(carbon_rabi, tau_plus, tau_minus)
    h = magnus_effective_hamiltonian(system, w, "doublequantum").matrix
    conserved = (0.5 * sigma_z_observable(system).matrix
                 - nuclear_z_observable(system, 1).matrix)
    npt.assert_allclose(h @ conserved - conserved @ h, 0, atol=1e-12 * np.abs(h).max())


def test_magnus_hamiltonian_preconditions(carbon_system, carbon_rabi):
    nu = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    tau_plus, tau_minus = optimal_dwell_times(carbon_rabi, nu)
    off_optimal = DcsWaveform(carbon_rabi, tau_plus * 1.1, tau_minus)
    with pytest.raises(ResonanceConditionError):
        magnus_effective_hamiltonian(carbon_system, off_optimal, "flipflop")
    detuned = DcsWaveform(carbon_rabi, *optimal_dwell_times(carbon_rabi, 1.01 * nu))
    with pytest.raises(ResonanceConditionError):
        magnus_effective_hamiltonian(carbon_system, detuned, "flipflop")
    with pytest.raises(ValueError):
        magnus_effective_hamiltonian(carbon_system,
                                     DcsWaveform(carbon_rabi, tau_plus, tau_minus),
                                     "sideways")


def test_full_dynamics_tracks_effective_model(carbon_system, carbon_rabi):
    """Short-horizon version of the resonance time law (full check in acceptance)."""
    from dcspin.presets import fit_dcs_resonance
    nu_star = fit_dcs_resonance(carbon_system, carbon_rabi, 0.308e-3,
                                nuclear_frequency(carbon_system.nuclei[0], 1.0),
                                TWO_PI * 3e3)
    w = build_dcs_waveform(carbon_rabi, nu_star)
    times = np.linspace(0.0, 0.2e-3, 101)
    traj = propagate(carbon_system, w, initial_state("sensing", carbon_system),
                     times[-1], sample_times=times)
    a_x = carbon_system.nuclei[0].hyperfine_x
    model = np.array([effective_flipflop_signal(carbon_rabi, nu_star, a_x, t)
                      for t in times])
    assert np.max(np.abs(traj.observables["sigma_z"] - model)) < 0.02


# ---------------------------------------------------------------------------
# two-spin exchange model
# ---------------------------------------------------------------------------

def up_down_state():
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0  # |up, down>
    return QuantumState.pure(vec)


def test_spin_pair_resonant_exchange():
    omega_n = angular_from_mhz(2.0)
    a = angular_from_khz(5.0)
    t_swap = np.pi / (2 * a)
    times = np.linspace(0.0, 2 * t_swap, 81)
    traj = propagate_spin_pair(ConstantWaveform(omega_n), omega_n, a,
                               up_down_state(), times[-1], sample_times=times)
    iz = traj.observables["I_z[1]"]
    npt.assert_allclose(iz, -0.5 * np.cos(2 * a * times), atol=1e-9)
    assert iz[40] == pytest.approx(0.5, abs=1e-9)  # full transfer at t_swap


def test_spin_pair_off_resonant_suppression():
    omega_n = angular_from_mhz(2.0)
    a = angular_from_khz(1.0)
    omega_e = omega_n - 200 * a  # detuning 200x the coupling
    times = np.linspace(0.0, 4e-4, 400)
    traj = propagate_spin_pair(ConstantWaveform(omega_e), omega_n, a,
                               up_down_state(), times[-1], sample_times=times)
    transfer = traj.observables["I_z[1]"] + 0.5
    assert np.max(transfer) <= (2 * a / (omega_n - omega_e)) ** 2 + 1e-12


def test_spin_pair_requires_two_spins():
    with pytest.raises(ValueError):
        propagate_spin_pair(ConstantWaveform(1.0), 1.0, 0.1,
                            QuantumState.pure(np.array([1.0, 0.0])), 1.0)
