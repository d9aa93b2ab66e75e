"""The four experiment families: DCS sensing, DCS DNP, PM, and TOP-DNP.

Each run_* function sweeps one axis (drive frequency, total time, or pulse
detuning), propagates the exact dynamics per point, and reduces the
trajectories to the observables the comparison figures use.  Sweep points
are independent and can execute on a process pool; results merge in sweep
order, so output is deterministic for any worker count.

Amplitude errors model miscalibrated drive power: every drive amplitude is
scaled by (1 + delta) while timing parameters stay at their nominal values,
which is what makes the switching protocol's resonance shift only by
duty_asymmetry * delta * omega_max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .dynamics import (
    CompiledSchedule,
    IntegrationPolicy,
    Trajectory,
    _split_durations,
    propagate,
    propagate_compiled,
    standard_observables,
)
from .spincore import (
    InitialStateKind,
    QuantumState,
    SIGMA_X,
    SIGMA_Z,
    SpinSystem,
    _operators,
    build_hamiltonian,
    embed_operator,  # noqa: F401  perfbench/tracing.py wraps this name here
    expectation,
    initial_state,
)
from .sweep import SweepResult, parallel_map
from .waveform import (
    ConstantWaveform,
    DcsWaveform,
    PmWaveform,
    TWO_PI,
    optimal_dwell_times,
)

PROTOCOL_KINDS = ("dcs", "pm", "topdnp", "constant")


@dataclass(frozen=True)
class PulseTrain:
    """Periodic microwave pulse train: pulses of length pulse_len at Rabi
    frequency ``rabi`` and frequency detuning ``detuning``, separated by
    delays of length ``delay`` during which the drive is off but the frame
    detuning persists."""

    rabi: float
    pulse_len: float
    delay: float
    detuning: float

    def __post_init__(self):
        if self.pulse_len <= 0 or self.delay <= 0:
            raise ValueError("pulse_len and delay must be positive")

    @property
    def period(self) -> float:
        return self.pulse_len + self.delay

    @property
    def modulation_frequency(self) -> float:
        """omega_m = 2 pi / (pulse_len + delay)."""
        return TWO_PI / self.period

    def compiled_schedule(self, policy: IntegrationPolicy) -> CompiledSchedule:
        steps: list[tuple[str, float]] = []
        for key, dur in (("pulse", self.pulse_len), ("delay", self.delay)):
            n = _split_durations(dur, policy.max_step)
            steps.extend([(key, dur / n)] * n)
        return CompiledSchedule(period=self.period, steps=tuple(steps))


@dataclass(frozen=True)
class ProtocolSpec:
    """Declarative description of one protocol run (the config-facing object).

    Timing parameters are always derived from the nominal amplitudes; the
    amplitude_error delta scales only the drive amplitudes of the built
    waveform.  t_initial is 'symmetric' (positive segment centered on t=0),
    'zero', or a number interpreted as a fraction of the switching period.
    """

    kind: str
    initial_state_kind: str = "sensing"
    measured: tuple[str, ...] = ()  # empty: keep every recorded observable
    amplitude_error: float = 0.0
    # dcs
    omega_max: float | None = None
    switch_fraction: float = 0.0
    t_initial: float | str = "symmetric"
    reset_every: float | None = None  # electron reprojection interval (time sweeps)
    # pm
    omega0: float | None = None
    omega1: float | None = None
    # topdnp
    rabi: float | None = None
    pulse_len: float | None = None
    delay: float | None = None
    detuning: float | None = None
    # constant
    omega_e: float | None = None

    _REQUIRED = {
        "dcs": ("omega_max",),
        "pm": ("omega0", "omega1"),
        "topdnp": ("rabi", "pulse_len", "delay"),
        "constant": ("omega_e",),
    }

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if not self.amplitude_error > -1:
            raise ValueError("amplitude_error must exceed -1")
        InitialStateKind(self.initial_state_kind)
        missing = [f for f in self._REQUIRED[self.kind] if getattr(self, f) is None]
        if missing:
            raise ValueError(f"protocol kind {self.kind!r} requires fields {missing}")
        if self.kind == "dcs" and isinstance(self.t_initial, str) \
                and self.t_initial not in ("symmetric", "zero"):
            raise ValueError("t_initial must be 'symmetric', 'zero', or a period fraction")


def apply_amplitude_error(spec: ProtocolSpec, delta: float) -> ProtocolSpec:
    """Return a spec whose built waveforms have every drive amplitude scaled
    by (1 + delta); timing parameters are unaffected."""
    if not delta > -1:
        raise ValueError("delta must exceed -1")
    return replace(spec, amplitude_error=(1 + spec.amplitude_error) * (1 + delta) - 1)


def build_dcs_waveform(omega_max: float, nu: float, *, switch_fraction: float = 0.0,
                       t_initial: float | str = "symmetric",
                       amplitude_error: float = 0.0) -> DcsWaveform:
    """Switching waveform with dwell times optimal for resonance at ``nu``.

    Dwell times come from the nominal omega_max; the drive amplitude is
    scaled by (1 + amplitude_error).
    """
    tau_plus, tau_minus = optimal_dwell_times(omega_max, nu)
    period = tau_plus + tau_minus
    if t_initial == "symmetric":
        t0 = -0.5 * tau_plus
    elif t_initial == "zero":
        t0 = 0.0
    else:
        t0 = float(t_initial) * period
    return DcsWaveform(
        omega_max=omega_max * (1 + amplitude_error),
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        tau_switch=switch_fraction * tau_minus,
        t_initial=t0,
    )


def pm_resonant_period(omega0: float, omega_n: float, harmonic: int = 1) -> float:
    """Period placing the PM drive's harmonic-k resonance at omega_n.

    The two-level waveform {omega0+omega1, omega0-omega1} with equal dwell
    times has mean drive omega0, so resonance requires
    omega_n = 2 pi k / tau + omega0.
    """
    if omega_n <= omega0:
        raise ValueError("requires omega_n > omega0")
    return TWO_PI * harmonic / (omega_n - omega0)


def build_pm_waveform(omega0: float, omega1: float, omega_n: float, *,
                      harmonic: int = 1, amplitude_error: float = 0.0) -> PmWaveform:
    period = pm_resonant_period(omega0, omega_n, harmonic)
    scale = 1 + amplitude_error
    return PmWaveform(omega0 * scale, omega1 * scale, period)


# ---------------------------------------------------------------------------
# TOP-DNP effective field and resonance
# ---------------------------------------------------------------------------

def _expm_2x2(h: np.ndarray, dt: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * dt)) @ vecs.conj().T


def effective_field_topdnp(rabi: float, detuning: float, pulse_len: float,
                           delay: float) -> float:
    """Rotation rate of the electron over one pulse-train period.

    Builds the electron-only propagator (pulse, then delay), extracts its
    rotation angle beta in [0, pi], and returns beta / (pulse_len + delay).
    In the dressed basis used throughout, the lab-frame detuning acts along
    sigma_x and the pulse drive along sigma_z.
    """
    if pulse_len <= 0 or delay <= 0:
        raise ValueError("pulse_len and delay must be positive")
    u_pulse = _expm_2x2(0.5 * detuning * SIGMA_X + 0.5 * rabi * SIGMA_Z, pulse_len)
    u_delay = _expm_2x2(0.5 * detuning * SIGMA_X, delay)
    u = u_delay @ u_pulse
    half_trace = min(1.0, abs(np.trace(u)) / 2.0)
    beta = 2.0 * math.acos(half_trace)
    return beta / (pulse_len + delay)


def solve_topdnp_detuning(rabi: float, pulse_len: float, delay: float,
                          omega_n: float) -> float:
    """Detuning satisfying omega_m + omega_eff = omega_n, found by bisection."""
    omega_m = TWO_PI / (pulse_len + delay)

    def mismatch(det: float) -> float:
        return omega_m + effective_field_topdnp(rabi, det, pulse_len, delay) - omega_n

    if mismatch(0.0) > 0:
        raise ValueError("already above the resonance at zero detuning")
    hi = max(abs(omega_n - omega_m), rabi)
    for _ in range(40):
        if mismatch(hi) > 0:
            break
        hi *= 1.5
    else:
        raise ValueError("pulse-train resonance not reachable: omega_eff saturates")
    return float(brentq(mismatch, 0.0, hi, xtol=1e-6, rtol=1e-14))


def topdnp_average_power(rabi: float, pulse_len: float, delay: float) -> float:
    """Duty-weighted mean squared drive amplitude of the pulse train."""
    return rabi ** 2 * pulse_len / (pulse_len + delay)


# ---------------------------------------------------------------------------
# sweep workers (module level so they pickle into process pools)
# ---------------------------------------------------------------------------

def _final_row(traj: Trajectory) -> tuple[float, ...]:
    return tuple(traj.observables[name][-1] for name in traj.observables)


def _dcs_point(args) -> tuple[float, ...]:
    system, omega_max, nu, T, policy, switch_fraction, t_initial, amp_err, init_kind = args
    w = build_dcs_waveform(omega_max, nu, switch_fraction=switch_fraction,
                           t_initial=t_initial, amplitude_error=amp_err)
    traj = propagate(system, w, initial_state(init_kind, system), T, policy)
    return _final_row(traj)


def _pm_point(args) -> tuple[float, ...]:
    system, omega0, omega1, nu, T, policy, amp_err, init_kind = args
    w = build_pm_waveform(omega0, omega1, nu, amplitude_error=amp_err)
    traj = propagate(system, w, initial_state(init_kind, system), T, policy)
    return _final_row(traj)


def _topdnp_hamiltonians(system: SpinSystem, rabi: float, detuning: float):
    base = build_hamiltonian(system, 0.0).matrix
    ops = _operators(system)
    pulse = 0.5 * detuning * ops.sigma_x + rabi * ops.z_half + base
    delay = 0.5 * detuning * ops.sigma_x + base
    return {"pulse": pulse, "delay": delay}


def _run_topdnp_trajectory(system, train: PulseTrain, state0, sample_times, policy,
                           amp_scale: float) -> Trajectory:
    hams = _topdnp_hamiltonians(system, train.rabi * amp_scale, train.detuning)
    return propagate_compiled(hams.__getitem__, train.compiled_schedule(policy),
                              state0, sample_times, policy,
                              standard_observables(system))


def _topdnp_point(args) -> tuple[float, ...]:
    system, rabi, pulse_len, delay, det, T, policy, amp_err, init_kind = args
    train = PulseTrain(rabi, pulse_len, delay, det)
    traj = _run_topdnp_trajectory(system, train, initial_state(init_kind, system),
                                  [T], policy, 1 + amp_err)
    return _final_row(traj)


def _result_from_rows(name: str, axis: str, values, rows,
                      metadata: dict | None = None,
                      column_names: Sequence[str] | None = None) -> SweepResult:
    rows = np.asarray(rows, dtype=float)
    columns = {n: rows[:, i] for i, n in enumerate(column_names)}
    if "I_z[1]" in columns:
        columns["nuclear_polarization"] = 2.0 * columns["I_z[1]"]
    return SweepResult(name=name, axis=axis, values=np.asarray(values, dtype=float),
                       columns=columns, metadata=metadata or {})


def _result_from_trajectory(name: str, traj: Trajectory, requested=None,
                            metadata: dict | None = None) -> SweepResult:
    columns = dict(traj.observables)
    values = traj.times
    if requested is not None and len(traj.times) == len(requested) + 1:
        # the propagator always starts at t = 0; drop it if not asked for
        columns = {k: v[1:] for k, v in columns.items()}
        values = traj.times[1:]
    if "I_z[1]" in columns:
        columns["nuclear_polarization"] = 2.0 * columns["I_z[1]"]
    return SweepResult(name=name, axis="T", values=values,
                       columns=columns, metadata=metadata or {})


def _column_names(system: SpinSystem) -> list[str]:
    return [o.name for o in standard_observables(system)]


# ---------------------------------------------------------------------------
# protocol runs
# ---------------------------------------------------------------------------

def run_dcs_sensing(system: SpinSystem, omega_max: float, nu_grid: Sequence[float],
                    T: float, policy: IntegrationPolicy | None = None, *,
                    switch_fraction: float = 0.0,
                    t_initial: float | str = "symmetric",
                    amplitude_error: float = 0.0,
                    workers: int | None = 1) -> SweepResult:
    """Spectral response: per target frequency nu, drive with the optimal
    switching waveform for time T and record the qubit signal."""
    policy = policy or IntegrationPolicy()
    nu_grid = np.asarray(nu_grid, dtype=float)
    if np.any(nu_grid <= omega_max):
        raise ValueError("every nu in the grid must exceed omega_max")
    args = [(system, omega_max, nu, T, policy, switch_fraction, t_initial,
             amplitude_error, "sensing") for nu in nu_grid]
    rows = parallel_map(_dcs_point, args, workers)
    return _result_from_rows("dcs_sensing", "nu", nu_grid, rows,
                             column_names=_column_names(system))


def run_dcs_dnp(system: SpinSystem, omega_max: float, nu: float,
                T_grid: Sequence[float], policy: IntegrationPolicy | None = None, *,
                switch_fraction: float = 0.0,
                t_initial: float | str = "symmetric",
                amplitude_error: float = 0.0,
                reset_every: float | None = None) -> SweepResult:
    """Nuclear polarization buildup: one continuous evolution at fixed nu,
    sampled at every time in T_grid.

    reset_every optionally reprojects the electron onto |+> at fixed
    intervals (off by default and excluded from the acceptance checks).
    """
    policy = policy or IntegrationPolicy()
    if not nu > omega_max:
        raise ValueError("requires nu > omega_max")
    T_grid = np.asarray(T_grid, dtype=float)
    w = build_dcs_waveform(omega_max, nu, switch_fraction=switch_fraction,
                           t_initial=t_initial, amplitude_error=amplitude_error)
    state0 = initial_state("dnp_dcs", system)
    if reset_every is None:
        traj = propagate(system, w, state0, float(T_grid[-1]), policy,
                         sample_times=T_grid)
        return _result_from_trajectory("dcs_dnp", traj, requested=T_grid)
    return _dnp_with_resets(system, w, state0, T_grid, policy, reset_every)


def _reset_electron(rho: np.ndarray, n_nuclei: int) -> np.ndarray:
    """Project the electron back onto |+>, keeping the nuclear state."""
    dim_n = 2 ** n_nuclei
    blocks = rho.reshape(2, dim_n, 2, dim_n)
    rho_nuclear = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    plus = np.zeros((2, 2), dtype=complex)
    plus[0, 0] = 1.0
    return np.kron(plus, rho_nuclear)


def _dnp_with_resets(system, w, state0, T_grid, policy, reset_every) -> SweepResult:
    if reset_every <= 0:
        raise ValueError("reset_every must be positive")
    obs = standard_observables(system)
    names = [o.name for o in obs]
    T_grid = np.asarray(T_grid, dtype=float)
    t_end = float(T_grid[-1])
    resets = np.arange(reset_every, t_end, reset_every)
    events = sorted({float(t) for t in np.concatenate([T_grid, resets]) if t > 0})
    samples = {float(t) for t in T_grid}
    rho = state0.density_matrix()
    rows: list[tuple[float, ...]] = []
    if 0.0 in samples:
        rows.append(tuple(expectation(state0, o) for o in obs))
    t_now = 0.0
    for t in events:
        # continue the waveform phase across segments by shifting its anchor
        w_seg = replace(w, t_initial=w.t_initial - t_now)
        traj = propagate(system, w_seg, QuantumState.from_density(rho), t - t_now,
                         policy, sample_times=[t - t_now])
        rho = traj.final_state.density_matrix()
        if t in samples:
            rows.append(tuple(traj.observables[n][-1] for n in names))
        if np.any(np.isclose(t, resets, rtol=0, atol=1e-15 * t_end)) and t < t_end:
            rho = _reset_electron(rho, system.n_nuclei)
        t_now = t
    return _result_from_rows("dcs_dnp", "T", T_grid, rows, column_names=names,
                             metadata={"reset_every_s": reset_every})


def run_pm(system: SpinSystem, omega0: float, omega1: float, *,
           nu_grid: Sequence[float] | None = None, T: float | None = None,
           nu: float | None = None, T_grid: Sequence[float] | None = None,
           policy: IntegrationPolicy | None = None,
           initial_state_kind: str = "sensing",
           amplitude_error: float = 0.0,
           workers: int | None = 1) -> SweepResult:
    """PM protocol: spectrum mode (nu_grid + T) scans the resonance through
    the modulation period; time mode (nu + T_grid) follows one evolution."""
    if omega0 < 0 or omega1 < 0:
        raise ValueError("omega0 and omega1 must be nonnegative")
    policy = policy or IntegrationPolicy()
    spectrum = nu_grid is not None
    if spectrum == (T_grid is not None):
        raise ValueError("provide exactly one of nu_grid (with T) or T_grid (with nu)")
    if spectrum:
        if T is None:
            raise ValueError("spectrum mode requires T")
        nu_grid = np.asarray(nu_grid, dtype=float)
        args = [(system, omega0, omega1, nu_i, T, policy, amplitude_error,
                 initial_state_kind) for nu_i in nu_grid]
        rows = parallel_map(_pm_point, args, workers)
        return _result_from_rows("pm", "nu", nu_grid, rows,
                                 column_names=_column_names(system))
    if nu is None:
        raise ValueError("time mode requires nu")
    T_grid = np.asarray(T_grid, dtype=float)
    w = build_pm_waveform(omega0, omega1, nu, amplitude_error=amplitude_error)
    traj = propagate(system, w, initial_state(initial_state_kind, system),
                     float(T_grid[-1]), policy, sample_times=T_grid)
    return _result_from_trajectory("pm", traj, requested=T_grid)


def run_topdnp(system: SpinSystem, rabi: float, pulse_len: float, delay: float, *,
               detuning_grid: Sequence[float] | None = None, T: float | None = None,
               detuning: float | None = None, T_grid: Sequence[float] | None = None,
               policy: IntegrationPolicy | None = None,
               initial_state_kind: str = "topdnp_parallel",
               amplitude_error: float = 0.0,
               workers: int | None = 1) -> SweepResult:
    """Pulse-train DNP: sweep the pulse detuning (detuning_grid + T) or
    follow the polarization buildup at fixed detuning (detuning + T_grid)."""
    if pulse_len <= 0 or delay <= 0:
        raise ValueError("pulse_len and delay must be positive")
    policy = policy or IntegrationPolicy()
    spectrum = detuning_grid is not None
    if spectrum == (T_grid is not None):
        raise ValueError("provide exactly one of detuning_grid (with T) or T_grid")
    if spectrum:
        if T is None:
            raise ValueError("spectrum mode requires T")
        detuning_grid = np.asarray(detuning_grid, dtype=float)
        args = [(system, rabi, pulse_len, delay, det, T, policy, amplitude_error,
                 initial_state_kind) for det in detuning_grid]
        rows = parallel_map(_topdnp_point, args, workers)
        return _result_from_rows("topdnp", "detuning", detuning_grid, rows,
                                 column_names=_column_names(system))
    if detuning is None:
        raise ValueError("time mode requires detuning")
    T_grid = np.asarray(T_grid, dtype=float)
    train = PulseTrain(rabi, pulse_len, delay, detuning)
    traj = _run_topdnp_trajectory(system, train,
                                  initial_state(initial_state_kind, system),
                                  T_grid, policy, 1 + amplitude_error)
    return _result_from_trajectory("topdnp", traj, requested=T_grid)


def run_constant(system: SpinSystem, omega_e: float, T_grid: Sequence[float],
                 policy: IntegrationPolicy | None = None, *,
                 initial_state_kind: str = "sensing",
                 amplitude_error: float = 0.0) -> SweepResult:
    """Continuous constant drive (the Hartmann-Hahn reference case)."""
    policy = policy or IntegrationPolicy()
    T_grid = np.asarray(T_grid, dtype=float)
    w = ConstantWaveform(omega_e * (1 + amplitude_error))
    traj = propagate(system, w, initial_state(initial_state_kind, system),
                     float(T_grid[-1]), policy, sample_times=T_grid)
    return _result_from_trajectory("constant", traj, requested=T_grid)


def _amplitude_error_point(args) -> tuple[float, ...]:
    system, spec, delta, T, nu, detuning, policy = args
    erred = apply_amplitude_error(spec, delta)
    if spec.kind == "dcs":
        res = run_dcs_dnp(system, spec.omega_max, nu, [T], policy,
                          switch_fraction=spec.switch_fraction,
                          t_initial=spec.t_initial,
                          amplitude_error=erred.amplitude_error)
    elif spec.kind == "pm":
        res = run_pm(system, spec.omega0, spec.omega1, nu=nu, T_grid=[T],
                     policy=policy, initial_state_kind=spec.initial_state_kind,
                     amplitude_error=erred.amplitude_error)
    elif spec.kind == "topdnp":
        res = run_topdnp(system, spec.rabi, spec.pulse_len, spec.delay,
                         detuning=detuning, T_grid=[T], policy=policy,
                         initial_state_kind=spec.initial_state_kind,
                         amplitude_error=erred.amplitude_error)
    else:
        res = run_constant(system, spec.omega_e, [T], policy,
                           initial_state_kind=spec.initial_state_kind,
                           amplitude_error=erred.amplitude_error)
    return tuple(res.columns[n][-1] for n in _column_names(system))


def run_amplitude_error_sweep(system: SpinSystem, spec: ProtocolSpec,
                              deltas: Sequence[float], T: float, *,
                              nu: float | None = None,
                              detuning: float | None = None,
                              policy: IntegrationPolicy | None = None,
                              workers: int | None = 1) -> SweepResult:
    """Final observables at time T versus the drive-amplitude error delta.

    The protocol stays at its nominal operating point (nu for dcs/pm,
    detuning for topdnp); each delta scales the drive amplitudes on top of
    any error already carried by ``spec``.
    """
    policy = policy or IntegrationPolicy()
    deltas = np.asarray(deltas, dtype=float)
    args = [(system, spec, d, T, nu, detuning, policy) for d in deltas]
    rows = parallel_map(_amplitude_error_point, args, workers)
    return _result_from_rows("amplitude_error_sweep", "amplitude_error", deltas,
                             rows, column_names=_column_names(system))
