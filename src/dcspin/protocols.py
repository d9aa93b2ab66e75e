"""The four experiment families: DCS sensing, DCS DNP, PM, and TOP-DNP.

A ProtocolSpec and its operating point (nu for dcs and pm, the pulse
detuning for topdnp) turn into one trajectory in ``_trajectory``, and
``run_sweep`` is the one runner over every sweep axis: total time, the
operating point, or the amplitude error.  The run_* functions are short
front ends that build a spec and call it.  Sweep points are independent and
can execute on a process pool; results merge in sweep order, so output is
deterministic for any worker count.

Amplitude errors model miscalibrated drive power: every drive amplitude is
scaled by (1 + delta) while timing parameters stay at their nominal values,
which is what makes the switching protocol's resonance shift only by
duty_asymmetry * delta * omega_max.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .constants import TWO_PI
from .dynamics import (
    CompiledSchedule,
    IntegrationPolicy,
    Trajectory,
    _evolve,
    _normalized,
    _split_durations,
    _stack_groups,
    _UnitaryCache,
    propagate,  # noqa: F401  perfbench/tracing.py wraps this name here
    propagate_compiled,
    standard_observables,
    waveform_drive,
)
from .spincore import (
    _ELECTRON_VECTORS,
    InitialStateKind,
    QuantumState,
    SIGMA_X,
    SIGMA_Z,
    SYSTEM_CACHE_SIZE,
    SpinSystem,
    _operators,
    _read_only,
    build_hamiltonian,
    embed_operator,  # noqa: F401  perfbench/tracing.py wraps this name here
    initial_state,
)
from .sweep import SweepResult, parallel_map
from .waveform import ConstantWaveform, DcsWaveform, PmWaveform, Waveform, optimal_dwell_times

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
        """Slices keyed (segment, rabi, detuning), as _pulse_train_hamiltonian reads them."""
        spans = ((("pulse", self.rabi, self.detuning), self.pulse_len),
                 (("delay", 0.0, self.detuning), self.delay))
        steps: list[tuple[tuple, float]] = []
        for (key, dur), n in zip(spans, _split_durations([(d, 1) for _, d in spans],
                                                         policy.max_step)):
            steps.extend([(key, dur / n)] * n)
        return CompiledSchedule(period=self.period, steps=tuple(steps))


@dataclass(frozen=True)
class ProtocolSpec:
    """Declarative description of one protocol run (the config-facing object).

    Timing parameters are always derived from the nominal amplitudes; the
    amplitude_error delta scales only the drive amplitudes of the built
    waveform.  t_initial is 'symmetric' (positive segment centered on t=0),
    'zero', or a number interpreted as a fraction of the switching period.
    initial_state_kind defaults to 'topdnp_parallel' for topdnp and to
    'sensing' otherwise.
    """

    kind: str
    initial_state_kind: str | None = None
    measured: tuple[str, ...] = ()  # empty: keep every recorded observable
    amplitude_error: float = 0.0
    # dcs
    omega_max: float | None = None
    switch_fraction: float = 0.0
    t_initial: float | str = "symmetric"
    reset_every: float | None = None  # interval of electron reprojection onto its initial state
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
        if self.initial_state_kind is None:
            object.__setattr__(self, "initial_state_kind",
                               "topdnp_parallel" if self.kind == "topdnp" else "sensing")
        InitialStateKind(self.initial_state_kind)
        missing = [f for f in self._REQUIRED[self.kind] if getattr(self, f) is None]
        if missing:
            raise ValueError(f"protocol kind {self.kind!r} requires fields {missing}")
        if self.kind == "dcs" and isinstance(self.t_initial, str) \
                and self.t_initial not in ("symmetric", "zero"):
            raise ValueError("t_initial must be 'symmetric', 'zero', or a period fraction")
        if self.kind == "dcs" and not (self.omega_max > 0 and 0 <= self.switch_fraction < 1):
            raise ValueError("dcs requires omega_max > 0 and 0 <= switch_fraction < 1")
        if self.reset_every is not None and not (self.kind == "dcs" and self.reset_every > 0):
            raise ValueError("reset_every must be positive and applies to dcs only")
        if self.kind == "pm" and min(self.omega0, self.omega1) < 0:
            raise ValueError("omega0 and omega1 must be nonnegative")
        if self.kind == "topdnp" and min(self.pulse_len, self.delay) <= 0:
            raise ValueError("pulse_len and delay must be positive")


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

def effective_field_topdnp(rabi: float, detuning: float, pulse_len: float,
                           delay: float) -> float:
    """Rotation rate of the electron over one pulse-train period.

    Builds the electron-only propagator (pulse, then delay), extracts its
    rotation angle beta in [0, pi], and returns beta / (pulse_len + delay).
    In the dressed basis used throughout, the lab-frame detuning acts along
    sigma_x and the pulse drive along sigma_z.
    """
    train = PulseTrain(rabi, pulse_len, delay, detuning)  # checks the lengths
    hams = {"pulse": 0.5 * detuning * SIGMA_X + 0.5 * rabi * SIGMA_Z,
            "delay": 0.5 * detuning * SIGMA_X}
    cache = _UnitaryCache(hams.__getitem__)
    u = cache.unitary("delay", delay) @ cache.unitary("pulse", pulse_len)
    half_trace = min(1.0, abs(np.trace(u)) / 2.0)
    beta = 2.0 * math.acos(half_trace)
    return beta / train.period


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
# one trajectory per operating point, one runner for every sweep axis
# ---------------------------------------------------------------------------

#: result table (and CSV file) name of every (kind, axis) pair run_sweep accepts
TABLE_NAMES = {("dcs", "nu"): "dcs_sensing", ("dcs", "T"): "dcs_dnp",
               ("pm", "nu"): "pm", ("pm", "T"): "pm",
               ("topdnp", "detuning"): "topdnp", ("topdnp", "T"): "topdnp",
               ("constant", "T"): "constant",
               **{(kind, "amplitude_error"): "amplitude_error_sweep"
                  for kind in PROTOCOL_KINDS}}


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _undriven_hamiltonian(system: SpinSystem) -> np.ndarray:
    return _read_only(build_hamiltonian(system, 0.0).matrix)


def _pulse_train_hamiltonian(system: SpinSystem, key: tuple) -> np.ndarray:
    segment, rabi, detuning = key
    ops = _operators(system)
    h = 0.5 * detuning * ops.sigma_x
    if segment == "pulse":
        h = h + rabi * ops.z_half
    return h + _undriven_hamiltonian(system)


def _waveform(spec: ProtocolSpec, point: float | None) -> Waveform:
    if spec.kind == "dcs":
        return build_dcs_waveform(spec.omega_max, point, switch_fraction=spec.switch_fraction,
                                  t_initial=spec.t_initial,
                                  amplitude_error=spec.amplitude_error)
    if spec.kind == "pm":
        return build_pm_waveform(spec.omega0, spec.omega1, point,
                                 amplitude_error=spec.amplitude_error)
    return ConstantWaveform(spec.omega_e * (1 + spec.amplitude_error))


def _drive(system: SpinSystem, spec: ProtocolSpec, point: float | None,
           policy: IntegrationPolicy):
    """The keyed Hamiltonians and the compiled schedule of ``spec`` at ``point``.

    The point is nu for dcs and pm and the pulse detuning for topdnp;
    constant has none.  A key names the same Hamiltonian of ``system`` at
    every point (a drive value, or a pulse-train segment with its rabi and
    detuning), so the points of a sweep share the keys they have in common.
    """
    if spec.kind == "topdnp":
        train = PulseTrain(spec.rabi * (1 + spec.amplitude_error), spec.pulse_len,
                           spec.delay, point)
        return (functools.partial(_pulse_train_hamiltonian, system),
                train.compiled_schedule(policy))
    return waveform_drive(system, _waveform(spec, point), policy)


def _trajectory(system: SpinSystem, spec: ProtocolSpec, point: float | None,
                sample_times: Sequence[float], policy: IntegrationPolicy) -> Trajectory:
    """Evolve ``spec`` at its operating point from its initial state to the
    last sample time."""
    state0 = initial_state(spec.initial_state_kind, system)
    # with only t = 0 to sample there is no segment to reset
    if spec.reset_every is not None and sample_times[-1] > 0:
        return _dnp_with_resets(system, _waveform(spec, point), spec, state0, sample_times,
                                policy)
    hamiltonian_of, schedule = _drive(system, spec, point, policy)
    return propagate_compiled(hamiltonian_of, schedule, state0, sample_times, policy,
                              standard_observables(system))


def _dnp_with_resets(system: SpinSystem, w: DcsWaveform, spec: ProtocolSpec,
                     state0: QuantumState, T_grid: Sequence[float],
                     policy: IntegrationPolicy) -> Trajectory:
    """Evolve under ``w``, but every spec.reset_every the electron is
    projected back onto its initial state while the nuclear state is kept;
    the trajectory holds exactly the times in T_grid.

    The samples and resets cut the run into segments.  Each segment keeps
    the waveform's phase by shifting its anchor to the segment's start, and
    is one point of a chain in dynamics._evolve, sampled at its start and
    end and followed by the reset or by nothing.  Consecutive segments of
    equal slice count within STACK_BYTES make one call."""
    electron = _ELECTRON_VECTORS[InitialStateKind(spec.initial_state_kind)]
    obs = standard_observables(system)
    T_grid = np.asarray(T_grid, dtype=float)
    t_end = float(T_grid[-1])
    resets = np.arange(spec.reset_every, t_end, spec.reset_every)
    # a reset within rounding of a sample happens at that sample, which then
    # reads the state before the reset whatever the last bit of either time
    gap = np.abs(resets[:, None] - T_grid)
    resets = np.where(gap.min(axis=1) <= 1e-15 * t_end, T_grid[gap.argmin(axis=1)], resets)
    at = np.array(sorted({float(t) for t in np.concatenate([T_grid, resets]) if t > 0}))
    at_reset = np.isclose(at[:, None], resets, rtol=0, atol=1e-15 * t_end).any(1) & (at < t_end)
    times = np.stack([np.concatenate([[0.0], at[:-1]]), at])  # (start, end) of each segment
    # continue the waveform phase across segments by shifting its anchor
    drives = [waveform_drive(system, replace(w, t_initial=w.t_initial - t), policy)
              for t in times[0].tolist()]
    schedules = [schedule for _, schedule in drives]

    def after(b: int, state: QuantumState) -> QuantumState:
        return _reset_electron(state, electron) if at_reset[b] else state

    ends, state = [], state0
    for g in _stack_groups(schedules, system.dimension):
        values, weights, psi = _evolve(drives[0][0], [schedules[b] for b in g], times[:, g],
                                       state, policy, obs,
                                       chain=[functools.partial(after, b) for b in g[:-1]])
        if not ends:
            first = values[0, :1]  # the t = 0 row
        ends.append(values[1])
        state = after(g[-1], _normalized(weights, psi[0]))
    samples = set(T_grid.tolist())
    table = np.concatenate(ends)[[t in samples for t in at.tolist()]]
    if 0.0 in samples:
        table = np.concatenate([first, table])
    return Trajectory(times=T_grid,
                      observables={o.name: table[:, i] for i, o in enumerate(obs)},
                      final_state=state)


def _reset_electron(state: QuantumState, electron: np.ndarray) -> QuantumState:
    """|electron><electron| (x) Tr_e rho, as at most 2**N weighted branches.

    Tr_e rho = M M^H for the stack M = [sqrt(w) psi_up, sqrt(w) psi_down] of
    the branches' electron-up and electron-down halves, so the SVD
    M = U S V^H gives its eigenvectors U and eigenvalues S**2.
    """
    weights, psi = state.branches
    halves = np.sqrt(weights) * psi.reshape(2, -1, psi.shape[1])
    u, s, _ = np.linalg.svd(np.concatenate(halves, axis=1), full_matrices=False)
    return QuantumState.mixture(s ** 2 / np.sum(s ** 2), np.kron(electron[:, None], u))


def _final_row(args) -> tuple[float, ...]:
    """Observables at the end of one sweep point with resets (module level, so it pickles)."""
    return tuple(series[-1] for series in _trajectory(*args).observables.values())


def _stack_rows(args) -> np.ndarray:
    """Observables at T of one stack of sweep points (module level, so it pickles)."""
    system, state_kind, hamiltonian_of, schedules, T, policy = args
    values, _, _ = _evolve(hamiltonian_of, schedules, [T], initial_state(state_kind, system),
                           policy, standard_observables(system))
    return values[0]


def _stacks(system: SpinSystem, points: list[tuple[ProtocolSpec, float | None]], T: float,
            policy: IntegrationPolicy) -> list[tuple]:
    """_stack_rows arguments, one per stack of points (dynamics._stack_groups)."""
    drives = [_drive(system, spec, point, policy) for spec, point in points]
    schedules = [schedule for _, schedule in drives]
    return [(system, points[0][0].initial_state_kind, drives[0][0], [schedules[b] for b in g],
             T, policy) for g in _stack_groups(schedules, system.dimension)]


def run_sweep(system: SpinSystem, spec: ProtocolSpec, axis: str,
              grid: Sequence[float], *, T: float | None = None,
              point: float | None = None, policy: IntegrationPolicy | None = None,
              workers: int | None = 1) -> SweepResult:
    """Run ``spec`` over ``grid`` along one axis.

    Axis "T" is one evolution at ``point``, sampled at the grid times.  The
    other axes record the observables at time T per grid value: "nu" (dcs,
    pm) and "detuning" (topdnp) move the operating point, and
    "amplitude_error" scales the drive amplitudes by (1 + delta) on top of
    ``spec.amplitude_error`` at the fixed ``point``.  Their grid points
    evolve as stacks (dynamics._evolve), which the pool spreads when a grid
    needs more than one; dcs points with resets run one by one.
    """
    if (spec.kind, axis) not in TABLE_NAMES:
        raise ValueError(f"axis {axis!r} does not apply to protocol {spec.kind!r}")
    if point is None and axis in ("T", "amplitude_error") and spec.kind != "constant":
        raise ValueError(f"a {axis} sweep of {spec.kind!r} needs the operating point")
    if axis != "T" and not (T is not None and T > 0):
        raise ValueError(f"a {axis} sweep needs T > 0")
    policy = policy or IntegrationPolicy()
    grid = np.asarray(grid, dtype=float)
    if axis == "T":
        traj = _trajectory(system, spec, point, grid, policy)
        first = len(traj.times) - len(grid)  # the t = 0 sample, unless asked for
        columns = {name: series[first:] for name, series in traj.observables.items()}
    else:
        if axis == "amplitude_error":
            points = [(apply_amplitude_error(spec, d), point) for d in grid]
        else:
            points = [(spec, value) for value in grid]
        if spec.reset_every is None:
            rows = np.concatenate(parallel_map(_stack_rows, _stacks(system, points, T, policy),
                                               workers))
        else:
            rows = np.asarray(parallel_map(_final_row, [(system, s, p, [T], policy)
                                                        for s, p in points], workers),
                              dtype=float)
        columns = {o.name: rows[:, i] for i, o in enumerate(standard_observables(system))}
    if "I_z[1]" in columns:
        columns["nuclear_polarization"] = 2.0 * columns["I_z[1]"]
    metadata = {} if spec.reset_every is None else {"reset_every_s": spec.reset_every}
    return SweepResult(TABLE_NAMES[spec.kind, axis], axis, grid, columns, metadata)


# ---------------------------------------------------------------------------
# front ends
# ---------------------------------------------------------------------------

def run_dcs_sensing(system: SpinSystem, omega_max: float, nu_grid: Sequence[float],
                    T: float, policy: IntegrationPolicy | None = None, *,
                    switch_fraction: float = 0.0,
                    t_initial: float | str = "symmetric",
                    amplitude_error: float = 0.0,
                    workers: int | None = 1) -> SweepResult:
    """Spectral response: per target frequency nu, drive with the optimal
    switching waveform for time T and record the qubit signal."""
    spec = ProtocolSpec("dcs", omega_max=omega_max, switch_fraction=switch_fraction,
                        t_initial=t_initial, amplitude_error=amplitude_error)
    return run_sweep(system, spec, "nu", nu_grid, T=T, policy=policy, workers=workers)


def run_dcs_dnp(system: SpinSystem, omega_max: float, nu: float,
                T_grid: Sequence[float], policy: IntegrationPolicy | None = None, *,
                switch_fraction: float = 0.0,
                t_initial: float | str = "symmetric",
                amplitude_error: float = 0.0,
                reset_every: float | None = None) -> SweepResult:
    """Nuclear polarization buildup: one continuous evolution at fixed nu,
    sampled at every time in T_grid.

    reset_every optionally reprojects the electron onto its initial state at
    fixed intervals (off by default and excluded from the acceptance checks).
    """
    spec = ProtocolSpec("dcs", omega_max=omega_max, switch_fraction=switch_fraction,
                        t_initial=t_initial, amplitude_error=amplitude_error,
                        reset_every=reset_every)
    return run_sweep(system, spec, "T", T_grid, point=nu, policy=policy)


def _spectrum_or_time(system, spec, axis, grid, T, point, T_grid, policy, workers):
    """Spectrum mode (``axis`` grid + T) or time mode (point + T_grid)."""
    if (grid is None) == (T_grid is None):
        raise ValueError("provide exactly one of a spectrum grid (with T) or T_grid")
    if grid is None:
        return run_sweep(system, spec, "T", T_grid, point=point, policy=policy)
    return run_sweep(system, spec, axis, grid, T=T, policy=policy, workers=workers)


def run_pm(system: SpinSystem, omega0: float, omega1: float, *,
           nu_grid: Sequence[float] | None = None, T: float | None = None,
           nu: float | None = None, T_grid: Sequence[float] | None = None,
           policy: IntegrationPolicy | None = None,
           initial_state_kind: str | None = None,
           amplitude_error: float = 0.0,
           workers: int | None = 1) -> SweepResult:
    """PM protocol: spectrum mode (nu_grid + T) scans the resonance through
    the modulation period; time mode (nu + T_grid) follows one evolution."""
    spec = ProtocolSpec("pm", initial_state_kind, amplitude_error=amplitude_error,
                        omega0=omega0, omega1=omega1)
    return _spectrum_or_time(system, spec, "nu", nu_grid, T, nu, T_grid, policy, workers)


def run_topdnp(system: SpinSystem, rabi: float, pulse_len: float, delay: float, *,
               detuning_grid: Sequence[float] | None = None, T: float | None = None,
               detuning: float | None = None, T_grid: Sequence[float] | None = None,
               policy: IntegrationPolicy | None = None,
               initial_state_kind: str | None = None,
               amplitude_error: float = 0.0,
               workers: int | None = 1) -> SweepResult:
    """Pulse-train DNP: sweep the pulse detuning (detuning_grid + T) or
    follow the polarization buildup at fixed detuning (detuning + T_grid)."""
    spec = ProtocolSpec("topdnp", initial_state_kind, amplitude_error=amplitude_error,
                        rabi=rabi, pulse_len=pulse_len, delay=delay)
    return _spectrum_or_time(system, spec, "detuning", detuning_grid, T, detuning, T_grid,
                             policy, workers)


def run_constant(system: SpinSystem, omega_e: float, T_grid: Sequence[float],
                 policy: IntegrationPolicy | None = None, *,
                 initial_state_kind: str | None = None,
                 amplitude_error: float = 0.0) -> SweepResult:
    """Continuous constant drive (the Hartmann-Hahn reference case)."""
    spec = ProtocolSpec("constant", initial_state_kind, amplitude_error=amplitude_error,
                        omega_e=omega_e)
    return run_sweep(system, spec, "T", T_grid, policy=policy)


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
    point = detuning if spec.kind == "topdnp" else nu
    return run_sweep(system, spec, "amplitude_error", deltas, T=T, point=point,
                     policy=policy, workers=workers)
