"""The four experiment families: DCS sensing, DCS DNP, PM, and TOP-DNP.

ProtocolSpecs and their operating points turn into compiled schedules in
one array pass over a grid (``_schedule_rows``): its keys and durations
arrays hold every point's slices, in every reset segment, with the bits the
drive objects give.  ``OPERATING_POINT`` names the sweep axis that holds
each kind's point: nu for dcs and pm, the pulse detuning for topdnp, none
for constant.  Every run evolves as stacks of such points (``_stacks``,
``_evolve_stack``), each stack one
CompiledSchedule of rows: a trajectory (``_trajectory``) is a one-point
stack, and ``run_sweep`` is the one runner over every sweep axis: total
time, the operating point, or the amplitude error.  Two front ends build a
dcs spec and call it, ``run_dcs_sensing`` (a nu sweep) and ``run_dcs_dnp``
(a total-time sweep); the benchmark and its tracer call them by name.  The
stacks of a sweep share one key table (a pool task its own copy), which
builds the Hamiltonians of its new keys as one stack; ``run_sweep(...,
table=key_table(system, kind))`` shares one between the sweeps of a run.
Stacks can execute on a process pool; results merge in sweep order, so
output is deterministic for any worker count.

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

from .constants import TWO_PI
from .dynamics import (
    CompiledSchedule,
    IntegrationPolicy,
    MAX_SLICES,
    PropagationError,
    Trajectory,
    _compile_rows,
    _drive_hamiltonians,
    _evolve,
    _normalized,
    _slice_unitaries,
    _stack_groups,
    _times_from_zero,
    _UnitaryCache,
    propagate,  # noqa: F401  perfbench/tracing.py wraps this name here
    propagate_compiled,  # noqa: F401  perfbench/tracing.py wraps this name here
    standard_observables,
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
from .waveform import (ConstantWaveform, DcsWaveform, PmWaveform, Waveform, _check_dcs,
                       _check_pm, _dcs_piece_rows, _require, optimal_dwell_times)

#: the sweep axis that holds each protocol kind's operating point, if it has one
OPERATING_POINT = {"dcs": "nu", "pm": "nu", "topdnp": "detuning", "constant": None}
PROTOCOL_KINDS = tuple(OPERATING_POINT)


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
        for name in ("omega_max", "omega0", "omega1", "rabi", "omega_e"):
            if getattr(self, name) is not None \
                    and not math.isfinite(getattr(self, name) * (1 + self.amplitude_error)):
                raise ValueError(f"{name} * (1 + amplitude_error) must be finite")


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


def pm_resonant_period(omega0: float, omega_n, harmonic: int = 1):
    """Period placing the PM drive's harmonic-k resonance at omega_n (one
    frequency, or an array of them).

    The two-level waveform {omega0+omega1, omega0-omega1} with equal dwell
    times has mean drive omega0, so resonance requires
    omega_n = 2 pi k / tau + omega0.
    """
    if np.any(np.asarray(omega_n) <= omega0):
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
    hams = [0.5 * detuning * SIGMA_X + 0.5 * rabi * SIGMA_Z, 0.5 * detuning * SIGMA_X]
    # the pulse and the delay, keys 0 and 1 of one key table lookup: one eigh
    table = _UnitaryCache(lambda keys: [hams[k] for k in keys])
    pulse, rest = _slice_unitaries(*table.eigenpairs([0, 1]), np.array([pulse_len, delay]))
    beta = 2.0 * math.acos(min(1.0, abs(np.trace(rest @ pulse)) / 2.0))
    return beta / train.period


def solve_topdnp_detuning(rabi: float, pulse_len: float, delay: float,
                          omega_n: float) -> float:
    """Detuning satisfying omega_m + omega_eff = omega_n: scipy's brentq
    between 0 and the first of hi, 1.5 hi, ... above the resonance."""
    # imported here: scipy.optimize takes most of a cold ``import dcspin``
    from scipy.optimize import brentq

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

#: result table (and CSV file) name of every (kind, axis) pair run_sweep accepts:
#: total time, the amplitude error, and the kind's operating point
TABLE_NAMES = {**{(kind, axis): kind for kind, point in OPERATING_POINT.items()
                  for axis in ("T", point) if axis},
               ("dcs", "nu"): "dcs_sensing", ("dcs", "T"): "dcs_dnp",
               **{(kind, "amplitude_error"): "amplitude_error_sweep"
                  for kind in PROTOCOL_KINDS}}


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _undriven_hamiltonian(system: SpinSystem) -> np.ndarray:
    return _read_only(build_hamiltonian(system, 0.0).matrix)


def _pulse_train_hamiltonians(system: SpinSystem, keys: list) -> np.ndarray:
    """The Hamiltonians of pulse-train keys rabi + i detuning, stacked:
    detuning sigma_x / 2 + rabi sigma_z / 2 + the undriven part (a delay's
    rabi 0 moves no bit once the undriven part is added)."""
    keys, ops = np.asarray(keys, dtype=complex)[:, None, None], _operators(system)
    return 0.5 * keys.imag * ops.sigma_x + keys.real * ops.z_half + _undriven_hamiltonian(system)


def key_table(system: SpinSystem, kind: str) -> _UnitaryCache:
    """An empty key table for the drives of protocol ``kind`` on ``system``;
    it builds the Hamiltonians of a lookup's new keys as one stack."""
    return _UnitaryCache(functools.partial(
        _pulse_train_hamiltonians if kind == "topdnp" else _drive_hamiltonians, system))


def _waveform(spec: ProtocolSpec, point: float | None) -> Waveform:
    if spec.kind == "dcs":
        return build_dcs_waveform(spec.omega_max, point, switch_fraction=spec.switch_fraction,
                                  t_initial=spec.t_initial, amplitude_error=spec.amplitude_error)
    if spec.kind == "pm":
        return build_pm_waveform(spec.omega0, spec.omega1, point,
                                 amplitude_error=spec.amplitude_error)
    return ConstantWaveform(spec.omega_e * (1 + spec.amplitude_error))


def _schedule_rows(points: list[tuple[ProtocolSpec, float | None]], policy: IntegrationPolicy,
                   shifts: Sequence[float] = (0.0,)) -> tuple[np.ndarray | None, ...]:
    """The schedules of ``points`` (of one kind) in one array pass, one row
    per (segment start in ``shifts``, point), segment by segment (a dcs
    drive shifted back by its segment start keeps its phase): the rows'
    periods (None for a constant drive), their slices' keys and durations
    one row after another, and their slice counts.  Keys are drive values,
    or rabi + i detuning in a pulse train (rabi 0 in its delay).  Each
    scalar operation, and each input check, is the one of build_dcs_waveform
    or build_pm_waveform, the waveform and PulseTrain, then compile_waveform,
    so every key and duration keeps its bits."""
    spec, x = points[0][0], np.array([p for _, p in points], dtype=float)
    scale, pieces = np.array([1 + s.amplitude_error for s, _ in points]), np.full(len(x), 2)
    if spec.kind == "constant":
        _require(np.isfinite(spec.omega_e * scale), "omega_e must be finite")
        return None, spec.omega_e * scale, np.zeros(len(x)), np.ones(len(x), dtype=int)
    if spec.kind == "topdnp":
        period, v0 = np.full(len(x), spec.pulse_len + spec.delay), np.zeros((len(x), 2), complex)
        v0.real[:, 0], v0.imag[:] = spec.rabi * scale, x[:, None]
        durations, v1 = np.tile([spec.pulse_len, spec.delay], (len(x), 1)), v0
    elif spec.kind == "pm":
        period, omega0, omega1 = pm_resonant_period(spec.omega0, x), spec.omega0 * scale, \
            spec.omega1 * scale
        _check_pm(omega0, omega1, period)
        half = 0.5 * period  # PmWaveform.pieces: omega0 + omega1, then omega0 - omega1
        durations = np.stack([half, period - half], 1)
        v0 = v1 = np.stack([omega0 + omega1, omega0 - omega1], 1)
    else:
        tau_plus, tau_minus = optimal_dwell_times(spec.omega_max, x)
        period, tau_switch = tau_plus + tau_minus, spec.switch_fraction * tau_minus
        t0 = (-0.5 * tau_plus if spec.t_initial == "symmetric" else np.zeros(len(x))
              if spec.t_initial == "zero" else float(spec.t_initial) * period)
        _check_dcs(spec.omega_max * scale, tau_plus, tau_minus, tau_switch, t0)
        tile = functools.partial(np.tile, reps=len(shifts))
        start, end, v0, v1, pieces = _dcs_piece_rows(
            tile(spec.omega_max * scale), tile(tau_plus), tile(tau_minus), tile(tau_switch),
            (t0 - np.asarray(shifts)[:, None]).ravel())
        period, durations = tile(period), end - start
    return period, *_compile_rows(durations, v0, v1, pieces, policy)


def check_reset_count(reset_every: float, t_end: float) -> None:
    """Raise unless a run to ``t_end`` resets the electron at most MAX_SLICES
    times (np.arange(reset_every, t_end, reset_every) lists the resets)."""
    if (t_end - reset_every) / reset_every > MAX_SLICES:
        raise ValueError(f"a reset every {reset_every:.6g} s makes more than {MAX_SLICES} "
                         f"resets by t = {t_end:.6g} s")


def _nearest(grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The element of the ascending ``grid`` nearest each x (the lower on a
    tie, as argmin over |x - grid| picks it) and its distance: inf for an
    empty grid."""
    grid = np.concatenate([[-np.inf], grid, [np.inf]])
    i = np.searchsorted(grid, x)  # grid[i - 1] < x <= grid[i]
    i -= np.abs(x - grid[i - 1]) <= np.abs(grid[i] - x)
    return grid[i], np.abs(x - grid[i])


def _segments(reset_every: float, sample_times: np.ndarray):
    """The (start, end) times, shaped (2, segments), of the segments that
    the sample times and an electron reset every ``reset_every`` cut a run
    into, and whether a reset follows each."""
    t_end = float(sample_times[-1])
    check_reset_count(reset_every, t_end)
    resets, tol = np.arange(reset_every, t_end, reset_every), 1e-15 * t_end
    # a reset within rounding of a sample happens at that sample, which then
    # reads the state before the reset whatever the last bit of either time
    # (a reset moves by at most tol, far less than reset_every, so they stay ascending)
    sample, gap = _nearest(sample_times, resets)
    resets = np.where(gap <= tol, sample, resets)
    at = np.unique(np.concatenate([sample_times, resets]))
    at = at[at > 0]
    at_reset = (_nearest(resets, at)[1] <= tol) & (at < t_end)
    return np.stack([np.concatenate([[0.0], at[:-1]]), at]), at_reset


@dataclass(frozen=True)
class _Chain:
    """The schedules of a stack of points in each segment of a reset run
    (one CompiledSchedule of the stack's points per segment) and the run's
    segment plan (_segments): (start, end) times and whether a reset follows."""

    segments: list[CompiledSchedule]
    bounds: np.ndarray
    at_reset: np.ndarray

    def __len__(self) -> int:
        return len(self.segments[0])


def _evolve_stack(system: SpinSystem, spec: ProtocolSpec, table: _UnitaryCache,
                  schedules: CompiledSchedule | _Chain, T: float | np.ndarray,
                  policy: IntegrationPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The observables (times, points, observables) at T (one time, or
    ascending times ending above 0) of a stack of _stacks, and its points'
    final branch weights and vectors.  With resets it is a stack of chains:
    a lane per segment, sampled at its start and end and followed by the
    reset or by nothing, consecutive segments of one slice count within
    STACK_BYTES in one _evolve call."""
    times, obs = np.asarray(T, dtype=float).reshape(-1), standard_observables(system)
    state = initial_state(spec.initial_state_kind, system)
    if spec.reset_every is None:
        return _evolve(table, schedules, times, state, policy, obs)
    bounds, segments = schedules.bounds, schedules.segments
    electron = _ELECTRON_VECTORS[InitialStateKind(spec.initial_state_kind)]
    links = [(lambda state: _reset_electron(state, electron)) if reset else (lambda state: state)
             for reset in schedules.at_reset]
    n, ends = len(schedules), []
    for g in _stack_groups([(s.keys.shape[1],) for s in segments], system.dimension, n):
        if g[0]:
            state = [links[g[0] - 1](_normalized(w, v)) for w, v in zip(weights, psi)]
        lanes = CompiledSchedule(*(np.concatenate([getattr(segments[s], a) for s in g])
                                   for a in ("periods", "keys", "durations")))
        values, weights, psi = _evolve(table, lanes, np.repeat(bounds[:, g], n, axis=1), state,
                                       policy, obs, chain=links[g[0]:g[-1]])
        if not ends:
            ends.append(values[:1, :n])  # the t = 0 row
        ends.append(values[1].reshape(len(g), n, -1))
    return np.concatenate(ends)[np.isin(np.append(0.0, bounds[1]), times)], weights, psi


def _trajectory(system: SpinSystem, spec: ProtocolSpec, point: float | None,
                sample_times: Sequence[float], policy: IntegrationPolicy,
                table: _UnitaryCache | None = None) -> Trajectory:
    """Evolve ``spec`` at its operating point from its initial state as a
    one-point stack of _stacks (with resets, a stack of chains).  The run is
    read at t = 0 whether or not that is asked for, and the trajectory holds
    the requested sample times only."""
    times = _times_from_zero(sample_times)
    if not times[-1] > 0:  # with only t = 0 to sample there is no segment to reset
        spec = replace(spec, reset_every=None)
    values, weights, psi = _evolve_stack(*_stacks(system, [(spec, point)], times, policy,
                                                  table)[0])
    skip = len(times) - len(sample_times)
    return Trajectory(times=times[skip:], final_state=_normalized(weights[0], psi[0]),
                      observables={o.name: values[skip:, 0, i]
                                   for i, o in enumerate(standard_observables(system))})


def _reset_electron(state: QuantumState, electron: np.ndarray) -> QuantumState:
    """|electron><electron| (x) Tr_e rho, as at most 2**N weighted branches.

    Tr_e rho = M M^H for the stack M = [sqrt(w) psi_up, sqrt(w) psi_down] of
    the branches' electron-up and electron-down halves, so the SVD
    M = U S V^H gives its eigenvectors U and eigenvalues S**2.
    """
    weights, psi = state.branches
    halves = np.sqrt(weights) * psi.reshape(2, -1, psi.shape[1])
    u, s, _ = np.linalg.svd(np.concatenate(halves, axis=1), full_matrices=False)
    return QuantumState.mixture(s ** 2 / np.sum(s ** 2),  # |electron> (x) u
                                (electron[:, None, None] * u).reshape(-1, len(s)))


def _stack_rows(item) -> np.ndarray:
    """Observables at T of one stack of sweep points (module level, so it
    pickles).  ``item`` is the stack's _evolve_stack arguments, its first
    grid index and the sweep axis and values; a state failure at a point
    names its grid index and sweep value, not its index in the stack."""
    args, first, axis, values = item
    try:
        return _evolve_stack(*args)[0][-1]
    except PropagationError as exc:
        if exc.point is None:
            raise
        message, here = str(exc), f"at point {exc.point}"
        where = f"at grid point {first + exc.point} ({axis} = {values[exc.point]:.9g})"
        raise PropagationError(message.replace(here, where) if here in message else
                               f"{message} {where}") from None


def _stacks(system: SpinSystem, points: list[tuple[ProtocolSpec, float | None]],
            T: float | np.ndarray, policy: IntegrationPolicy,
            table: _UnitaryCache | None = None) -> list[tuple]:
    """_evolve_stack arguments, one per stack (a run of consecutive points
    with equal slice counts in every segment, one without resets, within
    STACK_BYTES: dynamics._stack_groups), all holding one key table (a new
    one unless ``table`` is given).  The schedules of every point in every
    segment come from one _schedule_rows pass."""
    spec, n = points[0][0], len(points)
    plan = None if spec.reset_every is None else \
        _segments(spec.reset_every, np.asarray(T, dtype=float).reshape(-1))
    periods, keys, durations, counts = _schedule_rows(points, policy,
                                                      (0.0,) if plan is None else plan[0][0])
    offsets = np.append(0, np.cumsum(counts))
    table = key_table(system, spec.kind) if table is None else table
    stacks = []
    for g in _stack_groups(list(map(tuple, counts.reshape(-1, n).T.tolist())), system.dimension):
        rows = [(a + g[0], a + g[-1] + 1) for a in range(0, len(counts), n)]  # per segment
        segments = [CompiledSchedule(None if periods is None else periods[a:b],
                                     keys[offsets[a]:offsets[b]], durations[offsets[a]:offsets[b]])
                    for a, b in rows]
        stacks.append((system, spec, table, segments[0] if plan is None else _Chain(segments, *plan),
                       T, policy))
    return stacks


def _recorded(columns: dict) -> dict:
    """The columns a sweep records from its standard observables' (by
    name): those, then nuclear_polarization = 2 I_z[1] with a nucleus."""
    if "I_z[1]" in columns:
        columns["nuclear_polarization"] = 2.0 * columns["I_z[1]"]
    return columns


def recorded_columns(system: SpinSystem) -> list[str]:
    """The names of the columns run_sweep records for ``system``, in order."""
    return list(_recorded({o.name: 0.0 for o in standard_observables(system)}))


def run_sweep(system: SpinSystem, spec: ProtocolSpec, axis: str,
              grid: Sequence[float], *, T: float | None = None,
              point: float | None = None, policy: IntegrationPolicy | None = None,
              workers: int | None = 1, table: _UnitaryCache | None = None) -> SweepResult:
    """Run ``spec`` over ``grid`` along one axis.

    Axis "T" is one evolution at ``point``, sampled at the grid times.  The
    other axes record the observables at time T per grid value: the kind's
    OPERATING_POINT axis ("nu" for dcs and pm, "detuning" for topdnp) moves
    the operating point, and "amplitude_error" scales the drive amplitudes
    by (1 + delta) on top of ``spec.amplitude_error`` at the fixed
    ``point``.  Their grid points
    evolve as stacks (dynamics._evolve), which the pool spreads when a grid
    needs more than one; with resets, a stack is a stack of chains, one
    lane per segment (_evolve_stack).  The points read one key table:
    ``table`` (from key_table, for this system and kind) when given, so
    sweeps of one run can share it, else a new one.
    """
    if (spec.kind, axis) not in TABLE_NAMES:
        raise ValueError(f"axis {axis!r} does not apply to protocol {spec.kind!r}")
    if point is None and OPERATING_POINT[spec.kind] not in (None, axis):
        raise ValueError(f"a {axis} sweep of {spec.kind!r} needs the operating point")
    if axis != "T" and not (T is not None and T > 0):
        raise ValueError(f"a {axis} sweep needs T > 0")
    policy = policy or IntegrationPolicy()
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise ValueError(f"a {axis} sweep needs at least one grid value")
    if axis == "T":
        columns = _trajectory(system, spec, point, grid, policy, table).observables
    else:
        if axis == "amplitude_error":
            points = [(apply_amplitude_error(spec, d), point) for d in grid]
        else:
            points = [(spec, value) for value in grid]
        stacks = _stacks(system, points, T, policy, table)
        ends = np.cumsum([len(stack[3]) for stack in stacks]).tolist()
        rows = np.concatenate(parallel_map(_stack_rows, [
            (stack, a, axis, grid[a:b]) for stack, a, b in zip(stacks, [0, *ends], ends)], workers))
        columns = {o.name: rows[:, i] for i, o in enumerate(standard_observables(system))}
    metadata = {} if spec.reset_every is None else {"reset_every_s": spec.reset_every}
    return SweepResult(TABLE_NAMES[spec.kind, axis], axis, grid, _recorded(columns), metadata)


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
