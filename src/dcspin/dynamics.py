"""Exact time-domain propagation under piecewise-defined drives.

The evolution operator is assembled from constant-Hamiltonian slices.  On
every slice U = exp(-i H dt) is computed through a Hermitian
eigendecomposition and applied over the full slice, so piecewise-constant
drives are propagated exactly; switching ramps are subdivided into
midpoint-constant sub-slices.  Waveform breakpoints are always slice
boundaries, so nothing aliases across a switch.

Eigendecompositions are cached per distinct drive value (the switching
drive has only two levels plus ramp midpoints) and slice unitaries per
(drive value, duration).  When the drive is periodic and no sample time
falls inside a span of whole periods, the span is applied as an integer
power of the single-period propagator.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .spincore import (
    Observable,
    QuantumState,
    SIGMA_X,
    SIGMA_Y,
    SPIN_MINUS,
    SPIN_PLUS,
    SPIN_Z,
    SYSTEM_CACHE_SIZE,
    SpinSystem,
    build_hamiltonian,
    embed_matrix,
    nuclear_frequency,
    nuclear_z_observable,
    sigma_z_observable,
)
from .waveform import (
    ConstantWaveform,
    DcsWaveform,
    ResonanceConditionError,
    TWO_PI,
    Waveform,
)

SEGMENT_UNITARITY_TOL = 1e-10


class PropagationError(ArithmeticError):
    """Propagation aborted: unitarity or state-health drift beyond tolerance."""


@dataclass(frozen=True)
class IntegrationPolicy:
    """Numerical policy for the piecewise propagator.

    max_step caps slice durations when set.  The default (None) applies
    each constant segment in a single exact exponential; a finite cap only
    matters for convergence studies, since ramps are already subdivided
    into ramp_substeps midpoint slices.  fast_forward enables whole-period
    spans via matrix powers; disable it to force strictly sequential slice
    application.
    """

    max_step: float | None = None
    ramp_substeps: int = 64
    unitarity_check_interval: int = 1000
    tolerance: float = 1e-9
    fast_forward: bool = True

    def __post_init__(self):
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive when set")
        if self.ramp_substeps < 1:
            raise ValueError("ramp_substeps must be >= 1")
        if self.unitarity_check_interval < 1:
            raise ValueError("unitarity_check_interval must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled observable series plus the final state."""

    times: np.ndarray
    observables: dict[str, np.ndarray]
    final_state: QuantumState

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        for name, series in self.observables.items():
            self.observables[name] = _check_bounds(name, np.asarray(series, dtype=float))

    def column(self, name: str) -> np.ndarray:
        return self.observables[name]


def _check_bounds(name: str, series: np.ndarray) -> np.ndarray:
    """sigma_z stays in [-1, 1] and every I_z in [-1/2, 1/2]."""
    slack = 1e-7
    if name == "sigma_z" and np.any(np.abs(series) > 1 + slack):
        raise ValueError("sigma_z series leaves [-1, 1]")
    if name.startswith("I_z") and np.any(np.abs(series) > 0.5 + slack):
        raise ValueError(f"{name} series leaves [-1/2, 1/2]")
    return series


@dataclass(frozen=True)
class CompiledSchedule:
    """Constant-Hamiltonian slices for one period, or a single aperiodic key."""

    period: float | None
    steps: tuple[tuple[Hashable, float], ...] = ()
    constant_key: Hashable | None = None

    @functools.cached_property
    def boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum([d for _, d in self.steps])])


def _split_durations(duration: float, max_step: float | None, at_least: int = 1) -> int:
    n = at_least
    if max_step is not None:
        n = max(n, math.ceil(duration / max_step))
    return n


def compile_waveform(w: Waveform, policy: IntegrationPolicy) -> CompiledSchedule:
    """Turn a scalar drive into keyed constant slices (keys are drive values)."""
    if isinstance(w, ConstantWaveform):
        return CompiledSchedule(period=None, constant_key=w.omega_e)
    steps: list[tuple[float, float]] = []
    for p in w.pieces():
        if p.v0 == p.v1:
            n = _split_durations(p.duration, policy.max_step)
            steps.extend([(p.v0, p.duration / n)] * n)
        else:
            n = _split_durations(p.duration, policy.max_step, at_least=policy.ramp_substeps)
            dt = p.duration / n
            for i in range(n):
                steps.append((p.v0 + (p.v1 - p.v0) * (i + 0.5) / n, dt))
    return CompiledSchedule(period=w.period, steps=tuple(steps))


class _UnitaryCache:
    """exp(-i H dt) factory with per-key eigendecomposition reuse."""

    def __init__(self, hamiltonian_of: Callable[[Hashable], np.ndarray]):
        self._hamiltonian_of = hamiltonian_of
        self._eigs: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}
        self._unitaries: dict[tuple[Hashable, float], np.ndarray] = {}

    def unitary(self, key: Hashable, duration: float) -> np.ndarray:
        u = self._unitaries.get((key, duration))
        if u is not None:
            return u
        eig = self._eigs.get(key)
        if eig is None:
            h = np.asarray(self._hamiltonian_of(key), dtype=complex)
            eig = np.linalg.eigh(h)
            self._eigs[key] = eig
        vals, vecs = eig
        u = (vecs * np.exp(-1j * vals * duration)) @ vecs.conj().T
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if defect >= SEGMENT_UNITARITY_TOL:
            raise PropagationError(
                f"segment unitary defect {defect:.3e} >= {SEGMENT_UNITARITY_TOL}"
            )
        self._unitaries[(key, duration)] = u
        return u


def _slice_unitaries(vals: np.ndarray, vecs: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """V diag(exp(-i lambda tau)) V^H for a stack of eigenpairs, each checked unitary."""
    u = (vecs * np.exp(-1j * vals * durations[:, None])[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    defect = np.max(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(u.shape[-1])))
    if defect >= SEGMENT_UNITARITY_TOL:
        raise PropagationError(f"segment unitary defect {defect:.3e} >= {SEGMENT_UNITARITY_TOL}")
    return u


class _Representation:
    """Evolving state: the weighted pure branches of a QuantumState."""

    def __init__(self, state: QuantumState):
        self.weights, vectors = state.branches
        self.psi = vectors.copy()

    def apply(self, u: np.ndarray) -> None:
        self.psi = u @ self.psi

    def expectation(self, matrix: np.ndarray) -> float:
        val = complex(np.einsum("ib,ij,jb,b->", self.psi.conj(), matrix, self.psi,
                                self.weights))
        if abs(val.imag) >= 1e-10:
            raise PropagationError(f"observable developed imaginary part {val.imag:.3e}")
        return val.real

    def health_defect(self) -> float:
        return float(_drift(self.psi))

    def to_state(self, tolerance: float) -> QuantumState:
        # drift below the policy tolerance is removed when materializing
        defect = self.health_defect()
        if defect >= tolerance:
            raise PropagationError(f"state drift {defect:.3e} >= tolerance {tolerance}")
        return QuantumState.mixture(self.weights, self.psi / np.linalg.norm(self.psi, axis=0))


def _drift(psi: np.ndarray) -> np.ndarray:
    """Largest branch-norm defect of each state in a stack of (dim, branches) states."""
    if not np.all(np.isfinite(psi)):
        raise PropagationError("state became non-finite")
    return np.max(np.abs(np.linalg.norm(psi, axis=-2) - 1.0), axis=-1)


def sample_grid(T: float, sample_every: float | None) -> np.ndarray:
    """Sample times 0, s, 2s, ..., T (always including both endpoints)."""
    if T <= 0:
        raise ValueError("T must be positive")
    if sample_every is None or sample_every >= T:
        return np.array([0.0, T])
    n = int(math.floor(T / sample_every + 1e-9))
    times = np.arange(n + 1) * sample_every
    if T - times[-1] > 1e-12 * T:
        times = np.append(times, T)
    else:
        times[-1] = T
    return times


class _Engine:
    def __init__(self, hamiltonian_of, schedule: CompiledSchedule,
                 policy: IntegrationPolicy):
        self.cache = _UnitaryCache(hamiltonian_of)
        self.schedule = schedule
        self.policy = policy
        self.steps_applied = 0
        self._period_u: np.ndarray | None = None

    def _tick(self, rep: _Representation, t: float) -> None:
        self.steps_applied += 1
        if self.steps_applied % self.policy.unitarity_check_interval == 0:
            defect = rep.health_defect()
            if defect >= self.policy.tolerance:
                raise PropagationError(
                    f"state drift {defect:.3e} >= {self.policy.tolerance} "
                    f"at t = {t:.6e} s after {self.steps_applied} steps"
                )

    def _period_unitary(self) -> np.ndarray:
        if self._period_u is None:
            dim = self.cache.unitary(*self.schedule.steps[0]).shape[0]
            u = np.eye(dim, dtype=complex)
            for key, dur in self.schedule.steps:
                u = self.cache.unitary(key, dur) @ u
            # polar projection removes the rounding accumulated over the
            # composition, so large matrix powers stay unitary
            w, _, vh = np.linalg.svd(u)
            self._period_u = w @ vh
        return self._period_u

    def _walk_partial(self, rep: _Representation, u0: float, u1: float, t_base: float) -> None:
        """Apply slices covering the period-local window (u0, u1]."""
        if u1 - u0 <= 0:
            return
        bounds = self.schedule.boundaries
        for i, (key, dur) in enumerate(self.schedule.steps):
            lo = max(bounds[i], u0)
            hi = min(bounds[i + 1], u1)
            take = hi - lo
            if take <= 0:
                continue
            # partial slices reuse the slice key: constant slices stay exact
            rep.apply(self.cache.unitary(key, take if take < dur else dur))
            self._tick(rep, t_base + hi)

    def advance(self, rep: _Representation, t0: float, t1: float) -> None:
        if t1 <= t0:
            return
        sched = self.schedule
        if sched.period is None:
            n = _split_durations(t1 - t0, self.policy.max_step)
            u = self.cache.unitary(sched.constant_key, (t1 - t0) / n)
            for _ in range(n):
                rep.apply(u)
                self._tick(rep, t1)
            return
        tau = sched.period
        k0, u0 = divmod(t0, tau)
        k1, u1 = divmod(t1, tau)
        k0, k1 = int(k0), int(k1)
        if k1 == k0:
            self._walk_partial(rep, u0, u1, k0 * tau)
            return
        self._walk_partial(rep, u0, tau, k0 * tau)
        n_full = k1 - k0 - 1
        if n_full > 0:
            if self.policy.fast_forward:
                rep.apply(np.linalg.matrix_power(self._period_unitary(), n_full))
                self.steps_applied += n_full * len(sched.steps)
                self._tick(rep, k1 * tau)
            else:
                for k in range(n_full):
                    self._walk_partial(rep, 0.0, tau, (k0 + 1 + k) * tau)
        self._walk_partial(rep, 0.0, u1, k1 * tau)


def propagate_compiled(hamiltonian_of: Callable[[Hashable], np.ndarray],
                       schedule: CompiledSchedule,
                       state0: QuantumState,
                       sample_times: Sequence[float],
                       policy: IntegrationPolicy,
                       observables: Sequence[Observable]) -> Trajectory:
    """Core loop shared by every protocol: evolve and sample."""
    times = np.asarray(sample_times, dtype=float)
    if times[0] != 0.0:
        times = np.concatenate([[0.0], times])
    rep = _Representation(state0)
    engine = _Engine(hamiltonian_of, schedule, policy)
    matrices = [o.matrix for o in observables]
    names = [o.name for o in observables]
    series = [[] for _ in observables]
    for i, t in enumerate(times):
        if i > 0:
            engine.advance(rep, times[i - 1], t)
            defect = rep.health_defect()
            if defect >= policy.tolerance:
                raise PropagationError(
                    f"state drift {defect:.3e} >= {policy.tolerance} at sample t = {t:.6e}"
                )
        for vals, m in zip(series, matrices):
            vals.append(rep.expectation(m))
    return Trajectory(
        times=times,
        observables={n: np.asarray(v) for n, v in zip(names, series)},
        final_state=rep.to_state(policy.tolerance),
    )


def _matrix_powers(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a[b] to the power n[b] >= 1 in np.linalg.matrix_power's multiplication
    order (binary from the lowest bit, and (a @ a) @ a for n = 3), so every
    power equals matrix_power(a[b], n[b]) bit for bit."""
    out, started = np.empty_like(a), np.zeros(len(n), dtype=bool)
    z, rest = a, n.copy()
    while True:
        bit = (rest % 2 == 1) & (n != 3)
        out[bit & ~started] = z[bit & ~started]
        out[bit & started] = out[bit & started] @ z[bit & started]
        started |= bit
        rest //= 2
        if not rest.any():
            return out
        z, first = z @ z, z is a
        if first:
            out[n == 3] = z[n == 3] @ a[n == 3]


def propagate_stack(hamiltonians: np.ndarray, keys: np.ndarray, durations: np.ndarray,
                    periods: np.ndarray | None, T: float, state0: QuantumState,
                    policy: IntegrationPolicy,
                    observables: Sequence[Observable]) -> np.ndarray:
    """The observables at time T of a stack of independent points, one row each.

    Point b steps through the slices ``hamiltonians[keys[b, s]]`` of length
    ``durations[b, s]`` with period ``periods[b]``; when ``periods`` is None,
    each point holds its key ``keys[b, 0]`` for all of T.  Each point takes
    the steps _Engine.advance takes from 0 to T, with the same checks, on
    stacked arrays, so every row equals propagate_compiled's final sample
    bit for bit.  Boolean masks select the points a step acts on.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    vals, vecs = np.linalg.eigh(hamiltonians)
    weights, vectors = state0.branches
    psi = np.repeat(vectors[None], len(keys), axis=0)
    everyone = np.ones(len(keys), dtype=bool)
    applied = 0

    def check_health(where: str) -> None:
        defect = _drift(psi)
        if np.max(defect) >= policy.tolerance:
            raise PropagationError(f"state drift {np.max(defect):.3e} >= {policy.tolerance} "
                                   f"at point {np.argmax(defect)} {where}")

    def unitaries(rows, s: int, taus: np.ndarray) -> np.ndarray:
        return _slice_unitaries(vals[keys[rows, s]], vecs[keys[rows, s]], taus)

    def apply(rows, u: np.ndarray) -> None:
        nonlocal applied
        psi[rows] = u @ psi[rows]
        applied += 1
        if applied % policy.unitarity_check_interval == 0:
            check_health(f"after {applied} slices")

    def walk(rows, ends: np.ndarray) -> None:
        """Each point's slices clipped to its period-local window (0, ends]."""
        take = np.minimum(bounds[:, 1:], ends[:, None]) - bounds[:, :-1]
        # partial slices reuse the slice key: constant slices stay exact
        taken = np.where(take < durations, take, durations)
        for s in range(keys.shape[1]):
            active = rows & (take[:, s] > 0)
            if active.any():
                apply(active, unitaries(active, s, taken[active, s]))

    if periods is None:
        n = _split_durations(T, policy.max_step)
        u = unitaries(everyone, 0, np.full(len(keys), T / n))
        for _ in range(n):
            apply(everyone, u)
    else:
        bounds = np.concatenate([np.zeros((len(keys), 1)), np.cumsum(durations, axis=1)], 1)
        whole, rest = np.divmod(T, periods)
        n_full = np.maximum(whole.astype(int) - 1, 0)
        walk(whole >= 1, periods)
        ff = n_full > 0
        if policy.fast_forward and ff.any():
            u = np.repeat(np.eye(psi.shape[1], dtype=complex)[None], np.sum(ff), axis=0)
            for s in range(keys.shape[1]):
                u = unitaries(ff, s, durations[ff, s]) @ u
            # the polar projection of each period product, as in _Engine
            w, _, vh = np.linalg.svd(u)
            psi[ff] = _matrix_powers(w @ vh, n_full[ff]) @ psi[ff]
            check_health("after a fast-forward")
        for k in range(0 if policy.fast_forward else n_full.max()):
            walk(n_full > k, periods)
        walk(everyone, rest)
    check_health(f"at sample t = {T:.6e}")
    values = np.einsum("zib,oij,zjb,b->zo", psi.conj(), np.stack([o.matrix for o in observables]),
                       psi, weights)
    imag = np.max(np.abs(values.imag))
    if imag >= 1e-10:
        raise PropagationError(f"observable developed imaginary part {imag:.3e}")
    for o, series in zip(observables, values.real.T):
        _check_bounds(o.name, series)
    return values.real


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _standard_observables(system: SpinSystem) -> tuple[Observable, ...]:
    obs = (sigma_z_observable(system),
           *(nuclear_z_observable(system, j) for j in range(1, system.n_nuclei + 1)))
    for o in obs:
        o.matrix.flags.writeable = False
    return obs


def standard_observables(system: SpinSystem) -> list[Observable]:
    """sigma_z and every nuclear I_z, built once per system (read-only matrices)."""
    return list(_standard_observables(system))


def _drive_hamiltonian(system: SpinSystem, omega_e: float) -> np.ndarray:
    return build_hamiltonian(system, omega_e).matrix


def waveform_drive(system: SpinSystem, w: Waveform, policy: IntegrationPolicy):
    """The keyed Hamiltonians and the compiled schedule of drive ``w``; the
    keys are drive values, so they name one Hamiltonian of ``system``."""
    return functools.partial(_drive_hamiltonian, system), compile_waveform(w, policy)


def propagate(system: SpinSystem, w: Waveform, state0: QuantumState, T: float,
              policy: IntegrationPolicy | None = None,
              sample_every: float | None = None,
              sample_times: Sequence[float] | None = None,
              extra_observables: Sequence[Observable] = ()) -> Trajectory:
    """Evolve ``state0`` under the system Hamiltonian with drive ``w``.

    Records sigma_z and every nuclear I_z on the sample grid (given either
    as a spacing or as explicit times; the final time T is always sampled).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if state0.dimension != system.dimension:
        raise ValueError("initial state dimension does not match the system")
    policy = policy or IntegrationPolicy()
    if sample_times is None:
        sample_times = sample_grid(T, sample_every)
    observables = standard_observables(system) + list(extra_observables)
    return propagate_compiled(*waveform_drive(system, w, policy), state0, sample_times,
                              policy, observables)


def effective_flipflop_signal(omega_max: float, nu: float, a_x: float, T: float) -> float:
    """Resonant qubit signal cos^2((omega_max/(2 pi nu)) * a_x * T) of the
    leading-order flip-flop model."""
    return math.cos((omega_max / (TWO_PI * nu)) * a_x * T) ** 2


def _check_first_harmonic_optimum(system: SpinSystem, w: DcsWaveform,
                                  branch: str, rtol: float = 1e-6) -> float:
    """Validate the resonance preconditions; return nu of the waveform."""
    if system.n_nuclei < 1:
        raise ValueError("needs at least one nucleus")
    tau = w.period
    r = w.duty_asymmetry
    nu = TWO_PI / tau + r * w.omega_max
    if abs(r - w.omega_max / nu) > rtol * abs(r):
        raise ResonanceConditionError(
            f"waveform duty asymmetry {r} is not at the optimum omega_max/nu = "
            f"{w.omega_max / nu}"
        )
    omega_n1 = nuclear_frequency(system.nuclei[0], system.field_z)
    target = nu if branch == "flipflop" else nu - 2 * w.omega_max ** 2 / nu
    if abs(omega_n1 - target) > rtol * abs(target):
        raise ResonanceConditionError(
            f"nucleus 1 frequency {omega_n1} is off the {branch} resonance {target}"
        )
    return nu


def magnus_effective_hamiltonian(system: SpinSystem, w: DcsWaveform,
                                 branch: str = "flipflop") -> Observable:
    """Leading-order average Hamiltonian at the first-harmonic optimum.

    branch "flipflop" gives (omega_max/(2 pi nu)) A_x1 (sigma+ I1- + h.c.),
    resonant at omega_n1 = nu; branch "doublequantum" gives the sigma+ I1+
    pairing, resonant at omega_n1 = nu - 2 omega_max^2 / nu.
    """
    if branch not in ("flipflop", "doublequantum"):
        raise ValueError(f"unknown branch {branch!r}")
    nu = _check_first_harmonic_optimum(system, w, branch)
    coeff = (w.omega_max / (TWO_PI * nu)) * system.nuclei[0].hyperfine_x
    sigma_plus = 0.5 * (SIGMA_X + 1j * SIGMA_Y)
    sp = embed_matrix(sigma_plus, 0, system)
    nuclear = SPIN_MINUS if branch == "flipflop" else SPIN_PLUS
    ij = embed_matrix(nuclear, 1, system)
    half = coeff * sp @ ij
    return Observable(half + half.conj().T, name=f"H_eff[{branch}]")


# ---------------------------------------------------------------------------
# Minimal two-spin exchange model (drive on one spin, flip-flop coupling)
# ---------------------------------------------------------------------------

_SPIN_PAIR_FLIPFLOP = np.kron(SPIN_MINUS, SPIN_PLUS)
_SPIN_PAIR_FLIPFLOP = _SPIN_PAIR_FLIPFLOP + _SPIN_PAIR_FLIPFLOP.conj().T


def propagate_spin_pair(w: Waveform, omega_n: float, coupling: float,
                        state0: QuantumState, T: float,
                        policy: IntegrationPolicy | None = None,
                        sample_every: float | None = None,
                        sample_times: Sequence[float] | None = None) -> Trajectory:
    """Evolve two coupled spin-1/2 under H = omega_e(t) S1z + omega_n S2z
    + coupling (S1- S2+ + h.c.).

    Validates the switching-resonance theory independently of the composite
    electron-nuclear reduction.  Records sigma_z = 2<S1z> and I_z[1] = <S2z>.
    """
    if state0.dimension != 4:
        raise ValueError("spin-pair model requires a two-spin (dimension 4) state")
    policy = policy or IntegrationPolicy()
    if sample_times is None:
        sample_times = sample_grid(T, sample_every)
    schedule = compile_waveform(w, policy)
    s1z = np.kron(SPIN_Z, np.eye(2))
    s2z = np.kron(np.eye(2), SPIN_Z)

    def hamiltonian_of(omega_e: float) -> np.ndarray:
        return omega_e * s1z + omega_n * s2z + coupling * _SPIN_PAIR_FLIPFLOP

    observables = [Observable(2 * s1z, name="sigma_z"), Observable(s2z, name="I_z[1]")]
    return propagate_compiled(hamiltonian_of, schedule, state0, sample_times, policy,
                              observables)
