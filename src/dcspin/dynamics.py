"""Exact time-domain propagation under piecewise-defined drives.

The evolution operator is assembled from constant-Hamiltonian slices.  On
every slice U = exp(-i H dt) is computed through a Hermitian
eigendecomposition and applied over the full slice, so piecewise-constant
drives are propagated exactly; switching ramps are subdivided into
midpoint-constant sub-slices.  Waveform breakpoints are always slice
boundaries, so nothing aliases across a switch, and a period may hold at
most MAX_SLICES slices.

One engine (``_evolve``) runs every propagation: a stack of points, each
with its own slices and period.  A single trajectory is a one-point stack,
and the points of a nu, detuning or amplitude-error sweep are a stack of
many, evolved side by side.  The segments between the events of a run with
electron resets are a chain: a stack whose points run one after another,
each from a map of the state the one before ended in.  Each call decomposes
every distinct key once and computes one unitary per distinct (key,
duration); spans of whole periods between samples are applied as an
integer power of the single-period propagator.
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

#: the most slices one period (or one span of a constant drive) may split into
MAX_SLICES = 10_000

# bytes that the unitaries of one stack of sweep points or reset segments or
# of one batch of clipped slices, or one buffer of samples and their
# observable product, may span: a 301-point grid of one nucleus is one
# stack, and a 64-dimensional grid runs 2 to 4 points per stack, keeping its
# arrays to a few hundred KB
STACK_BYTES = 1 << 19


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


class SliceCountError(ValueError):
    """A period or span would split into more than MAX_SLICES slices."""


def _split_durations(spans: Sequence[tuple[float, int]], max_step: float | None) -> list[int]:
    """Slice counts of (duration, at least) spans: at least that many slices
    each, none longer than max_step.  More than MAX_SLICES in all raise
    before any slice list is built."""
    counts = [n if max_step is None else max(n, math.ceil(d / max_step)) for d, n in spans]
    if sum(counts) > MAX_SLICES:
        raise SliceCountError(f"the drive would split into {sum(counts)} slices, "
                              f"more than {MAX_SLICES}")
    return counts


def compile_waveform(w: Waveform, policy: IntegrationPolicy) -> CompiledSchedule:
    """Turn a scalar drive into keyed constant slices (keys are drive values)."""
    if isinstance(w, ConstantWaveform):
        return CompiledSchedule(period=None, constant_key=w.omega_e)
    pieces = w.pieces()
    counts = _split_durations([(p.duration, 1 if p.v0 == p.v1 else policy.ramp_substeps)
                               for p in pieces], policy.max_step)
    steps: list[tuple[float, float]] = []
    for p, n in zip(pieces, counts):
        if p.v0 == p.v1:
            steps.extend([(p.v0, p.duration / n)] * n)
        else:
            dt = p.duration / n
            for i in range(n):
                steps.append((p.v0 + (p.v1 - p.v0) * (i + 0.5) / n, dt))
    return CompiledSchedule(period=w.period, steps=tuple(steps))


def _slice_unitaries(vals: np.ndarray, vecs: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """V diag(exp(-i lambda tau)) V^H for a stack of eigenpairs, each checked unitary."""
    u = (vecs * np.exp(-1j * vals * durations[:, None])[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    defect = np.max(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(u.shape[-1])))
    if defect >= SEGMENT_UNITARITY_TOL:
        raise PropagationError(f"segment unitary defect {defect:.3e} >= {SEGMENT_UNITARITY_TOL}")
    return u


class _UnitaryCache:
    """exp(-i H dt) of a keyed Hamiltonian, one eigendecomposition per key."""

    def __init__(self, hamiltonian_of: Callable[[Hashable], np.ndarray]):
        self._hamiltonian_of = hamiltonian_of
        self._eigs: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}

    def unitary(self, key: Hashable, duration: float) -> np.ndarray:
        if key not in self._eigs:
            h = np.asarray(self._hamiltonian_of(key), dtype=complex)
            self._eigs[key] = np.linalg.eigh(h[None])
        return _slice_unitaries(*self._eigs[key], np.array([duration]))[0]


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


def _matrix_powers(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a[b] to the power n[b] >= 1 in np.linalg.matrix_power's multiplication
    order (the powers a**(2**k) of the set bits of n multiplied in from the
    lowest, and (a @ a) @ a for n = 3), so every power equals
    matrix_power(a[b], n[b]) bit for bit.  A bit that every row or no row
    has takes no mask."""
    three = n == 3
    bits = (n[:, None] >> np.arange(int(n.max()).bit_length())) & 1 == 1
    bits[three] = False
    starts = bits & (bits.cumsum(axis=1) == 1)
    joins = bits ^ starts
    out, z = np.empty_like(a), a
    for k, (n_start, n_join) in enumerate(zip(starts.sum(0).tolist(), joins.sum(0).tolist())):
        if k:
            z = z @ z
        if k == 1 and three.any():
            out[three] = z[three] @ a[three]
        if n_start == len(n):
            out[...] = z
        elif n_start:
            out[starts[:, k]] = z[starts[:, k]]
        if n_join == len(n):
            out = out @ z
        elif n_join:
            out[joins[:, k]] = out[joins[:, k]] @ z[joins[:, k]]
    return out


def _stack_groups(schedules: Sequence[CompiledSchedule], dimension: int) -> list[list[int]]:
    """Runs of consecutive schedules with equal slice counts whose slice
    unitaries fit STACK_BYTES: the points of one _evolve call each."""
    groups: list[list[int]] = []
    for b, schedule in enumerate(schedules):
        n = len(schedule.steps) or 1
        if groups and (len(schedules[groups[-1][0]].steps) or 1) == n \
                and (len(groups[-1]) + 1) * n * 16 * dimension ** 2 <= STACK_BYTES:
            groups[-1].append(b)
        else:
            groups.append([b])
    return groups


def _normalized(weights: np.ndarray, vectors: np.ndarray) -> QuantumState:
    """The state of ``weights`` and the branch ``vectors`` scaled to unit norm."""
    return QuantumState.mixture(weights, vectors / np.linalg.norm(vectors, axis=0))


def _evolve(hamiltonian_of: Callable[[Hashable], np.ndarray],
            schedules: Sequence[CompiledSchedule], times: Sequence[float] | np.ndarray,
            state0: QuantumState, policy: IntegrationPolicy,
            observables: Sequence[Observable],
            chain: Sequence[Callable[[QuantumState], QuantumState]] | None = None,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve a stack of points and sample each at its ascending ``times``:
    shared, shaped (times,), or one column per point of a chain.

    Point b steps through the slices of ``schedules[b]``; the schedules of a
    stack are all periodic with one slice count, or each holds one constant
    key, split into equal slices per sample span.  Without ``chain`` the
    points are independent and evolve side by side from ``state0``, starting
    at t = 0.  With ``chain`` (one state map per point after the first) they
    run one after another: point 0 starts from ``state0`` and point b from
    ``chain[b - 1]`` of point b - 1's normalized final state, each at its
    first sample time, which is t = 0 of its schedule.  Returns the
    observables, shaped (times, points, observables), and the branch weights
    and final branch vectors (points, dim, branches) of every point, or of
    the last one of a chain.

    A span between two samples is a head window of the period it starts
    in, whole periods, and a tail window (0, r] of the period it ends in.
    A slice a window clips applies its key for the clipped length, so
    constant slices stay exact; whole-period walks clip to (0, period] too.
    The whole stack is planned at once: one eigh over the distinct keys, one
    unitary per distinct (key, duration), clipped slices in batches within
    STACK_BYTES, and one power of each point's polar-projected period
    product per distinct exponent (without fast-forward, whole periods are
    stepped slice by slice).  The walk then goes lane by lane (all points
    side by side, or one point of a chain at a time); a window applies a
    run of its lane's prebuilt whole-slice steps between the few slices it
    clips or splits.  The state is checked every unitarity_check_interval
    applied steps (at the end of the window or period that reaches the
    count) and at every sample.  Samples are queued in a STACK_BYTES buffer
    and read in one pass when it is full, before every interval check and
    at the end of each lane; a failure names the time of the run.
    """
    slices = [s.steps or ((s.constant_key, 0.0),) for s in schedules]
    index = {k: i for i, k in enumerate(dict.fromkeys(k for row in slices for k, _ in row))}
    vals, vecs = np.linalg.eigh(np.asarray([hamiltonian_of(k) for k in index], dtype=complex))
    keys = np.array([[index[k] for k, _ in row] for row in slices]).T  # (slices, points)
    durations = np.array([[d for _, d in row] for row in slices]).T
    n_times, n_slices, n_points = len(times), len(keys), len(schedules)
    # a lane walks its points side by side: every point in one lane, or one
    # point per lane along a chain
    n_lanes, n = (1, n_points) if chain is None else (n_points, 1)
    times = np.asarray(times, dtype=float).reshape(n_times, -1)
    elapsed = times if chain is None else times - times[0]

    def lanes(a: np.ndarray) -> np.ndarray:
        """(..., points) -> (lanes, ..., points of a lane)."""
        return np.moveaxis(a.reshape(*a.shape[:-1], n_lanes, n), -2, 0)

    weights, vectors = state0.branches
    stacked = np.concatenate([o.matrix for o in observables])  # (observables * dim, dim)
    values = np.empty((n_times, n_lanes, n, len(observables)), dtype=complex)
    applied = queued = taken = 0

    def unitaries(k: np.ndarray, taus: np.ndarray) -> np.ndarray:
        return _slice_unitaries(vals[k], vecs[k], taus)

    def check_health(states: np.ndarray, where: Callable[[int], str]) -> None:
        """Raise for the first of the point stacks ``states`` (in time order)
        that is not finite or whose largest branch-norm defect fails."""
        defect = np.abs(np.linalg.norm(states, axis=-2) - 1.0).max(axis=-1)
        defect[~np.isfinite(states).all(axis=(-2, -1))] = np.nan
        i = int(np.argmax(~(defect.max(axis=1) < policy.tolerance)))
        if not defect[i].max() < policy.tolerance:
            raise PropagationError("state became non-finite" if np.isnan(defect[i]).any() else
                                   f"state drift {defect[i].max():.3e} >= {policy.tolerance} "
                                   f"at point {defect[i].argmax()} " + where(i))

    def flush() -> None:
        """Check and read the queued samples of lane l: one BLAS product per
        (sample, point), so a point's bits do not depend on its stack or
        chunk, and one einsum."""
        nonlocal queued
        if queued:
            first, block = taken - queued, snapshots[:queued].reshape(-1, *psi.shape[1:])
            check_health(snapshots[:queued],
                         lambda i: f"at sample t = {times[first + i, l * n]:.6e}")
            o_psi = (stacked @ block).reshape(len(block), len(observables), -1)
            bra = (block.conj() * weights).reshape(len(block), -1)  # weighted <psi_b|
            values[first:taken, l] = np.einsum("zok,zk->zo", o_psi, bra).reshape(queued, n, -1)
            queued = 0

    def sample() -> None:
        nonlocal queued, taken
        snapshots[queued] = psi
        queued, taken = queued + 1, taken + 1
        if queued == len(snapshots):
            flush()

    def run(steps: list[tuple[np.ndarray, np.ndarray | None]]) -> None:
        """Apply each step (u, rows) in turn: u to the lane's points ``rows``,
        or to all of them when rows is None."""
        nonlocal psi, applied
        for u, rows in steps:
            if rows is None:
                psi = u @ psi
            else:
                psi[rows] = u @ psi[rows]
        if (applied + len(steps)) // policy.unitarity_check_interval \
                > applied // policy.unitarity_check_interval:
            flush()
            check_health(psi[None], lambda _: f"after {applied + len(steps)} slices")
        applied += len(steps)

    periodic_drive = schedules[0].period is not None
    if periodic_drive:
        tau = np.array([s.period for s in schedules])
        k0, r0 = np.divmod(np.concatenate([np.zeros((1, elapsed.shape[1])), elapsed[:-1]]), tau)
        k1, r1 = np.divmod(elapsed, tau)
        same = k1 == k0
        n_whole = np.where(same, 0, k1 - k0 - 1).astype(int)  # (times, points)
        # period-local windows (lo, hi] of each span: its head, then its tail
        lo, hi = np.zeros((2, n_times, 2, 1, n_points))
        lo[:, 0, 0], hi[:, 0, 0], hi[:, 1, 0] = r0, np.where(same, r1, tau), np.where(same, 0, r1)
        bounds = np.concatenate([np.zeros((1, n_points)), np.cumsum(durations, axis=0)])
        take = np.minimum(bounds[1:], hi) - np.maximum(bounds[:-1], lo)
        # the length a whole-period walk gives each slice: a clipped slice
        # reuses its key, and every length is capped at the slice duration
        walk_tau = np.minimum(np.minimum(bounds[1:], tau) - bounds[:-1], durations)
        active = take > 0
        clipped = active & (take < walk_tau)
        whole = active & ~clipped
        jumps = (n_whole > 0) & policy.fast_forward
        lengths = np.array([walk_tau, durations] if jumps.any() else [walk_tau])
        # one unitary per distinct (key, length), found as the distinct
        # complex numbers key + i length
        table, where = np.unique(keys + 1j * lengths, return_inverse=True)
        full = unitaries(table.real.astype(int), table.imag)
        walk_u, product_u = where.reshape(lengths.shape)[[0, -1]]
        lane_u = lanes(walk_u)  # (lanes, slices, points of a lane)
        shared = (lane_u == lane_u[..., :1]).all(-1).tolist()

        def whole_u(l: int, s: int, rows: np.ndarray | None = None) -> np.ndarray:
            """The walk unitaries of slice s for lane l's points ``rows``."""
            if shared[l][s]:
                return full[lane_u[l, s, 0]]
            return full[lane_u[l, s] if rows is None else lane_u[l, s, rows]]

        # per lane and window, each slice is 2 when every point of the lane
        # takes it whole, 3 when every point takes a clipped part, 1 for a
        # mix and 0 when none does; a window applies the prebuilt whole steps
        # of its first to last active slice, except at the slices coded 0, 1
        # or 3, which are few (the clipped edges, for a lane of one point)
        whole_l, clipped_l = lanes(whole), lanes(clipped)
        code = np.where(whole_l.all(-1), np.int8(2),
                        np.where(clipped_l.all(-1), np.int8(3), lanes(active).any(-1)))
        on = code > 0
        start = on.argmax(-1)
        stop = np.where(on.any(-1), n_slices - on[..., ::-1].argmax(-1), 0)
        s = np.arange(n_slices)
        odd = (s >= start[..., None]) & (s < stop[..., None]) & (code != 2)
        odd_slices, odd_codes = np.nonzero(odd)[-1].tolist(), code[odd].tolist()
        cuts = np.concatenate([[0], np.cumsum(odd.sum(-1).ravel())]).tolist()
        start, stop = start.ravel().tolist(), stop.ravel().tolist()

        clip_l, _, _, clip_s, clip_i = np.nonzero(clipped_l)
        clip_keys, clip_taus = keys[clip_s, clip_l * n + clip_i], lanes(take)[clipped_l]
        batch = max(1, STACK_BYTES // (16 * vecs.shape[1] ** 2))
        held, held_from, used = full[:0], 0, 0

        def clipped_u(m: int) -> np.ndarray:
            """The next m clipped-slice unitaries, in walk order."""
            nonlocal held, held_from, used
            if used + m > held_from + len(held):
                held_from, end = used, min(len(clip_taus), used + max(m, batch))
                held = unitaries(clip_keys[used:end], clip_taus[used:end])
            used += m
            return held[used - m - held_from:used - held_from]

        def window(l: int, j: int, w: int, walk: list) -> list:
            """The steps of window w (0: head, 1: tail) of span j in lane l,
            whose whole-slice steps are ``walk``."""
            i = (l * n_times + j) * 2 + w
            steps, s = [], start[i]
            for t, c in zip(odd_slices[cuts[i]:cuts[i + 1]], odd_codes[cuts[i]:cuts[i + 1]]):
                steps += walk[s:t]
                if c == 3:
                    steps.append((clipped_u(n), None))
                elif c:
                    rows, cut = whole_l[l, j, w, t], clipped_l[l, j, w, t]
                    if rows.any():
                        steps.append((whole_u(l, t, rows), rows))
                    if cut.any():
                        steps.append((clipped_u(int(cut.sum())), cut))
                s = t + 1
            return steps + walk[s:stop[i]]

        if jumps.any():
            need = jumps.any(0)
            product = np.repeat(np.eye(vecs.shape[1], dtype=complex)[None], need.sum(), axis=0)
            for s in range(n_slices):
                product = full[product_u[s, need]] @ product
            # the polar projection removes the rounding accumulated over the
            # composition, so large powers stay unitary
            w, _, vh = np.linalg.svd(product)
            # one power per distinct (point, exponent), coded as exponent * B + row
            row = (np.cumsum(need) - 1)[np.nonzero(jumps)[1]]
            pairs, power_of = np.unique(n_whole[jumps] * n_points + row, return_inverse=True)
            powers = _matrix_powers((w @ vh)[pairs % n_points], pairs // n_points)
            which = np.zeros(jumps.shape, dtype=int)
            which[jumps] = power_of
            which = lanes(which)
        jumps, n_whole, periodic = lanes(jumps), lanes(n_whole), lanes(walk_tau > 0)
        jumping = jumps.any(-1).tolist()

    spans = np.diff(elapsed, axis=0, prepend=0.0)
    for l in range(n_lanes):
        if l:
            weights, vectors = chain[l - 1](_normalized(weights, psi[0])).branches
        psi = np.repeat(vectors[None], n, axis=0)
        chunk = STACK_BYTES // (psi.nbytes * (1 + len(observables)))  # snapshots and product
        snapshots = np.empty((min(max(chunk, 1), n_times), *psi.shape), dtype=complex)
        taken = 0
        if periodic_drive:
            walk = [(whole_u(l, s), None) for s in range(n_slices)]
        for j in range(n_times):
            if not periodic_drive:
                span = spans[j, l * n]
                if span > 0:
                    k, = _split_durations([(span, 1)], policy.max_step)
                    run([(unitaries(keys[0, l * n:(l + 1) * n], np.full(n, span / k)), None)] * k)
                sample()
                continue
            run(window(l, j, 0, walk))
            if jumping[l][j]:
                rows = jumps[l, j]
                run([(powers[which[l, j, rows]], None if rows.all() else rows)])
            elif not policy.fast_forward:
                done = 0
                for upto in np.unique(n_whole[l, j][n_whole[l, j] > 0]).tolist():
                    one_period = [(whole_u(l, s, r), None if r.all() else r)
                                  for s, r in enumerate(periodic[l] & (n_whole[l, j] >= upto))
                                  if r.any()]
                    for _ in range(upto - done):
                        run(one_period)
                    done = upto
            run(window(l, j, 1, walk))
            sample()
        flush()
    imag = np.abs(values.imag).max()
    if imag >= 1e-10:
        raise PropagationError(f"observable developed imaginary part {imag:.3e}")
    values = values.real.reshape(n_times, n_points, -1)
    for i, o in enumerate(observables):
        _check_bounds(o.name, values[..., i])
    return values, weights, psi


def propagate_compiled(hamiltonian_of: Callable[[Hashable], np.ndarray],
                       schedule: CompiledSchedule,
                       state0: QuantumState,
                       sample_times: Sequence[float],
                       policy: IntegrationPolicy,
                       observables: Sequence[Observable]) -> Trajectory:
    """Evolve one point and sample it (a one-point stack of _evolve); t = 0
    is always sampled."""
    times = np.asarray(sample_times, dtype=float)
    if times[0] != 0.0:
        times = np.concatenate([[0.0], times])
    values, weights, psi = _evolve(hamiltonian_of, [schedule], times, state0, policy,
                                   observables)
    return Trajectory(
        times=times,
        observables={o.name: values[:, 0, i] for i, o in enumerate(observables)},
        final_state=_normalized(weights, psi[0]),
    )


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
