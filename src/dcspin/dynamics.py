"""Exact time-domain propagation under piecewise-defined drives.

The evolution operator is assembled from constant-Hamiltonian slices.  On
every slice U = exp(-i H dt) is computed through a Hermitian
eigendecomposition and applied over the full slice, so piecewise-constant
drives are propagated exactly; switching ramps are subdivided into
midpoint-constant sub-slices.  Waveform breakpoints are always slice
boundaries, so nothing aliases across a switch, and a period may hold at
most MAX_SLICES slices.

One engine (``_evolve``) runs every propagation: a stack of points, each
with its own slices and period (a row of a CompiledSchedule's keys and
durations arrays), in lanes that run one after another, a lane's points
side by side.  A trajectory is one point, a nu, detuning or
amplitude-error sweep one lane of many, a run with electron resets a chain
of one lane per segment, each from a map of the state the lane before
ended in, and a reset sweep a stack of chains, weights kept per point.
Each key is decomposed once per sweep, in one key table within STACK_BYTES
that builds the Hamiltonians of its new keys as one stack, and each call
computes one unitary per distinct (key, duration); spans of
whole periods between samples are applied as an integer power of the
single-period propagator; the walk replays step programs built in array
passes, planned one chunk of sample spans at a time (see ``_evolve``).
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Sequence

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
# of one batch of clipped slices, one buffer of samples and their observable
# product, or the eigenpairs of one key table may span: a 301-point grid of
# one nucleus is one stack, and a 64-dimensional grid runs 2 to 4 points per
# stack, keeping its arrays to a few hundred KB
STACK_BYTES = 1 << 19


class PropagationError(ArithmeticError):
    """Propagation aborted: unitarity or state-health drift beyond tolerance.
    ``point`` is the failing point's index in its stack, where one failed."""

    def __init__(self, message: str, point: int | None = None):
        super().__init__(message)
        self.point = point


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
        if self.max_step is not None and not 0 < self.max_step < math.inf:
            raise ValueError("max_step must be finite and positive when set")
        for name in ("ramp_substeps", "unitarity_check_interval"):
            if not isinstance(getattr(self, name), numbers.Integral) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")


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


class CompiledSchedule:
    """Constant-Hamiltonian slices of a stack of points of one slice count:
    row b of ``keys`` and ``durations`` is one period ``periods[b]``, or,
    with period None, one aperiodic key of duration 0.  ``period``, ``steps``
    ((key, duration) tuples) and ``constant_key`` read the first point."""

    def __init__(self, period, keys, durations):
        self.periods = None if period is None else np.asarray(period, dtype=float).reshape(-1)
        self.keys = np.reshape(keys, (-1, 1) if period is None else (self.periods.size, -1))
        self.durations = np.reshape(durations, self.keys.shape)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def period(self) -> float | None:
        return None if self.periods is None else float(self.periods[0])

    @property
    def steps(self) -> tuple[tuple[Hashable, float], ...]:
        if self.periods is None:
            return ()
        return tuple(zip(self.keys[0].tolist(), self.durations[0].tolist()))

    @property
    def constant_key(self) -> Hashable | None:
        return self.keys[0, 0].item() if self.periods is None else None


class SliceCountError(ValueError):
    """A period or span would split into more than MAX_SLICES slices."""


class HorizonError(ValueError):
    """A sample time lies more than 2**53 whole periods after its run's
    start, past which float64 times cannot place a period boundary."""


def _slice_counts(durations: np.ndarray, at_least: np.ndarray, max_step: float | None,
                  ) -> np.ndarray:
    """Slice counts of the spans in each row of ``durations``: at least
    ``at_least`` each, none longer than max_step.  A row of more than
    MAX_SLICES in all raises before any slice list is built."""
    counts = np.asarray(at_least, dtype=float)
    if max_step is not None:
        counts = np.maximum(counts, np.ceil(durations / max_step))
    if (total := counts.sum(-1)).max(initial=0) > MAX_SLICES:
        raise SliceCountError(f"the drive would split into {total[total > MAX_SLICES][0]:.0f} "
                              f"slices, more than {MAX_SLICES}")
    return counts.astype(int)


def _compile_rows(durations: np.ndarray, v0: np.ndarray, v1: np.ndarray, pieces: np.ndarray,
                  policy: IntegrationPolicy) -> tuple[np.ndarray, ...]:
    """The keys and durations of one period of constant slices per row of
    drive pieces (the first ``pieces[r]`` of row r, going v0 -> v1), one row
    after another, and each row's slice count.  A constant piece's slices
    take its value, a ramp's (ramp_substeps or, under max_step, more) their
    midpoint values, with the per-piece scalar operations of compile_waveform."""
    valid = np.arange(durations.shape[1]) < pieces[:, None]
    ramp = valid & (v0 != v1)
    counts = _slice_counts(np.where(valid, durations, 0.0),
                           np.where(ramp, policy.ramp_substeps, valid), policy.max_step).ravel()
    piece = np.repeat(np.arange(counts.size), counts)
    i, n = np.arange(piece.size) - np.repeat(np.cumsum(counts) - counts, counts), counts[piece]
    a, b = v0.ravel()[piece], v1.ravel()[piece]
    keys = np.where(ramp.ravel()[piece], a + (b - a) * (i + 0.5) / n, a)
    return keys, durations.ravel()[piece] / n, counts.reshape(durations.shape).sum(1)


def compile_waveform(w: Waveform, policy: IntegrationPolicy) -> CompiledSchedule:
    """Turn a scalar drive into keyed constant slices (keys are drive values):
    one row of _compile_rows."""
    if isinstance(w, ConstantWaveform):
        return CompiledSchedule(None, [w.omega_e], [0.0])
    start, end, v0, v1 = np.array(w.pieces()).T[:, None]
    keys, durations, _ = _compile_rows(end - start, v0, v1, np.array([v0.size]), policy)
    return CompiledSchedule(w.period, keys, durations)


def _slice_unitaries(vals: np.ndarray, vecs: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """V diag(exp(-i lambda tau)) V^H for a stack of eigenpairs, each checked unitary."""
    u = (vecs * np.exp(-1j * vals * durations[:, None])[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    defect = np.max(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(u.shape[-1])), initial=0.0)
    if defect >= SEGMENT_UNITARITY_TOL:
        raise PropagationError(f"segment unitary defect {defect:.3e} >= {SEGMENT_UNITARITY_TOL}")
    return u


class _UnitaryCache:
    """The key table of a keyed Hamiltonian: one eigendecomposition per key,
    held while the held eigenpairs fit STACK_BYTES (past it, one per lookup).
    A lookup's new keys are built by one ``hamiltonians_of`` call, a list of
    keys to their Hamiltonians stacked (keys, d, d)."""

    def __init__(self, hamiltonians_of: Callable[[list], np.ndarray]):
        self._hamiltonians_of = hamiltonians_of
        self._eigs: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}
        self._room = STACK_BYTES

    def eigenpairs(self, keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """The stacked eigenpairs of the distinct ``keys``: one eigh over those not held."""
        new = [k for k in keys if k not in self._eigs]
        if new:
            vals, vecs = np.linalg.eigh(np.asarray(self._hamiltonians_of(new), complex))
            held = min(len(new), self._room // (vals[0].nbytes + vecs[0].nbytes))
            self._room -= held * (vals[0].nbytes + vecs[0].nbytes)
            self._eigs.update(zip(new[:held], zip(vals[:held].copy(), vecs[:held].copy())))
            if len(new) == len(keys):
                return vals, vecs
            fresh = dict(zip(new, zip(vals, vecs)))
        pairs = [self._eigs.get(k) or fresh[k] for k in keys]
        return np.array([v for v, _ in pairs]), np.array([v for _, v in pairs])


def sample_grid(T: float, sample_every: float | None) -> np.ndarray:
    """Sample times 0, s, 2s, ..., T (always including both endpoints)."""
    if not 0 < T < math.inf:
        raise ValueError("T must be finite and positive")
    if sample_every is not None and not sample_every > 0:
        raise ValueError("sample_every must be positive")
    if sample_every is None or sample_every >= T:
        return np.array([0.0, T])
    n = int(math.floor(T / sample_every + 1e-9))
    times = np.arange(n + 1) * sample_every
    if T - times[-1] > 1e-12 * T:
        times = np.append(times, T)
    else:
        times[-1] = T
    return times


def _times_from_zero(sample_times: Sequence[float]) -> np.ndarray:
    """The sample times with t = 0 put first when absent; every run is read
    there.  They must be finite and increasing, and there must be one."""
    times = np.asarray(sample_times, dtype=float)
    if not times.size:
        raise ValueError("no sample times given")
    if times[0] != 0.0:
        times = np.concatenate([[0.0], times])
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("sample times must be finite, nonnegative and increasing")
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


def _stack_groups(counts: Sequence[tuple], dimension: int, width: int = 1) -> list[list[int]]:
    """Runs of consecutive items of equal slice ``counts`` (per segment) whose
    unitaries, ``width`` points each, fit STACK_BYTES: a stack, or a call."""
    groups: list[list[int]] = []
    for b, count in enumerate(counts):
        if groups and counts[groups[-1][0]] == count and len(groups[-1]) < room:
            groups[-1].append(b)
        else:
            groups.append([b])
            room = STACK_BYTES // (max(count) * width * 16 * dimension ** 2)
    return groups


def _normalized(weights: np.ndarray, vectors: np.ndarray) -> QuantumState:
    """The state of ``weights`` and the branch ``vectors`` scaled to unit norm."""
    return QuantumState.mixture(weights, vectors / np.linalg.norm(vectors, axis=0))


class _Rows(NamedTuple):
    """A step that applies the stack ``u`` to the points ``rows`` of a lane alone."""
    u: np.ndarray
    rows: np.ndarray
    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        psi[self.rows] = self.u @ psi[self.rows]
        return psi


def _evolve(table: _UnitaryCache,
            schedules: CompiledSchedule, times: Sequence[float] | np.ndarray,
            states: QuantumState | Sequence[QuantumState], policy: IntegrationPolicy,
            observables: Sequence[Observable],
            chain: Sequence[Callable[[QuantumState], QuantumState]] | None = None,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve a stack of points and sample each at its ascending ``times``:
    shared, shaped (times,), or one column per point.

    Point b steps through row b of the ``schedules`` arrays: the points of a
    stack are all periodic with one slice count, or each holds one constant
    key, split into equal slices per sample span.  Point l * n + i is point
    i of lane l: the n points of a lane evolve side by side, and the lanes
    one after another.  Lane 0 starts from ``states`` (one for all points,
    or one per point); without ``chain`` it is the only lane, from t = 0.
    With ``chain`` (a state map per later lane) lane l is segment l of n
    runs: point i starts at its first sample time, t = 0 of its schedule,
    from ``chain[l - 1]`` of its normalized final state in lane l - 1, so
    branch weights are kept per point.  Returns the observables (times,
    points, observables) and the last lane's branch weights (n, branches)
    and final branch vectors (n, dim, branches).

    A span between two samples is a head window of the period it starts
    in, whole periods, and a tail window (0, r] of the period it ends in.
    A slice a window clips applies its key for the clipped length, so
    constant slices stay exact; whole-period walks clip to (0, period] too.
    The stack shares the eigenpairs of the distinct keys from ``table`` (one
    eigh over those it does not hold), one unitary per distinct (key,
    duration) and one power of each point's polar-projected period product
    per distinct exponent.  The walk is planned and replayed one chunk of
    (lane, span) items at a time, a chunk's plan within 3/4 of STACK_BYTES
    or one item: its window masks and clipped unitaries, a flat list of its
    steps' unitaries in walk order (2-D for a one-point lane), built in
    array passes, and its blocks (a, b, k, event): a window, a jump or a
    period of slices (repeated k times, without fast-forward), then a sample
    read (event 1) or a read and the end of a lane (event 2).  The state is
    checked every unitarity_check_interval applied steps, at the end of the
    window, jump or period that reaches the count, and at every sample;
    samples are read in STACK_BYTES chunks, before every interval check and
    at the end of each lane; a failure names when in the run it happened (a
    sample time or, for an interval check, the span of samples it fell in).
    """
    # the distinct keys in the order they first appear, point by point
    distinct, first, index = np.unique(schedules.keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vals, vecs = table.eigenpairs(distinct[order].tolist())
    keys = np.argsort(order)[index].reshape(schedules.keys.shape).T  # (slices, points)
    durations = schedules.durations.T
    n_times, n_slices, n_points = len(times), len(keys), len(schedules)
    n_lanes = 1 if chain is None else len(chain) + 1
    n = n_points // n_lanes
    times = np.asarray(times, dtype=float).reshape(n_times, -1)
    elapsed = times if chain is None else times - times[0]

    def lanes(a: np.ndarray) -> np.ndarray:
        """(..., points) -> (lanes, ..., points of a lane)."""
        a = a.reshape(*a.shape[:-1], n_lanes, n)
        return a.transpose(a.ndim - 2, *range(a.ndim - 2), a.ndim - 1)

    def items(a: np.ndarray) -> np.ndarray:
        """(times, ..., points) -> (items l * n_times + j, ..., points of lane l)."""
        return lanes(a).reshape(n_lanes * n_times, *a.shape[1:-1], n)

    stacked = np.concatenate([o.matrix for o in observables])  # (observables * dim, dim)
    values = np.empty((n_times, n_lanes, n, len(observables)), dtype=complex)
    interval = policy.unitarity_check_interval
    l, applied, due, queued, taken, weights, snapshots = 0, 0, interval, 0, 0, None, None
    # a one-point lane holds its state and steps as 2-D arrays
    mul = np.ndarray.dot if n == 1 else operator.matmul

    def unitaries(k: np.ndarray, taus: np.ndarray) -> np.ndarray:
        return _slice_unitaries(vals[k], vecs[k], taus)

    def check_health(stacks: np.ndarray, where: Callable[[int, int], str]) -> None:
        """Raise for the first of the point ``stacks`` (in time order) that
        is not finite or whose largest branch-norm defect fails, at ``where(stack, point)``."""
        defect = np.abs(np.linalg.norm(stacks, axis=-2) - 1.0).max(axis=-1)
        defect[~np.isfinite(stacks).all(axis=(-2, -1))] = np.nan
        i = int(np.argmax(~(defect.max(axis=1) < policy.tolerance)))
        if not defect[i].max() < policy.tolerance:
            point = int(defect[i].argmax())  # the first NaN, if any
            raise PropagationError("state became non-finite" if np.isnan(defect[i]).any() else
                                   f"state drift {defect[i].max():.3e} >= {policy.tolerance} "
                                   + where(i, point), point)

    def flush() -> None:
        """Check and read the queued samples of lane l: one BLAS product per
        (sample, point), so a point's bits do not depend on its stack or
        chunk, and one einsum."""
        nonlocal queued
        if queued:
            first, block = taken - queued, snapshots[:queued].reshape(-1, *snapshots.shape[2:])
            check_health(snapshots[:queued], lambda i, point: (
                f"at point {point} at sample t = {times[first + i, l * n]:.6e}"))
            o_psi = (stacked @ block).reshape(len(block), len(observables), -1)
            # weighted <psi_b| of each point
            bra = (snapshots[:queued].conj() * weights[:, None]).reshape(len(block), -1)
            values[first:taken, l] = np.einsum("zok,zk->zo", o_psi, bra).reshape(queued, n, -1)
            queued = 0

    def sample(psi: np.ndarray) -> None:
        nonlocal queued, taken
        snapshots[queued] = psi
        queued, taken = queued + 1, taken + 1
        if queued == len(snapshots):
            flush()

    def start(lane_states: QuantumState | Sequence[QuantumState]) -> np.ndarray:
        """Lane l's state from ``lane_states``, one for all points or one each."""
        nonlocal weights, snapshots, taken
        weights, psi = ((np.repeat(a[None], n, axis=0) for a in lane_states.branches)
                        if isinstance(lane_states, QuantumState) else
                        (np.array(a) for a in zip(*(s.branches for s in lane_states))))
        chunk = STACK_BYTES // (psi.nbytes * (1 + len(observables)))  # snapshots and product
        snapshots, taken = np.empty((min(max(chunk, 1), n_times), *psi.shape), dtype=complex), 0
        return psi[0] if n == 1 else psi

    def replay(psi: np.ndarray, steps: list, blocks: zip) -> np.ndarray:
        """Walk a step program (see the docstring); event 2 starts the next
        lane, if any, from the chain map of the state this lane ended in."""
        nonlocal l, applied, due
        for a, b, k, event in blocks:
            run = steps[a:b]
            for _ in range(k):
                for u in run:
                    psi = mul(u, psi)
                applied += b - a
                if applied >= due:
                    due = (applied // interval + 1) * interval
                    flush()
                    check_health(psi.reshape(1, n, *psi.shape[-2:]), lambda _, point: (
                        f"between t = {times[taken - 1, l * n] if taken else 0.0:.6e} and "
                        f"t = {times[taken, l * n]:.6e} at point {point} after {applied} slices"))
            if event:
                sample(psi)
            if event == 2:
                psi = psi.reshape(n, *psi.shape[-2:])
                flush()
                l += 1
                if l < n_lanes:
                    psi = start([chain[l - 1](_normalized(w, v)) for w, v in zip(weights, psi)])
        return psi

    def lane_steps(u: np.ndarray, rows: np.ndarray) -> list:
        """The steps that apply consecutive stacks of ``u``, rows[i].sum()
        unitaries for step i, to the points rows[i] of a lane."""
        if n == 1:
            return list(u)
        ends = np.cumsum(rows.sum(-1)).tolist()
        return [u[a:b] if r.all() else _Rows(u[a:b], r) for a, b, r in zip([0, *ends], ends, rows)]

    if schedules.periods is not None:
        tau = schedules.periods
        last = np.broadcast_to(elapsed[-1], tau.shape)
        if (beyond := last > 2.0 ** 53 * tau).any():
            b = int(np.argmax(beyond))
            raise HorizonError(f"t = {last[b]:.6e} s lies more than "
                               f"2**53 periods of {tau[b]:.6e} s after its run's start, where "
                               "float64 times cannot place a period boundary")
        k0, r0 = np.divmod(np.concatenate([np.zeros((1, elapsed.shape[1])), elapsed[:-1]]), tau)
        k1, r1 = np.divmod(elapsed, tau)
        same = k1 == k0
        n_whole = np.where(same, 0, k1 - k0 - 1).astype(int)  # (times, points)
        # period-local windows (lo, hi] of each span: its head, then its tail
        lo, hi = np.zeros((2, n_times, 2, 1, n_points))
        lo[:, 0, 0], hi[:, 0, 0], hi[:, 1, 0] = r0, np.where(same, r1, tau), np.where(same, 0, r1)
        bounds = np.concatenate([np.zeros((1, n_points)), np.cumsum(durations, axis=0)])
        # the length a whole-period walk gives each slice: a clipped slice
        # reuses its key, and every length is capped at the slice duration
        walk_tau = np.minimum(np.minimum(bounds[1:], tau) - bounds[:-1], durations)
        jumps = (n_whole > 0) & policy.fast_forward
        lengths = np.array([walk_tau, durations] if jumps.any() else [walk_tau])
        # one unitary per distinct (key, length), found as the distinct
        # complex numbers key + i length
        table, where = np.unique(keys + 1j * lengths, return_inverse=True)
        full = unitaries(table.real.astype(int), table.imag)
        walk_u, product_u = where.reshape(lengths.shape)[[0, -1]]
        lane_u = lanes(walk_u)  # (lanes, slices, points of a lane)
        shared = (lane_u == lane_u[..., :1]).all(-1)
        powers, which = full[:0], np.zeros(jumps.shape, dtype=int)
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
            which[jumps] = power_of
        lo, hi, count, hops, which = map(items, (lo, hi, n_whole, jumps, which))
        base, top, walk_tau = lanes(bounds[:-1]), lanes(bounds[1:]), lanes(walk_tau)  # per slice
        # an item's windows: its head window, its jump (one more slice), one
        # period per group of points with as many whole periods left as the
        # group's least (repeated k times), and its tail window
        windows = 3 if policy.fast_forward else 3 + n
        upto = np.sort(count, -1)[:, :windows - 3]
        k = np.ones((len(count), windows), dtype=int)  # the repeats of each window
        k[:, 2:-1] = np.diff(upto, axis=-1, prepend=0)
        grouped = (k[:, 2:-1, None] > 0) & (count[:, None] >= upto[..., None])  # points per group
        # per item: 24 bytes per (window, slice or jump, point) of masks and steps, and a unitary
        # per point for each span end inside a period (a clipped slice) and, in a lane of
        # several points, for a jump (a copied power)
        cost = 24 * windows * (n_slices + 1) * n + 16 * vecs.shape[1] ** 2 * (
            items(np.count_nonzero([r0, r1], axis=0)) + (n > 1) * hops).sum(-1)

        def program(i0: int, i1: int) -> tuple[list, np.ndarray]:
            """The steps of items i0 to i1 - 1 in walk order, and the step
            count of each of their windows."""
            lane, l0, l1 = np.arange(i0, i1) // n_times, i0 // n_times, (i1 - 1) // n_times + 1
            take = np.minimum(top[lane, None], hi[i0:i1]) - np.maximum(base[lane, None], lo[i0:i1])
            walk = walk_tau[lane, None]
            # a window clips a slice it takes less of than a whole-period walk
            clipped = (take > 0) & (take < walk)
            whole = (take > 0) & ~clipped
            wholes = np.concatenate([whole[:, :1], np.zeros_like(whole[:, :1]),
                                     grouped[i0:i1, :, None] & (walk > 0), whole[:, 1:]], 1)
            part = np.zeros((*wholes.shape[:2], n_slices + 1, 2), dtype=bool)
            part[..., :-1, 0], part[:, ::windows - 1, :-1, 1] = wholes.any(-1), clipped.any(-1)
            part[:, 1, -1, 0] = hops[i0:i1].any(-1)  # (items, windows, slices + jump, parts)
            e, w, s, kind = np.nonzero(part)  # (item, window, slice, whole or clipped)
            t = np.minimum(s, n_slices - 1)
            rows = np.where(kind[:, None] == 1, clipped[e, np.minimum(w, 1), t], wholes[e, w, t])
            kind[s == n_slices], rows[s == n_slices] = 2, hops[i0 + e[s == n_slices]]  # jumps
            # the whole steps of each lane's slices, then the other steps
            steps = [full[u] for u in lane_u[l0:l1, :, 0].ravel().tolist()]
            for i in np.flatnonzero(~shared[l0:l1]).tolist():  # points with their own
                steps[i] = full[lane_u[l0 + i // n_slices, i % n_slices]]
            lane, some = lane[e], (kind == 0) & ~rows.all(-1)
            ids = (lane - l0) * n_slices + t
            c_e, _, c_s, c_i = np.nonzero(clipped)  # clipped slices in walk order
            for mask, u in ((kind == 1, unitaries(keys[c_s, (i0 + c_e) // n_times * n + c_i],
                                                  take[clipped])),
                            (kind == 2, [powers[i] for i in which[i0:i1][hops[i0:i1]].tolist()]
                             if n == 1 else powers[which[i0:i1][hops[i0:i1]]]),
                            (some, full[lane_u[lane[some], t[some]][rows[some]]])):
                ids[mask] = len(steps) + np.arange(mask.sum())
                steps += lane_steps(u, rows[mask])
            return list(map(steps.__getitem__, ids.tolist())), part.sum((2, 3))
    else:
        # a constant drive: each span is equal slices of the lane's keys
        span = lanes(np.diff(elapsed, axis=0, prepend=0.0) + np.zeros(n_points))[..., 0].ravel()
        count = _slice_counts(span[:, None], span[:, None] > 0, policy.max_step)[:, 0]
        cost, k = 128 * count + 16 * vecs.shape[1] ** 2 * n, np.ones((len(count), 1), dtype=int)

        def program(i0: int, i1: int) -> tuple[list, np.ndarray]:
            go = np.flatnonzero(count[i0:i1]) + i0
            u = unitaries(keys[0, (go[:, None] // n_times * n + np.arange(n)).ravel()],
                          np.repeat(span[go] / count[go], n))
            return ([v for v, c in zip(lane_steps(u, np.ones((len(go), n), dtype=bool)),
                                       count[go].tolist()) for _ in range(c)],
                    count[i0:i1, None])

    psi, i1, total, event = start(states), 0, np.append(0, np.cumsum(cost)), np.zeros_like(k)
    event[:, -1] = np.where(np.arange(1, len(k) + 1) % n_times, 1, 2)
    # plan and walk chunks of items costing at most 3/4 of STACK_BYTES, or one item: a program
    # lives on until the next is built, so freed pages are reused, not returned and faulted in
    while i1 < len(cost):
        i0, i1 = i1, max(i1 + 1, np.searchsorted(total, total[i1] + STACK_BYTES * 3 // 4,
                                                 "right") - 1)
        steps, size = program(i0, i1)
        # blocks (a, b, k, event) of the items' windows in walk order, an item's last
        # window followed by its event; consecutive single runs that no check or event
        # separates are one block
        ks, events, ends = k[i0:i1].ravel(), event[i0:i1].ravel(), np.cumsum(size)
        # checks due so far, before and after each window
        reach = np.concatenate([[applied], applied + np.cumsum(size.ravel() * ks)]) // interval
        join = (ks[:-1] == 1) & (ks[1:] == 1) & (events[:-1] == 0) & (reach[1:-1] == reach[:-2])
        first = np.flatnonzero(np.concatenate([[True], ~join]))
        last = np.append(first[1:], len(ks)) - 1
        psi = replay(psi, steps, zip((ends - size.ravel())[first].tolist(), ends[last].tolist(),
                                     ks[last].tolist(), events[last].tolist()))
    imag = np.abs(values.imag).max()
    if imag >= 1e-10:
        raise PropagationError(f"observable developed imaginary part {imag:.3e}")
    values = values.real.reshape(n_times, n_points, -1)
    for i, o in enumerate(observables):
        _check_bounds(o.name, values[..., i])
    return values, weights, psi


def propagate_compiled(hamiltonians_of: Callable[[list], np.ndarray],
                       schedule: CompiledSchedule,
                       state0: QuantumState,
                       sample_times: Sequence[float],
                       policy: IntegrationPolicy,
                       observables: Sequence[Observable]) -> Trajectory:
    """Evolve one point and sample it (a one-point stack of _evolve, its key
    table built by ``hamiltonians_of``); t = 0 is always sampled."""
    times = _times_from_zero(sample_times)
    values, weights, psi = _evolve(_UnitaryCache(hamiltonians_of), schedule, times, state0,
                                   policy, observables)
    return Trajectory(times=times, final_state=_normalized(weights[0], psi[0]),
                      observables={o.name: values[:, 0, i] for i, o in enumerate(observables)})


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


def _drive_hamiltonians(system: SpinSystem, keys: list) -> np.ndarray:
    return build_hamiltonian(system, np.asarray(keys, dtype=float))


def _run_times(T: float, policy: IntegrationPolicy | None, sample_every: float | None,
               sample_times: Sequence[float] | None) -> tuple[IntegrationPolicy, np.ndarray]:
    """The policy (the default for None) and sample times of a run to a finite
    T > 0: the grid of ``sample_every``, or the times given, none past T."""
    if not 0 < T < math.inf:
        raise ValueError("T must be finite and positive")
    times = sample_grid(T, sample_every) if sample_times is None else np.asarray(sample_times)
    if times.size and times[-1] > T:
        raise ValueError(f"sample time {times[-1]:.6e} lies past T = {T:.6e}")
    return policy or IntegrationPolicy(), times


def propagate(system: SpinSystem, w: Waveform, state0: QuantumState, T: float,
              policy: IntegrationPolicy | None = None,
              sample_every: float | None = None,
              sample_times: Sequence[float] | None = None,
              extra_observables: Sequence[Observable] = ()) -> Trajectory:
    """Evolve ``state0`` under the system Hamiltonian with drive ``w``.

    Records sigma_z and every nuclear I_z on the sample grid: a spacing,
    whose grid always ends at T, or explicit times, none past T.
    """
    policy, times = _run_times(T, policy, sample_every, sample_times)
    if state0.dimension != system.dimension:
        raise ValueError("initial state dimension does not match the system")
    observables = standard_observables(system) + list(extra_observables)
    return propagate_compiled(functools.partial(_drive_hamiltonians, system),
                              compile_waveform(w, policy), state0, times, policy, observables)


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
    policy, times = _run_times(T, policy, sample_every, sample_times)
    if state0.dimension != 4:
        raise ValueError("spin-pair model requires a two-spin (dimension 4) state")
    if not (math.isfinite(omega_n) and math.isfinite(coupling)):
        raise ValueError("omega_n and coupling must be finite")
    s1z, s2z = np.kron(SPIN_Z, np.eye(2)), np.kron(np.eye(2), SPIN_Z)

    def hamiltonians_of(keys: list) -> np.ndarray:
        omega_e = np.asarray(keys, dtype=float)[:, None, None]
        return omega_e * s1z + omega_n * s2z + coupling * _SPIN_PAIR_FLIPFLOP

    observables = [Observable(2 * s1z, name="sigma_z"), Observable(s2z, name="I_z[1]")]
    return propagate_compiled(hamiltonians_of, compile_waveform(w, policy), state0, times,
                              policy, observables)
