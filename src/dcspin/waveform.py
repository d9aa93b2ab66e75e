"""Drive waveforms and the analytic resonance theory built on them.

A waveform is the time-dependent dressed splitting omega_e(t) of the driven
qubit.  Three scalar shapes are provided: a constant drive, the two-level
switching drive with unequal dwell times (DCS), and the phase-modulation
drive (PM) whose splitting toggles between Omega0 +/- Omega1.  All are
piecewise linear with an exactly periodic, enumerable breakpoint list, so
the dynamic phase

    phi(t) = integral_0^t [omega_n - omega_e(t')] dt'

is evaluated in closed form segment by segment, and the coupling factor

    g = (1/T) integral_0^T exp(i phi(t)) dt

needs quadrature only across switching ramps (where phi is quadratic).
Every span of [0, T] is one of a few shapes (the whole spans of a piece
share one), so g sums each span's start-phase rotor times its shape's
integral from phase 0, and the quadrature runs once per ramp shape.  A
sweep over omega_n is one array pass, a row per omega_n, whose rows keep
the bits of one-point calls.

For a periodic drive and T = N tau the coupling factor factorizes as
g = eta * J, where J is the single-period average of exp(i phi) and eta
is the coherent sum over periods, peaked where the per-period phase
advances by a multiple of 2 pi.  The direct g is checked against eta * J
whenever the factorization applies: eta is the closed-form sum, and J is
read from the first period's spans of the direct pass, which equal a
one-period pass bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .constants import TWO_PI

#: relative tolerance for the oscillatory quadrature (configurable per call)
DEFAULT_QUAD_TOL = 1e-10

#: direct integral vs eta * J agreement required when T is a whole number
#: of periods; a violation is surfaced as FactorizationError, never hidden
FACTORIZATION_TOL = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

#: interval halvings after which the ramp quadrature stops refining
_QUAD_MAX_DEPTH = 24

#: distinct DcsWaveforms whose pieces stay cached per process; a
#: coupling-factor span plan reads them once when it is built
PIECES_CACHE_SIZE = 64


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, requested: float, achieved: float):
        self.requested = requested
        self.achieved = achieved
        super().__init__(
            f"quadrature did not converge: requested {requested:.2e}, achieved {achieved:.2e}"
        )


class FactorizationError(ArithmeticError):
    """Direct coupling-factor integral disagrees with the eta * J product."""


class ResonanceConditionError(ValueError):
    """A closed form was requested off the resonance manifold it assumes."""


class Piece(NamedTuple):
    """One linear piece of a waveform: omega_e goes v0 -> v1 over [start, end)."""

    start: float
    end: float
    v0: float
    v1: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def value_at(self, u: float) -> float:
        if self.v0 == self.v1:
            return self.v0
        return self.v0 + (self.v1 - self.v0) * (u - self.start) / (self.end - self.start)


def _require(ok, message: str) -> None:
    """Raise ValueError(message) unless ``ok`` holds (everywhere, in an array)."""
    if not np.all(ok):
        raise ValueError(message)


def _check_dcs(omega_max, tau_plus, tau_minus, tau_switch, t_initial) -> None:
    """DcsWaveform's input checks, of one drive or of arrays of drives."""
    _require(np.isfinite(omega_max) & (omega_max >= 0), "omega_max must be finite and nonnegative")
    _require((0 < tau_plus) & (tau_plus < math.inf) & (0 < tau_minus) & (tau_minus < math.inf),
             "dwell times must be finite and positive")
    _require((0 <= tau_switch) & (tau_switch < np.minimum(tau_plus, tau_minus)),
             "tau_switch must satisfy 0 <= tau_switch < min(tau_plus, tau_minus)")
    _require(np.isfinite(t_initial), "t_initial must be finite")


def _check_pm(omega0, omega1, period) -> None:
    """PmWaveform's input checks, of one drive or of arrays of drives."""
    _require((0 < period) & (period < math.inf), "period must be finite and positive")
    _require((0 <= omega0) & (omega0 < math.inf) & (0 <= omega1) & (omega1 < math.inf),
             "omega0 and omega1 must be finite and nonnegative")


@dataclass(frozen=True)
class ConstantWaveform:
    """Constant drive omega_e(t) = omega_e."""

    omega_e: float

    period = None

    def __post_init__(self):
        _require(np.isfinite(self.omega_e), "omega_e must be finite")

    def value(self, t: float) -> float:
        return self.omega_e


@dataclass(frozen=True)
class DcsWaveform:
    """Two-level switching drive with unequal dwell times.

    omega_e is +omega_max for a dwell tau_plus and -omega_max for a dwell
    tau_minus in every period tau = tau_plus + tau_minus; the positive
    segment starts at t = t_initial.  A nonzero switching time tau_switch
    replaces each jump by a linear ramp centered on the nominal switching
    instant, which leaves the drive area per period unchanged.
    """

    omega_max: float
    tau_plus: float
    tau_minus: float
    tau_switch: float = 0.0
    t_initial: float = 0.0

    def __post_init__(self):
        _check_dcs(self.omega_max, self.tau_plus, self.tau_minus, self.tau_switch, self.t_initial)

    @property
    def period(self) -> float:
        return self.tau_plus + self.tau_minus

    @property
    def duty_asymmetry(self) -> float:
        """(tau_plus - tau_minus) / period."""
        return (self.tau_plus - self.tau_minus) / self.period

    def pieces(self) -> tuple[Piece, ...]:
        return _dcs_pieces(self)

    def value(self, t: float) -> float:
        return _value_periodic(self, t)


@functools.lru_cache(maxsize=PIECES_CACHE_SIZE)
def _dcs_pieces(w: DcsWaveform) -> tuple[Piece, ...]:
    """DcsWaveform.pieces, computed once per waveform: one row of _dcs_piece_rows."""
    *pieces, count = _dcs_piece_rows([w.omega_max], [w.tau_plus], [w.tau_minus],
                                     [w.tau_switch], [w.t_initial])
    return tuple(Piece(*p) for p in zip(*(a[0, :count[0]].tolist() for a in pieces)))


def _dcs_piece_rows(o, tau_plus, tau_minus, tau_switch, t_initial) -> tuple[np.ndarray, ...]:
    """The pieces of many DcsWaveforms, one row per drive: (start, end, v0,
    v1) arrays (rows, pieces), each row's pieces in order and then empty
    pieces at tau, and the count of each row's pieces.

    The pieces anchored at t_initial are shifted into absolute phase [0,
    tau) (a piece across tau splits in two), those of at most 1e-15 tau are
    dropped, and the rest, sorted, are snapped to tile [0, tau).  Each
    scalar operation is the one per-waveform arithmetic takes (np.mod is
    Python's float %), so every piece keeps its bits.
    """
    o, tp, ts, t0 = (np.asarray(a, dtype=float)[:, None] for a in (o, tau_plus, tau_switch,
                                                                  t_initial))
    tau, h = tp + np.asarray(tau_minus, dtype=float)[:, None], 0.5 * ts
    # a ramp, o, a ramp, -o, a ramp, summed exactly from 0 and +-1 terms;
    # without ramps (h = 0) they are empty and dropped, and o and -o are the
    # square drive's two pieces to the bit
    start = tp * _TP[0] + h * _H[0] + tau * _TAU[0]
    end = tp * _TP[1] + h * _H[1] + tau * _TAU[1]
    v0, v1 = o * _LEVELS[0], o * _LEVELS[1]
    dur = end - start
    a = np.mod(t0 + start, tau)
    b = a + dur
    wrap = b > tau
    vm = v0 + np.divide(tau - a, dur, out=np.zeros_like(a), where=wrap) * (v1 - v0)
    # each piece, then the part past tau of a piece that wraps (else empty)
    raw = np.array([np.hstack(c) for c in (
        (a, np.where(wrap, 0.0, tau)), (np.where(wrap, tau, b), np.where(wrap, b - tau, tau)),
        (v0, vm), (np.where(wrap, vm, v1), v1))])
    keep = raw[1] - raw[0] > 1e-15 * tau
    start, _, v0, v1 = np.take_along_axis(raw, np.lexsort((*raw[::-1], ~keep))[None], 2)
    count = keep.sum(1)
    start = np.where(np.arange(start.shape[1]) < count[:, None], start, tau)
    start[:, 0] = 0.0
    w = count.max()
    return start[:, :w], np.hstack([start[:, 1:], tau])[:, :w], v0[:, :w], v1[:, :w], count


# the five local pieces' (start, end) as 0/1/-1 combinations of tau_plus, h
# and tau, and their (v0, v1) as multiples of omega_max
_TP = np.array([[0, 0, 1, 1, 0], [0, 1, 1, 0, 0]], dtype=float)
_H = np.array([[0, 1, -1, 1, -1], [1, -1, 1, -1, 0]], dtype=float)
_TAU = np.array([[0, 0, 0, 0, 1], [0, 0, 0, 1, 1]], dtype=float)
_LEVELS = np.array([[0, 1, 1, -1, -1], [1, 1, -1, -1, 0]], dtype=float)


@dataclass(frozen=True)
class PmWaveform:
    """Phase-modulation drive: splitting omega0 + omega1 for the first half
    period and omega0 - omega1 for the second half."""

    omega0: float
    omega1: float
    period: float

    def __post_init__(self):
        _check_pm(self.omega0, self.omega1, self.period)

    def pieces(self) -> tuple[Piece, ...]:
        half = 0.5 * self.period
        hi, lo = self.omega0 + self.omega1, self.omega0 - self.omega1
        return (Piece(0.0, half, hi, hi), Piece(half, self.period, lo, lo))

    def value(self, t: float) -> float:
        return _value_periodic(self, t)


Waveform = Union[ConstantWaveform, DcsWaveform, PmWaveform]


def _value_periodic(w, t: float) -> float:
    tau = w.period
    u = t % tau
    pieces = w.pieces()
    # right-continuous at breakpoints: take the piece that starts at u
    for p in reversed(pieces):
        if p.start <= u:
            return p.value_at(u)
    return pieces[-1].value_at(u + tau)  # u just below 0 from rounding


def waveform_value(w: Waveform, t: float) -> float:
    """omega_e(t), honoring periodicity and the t_initial anchoring."""
    return w.value(t)


def _require_periodic(w) -> float:
    if getattr(w, "period", None) is None:
        raise ValueError("operation requires a periodic waveform")
    return w.period


def _linear_spans(w, t0: float, t1: float) -> tuple[np.ndarray, ...]:
    """(duration, v_start, v_end, shape) arrays of the linear spans covering [t0, t1] in order.

    Span ends are the absolute piece ends k tau + piece.end clipped to t1;
    the values at both ends of a span come from the Piece.value_at formula.
    A whole span's shape is its piece index; a span clipped by t0 or t1 has
    a shape of its own, the index plus 1, 2 or 3 times len(pieces).
    """
    empty = np.empty(0)
    if t1 <= t0:
        return empty, empty, empty, empty
    if getattr(w, "period", None) is None:
        return np.array([t1 - t0]), np.array([w.omega_e]), np.array([w.omega_e]), np.zeros(1)
    tau = w.period
    start, end, v0, v1 = np.array(w.pieces()).T
    k = math.floor(t0 / tau)
    u = t0 - k * tau
    if u >= tau:  # rounding guard
        k += 1
        u -= tau
    first = max(0, np.searchsorted(start, u, side="right") - 1)
    stop = t1 - 1e-18 * max(1.0, abs(t1))
    if not t0 < stop:
        return empty, empty, empty, empty
    periods = np.arange(k, math.floor(t1 / tau) + 3, dtype=float)
    piece_ends = (periods[:, None] * tau + end).ravel()[first:]
    n = 1 + np.searchsorted(piece_ends, stop, side="left")
    ends = np.minimum(piece_ends[:n], t1)
    dur = np.diff(ends, prepend=t0)
    idx = (first + np.arange(n)) % len(start)
    u_start = start[idx]
    u_start[0] = u
    shape = idx + len(start) * ((u_start != start[idx]) + 2 * (ends < piece_ends[:n]))
    keep = dur > 0
    dur, idx, u_start, shape = dur[keep], idx[keep], u_start[keep], shape[keep]
    a, slope = v0[idx], (v1 - v0)[idx]
    s0, width = start[idx], (end - start)[idx]
    return dur, a + slope * (u_start - s0) / width, a + slope * (u_start + dur - s0) / width, shape


@functools.lru_cache(maxsize=PIECES_CACHE_SIZE)
def drive_area_per_period(w) -> float:
    """Integral of omega_e over one period (exact trapezoid per linear piece), once per drive."""
    _require_periodic(w)
    return sum(0.5 * (p.v0 + p.v1) * p.duration for p in w.pieces())


def average_drive(w) -> float:
    """Period mean of omega_e(t)."""
    return drive_area_per_period(w) / w.period


def drive_integral(w, t0: float, t1: float) -> float:
    """Integral of omega_e over [t0, t1], exact for piecewise-linear drives."""
    if t1 < t0:
        return -drive_integral(w, t1, t0)
    if getattr(w, "period", None) is None:
        return w.omega_e * (t1 - t0)
    tau = w.period
    k0 = math.ceil(t0 / tau)
    k1 = math.floor(t1 / tau)
    if k1 <= k0:
        return _span_area(w, t0, t1)
    return ((k1 - k0) * drive_area_per_period(w) + _span_area(w, t0, k0 * tau)
            + _span_area(w, k1 * tau, t1))


def _span_area(w, t0: float, t1: float) -> float:
    dur, va, vb, _ = _linear_spans(w, t0, t1)
    return float(np.sum(0.5 * (va + vb) * dur))


def dynamic_phase(w: Waveform, omega_n: float, t: float) -> float:
    """phi(t) = integral_0^t [omega_n - omega_e(t')] dt'; phi(0) = 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return omega_n * t - drive_integral(w, 0.0, t)


def phase_per_period(w, omega_n: float) -> float:
    """Phase advance phi(tau) over one full period."""
    tau = _require_periodic(w)
    return omega_n * tau - drive_area_per_period(w)


def period_phase_defect(w: Waveform, omega_n: float, harmonic: int) -> float:
    """Per-period phase advance minus 2*pi*harmonic."""
    return phase_per_period(w, omega_n) - TWO_PI * harmonic


def coherence_factor(delta_phi: float, n_periods: int) -> complex:
    """Mean of exp(i m delta_phi) over m = 0 .. N-1 periods.

    Peaked (value 1) where delta_phi is a multiple of 2*pi, with first
    zeros at delta_phi = +/- 2*pi/N; evaluated through the limit near the
    peaks for numerical stability.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    n = n_periods
    m = round(delta_phi / TWO_PI)
    eps = delta_phi - TWO_PI * m
    if abs(eps) < 1e-9:
        sign = -1.0 if (m * (n - 1)) % 2 else 1.0
        ratio = sign * (1.0 - (n * n - 1) * eps * eps / 24.0)
    else:
        ratio = math.sin(n * delta_phi / 2.0) / (n * math.sin(delta_phi / 2.0))
    return complex(np.exp(0.5j * (n - 1) * delta_phi) * ratio)


def _integral_quadratic_phase(c1: np.ndarray, c2: np.ndarray, dt: np.ndarray,
                              rel_tol: float) -> np.ndarray:
    """Adaptive Gauss integrals of exp(i(c1 s + c2 s^2)) over s in [0, dt], per span.

    Every span is integrated from phase 0; the caller rotates it to its start
    phase.  Refinement is breadth-first: each round evaluates every pending
    interval whole and in halves with 15-point Gauss-Legendre in one np.exp,
    accepts the intervals whose halves agree with the whole (or that reached
    _QUAD_MAX_DEPTH) and splits the rest.  |exp(i phi)| = 1, so tolerances
    are measured relative to the span dt.  Spans never mix, so a span's
    integral has the same bits whatever other spans share the call.
    """
    total = np.zeros(len(dt), dtype=complex)
    span = np.arange(len(dt))
    a, b = np.zeros(len(dt)), dt
    depth = 0
    worst = 0.0
    while span.size:
        mid = 0.5 * (a + b)
        lo, hi = np.array((a, a, mid)), np.array((b, mid, b))
        half_width = 0.5 * (hi - lo)
        s = half_width[..., None] * _GL_NODES + (0.5 * (lo + hi))[..., None]
        phase = c1[span, None] * s + c2[span, None] * s * s
        whole, left, right = half_width * (_GL_WEIGHTS * np.exp(1j * phase)).sum(-1)
        halves = left + right
        err = np.abs(whole - halves)
        done = err <= rel_tol * dt[span]
        if depth >= _QUAD_MAX_DEPTH:
            worst = float(np.max(err / dt[span]))
            done[:] = True
        np.add.at(total, span[done], halves[done])
        split = ~done
        span = span[split]
        if span.size:
            span = np.concatenate((span, span))
            a, b = np.concatenate((a[split], mid[split])), np.concatenate((mid[split], b[split]))
        depth += 1
    if worst > rel_tol:
        raise QuadratureError(requested=rel_tol, achieved=worst)
    return total


#: bytes of one complex (points x spans) array of _exp_phase_integral: a
#: sweep over omega_n goes through in blocks of rows this size, so its
#: memory does not grow with the grid
_BLOCK_BYTES = 1 << 16


@functools.lru_cache(maxsize=4)
def _span_plan(w, t0: float, t1: float) -> tuple[np.ndarray, ...]:
    """The parts of a pass over the spans of [t0, t1] that do not depend on omega_n.

    Per span: (dur, va, c2 dur^2, shape).  shape numbers each span's shape:
    the whole spans of one drive piece share one, a span clipped by t0 or
    t1 has its own.  Per shape, read from its first span, its
    representative: (va, dur), then the indices of the ramped shapes and
    their (c2, dur).  The arrays are read-only because every caller shares
    them.  A sweep over omega_n at a fixed drive and T uses two entries,
    [0, T] and [0, tau], whether it is one array call or a call per point.
    """
    dur, va, vb, key = _linear_spans(w, t0, t1)
    c2 = -0.5 * (vb - va) / dur
    _, rep, shape = np.unique(key, return_index=True, return_inverse=True)
    bent = np.flatnonzero(va[rep] != vb[rep])
    plan = (dur, va, c2 * dur * dur, shape, va[rep], dur[rep], bent, c2[rep][bent],
            dur[rep][bent])
    for a in plan:
        a.flags.writeable = False
    return plan


def _exp_phase_integral(w, omega_n, t1: float, rel_tol: float,
                        head: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """Integrals of exp(i phi(t)) over the spans of [0, t1] and over the first
    `head` of them (None if head is 0), one entry per omega_n of a scalar or
    1-D array.

    Each omega_n is a row of a (points x spans) pass.  Each span is its
    shape's integral from phase 0 (constant shapes in closed form, ramps by
    adaptive Gauss quadrature, each once over its representative span) times
    the rotor of its own start phase.  So a whole-piece span is integrated
    over its representative's interval, while the start phases still chain
    through every span's own duration as a running sum along the row.  The
    rows go in blocks of at most _BLOCK_BYTES per (points x spans) array,
    with one quadrature call for the ramp shapes of every row of a block;
    every operation is elementwise or along a row, so a row's bits do not
    depend on its block.  The plan comes from _span_plan, cached per (drive,
    window); the head's shapes and start phases are those of a pass over the
    head's window, so the head integral is bit for bit that pass.
    """
    dur, va, quad, shape, va_rep, dur_rep, bent, c2_bent, dur_bent = _span_plan(w, 0.0, t1)
    omega = np.asarray(omega_n, dtype=float).reshape(-1, 1)
    rows = max(1, _BLOCK_BYTES // (16 * max(1, len(dur))))
    total = np.empty(len(omega), dtype=complex)
    first = np.empty(len(omega), dtype=complex) if head else None
    for lo in range(0, len(omega), rows):
        om = omega[lo:lo + rows]
        n = len(om)
        inc = np.zeros((n, len(dur) + 1))
        np.add((om - va) * dur, quad, out=inc[:, 1:])
        start = np.add.accumulate(inc, axis=1)[:, :-1]
        c = om - va_rep
        x = c * dur_rep
        small = np.abs(x) < 1e-6
        base = (np.exp(1j * x) - 1.0) / (1j * np.where(small, 1.0, c))
        if small.any():
            x = x[small]
            base[small] = np.broadcast_to(dur_rep, small.shape)[small] * (
                1.0 + 1j * x / 2.0 - x * x / 6.0 - 1j * x ** 3 / 24.0)
        base[:, bent] = _integral_quadratic_phase(
            c.take(bent, 1).ravel(), c2_bent[None].repeat(n, 0).ravel(),
            dur_bent[None].repeat(n, 0).ravel(), rel_tol).reshape(n, -1)
        terms = np.exp(1j * start) * base.take(shape, 1)
        terms.sum(1, out=total[lo:lo + n])
        if head:
            terms[:, :head].sum(1, out=first[lo:lo + n])
    return total, first


def _check_quadrature_args(omega_n, rel_tol: float) -> np.ndarray:
    """omega_n as a float array (0-d for a scalar), after the checks a pass needs."""
    # a NaN phase or a tolerance <= 0 never converges: every ramp interval
    # would split each round up to _QUAD_MAX_DEPTH and exhaust memory
    omega = np.asarray(omega_n, dtype=float)
    if omega.ndim > 1 or not omega.size:
        raise ValueError("omega_n must be a scalar or a non-empty 1-D array")
    if not np.isfinite(omega.reshape(-1)).all():
        raise ValueError("omega_n must be finite")
    if not 0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be finite and positive")
    return omega


def _average(value: np.ndarray, t: float) -> np.ndarray:
    """value / t in place, each part divided by t as Python's complex / float
    does (numpy's complex division would multiply by 1/t)."""
    parts = value.view(float)
    parts /= t
    return value


def _period_average(value: np.ndarray, tau: float) -> np.ndarray:
    j = _average(value, tau)
    for jj in j.tolist():
        if abs(jj) > 1.0 + 1e-9:
            raise ArithmeticError(f"|J| = {abs(jj)} exceeds 1")
    return j


def period_coupling_factor(w: Waveform, omega_n, rel_tol: float = DEFAULT_QUAD_TOL):
    """Single-period average J = (1/tau) integral_0^tau exp(i phi(t)) dt.

    omega_n is a scalar (J is a complex) or a 1-D array (J is a complex
    array, each entry the scalar call's bits).
    """
    tau = _require_periodic(w)
    omega = _check_quadrature_args(omega_n, rel_tol)
    j = _period_average(_exp_phase_integral(w, omega, tau, rel_tol)[0], tau)
    return j if omega.ndim else complex(j[0])


def coupling_factor(w: Waveform, omega_n, T: float, rel_tol: float = DEFAULT_QUAD_TOL):
    """g = (1/T) integral_0^T exp(i phi(t)) dt.

    omega_n is a scalar (g is a complex) or a 1-D array (g is a complex
    array, each entry the scalar call's bits, from one _exp_phase_integral
    pass over the whole array).  Every omega_n is checked finite before any
    span work.

    When the waveform is periodic and T is a whole number N of periods, g
    must agree within FACTORIZATION_TOL with eta * J at every omega_n: eta
    is the closed-form N-period sum, and J is read from the first period's
    spans of the direct pass (from a one-period pass if T falls short of tau
    by rounding).  A FactorizationError names the first omega_n that fails.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be finite and positive")
    omega = _check_quadrature_args(omega_n, rel_tol)
    tau = getattr(w, "period", None)
    n_int = 0 if tau is None else round(T / tau)
    whole = n_int >= 1 and abs(T / tau - n_int) < 1e-9
    head = len(_span_plan(w, 0.0, tau)[0]) if whole and T >= tau else 0
    value, first = _exp_phase_integral(w, omega, T, rel_tol, head)
    g = _average(value, T)
    if whole:
        j = _period_average(first if head else _exp_phase_integral(w, omega, tau, rel_tol)[0],
                            tau)
        for o, gg, jj in zip(omega.reshape(-1).tolist(), g.tolist(), j.tolist()):
            eta = coherence_factor(phase_per_period(w, o), n_int)
            if abs(gg - eta * jj) >= FACTORIZATION_TOL:
                raise FactorizationError(
                    f"direct g = {gg} disagrees with eta*J = {eta * jj} "
                    f"(|diff| = {abs(gg - eta * jj):.3e}) for N = {n_int} at omega_n = {o!r}"
                )
    return g if omega.ndim else complex(g[0])


def resonance_frequency(omega_max: float, tau_plus: float, tau_minus: float,
                        harmonic: int) -> float:
    """Nuclear frequency resonant with the switching drive at the given harmonic.

    omega_n = k nu + r (1 - k) omega_max, with duty asymmetry
    r = (tau_plus - tau_minus)/tau and nu = 2 pi / tau + r omega_max.
    """
    if tau_plus <= 0 or tau_minus <= 0:
        raise ValueError("dwell times must be positive")
    tau = tau_plus + tau_minus
    r = (tau_plus - tau_minus) / tau
    nu = TWO_PI / tau + r * omega_max
    return harmonic * nu + r * (1 - harmonic) * omega_max


def optimal_dwell_times(omega_max: float, nu: float) -> tuple[float, float]:
    """Dwell times maximizing the resonant coupling at the first harmonic
    (of one nu, or arrays of them for an array of nu).

    tau_plus = pi/(nu - omega_max), tau_minus = pi/(nu + omega_max), which
    sets the duty asymmetry to omega_max/nu and places the first-harmonic
    resonance exactly at nu.
    """
    if not (omega_max > 0 and np.all(np.asarray(nu) > omega_max)):
        raise ValueError(
            "requires nu > omega_max > 0; for nu <= omega_max the constant "
            "drive already reaches the Hartmann-Hahn condition"
        )
    return math.pi / (nu - omega_max), math.pi / (nu + omega_max)


def closed_form_period_coupling(omega_max: float, omega_n: float, tau_plus: float,
                                tau_minus: float, harmonic: int) -> float:
    """Closed-form J for symmetric switching (t_initial = -tau_plus/2) on resonance.

    Valid only on the resonance manifold of the given harmonic (checked to
    1e-9 relative).  The overall sign convention differs from the direct
    quadrature by (-1)**harmonic; acceptance-grade comparisons use |J|, and
    the sign relation is pinned by a regression test.
    """
    tau = tau_plus + tau_minus
    r = (tau_plus - tau_minus) / tau
    expected = resonance_frequency(omega_max, tau_plus, tau_minus, harmonic)
    if abs(omega_n - expected) > 1e-9 * max(abs(omega_n), abs(expected)):
        raise ResonanceConditionError(
            f"omega_n = {omega_n} is off the harmonic-{harmonic} resonance {expected}"
        )
    if abs(omega_n - omega_max) < 1e-12 * abs(omega_n):
        raise ZeroDivisionError(
            "omega_n equals omega_max: Hartmann-Hahn degeneracy, closed form undefined"
        )
    return (4.0 * (-1.0) ** harmonic * omega_max
            * math.sin(0.25 * (1.0 + r) * (omega_n - omega_max) * tau)
            / ((omega_n ** 2 - omega_max ** 2) * tau))


def average_power(w: Waveform) -> float:
    """Period mean of omega_e(t)^2 (exact for piecewise-linear drives)."""
    tau = _require_periodic(w)
    total = sum(p.duration * (p.v0 ** 2 + p.v0 * p.v1 + p.v1 ** 2) / 3.0 for p in w.pieces())
    return total / tau
