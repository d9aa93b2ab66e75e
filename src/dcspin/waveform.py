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

For a periodic drive and T = N tau the coupling factor factorizes as
g = eta * J, where J is the single-period average of exp(i phi) and eta
is the coherent sum over periods, peaked where the per-period phase
advances by a multiple of 2 pi.  Both routes are computed and compared
whenever the factorization applies.
"""
from __future__ import annotations

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


def _normalize_pieces(raw: list[Piece], period: float) -> tuple[Piece, ...]:
    """Sort, drop zero-length pieces, and snap the pieces to tile [0, period)."""
    raw = sorted(p for p in raw if p.duration > 1e-15 * period)
    snapped = []
    start = 0.0
    for i, p in enumerate(raw):
        end = raw[i + 1].start if i + 1 < len(raw) else period
        snapped.append(Piece(start, end, p.v0, p.v1))
        start = end
    return tuple(snapped)


@dataclass(frozen=True)
class ConstantWaveform:
    """Constant drive omega_e(t) = omega_e."""

    omega_e: float

    period = None

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
        if self.omega_max < 0 or not math.isfinite(self.omega_max):
            raise ValueError("omega_max must be finite and nonnegative")
        if self.tau_plus <= 0 or self.tau_minus <= 0:
            raise ValueError("dwell times must be positive")
        if not 0 <= self.tau_switch < min(self.tau_plus, self.tau_minus):
            raise ValueError("tau_switch must satisfy 0 <= tau_switch < min(tau_plus, tau_minus)")

    @property
    def period(self) -> float:
        return self.tau_plus + self.tau_minus

    @property
    def duty_asymmetry(self) -> float:
        """(tau_plus - tau_minus) / period."""
        return (self.tau_plus - self.tau_minus) / self.period

    def pieces(self) -> tuple[Piece, ...]:
        o, tp, tau, ts = self.omega_max, self.tau_plus, self.period, self.tau_switch
        if ts == 0.0:
            local = [Piece(0.0, tp, o, o), Piece(tp, tau, -o, -o)]
        else:
            h = 0.5 * ts
            local = [
                Piece(0.0, h, 0.0, o),
                Piece(h, tp - h, o, o),
                Piece(tp - h, tp + h, o, -o),
                Piece(tp + h, tau - h, -o, -o),
                Piece(tau - h, tau, -o, 0.0),
            ]
        # shift the t_initial-anchored pieces into absolute phase [0, tau)
        wrapped: list[Piece] = []
        for p in local:
            a = (self.t_initial + p.start) % tau
            b = a + p.duration
            if b <= tau:
                wrapped.append(Piece(a, b, p.v0, p.v1))
            else:
                f = (tau - a) / p.duration
                vm = p.v0 + f * (p.v1 - p.v0)
                wrapped.append(Piece(a, tau, p.v0, vm))
                wrapped.append(Piece(0.0, b - tau, vm, p.v1))
        return _normalize_pieces(wrapped, tau)

    def value(self, t: float) -> float:
        return _value_periodic(self, t)


@dataclass(frozen=True)
class PmWaveform:
    """Phase-modulation drive: splitting omega0 + omega1 for the first half
    period and omega0 - omega1 for the second half."""

    omega0: float
    omega1: float
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.omega0 < 0 or self.omega1 < 0:
            raise ValueError("omega0 and omega1 must be nonnegative")

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


def _linear_spans(w, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(duration, v_start, v_end) arrays of the linear spans covering [t0, t1] in order.

    Span ends are the absolute piece ends k tau + piece.end clipped to t1;
    the values at both ends of a span come from the Piece.value_at formula.
    """
    empty = np.empty(0)
    if t1 <= t0:
        return empty, empty, empty
    if getattr(w, "period", None) is None:
        return np.array([t1 - t0]), np.array([w.omega_e]), np.array([w.omega_e])
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
        return empty, empty, empty
    periods = np.arange(k, math.floor(t1 / tau) + 3, dtype=float)
    piece_ends = (periods[:, None] * tau + end).ravel()[first:]
    n = 1 + np.searchsorted(piece_ends, stop, side="left")
    ends = np.minimum(piece_ends[:n], t1)
    dur = np.diff(ends, prepend=t0)
    idx = (first + np.arange(n)) % len(start)
    u_start = start[idx]
    u_start[0] = u
    keep = dur > 0
    dur, idx, u_start = dur[keep], idx[keep], u_start[keep]
    a, slope = v0[idx], (v1 - v0)[idx]
    s0, width = start[idx], (end - start)[idx]
    return dur, a + slope * (u_start - s0) / width, a + slope * (u_start + dur - s0) / width


def drive_area_per_period(w) -> float:
    """Integral of omega_e over one period (exact trapezoid per linear piece)."""
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
    dur, va, vb = _linear_spans(w, t0, t1)
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


def _integral_quadratic_phase(phi0: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                              dt: np.ndarray, rel_tol: float) -> np.ndarray:
    """Adaptive Gauss integrals of exp(i(phi0 + c1 s + c2 s^2)) over s in [0, dt], per span.

    Refinement is breadth-first: each round evaluates every pending interval
    whole and in halves with 15-point Gauss-Legendre in one np.exp, accepts
    the intervals whose halves agree with the whole (or that reached
    _QUAD_MAX_DEPTH) and splits the rest.  |exp(i phi)| = 1, so tolerances
    are measured relative to the span dt.
    """
    total = np.zeros(len(dt), dtype=complex)
    span = np.arange(len(dt))
    a, b = np.zeros_like(dt), dt
    depth = 0
    worst = 0.0
    while span.size:
        mid = 0.5 * (a + b)
        lo, hi = np.stack([a, a, mid]), np.stack([b, mid, b])
        half_width = 0.5 * (hi - lo)
        s = half_width[..., None] * _GL_NODES + (0.5 * (lo + hi))[..., None]
        phase = phi0[span, None] + c1[span, None] * s + c2[span, None] * s * s
        whole, left, right = half_width * np.sum(_GL_WEIGHTS * np.exp(1j * phase), axis=-1)
        halves = left + right
        err = np.abs(whole - halves)
        done = (err <= rel_tol * dt[span]) | (depth >= _QUAD_MAX_DEPTH)
        if depth >= _QUAD_MAX_DEPTH:
            worst = float(np.max(err / dt[span]))
        np.add.at(total, span[done], halves[done])
        split = ~done
        span = np.tile(span[split], 2)
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        depth += 1
    if worst > rel_tol:
        raise QuadratureError(requested=rel_tol, achieved=worst)
    return total


def _exp_phase_integral(w, omega_n: float, t0: float, t1: float,
                        phi0: float, rel_tol: float) -> tuple[complex, float]:
    """Integral of exp(i phi(t)) over [t0, t1] with phi(t0) = phi0.

    Returns (integral, phi(t1)).  Every span is evaluated in one array pass:
    constant spans (linear phase) in closed form, ramps (quadratic phase)
    by adaptive Gauss quadrature.
    """
    dur, va, vb = _linear_spans(w, t0, t1)
    c1 = omega_n - va
    c2 = -0.5 * (vb - va) / dur
    phi = np.add.accumulate(np.concatenate([[phi0], c1 * dur + c2 * dur * dur]))
    start = phi[:-1]
    ramp = va != vb
    x = c1 * dur
    small = np.abs(x) < 1e-6
    rotor = np.exp(1j * start)
    series = dur * rotor * (1.0 + 1j * x / 2.0 - x * x / 6.0 - 1j * x ** 3 / 24.0)
    closed = rotor * (np.exp(1j * x) - 1.0) / (1j * np.where(small, 1.0, c1))
    total = np.sum(np.where(small, series, closed)[~ramp]) + np.sum(
        _integral_quadratic_phase(start[ramp], c1[ramp], c2[ramp], dur[ramp], rel_tol))
    return complex(total), float(phi[-1])


def period_coupling_factor(w: Waveform, omega_n: float,
                           rel_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """Single-period average J = (1/tau) integral_0^tau exp(i phi(t)) dt."""
    tau = _require_periodic(w)
    value, _ = _exp_phase_integral(w, omega_n, 0.0, tau, 0.0, rel_tol)
    j = value / tau
    if abs(j) > 1.0 + 1e-9:
        raise ArithmeticError(f"|J| = {abs(j)} exceeds 1")
    return j


def coupling_factor(w: Waveform, omega_n: float, T: float,
                    rel_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """g = (1/T) integral_0^T exp(i phi(t)) dt.

    When the waveform is periodic and T is a whole number of periods the
    factorization g = eta * J is evaluated independently and the two
    routes are required to agree within FACTORIZATION_TOL.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    value, _ = _exp_phase_integral(w, omega_n, 0.0, T, 0.0, rel_tol)
    g = value / T
    tau = getattr(w, "period", None)
    if tau is not None:
        n = T / tau
        n_int = round(n)
        if n_int >= 1 and abs(n - n_int) < 1e-9:
            eta = coherence_factor(phase_per_period(w, omega_n), n_int)
            j = period_coupling_factor(w, omega_n, rel_tol)
            if abs(g - eta * j) >= FACTORIZATION_TOL:
                raise FactorizationError(
                    f"direct g = {g} disagrees with eta*J = {eta * j} "
                    f"(|diff| = {abs(g - eta * j):.3e}) for N = {n_int}"
                )
    return g


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
    """Dwell times maximizing the resonant coupling at the first harmonic.

    tau_plus = pi/(nu - omega_max), tau_minus = pi/(nu + omega_max), which
    sets the duty asymmetry to omega_max/nu and places the first-harmonic
    resonance exactly at nu.
    """
    if not nu > omega_max > 0:
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
