import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dcspin import (
    ConstantWaveform,
    DcsWaveform,
    PmWaveform,
    angular_from_khz,
    angular_from_mhz,
    average_power,
    closed_form_period_coupling,
    coherence_factor,
    coupling_factor,
    dynamic_phase,
    optimal_dwell_times,
    period_coupling_factor,
    period_phase_defect,
    resonance_frequency,
    waveform_value,
)
from dcspin import waveform
from dcspin.waveform import (
    FACTORIZATION_TOL,
    QuadratureError,
    ResonanceConditionError,
    average_drive,
    drive_integral,
    phase_per_period,
)

TWO_PI = 2 * np.pi


def optimal_waveform(omega_max, nu, t_initial=0.0, tau_switch=0.0):
    tau_plus, tau_minus = optimal_dwell_times(omega_max, nu)
    return DcsWaveform(omega_max, tau_plus, tau_minus, tau_switch, t_initial)


@pytest.fixture
def fig2_waveform():
    return optimal_waveform(angular_from_mhz(1.0), angular_from_mhz(10.713))


# ---------------------------------------------------------------------------
# waveform values and periodicity
# ---------------------------------------------------------------------------

def test_dcs_segment_values():
    w = optimal_waveform(1.0, 10.0)
    assert waveform_value(w, w.tau_plus / 2) == 1.0
    assert waveform_value(w, w.tau_plus + w.tau_minus / 2) == -1.0


def test_pm_values():
    omega0 = angular_from_mhz(0.5)
    w = PmWaveform(omega0, omega0, 1e-7)
    assert waveform_value(w, 0.25e-7) == 2 * omega0
    assert waveform_value(w, 0.75e-7) == 0.0


def test_t_initial_anchors_positive_segment():
    w = optimal_waveform(1.0, 10.0, t_initial=0.1)
    assert waveform_value(w, 0.1 + w.tau_plus / 2) == 1.0
    assert waveform_value(w, 0.1 - w.tau_minus / 2) == -1.0


def test_periodicity_random_times(rng):
    w = optimal_waveform(angular_from_mhz(1.0), angular_from_mhz(10.713),
                         t_initial=-0.3e-8, tau_switch=0.1 * 42e-9)
    tau = w.period
    omega = w.omega_max
    for t in rng.uniform(0, 50 * tau, size=1000):
        a, b = waveform_value(w, t), waveform_value(w, t + tau)
        if abs(a) == omega:
            assert b == a  # flat segments are bit-exact
        else:
            # ramp interpolation is exact up to the rounding of t mod tau
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12 * omega)


def test_ramp_is_linear_and_bounded():
    w = optimal_waveform(2.0, 10.0, tau_switch=0.05)
    ts = np.linspace(0, w.period, 4001)
    vals = np.array([waveform_value(w, t) for t in ts])
    assert np.max(np.abs(vals)) <= 2.0
    # ramp midpoint crosses zero at the nominal switch instant
    assert waveform_value(w, w.tau_plus) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# dynamic phase
# ---------------------------------------------------------------------------

def test_phase_constant_resonant():
    w = ConstantWaveform(3.7e6)
    for t in (0.0, 1e-7, 3e-5):
        assert dynamic_phase(w, 3.7e6, t) == 0.0


def test_phase_one_period():
    w = optimal_waveform(1.0e6, 10.0e6)
    omega_n = 9.0e6
    tau = w.period
    expected = omega_n * tau - 1.0e6 * (w.tau_plus - w.tau_minus)
    assert dynamic_phase(w, omega_n, tau) == pytest.approx(expected, rel=1e-13)


def test_phase_2pi_at_first_harmonic_resonance(fig2_waveform):
    w = fig2_waveform
    omega_n = resonance_frequency(w.omega_max, w.tau_plus, w.tau_minus, 1)
    assert dynamic_phase(w, omega_n, w.period) == pytest.approx(TWO_PI, rel=1e-12)


def test_phase_additivity_random_splits(rng, fig2_waveform):
    w = fig2_waveform
    omega_n = angular_from_mhz(10.7)
    for _ in range(50):
        t1, t2 = rng.uniform(0, 20 * w.period, size=2)
        lhs = dynamic_phase(w, omega_n, t1 + t2)
        rhs = dynamic_phase(w, omega_n, t1) + (omega_n * t2 - drive_integral(w, t1, t1 + t2))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_period_defect_examples(fig2_waveform):
    w = fig2_waveform
    nu = resonance_frequency(w.omega_max, w.tau_plus, w.tau_minus, 1)
    assert period_phase_defect(w, nu, 1) == pytest.approx(0.0, abs=1e-9)
    delta = TWO_PI * 123.0
    shift = period_phase_defect(w, nu + delta, 1) - period_phase_defect(w, nu, 1)
    assert shift == pytest.approx(delta * w.period, rel=1e-12)
    # 2pi x 10 kHz detuning over the 94.165 ns period
    defect = period_phase_defect(w, nu + angular_from_khz(10.0), 1)
    assert defect == pytest.approx(angular_from_khz(10.0) * w.period, rel=1e-12)
    assert defect == pytest.approx(5.917e-3, abs=1e-6)


def test_period_defect_requires_periodic():
    with pytest.raises(ValueError):
        period_phase_defect(ConstantWaveform(1.0), 1.0, 1)


# ---------------------------------------------------------------------------
# coherence factor (per-period sum)
# ---------------------------------------------------------------------------

def test_coherence_factor_peak_and_zeros():
    for n in (1, 2, 17, 50):
        assert coherence_factor(0.0, n) == 1.0
        assert coherence_factor(4 * np.pi, n) == pytest.approx(1.0, abs=1e-12)
        if n > 1:
            assert abs(coherence_factor(TWO_PI / n, n)) == pytest.approx(0.0, abs=1e-12)
    assert abs(coherence_factor(np.pi, 2)) == pytest.approx(0.0, abs=1e-15)


def test_coherence_factor_matches_explicit_sum(rng):
    for _ in range(30):
        n = int(rng.integers(1, 60))
        dphi = rng.uniform(-10, 10)
        explicit = np.mean(np.exp(1j * dphi * np.arange(n)))
        assert coherence_factor(dphi, n) == pytest.approx(explicit, abs=1e-12)


def test_coherence_factor_first_zeros_location():
    n = 50
    f = lambda x: np.sin(n * x / 2) / (n * np.sin(x / 2))
    for sign in (+1, -1):
        root = brentq(f, sign * 0.5 * TWO_PI / n, sign * 1.5 * TWO_PI / n, xtol=1e-14)
        assert root == pytest.approx(sign * TWO_PI / n, abs=1e-10)
        assert abs(coherence_factor(root, n)) < 1e-10


# ---------------------------------------------------------------------------
# period coupling factor J and closed form
# ---------------------------------------------------------------------------

def test_period_coupling_resonant_constant_drive():
    omega_n = angular_from_mhz(5.0)
    w = PmWaveform(omega_n, 0.0, 1e-7)  # constant-valued periodic drive
    assert period_coupling_factor(w, omega_n) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_quadrature_vs_closed_form(fig2_waveform):
    w = fig2_waveform
    nu = resonance_frequency(w.omega_max, w.tau_plus, w.tau_minus, 1)
    sym = DcsWaveform(w.omega_max, w.tau_plus, w.tau_minus, 0.0, -w.tau_plus / 2)
    j_quad = period_coupling_factor(sym, nu)
    j_closed = closed_form_period_coupling(w.omega_max, nu, w.tau_plus, w.tau_minus, 1)
    assert abs(j_quad) == pytest.approx(abs(j_closed), rel=1e-9)
    assert abs(j_quad) == pytest.approx(2 * w.omega_max / (np.pi * nu), rel=1e-9)


def test_closed_form_sign_regression(rng):
    """The closed form as written carries (-1)**harmonic relative to the
    symmetric-control quadrature; pinned here."""
    for _ in range(10):
        omega = rng.uniform(0.5, 2.0)
        tau_plus = rng.uniform(0.8, 2.0)
        tau_minus = rng.uniform(0.3, 0.79)
        for k in (1, 2, 3):
            omega_n = resonance_frequency(omega, tau_plus, tau_minus, k)
            sym = DcsWaveform(omega, tau_plus, tau_minus, 0.0, -tau_plus / 2)
            j_quad = period_coupling_factor(sym, omega_n)
            j_closed = closed_form_period_coupling(omega, omega_n, tau_plus, tau_minus, k)
            assert j_quad.imag == pytest.approx(0.0, abs=1e-10)
            assert j_quad.real == pytest.approx((-1.0) ** k * j_closed, abs=1e-10)


def test_closed_form_magnitude_examples():
    nu = angular_from_mhz(10.0)
    omega = 0.3 * nu
    tau_plus, tau_minus = optimal_dwell_times(omega, nu)
    j = closed_form_period_coupling(omega, nu, tau_plus, tau_minus, 1)
    assert j == pytest.approx(-2 * omega / (np.pi * nu), rel=1e-12)
    assert abs(j) == pytest.approx(0.19099, abs=1e-5)


def test_closed_form_preconditions():
    omega = 1.0
    tau_plus, tau_minus = optimal_dwell_times(omega, 10.0)
    with pytest.raises(ResonanceConditionError):
        closed_form_period_coupling(omega, 10.5, tau_plus, tau_minus, 1)
    # symmetric dwell with period 2*pi/omega puts the k=1 resonance exactly
    # at omega_n = omega_max: the Hartmann-Hahn degeneracy
    tau = TWO_PI / omega
    with pytest.raises(ZeroDivisionError):
        closed_form_period_coupling(omega, omega, tau / 2, tau / 2, 1)


def test_t_initial_invariance_of_J(fig2_waveform):
    w = fig2_waveform
    nu = resonance_frequency(w.omega_max, w.tau_plus, w.tau_minus, 1)
    mags = []
    for t_i in (0.0, -w.tau_plus / 2, 0.3 * w.period):
        shifted = DcsWaveform(w.omega_max, w.tau_plus, w.tau_minus, 0.0, t_i)
        mags.append(abs(period_coupling_factor(shifted, nu)))
    npt.assert_allclose(mags, mags[0], rtol=1e-9)


# ---------------------------------------------------------------------------
# coupling factor g
# ---------------------------------------------------------------------------

def test_constant_drive_coupling_closed_form(rng):
    omega_n = angular_from_mhz(3.0)
    for _ in range(10):
        omega_e = omega_n * rng.uniform(0.5, 1.5)
        T = rng.uniform(0.5e-6, 5e-6)
        g = coupling_factor(ConstantWaveform(omega_e), omega_n, T)
        x = (omega_e - omega_n) * T / 2
        expected = np.exp(-1j * x) * np.sin(x) / x
        assert g == pytest.approx(expected, abs=1e-12)


def test_constant_resonant_coupling_is_one():
    omega_n = angular_from_mhz(3.0)
    assert coupling_factor(ConstantWaveform(omega_n), omega_n, 1e-5) == pytest.approx(1.0)


def test_optimal_coupling_magnitude():
    nu = angular_from_mhz(10.0)
    omega = 0.3 * nu
    w = optimal_waveform(omega, nu, t_initial=0.0)
    g = coupling_factor(w, nu, 50 * w.period)
    assert abs(g) == pytest.approx(2 * omega / (np.pi * nu), rel=1e-8)
    assert abs(g) == pytest.approx(0.19099, abs=1e-4)


def test_factorization_random_parameters(rng):
    for _ in range(20):
        omega = rng.uniform(0.3, 2.0)
        w = DcsWaveform(omega, rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5),
                        t_initial=rng.uniform(-1.0, 1.0))
        omega_n = rng.uniform(2.0, 12.0)
        n = int(rng.integers(2, 40))
        g = coupling_factor(w, omega_n, n * w.period)  # internal consistency assert
        eta = coherence_factor(phase_per_period(w, omega_n), n)
        j = period_coupling_factor(w, omega_n)
        assert abs(g - eta * j) < 1e-8


def test_coupling_bound_and_saturation(rng):
    omega_n = 5.0
    assert abs(coupling_factor(ConstantWaveform(omega_n), omega_n, 3.0)) == pytest.approx(1.0)
    for _ in range(10):
        w = DcsWaveform(rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5))
        g = coupling_factor(w, rng.uniform(1.5, 8.0), rng.uniform(3.0, 10.0))
        assert abs(g) <= 1.0 + 1e-12
        assert abs(g) < 1.0  # phase is non-constant for these drives


# ---------------------------------------------------------------------------
# properties of g over random drives, against a scalar span-by-span loop
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _scalar_spans(w, t0, t1):
    """(duration, v_start, v_end) of each linear span of [t0, t1], one at a
    time.  Durations are period-local, never differences of absolute times,
    whose rounding grows with the period count."""
    if t1 <= t0:
        return
    if getattr(w, "period", None) is None:
        yield (t1 - t0, w.omega_e, w.omega_e)
        return
    tau = w.period
    pieces = w.pieces()
    k = math.floor(t0 / tau)
    u = t0 - k * tau
    if u >= tau:
        k += 1
        u -= tau
    idx = max(0, np.searchsorted([p.start for p in pieces], u, side="right") - 1)
    t = t0
    while t < t1 - 1e-18 * max(1.0, abs(t1)):
        p = pieces[idx]
        piece_end_abs = k * tau + p.end
        e = min(piece_end_abs, t1)
        dur = min(p.end, t1 - k * tau) - u
        if dur > 0:
            yield (dur, p.value_at(u), p.value_at(u + dur))
        t = e
        if e >= piece_end_abs:
            idx += 1
            if idx == len(pieces):
                idx = 0
                k += 1
            u = pieces[idx].start
        else:
            u += dur


def _scalar_gauss15(phi0, c1, c2, a, b):
    s = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * np.sum(_GL_WEIGHTS * np.exp(1j * (phi0 + c1 * s + c2 * s * s)))


def _scalar_ramp(phi0, c1, c2, dt, rel_tol=1e-10):
    """Depth-first adaptive Gauss-Legendre over one ramp."""
    stack, total = [(0.0, dt, 0)], 0.0j
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        halves = _scalar_gauss15(phi0, c1, c2, a, mid) + _scalar_gauss15(phi0, c1, c2, mid, b)
        if abs(_scalar_gauss15(phi0, c1, c2, a, b) - halves) <= rel_tol * dt or depth >= 24:
            total += halves
        else:
            stack += [(a, mid, depth + 1), (mid, b, depth + 1)]
    return total


def _scalar_exp_phase_integral(w, omega_n, t1):
    total, phi = 0.0j, 0.0
    for dur, va, vb in _scalar_spans(w, 0.0, t1):
        c1 = omega_n - va
        if va == vb:
            x = c1 * dur
            if abs(x) < 1e-6:
                total += dur * np.exp(1j * phi) * (1 + 1j * x / 2 - x * x / 6 - 1j * x ** 3 / 24)
            else:
                total += np.exp(1j * phi) * (np.exp(1j * x) - 1.0) / (1j * c1)
            phi += c1 * dur
        else:
            c2 = -0.5 * (vb - va) / dur
            total += _scalar_ramp(phi, c1, c2, dur)
            phi += c1 * dur + c2 * dur * dur
    return total


def _scalar_drive_integral(w, t1):
    return sum(0.5 * (va + vb) * dur for dur, va, vb in _scalar_spans(w, 0.0, t1))


@st.composite
def ramped_dcs(draw):
    tau_plus, tau_minus = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    tau_switch = draw(st.floats(0.0, 0.9)) * min(tau_plus, tau_minus)
    return DcsWaveform(draw(st.floats(0.2, 3.0)), tau_plus, tau_minus, tau_switch,
                       draw(st.floats(-3.0, 3.0)))


@st.composite
def pm_drives(draw):
    omega0 = draw(st.floats(0.5, 5.0))
    return PmWaveform(omega0, draw(st.floats(0.0, 1.0)) * omega0, draw(st.floats(0.3, 3.0)))


@settings(max_examples=40, deadline=None)
@given(w=st.one_of(ramped_dcs(), pm_drives()), omega_n=st.floats(0.5, 12.0),
       n_periods=st.integers(1, 60), fraction=st.sampled_from([0.0, 0.1, 0.5, 0.93]))
@example(w=DcsWaveform(2.0, 1.602376825440007, 1.602376825440007, 0.0, 0.0), omega_n=1.0,
         n_periods=54, fraction=0.0)
def test_coupling_bound_factorization_and_scalar_loop(w, omega_n, n_periods, fraction):
    T = (n_periods + fraction) * w.period
    g = coupling_factor(w, omega_n, T)
    j = period_coupling_factor(w, omega_n)
    assert abs(g) <= 1.0 + 1e-12
    if fraction == 0.0:
        eta = coherence_factor(phase_per_period(w, omega_n), n_periods)
        assert abs(g - eta * j) < FACTORIZATION_TOL
    assert abs(g - _scalar_exp_phase_integral(w, omega_n, T) / T) < 1e-12
    assert abs(j - _scalar_exp_phase_integral(w, omega_n, w.period) / w.period) < 1e-12
    assert drive_integral(w, 0.0, T) == pytest.approx(_scalar_drive_integral(w, T),
                                                      rel=1e-12, abs=1e-12)


def test_ramp_quadrature_raises_at_the_depth_cap(monkeypatch):
    """A fast chirp at rel_tol 1e-14 cannot converge in two halvings."""
    monkeypatch.setattr(waveform, "_QUAD_MAX_DEPTH", 2)
    w = DcsWaveform(200.0, 1.0, 1.0, tau_switch=0.9)
    with pytest.raises(QuadratureError) as info:
        period_coupling_factor(w, 3.0, rel_tol=1e-14)
    assert info.value.requested == 1e-14
    assert info.value.achieved > 1e-14


# ---------------------------------------------------------------------------
# resonance condition and optimal dwell times
# ---------------------------------------------------------------------------

def test_resonance_frequency_harmonics():
    omega, tau_plus, tau_minus = 1.0, 0.9, 0.5
    tau = tau_plus + tau_minus
    r = (tau_plus - tau_minus) / tau
    nu = TWO_PI / tau + r * omega
    assert resonance_frequency(omega, tau_plus, tau_minus, 1) == pytest.approx(nu, rel=1e-15)
    assert resonance_frequency(omega, tau_plus, tau_minus, 0) == pytest.approx(r * omega, rel=1e-15)
    assert abs(resonance_frequency(omega, tau_plus, tau_minus, 0)) < omega


def test_resonance_frequency_fig2_point():
    omega = angular_from_mhz(1.0)
    tau_plus, tau_minus = optimal_dwell_times(omega, angular_from_mhz(10.713))
    assert resonance_frequency(omega, tau_plus, tau_minus, 1) == pytest.approx(
        angular_from_mhz(10.713), rel=1e-12)


def test_optimal_dwell_times_values():
    omega = angular_from_mhz(1.0)
    nu = angular_from_mhz(10.713)
    tau_plus, tau_minus = optimal_dwell_times(omega, nu)
    assert tau_plus == pytest.approx(51.477e-9, rel=1e-4)
    assert tau_minus == pytest.approx(42.688e-9, rel=1e-4)
    assert tau_plus + tau_minus == pytest.approx(94.165e-9, rel=1e-4)
    w = DcsWaveform(omega, tau_plus, tau_minus)
    assert w.duty_asymmetry == pytest.approx(omega / nu, rel=1e-12)


def test_optimal_dwell_times_limits():
    nu = 10.0
    eps = 1e-9
    tau_plus, tau_minus = optimal_dwell_times(eps, nu)
    assert tau_plus == pytest.approx(np.pi / nu, rel=1e-6)
    assert tau_minus == pytest.approx(np.pi / nu, rel=1e-6)
    with pytest.raises(ValueError):
        optimal_dwell_times(2.0, 1.0)


def test_dcs_waveform_validation():
    with pytest.raises(ValueError):
        DcsWaveform(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        DcsWaveform(1.0, 0.5, 0.4, tau_switch=0.45)
    with pytest.raises(ValueError):
        DcsWaveform(-1.0, 0.5, 0.4)


# ---------------------------------------------------------------------------
# average drive and power
# ---------------------------------------------------------------------------

def test_average_power_dcs():
    w = optimal_waveform(3.0, 10.0)
    assert average_power(w) == pytest.approx(9.0, rel=1e-15)
    assert average_drive(w) == pytest.approx(w.duty_asymmetry * 3.0, rel=1e-12)


def test_average_power_pm_matching():
    omega = angular_from_mhz(1.0)
    w = PmWaveform(omega / np.sqrt(2), omega / np.sqrt(2), 1e-7)
    assert average_power(w) == pytest.approx(omega ** 2, rel=1e-12)
    half = PmWaveform(angular_from_mhz(0.5), angular_from_mhz(0.5), 1e-7)
    assert average_power(half) == pytest.approx(0.5 * omega ** 2, rel=1e-12)


def test_average_power_with_ramps_below_flat_top():
    flat = optimal_waveform(2.0, 10.0)
    ramped = optimal_waveform(2.0, 10.0, tau_switch=0.1 * flat.tau_minus)
    assert average_power(ramped) < average_power(flat)
