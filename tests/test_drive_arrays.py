"""A sweep's drives are built in one array pass, with the bits of the drive
objects.

protocols._schedule_rows builds the schedules of a whole grid (and of every
reset segment) as arrays.  Each row must equal, bit for bit, the schedule
that the per-point drive objects gave before: the copies below of the
per-waveform piece list, the slice compiler and the pulse-train schedule.
"""
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcspin import IntegrationPolicy, ProtocolSpec, angular_from_mhz, apply_amplitude_error
from dcspin.dynamics import compile_waveform
from dcspin.protocols import _schedule_rows, _waveform
from dcspin.waveform import Piece

RABI = angular_from_mhz(2.0)
PM_OMEGA = angular_from_mhz(1.0)


def _normalize_pieces(raw, period):
    raw = sorted(p for p in raw if p.duration > 1e-15 * period)
    snapped, start = [], 0.0
    for i, p in enumerate(raw):
        end = raw[i + 1].start if i + 1 < len(raw) else period
        snapped.append(Piece(start, end, p.v0, p.v1))
        start = end
    return tuple(snapped)


def _dcs_pieces(w):
    o, tp, tau, ts = w.omega_max, w.tau_plus, w.period, w.tau_switch
    if ts == 0.0:
        local = [Piece(0.0, tp, o, o), Piece(tp, tau, -o, -o)]
    else:
        h = 0.5 * ts
        local = [Piece(0.0, h, 0.0, o), Piece(h, tp - h, o, o), Piece(tp - h, tp + h, o, -o),
                 Piece(tp + h, tau - h, -o, -o), Piece(tau - h, tau, -o, 0.0)]
    wrapped = []
    for p in local:
        a = (w.t_initial + p.start) % tau
        b = a + p.duration
        if b <= tau:
            wrapped.append(Piece(a, b, p.v0, p.v1))
        else:
            f = (tau - a) / p.duration
            vm = p.v0 + f * (p.v1 - p.v0)
            wrapped.append(Piece(a, tau, p.v0, vm))
            wrapped.append(Piece(0.0, b - tau, vm, p.v1))
    return _normalize_pieces(wrapped, tau)


def _split_durations(spans, max_step):
    return [n if max_step is None else max(n, math.ceil(d / max_step)) for d, n in spans]


def _compile(pieces, policy):
    """(key, duration) slices of one period, as compile_waveform built them."""
    counts = _split_durations([(p.duration, 1 if p.v0 == p.v1 else policy.ramp_substeps)
                               for p in pieces], policy.max_step)
    steps = []
    for p, n in zip(pieces, counts):
        if p.v0 == p.v1:
            steps.extend([(p.v0, p.duration / n)] * n)
        else:
            dt = p.duration / n
            for i in range(n):
                steps.append((p.v0 + (p.v1 - p.v0) * (i + 0.5) / n, dt))
    return steps


def _pulse_train_steps(rabi, pulse_len, delay, detuning, policy):
    """A pulse train's slices, its (segment, rabi, detuning) keys written as
    the array pass's rabi + i detuning."""
    spans = ((complex(rabi, detuning), pulse_len), (complex(0.0, detuning), delay))
    steps = []
    for (key, dur), n in zip(spans, _split_durations([(d, 1) for _, d in spans],
                                                     policy.max_step)):
        steps.extend([(key, dur / n)] * n)
    return steps


def _reference_rows(points, policy, shifts):
    """(period, steps) per (segment start, point), from the drive objects."""
    rows = []
    for t in shifts:
        for spec, point in points:
            if spec.kind == "topdnp":
                rows.append((spec.pulse_len + spec.delay, _pulse_train_steps(
                    spec.rabi * (1 + spec.amplitude_error), spec.pulse_len, spec.delay, point,
                    policy)))
                continue
            w = _waveform(spec, point)
            if t:
                w = replace(w, t_initial=w.t_initial - t)
            pieces = _dcs_pieces(w) if spec.kind == "dcs" else w.pieces()
            rows.append((w.period, _compile(pieces, policy)))
    return rows


@st.composite
def grids(draw):
    """(points, policy, segment starts) of a small dcs, pm or topdnp grid."""
    kind = draw(st.sampled_from(["dcs", "pm", "topdnp"]))
    error = draw(st.floats(-0.05, 0.05))
    if kind == "dcs":
        spec = ProtocolSpec("dcs", omega_max=RABI, amplitude_error=error,
                            switch_fraction=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.9))),
                            t_initial=draw(st.one_of(
                                st.sampled_from(["symmetric", "zero"]), st.floats(-3.0, 3.0),
                                # a fraction that puts a switching instant next to the period end
                                st.sampled_from([0.5, 0.75, 0.999999, 1 - 1e-15, -0.25]))))
        center = angular_from_mhz(draw(st.floats(3.0, 15.5)))
    elif kind == "pm":
        spec = ProtocolSpec("pm", omega0=PM_OMEGA, omega1=PM_OMEGA * draw(st.floats(0.0, 1.5)),
                            amplitude_error=error)
        center = angular_from_mhz(draw(st.floats(3.0, 15.5)))
    else:
        spec = ProtocolSpec("topdnp", rabi=RABI, pulse_len=draw(st.floats(10e-9, 80e-9)),
                            delay=draw(st.floats(10e-9, 80e-9)), amplitude_error=error)
        center = angular_from_mhz(draw(st.floats(-3.0, 3.0)))
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        points = [(apply_amplitude_error(spec, d), center) for d in np.linspace(-0.02, 0.02, n)]
    else:
        points = [(spec, v) for v in center + angular_from_mhz(0.3) * np.linspace(-1, 1, n)]
    policy = IntegrationPolicy(max_step=draw(st.one_of(st.none(), st.floats(2e-9, 50e-9))),
                               ramp_substeps=draw(st.integers(1, 9)))
    shifts = np.zeros(1)
    if kind == "dcs" and draw(st.booleans()):  # the segment starts of a reset run
        period = _waveform(spec, center).period
        shifts = np.append(0.0, np.cumsum(draw(st.lists(st.floats(0.01, 7.3), min_size=1,
                                                        max_size=5))) * period)
    return points, policy, shifts


@settings(max_examples=300, deadline=None)
@given(grids())
def test_the_array_pass_equals_the_drive_objects_bit_for_bit(case):
    points, policy, shifts = case
    periods, keys, durations, counts = _schedule_rows(points, policy, shifts)
    reference = _reference_rows(points, policy, shifts)
    assert np.array_equal(periods, [period for period, _ in reference])
    assert np.array_equal(counts, [len(steps) for _, steps in reference])
    assert np.array_equal(keys, [k for _, steps in reference for k, _ in steps])
    assert np.array_equal(durations, [d for _, steps in reference for _, d in steps])


@settings(max_examples=100, deadline=None)
@given(grids())
def test_the_one_point_objects_are_rows_of_the_array_pass(case):
    """DcsWaveform.pieces and compile_waveform give the copies' pieces and
    slices too.  A pulse train has no one-point object: its rows are checked
    by test_the_array_pass_equals_the_drive_objects_bit_for_bit."""
    points, policy, _ = case
    spec, point = points[0]
    if spec.kind == "topdnp":
        return
    w = _waveform(spec, point)
    schedule = compile_waveform(w, policy)
    pieces = _dcs_pieces(w) if spec.kind == "dcs" else w.pieces()
    assert np.array_equal(w.pieces(), pieces)
    steps = _compile(pieces, policy)
    assert schedule.period == _reference_rows(points[:1], policy, [0.0])[0][0]
    assert np.array_equal(schedule.keys[0], [k for k, _ in steps])
    assert np.array_equal(schedule.durations[0], [d for _, d in steps])
    assert schedule.steps == tuple(steps)
