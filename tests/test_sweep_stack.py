"""Stacked sweeps: every grid point equals its own propagation, bit for bit.

run_sweep evolves the points of a nu, detuning or amplitude-error sweep as
stacks (dynamics._evolve), and the points of a sweep with electron resets
as stacks of chains.  Each column must equal the final row of the point's
own trajectory, and must not depend on the worker count.
"""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcspin import (
    IntegrationPolicy,
    Nucleus,
    ProtocolSpec,
    SpinSystem,
    angular_from_khz,
    angular_from_mhz,
    apply_amplitude_error,
    build_dcs_waveform,
    dynamics,
    nuclear_frequency,
    protocols,
)
from dcspin.protocols import _stacks, _trajectory, pm_resonant_period, run_sweep

RABI = angular_from_mhz(2.0)
PM_OMEGA = angular_from_mhz(1.0)
PULSE_LEN, DELAY = 56e-9, 28e-9
AXES = {"dcs": ("nu", "amplitude_error"), "pm": ("nu", "amplitude_error"),
        "topdnp": ("detuning", "amplitude_error"), "constant": ("amplitude_error",)}


def _system(draw, n_nuclei: int) -> SpinSystem:
    khz = st.floats(0.2, 20.0)
    return SpinSystem(field_z=0.35, nuclei=tuple(
        Nucleus(angular_from_mhz(42.5775), angular_from_khz(draw(khz)),
                angular_from_khz(draw(khz)), "1H") for _ in range(n_nuclei)))


@st.composite
def sweeps(draw, nuclei=st.integers(0, 2), points=st.integers(1, 7)):
    """(system, spec, axis, grid, T, point, policy) of a small non-T sweep;
    a dcs sweep resets the electron every 0.3-7.3 centre periods, or never."""
    system = _system(draw, draw(nuclei))
    kind = draw(st.sampled_from(sorted(AXES)))
    axis = draw(st.sampled_from(AXES[kind]))
    error = draw(st.floats(-0.05, 0.05))
    center = angular_from_mhz(draw(st.floats(14.0, 15.5)))
    if kind == "dcs":
        period = build_dcs_waveform(RABI, center).period
        spec = ProtocolSpec("dcs", omega_max=RABI, amplitude_error=error,
                            switch_fraction=draw(st.one_of(st.just(0.0),
                                                           st.floats(0.01, 0.3))),
                            t_initial=draw(st.one_of(st.sampled_from(["symmetric", "zero"]),
                                                     st.floats(0.0, 0.99))),
                            reset_every=draw(st.one_of(st.none(), st.floats(0.3, 7.3).map(
                                lambda periods: periods * period))))
    elif kind == "pm":
        spec = ProtocolSpec("pm", omega0=PM_OMEGA, omega1=PM_OMEGA, amplitude_error=error)
        period = pm_resonant_period(PM_OMEGA, center)
    elif kind == "topdnp":
        spec = ProtocolSpec("topdnp", draw(st.sampled_from(["topdnp_parallel",
                                                            "topdnp_perpendicular"])),
                            rabi=RABI, pulse_len=PULSE_LEN, delay=DELAY,
                            amplitude_error=error)
        center = angular_from_mhz(draw(st.floats(2.5, 2.9)))
        period = PULSE_LEN + DELAY
    else:
        spec = ProtocolSpec("constant", omega_e=center, amplitude_error=error)
        period = PULSE_LEN + DELAY
    n = draw(points)
    if axis == "amplitude_error":
        grid, point = np.linspace(-0.02, 0.02, n), center
    else:
        grid, point = center + angular_from_mhz(0.2) * np.linspace(-1, 1, n), None
    # shorter than a period, 1-4 whole periods (fast-forward powers 0-3), or
    # a non-whole number of periods
    periods = draw(st.one_of(st.floats(0.05, 0.95), st.integers(1, 4),
                             st.floats(1.05, 40.0)))
    policy = IntegrationPolicy(
        max_step=draw(st.one_of(st.none(), st.floats(5e-9, 50e-9))),
        ramp_substeps=draw(st.integers(1, 8)),
        unitarity_check_interval=draw(st.integers(1, 4)),
        fast_forward=draw(st.booleans()))
    return system, spec, axis, grid, float(periods * period), point, policy


def _points(spec, axis, grid, point):
    if axis == "amplitude_error":
        return [(apply_amplitude_error(spec, d), point) for d in grid]
    return [(spec, value) for value in grid]


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_stacked_sweep_equals_each_point_propagated_alone(case):
    system, spec, axis, grid, T, point, policy = case
    columns = run_sweep(system, spec, axis, grid, T=T, point=point, policy=policy,
                        workers=1).columns
    for i, (spec_i, point_i) in enumerate(_points(spec, axis, grid, point)):
        alone = _trajectory(system, spec_i, point_i, [T], policy).observables
        for name, series in alone.items():
            assert np.array_equal(columns[name][i:i + 1], series[-1:]), (name, i)


@settings(max_examples=6, deadline=None)
@given(sweeps(nuclei=st.sampled_from([1, 5]), points=st.just(9)))
def test_stacked_sweep_does_not_depend_on_the_worker_count(case):
    system, spec, axis, grid, T, point, policy = case
    if system.n_nuclei == 5:  # 64 dimensions: the byte budget splits the grid
        assert len(_stacks(system, _points(spec, axis, grid, point), T, policy)) > 1
    serial, pooled = (run_sweep(system, spec, axis, grid, T=T, point=point, policy=policy,
                                workers=workers).columns for workers in (1, 2))
    assert list(serial) == list(pooled)
    for name in serial:
        npt.assert_array_equal(pooled[name], serial[name])


def test_a_64_dimensional_nu_sweep_equals_each_point_alone(proton_cluster):
    """The stacked BLAS products of a d = 64, 32-branch sweep give every
    point the bits of its own propagation."""
    spec = ProtocolSpec("dcs", omega_max=RABI)
    omega_n = nuclear_frequency(proton_cluster.nuclei[0], proton_cluster.field_z)
    grid = omega_n + angular_from_khz(20.0) * np.array([-1.0, 0.0, 1.0])
    T, policy = 5e-6, IntegrationPolicy()
    stacks = _stacks(proton_cluster, _points(spec, "nu", grid, None), T, policy)
    assert max(len(schedules) for _, _, _, schedules, _, _ in stacks) > 1
    columns = run_sweep(proton_cluster, spec, "nu", grid, T=T, policy=policy,
                        workers=1).columns
    for i, nu in enumerate(grid):
        alone = _trajectory(proton_cluster, spec, nu, [T], policy).observables
        assert list(alone) == list(columns)[:len(alone)]
        for name, series in alone.items():
            assert np.array_equal(columns[name][i:i + 1], series[-1:]), (name, i)


@pytest.mark.parametrize("switch_fraction, stack_bytes", [(0.0, None), (0.0, 600), (0.15, None)])
def test_a_reset_nu_grid_evolves_as_stacks_of_chains(monkeypatch, switch_fraction, stack_bytes):
    """The 41 points of a nu grid with resets share T and the reset times, so
    their 4 segments line up.  A square drive gives every point the same
    slice counts: one _evolve call of 41 x 4 points.  A ramped drive's
    shifted anchors wrap its ramps differently per nu, so its grid splits
    into stacks of equal counts, and a 600-byte budget splits the square
    grid too.  Every row equals the point's own run."""
    system = SpinSystem(field_z=0.35, nuclei=(
        Nucleus(angular_from_mhz(42.5775), angular_from_khz(0.5), angular_from_khz(0.5), "1H"),))
    spec = ProtocolSpec("dcs", "dnp_dcs", omega_max=RABI, reset_every=0.03e-3,
                        switch_fraction=switch_fraction)
    grid = angular_from_mhz(14.902375) + angular_from_mhz(0.2) * np.linspace(-1, 1, 41)
    T, policy = 0.1e-3, IntegrationPolicy()
    evolve, sizes = protocols._evolve, []

    def counted(hamiltonian_of, schedules, *args, **kwargs):
        sizes.append(len(schedules))
        return evolve(hamiltonian_of, schedules, *args, **kwargs)

    if stack_bytes is not None:
        monkeypatch.setattr(dynamics, "STACK_BYTES", stack_bytes)
    monkeypatch.setattr(protocols, "_evolve", counted)
    columns = run_sweep(system, spec, "nu", grid, T=T, policy=policy, workers=1).columns
    if switch_fraction == 0.0 and stack_bytes is None:
        assert sizes == [41 * 4]
    else:
        assert len(sizes) > 1 and sum(sizes) == 41 * 4
    for i, nu in enumerate(grid):
        alone = _trajectory(system, spec, nu, [T], policy).observables
        for name, series in alone.items():
            assert np.array_equal(columns[name][i:i + 1], series), (name, i)
