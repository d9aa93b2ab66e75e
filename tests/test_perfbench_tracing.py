"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py wraps functions by name in dcspin's module namespaces
and raises KeyError when one is missing, so a refactor that drops one of
them breaks the traced benchmark run.  This test runs the tracer around a
small sweep.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from dcspin import (angular_from_mhz, build_dcs_waveform, initial_state, nuclear_frequency,
                    presets, propagate, protocols, waveform)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_a_sensing_sweep_and_restores_everything(monkeypatch, carbon_system,
                                                              carbon_rabi):
    tracing = _load_tracing(monkeypatch)
    omega_n = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    grid = omega_n + 2 * np.pi * np.array([-1e3, 0.0, 1e3])
    with tracing.Tracer() as tracer:
        protocols.run_dcs_sensing(carbon_system, carbon_rabi, grid, 0.02e-3, workers=1)
    totals = tracer.totals()
    for span in ("dynamics.eigh", "sweep.parallel_map", "spincore.build_hamiltonian"):
        assert totals[span]["calls"] > 0, span
    # the three points evolve as one stack, without a per-point propagate
    assert "dynamics.propagate" not in totals
    assert totals["sweep.parallel_map"]["amount"] == 1
    assert tracing.leftover_wrappers() == []


def test_tracer_spans_coupling_factor_and_pieces(monkeypatch):
    """The coupling workload's layer metrics are read at these two names."""
    tracing = _load_tracing(monkeypatch)
    nu = angular_from_mhz(10.0)
    w = build_dcs_waveform(0.3 * nu, nu, switch_fraction=0.1)
    with tracing.Tracer() as tracer:
        for ratio in (0.95, 1.0, 1.05):
            waveform.coupling_factor(w, ratio * nu, 50 * w.period)
        presets.run_preset("fig1f")
    totals = tracer.totals()
    assert totals["waveform.coupling_factor"]["calls"] == 3 + presets.N_GRID
    assert totals["waveform.pieces"]["calls"] > 0
    assert tracing.leftover_wrappers() == []


def test_tracer_times_the_sampling_einsum(monkeypatch, carbon_system, carbon_rabi):
    """The N ladder's sampling share divides by the dynamics.einsum span, so
    sampling must call einsum through dynamics' numpy."""
    tracing = _load_tracing(monkeypatch)
    w = build_dcs_waveform(carbon_rabi,
                           nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z))
    with tracing.Tracer() as tracer:
        propagate(carbon_system, w, initial_state("sensing", carbon_system), 5e-6)
    assert tracer.totals()["dynamics.einsum"]["calls"] > 0
    assert tracing.leftover_wrappers() == []


def test_tracer_spans_a_reset_run_and_restores_everything(monkeypatch, carbon_system,
                                                          carbon_rabi):
    """A reset run evolves its segments as one chain, so one eigh, and
    never calls the protocols.propagate name the tracer still wraps."""
    tracing = _load_tracing(monkeypatch)
    omega_n = nuclear_frequency(carbon_system.nuclei[0], carbon_system.field_z)
    with tracing.Tracer() as tracer:
        protocols.run_dcs_dnp(carbon_system, carbon_rabi, omega_n, np.linspace(0.0, 0.1e-3, 11),
                              reset_every=0.03e-3)
    totals = tracer.totals()
    assert totals["dynamics.eigh"]["calls"] == 1
    assert "dynamics.propagate" not in totals
    assert tracing.leftover_wrappers() == []
