"""The benchmark still finds every dcspin name it uses.

perfbench/tracing.py wraps functions by name in dcspin's module namespaces
and raises KeyError when one is missing, so a refactor that drops one of
them breaks the traced benchmark run.  These tests run the tracer around
small sweeps, and read every ``<module>.<name>`` that perfbench's sources
take from dcspin.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from dcspin import (angular_from_mhz, build_dcs_waveform, initial_state, nuclear_frequency,
                    presets, propagate, protocols, waveform)
from dcspin.dynamics import IntegrationPolicy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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
    for span in ("dynamics.eigh", "dynamics.svd", "sweep.parallel_map",
                 "spincore.build_hamiltonian"):
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
    # three scalar calls, and fig1f sweeps its whole grid in one array call
    assert totals["waveform.coupling_factor"]["calls"] == 3 + 1
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


def test_a_square_drive_nu_sweep_decomposes_its_keys_once(monkeypatch, proton_cluster):
    """A 5-point nu sweep at d = 64 splits into one stack per one or two
    points, and all of them read their +-omega_max eigenpairs from one key
    table: one eigh, so the benchmark's eigh count is one per sweep."""
    tracing = _load_tracing(monkeypatch)
    omega_n = nuclear_frequency(proton_cluster.nuclei[0], proton_cluster.field_z)
    grid = omega_n + angular_from_mhz(0.05) * np.linspace(-1, 1, 5)
    rabi, T = angular_from_mhz(2.0), 1e-6
    spec = protocols.ProtocolSpec("dcs", omega_max=rabi)
    assert len(protocols._stacks(proton_cluster, [(spec, nu) for nu in grid], T,
                                 IntegrationPolicy())) >= 3
    with tracing.Tracer() as tracer:
        protocols.run_dcs_sensing(proton_cluster, rabi, grid, T, workers=1)
    assert tracer.totals()["dynamics.eigh"]["calls"] == 1
    assert tracing.leftover_wrappers() == []


def test_a_reset_run_over_several_calls_decomposes_its_keys_once(monkeypatch, proton_cluster):
    """At d = 64 a chain of five reset segments spans three _evolve calls;
    every call reads the one key table of the run."""
    tracing = _load_tracing(monkeypatch)
    evolve, sizes = protocols._evolve, []

    def counted(table, schedules, *args, **kwargs):
        sizes.append(len(schedules))
        return evolve(table, schedules, *args, **kwargs)

    monkeypatch.setattr(protocols, "_evolve", counted)
    omega_n = nuclear_frequency(proton_cluster.nuclei[0], proton_cluster.field_z)
    with tracing.Tracer() as tracer:
        protocols.run_dcs_dnp(proton_cluster, angular_from_mhz(2.0), omega_n,
                              np.linspace(0.0, 5e-6, 6), reset_every=1e-6)
    assert len(sizes) >= 3 and sum(sizes) == 5
    assert tracer.totals()["dynamics.eigh"]["calls"] == 1
    assert tracing.leftover_wrappers() == []


def _dcspin_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) of every name the source takes from dcspin: each
    ``from dcspin.m import name``, and each attribute ``m.name`` read off a
    dcspin module that ``from dcspin import m`` brought in."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dcspin"):
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                if node.module == "dcspin" and importlib.util.find_spec(target):
                    modules[alias.asname or alias.name] = target
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add((modules[node.value.id], node.attr))
    return names


def test_every_dcspin_name_the_benchmark_reads_exists():
    """A name the benchmark takes from dcspin that a change deletes fails
    here, not first in the benchmark run."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _dcspin_names(ast.parse(path.read_text(encoding="utf-8")))
    assert ("dcspin.protocols", "run_dcs_dnp") in used
    assert ("dcspin.dynamics", "propagate") in used
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []
