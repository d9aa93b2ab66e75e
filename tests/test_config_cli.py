import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcspin import (
    ConfigError,
    angular_from_khz,
    angular_from_mhz,
    load_config,
    run_sweep,
)
from dcspin.cli import main, run_experiment
from dcspin.config import SWEEP_AXES, OutputOptions, parse_config
from dcspin.dynamics import IntegrationPolicy
from dcspin.presets import (
    CARBON_RESONANCE,
    DELAY_FIG3,
    FIG1F_PERIODS,
    FIG1F_RATIO,
    PULSE_LEN_FIG3,
    RABI_FIG2,
    RABI_FIG3,
    SENSING_TIME_FIG2,
    TOTAL_TIME_FIG3,
    carbon13_system,
    proton_system,
)
from dcspin.protocols import TABLE_NAMES, ProtocolSpec, recorded_columns
from dcspin.sweep import parallel_map

EXPLICIT = {
    "system": {
        "field_tesla": 1.0,
        "nuclei": [{"isotope": "13C", "hyperfine_x_khz": 13.42,
                    "hyperfine_z_khz": 17.09}],
    },
    "protocol": {"kind": "dcs", "rabi_mhz": 1.0},
    "sweep": {"axis": "nu_mhz", "start": 10.70, "stop": 10.73, "points": 7,
              "total_time_ms": 0.05},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_explicit_config_resolves_defaults(tmp_path):
    config = load_config(write_config(tmp_path, EXPLICIT))
    assert config.preset is None
    assert config.system.dimension == 4
    assert config.system.nuclei[0].hyperfine_x == pytest.approx(angular_from_khz(13.42))
    assert config.protocol.omega_max == pytest.approx(angular_from_mhz(1.0))
    assert config.protocol.amplitude_error == 0.0
    assert config.protocol.t_initial == "symmetric"
    assert config.policy.ramp_substeps == 64  # defaults applied
    assert config.output.polarization_convention == "doubled"
    assert config.sweep.points == 7


def test_protocol_and_output_defaults_come_from_their_dataclasses():
    config = parse_config({**EXPLICIT, "output": {}})
    assert config.protocol == ProtocolSpec("dcs", omega_max=angular_from_mhz(1.0))
    assert config.output == OutputOptions()


def test_integration_block_defaults_come_from_policy(tmp_path):
    data = dict(EXPLICIT, integration={"tolerance": 1e-8})
    policy = load_config(write_config(tmp_path, data)).policy
    assert policy == IntegrationPolicy(tolerance=1e-8)
    assert policy.ramp_substeps == 64


def test_annotation_keys_are_ignored(tmp_path):
    data = dict(EXPLICIT)
    data["_comment"] = "annotated example"
    data["system"] = dict(EXPLICIT["system"], _note="one weakly coupled nucleus")
    load_config(write_config(tmp_path, data))


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "preset": fig2a\n}')
    with pytest.raises(ConfigError, match=r"line 2, column"):
        load_config(path)


def test_schema_violation_reports_field_path():
    bad = {k: dict(v) if isinstance(v, dict) else v for k, v in EXPLICIT.items()}
    bad["protocol"] = {"kind": "dcs"}
    with pytest.raises(ConfigError, match=r"protocol\.rabi_mhz"):
        parse_config(bad)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config({"preset": "fig9z"})


def test_preset_and_explicit_blocks_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        parse_config({"preset": "fig2a", "system": EXPLICIT["system"]})


def test_sweep_needs_two_points():
    bad = dict(EXPLICIT)
    bad["sweep"] = dict(EXPLICIT["sweep"], points=1)
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config(bad)


def test_axis_protocol_combination_checked():
    bad = dict(EXPLICIT)
    bad["protocol"] = {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 56,
                       "delay_ns": 28}
    with pytest.raises(ConfigError, match="nu_mhz applies"):
        parse_config(bad)


def test_unknown_field_rejected_with_path():
    bad = dict(EXPLICIT)
    bad["sweep"] = dict(EXPLICIT["sweep"], extra=1)
    with pytest.raises(ConfigError, match=r"sweep: unknown fields \['extra'\]"):
        parse_config(bad)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


# ---------------------------------------------------------------------------
# preset parameter expansion (the executable record of each scenario)
# ---------------------------------------------------------------------------

def test_fig2_preset_parameters():
    system = carbon13_system()
    assert RABI_FIG2 == pytest.approx(angular_from_mhz(1.0))
    assert SENSING_TIME_FIG2 == 0.308e-3
    assert system.field_z == 1.0
    assert system.nuclei[0].hyperfine_x == pytest.approx(angular_from_khz(13.42))
    assert system.nuclei[0].hyperfine_z == pytest.approx(angular_from_khz(17.09))
    omega_n = (system.nuclei[0].gyromagnetic_ratio * system.field_z
               + system.nuclei[0].hyperfine_z / 2)
    assert omega_n == pytest.approx(CARBON_RESONANCE, rel=1e-15)


def test_fig1f_preset_parameters():
    assert FIG1F_RATIO == 0.3
    assert FIG1F_PERIODS == 50


def test_fig3_preset_parameters():
    system = proton_system()
    assert system.field_z == 0.35
    assert RABI_FIG3 == pytest.approx(angular_from_mhz(2.0))
    assert PULSE_LEN_FIG3 == 56e-9
    assert DELAY_FIG3 == 28e-9
    assert TOTAL_TIME_FIG3 == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# run_experiment and output files
# ---------------------------------------------------------------------------

def test_run_experiment_explicit_writes_csv_and_manifest(tmp_path):
    config = load_config(write_config(tmp_path, EXPLICIT))
    paths = run_experiment(config, out_dir=tmp_path / "out", workers=1)
    csv_path = tmp_path / "out" / "dcs_sensing.csv"
    manifest_path = tmp_path / "out" / "manifest.json"
    assert csv_path in paths and manifest_path in paths
    lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "nu_mhz"
    assert "sigma_z" in header and "nuclear_polarization" in header
    assert len(lines) == 1 + 7  # header + one row per sweep point
    first_row = lines[1].split(",")
    assert float(first_row[0]) == 10.70  # axis in the config's units, exact

    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"] == EXPLICIT  # unit round-trip, verbatim echo
    assert "wall_time_s" in manifest
    assert manifest["outputs"] == ["dcs_sensing.csv"]


def test_the_manifest_records_the_resolved_worker_count(tmp_path):
    """With neither --workers nor output.workers, the sweep runs on the CPUs
    this process may use, and the manifest says how many."""
    config = load_config(write_config(tmp_path, EXPLICIT))
    assert config.output.workers is None
    run_experiment(config, out_dir=tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["workers"] == len(os.sched_getaffinity(0))
    assert isinstance(manifest["workers"], int)


def test_run_experiment_deterministic_output(tmp_path):
    config = load_config(write_config(tmp_path, EXPLICIT))
    run_experiment(config, out_dir=tmp_path / "a", workers=1)
    run_experiment(config, out_dir=tmp_path / "b", workers=2)
    a = (tmp_path / "a" / "dcs_sensing.csv").read_bytes()
    b = (tmp_path / "b" / "dcs_sensing.csv").read_bytes()
    assert a == b


def test_polarization_convention_bare(tmp_path):
    doubled = load_config(write_config(tmp_path, EXPLICIT, "c1.json"))
    bare_cfg = dict(EXPLICIT)
    bare_cfg["output"] = {"polarization_convention": "bare"}
    bare = load_config(write_config(tmp_path, bare_cfg, "c2.json"))
    run_experiment(doubled, out_dir=tmp_path / "d", workers=1)
    run_experiment(bare, out_dir=tmp_path / "e", workers=1)

    def column(path, name):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        idx = lines[0].split(",").index(name)
        return np.array([float(l.split(",")[idx]) for l in lines[1:]])

    ratio = column(tmp_path / "d" / "dcs_sensing.csv", "nuclear_polarization") / \
        column(tmp_path / "e" / "dcs_sensing.csv", "nuclear_polarization")
    np.testing.assert_allclose(ratio, 2.0, rtol=1e-12)


def test_time_sweep_not_starting_at_zero(tmp_path):
    data = {
        "system": {"field_tesla": 0.35,
                   "nuclei": [{"isotope": "1H", "hyperfine_x_khz": 0.5,
                               "hyperfine_z_khz": 0.5}]},
        "protocol": {"kind": "dcs", "rabi_mhz": 2.0},
        "sweep": {"axis": "total_time_ms", "start": 0.1, "stop": 0.5,
                  "points": 5, "nu_mhz": 14.902375},
    }
    config = load_config(write_config(tmp_path, data))
    run_experiment(config, out_dir=tmp_path / "out", workers=1)
    lines = [l for l in (tmp_path / "out" / "dcs_dnp.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 1 + 5
    assert lines[1].split(",")[0] == "0.1"


def test_amplitude_error_axis(tmp_path):
    data = {
        "system": {"field_tesla": 0.35,
                   "nuclei": [{"isotope": "1H", "hyperfine_x_khz": 0.5,
                               "hyperfine_z_khz": 0.5}]},
        "protocol": {"kind": "dcs", "rabi_mhz": 2.0},
        "sweep": {"axis": "amplitude_error", "start": 0.0, "stop": 0.01,
                  "points": 3, "total_time_ms": 1.0, "nu_mhz": 14.902375},
    }
    config = load_config(write_config(tmp_path, data))
    run_experiment(config, out_dir=tmp_path / "out", workers=1)
    lines = [l for l in (tmp_path / "out" / "amplitude_error_sweep.csv")
             .read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "amplitude_error"
    pol = [float(l.split(",")[header.index("nuclear_polarization")])
           for l in lines[1:]]
    assert pol[0] > pol[-1]  # the error detunes the drive and kills transfer


def test_topdnp_auto_detuning(tmp_path):
    data = {
        "system": {"field_tesla": 0.35,
                   "nuclei": [{"isotope": "1H", "hyperfine_x_khz": 0.5,
                               "hyperfine_z_khz": 0.5}]},
        "protocol": {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 56,
                     "delay_ns": 28},
        "sweep": {"axis": "total_time_ms", "start": 0.0, "stop": 0.05,
                  "points": 3, "detuning_mhz": "auto"},
    }
    config = load_config(write_config(tmp_path, data))
    paths = run_experiment(config, out_dir=tmp_path / "out", workers=1)
    assert (tmp_path / "out" / "topdnp.csv") in paths


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

def test_fig1f_csv_columns_and_peak(tmp_path):
    from dcspin.cli import main as cli_main
    assert cli_main(["preset", "fig1f", "--out", str(tmp_path), "--workers", "1"]) == 0
    lines = [l for l in (tmp_path / "coupling_factor.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "omega_n_over_nu,abs_g,re_g,im_g"
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    assert data.shape[0] == 301
    peak_ratio = data[np.argmax(data[:, 1]), 0]
    step = data[1, 0] - data[0, 0]
    assert abs(peak_ratio - 1.0) <= step * (1 + 1e-9)  # within one grid step


def test_fig4b_writes_two_tables(tmp_path):
    from dcspin.cli import main as cli_main
    assert cli_main(["preset", "fig4b", "--out", str(tmp_path), "--workers", "1"]) == 0
    assert (tmp_path / "polarization.csv").exists()
    assert (tmp_path / "polarization_error_1pct.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["polarization.csv",
                                           "polarization_error_1pct.csv"]


@pytest.mark.parametrize("name", sorted(__import__("dcspin").PRESETS))
def test_every_preset_verifies(name):
    from dcspin import verify_preset
    checks = verify_preset(name, workers=1)
    assert checks, f"preset {name} has no checks"
    failed = [c for c in checks if not c.passed]
    assert not failed, [f"{c.name}: {c.detail}" for c in failed]


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1f", "fig2a", "fig4b"):
        assert name in out


def test_cli_preset_and_run(tmp_path, capsys):
    assert main(["preset", "fig1f", "--out", str(tmp_path / "p"), "--workers", "1"]) == 0
    assert (tmp_path / "p" / "coupling_factor.csv").exists()
    config_path = write_config(tmp_path, {"preset": "fig1f"})
    assert main(["run", str(config_path), "--out", str(tmp_path / "r"),
                 "--workers", "1"]) == 0
    assert (tmp_path / "r" / "coupling_factor.csv").read_bytes() == \
        (tmp_path / "p" / "coupling_factor.csv").read_bytes()


def test_cli_verify_passes(capsys):
    assert main(["verify", "fig1f", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["config"] == str(tmp_path / "missing.json")
    for command in ("preset", "verify"):
        assert main([command, "not-a-preset"]) == 2
        assert json.loads(capsys.readouterr().err.strip())["preset"] == "not-a-preset"


def _one_record(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_cli_rejects_a_config_path_that_is_a_directory(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    record = _one_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{tmp_path}: cannot read")


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(EXPLICIT).encode("utf-16-le"))
    assert main(["run", str(path)]) == 2
    record = _one_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{path}: cannot read: 'utf-8' codec")


_SHIPPED = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace('"stop": 10.83', '"stop": 1' + "0" * 5000),
     ": JSON parse error: Exceeds the limit (4300 digits)"),
    (lambda text: text[:-1] + ', "_note": ' + "[" * 100_000 + "]" * 100_000 + "}",
     ": JSON parse error: maximum recursion depth exceeded"),
    (lambda text: text.replace('"points": 3', '"points": 3, "x": ' + "[" * 200 + "]" * 200),
     # the root object, sweep, x and 98 arrays in x hold this value
     ".sweep.x" + "[0]" * 99 + ": values nested more than 100 deep"),
    (lambda text: text[:-1] + ', "sweep": ' + json.dumps(json.loads(text)["sweep"]) + "}",
     ".sweep: key given more than once"),
    (lambda text: text.replace('"points": 3', '"points": 3, "points": 5'),
     ".sweep.points: key given more than once"),
    (lambda text: text.replace('"isotope": "13C"', '"isotope": "13C", "isotope": "1H"'),
     ".system.nuclei[0].isotope: key given more than once"),
], ids=["integer-past-the-digit-limit", "nested-100000-deep", "nested-200-deep-in-a-field",
        "top-level-sweep-twice", "sweep-points-twice", "nucleus-isotope-twice"])
def test_cli_rejects_json_text_no_config_can_hold(tmp_path, capsys, edit, message):
    """Decoding errors and keys given twice (json.loads would keep the last
    value) exit 2 with one record, naming the field where there is one."""
    data = json.loads(SENSING_SPECTRUM.read_text())
    data["sweep"]["points"] = 3
    text = edit(json.dumps(data))
    assert text != json.dumps(data)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    record = _one_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{path}{message}")


@pytest.mark.parametrize("path", sorted(_SHIPPED.glob("configs/*.json"))
                         + sorted(_SHIPPED.glob("perfbench/inputs/*.json")),
                         ids=lambda path: path.name)
def test_every_shipped_config_parses(path):
    load_config(path)


@pytest.mark.parametrize("argv, error", [
    (["run", "{config}", "--out", "{file}"], "FileExistsError"),
    (["preset", "fig1f", "--out", "{file}/x"], "NotADirectoryError"),
], ids=["run-out-is-a-file", "preset-out-under-a-file"])
def test_cli_reports_an_output_directory_it_cannot_make(tmp_path, capsys, argv, error):
    config, file = write_config(tmp_path, EXPLICIT), tmp_path / "file"
    file.write_text("")
    assert main([arg.format(config=config, file=file) for arg in argv]
                + ["--workers", "1"]) == 2
    record = _one_record(capsys)
    assert record["error"] == error and str(file) in record["message"]


@pytest.mark.parametrize("argv", [
    ["run", "{config}", "--out", "{file}"],
    ["preset", "fig1f", "--out", "{file}/x"],
], ids=["run-out-is-a-file", "preset-out-under-a-file"])
def test_cli_makes_the_output_directory_before_the_run(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args):
        raise AssertionError("the run started before the output directory was made")

    monkeypatch.setattr("dcspin.cli.run_preset", no_run)
    monkeypatch.setattr("dcspin.cli._execute_explicit", no_run)
    config, file = write_config(tmp_path, EXPLICIT), tmp_path / "file"
    file.write_text("")
    assert main([arg.format(config=config, file=file) for arg in argv]) == 2
    assert str(file) in _one_record(capsys)["message"]


def test_an_interval_check_failure_names_its_sample_span(tmp_path, capsys):
    """With a check after every slice and a tolerance below rounding, the
    first 0.5 us span fails its interval check; the record names that span."""
    data = json.loads((Path(__file__).parents[1] / "configs"
                       / "explicit_dnp_buildup.json").read_text())
    data["sweep"].update(stop=0.001, points=3)
    data["integration"] = {"unitarity_check_interval": 1, "tolerance": 1e-300}
    assert main(["run", str(write_config(tmp_path, data)), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 3
    record = _one_record(capsys)
    assert record["error"] == "PropagationError"
    assert record["message"].startswith("state drift ")
    assert " between t = 0.000000e+00 and t = 5.000000e-07 at point 0 after " \
        in record["message"]


#: five 1H nuclei (dimension 64): a 5-point nu grid needs several stacks, so
#: it reaches the process pool
CLUSTER_SPECTRUM = {
    "system": {"field_tesla": 0.35, "nuclei": [
        {"isotope": "1H", "hyperfine_x_khz": 0.5 + j, "hyperfine_z_khz": 0.5} for j in range(5)]},
    "protocol": {"kind": "dcs", "rabi_mhz": 2.0},
    "sweep": {"axis": "nu_mhz", "start": 14.8, "stop": 15.0, "points": 5,
              "total_time_ms": 0.001},
}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # an argparse usage error
        return exc.code


@pytest.mark.parametrize("argv, names", [
    (["frobnicate"], "frobnicate"),
    (["run", "x.json", "--workers", "two"], "--workers"),
])
def test_cli_usage_errors_leave_one_json_record(capsys, argv, names):
    assert _exit_code(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError"
    assert names in record["message"]


def test_cli_help_and_version_print_and_exit_zero(capsys):
    assert _exit_code(["--version"]) == 0
    assert capsys.readouterr().out.startswith("dcspin ")
    assert _exit_code(["run", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dcspin run") and captured.err == ""


@pytest.mark.parametrize("block, key", [
    ("protocol", "rabi_mhz"), ("integration", "ramp_substeps"), ("output", "workers"),
])
def test_cli_rejects_a_json_boolean_where_a_number_is_expected(tmp_path, capsys, block, key):
    data = json.loads(json.dumps(EXPLICIT))
    data.setdefault(block, {})[key] = True
    assert main(["run", str(write_config(tmp_path, data)), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert f"{block}.{key}: expected" in record["message"]


def test_fast_forward_still_takes_a_boolean():
    data = dict(EXPLICIT, integration={"fast_forward": False})
    assert parse_config(data).policy.fast_forward is False


@pytest.mark.parametrize("command, output", [
    (["run", "{config}", "--workers", "0"], {}),
    (["run", "{config}", "--workers", "-2"], {}),
    (["run", "{config}"], {"output": {"workers": 0}}),
    (["preset", "fig1f", "--workers", "0"], {}),
    (["verify", "fig1f", "--workers", "-2"], {}),
], ids=["run-0", "run-negative", "config-0", "preset-0", "verify-negative"])
def test_cli_rejects_a_worker_count_below_one(tmp_path, capsys, command, output):
    config = write_config(tmp_path, {**CLUSTER_SPECTRUM, **output})
    argv = [str(config) if arg == "{config}" else arg for arg in command]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if output:
        assert "output.workers" in json.loads(err.strip())["message"]
    else:
        assert "--workers" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("items", [[], [1], [1, 2, 3]])
@pytest.mark.parametrize("workers", [0, -2])
def test_parallel_map_rejects_a_worker_count_below_one(items, workers):
    with pytest.raises(ValueError, match="workers"):
        parallel_map(abs, items, workers)


def _cli_config_error(tmp_path, capsys, data) -> dict:
    assert main(["run", str(write_config(tmp_path, data)),
                 "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    return record


def test_cli_rejects_auto_detuning_without_nuclei(tmp_path, capsys):
    data = {
        "system": {"field_tesla": 0.35, "nuclei": []},
        "protocol": {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 56,
                     "delay_ns": 28},
        "sweep": {"axis": "total_time_ms", "start": 0.0, "stop": 0.05,
                  "points": 3, "detuning_mhz": "auto"},
    }
    record = _cli_config_error(tmp_path, capsys, data)
    assert "sweep.detuning_mhz" in record["message"]


def test_cli_rejects_descending_time_sweep(tmp_path, capsys):
    data = dict(EXPLICIT, sweep={"axis": "total_time_ms", "start": 0.05, "stop": 0.0,
                                 "points": 3, "nu_mhz": 10.713})
    record = _cli_config_error(tmp_path, capsys, data)
    assert "sweep.stop" in record["message"]


SENSING_SPECTRUM = Path(__file__).resolve().parents[1] / "configs" / \
    "explicit_sensing_spectrum.json"


@pytest.mark.parametrize("block,key,value,path", [
    ("sweep", "total_time_ms", float("nan"), "sweep.total_time_ms:"),
    ("sweep", "total_time_ms", 0, "sweep.total_time_ms:"),
    ("protocol", "t_initial", float("nan"), "protocol.t_initial:"),
    ("integration", "unitarity_check_interval", 0, "integration: unitarity_check_interval"),
    ("system", "field_tesla", float("nan"), "system.field_tesla:"),
    # 1e308 kHz is finite, but not in rad/s
    ("system", "nuclei", [{"isotope": "13C", "hyperfine_x_khz": 1e308, "hyperfine_z_khz": 17.09}],
     "system.nuclei[0]:"),
    # JSON integers too large for a float
    ("sweep", "stop", 10 ** 400, "sweep.stop:"),
    ("system", "nuclei", [{"isotope": "13C", "hyperfine_x_khz": 13.42,
                           "hyperfine_z_khz": -10 ** 400}], "system.nuclei[0].hyperfine_z_khz:"),
], ids=["nan-time", "zero-time", "nan-t-initial", "zero-check-interval", "nan-field",
        "overflowing-hyperfine", "huge-int-stop", "huge-int-hyperfine"])
def test_cli_rejects_values_the_propagator_cannot_take(tmp_path, capsys, block, key, value,
                                                       path):
    data = json.loads(SENSING_SPECTRUM.read_text())
    data["sweep"]["points"] = 3
    data[block][key] = value
    record = _cli_config_error(tmp_path, capsys, data)
    assert path in record["message"]


@pytest.mark.parametrize("points", [10 ** 6 + 1, 10 ** 15, 2 ** 63])
def test_cli_rejects_more_sweep_points_than_max_points(tmp_path, capsys, points):
    """A grid of 10**15 points could not be allocated, and one of 2**63 ended in
    an IndexError: each exits 2 before its grid is built."""
    data = json.loads(SENSING_SPECTRUM.read_text())
    data["sweep"]["points"] = points
    record = _cli_config_error(tmp_path, capsys, data)
    assert record["message"].endswith(".sweep.points: at most 1000000 sweep points")


def test_integer_protocol_fields_are_floats(tmp_path):
    """JSON integers in the protocol's float fields become floats: an
    amplitude error of 10**20, past int64, made the drive arrays hold Python
    objects and the finite check raise a TypeError."""
    fields = ("amplitude_error", "switch_fraction", "t_initial")
    config = parse_config({**EXPLICIT, "protocol": {**EXPLICIT["protocol"], **dict(
        zip(fields, (10 ** 20, 0, 0)))}})
    assert [type(getattr(config.protocol, field)) for field in fields] == [float] * 3
    assert run_experiment(config, out_dir=tmp_path, workers=1)


@pytest.mark.parametrize("change,path", [
    ({"max_step_ns": 0.005}, "integration.max_step_ns:"),
    ({"ramp_substeps": 20000}, "integration.ramp_substeps:"),
    ({"ramp_substeps": 6000}, "integration.ramp_substeps:"),
], ids=["max-step", "ramp-substeps", "ramp-substeps-summed"])
def test_cli_rejects_slice_counts_that_would_fill_memory(tmp_path, capsys, change, path):
    """About 18,800 slices of 0.005 ns in a 94 ns period, or 20,000 (or
    twice 6,000) ramp midpoints, stop before any slice list is built."""
    data = json.loads(SENSING_SPECTRUM.read_text())
    data["sweep"]["points"] = 3
    if "ramp_substeps" in change:
        data["protocol"]["switch_fraction"] = 0.1
    data["integration"].update(change)
    record = _cli_config_error(tmp_path, capsys, data)
    assert path in record["message"] and "10000" in record["message"]


BUILDUP = Path(__file__).resolve().parents[1] / "configs" / "explicit_dnp_buildup.json"


def test_cli_rejects_more_resets_than_max_slices_before_the_run(tmp_path, capsys):
    """A reset every 1e-9 ms over 1 ms would be 10^9 resets; the config is
    rejected at parse time, before any reset time is listed."""
    data = json.loads(BUILDUP.read_text())
    data["protocol"]["reset_every_ms"] = 1e-9
    record = _cli_config_error(tmp_path, capsys, data)
    assert "protocol.reset_every_ms:" in record["message"] and "10000" in record["message"]
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("example, sweep, field", [
    (BUILDUP, {"stop": 1e300}, "sweep.stop:"),
    (SENSING_SPECTRUM, {"points": 3, "total_time_ms": 1e300}, "sweep.total_time_ms:"),
    (dict(EXPLICIT, protocol={"kind": "constant", "omega_e_mhz": 1.0},
          sweep={"axis": "total_time_ms", "start": 0.0, "stop": 1.0, "points": 3}),
     {"stop": 1e300}, "sweep.stop:"),
], ids=["time-sweep-stop", "spectrum-total-time", "constant-time-sweep-stop"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_rejects_a_horizon_float64_cannot_place(tmp_path, capsys, example, sweep, field,
                                                    workers):
    """10^297 s is about 10^304 periods of a switching drive, or of the
    fastest eigenphase of a constant one, past 2**53, where float64 times no
    longer resolve a period: exit 2 naming the field that sets the horizon,
    with no warning and no CSV."""
    data = json.loads(example.read_text() if isinstance(example, Path) else json.dumps(example))
    data["sweep"].update(sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", str(write_config(tmp_path, data)), "--out", str(tmp_path / "out"),
                     "--workers", workers])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and field in record["message"], record
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("measured, listed", [([], None), (["sigma_z", "I_z[2]"], "['I_z[2]']")],
                         ids=["empty", "unknown"])
def test_cli_checks_measured_before_any_propagation(tmp_path, capsys, monkeypatch, measured,
                                                    listed):
    """An empty or unknown measured list exits 2 at parse time: run_sweep is never called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr("dcspin.cli.run_sweep", forbidden)
    data = dict(EXPLICIT, protocol=dict(EXPLICIT["protocol"], measured=measured))
    record = _cli_config_error(tmp_path, capsys, data)
    assert "protocol.measured:" in record["message"]
    if listed:
        assert f"unknown columns {listed}" in record["message"]


def test_measured_names_the_columns_run_sweep_records(tmp_path):
    """Every recorded column is accepted, and the CSV keeps the named ones in order."""
    system = load_config(write_config(tmp_path, EXPLICIT)).system
    recorded = recorded_columns(system)
    assert recorded == ["sigma_z", "I_z[1]", "nuclear_polarization"]
    data = dict(EXPLICIT, protocol=dict(EXPLICIT["protocol"], measured=recorded[::-1]))
    run_experiment(load_config(write_config(tmp_path, data)), out_dir=tmp_path / "m", workers=1)
    header = [line for line in (tmp_path / "m" / "dcs_sensing.csv").read_text().splitlines()
              if not line.startswith("#")][0]
    assert header.split(",") == ["nu_mhz", *recorded[::-1]]


def test_cli_verification_failure_exit_code(monkeypatch, capsys):
    from dcspin import presets as presets_module
    failing = presets_module.Check("forced", "none", False, "forced failure")
    monkeypatch.setitem(
        presets_module.PRESETS, "fig1f",
        presets_module.Preset("fig1f", "d", lambda workers=None: [],
                              lambda results: [failing]))
    assert main(["verify", "fig1f"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    from dcspin import presets as presets_module
    from dcspin.dynamics import PropagationError

    def exploding(workers=None):
        raise PropagationError("state drift 1.0 beyond tolerance")

    monkeypatch.setitem(
        presets_module.PRESETS, "fig1f",
        presets_module.Preset("fig1f", "d", exploding, lambda results: []))
    assert main(["preset", "fig1f", "--out", "/tmp/dcspin-x"]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "PropagationError"
    assert record["preset"] == "fig1f"


def test_cli_broken_worker_pool_exit_code(monkeypatch, tmp_path, capsys):
    from concurrent.futures.process import BrokenProcessPool

    from dcspin import presets as presets_module

    def broken(workers=None):
        raise BrokenProcessPool("a worker was killed")

    monkeypatch.setitem(
        presets_module.PRESETS, "fig1f",
        presets_module.Preset("fig1f", "d", broken, lambda results: []))
    assert main(["preset", "fig1f", "--out", str(tmp_path)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "BrokenProcessPool"
    assert record["preset"] == "fig1f"


# ---------------------------------------------------------------------------
# every (kind, axis) pair: the CLI equals run_sweep
# ---------------------------------------------------------------------------

PROTON = {"field_tesla": 0.35,
          "nuclei": [{"isotope": "1H", "hyperfine_x_khz": 0.5, "hyperfine_z_khz": 0.5}]}
PAIR_PROTOCOLS = {
    "dcs": {"kind": "dcs", "rabi_mhz": 2.0, "amplitude_error": 0.003},
    "pm": {"kind": "pm", "omega0_mhz": 1.0, "omega1_mhz": 1.0, "amplitude_error": 0.003},
    "topdnp": {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 56, "delay_ns": 28,
               "amplitude_error": 0.003},
    "constant": {"kind": "constant", "omega_e_mhz": 14.9, "amplitude_error": 0.003},
}
PAIR_SWEEPS = {
    "nu_mhz": {"start": 14.88, "stop": 14.92, "points": 5, "total_time_ms": 0.05},
    "detuning_mhz": {"start": 2.64, "stop": 2.74, "points": 5, "total_time_ms": 0.05},
    "total_time_ms": {"start": 0.0, "stop": 0.05, "points": 5},
    "amplitude_error": {"start": -0.01, "stop": 0.01, "points": 5, "total_time_ms": 0.05},
}
PAIR_POINTS = {"dcs": {"nu_mhz": 14.902375}, "pm": {"nu_mhz": 14.902375},
               "topdnp": {"detuning_mhz": 2.69}, "constant": {}}
PAIRS = [("dcs", "nu_mhz", "dcs_sensing"), ("dcs", "total_time_ms", "dcs_dnp"),
         ("pm", "nu_mhz", "pm"), ("pm", "total_time_ms", "pm"),
         ("topdnp", "detuning_mhz", "topdnp"), ("topdnp", "total_time_ms", "topdnp"),
         ("constant", "total_time_ms", "constant")]
PAIRS += [(kind, "amplitude_error", "amplitude_error_sweep") for kind in PAIR_PROTOCOLS]


def _library_result(config):
    """The same run through run_sweep, with this test's own unit conversion
    and its own operating point: nu for dcs and pm, the detuning for topdnp."""
    system, spec, plan = config.system, config.protocol, config.sweep
    T = None if plan.total_time_ms is None else plan.total_time_ms * 1e-3
    axis, grid = {"nu_mhz": ("nu", [angular_from_mhz(v) for v in plan.grid_display]),
                  "detuning_mhz": ("detuning", [angular_from_mhz(v) for v in plan.grid_display]),
                  "total_time_ms": ("T", plan.grid_display * 1e-3),
                  "amplitude_error": ("amplitude_error", plan.grid_display)}[plan.axis]
    fixed = {"dcs": plan.nu_mhz, "pm": plan.nu_mhz, "topdnp": plan.detuning_mhz}.get(spec.kind)
    point = None if fixed is None else angular_from_mhz(fixed)
    return run_sweep(system, spec, axis, grid, T=T, point=point, policy=config.policy)


def _csv_columns(path) -> dict[str, np.ndarray]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


@pytest.mark.parametrize("kind,axis,table", PAIRS)
def test_every_kind_axis_pair_runs_and_matches_the_library(tmp_path, kind, axis, table):
    sweep = dict(PAIR_SWEEPS[axis], axis=axis)
    if axis in ("total_time_ms", "amplitude_error"):
        sweep.update(PAIR_POINTS[kind])
    path = write_config(tmp_path, {"system": PROTON, "protocol": PAIR_PROTOCOLS[kind],
                                   "sweep": sweep})
    library = _library_result(load_config(path))
    assert library.name == table
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert main(["run", str(path), "--out", str(out), "--workers", workers]) == 0
        columns = _csv_columns(out / f"{table}.csv")
        assert list(columns)[1:] == list(library.columns)
        for name, values in library.columns.items():
            assert np.array_equal(columns[name], values), name


@pytest.mark.parametrize("axis", SWEEP_AXES)
@pytest.mark.parametrize("kind", PAIR_PROTOCOLS)
def test_config_accepts_exactly_the_sweeps_run_sweep_accepts(kind, axis):
    swept = SWEEP_AXES[axis][0]
    sweep = dict(PAIR_SWEEPS[axis], axis=axis)
    if axis in ("total_time_ms", "amplitude_error"):
        sweep.update(PAIR_POINTS[kind])
    data = {"system": PROTON, "protocol": PAIR_PROTOCOLS[kind], "sweep": sweep}
    if (kind, swept) in TABLE_NAMES:
        assert parse_config(data).sweep.axis == axis
        return
    with pytest.raises(ConfigError, match=f"sweep.axis: {axis} applies"):
        parse_config(data)
    config = parse_config(dict(data, sweep=dict(PAIR_SWEEPS["total_time_ms"],
                                                axis="total_time_ms", **PAIR_POINTS[kind])))
    with pytest.raises(ValueError, match="does not apply"):
        run_sweep(config.system, config.protocol, swept, [1.0], T=1e-6, point=1.0)


def test_the_pair_runs_cover_every_sweep_run_sweep_accepts():
    assert {(kind, SWEEP_AXES[axis][0]): table for kind, axis, table in PAIRS} == TABLE_NAMES


# ---------------------------------------------------------------------------
# configs the drives cannot run, and dcs settings that used to be ignored
# ---------------------------------------------------------------------------

DCS_TIME = {"axis": "total_time_ms", "start": 0.0, "stop": 0.05, "points": 3}
PM = {"kind": "pm", "omega0_mhz": 11.0, "omega1_mhz": 1.0}
TOPDNP = {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 56, "delay_ns": 28}
AMPLITUDE_ERRORS = {"axis": "amplitude_error", "start": -1.5, "stop": 0.0, "nu_mhz": 10.7}


@pytest.mark.parametrize("protocol,sweep,field", [
    # a dcs drive needs every nu above rabi_mhz
    ({}, {"start": 0.5, "stop": 10.73}, "sweep.start"),
    ({}, dict(DCS_TIME, nu_mhz=1.0), "sweep.nu_mhz"),
    # a pm drive needs every nu above omega0_mhz
    (PM, {"start": 10.70, "stop": 10.73}, "sweep.start"),
    (PM, {"start": 11.5, "stop": 10.9}, "sweep.stop"),
    (PM, dict(DCS_TIME, nu_mhz=10.713), "sweep.nu_mhz"),
    ({"reset_every_ms": 0}, {}, "protocol"),
    ({"rabi_mhz": 0.0}, {}, "protocol"),
    ({"switch_fraction": 1.0}, {}, "protocol"),
    ({"kind": "pm", "omega0_mhz": 1.0, "omega1_mhz": -1.0}, {}, "protocol"),
    # an amplitude-error grid must stay above -1, on every drive it applies to
    ({}, AMPLITUDE_ERRORS, "sweep.start"),
    (PM, dict(AMPLITUDE_ERRORS, nu_mhz=11.5), "sweep.start"),
    (TOPDNP, {"axis": "amplitude_error", "start": -1.5, "stop": 0.0, "detuning_mhz": 2.69},
     "sweep.start"),
    # every drive amplitude, converted and scaled by 1 + amplitude_error, must be finite
    ({}, dict(AMPLITUDE_ERRORS, start=0.0, stop=1e308), "sweep.stop"),
    ({"amplitude_error": 1e308}, {}, "protocol"),
    ({"kind": "pm", "omega0_mhz": 1.0, "omega1_mhz": 1e308}, {}, "protocol"),
    ({"kind": "constant", "omega_e_mhz": 1e308}, DCS_TIME, "protocol"),
    (dict(TOPDNP, rabi_mhz=1e308), dict(DCS_TIME, detuning_mhz=2.69), "protocol"),
    # nu and the detuning, converted to rad/s, must be finite
    ({}, dict(DCS_TIME, nu_mhz=1e308), "sweep.nu_mhz"),
    ({}, {"stop": 1e308}, "sweep.stop"),
    (TOPDNP, {"axis": "detuning_mhz", "start": 2.64, "stop": 1e308}, "sweep.stop"),
    (TOPDNP, {"axis": "detuning_mhz", "start": -1e308, "stop": 2.74}, "sweep.start"),
    (TOPDNP, dict(DCS_TIME, detuning_mhz=-1e308), "sweep.detuning_mhz"),
], ids=["dcs-grid", "dcs-nu", "pm-grid-start", "pm-grid-stop", "pm-nu", "zero-reset",
        "zero-rabi", "full-switch-fraction", "negative-omega1", "dcs-amplitude-error-grid",
        "pm-amplitude-error-grid", "topdnp-amplitude-error-grid", "amplitude-error-grid-overflow",
        "amplitude-error-overflow", "pm-omega1-overflow", "constant-omega-e-overflow",
        "topdnp-rabi-overflow", "dcs-nu-overflow", "dcs-grid-stop-overflow",
        "topdnp-grid-stop-overflow", "topdnp-grid-start-overflow", "topdnp-detuning-overflow"])
def test_cli_rejects_configs_the_drive_cannot_run(tmp_path, capsys, protocol, sweep, field):
    data = dict(EXPLICIT, protocol=dict(EXPLICIT["protocol"], **protocol),
                sweep=dict(EXPLICIT["sweep"], **sweep))
    if protocol.get("kind") in ("pm", "constant"):
        del data["protocol"]["rabi_mhz"]
    record = _cli_config_error(tmp_path, capsys, data)
    assert f"{field}:" in record["message"]


def test_cli_rejects_topdnp_without_positive_lengths(tmp_path, capsys):
    data = {"system": PROTON,
            "protocol": {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 0,
                         "delay_ns": 28},
            "sweep": dict(DCS_TIME, detuning_mhz=2.69)}
    record = _cli_config_error(tmp_path, capsys, data)
    assert "protocol:" in record["message"]


@pytest.mark.parametrize("field_tesla,pulse_len_ns,delay_ns", [
    (0.35, 30, 20),  # 14.9 MHz nucleus, below the 20 MHz modulation alone
    (0.5, 56, 28),  # 21.3 MHz nucleus, above 11.9 MHz modulation + at most 6 MHz
], ids=["already-above", "not-reachable"])
def test_cli_rejects_auto_detuning_without_a_resonance(tmp_path, capsys, field_tesla,
                                                       pulse_len_ns, delay_ns):
    data = {"system": dict(PROTON, field_tesla=field_tesla),
            "protocol": {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": pulse_len_ns,
                         "delay_ns": delay_ns},
            "sweep": dict(DCS_TIME, detuning_mhz="auto")}
    record = _cli_config_error(tmp_path, capsys, data)
    assert "sweep.detuning_mhz:" in record["message"]


@pytest.mark.parametrize("kind,sweep,field", [
    ("constant", {"nu_mhz": 3.0}, "nu_mhz"),
    ("constant", {"detuning_mhz": 7.0}, "detuning_mhz"),
    ("dcs", {"nu_mhz": 14.902375, "detuning_mhz": 2.69}, "detuning_mhz"),
    ("topdnp", {"detuning_mhz": 2.69, "nu_mhz": 14.9}, "nu_mhz"),
    ("pm", {"nu_mhz": 14.902375, "total_time_ms": 5.0}, "total_time_ms"),
])
def test_cli_rejects_sweep_fields_the_pair_does_not_use(tmp_path, capsys, kind, sweep,
                                                        field):
    data = {"system": PROTON, "protocol": PAIR_PROTOCOLS[kind],
            "sweep": dict(DCS_TIME, **sweep)}
    record = _cli_config_error(tmp_path, capsys, data)
    assert f"sweep.{field}:" in record["message"]


def _explicit_columns(tmp_path, name, **protocol) -> dict[str, np.ndarray]:
    data = dict(EXPLICIT, protocol=dict(EXPLICIT["protocol"], **protocol))
    config = load_config(write_config(tmp_path, data, f"{name}.json"))
    run_experiment(config, out_dir=tmp_path / name, workers=1)
    return _csv_columns(tmp_path / name / "dcs_sensing.csv")


def test_dcs_spectrum_honours_initial_state_and_resets(tmp_path):
    default = _explicit_columns(tmp_path, "default")
    parallel = _explicit_columns(tmp_path, "parallel", initial_state="topdnp_parallel")
    sensing = _explicit_columns(tmp_path, "sensing", initial_state="sensing")
    resets = _explicit_columns(tmp_path, "resets", reset_every_ms=0.02)
    assert np.array_equal(sensing["sigma_z"], default["sigma_z"])
    assert not np.allclose(parallel["sigma_z"], default["sigma_z"], atol=1e-3)
    assert not np.allclose(resets["sigma_z"], default["sigma_z"], atol=1e-6)


# ---------------------------------------------------------------------------
# config contract: any one field of an example config set to a bad value
# either runs or exits 2/3 with a JSON record, never a traceback
# ---------------------------------------------------------------------------

_EXAMPLES = {path.name: json.loads(path.read_text()) for path in
             sorted((Path(__file__).parents[1] / "configs").glob("explicit_*.json"))}


def _short_run(data: dict) -> dict:
    """The config at 3 points and 10 us of evolution."""
    data = json.loads(json.dumps(data))
    sweep = data["sweep"]
    sweep["points"] = 3
    sweep["stop" if sweep["axis"] == "total_time_ms" else "total_time_ms"] = 0.01
    return data


def _fields(node, path=()):
    """The path of every field under ``node``, annotation keys left out."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if not str(key).startswith("_"):
            yield path + (key,)
            yield from _fields(value, path + (key,))


@pytest.mark.parametrize("name", sorted(_EXAMPLES))
def test_the_shortened_example_configs_run(tmp_path, name):
    path = write_config(tmp_path, _short_run(_EXAMPLES[name]))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--workers", "1"]) == 0


@st.composite
def mutated_examples(draw):
    data = _short_run(_EXAMPLES[draw(st.sampled_from(sorted(_EXAMPLES)))])
    *parents, last = draw(st.sampled_from(list(_fields(data))))
    node = data
    for key in parents:
        node = node[key]
    node[last] = draw(st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, True, False, None, "",
                         "auto", [], {}]),
        st.floats(-1e3, -1e-3), st.integers(-3, -1), st.text(max_size=4)))
    return data


@settings(max_examples=25, deadline=None)
@given(mutated_examples())
def test_a_config_with_one_bad_field_runs_or_exits_with_a_record(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out"), "--workers", "1"])
    assert code in (0, 2, 3), data
    assert "Traceback" not in err.getvalue()
    if code:
        record = json.loads(err.getvalue().strip().splitlines()[-1])
        assert set(record) == {"error", "message", "config"}, record
        assert record["config"] == str(path)


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object", type(None): "null"}[type(value)]


#: fields that take a second JSON type: t_initial is a keyword or a period fraction
_ALSO_ACCEPTED = {"t_initial": "number"}


@st.composite
def retyped_examples(draw):
    """An example config with one field set to a value of another JSON type,
    and that field's path as the error message writes it."""
    data = _short_run(_EXAMPLES[draw(st.sampled_from(sorted(_EXAMPLES)))])
    *parents, last = path = draw(st.sampled_from(list(_fields(data))))
    node = data
    for key in parents:
        node = node[key]
    taken = {_json_type(node[last]), _ALSO_ACCEPTED.get(last)}
    node[last] = draw(st.one_of(
        st.integers(-3, 3), st.floats(-1e3, 1e3), st.text(max_size=4), st.booleans(),
        st.none(), st.lists(st.integers(0, 3), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
    ).filter(lambda value: _json_type(value) not in taken))
    name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return data, name


@settings(max_examples=60, deadline=None)
@given(retyped_examples())
def test_a_field_of_another_json_type_exits_2_naming_the_field(case):
    data, name = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out"), "--workers", "1"])
    assert code == 2, (name, data)
    record = json.loads(err.getvalue())
    assert f"{path}{name}" in record["message"], (name, record)


# ---------------------------------------------------------------------------
# config text: a mutant of a shipped config parses or raises ConfigError,
# and a run of one exits 0, 2 or 3
# ---------------------------------------------------------------------------

_TEXTS = {path.name: path.read_bytes() for path in sorted(_SHIPPED.glob("configs/*.json"))
          + sorted(_SHIPPED.glob("perfbench/inputs/*.json"))}
_NUMBER = re.compile(rb"(?<![\w.\"])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.\"])")
_VALUE = re.compile(rb'(?<=: )(?:"[^"\\]*"|-?\d[\d.eE+-]*|true|false|null)')
_KEY = re.compile(rb'(?<=")[^"\\]+(?=": )')


def _replace_match(draw, text: bytes, pattern: re.Pattern, replacements) -> bytes:
    """``text`` with one drawn match of ``pattern`` replaced by a drawn replacement."""
    spans = [m.span() for m in pattern.finditer(text)]
    if not spans:
        return text
    a, b = draw(st.sampled_from(spans))
    return text[:a] + draw(replacements) + text[b:]


@st.composite
def text_mutants(draw, text: bytes, most: int = 3) -> bytes:
    """``text`` after one to ``most`` mutations: a truncation, a flipped bit, a
    NaN or Infinity literal or a huge integer for a number, a value of
    another JSON type, or a key renamed (to another key of the text, so
    perhaps given twice, or to a variant of its own name)."""
    for _ in range(draw(st.integers(1, most))):
        kind = draw(st.sampled_from(["truncate", "flip", "non-finite", "huge", "retype",
                                     "rename"]))
        if kind == "truncate":
            text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
        elif kind == "flip" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + bytes([text[i] ^ 1 << draw(st.integers(0, 7))]) + text[i + 1:]
        elif kind == "non-finite":
            text = _replace_match(draw, text, _NUMBER,
                                  st.sampled_from([b"NaN", b"Infinity", b"-Infinity"]))
        elif kind == "huge":
            text = _replace_match(draw, text, _NUMBER, st.builds(
                lambda sign, digits: sign + b"1" + b"0" * digits,
                st.sampled_from([b"", b"-"]), st.integers(15, 5000)))
        elif kind == "retype":
            text = _replace_match(draw, text, _VALUE, st.sampled_from(
                [b'"x"', b'""', b"0", b"2.5", b"-1", b"true", b"null", b"[]", b"{}", b"[1, 2]",
                 b'{"a": 1}']))
        elif kind == "rename":
            names = sorted(set(_KEY.findall(text))) or [b"x"]
            text = _replace_match(draw, text, _KEY, st.one_of(
                st.sampled_from(names), st.sampled_from(names).map(bytes.upper),
                st.sampled_from(names).map(lambda name: name + b"_x")))
    return text


def _cli_exit(text: bytes, tmp: str) -> int:
    path = Path(tmp) / "cli.json"
    path.write_bytes(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--out", str(Path(tmp) / "out"), "--workers", "1"])
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_mutated_config_text_parses_or_raises_config_error(data):
    """Four mutants of a shipped config's text go through load_config, and
    two single mutations of an explicit one at 3 sweep points through the CLI."""
    text = _TEXTS[data.draw(st.sampled_from(sorted(_TEXTS)), label="config")]
    swept = data.draw(st.sampled_from(sorted(name for name, raw in _TEXTS.items()
                                             if b'"points": ' in raw)), label="run")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        for _ in range(4):
            path.write_bytes(data.draw(text_mutants(text), label="mutant"))
            with contextlib.suppress(ConfigError):
                load_config(path)
        short = re.sub(rb'"points": \d+', b'"points": 3', _TEXTS[swept])
        for _ in range(2):
            mutant = data.draw(text_mutants(short, most=1), label="run mutant")
            assert _cli_exit(mutant, tmp) in (0, 2, 3)


# ---------------------------------------------------------------------------
# every command line: a nonzero exit leaves one JSON record, never a traceback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """A directory holding a small valid config, a config that is not UTF-8
    and a subdirectory; ``missing.json`` is not there."""
    root = tmp_path_factory.mktemp("argv")
    data = {**_short_run(_EXAMPLES["explicit_sensing_spectrum.json"]),
            "output": {"directory": str(root / "default")}}
    (root / "small.json").write_text(json.dumps(data))
    (root / "utf16.json").write_bytes(b"\xff\xfe{}")
    (root / "subdir").mkdir()
    return root


@st.composite
def command_lines(draw):
    """argv of every subcommand with or without --workers and --out; paths
    are relative to the ``argv_files`` directory."""
    command = draw(st.sampled_from(["run", "preset", "verify", "list-presets"]))
    argv = [command]
    if command == "run":
        argv.append(draw(st.sampled_from(["missing.json", "subdir", "utf16.json",
                                          "small.json"])))
    elif command != "list-presets":
        argv.append(draw(st.sampled_from(["fig1f", "no-such-preset"])))
    for flag, values in (("--workers", [None, "1", "2", "0", "-1", "two"]),
                         ("--out", [None, "out", "small.json", "small.json/x"])):
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=40, deadline=None)
@given(command_lines())
def test_every_nonzero_exit_leaves_one_json_record(argv_files, argv):
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(argv_files)  # a preset without --out writes under the working directory
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _exit_code(argv)
    finally:
        os.chdir(cwd)
    assert "Traceback" not in err.getvalue()
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert {"error", "message"} <= set(json.loads(lines[0])), argv
