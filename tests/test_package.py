"""Properties that hold across every module of dcspin."""
import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dcspin
from dcspin.presets import DELAY_FIG3, PULSE_LEN_FIG3, RABI_FIG3, proton_system
from dcspin.protocols import solve_topdnp_detuning
from dcspin.spincore import nuclear_frequency


def _lru_caches():
    """(qualified name, wrapper) of every functools.lru_cache in dcspin,
    at module level and on classes."""
    for info in pkgutil.iter_modules(dcspin.__path__, "dcspin."):
        module = importlib.import_module(info.name)
        scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if isinstance(c, type) and c.__module__ == info.name]
        for scope in scopes:
            for obj in scope.values():
                if callable(getattr(obj, "cache_parameters", None)):
                    yield f"{obj.__module__}.{obj.__qualname__}", obj


def test_every_lru_cache_is_bounded():
    """An unbounded cache grows for the life of the process; every cache in
    the package holds a fixed number of entries."""
    caches = dict(_lru_caches())
    assert "dcspin.waveform._span_plan" in caches
    unbounded = [name for name, f in caches.items() if f.cache_parameters()["maxsize"] is None]
    assert unbounded == []


ROOT = Path(__file__).resolve().parents[1]

#: the most lines a function or method of dcspin may span, decorators excluded
MAX_FUNCTION_LINES = 80


def test_no_function_is_longer_than_the_limit():
    """Long functions are split into named stages that pass their state
    explicitly, so each stage can be read (and counted) on its own."""
    long = []
    for path in sorted((ROOT / "src" / "dcspin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.end_lineno - node.lineno + 1 > MAX_FUNCTION_LINES:
                long.append(f"{path.name}:{node.lineno} {node.name}")
    assert long == []

#: what tuning the C allocator from Python looks like: setting one of glibc's
#: MALLOC_* variables, calling mallopt or malloc_trim, or loading libc
_MALLOC_TUNING = re.compile(r"MALLOC_[A-Z_]*|\bmallopt\b|\bmalloc_\w+|\bctypes\b")


def test_dcspin_does_not_tune_the_allocator():
    """Freed d = 64 temporaries are avoided by reusing scratch buffers, not
    by padding or holding the heap through the allocator's settings, which
    would act on the whole process that imports dcspin."""
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted((ROOT / "src" / "dcspin").glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if _MALLOC_TUNING.search(line)]
    assert found == []


#: import dcspin in a fresh interpreter and run ``python -m dcspin`` with
#: the given arguments, if any; then list the scipy modules it imported
_PROBE = """
import runpy, sys
import dcspin
if sys.argv[1:]:
    sys.argv = ["dcspin", *sys.argv[1:]]
    try:
        runpy.run_module("dcspin", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        if exit.code:
            raise
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

#: a pulse-train buildup at the solved resonance detuning
TOPDNP_AUTO = {
    "system": {"field_tesla": 0.35,
               "nuclei": [{"isotope": "1H", "hyperfine_x_khz": 0.5, "hyperfine_z_khz": 0.5}]},
    "protocol": {"kind": "topdnp", "rabi_mhz": 2.0, "pulse_len_ns": 56, "delay_ns": 28},
    "sweep": {"axis": "total_time_ms", "start": 0.0, "stop": 0.01, "points": 3,
              "detuning_mhz": "auto"},
}


@pytest.mark.parametrize("argv", [
    [], ["--version"], ["list-presets"],
    ["run", str(ROOT / "configs" / "explicit_sensing_spectrum.json"), "--workers", "1"],
    ["preset", "fig3a", "--workers", "1"],
    ["run", "topdnp_auto.json", "--workers", "1"],
], ids=["import", "version", "list-presets", "run-sensing-spectrum", "preset-fig3a",
        "run-topdnp-auto"])
def test_a_cold_start_imports_no_scipy_module(tmp_path, argv):
    """A fresh process that imports dcspin, or runs any command, imports no
    scipy module, also when it solves a pulse-train resonance."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    (tmp_path / "topdnp_auto.json").write_text(json.dumps(TOPDNP_AUTO))  # read from cwd
    out = ["--out", str(tmp_path / "out")] if argv[:1] in (["run"], ["preset"]) else []
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv, *out], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "scipy modules: []"


def test_the_pulse_train_detuning_keeps_its_bits():
    """At fig3's drive, the solved detuning is the float brentq returned
    when scipy.optimize was imported with the protocols module."""
    system = proton_system()
    omega_n = nuclear_frequency(system.nuclei[0], system.field_z)
    assert repr(omega_n) == "93634383.6420804"
    assert repr(solve_topdnp_detuning(RABI_FIG3, PULSE_LEN_FIG3, DELAY_FIG3, omega_n)) \
        == "16909969.559369653"
