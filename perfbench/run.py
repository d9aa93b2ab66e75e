"""dcspin benchmark: one command per workload, every metric with its unit.

    python3 perfbench/run.py --workload spectra --seed 0 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The last line
of standard output is one JSON object; see perfbench/README.md.
"""
import os

# BLAS threads are pinned before numpy loads; set-up probes and pool
# workers inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dcspin import presets  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 5
LADDER = range(1, 7)


def pool_workers() -> int:
    return len(os.sched_getaffinity(0))


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports dcspin and builds the inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                    workload, "--seed", str(seed), "--setup-only"], check=True)
    return time.perf_counter() - t0


class Bench:
    def __init__(self, workload: workloads.Workload, out_root: Path):
        self.workload = workload
        self.out_root = out_root
        self.gate = gate.Gate(gate.load_reference(workload.name, workload.seed,
                                                  workload.seeded_inputs))
        self.run_times: dict[str, list[float]] = {}

    def run_once(self, run: workloads.Run, workers: int):
        """Run once, check it; returns (seconds, outputs), or None if it raised.

        Only the run itself is timed, not reading back and comparing.
        """
        out_dir = self.out_root / run.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            failed_checks = run.execute(workers, out_dir)
        except Exception:
            traceback.print_exc()
            self.gate.record(run.name, error="raised")
            return None
        elapsed = time.perf_counter() - t0
        outputs = gate.read_tables(out_dir)
        self.gate.record(run.name, outputs, failed_checks)
        return elapsed, outputs

    def run_pass(self, workers: int, record_times: bool = False):
        """One pass over every run; returns (seconds, outputs per run)."""
        total = 0.0
        outputs = {}
        for run in self.workload.runs:
            result = self.run_once(run, workers)
            if result is None:
                continue
            elapsed, outputs[run.name] = result
            total += elapsed
            if record_times:
                self.run_times.setdefault(run.name, []).append(elapsed)
        return total, outputs


def measure_end_to_end(bench: Bench, seconds: float, workers: int) -> tuple[dict, dict]:
    """Every run, serial and pooled in turn, each followed by a calibration sample.

    The calibration kernel is the one the workload names.

    Whole passes repeat, swapping whether serial or pooled goes first, until
    ``seconds`` have passed. A pass's time is the sum over its runs of their
    mean times, and its relative time that sum divided by the mean
    calibration time: both are averages over the same stretch of machine
    time, so a slow spell weighs on both alike. A calibration sample is
    short, so it catches the machine in a fast or a slow moment; the mean of
    all of them is its average speed over the run, as the runs see it. A set-up
    probe follows every pass, so set-up time is sampled over the same
    stretch of machine time as the passes. Returns the metrics and, for the
    record, the passes in seconds and the calibration time.
    """
    wl = bench.workload
    kernel = wl.calibration
    times: dict[int, dict[str, list[float]]] = {1: {}, workers: {}}
    setup: list[float] = []
    cal = [calibrate.timed(kernel)]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        for run in wl.runs:
            for w in ((1, workers) if i % 2 == 0 else (workers, 1)):
                result = bench.run_once(run, w)
                cal.append(calibrate.timed(kernel))
                if result is not None:
                    times[w].setdefault(run.name, []).append(result[0])
        setup.append(setup_probe(wl.name, wl.seed))
        cal.append(calibrate.timed(kernel))
        i += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(wl.name, wl.seed))

    serial = sum(statistics.fmean(v) for v in times[1].values())
    pooled = sum(statistics.fmean(v) for v in times[workers].values())
    calibration = statistics.fmean(cal)
    return {"wall_rel": (serial / calibration, "1", i),
            "pool_wall_rel": (pooled / calibration, "1", i),
            "setup_s": (statistics.median(setup), "s", len(setup))}, \
        {"wall_s": (serial, "s", i),
         "pool_wall_s": (pooled, "s", i),
         "calibration_s": (calibration, "s", len(cal))}


def measure_ladder(bench: Bench) -> dict:
    """Untraced wall time and traced sampling share of the N = 1..6 propagations."""
    metrics = {}
    for n in LADDER:
        try:
            t0 = time.perf_counter()
            workloads.ladder_propagate(bench.workload.seed, n)
            elapsed = time.perf_counter() - t0
            with tracing.Tracer() as tracer:
                workloads.ladder_propagate(bench.workload.seed, n)
        except Exception:
            traceback.print_exc()
            bench.gate.record(f"ladder N={n}", error="raised")
            continue
        bench.gate.record(f"ladder N={n}")
        totals = tracer.totals()
        share = totals["dynamics.einsum"]["total_s"] / totals["dynamics.propagate"]["total_s"]
        metrics[f"dynamics.propagate.N{n}_s"] = (elapsed, "s", 1)
        metrics[f"dynamics.propagate.N{n}_sampling_share"] = (share, "1", 1)
    return metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(samples: list[dict], untraced: list[float], traced: list[float],
                  pooled: list[float], run_times: dict[str, list[float]]) -> dict:
    """Per-layer metrics: medians over the traced passes, named layer.function.quantity."""
    count = len(samples)

    def med(span: str, field: str) -> float:
        return statistics.median(s.get(span, {}).get(field, 0.0) for s in samples)

    m = {}
    for span, fields in (
            ("spincore.build_hamiltonian", ("calls", "self_s")),
            ("spincore.embed_operator", ("calls", "self_s")),
            ("dynamics.eigh", ("calls", "self_s")),
            ("dynamics.svd", ("calls", "self_s")),
            ("dynamics.matrix_power", ("calls", "self_s")),
            ("dynamics.propagate_compiled", ("self_s",)),
            ("dynamics.compile_waveform", ("calls", "self_s")),
            ("dynamics.einsum", ("calls", "self_s")),
            ("waveform.coupling_factor", ("calls", "self_s")),
            ("waveform.pieces", ("calls", "self_s")),
            ("protocols.run", ("self_s",)),
            ("protocols.solve_topdnp_detuning", ("calls", "self_s")),
            ("sweep.parallel_map", ("calls",)),
            ("sweep.write_csv", ("calls", "self_s")),
            ("cli.run_experiment", ("self_s",)),
            ("config.parse_config", ("self_s",)),
            ("presets.verify", ("self_s",))):
        for field in fields:
            unit = "count" if field == "calls" else "s"
            m[f"{span}.{field}"] = (med(span, field), unit, count)
    builds = med("spincore.build_hamiltonian", "calls")
    m["spincore.build_hamiltonian.per_point"] = (
        _ratio(builds, med("dynamics.propagate_compiled", "calls")), "1", count)
    m["dynamics.eigh.per_build"] = (_ratio(med("dynamics.eigh", "calls"), builds), "1", count)
    m["dynamics.matrix_power.periods"] = (med("dynamics.matrix_power", "amount"), "count", count)
    m["sweep.parallel_map.items"] = (med("sweep.parallel_map", "amount"), "count", count)
    m["sweep.parallel_map.wall_s"] = (med("sweep.parallel_map", "total_s"), "s", count)
    m["sweep.write_csv.bytes"] = (med("sweep.write_csv", "amount"), "count", count)
    serial = statistics.median(untraced)
    m["sweep.pool_speedup"] = (_ratio(serial, statistics.median(pooled)), "1", len(pooled))
    m["trace.overhead_frac"] = (_ratio(statistics.median(traced) - serial, serial), "1", count)
    for name in sorted(presets.PRESETS):
        times = run_times.get(name, [0.0])
        m[f"presets.{name}.wall_s"] = (statistics.median(times), "s", len(run_times.get(name, [])))
    return m


def measure_layers(bench: Bench, seconds: float, workers: int) -> dict:
    """Untraced serial, traced serial and pooled passes in turn, for ``seconds``."""
    untraced, traced, pooled, samples, cal = [], [], [], [], []
    kernel = bench.workload.calibration
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.append(bench.run_pass(1, record_times=True)[0])
        cal.append(calibrate.timed(kernel))
        with tracing.Tracer() as tracer:
            traced.append(bench.run_pass(1)[0])
        samples.append(tracer.totals())
        cal.append(calibrate.timed(kernel))
        pooled.append(bench.run_pass(workers)[0])
        cal.append(calibrate.timed(kernel))
    metrics = layer_metrics(samples, untraced, traced, pooled, bench.run_times)
    metrics["machine.calibration_s"] = (statistics.fmean(cal), "s", len(cal))
    metrics.update(measure_ladder(bench))
    return metrics


def _commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").exists():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = git / head[5:]
    return ref.read_text().strip() if ref.exists() else head[5:]


def environment(seed: int, workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": workers,
            "commit": _commit(), "seed": seed}


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (set-up probe)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store one serial pass's outputs as the reference")
    args = parser.parse_args(argv)

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    workers = pool_workers()
    out_root = ROOT / ".perfbench_out" / str(os.getpid())
    try:
        bench = Bench(workloads.build(args.workload, args.seed), out_root)
        if args.write_reference:
            bench.gate.reference = {}
            bench.run_pass(1)
            if bench.gate.failed:
                return 1
            print(gate.write_reference(args.workload, args.seed, bench.gate.reference))
            return 0
        # warm-up: one serial and one pooled pass, checked but not timed
        _, first = bench.run_pass(1)
        self_test_ok = gate.self_test(bench.gate.reference, first, args.seed)
        bench.run_pass(workers)
        raw = {}
        if args.trace:
            metrics = measure_layers(bench, args.seconds, workers)
        else:
            metrics, raw = measure_end_to_end(bench, args.seconds, workers)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    g = bench.gate
    leftovers = tracing.leftover_wrappers()
    print(f"# env {json.dumps(environment(args.seed, workers), sort_keys=True)}")
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    for name, (value, unit, samples) in sorted(raw.items()):
        print(f"# {name} = {value:.6g} {unit} (n={samples}, not a benchmark metric)")
    print(f"ops = {g.attempted} count, ops_failed = {g.failed} count, "
          f"max_abs_dev = {g.max_abs_dev:.3g}, gate self-test "
          f"{'passed' if self_test_ok else 'FAILED'}")
    if leftovers:
        print(f"# wrappers left installed: {leftovers}")
    correct = g.failed == 0 and self_test_ok and not leftovers
    print(json.dumps({"correct": correct, "attempted": g.attempted, "failed": g.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
