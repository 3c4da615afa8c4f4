"""ssmi benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository: it imports
``ssmi`` from the checkout's ``src/`` (never from an installed copy), and
exits with code 2 without a result when those sources are missing. Work
files go to ``.perfbench/`` at the root of the checkout.

A run measures set-up (``setup_s``: fresh interpreters that import ``ssmi``
and resolve the workload, median of several), warms up untimed, then runs
the workload's closed loop for ``--seconds`` (always at least one pass over
its inputs). It prints a human report on stderr and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before numpy loads: the benchmark is one process.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_WINDOW_S = 0.05
WORKLOAD_NAMES = ("explore_grid_ssmi", "explore_octree_ssmi", "explore_grid_frontier", "scan3d")

SETUP_CODE = """\
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].resolve({seed}, Path({work!r}))
"""


def measure_setup(name: str, seed: int, work: Path) -> tuple[float, list[float]]:
    """Median time, at reference speed, of fresh interpreters importing ssmi
    and resolving the workload; also the raw wall times."""
    import speed

    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed,
                             work=str(work / "setup"))
    raw, scaled = [], []
    before = speed.op_time(SETUP_WINDOW_S)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        after = speed.op_time(SETUP_WINDOW_S)
        scaled.append(raw[-1] * speed.REFERENCE_OP_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), raw


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": THREAD_CAPS,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ssmi" / "__init__.py").is_file():
        print(f"perfbench: no ssmi sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    setup_s, setup_samples = measure_setup(args.workload, args.seed, WORK)

    import tracing
    import workloads

    import ssmi

    if Path(ssmi.__file__).resolve().parent != SRC / "ssmi":
        print(f"perfbench: imported ssmi from {ssmi.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    state = workload.resolve(args.seed, WORK)
    workload.warm_up(state)
    tracer = tracing.Tracer() if args.trace else None
    outcome = workload.run(state, args.seconds, tracer)

    if tracer is None:
        figures = dict(outcome.end_to_end)
        figures["setup_s"] = setup_s
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures["ok_frac"] = 1.0 - outcome.failed / outcome.attempted
        units = declared_metrics(False)
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in units.items()}
    else:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, outcome.episodes)
        layers.update(outcome.layer_extras)
        units = declared_metrics(True)
        for name, unit in units.items():
            if layers[name][1] != unit:
                raise RuntimeError(f"{name}: unit {layers[name][1]} != declared {unit}")
        metrics = {name: {"value": layers[name][0], "unit": unit} for name, unit in units.items()}
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "setup_s_raw_samples": setup_samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        **outcome.report,
    }
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    info = report["machine"]
    log = lambda text="": print(text, file=sys.stderr)  # noqa: E731
    log(f"workload {args.workload}: {workload.why}")
    log(f"  leaves out: {workload.leaves_out}")
    log(f"machine: nproc {info['nproc']}, {info['cpu_model']}, python {info['python']}, "
        f"numpy {info['numpy']}, scipy {info['scipy']}; thread caps "
        + ", ".join(f"{k}={v}" for k, v in THREAD_CAPS.items()))
    log(f"samples: {outcome.episodes} episodes; report {report_path.relative_to(ROOT)}")
    for ep in report.get("episodes", []):
        same = "same as" if ep["matches_reference"] else "DIFFERS from"
        log(f"  seed {ep['seed']}: {ep['wall_s']:.3f} s wall (x{ep['scale']:.3f} to reference "
            f"speed), {ep['cycles']} cycles, dist90 "
            f"{ep['dist90_m']} m, metrics.csv sha256 {ep['metrics_csv_sha256'][:16]} "
            f"({same} reference) {ep['error']}")
    for b in report.get("builds", []):
        log(f"  build: {b['raw_wall_s']:.3f} s wall, {b['wall_s']:.3f} s at reference speed, "
            f"ingest p50 {1e3 * b['ingest_s_median']:.1f} ms, "
            f"probe set p50 {1e3 * b['probe_set_s_median']:.2f} ms, {b['leaves']} leaves "
            f"{b['error']}")
    if tracer is not None:
        log(tracing.baseline_table(tracer))
        if tracer.absent:
            log("absent layers (reported as 0): " + ", ".join(tracer.absent))
        log(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        log(f"  {name:<38} {m['value']:.6g} {m['unit']}")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
