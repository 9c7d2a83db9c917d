"""Benchmark entry point.

    python3 bench/run.py --workload staged-cli --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout; the program is imported from
its src/ directory. With --trace 0 the last line of standard output is
a JSON object with every end-to-end metric; with --trace 1 it carries
every per-layer metric instead. Each run also writes a record (machine
fingerprint, per-round times, failures) and, when traced, its spans
under .bench_out/records/. See bench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, so no run has more compute threads than the round
# loop's pool. Must be set before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("staged-cli", "on-device")
SETUP_REPEATS = 3
IMPORTS = "import fedtrace.cli, fedtrace.experiment, fedtrace.sweeps"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_probe_s() -> float:
    """Wall time of a fresh interpreter that imports the program and exits."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT, env=env, check=True,
                   timeout=120)
    return time.perf_counter() - start


def clear_program_caches() -> None:
    """Empty every functools cache in fedtrace, as a fresh process starts."""
    for name, module in list(sys.modules.items()):
        if name == "fedtrace" or name.startswith("fedtrace."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def fingerprint(args) -> dict:
    import numpy
    import scipy
    from fedtrace import fedavg

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    pool = getattr(fedavg, "DEFAULT_MAX_WORKERS", None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "round_loop_default_pool": min(pool, os.cpu_count() or 1) if pool else None,
    }


def run(args) -> dict:
    import spans
    import workloads

    work_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    records = OUT / "records"
    work_dir.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    record = {"fingerprint": fingerprint(args)}
    imports_s = time.perf_counter() - PROCESS_START
    w = workloads.WORKLOADS[args.workload](args.seed, work_dir, None)
    tracer = spans.Recorder()
    walls, cpus = [], []

    def timed_round(index, traced=False):
        clear_program_caches()
        if traced:
            tracer.install(spans.TRACE_HOOKS)
        w0, c0 = time.perf_counter(), time.process_time()
        w.run_round(index)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        tracer.uninstall()
        w.check_round(index)

    timer_hooks = w.timer_hooks
    if args.trace:
        # the round timer's own work (sorting and keeping participants) would
        # land inside the traced rounds; traced runs report no solve_ms anyway
        timer_hooks = tuple(h for h in timer_hooks if h is not spans.ROUND_TIMER)
    w.timers.install(timer_hooks)
    try:
        if w.timers.missing:
            raise RuntimeError(f"timer targets missing: {w.timers.missing}")
        with open(work_dir / "program.log", "w", encoding="utf-8") as w.log, \
                contextlib.redirect_stdout(w.log):
            if args.trace:
                # set-up and one round traced; an untraced round before the
                # traced one gives the tracing overhead
                tracer.install(spans.TRACE_HOOKS)
                w.setup()
                tracer.uninstall()
                timed_round(0)
                timed_round(1, traced=True)
            else:
                probes = [import_probe_s() for _ in range(SETUP_REPEATS)]
                setups = []
                for _ in range(SETUP_REPEATS):
                    clear_program_caches()
                    start = time.perf_counter()
                    w.setup()
                    setups.append(time.perf_counter() - start)
                record["setup"] = {"import_probe_s": probes, "own_imports_s": imports_s,
                                   "workload_setup_s": setups}
                setup_s = statistics.median(probes) + statistics.median(setups)
                start = time.perf_counter()
                while not walls or time.perf_counter() - start < args.seconds:
                    timed_round(len(walls))
    finally:
        tracer.uninstall()
        w.timers.uninstall()

    rounds = len(walls)
    record.update(round_wall_s=walls, round_cpu_s=cpus, failures=w.failures)
    stem = records / work_dir.name
    if args.trace:
        summary = spans.Summary(tracer)
        metrics = spans.layer_metrics(summary, w.facts)
        metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
        metrics["trace.overhead_pct"] = {"value": (walls[1] / walls[0] - 1.0) * 100.0,
                                         "unit": "%"}
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    else:
        units = w.unit_metrics()
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
            "solve_ms": {"value": units["solve_ms"], "unit": "ms"},
            "score_us": {"value": units["score_us"], "unit": "us"},
        }
    result = {"correct": not w.failures, "attempted": rounds * w.ops_per_round,
              "failed": w.failed, "metrics": metrics}
    record["result"] = result
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)
    for failure in w.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedtrace" / "__init__.py").is_file():
        print(f"error: no fedtrace sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedtrace
    if Path(fedtrace.__file__).resolve().parent != SRC / "fedtrace":
        print(f"error: imported fedtrace from {fedtrace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
