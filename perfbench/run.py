"""contrail benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

Runs rounds of the workload (see workloads.py) while another round is
expected to end within ``--seconds``, and at least two, so that every
round after the first can be checked against the first.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced round and one traced round and reports
the per-layer metrics of the traced one, with the tracing overhead.
The last line of standard output is the result as one JSON object; the
exit code is 1 if any output check failed.  The environment, per-cell
records and metrics are also written to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from contrail.cli import load_config; load_config(sys.argv[2])"
)

END_TO_END_UNITS = {
    "norm_samples_per_s": "1/s",
    "norm_op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fde_avg_m": "m",
    "mr_avg_pct": "%",
    "ops_ok_ratio": "ratio",
}


def limit_blas_threads() -> int:
    """Run BLAS on one thread; returns the CPUs this process may use.
    Must run before numpy is imported.  The model's matrices are small,
    and on a few shared cores a second BLAS thread mostly waits for the
    scheduler: with two threads, the same seeds spread 2.7 times wider."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def openblas_runtime() -> dict:
    """Version string and thread count reported by the loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return {"library": path, "config": get_config().decode(), "threads": get_threads()}
    return {}


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": runtime.get("config", blas.get("openblas configuration")),
        "blas_threads_effective": runtime.get("threads"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def setup_seconds(config_path: Path, reference: types.ModuleType) -> tuple[float, float]:
    """Interpreter start, ``import contrail`` and config parsing, each in
    a fresh interpreter: the median time scaled to the reference speed,
    and the median wall time."""
    reference.reference_seconds()  # warm up the probe itself
    refs = [reference.reference_seconds()]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)], stdout=subprocess.DEVNULL
        )
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up to
        # 50 ms, which would round every reading to that step.
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            killer.join()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        refs.append(reference.reference_seconds())
    scaled = [reference.scaled(t, (a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    return statistics.median(scaled), statistics.median(times)


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    ops = [op for rnd in rounds for op in rnd.ops]
    ok = [op for op in ops if not op.errors]
    first = rounds[0].ops

    def mean_of(key: str) -> float:
        vals = [op.quality[key] for op in first if op.quality.get(key) is not None]
        return statistics.fmean(vals) if vals else float("nan")

    def median_of(values) -> float:
        values = list(values)
        return statistics.median(values) if values else float("nan")

    return {
        # Medians over operations, so that one operation caught by a slow
        # spell of a shared machine does not move the result.
        "norm_samples_per_s": median_of(op.samples / op.norm_s for op in ok),
        "norm_op_s_p50": median_of(op.norm_s for op in ok),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fde_avg_m": mean_of("fde_avg_m"),
        "mr_avg_pct": mean_of("mr_avg_pct"),
        "ops_ok_ratio": len(ok) / len(ops),
    }


def wall_metrics(rounds, wall_setup_s: float) -> dict[str, float]:
    """The timing metrics in plain wall seconds, not scaled to the
    reference speed."""
    ops = [op for rnd in rounds for op in rnd.ops if not op.errors]
    return {
        "wall.samples_per_s": statistics.median(op.samples / op.seconds for op in ops) if ops else float("nan"),
        "wall.op_s_p50": statistics.median(op.seconds for op in ops) if ops else float("nan"),
        "wall.setup_s": wall_setup_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("replay", "baselines", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="with --trace 1, write every span here as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "contrail" / "__init__.py").is_file():
        print(f"perfbench: no contrail sources at {SRC}; run from a contrail checkout", file=sys.stderr)
        return 2

    nproc = limit_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import reference
    import spans
    import workloads

    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workload = workloads.WORKLOADS[args.workload]()
    work_root = HERE / ".work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(args.seed, workloads.Scale(), workdir)
        setup_s, wall_setup_s = setup_seconds(workload.config_path, reference)
        workload.prepare()

        # Untraced rounds time only the cells (one wrapper call per cell).
        rounds = []
        tracer = spans.Tracer(layers=(spans.RUN_CELL,))
        # Traced runs probe the reference speed around each round, not
        # around each cell, where the probe would count as tracing overhead.
        if args.trace:
            round_refs = [reference.reference_seconds()]
        else:
            tracer.probe = reference.reference_seconds
        started = time.perf_counter()
        with tracer.installed():
            while not rounds or not args.trace and (
                len(rounds) < 2 or time.perf_counter() - started + rounds[-1].wall_s <= args.seconds
            ):
                rounds.append(workload.run_round(len(rounds) + 1, tracer))
        cells = list(tracer.cells)

        if args.trace:
            round_refs.append(reference.reference_seconds())
            full = spans.Tracer(keep_spans=args.spans is not None)
            with full.installed():
                rounds.append(workload.run_round(len(rounds) + 1, full))
            round_refs.append(reference.reference_seconds())
            cells += full.cells
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workloads.check_repeats(rounds)
    e2e = end_to_end(rounds, setup_s)
    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if op.errors]

    for op in ops:
        print(
            f"op {op.id:14s} {op.seconds:8.3f} s  ref {1000 * op.ref_s:6.2f} ms  norm {op.norm_s:8.3f} s  "
            f"samples {op.samples:5d}  quality {json.dumps(op.quality)}"
        )
    for cell in cells:
        print(
            f"cell {cell.id:20s} {cell.wall_s:8.3f} s  label_reads {cell.label_reads:5d}  "
            f"feature hits {cell.feature_hits:6d} misses {cell.feature_misses:6d}"
        )
    print(f"norm_op_s: p50 {e2e['norm_op_s_p50']:.4f} s over {len(ops)} ops in {len(rounds)} rounds")
    for op in failed:
        for err in op.errors:
            print(f"perfbench: check failed for {op.id}: {err}", file=sys.stderr)

    if args.trace:
        metrics = spans.layer_metrics(full)
        # Both rounds scaled to the reference speed, so that a change of
        # the machine's speed between them does not read as overhead.
        untraced_s = reference.scaled(rounds[-2].wall_s, (round_refs[0] + round_refs[1]) / 2)
        traced_s = reference.scaled(rounds[-1].wall_s, (round_refs[1] + round_refs[2]) / 2)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        metrics.update(wall_metrics(rounds[:-1], wall_setup_s))
        for name in full.missing:
            print(f"perfbench: layer {name} not found in contrail; its metrics read 0", file=sys.stderr)
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                for span_id, name, start, end, parent, cell in full.spans:
                    fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                         "parent": parent, "cell": cell}) + "\n")
        reported = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": reported}
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "args": {k: str(v) for k, v in vars(args).items()},
        "env": env,
        "end_to_end": e2e,
        "ops": [dict(vars(op), norm_s=op.norm_s) for op in ops],
        "cells": [dict(vars(c), wall_s=c.wall_s) for c in cells],
        "result": result,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
