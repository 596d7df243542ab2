"""The benchmark's workloads: inputs made from a seed, operations driven
through contrail's command-line entry point, and a check of every output.

Each workload runs in rounds.  A round repeats the same operations on the
same inputs, so every round after the first must reproduce the first
round's quality numbers exactly.  The feature cache is emptied before
each operation, so every ``run`` or ``eval`` starts as a fresh
``contrail`` process would; within one ``run`` command the cells share
it in their fixed order, as they do for a user.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from contrail import cli, predictor
from contrail.checkpoint import load_checkpoint

import reference
from spans import TASK_FREE, Tracer

KINDS = ("straight", "arc", "turn")
GRID = {"rows_h": 16, "cols_w": 16, "origin": [-5.0, -20.0], "cell_size": 2.5}


@dataclass(frozen=True)
class Scale:
    """Input sizes.  The defaults are the README experiment; the test of
    the trace uses a tiny scale."""

    n_samples: int = 400
    hidden_dims: tuple[int, ...] = (64, 64)
    buffer_total: int = 200
    ingest_sizes: tuple[int, ...] = (100, 200, 400)


@dataclass
class Op:
    """One timed operation (a training cell or one CSV file) and what
    checking its outputs found."""

    id: str
    seconds: float
    samples: int
    ref_s: float = math.nan  # reference work timed around it (reference.py); nan if not probed
    quality: dict[str, float | None] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def norm_s(self) -> float:
        """The wall time scaled to the reference speed: as long as the
        operation would take on a machine that runs the reference slice
        in ``reference.NOMINAL_S``."""
        return reference.scaled(self.seconds, self.ref_s)


@dataclass
class Round:
    wall_s: float  # time spent inside contrail commands
    ops: list[Op]


def task_seed(seed: int, index: int) -> int:
    return 1000 * seed + index + 1


def experiment_config(
    seed: int, strategies: tuple[str, ...], n_samples: int, scale: Scale, kinds: tuple[str, ...] = KINDS
) -> dict:
    return {
        "tasks": [
            {"kind": k, "n_samples": n_samples, "seed": task_seed(seed, i), "noise_sigma": 0.1}
            for i, k in enumerate(kinds)
        ],
        "strategies": list(strategies),
        "train": {"lr": 0.001, "buffer_total": scale.buffer_total},
        "grid": GRID,
        "hidden_dims": list(scale.hidden_dims),
        "seed": seed,
        "repetitions": 1,
        "workers": 1,
    }


def clear_feature_cache() -> None:
    """Empty the scene-feature cache, if the program has one (wrapped or not)."""
    fn = getattr(predictor, "scene_features", None)
    while fn is not None and not hasattr(fn, "cache_clear"):
        fn = getattr(fn, "__wrapped__", None)
    if fn is not None:
        fn.cache_clear()


def contrail_main(*argv: object) -> tuple[int, str, str, float]:
    """Run one ``contrail`` command in this process; returns exit code,
    stdout, stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main([str(a) for a in argv])
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def bwt_ratio(report: dict) -> float | None:
    """FDE backward transfer as a ratio that is never 0: the final mean FDE
    on the earlier tasks over their mean FDE right after each was learned.
    1 means no forgetting.  None without per-task checkpoints (joint)."""
    n = report["n_tasks"]
    fde = {(i, j): v for i, j, v in report["fde_matrix"]}
    if n < 2 or any((j, j) not in fde for j in range(1, n)):
        return None
    return sum(fde[(n, j)] for j in range(1, n)) / sum(fde[(j, j)] for j in range(1, n))


def _finite(quality: dict[str, float | None], keys: tuple[str, ...]) -> list[str]:
    return [f"{k} is not finite: {quality[k]!r}" for k in keys if not math.isfinite(quality[k] or math.nan)]


def check_checkpoint(path: Path, hidden_dims: tuple[int, ...]) -> list[str]:
    """The checkpoint reloads with the model's parameter count."""
    try:
        config, params, _, _, _ = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"checkpoint {path.name} does not reload: {exc}"]
    errors = []
    expected = predictor.HeatmapPredictor(config).param_count
    if params.shape != (expected,):
        errors.append(f"checkpoint holds {params.shape} parameters, model has {expected}")
    if tuple(config.hidden_dims) != tuple(hidden_dims):
        errors.append(f"checkpoint hidden_dims {config.hidden_dims} != {hidden_dims}")
    return errors


class TrainingWorkload:
    """One ``contrail run`` per round over the workload's strategies, in a
    fixed order.  Each cell is one operation."""

    def __init__(self, strategies: tuple[str, ...]):
        self.strategies = strategies

    def setup(self, seed: int, scale: Scale, workdir: Path) -> None:
        """Write the inputs; no contrail work yet."""
        self.scale = scale
        self.workdir = workdir
        self.config_path = workdir / "experiment.json"
        self.config_path.write_text(json.dumps(experiment_config(seed, self.strategies, scale.n_samples, scale)))
        self.warmup_path = workdir / "warmup.json"
        self.warmup_path.write_text(
            json.dumps(experiment_config(seed, self.strategies, max(10, scale.n_samples // 10), scale))
        )
        # Training stream length: the 80% train split of every task.
        self.stream_samples = len(KINDS) * ((4 * scale.n_samples) // 5)

    def prepare(self) -> None:
        """An untimed small run of the same cells: the first cell of a
        process otherwise pays one-off costs (allocator growth, BLAS
        thread start-up) that later cells do not."""
        clear_feature_cache()
        code, _, err, _ = contrail_main("run", "--config", self.warmup_path, "--output", self.workdir / "warmup")
        if code:
            raise RuntimeError(f"warm-up run exited {code}: {err.strip()}")

    def run_round(self, index: int, tracer: Tracer) -> Round:
        out_dir = self.workdir / f"round_{index}"
        first_cell = len(tracer.cells)
        tracer.cell_id = f"r{index}"
        clear_feature_cache()
        try:
            code, _, err, wall = contrail_main("run", "--config", self.config_path, "--output", out_dir)
        finally:
            tracer.cell_id = ""
        cells = {c.id.split("/")[1]: c for c in tracer.cells[first_cell:]}
        with tracer.paused():
            r_code, _, r_err, _ = contrail_main("report", "--run-dir", out_dir, "--check")
            ops = [self._check_cell(s, cells.get(s), out_dir, code, err, r_code, r_err) for s in self.strategies]
        return Round(wall, ops)

    def _check_cell(self, strategy, cell, out_dir, code, err, r_code, r_err) -> Op:
        op = Op(strategy, cell.wall_s if cell else math.nan, self.stream_samples, cell.ref_s if cell else math.nan)
        if code != 0:
            op.errors.append(f"run exited {code}: {err.strip()}")
        if r_code != 0:
            op.errors.append(f"report --check exited {r_code}: {r_err.strip()}")
        if cell is None:
            op.errors.append("cell did not run")
            return op
        cell_dir = out_dir / "runs" / strategy / "rep_00"
        try:
            report = json.loads((cell_dir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            op.errors.append(f"no readable report.json: {exc}")
            return op
        op.quality = {
            "fde_avg_m": report["fde_avg"],
            "mr_avg_pct": report["mr_avg"],
            "fde_bwt_ratio": bwt_ratio(report),
            "fde_bwt_m": report["fde_bwt"],
        }
        op.errors += _finite(op.quality, ("fde_avg_m", "mr_avg_pct"))
        op.errors += check_checkpoint(cell_dir / "checkpoint.json", self.scale.hidden_dims)
        if strategy in TASK_FREE and cell.label_reads != 0:
            op.errors.append(f"task-free strategy read {cell.label_reads} task labels")
        if strategy == "agem" and cell.label_reads <= 0:
            op.errors.append("agem read no task labels; the label audit is not counting")
        return op


class IngestWorkload:
    """``contrail gen`` + ``contrail eval`` per CSV file: one track table
    per task family, the families at the three sizes, scored with one
    buffered ``dual`` checkpoint that set-up trains and does not time."""

    def setup(self, seed: int, scale: Scale, workdir: Path) -> None:
        """Write the inputs; no contrail work yet."""
        self.scale = scale
        self.workdir = workdir
        self.config_path = workdir / "trained.json"
        self.config_path.write_text(json.dumps(experiment_config(seed, ("dual",), scale.n_samples, scale)))
        self.configs = {}
        for i, (kind, n) in enumerate(zip(KINDS, scale.ingest_sizes)):
            path = workdir / f"{kind}-{n}.json"
            task = experiment_config(seed, ("dual",), n, scale, kinds=(kind,))
            # Held out: other episodes than the checkpoint trained on.
            task["tasks"][0]["seed"] = task_seed(seed, i) + 100
            path.write_text(json.dumps(task))
            self.configs[(kind, n)] = path

    def prepare(self) -> None:
        """Train the checkpoint, then score one small file untimed to
        warm up the gen + eval path."""
        clear_feature_cache()
        code, _, err, _ = contrail_main("run", "--config", self.config_path, "--output", self.workdir / "trained")
        cell_dir = self.workdir / "trained" / "runs" / "dual" / "rep_00"
        errors = [f"run exited {code}: {err.strip()}"] if code else []
        errors += check_checkpoint(cell_dir / "checkpoint.json", self.scale.hidden_dims)
        if errors:
            raise RuntimeError("ingest set-up failed: " + "; ".join(errors))
        self.checkpoint = cell_dir / "checkpoint.json"
        report = json.loads((cell_dir / "report.json").read_text())
        self.checkpoint_bwt = {"fde_bwt_ratio": bwt_ratio(report), "fde_bwt_m": report["fde_bwt"]}
        warmup = self.workdir / "warmup"
        for argv in (
            ("gen", "--config", next(iter(self.configs.values())), "--output", warmup),
            ("eval", "--checkpoint", self.checkpoint, "--data", warmup / "data" / "task_01.csv"),
        ):
            code, _, err, _ = contrail_main(*argv)
            if code:
                raise RuntimeError(f"ingest warm-up {argv[0]} exited {code}: {err.strip()}")

    def run_round(self, index: int, tracer: Tracer) -> Round:
        ops = []
        tracer.cell_id = f"r{index}"
        try:
            for (kind, n), config in self.configs.items():
                op_dir = self.workdir / f"round_{index}" / f"{kind}-{n}"
                clear_feature_cache()
                with tracer.cell(f"{kind}-{n}") as cell:
                    g_code, _, g_err, _ = contrail_main("gen", "--config", config, "--output", op_dir)
                    e_code, e_out, e_err, _ = contrail_main(
                        "eval", "--checkpoint", self.checkpoint, "--data", op_dir / "data" / "task_01.csv"
                    )
                ops.append(self._check(kind, n, cell.wall_s, cell.ref_s, g_code, g_err, e_code, e_out, e_err))
        finally:
            tracer.cell_id = ""
        return Round(sum(op.seconds for op in ops), ops)

    def _check(self, kind, n, seconds, ref_s, g_code, g_err, e_code, e_out, e_err) -> Op:
        op = Op(f"{kind}-{n}", seconds, n, ref_s)
        if g_code != 0:
            op.errors.append(f"gen exited {g_code}: {g_err.strip()}")
        if e_code != 0:
            op.errors.append(f"eval exited {e_code}: {e_err.strip()}")
            return op
        result = json.loads(e_out)
        if result["n_samples"] != n:
            op.errors.append(f"ingest gave {result['n_samples']} samples for {n} written episodes")
        op.quality = {
            "fde_avg_m": result["fde"],
            "mr_avg_pct": result["mr"],
            # Forgetting is a property of the scored checkpoint.
            **self.checkpoint_bwt,
        }
        op.errors += _finite(op.quality, ("fde_avg_m", "mr_avg_pct"))
        return op


WORKLOADS = {
    "replay": lambda: TrainingWorkload(("dual", "gss")),
    "baselines": lambda: TrainingWorkload(("vanilla", "der", "agem", "joint")),
    "ingest": IngestWorkload,
}


def check_repeats(rounds: list[Round]) -> None:
    """Every round repeats the first on the same inputs: the quality
    numbers must be identical."""
    first = {op.id: op.quality for op in rounds[0].ops}
    for rnd in rounds[1:]:
        for op in rnd.ops:
            if op.quality and first.get(op.id) and op.quality != first[op.id]:
                op.errors.append(f"quality differs from round 1 with the same seed: {op.quality} vs {first[op.id]}")
