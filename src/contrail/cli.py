"""Experiment runner.

Subcommands:

* ``gen``      write a config's synthetic tasks as CSV track tables
* ``run``      train every (strategy, repetition) cell and emit metrics
* ``eval``     score a saved checkpoint against a CSV dataset
* ``report``   recompute a finished run's summary table from its matrix CSVs
* ``selftest`` fast invariant suite (exit 3 on failure)

Configuration is one JSON file (see ``example_config`` in README).
Exit codes: 0 success, 1 configuration problem, 2 runtime failure,
3 selftest failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .core import ConfigError, GridSpec, SampleTable, Scenes, atomic_write, from_json, json_object, open_text
from .learner import Strategy, TrainConfig, TrainResult, check_buffer_split, train_stream
from .losses import LossSpec
from .metrics import (
    EvalReport,
    extract_endpoints,
    fde,
    mr_task,
    read_matrix_csv,
    write_matrix_csv,
)
from .predictor import HeatmapPredictor, PredictorConfig
from .scenarios import (
    TaskSpec,
    build_stream,
    check_episode_geometry,
    ingest_csv,
    task_datasets,
    train_count,
    write_task_csvs,
)

__all__ = ["ExperimentConfig", "encode_tasks", "main", "run_experiment", "score_cell"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a task stream, strategies to compare, and the
    training/evaluation settings shared by all cells."""

    tasks: tuple[TaskSpec, ...]
    strategies: tuple[Strategy, ...]
    train: TrainConfig
    grid: GridSpec
    hidden_dims: tuple[int, ...] = (128, 128)
    seed: int = 0
    repetitions: int = 1
    w_endpoints: int = 6
    workers: int = 1
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigError("at least one task is required")
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if self.seed < 0:
            raise ConfigError(f"seed is {self.seed}: it must be a non-negative integer")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not 1 <= self.w_endpoints <= self.grid.n_cells:
            raise ConfigError(
                f"w_endpoints is {self.w_endpoints}: it must be in 1..{self.grid.n_cells}, "
                f"the grid's cell count"
            )
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError(
                f"hidden_dims is {list(self.hidden_dims)}: it needs at least one hidden layer, "
                f"every width >= 1"
            )
        for i, task in enumerate(self.tasks):
            if train_count(task.n_samples) == 0:
                raise ConfigError(
                    f"tasks[{i}].n_samples is {task.n_samples}: its 80/20 train half is empty; "
                    f"use at least 2"
                )
        try:
            check_episode_geometry(self.tasks)
            check_buffer_split(self.strategies, self.train.buffer_total)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _finite(literal: str) -> float:
    """A JSON number literal as a float; ``NaN``, ``Infinity`` and
    literals beyond the float range such as ``1e400`` are refused."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {literal}")
    return value


def _names(*classes: type) -> set[str]:
    return {f.name for cls in classes for f in fields(cls)}


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from JSON, rejecting unknown keys,
    non-finite numbers and values of the wrong JSON type.  Each part is
    read by ``core.from_json``, so a key left out keeps its dataclass's
    default; only the config's own rules are written here."""
    try:
        data = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None

    top = json_object(data, _names(ExperimentConfig), "config")
    if top.get("tasks") is None:
        raise ConfigError("config must define 'tasks'")
    if top.get("grid") is None:
        raise ConfigError("config must define 'grid'")

    try:
        grid = from_json(GridSpec, json_object(top["grid"], _names(GridSpec), "grid"), "grid.")

        tasks = []
        if type(top["tasks"]) is not list:
            raise ConfigError(f"tasks is {json.dumps(top['tasks'])}: it must be a list of task objects")
        for i, t in enumerate(top["tasks"]):
            where = f"tasks[{i}]"
            t = json_object(t, _names(TaskSpec), where)
            try:
                tasks.append(from_json(TaskSpec, {"seed": i + 1, "noise_sigma": 0.15, **t}, f"{where}."))
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"invalid config value: {where}: {exc}") from None

        # ``train`` holds LossSpec's fields flat beside TrainConfig's; each
        # cell draws its own training seed.
        tr = json_object(top.get("train", {}), _names(LossSpec, TrainConfig) - {"seed", "loss"}, "train")
        train = from_json(TrainConfig, tr, "train.", loss=from_json(LossSpec, tr, "train."))

        names = top.get("strategies", ["vanilla"])
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ConfigError(f"strategies is {json.dumps(names)}: it must be a list of strategy names")
        strategies = tuple(Strategy.parse(s) for s in names)
        return from_json(ExperimentConfig, top, "", tasks=tuple(tasks), strategies=strategies, train=train, grid=grid)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def load_config(path: Path | str) -> ExperimentConfig:
    with open_text(path, ConfigError) as fh:
        text = fh.read()
    return parse_config(text)


def encode_tasks(
    model: HeatmapPredictor, datasets: Sequence[tuple[Scenes, Scenes]]
) -> list[tuple[SampleTable, SampleTable]]:
    """Each task's (train, test) split of ``task_datasets`` as table rows.

    The rows depend on the model's geometry and grid, not on its
    parameters, so one call serves every cell of an experiment.
    """
    return [(model.encode(train), model.encode(test)) for train, test in datasets]


def evaluate_task(
    model: HeatmapPredictor,
    params: np.ndarray,
    table: SampleTable,
    w: int = 6,
) -> tuple[float, float]:
    """Mean FDE and miss rate of one parameter vector on one task's rows.

    Predictions live on the target-centric grid, where the table holds
    each truth endpoint; the heading there is +x by construction.  The
    whole task is scored at once.
    """
    if not len(table):
        raise ValueError("cannot evaluate on an empty task")
    grid = model.config.grid
    logits = model.forward_logits(params, table.x).reshape(len(table), grid.rows_h, grid.cols_w)
    endpoints = extract_endpoints(logits, grid, w)
    mean_fde = float(np.mean(fde(endpoints, table.ends)))
    return mean_fde, mr_task(endpoints, table.ends, table.speeds, np.array([1.0, 0.0]))


def _cell_seeds(base_seed: int, rep: int) -> tuple[int, int, int]:
    state = np.random.SeedSequence([base_seed, rep]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _model(config: ExperimentConfig, seed: int) -> HeatmapPredictor:
    """The experiment's predictor, initialised from ``seed``."""
    first = config.tasks[0]
    return HeatmapPredictor(
        PredictorConfig(
            t_obs=first.t_obs,
            k_sv=first.k_sv,
            hidden_dims=config.hidden_dims,
            grid=config.grid,
            seed=seed,
            t_pred=first.t_pred,
        )
    )


def score_cell(
    model: HeatmapPredictor,
    result: TrainResult,
    tests: Sequence[SampleTable],
    strategy: Strategy,
    rep: int,
    w: int,
) -> EvalReport:
    """The report of one trained cell: each task-boundary checkpoint of
    ``result`` is scored on its task and every earlier one of ``tests``.
    When no checkpoint closes the last task (``joint``), the final
    parameters are scored as the last row."""
    n = len(tests)
    fde_m, mr_m = np.full((n, n), np.nan), np.full((n, n), np.nan)
    evaluated = list(result.checkpoints)
    if not evaluated or evaluated[-1][0] != n:
        evaluated.append((n, result.final_params))
    for label, params in evaluated:
        for j in range(1, label + 1):
            fde_m[label - 1, j - 1], mr_m[label - 1, j - 1] = evaluate_task(model, params, tests[j - 1], w)
    return EvalReport(strategy.value, rep, fde_m, mr_m)


def run_cell(
    config: ExperimentConfig,
    strategy: Strategy,
    rep: int,
    out_dir: Path,
    tables: Sequence[tuple[SampleTable, SampleTable]],
) -> EvalReport:
    """Train and score one (strategy, repetition) cell on the
    ``encode_tasks`` rows of the experiment's ``task_datasets``; write
    its artifacts and return its report.  The cell only reorders the
    training rows.

    The matrix CSVs, the only files ``report`` reads, are written last,
    so a cell interrupted while writing lacks one of them."""
    model_seed, stream_seed, train_seed = _cell_seeds(config.seed, rep)
    trains = [rows for rows, _ in tables]
    model = _model(config, model_seed)
    # The stream's rows are handed over, not kept; the buffers of dual,
    # der and gss hold the stream table until the checkpoint is written.
    result = train_stream(
        model,
        SampleTable.concat(trains).take(build_stream(trains, stream_seed)),
        strategy,
        replace(config.train, seed=train_seed),
    )
    report = score_cell(model, result, [rows for _, rows in tables], strategy, rep, config.w_endpoints)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out_dir / "checkpoint.json",
        model.config,
        result.final_params,
        adam=result.adam_state,
        separation=result.separation,
        completion=result.completion,
    )
    with atomic_write(out_dir / "report.json") as fh:
        fh.write(report.to_json())
    write_matrix_csv(report.fde_matrix, out_dir / "matrix_fde.csv")
    write_matrix_csv(report.mr_matrix, out_dir / "matrix_mr.csv")
    return report


# The table rows of the experiment a pool worker serves: set once per
# worker process by the pool's initializer, so no job carries them.
_worker_tables: Sequence[tuple[SampleTable, SampleTable]] = ()


def _init_worker(tables: Sequence[tuple[SampleTable, SampleTable]]) -> None:
    global _worker_tables
    _worker_tables = tables


def _run_cell_in_worker(config: ExperimentConfig, strategy: Strategy, rep: int, out_dir: Path) -> EvalReport:
    return run_cell(config, strategy, rep, out_dir, _worker_tables)


def _mean_std(values: list[float | None]) -> dict | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return {"mean": mean, "std": std, "values": vals}


_METRICS = ("fde_avg", "fde_bwt", "mr_avg", "mr_bwt")  # summary columns, in table order


def summarize(reports: Sequence[EvalReport]) -> dict:
    """Fold cell reports into per-strategy mean +- std, each strategy's
    values in repetition (``report.seed``) order."""
    by_strategy: dict[str, list[EvalReport]] = {}
    for report in sorted(reports, key=lambda r: r.seed):
        by_strategy.setdefault(report.strategy, []).append(report)
    return {
        strategy: {metric: _mean_std([getattr(c, metric) for c in cells]) for metric in _METRICS}
        for strategy, cells in by_strategy.items()
    }


def format_summary(summary: dict, strategy_order: Sequence[str]) -> str:
    headers = ["strategy", "FDE-AVG (m)", "FDE-BWT (m)", "MR-AVG (%)", "MR-BWT (%)"]
    rows = [headers]
    for name in strategy_order:
        stats = summary.get(name)
        if stats is None:
            continue
        row = [name]
        for metric in _METRICS:
            s = stats[metric]
            row.append("N/A" if s is None else f"{s['mean']:.3f} +- {s['std']:.3f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, out_root: Path | None = None) -> dict:
    """Run every (strategy, repetition) cell and write all artifacts.

    The tasks are generated and encoded into table rows once and
    shared by every cell; each pool worker receives them once, when it
    starts.  Cells are otherwise independent; with ``workers > 1`` they
    run in a process pool of at most one process per cell.  A task
    whose drawn tracks are refused (not finite, or beyond
    ``scenarios.TRACK_LIMIT``) is a ConfigError, raised before
    ``out_root`` is created.  Identical configs produce byte-identical
    artifacts: no timing is written.
    """
    out_root = Path(out_root if out_root is not None else config.output_dir)
    cells = {
        (strategy, rep): out_root / "runs" / strategy.value / f"rep_{rep:02d}"
        for strategy in config.strategies
        for rep in range(config.repetitions)
    }

    try:
        datasets = task_datasets(config.tasks)
    except ValueError as exc:  # a task whose tracks are refused
        raise ConfigError(str(exc)) from None
    # The samples are dropped once encoded: cells train and score rows.
    tables = encode_tasks(_model(config, seed=0), datasets)
    del datasets
    out_root.mkdir(parents=True, exist_ok=True)
    workers = min(config.workers, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(tables,)
        ) as pool:
            futures = [
                pool.submit(_run_cell_in_worker, config, s, r, out_dir) for (s, r), out_dir in cells.items()
            ]
            reports = [f.result() for f in futures]
    else:
        reports = [run_cell(config, s, r, out_dir, tables) for (s, r), out_dir in cells.items()]

    summary = summarize(reports)
    order = [s.value for s in config.strategies]
    with atomic_write(out_root / "summary.json") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
    with atomic_write(out_root / "summary.txt") as fh:
        fh.write(format_summary(summary, order))

    manifest = {
        "seed": config.seed,
        "repetitions": config.repetitions,
        "strategies": order,
        "tasks": [
            {
                "kind": t.kind,
                "n_samples": t.n_samples,
                "seed": t.seed,
                "noise_sigma": t.noise_sigma,
            }
            for t in config.tasks
        ],
        "cells": {
            f"{s.value}/rep_{r:02d}": str(out_dir.relative_to(out_root)) for (s, r), out_dir in cells.items()
        },
    }
    with atomic_write(out_root / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return summary


def _read_json(path: Path) -> object:
    """The JSON document in the outside file ``path``; a file that
    cannot be read or parsed raises a ValueError that starts with
    ``path``."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON document: {exc}") from None


def _read_manifest(out_root: Path) -> tuple[int, dict[str, list[Path]]]:
    """The task count and the cell directories, by strategy in the
    manifest's order, of the finished run under ``out_root``, from the
    ``manifest.json`` that ``run_experiment`` writes last.  A run
    without one (interrupted, or not a run directory), and a manifest
    without a non-empty ``tasks`` list, a ``strategies`` list of
    distinct strings, a ``repetitions`` count of at least 1 and a
    ``cells`` object naming exactly ``runs/<strategy>/rep_NN`` for each
    strategy and repetition, raise a ValueError that starts with the
    manifest's path."""
    path = out_root / "manifest.json"
    if not path.exists():
        raise ValueError(f"{path}: no such file: run writes it last, so this is not a finished run")
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        manifest = {}
    tasks, strategies, reps = (manifest.get(key) for key in ("tasks", "strategies", "repetitions"))
    if not (isinstance(tasks, list) and tasks):
        raise ValueError(f"{path}: 'tasks' is not a non-empty list")
    if not (
        isinstance(strategies, list)
        and all(isinstance(s, str) for s in strategies)
        and len(set(strategies)) == len(strategies)
    ):
        raise ValueError(f"{path}: 'strategies' is not a list of distinct strategy names")
    if type(reps) is not int or reps < 1:
        raise ValueError(f"{path}: 'repetitions' is not an int >= 1")
    cells = {s: [f"runs/{s}/rep_{r:02d}" for r in range(reps)] for s in strategies}
    if manifest.get("cells") != {cell[5:]: cell for names in cells.values() for cell in names}:
        raise ValueError(f"{path}: 'cells' does not name one runs/<strategy>/rep_NN cell per strategy and repetition")
    return len(tasks), {s: [out_root / cell for cell in names] for s, names in cells.items()}


def recompute_summary_from_csv(out_root: Path) -> tuple[dict, list[str]]:
    """Rebuild the summary purely from the emitted matrix CSVs of the
    run that ``out_root``'s manifest describes (``_read_manifest``),
    and return it with the manifest's strategy order.  Every entry of
    ``runs`` must be a directory named for one of the manifest's
    strategies, each of which must hold exactly the ``rep_NN`` cell
    directories that the manifest names, and each cell both CSVs.  A
    missing or extra cell raises a ValueError naming it; a CSV that is
    missing or cannot be read, a ValueError that starts with its path;
    a matrix pair that does not record the manifest's task count, or
    that disagrees on the entries it records, a ValueError naming the
    cell."""
    n_tasks, cells = _read_manifest(out_root)
    runs_dir = out_root / "runs"
    if not runs_dir.is_dir():
        raise FileNotFoundError(f"no runs directory under {out_root}")
    for entry in sorted(runs_dir.iterdir()):
        if entry.name not in cells:
            raise ValueError(f"{entry} is not a strategy directory (one of {', '.join(cells)})")
    reports = []
    for strategy, rep_dirs in cells.items():
        strat_dir = runs_dir / strategy
        for entry in sorted(strat_dir.iterdir()) if strat_dir.is_dir() else []:
            if entry not in rep_dirs or not entry.is_dir():
                raise ValueError(f"{entry} is not a rep_NN cell directory that the manifest names")
        for rep_dir in rep_dirs:
            if not rep_dir.is_dir():
                raise ValueError(f"{rep_dir}: no such cell directory, though the manifest names it")
            fde_m = read_matrix_csv(rep_dir / "matrix_fde.csv", n_tasks)
            mr_m = read_matrix_csv(rep_dir / "matrix_mr.csv", n_tasks)
            try:
                reports.append(EvalReport(strategy, int(rep_dir.name[4:]), fde_m, mr_m))
            except ValueError as exc:
                raise ValueError(f"{rep_dir}: {exc}") from None
    return summarize(reports), list(cells)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_root = Path(args.output or config.output_dir) / "data"
    try:
        written = write_task_csvs(config.tasks, out_root)
    except ValueError as exc:  # a task's tracks are refused; nothing is written
        raise ConfigError(str(exc)) from None
    files = []
    for i, (task, (path, scenes)) in enumerate(zip(config.tasks, written)):
        files.append(
            {
                "file": path.name,
                "kind": task.kind,
                "label": i + 1,
                "n_samples": len(scenes),
                "seed": task.seed,
            }
        )
        print(f"gen: wrote {path} ({len(scenes)} samples)")
    manifest = {"schema": "track table", "tasks": files}
    with atomic_write(out_root / "gen_manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_root = Path(args.output) if args.output else None
    summary = run_experiment(config, out_root)
    order = [s.value for s in config.strategies]
    sys.stdout.write(format_summary(summary, order))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config, params, _, _, _ = load_checkpoint(args.checkpoint, params_only=True)
    if not 1 <= args.w <= config.grid.n_cells:
        raise ConfigError(f"--w {args.w} must be in 1..{config.grid.n_cells}, the grid's cell count")
    model = HeatmapPredictor(config)
    scenes = ingest_csv(
        args.data, t_obs=config.t_obs, t_pred=config.t_pred, k_sv=config.k_sv
    )
    if not len(scenes):
        raise ValueError(f"{args.data} produced no samples")
    mean_fde, mr = evaluate_task(model, params, model.encode(scenes), args.w)
    # A non-finite score is an error (exit 2), never invalid JSON.
    result = {"n_samples": len(scenes), "fde": mean_fde, "mr": mr}
    print(json.dumps(result, indent=2, allow_nan=False))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_root = Path(args.run_dir)
    summary, order = recompute_summary_from_csv(out_root)
    sys.stdout.write(format_summary(summary, order))
    if args.check:
        stored = _read_json(out_root / "summary.json")
        recomputed = json.loads(json.dumps(summary))
        if stored != recomputed:
            raise RuntimeError(
                "summary.json does not match the values recomputed from the matrix CSVs"
            )
        print("report: matches stored summary.json")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    ok = run_selftest(verbose=True)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are config errors (exit 1)
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contrail", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write synthetic tasks as CSV")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--output", help="override the config's output_dir")
    p_gen.set_defaults(fn=cmd_gen)

    p_run = sub.add_parser("run", help="run the experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="override the config's output_dir")
    p_run.set_defaults(fn=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--w", type=int, default=6)
    p_eval.set_defaults(fn=cmd_eval)

    p_rep = sub.add_parser("report", help="recompute summary from matrix CSVs")
    p_rep.add_argument("--run-dir", required=True, dest="run_dir")
    p_rep.add_argument(
        "--check", action="store_true", help="fail if stored summary.json differs"
    )
    p_rep.set_defaults(fn=cmd_report)

    p_self = sub.add_parser("selftest", help="fast invariant suite")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
