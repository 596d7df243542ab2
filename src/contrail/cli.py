"""Experiment runner.

Subcommands:

* ``gen``      write a config's synthetic tasks as CSV track tables
* ``run``      train every (strategy, repetition) cell and emit metrics
* ``eval``     score a saved checkpoint against a CSV dataset
* ``report``   recompute the summary table from emitted matrix CSVs
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
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .core import (
    GridSpec,
    GroundTruth,
    Heatmap,
    ResultMatrix,
    Sample,
    scene_frame,
)
from .learner import Strategy, TrainConfig, train_stream
from .losses import LossSpec
from .memory import CompletionBuffer, SeparationBuffer
from .metrics import (
    EvalReport,
    extract_endpoints,
    fde_sample,
    mr_task,
    read_matrix_csv,
    report_from_matrices,
    write_matrix_csv,
)
from .predictor import HeatmapPredictor, PredictorConfig
from .scenarios import (
    TaskSpec,
    build_stream,
    check_episode_geometry,
    ingest_csv,
    task_datasets,
    write_task_csv,
)

__all__ = ["ExperimentConfig", "main", "run_experiment"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


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
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.w_endpoints < 1:
            raise ConfigError("w_endpoints must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        try:
            check_episode_geometry(self.tasks)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _take(data: dict, allowed: dict[str, object], where: str) -> dict:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = dict(allowed)
    out.update(data)
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from JSON, rejecting unknown keys."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    top = _take(
        data,
        {
            "tasks": None,
            "strategies": ["vanilla"],
            "train": {},
            "grid": None,
            "hidden_dims": [128, 128],
            "seed": 0,
            "repetitions": 1,
            "w_endpoints": 6,
            "workers": 1,
            "output_dir": "out",
        },
        "config",
    )
    if top["tasks"] is None:
        raise ConfigError("config must define 'tasks'")
    if top["grid"] is None:
        raise ConfigError("config must define 'grid'")

    try:
        grid_raw = _take(
            top["grid"],
            {"rows_h": None, "cols_w": None, "origin": None, "cell_size": None},
            "grid",
        )
        grid = GridSpec(
            rows_h=int(grid_raw["rows_h"]),
            cols_w=int(grid_raw["cols_w"]),
            origin=tuple(float(v) for v in grid_raw["origin"]),
            cell_size=float(grid_raw["cell_size"]),
        )

        tasks = []
        for i, t in enumerate(top["tasks"]):
            t = _take(
                t,
                {
                    "kind": None,
                    "n_samples": None,
                    "seed": i + 1,
                    "noise_sigma": 0.15,
                    "speed_range": None,
                    "curvature_range": None,
                    "turn_angle_range": None,
                    "t_obs": 10,
                    "t_pred": 30,
                    "dt": 0.1,
                    "k_sv": 4,
                },
                f"tasks[{i}]",
            )
            kwargs = {
                "kind": t["kind"],
                "n_samples": int(t["n_samples"]),
                "seed": int(t["seed"]),
                "noise_sigma": float(t["noise_sigma"]),
                "t_obs": int(t["t_obs"]),
                "t_pred": int(t["t_pred"]),
                "dt": float(t["dt"]),
                "k_sv": int(t["k_sv"]),
            }
            for rng_key in ("speed_range", "curvature_range", "turn_angle_range"):
                if t[rng_key] is not None:
                    kwargs[rng_key] = tuple(float(v) for v in t[rng_key])
            tasks.append(TaskSpec(**kwargs))

        tr = _take(
            top["train"],
            {
                "lr": 1e-3,
                "batch_size": 8,
                "buffer_total": 200,
                "replay_batch": None,
                "alpha": 1.0,
                "beta": 1.0,
                "base_kind": "cross_entropy",
                "focal_gamma": 2.0,
                "b_compare": 10,
                "agem_ref_batch": 64,
            },
            "train",
        )
        train = TrainConfig(
            lr=float(tr["lr"]),
            batch_size=int(tr["batch_size"]),
            buffer_total=int(tr["buffer_total"]),
            replay_batch=None if tr["replay_batch"] is None else int(tr["replay_batch"]),
            loss=LossSpec(
                base_kind=tr["base_kind"],
                focal_gamma=float(tr["focal_gamma"]),
                alpha=float(tr["alpha"]),
                beta=float(tr["beta"]),
            ),
            b_compare=int(tr["b_compare"]),
            agem_ref_batch=int(tr["agem_ref_batch"]),
        )

        strategies = tuple(Strategy.parse(s) for s in top["strategies"])
        return ExperimentConfig(
            tasks=tuple(tasks),
            strategies=strategies,
            train=train,
            grid=grid,
            hidden_dims=tuple(int(h) for h in top["hidden_dims"]),
            seed=int(top["seed"]),
            repetitions=int(top["repetitions"]),
            w_endpoints=int(top["w_endpoints"]),
            workers=int(top["workers"]),
            output_dir=str(top["output_dir"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def load_config(path: Path | str) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def evaluate_task(
    model: HeatmapPredictor,
    params: np.ndarray,
    samples: Sequence[Sample],
    w: int = 6,
) -> tuple[float, float]:
    """Mean FDE and miss rate of one parameter vector on one task.

    Predictions live on the target-centric grid, so the truth endpoint
    is moved into each scene's frame; the heading there is +x by
    construction.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty task")
    logits = model.forward_logits(params, [s.scene for s in samples])
    grid = model.config.grid
    fdes = []
    cases = []
    for k, s in enumerate(samples):
        heatmap_logits = logits[k].reshape(grid.rows_h, grid.cols_w)
        pred = extract_endpoints(Heatmap(heatmap_logits, grid), w)
        local_end = scene_frame(s.scene).to_local(s.truth.endpoint)
        local_truth = GroundTruth(endpoint=local_end, speed_v=s.truth.speed_v)
        fdes.append(fde_sample(pred, local_truth))
        cases.append((pred, local_truth, (1.0, 0.0)))
    return float(np.mean(fdes)), mr_task(cases)


def _cell_seeds(base_seed: int, rep: int) -> tuple[int, int, int]:
    state = np.random.SeedSequence([base_seed, rep]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def run_cell(
    config: ExperimentConfig,
    strategy: Strategy,
    rep: int,
    out_dir: Path,
    datasets: Sequence[tuple[list[Sample], list[Sample]]],
) -> dict:
    """Train and evaluate one (strategy, repetition) cell on the
    experiment's ``task_datasets``; write its artifacts and return the
    headline numbers.  The cell only reshuffles the training order."""
    model_seed, stream_seed, train_seed = _cell_seeds(config.seed, rep)
    stream = build_stream(datasets, stream_seed)
    test_sets = [test for _, test in datasets]

    model = HeatmapPredictor(
        PredictorConfig(
            t_obs=config.tasks[0].t_obs,
            k_sv=config.tasks[0].k_sv,
            hidden_dims=config.hidden_dims,
            grid=config.grid,
            seed=model_seed,
        )
    )
    result = train_stream(model, stream, strategy, replace(config.train, seed=train_seed))

    n = len(config.tasks)
    fde_m = ResultMatrix(n)
    mr_m = ResultMatrix(n)
    for label, params in result.checkpoints:
        for j in range(1, label + 1):
            fde, mr = evaluate_task(model, params, test_sets[j - 1], config.w_endpoints)
            fde_m.set(label, j, fde)
            mr_m.set(label, j, mr)
    if not result.checkpoints or result.checkpoints[-1][0] != n:
        for j in range(1, n + 1):
            fde, mr = evaluate_task(
                model, result.final_params, test_sets[j - 1], config.w_endpoints
            )
            fde_m.set(n, j, fde)
            mr_m.set(n, j, mr)

    report = report_from_matrices(strategy.value, rep, fde_m, mr_m)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(fde_m, out_dir / "matrix_fde.csv")
    write_matrix_csv(mr_m, out_dir / "matrix_mr.csv")
    (out_dir / "report.json").write_text(report.to_json())
    save_checkpoint(
        out_dir / "checkpoint.json",
        model.config,
        result.final_params,
        adam=result.adam_state,
        separation=result.separation,
        completion=result.completion,
    )
    return {
        "strategy": strategy.value,
        "rep": rep,
        "fde_avg": report.fde_avg,
        "mr_avg": report.mr_avg,
        "fde_bwt": report.fde_bwt,
        "mr_bwt": report.mr_bwt,
    }


def _mean_std(values: list[float | None]) -> dict | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return {"mean": mean, "std": std, "values": vals}


def summarize(cell_results: list[dict]) -> dict:
    """Fold per-cell headline numbers into per-strategy mean +- std."""
    by_strategy: dict[str, list[dict]] = {}
    for res in cell_results:
        by_strategy.setdefault(res["strategy"], []).append(res)
    summary = {}
    for strategy, cells in by_strategy.items():
        cells = sorted(cells, key=lambda c: c["rep"])
        summary[strategy] = {
            metric: _mean_std([c[metric] for c in cells])
            for metric in ("fde_avg", "fde_bwt", "mr_avg", "mr_bwt")
        }
    return summary


def format_summary(summary: dict, strategy_order: Sequence[str]) -> str:
    headers = ["strategy", "FDE-AVG (m)", "FDE-BWT (m)", "MR-AVG (%)", "MR-BWT (%)"]
    rows = [headers]
    for name in strategy_order:
        stats = summary.get(name)
        if stats is None:
            continue
        row = [name]
        for metric in ("fde_avg", "fde_bwt", "mr_avg", "mr_bwt"):
            s = stats[metric]
            row.append("N/A" if s is None else f"{s['mean']:.3f} +- {s['std']:.3f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, out_root: Path | None = None) -> dict:
    """Run every (strategy, repetition) cell and write all artifacts.

    The tasks are generated once and shared by every cell and worker.
    Cells are otherwise independent; with ``workers > 1`` they run in a
    process pool.  Identical configs produce identical artifacts apart
    from the manifest's wall-clock entry.
    """
    started = time.time()
    out_root = Path(out_root if out_root is not None else config.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    jobs = [
        (strategy, rep)
        for strategy in config.strategies
        for rep in range(config.repetitions)
    ]
    cell_dirs = {
        (strategy, rep): out_root / "runs" / strategy.value / f"rep_{rep:02d}"
        for strategy, rep in jobs
    }

    datasets = task_datasets(config.tasks)
    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [
                pool.submit(run_cell, config, s, r, cell_dirs[(s, r)], datasets)
                for s, r in jobs
            ]
            results = [f.result() for f in futures]
    else:
        results = [run_cell(config, s, r, cell_dirs[(s, r)], datasets) for s, r in jobs]

    results.sort(key=lambda r: (r["strategy"], r["rep"]))
    summary = summarize(results)
    order = [s.value for s in config.strategies]
    (out_root / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    (out_root / "summary.txt").write_text(format_summary(summary, order))

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
            f"{s.value}/rep_{r:02d}": str(cell_dirs[(s, r)].relative_to(out_root))
            for s, r in jobs
        },
        "wall_clock_seconds": time.time() - started,
    }
    (out_root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return summary


def recompute_summary_from_csv(out_root: Path) -> tuple[dict, list[str]]:
    """Rebuild the summary purely from the emitted matrix CSVs."""
    runs_dir = out_root / "runs"
    if not runs_dir.is_dir():
        raise FileNotFoundError(f"no runs directory under {out_root}")
    results = []
    order = []
    for strat_dir in sorted(runs_dir.iterdir()):
        if not strat_dir.is_dir():
            continue
        order.append(strat_dir.name)
        for rep_dir in sorted(strat_dir.iterdir()):
            fde_m = read_matrix_csv(rep_dir / "matrix_fde.csv")
            mr_m = read_matrix_csv(rep_dir / "matrix_mr.csv")
            rep = int(rep_dir.name.split("_")[1])
            report = report_from_matrices(strat_dir.name, rep, fde_m, mr_m)
            results.append(
                {
                    "strategy": strat_dir.name,
                    "rep": rep,
                    "fde_avg": report.fde_avg,
                    "mr_avg": report.mr_avg,
                    "fde_bwt": report.fde_bwt,
                    "mr_bwt": report.mr_bwt,
                }
            )
    return summarize(results), order


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_root = Path(args.output or config.output_dir) / "data"
    out_root.mkdir(parents=True, exist_ok=True)
    files = []
    for i, task in enumerate(config.tasks):
        path = out_root / f"task_{i + 1:02d}.csv"
        samples = write_task_csv(task, i + 1, path)
        files.append(
            {
                "file": path.name,
                "kind": task.kind,
                "label": i + 1,
                "n_samples": len(samples),
                "seed": task.seed,
            }
        )
        print(f"gen: wrote {path} ({len(samples)} samples)")
    manifest = {"schema": "track table", "tasks": files}
    (out_root / "gen_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_root = Path(args.output) if args.output else None
    summary = run_experiment(config, out_root)
    order = [s.value for s in config.strategies]
    sys.stdout.write(format_summary(summary, order))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config, params, _, _, _ = load_checkpoint(args.checkpoint)
    model = HeatmapPredictor(config)
    samples = ingest_csv(
        args.data, t_obs=config.t_obs, t_pred=args.t_pred, k_sv=config.k_sv
    )
    if not samples:
        raise ValueError(f"{args.data} produced no samples")
    fde, mr = evaluate_task(model, params, samples, args.w)
    print(json.dumps({"n_samples": len(samples), "fde": fde, "mr": mr}, indent=2))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_root = Path(args.run_dir)
    summary, order = recompute_summary_from_csv(out_root)
    sys.stdout.write(format_summary(summary, order))
    if args.check:
        stored_path = out_root / "summary.json"
        stored = json.loads(stored_path.read_text())
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
    p_eval.add_argument("--t-pred", type=int, default=30, dest="t_pred")
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
