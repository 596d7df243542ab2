"""Evaluation metrics for multi-modal endpoint prediction.

A heatmap is reduced to W candidate endpoints (peaks of the probability
surface).  Final displacement error takes the best candidate per
sample; miss rate checks every candidate against a speed-dependent
longitudinal gate and a fixed 1 m lateral gate in the target vehicle's
heading frame.  Backward transfer summarises how much performance on
earlier tasks degraded after later training, straight off the result
matrix.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import GroundTruth, Heatmap, ResultMatrix, atomic_write, cell_to_center

__all__ = [
    "EvalReport",
    "PredictionSet",
    "averages",
    "bwt",
    "extract_endpoints",
    "fde_sample",
    "mr_task",
    "mr_threshold",
]

LATERAL_GATE_M = 1.0


@dataclass(frozen=True)
class PredictionSet:
    """W candidate endpoints, best-first, in the heatmap's frame."""

    endpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValueError("a prediction needs at least one endpoint")


def extract_endpoints(heatmap: Heatmap, w: int = 6) -> PredictionSet:
    """Top-W endpoint candidates from a heatmap.

    Candidates are the strict local maxima of the probability surface
    over 3x3 neighborhoods (clipped at the borders), in descending
    probability; if fewer than W exist, the highest remaining cells fill
    the tail.  Ties break lexicographically by (row, col).  Returns the
    cell centers in metric coordinates.
    """
    grid = heatmap.grid
    if not (1 <= w <= grid.n_cells):
        raise ValueError(f"w must be in 1..{grid.n_cells}")
    probs = heatmap.probabilities()
    padded = np.full((grid.rows_h + 2, grid.cols_w + 2), -np.inf)
    padded[1:-1, 1:-1] = probs
    neighbors = np.stack(
        [
            padded[1 + dr : 1 + dr + grid.rows_h, 1 + dc : 1 + dc + grid.cols_w]
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        ]
    )
    is_peak = probs > neighbors.max(axis=0)

    def ordered(mask: np.ndarray) -> list[tuple[int, int]]:
        rr, cc = np.nonzero(mask)
        cells = sorted(zip(rr, cc), key=lambda rc: (-probs[rc[0], rc[1]], rc[0], rc[1]))
        return [(int(r), int(c)) for r, c in cells]

    selected = ordered(is_peak)[:w]
    if len(selected) < w:
        rest = np.ones_like(is_peak)
        for r, c in selected:
            rest[r, c] = False
        selected.extend(ordered(rest)[: w - len(selected)])
    return PredictionSet(tuple(cell_to_center(cell, grid) for cell in selected))


def fde_sample(pred: PredictionSet, truth: GroundTruth) -> float:
    """Final displacement error: distance from the truth endpoint to the
    closest predicted endpoint."""
    tx, ty = truth.endpoint
    best = math.inf
    for ex, ey in pred.endpoints:
        dx = ex - tx
        dy = ey - ty
        d = math.sqrt(dx * dx + dy * dy)
        if d < best:
            best = d
    return best


def mr_threshold(speed_v: float) -> float:
    """Longitudinal miss gate in meters as a function of target speed.

    1 m below 1.4 m/s, 2 m above 11 m/s, linear in between.
    """
    if speed_v < 0:
        raise ValueError("speed must be non-negative")
    if speed_v < 1.4:
        return 1.0
    if speed_v > 11.0:
        return 2.0
    return 1.0 + (speed_v - 1.4) / (11.0 - 1.4)


def mr_task(
    cases: Sequence[tuple[PredictionSet, GroundTruth, tuple[float, float]]],
) -> float:
    """Miss rate over a task, in percent.

    Each case is (prediction, truth, tv_heading).  Every endpoint is a
    miss when its offset from the truth, rotated into the heading frame,
    leaves the box of half-width 1 m laterally and ``mr_threshold``
    longitudinally.  The rate is misses over candidates.
    """
    if not cases:
        raise ValueError("mr_task needs at least one case")
    misses = 0
    total = 0
    for pred, truth, heading in cases:
        hx, hy = heading
        norm = math.sqrt(hx * hx + hy * hy)
        if norm < 1e-12:
            raise ValueError("tv_heading must be a nonzero vector")
        hx, hy = hx / norm, hy / norm
        gate_lon = mr_threshold(truth.speed_v)
        tx, ty = truth.endpoint
        for ex, ey in pred.endpoints:
            dx = ex - tx
            dy = ey - ty
            lon = dx * hx + dy * hy
            lat = -dx * hy + dy * hx
            if abs(lat) > LATERAL_GATE_M or abs(lon) > gate_lon:
                misses += 1
            total += 1
    return 100.0 * misses / total


def bwt(matrix: ResultMatrix, c: int) -> float:
    """Backward transfer after task c: mean over earlier tasks of the
    metric now minus the metric right after that task was learned.
    Positive values mean forgetting for error-style metrics."""
    if c < 2:
        raise ValueError("bwt needs at least two learned tasks")
    if c > matrix.n_tasks:
        raise ValueError(f"c={c} exceeds n_tasks={matrix.n_tasks}")
    total = 0.0
    for i in range(1, c):
        total += matrix.get(c, i) - matrix.get(i, i)
    return total / (c - 1)


def averages(per_task: Sequence[float]) -> float:
    """Arithmetic mean of per-task metric values."""
    if len(per_task) == 0:
        raise ValueError("averages needs at least one value")
    return float(np.mean(per_task))


@dataclass
class EvalReport:
    """Full evaluation of one training run.

    Per-task values are measured with the final parameters; the two
    matrices hold every (after_task, tested_task) measurement.  BWT
    fields are None for single-task runs and for strategies evaluated
    only at the end (no per-task checkpoints).
    """

    strategy: str
    seed: int
    per_task_fde: list[float]
    per_task_mr: list[float]
    fde_avg: float
    mr_avg: float
    fde_bwt: float | None
    mr_bwt: float | None
    fde_matrix: ResultMatrix
    mr_matrix: ResultMatrix

    def to_json(self) -> str:
        payload = {
            "strategy": self.strategy,
            "seed": self.seed,
            "per_task_fde": self.per_task_fde,
            "per_task_mr": self.per_task_mr,
            "fde_avg": self.fde_avg,
            "mr_avg": self.mr_avg,
            "fde_bwt": self.fde_bwt,
            "mr_bwt": self.mr_bwt,
            "n_tasks": self.fde_matrix.n_tasks,
            "fde_matrix": self.fde_matrix.entries(),
            "mr_matrix": self.mr_matrix.entries(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        data = json.loads(text)
        fde_m = ResultMatrix(data["n_tasks"])
        for i, j, v in data["fde_matrix"]:
            fde_m.set(i, j, v)
        mr_m = ResultMatrix(data["n_tasks"])
        for i, j, v in data["mr_matrix"]:
            mr_m.set(i, j, v)
        return cls(
            strategy=data["strategy"],
            seed=data["seed"],
            per_task_fde=list(data["per_task_fde"]),
            per_task_mr=list(data["per_task_mr"]),
            fde_avg=data["fde_avg"],
            mr_avg=data["mr_avg"],
            fde_bwt=data["fde_bwt"],
            mr_bwt=data["mr_bwt"],
            fde_matrix=fde_m,
            mr_matrix=mr_m,
        )


def write_matrix_csv(matrix: ResultMatrix, path: Path) -> None:
    """Flat CSV of a result matrix: after_task, tested_task, value."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["after_task", "tested_task", "value"])
        for i, j, v in matrix.entries():
            writer.writerow([i, j, repr(v)])


def read_matrix_csv(path: Path) -> ResultMatrix:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["after_task", "tested_task", "value"]:
        raise ValueError(f"{path} is not a result-matrix CSV")
    entries = [(int(i), int(j), float(v)) for i, j, v in rows[1:]]
    n_tasks = max(i for i, _, _ in entries) if entries else 1
    matrix = ResultMatrix(n_tasks)
    for i, j, v in entries:
        matrix.set(i, j, v)
    return matrix


def report_from_matrices(
    strategy: str, seed: int, fde_matrix: ResultMatrix, mr_matrix: ResultMatrix
) -> EvalReport:
    """Assemble the report numbers from the two matrices alone."""
    if fde_matrix.n_tasks != mr_matrix.n_tasks:
        raise ValueError("matrices disagree on the task count")
    n = fde_matrix.n_tasks
    per_fde = fde_matrix.final_row()
    per_mr = mr_matrix.final_row()
    has_checkpoints = all(fde_matrix.has(i, i) for i in range(1, n + 1))
    fde_bwt = bwt(fde_matrix, n) if n >= 2 and has_checkpoints else None
    mr_bwt = bwt(mr_matrix, n) if n >= 2 and has_checkpoints else None
    return EvalReport(
        strategy=strategy,
        seed=seed,
        per_task_fde=per_fde,
        per_task_mr=per_mr,
        fde_avg=averages(per_fde),
        mr_avg=averages(per_mr),
        fde_bwt=fde_bwt,
        mr_bwt=mr_bwt,
        fde_matrix=fde_matrix,
        mr_matrix=mr_matrix,
    )
