"""Evaluation metrics for multi-modal endpoint prediction.

A heatmap is reduced to W candidate endpoints (peaks of the probability
surface).  Final displacement error takes the best candidate per
sample; miss rate checks every candidate against a speed-dependent
longitudinal gate and a fixed 1 m lateral gate in the target vehicle's
heading frame.  All three work on whole stacks of samples as arrays; a
single heatmap is a stack of one.  Backward transfer summarises how
much performance on earlier tasks degraded after later training,
straight off the result matrix.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import GridSpec, ResultMatrix, atomic_write, softmax

__all__ = [
    "EvalReport",
    "averages",
    "bwt",
    "extract_endpoints",
    "fde",
    "mr_task",
    "mr_threshold",
]

LATERAL_GATE_M = 1.0


def extract_endpoints(logits: np.ndarray, grid: GridSpec, w: int = 6) -> np.ndarray:
    """Top-W endpoint candidates of each heatmap in a stack.

    ``logits`` has shape ``(n, rows_h, cols_w)``; the result holds each
    heatmap's W cell centers in metric coordinates, shape ``(n, w, 2)``.
    Candidates are the strict local maxima of the probability surface
    over 3x3 neighborhoods (clipped at the borders), in descending
    probability; if fewer than W exist, the highest remaining cells fill
    the tail.  Ties break lexicographically by (row, col): both sorts
    are stable and the flat cell index runs in (row, col) order.
    """
    if not (1 <= w <= grid.n_cells):
        raise ValueError(f"w must be in 1..{grid.n_cells}")
    n = len(logits)
    if logits.shape != (n, grid.rows_h, grid.cols_w):
        raise ValueError(
            f"logits shape {logits.shape} does not match grid ({grid.rows_h}, {grid.cols_w})"
        )
    if not np.all(np.isfinite(logits)):
        raise ValueError("heatmap logits must be finite")
    probs = softmax(logits)
    padded = np.full((n, grid.rows_h + 2, grid.cols_w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = probs
    neighbors = np.full_like(probs, -np.inf)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if (dr, dc) != (0, 0):
                shifted = padded[:, 1 + dr : 1 + dr + grid.rows_h, 1 + dc : 1 + dc + grid.cols_w]
                np.maximum(neighbors, shifted, out=neighbors)
    is_peak = (probs > neighbors).reshape(n, -1)

    by_prob = np.argsort(-probs.reshape(n, -1), axis=1, kind="stable")
    peaks_first = np.argsort(
        ~np.take_along_axis(is_peak, by_prob, axis=1), axis=1, kind="stable"
    )
    cells = np.take_along_axis(by_prob, peaks_first[:, :w], axis=1)
    row, col = np.divmod(cells, grid.cols_w)
    x = grid.origin[0] + (col + 0.5) * grid.cell_size
    y = grid.origin[1] + (row + 0.5) * grid.cell_size
    return np.stack([x, y], axis=-1)


def _offsets(endpoints: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate-minus-truth offsets ``(n, w)`` in x and y."""
    if endpoints.ndim != 3 or endpoints.shape[2] != 2 or truths.shape != (len(endpoints), 2):
        raise ValueError(
            f"endpoints {endpoints.shape} and truths {truths.shape} are not (n, w, 2) and (n, 2)"
        )
    if endpoints.shape[1] == 0:
        raise ValueError("a prediction needs at least one endpoint")
    return endpoints[..., 0] - truths[:, None, 0], endpoints[..., 1] - truths[:, None, 1]


def fde(endpoints: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Final displacement error of each sample: distance from its truth
    endpoint ``truths[i]`` to the closest of its candidates
    ``endpoints[i]``; shape ``(n,)``."""
    dx, dy = _offsets(endpoints, truths)
    return np.sqrt(dx * dx + dy * dy).min(axis=1)


def mr_threshold(speed_v: float | np.ndarray) -> float | np.ndarray:
    """Longitudinal miss gate in meters as a function of target speed,
    elementwise.

    1 m below 1.4 m/s, 2 m above 11 m/s, linear in between.
    """
    speed = np.asarray(speed_v, dtype=np.float64)
    if np.any(speed < 0):
        raise ValueError("speed must be non-negative")
    gate = np.where(speed < 1.4, 1.0, np.where(speed > 11.0, 2.0, 1.0 + (speed - 1.4) / (11.0 - 1.4)))
    return gate[()]


def mr_task(
    endpoints: np.ndarray, truths: np.ndarray, speeds: np.ndarray, headings: np.ndarray
) -> float:
    """Miss rate over a task, in percent.

    Sample ``i`` has candidates ``endpoints[i]`` ``(w, 2)``, truth
    endpoint ``truths[i]``, target speed ``speeds[i]`` and target heading
    ``headings[i]`` (or one heading ``(2,)`` for every sample).  Every
    endpoint is a miss when its offset from the truth, rotated into the
    heading frame, leaves the box of half-width 1 m laterally and
    ``mr_threshold`` longitudinally.  The rate is misses over candidates.
    """
    if len(endpoints) == 0:
        raise ValueError("mr_task needs at least one case")
    dx, dy = _offsets(endpoints, truths)
    heading = np.broadcast_to(np.asarray(headings, dtype=np.float64), (len(endpoints), 2))
    hx, hy = heading[:, 0], heading[:, 1]
    norm = np.sqrt(hx * hx + hy * hy)
    if np.any(norm < 1e-12):
        raise ValueError("tv_heading must be a nonzero vector")
    hx, hy = (hx / norm)[:, None], (hy / norm)[:, None]
    gate = mr_threshold(np.asarray(speeds, dtype=np.float64))[:, None]
    lon = dx * hx + dy * hy
    lat = -dx * hy + dy * hx
    misses = int(np.count_nonzero((np.abs(lat) > LATERAL_GATE_M) | (np.abs(lon) > gate)))
    return 100.0 * misses / dx.size


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


def write_matrix_csv(matrix: ResultMatrix, path: Path) -> None:
    """Flat CSV of a result matrix: after_task, tested_task, value."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["after_task", "tested_task", "value"])
        for i, j, v in matrix.entries():
            writer.writerow([i, j, repr(v)])


def read_matrix_csv(path: Path) -> ResultMatrix:
    """Inverse of :func:`write_matrix_csv`; the task count is the
    largest ``after_task``.  A row that is not three fields, an index
    that is not an integer, a non-finite value and an ``(after,
    tested)`` entry that is out of range or repeated raise a ValueError
    naming ``path:line``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["after_task", "tested_task", "value"]:
        raise ValueError(f"{path} is not a result-matrix CSV")
    entries: dict[tuple[int, int], tuple[int, float]] = {}
    try:
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != 3:
                raise ValueError(f"{len(row)} fields, not 3")
            i, j, v = int(row[0]), int(row[1]), float(row[2])
            if not math.isfinite(v):
                raise ValueError(f"value {row[2]} is not finite")
            if (i, j) in entries:
                raise ValueError(f"R[{i}, {j}] is repeated")
            entries[(i, j)] = (line, v)
        matrix = ResultMatrix(max([1] + [i for i, _ in entries]))
        for (i, j), (line, v) in entries.items():
            matrix.set(i, j, v)
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
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
