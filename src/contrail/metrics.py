"""Evaluation metrics for multi-modal endpoint prediction.

A heatmap is reduced to W candidate endpoints (peaks of the probability
surface).  Final displacement error takes the best candidate per
sample; miss rate checks every candidate against a speed-dependent
longitudinal gate and a fixed 1 m lateral gate in the target vehicle's
heading frame.  All three work on whole stacks of samples as arrays; a
single heatmap is a stack of one.  Extraction takes a stack
``BLOCK_ROWS`` heatmaps at a time, so its memory does not grow with the
stack; each heatmap is scored on its own, so the candidates are the
same bit for bit as from one pass over the whole stack.  Backward
transfer summarises how much performance on earlier tasks degraded
after later training, straight off a result matrix, an ``(n, n)`` array
per metric.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import GridSpec, atomic_write, open_text, softmax

__all__ = [
    "EvalReport",
    "bwt",
    "extract_endpoints",
    "fde",
    "matrix_entries",
    "mr_task",
    "mr_threshold",
]

LATERAL_GATE_M = 1.0


def _strict_peaks(probs: np.ndarray) -> np.ndarray:
    """Flat ``(n, rows_h * cols_w)`` mask of the cells of each heatmap
    in ``probs`` that exceed all their 3x3 neighbors (clipped at the
    borders)."""
    n, rows_h, cols_w = probs.shape
    padded = np.full((n, rows_h + 2, cols_w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = probs
    neighbors = np.full_like(probs, -np.inf)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if (dr, dc) != (0, 0):
                shifted = padded[:, 1 + dr : 1 + dr + rows_h, 1 + dc : 1 + dc + cols_w]
                np.maximum(neighbors, shifted, out=neighbors)
    return (probs > neighbors).reshape(n, -1)


# Heatmaps of a stack whose top-W candidates are extracted at a time:
# the extraction's transients, a few arrays of a block's cells, stay the
# same size however many heatmaps the stack holds.
BLOCK_ROWS = 64


def extract_endpoints(logits: np.ndarray, grid: GridSpec, w: int = 6) -> np.ndarray:
    """Top-W endpoint candidates of each heatmap in a stack.

    ``logits`` has shape ``(n, rows_h, cols_w)``; the result holds each
    heatmap's W cell centers in metric coordinates, shape ``(n, w, 2)``.
    Candidates are the strict local maxima of the probability surface
    over 3x3 neighborhoods (clipped at the borders), in descending
    probability; if fewer than W exist, the highest remaining cells fill
    the tail.  Ties break lexicographically by (row, col), the order of
    the flat cell index.  Each heatmap is scored on its own, so the
    stack is taken ``BLOCK_ROWS`` heatmaps at a time
    (:func:`_block_endpoints`).
    """
    if not (1 <= w <= grid.n_cells):
        raise ValueError(f"w must be in 1..{grid.n_cells}")
    n = len(logits)
    if logits.shape != (n, grid.rows_h, grid.cols_w):
        raise ValueError(
            f"logits shape {logits.shape} does not match grid ({grid.rows_h}, {grid.cols_w})"
        )
    endpoints = np.empty((n, w, 2))
    for start in range(0, n, BLOCK_ROWS):
        endpoints[start : start + BLOCK_ROWS] = _block_endpoints(logits[start : start + BLOCK_ROWS], grid, w)
    return endpoints


def _block_endpoints(logits: np.ndarray, grid: GridSpec, w: int) -> np.ndarray:
    """:func:`extract_endpoints` of one block of heatmaps.  Each cell
    gets one order-preserving uint64 key (the non-peak flag in bit 63,
    then the probability's bits inverted: probabilities are at least
    +0.0, so their bits order as they do); one partition per row finds
    the W-th key, the cells below it and the lowest-index cells equal
    to it are taken, and only those W keys are sorted, stably."""
    if not np.all(np.isfinite(logits)):
        raise ValueError("heatmap logits must be finite")
    n = len(logits)
    probs = softmax(logits)
    keys = np.where(_strict_peaks(probs), np.uint64(0x7FFF_FFFF_FFFF_FFFF), np.uint64(0xFFFF_FFFF_FFFF_FFFF))
    keys -= probs.reshape(n, -1).view(np.uint64)
    kth = np.partition(keys, w - 1, axis=1)[:, [w - 1]]  # a copy: the partition is freed
    below = keys < kth
    at = keys == kth
    at &= np.cumsum(at, axis=1) <= w - np.count_nonzero(below, axis=1)[:, None]
    cells = np.nonzero(below | at)[1].reshape(n, w)  # ascending within each row
    by_key = np.argsort(np.take_along_axis(keys, cells, axis=1), axis=1, kind="stable")
    cells = np.take_along_axis(cells, by_key, axis=1)
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


def bwt(matrix: np.ndarray, c: int) -> float:
    """Backward transfer after task c: mean over earlier tasks of the
    metric now minus the metric right after that task was learned,
    summed in task order.  Positive values mean forgetting for
    error-style metrics; an unrecorded entry makes it NaN."""
    n = len(matrix)
    if c < 2:
        raise ValueError("bwt needs at least two learned tasks")
    if c > n:
        raise ValueError(f"c={c} exceeds n_tasks={n}")
    now, learned = matrix[c - 1].tolist(), matrix.diagonal().tolist()
    total = 0.0
    for i in range(c - 1):
        total += now[i] - learned[i]
    return total / (c - 1)


def matrix_entries(matrix: np.ndarray) -> Iterator[tuple[int, int, float]]:
    """The recorded entries of a result matrix as 1-indexed
    ``(after_task, tested_task, value)`` triples, in row-major order."""
    for i, row in enumerate(matrix.tolist(), start=1):
        for j, v in enumerate(row, start=1):
            if not math.isnan(v):
                yield i, j, v


@dataclass(eq=False)
class EvalReport:
    """Full evaluation of one training run.

    A result matrix is an ``(n, n)`` float64 array: ``R[i - 1, j - 1]``
    is the metric on task ``j`` after training task ``i``, NaN where
    nothing was recorded.  Both matrices record the same entries: the
    whole lower triangle, or only the last row for a strategy scored
    only at the end (no per-task checkpoints).  Per-task values are the
    last row, measured with the final parameters; BWT is None for
    single-task runs and for last-row-only matrices.
    """

    strategy: str
    seed: int
    fde_matrix: np.ndarray
    mr_matrix: np.ndarray

    def __post_init__(self) -> None:
        pair = (("fde", self.fde_matrix), ("mr", self.mr_matrix))
        n = len(self.fde_matrix)
        if n < 1 or any(m.dtype != np.float64 or m.shape != (n, n) for _, m in pair):
            raise ValueError(
                "the fde and mr matrices must both be float64 (n, n) with n >= 1, not "
                + " and ".join(f"{m.dtype} {m.shape}" for _, m in pair)
            )
        recorded = np.tri(n, dtype=bool)
        if all(np.isnan(m[:-1]).all() for _, m in pair):
            recorded[:-1] = False
        for name, m in pair:  # NaN where an entry belongs, or a value where none does
            wrong = np.argwhere(np.isnan(m) == recorded)
            if len(wrong):
                i, j = (wrong[0] + 1).tolist()
                what = "was never recorded" if recorded[i - 1, j - 1] else "lies above the diagonal"
                raise ValueError(f"R[{i}, {j}] of the {name} matrix {what}")

    @property
    def per_task_fde(self) -> list[float]:
        return self.fde_matrix[-1].tolist()

    @property
    def per_task_mr(self) -> list[float]:
        return self.mr_matrix[-1].tolist()

    @property
    def fde_avg(self) -> float:
        return float(np.mean(self.fde_matrix[-1]))

    @property
    def mr_avg(self) -> float:
        return float(np.mean(self.mr_matrix[-1]))

    @property
    def fde_bwt(self) -> float | None:
        return bwt(self.fde_matrix, len(self.fde_matrix)) if self._has_checkpoints() else None

    @property
    def mr_bwt(self) -> float | None:
        return bwt(self.mr_matrix, len(self.mr_matrix)) if self._has_checkpoints() else None

    def _has_checkpoints(self) -> bool:
        return len(self.fde_matrix) >= 2 and not math.isnan(self.fde_matrix[0, 0])

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
            "n_tasks": len(self.fde_matrix),
            "fde_matrix": list(matrix_entries(self.fde_matrix)),
            "mr_matrix": list(matrix_entries(self.mr_matrix)),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def write_matrix_csv(matrix: np.ndarray, path: Path) -> None:
    """Flat CSV of a result matrix's recorded entries: after_task,
    tested_task, value."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["after_task", "tested_task", "value"])
        for i, j, v in matrix_entries(matrix):
            writer.writerow([i, j, repr(v)])


def read_matrix_csv(path: Path, n_tasks: int) -> np.ndarray:
    """Inverse of :func:`write_matrix_csv` for a run of ``n_tasks``
    tasks, the count its manifest lists: the file cannot size the
    matrix.  A row that is not three fields, an index that is not an
    integer, a non-finite value and an ``(after, tested)`` entry that
    is out of range or repeated raise a ValueError naming
    ``path:line``."""
    with open_text(path) as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["after_task", "tested_task", "value"]:
        raise ValueError(f"{path} is not a result-matrix CSV")
    matrix = np.full((n_tasks, n_tasks), np.nan)
    try:
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != 3:
                raise ValueError(f"{len(row)} fields, not 3")
            i, j, v = int(row[0]), int(row[1]), float(row[2])
            if not math.isfinite(v):
                raise ValueError(f"value {row[2]} is not finite")
            if not 1 <= i <= n_tasks:
                raise ValueError(f"after_task {i} out of range 1..{n_tasks}")
            if not 1 <= j <= i:
                raise ValueError(f"tested_task {j} must be in 1..after_task ({i})")
            if not math.isnan(matrix[i - 1, j - 1]):
                raise ValueError(f"R[{i}, {j}] is repeated")
            matrix[i - 1, j - 1] = v
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
    return matrix
