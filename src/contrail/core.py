"""Shared domain types and grid geometry.

Everything downstream (predictor, buffers, metrics, scenario generation)
speaks in terms of these types.  Coordinates are metric (meters, seconds);
velocities are instantaneous.  A prediction target is a single endpoint
``t_pred`` steps past the decision step ``t_c``, discretised onto a
rectangular grid of square cells.

Grid convention: cell ``(0, 0)`` has its corner at ``GridSpec.origin``,
rows index the y axis and columns the x axis, both row-major.

Every artifact file is written through :func:`atomic_write`.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "AgentState",
    "Frame",
    "GridSpec",
    "GroundTruth",
    "Heatmap",
    "ResultMatrix",
    "Sample",
    "Scene",
    "atomic_write",
    "cell_to_center",
    "endpoint_cells",
    "endpoint_to_cell",
    "local_endpoints",
    "scene_frame",
    "scene_frames",
    "softmax",
    "target_cell",
    "task_boundaries",
    "task_label_reads",
]


@dataclass(frozen=True)
class AgentState:
    """Pose of one agent at one timestep."""

    x: float
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class Scene:
    """Observed history for a target vehicle and its neighbors.

    ``tv_history`` holds ``t_obs`` states ending at the decision step
    ``t_c``.  ``sv_histories`` holds one equally long track per neighbor
    slot; slots whose ``sv_mask`` entry is False carry zero-filled
    padding and must be ignored by consumers.
    """

    tv_history: tuple[AgentState, ...]
    sv_histories: tuple[tuple[AgentState, ...], ...]
    sv_mask: tuple[bool, ...]
    t_c: int

    def __post_init__(self) -> None:
        if not self.tv_history:
            raise ValueError("tv_history must not be empty")
        if len(self.sv_histories) != len(self.sv_mask):
            raise ValueError("sv_histories and sv_mask lengths differ")
        t_obs = len(self.tv_history)
        for track in self.sv_histories:
            if len(track) != t_obs:
                raise ValueError("neighbor histories must match t_obs")
        if self.t_c != t_obs - 1:
            raise ValueError("t_c must index the last observed step")


@dataclass(frozen=True)
class GroundTruth:
    """Prediction target: endpoint at ``t_c + t_pred`` plus the target
    vehicle speed at ``t_c`` (used by the miss-rate threshold)."""

    endpoint: tuple[float, float]
    speed_v: float

    def __post_init__(self) -> None:
        if self.speed_v < 0:
            raise ValueError("speed_v must be non-negative")


class Sample:
    """One stream element: a scene, its ground truth, and a task label.

    The label is evaluation metadata only.  Reads through the public
    ``task_label`` attribute are counted so tests can audit that
    training-path code never looks at it; evaluation-side bookkeeping
    that is allowed to see labels goes through :func:`task_boundaries`.
    """

    __slots__ = ("scene", "truth", "_task_label")

    def __init__(self, scene: Scene, truth: GroundTruth, task_label: int):
        self.scene = scene
        self.truth = truth
        self._task_label = int(task_label)

    @property
    def task_label(self) -> int:
        global _LABEL_READS
        _LABEL_READS += 1
        return self._task_label

    def __repr__(self) -> str:
        return f"Sample(task_label={self._task_label}, t_c={self.scene.t_c})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.scene == other.scene
            and self.truth == other.truth
            and self._task_label == other._task_label
        )


_LABEL_READS = 0


def task_label_reads() -> int:
    """Monotone counter of ``Sample.task_label`` reads (audit hook)."""
    return _LABEL_READS


def task_boundaries(stream: list[Sample]) -> list[tuple[int, int]]:
    """Per-task extents of an ordered stream, as ``(label, end_index)``.

    ``end_index`` is exclusive.  This is evaluation-side bookkeeping (it
    bypasses the audited label accessor) used for checkpoint placement.
    Raises ValueError if labels are not monotonically non-decreasing.
    """
    if not stream:
        return []
    bounds: list[tuple[int, int]] = []
    current = stream[0]._task_label
    for i, sample in enumerate(stream):
        label = sample._task_label
        if label < current:
            raise ValueError(
                f"task labels must be non-decreasing along the stream; "
                f"saw {label} after {current} at index {i}"
            )
        if label != current:
            bounds.append((current, i))
            current = label
    bounds.append((current, len(stream)))
    return bounds


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the output heatmap: ``rows_h`` x ``cols_w`` square
    cells of ``cell_size`` meters, corner of cell (0, 0) at ``origin``."""

    rows_h: int
    cols_w: int
    origin: tuple[float, float]
    cell_size: float

    def __post_init__(self) -> None:
        if self.rows_h <= 0 or self.cols_w <= 0:
            raise ValueError("grid must have positive dimensions")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")

    @property
    def n_cells(self) -> int:
        return self.rows_h * self.cols_w


def endpoint_to_cell(point: tuple[float, float], grid: GridSpec) -> tuple[int, int]:
    """Cell whose center is nearest to ``point``.

    In-grid points map to their containing cell; points beyond the grid
    clamp to the nearest border cell.
    """
    x, y = point
    col = math.floor((x - grid.origin[0]) / grid.cell_size)
    row = math.floor((y - grid.origin[1]) / grid.cell_size)
    col = min(max(col, 0), grid.cols_w - 1)
    row = min(max(row, 0), grid.rows_h - 1)
    return row, col


def cell_to_center(cell: tuple[int, int], grid: GridSpec) -> tuple[float, float]:
    """Metric center of a grid cell; raises on out-of-range indices."""
    row, col = cell
    if not (0 <= row < grid.rows_h and 0 <= col < grid.cols_w):
        raise ValueError(f"cell {cell} outside {grid.rows_h}x{grid.cols_w} grid")
    x = grid.origin[0] + (col + 0.5) * grid.cell_size
    y = grid.origin[1] + (row + 0.5) * grid.cell_size
    return x, y


@dataclass(frozen=True)
class Frame:
    """Rigid 2-D frame: translate by ``origin`` then rotate by the
    heading whose cosine/sine are stored.  ``to_local`` maps world
    points into the frame; vectors (velocities) rotate without the
    translation."""

    origin: tuple[float, float]
    cos_h: float
    sin_h: float

    def to_local(self, point: tuple[float, float]) -> tuple[float, float]:
        dx = point[0] - self.origin[0]
        dy = point[1] - self.origin[1]
        return (
            dx * self.cos_h + dy * self.sin_h,
            -dx * self.sin_h + dy * self.cos_h,
        )

    def to_world(self, point: tuple[float, float]) -> tuple[float, float]:
        px, py = point
        return (
            self.origin[0] + px * self.cos_h - py * self.sin_h,
            self.origin[1] + px * self.sin_h + py * self.cos_h,
        )

    def vector_to_local(self, vec: tuple[float, float]) -> tuple[float, float]:
        vx, vy = vec
        return (
            vx * self.cos_h + vy * self.sin_h,
            -vx * self.sin_h + vy * self.cos_h,
        )


def scene_frame(scene: Scene) -> Frame:
    """Target-centric frame at the decision step: origin at the target
    vehicle's position, +x along its velocity.  A (near) stationary
    target keeps the world orientation."""
    tv = scene.tv_history[-1]
    speed = math.hypot(tv.vx, tv.vy)
    if speed < 1e-9:
        return Frame(origin=(tv.x, tv.y), cos_h=1.0, sin_h=0.0)
    return Frame(origin=(tv.x, tv.y), cos_h=tv.vx / speed, sin_h=tv.vy / speed)


def target_cell(scene: Scene, truth: GroundTruth, grid: GridSpec) -> tuple[int, int]:
    """Training target: the truth endpoint expressed in the scene's
    target-centric frame, snapped to the grid."""
    local = scene_frame(scene).to_local(truth.endpoint)
    return endpoint_to_cell(local, grid)


def float_rows(rows: Iterable[Iterable[float]], n: int, width: int) -> np.ndarray:
    """``n`` rows of ``width`` floats as an ``(n, width)`` array, read in
    one ``np.fromiter`` pass without an intermediate nested list."""
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.float64, count=n * width)
    return flat.reshape(n, width)


def scene_frames(scenes: Sequence[Scene]) -> np.ndarray:
    """Every scene's :func:`scene_frame` as one ``(n, 4)`` array of
    (origin x, origin y, cos, sin)."""
    frames = (
        (f.origin[0], f.origin[1], f.cos_h, f.sin_h) for f in map(scene_frame, scenes)
    )
    return float_rows(frames, len(scenes), 4)


def local_endpoints(frames: np.ndarray, endpoints: Sequence[tuple[float, float]]) -> np.ndarray:
    """World endpoints moved into their :func:`scene_frames` rows,
    shape ``(n, 2)``; elementwise the same arithmetic as
    ``Frame.to_local``, so bit-equal to it."""
    points = float_rows(endpoints, len(frames), 2)
    dx = points[:, 0] - frames[:, 0]
    dy = points[:, 1] - frames[:, 1]
    cos_h, sin_h = frames[:, 2], frames[:, 3]
    return np.stack([dx * cos_h + dy * sin_h, -dx * sin_h + dy * cos_h], axis=1)


def endpoint_cells(points: np.ndarray, grid: GridSpec) -> np.ndarray:
    """:func:`endpoint_to_cell` of every row of ``points`` ``(n, 2)`` as
    flat cell indices ``row * cols_w + col``, shape ``(n,)``.  Applied to
    :func:`local_endpoints` this is :func:`target_cell` of each sample."""
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite endpoint cannot be snapped to the grid")
    col = np.clip(np.floor((points[:, 0] - grid.origin[0]) / grid.cell_size), 0, grid.cols_w - 1)
    row = np.clip(np.floor((points[:, 1] - grid.origin[1]) / grid.cell_size), 0, grid.rows_h - 1)
    return (row * grid.cols_w + col).astype(np.intp)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the cells of each heatmap in a stack ``(n, ...)``:
    every entry of a row is shifted by the row's maximum, exponentiated
    and divided by the row's sum."""
    flat = logits.reshape(len(logits), -1)
    e = np.exp(flat - flat.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(logits.shape)


@dataclass
class Heatmap:
    """Unnormalised endpoint scores over a grid.  ``logits`` has shape
    ``(rows_h, cols_w)``; ``probabilities`` is the softmax view."""

    logits: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.shape != (self.grid.rows_h, self.grid.cols_w):
            raise ValueError(
                f"logits shape {self.logits.shape} does not match grid "
                f"({self.grid.rows_h}, {self.grid.cols_w})"
            )
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("heatmap logits must be finite")

    def probabilities(self) -> np.ndarray:
        return softmax(self.logits[None])[0]


class ResultMatrix:
    """Lower-triangular task-incremental results: ``R[i, j]`` is the
    metric on task ``j`` measured after finishing training task ``i``
    (1-indexed, ``j <= i``)."""

    def __init__(self, n_tasks: int):
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        self.n_tasks = n_tasks
        self._values: dict[tuple[int, int], float] = {}

    def set(self, after_task: int, tested_task: int, value: float) -> None:
        self._check_indices(after_task, tested_task)
        self._values[(after_task, tested_task)] = float(value)

    def get(self, after_task: int, tested_task: int) -> float:
        self._check_indices(after_task, tested_task)
        key = (after_task, tested_task)
        if key not in self._values:
            raise KeyError(f"R[{after_task}, {tested_task}] was never recorded")
        return self._values[key]

    def has(self, after_task: int, tested_task: int) -> bool:
        return (after_task, tested_task) in self._values

    def final_row(self) -> list[float]:
        return [self.get(self.n_tasks, j) for j in range(1, self.n_tasks + 1)]

    def entries(self) -> list[tuple[int, int, float]]:
        return [(i, j, v) for (i, j), v in sorted(self._values.items())]

    def _check_indices(self, after_task: int, tested_task: int) -> None:
        if not (1 <= after_task <= self.n_tasks):
            raise ValueError(f"after_task {after_task} out of range 1..{self.n_tasks}")
        if not (1 <= tested_task <= after_task):
            raise ValueError(
                f"tested_task {tested_task} must be in 1..after_task ({after_task})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultMatrix):
            return NotImplemented
        return self.n_tasks == other.n_tasks and self._values == other._values


@contextmanager
def atomic_write(path: Path | str) -> Iterator[TextIO]:
    """Open ``path`` for writing text so that it appears whole or not at
    all: the block writes a temp file in the same directory, which
    replaces ``path`` when the block ends and is removed if it raises.
    Newlines are written as given."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
