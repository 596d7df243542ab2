"""Shared domain types and grid geometry.

Everything downstream (predictor, buffers, metrics, scenario generation)
speaks in terms of these types.  Scenario generation and CSV ingestion
write samples as rows of a world-frame :class:`Scenes` table; the
predictor encodes each into a row of a :class:`SampleTable`, the one
representation of a sample from then on: the trainer, the buffers and
the checkpoint select its rows.  Coordinates are metric (meters,
seconds); velocities are instantaneous.  A prediction target is a
single endpoint ``t_pred`` steps past the decision step ``t_c``,
discretised onto a rectangular grid of square cells.

Grid convention: cell ``(0, 0)`` has its corner at ``GridSpec.origin``,
rows index the y axis and columns the x axis, both row-major.

Every artifact file is written through :func:`atomic_write`, every
outside text file is read through :func:`open_text`, and every
outside JSON object (a config's parts, a checkpoint's header)
becomes a dataclass through :func:`json_object` and :func:`from_json`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "ConfigError",
    "GridSpec",
    "SampleTable",
    "Scenes",
    "atomic_write",
    "endpoint_cells",
    "from_json",
    "hypot_rows",
    "json_object",
    "local_endpoints",
    "open_text",
    "scene_frames",
    "softmax",
    "task_boundaries",
    "task_label_reads",
]


class _Rows:
    """Row selection shared by the sample tables: every field is one
    column, row-aligned with the first."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def take(self, rows: np.ndarray):
        """The table of ``rows``, in that order."""
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, tables: Sequence):
        """The rows of ``tables``, one after the other."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)))


@dataclass(frozen=True, eq=False)
class Scenes(_Rows):
    """Samples in the world frame, one row per sample, as generation and
    ingestion write them.

    ``tv`` (n, t_obs, 4) holds the target vehicle's observed states
    (x, y, vx, vy) ending at the decision step; ``svs`` (n, k_sv, t_obs,
    4) one equally long track per neighbor slot, whose ``mask`` (n, k_sv)
    entry is False for zero-filled padding that consumers must ignore.
    ``ends`` (n, 2) is the truth endpoint ``t_pred`` steps past the
    decision step.  ``labels`` (n,) are the task labels, which
    :meth:`~contrail.predictor.HeatmapPredictor.encode` copies into the
    table it returns; the target's speed there is derived, by
    :func:`scene_frames`, from its velocity at the decision step.
    """

    tv: np.ndarray
    svs: np.ndarray
    mask: np.ndarray
    ends: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        n, t_obs = self.tv.shape[:2] if self.tv.ndim == 3 else (-1, -1)
        if t_obs < 1 or self.tv.shape[2] != 4:
            raise ValueError(f"tv has shape {self.tv.shape}, not (n, t_obs >= 1, 4)")
        k_sv = self.mask.shape[1] if self.mask.ndim == 2 else -1
        if self.mask.dtype != bool or self.mask.shape != (n, k_sv):
            raise ValueError(f"mask must be (n, k_sv) bools, not {self.mask.dtype} {self.mask.shape}")
        for name, shape in (("svs", (n, k_sv, t_obs, 4)), ("ends", (n, 2)), ("labels", (n,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, the tv and mask need {shape}")


@dataclass(frozen=True, eq=False)
class SampleTable(_Rows):
    """Samples as the model reads them, one row per sample: the network
    input ``x``, the flat target cell ``cells`` (``row * cols_w + col``),
    the truth endpoint in the scene's target-centric frame ``ends`` and
    the target speed ``speeds``.  Training selects rows by index;
    evaluation scores whole tables.

    The task labels (n,) are evaluation metadata.  Reads through
    :meth:`task_label` are counted so tests can audit that training-path
    code never looks at them; evaluation-side bookkeeping that is
    allowed to see labels goes through :func:`task_boundaries`.
    """

    x: np.ndarray
    cells: np.ndarray
    ends: np.ndarray
    speeds: np.ndarray
    _labels: np.ndarray = field(repr=False)

    def task_label(self, row: int) -> int:
        """The task label of ``row``; every call counts as one read."""
        global _LABEL_READS
        _LABEL_READS += 1
        return int(self._labels[row])


_LABEL_READS = 0


def task_label_reads() -> int:
    """Monotone counter of :meth:`SampleTable.task_label` reads (audit hook)."""
    return _LABEL_READS


def task_boundaries(table: SampleTable) -> list[tuple[int, int]]:
    """Per-task extents of an ordered stream, as ``(label, end_index)``.

    ``end_index`` is exclusive.  This is evaluation-side bookkeeping (it
    bypasses the audited label accessor) used for checkpoint placement.
    Raises ValueError if labels are not monotonically non-decreasing.
    """
    labels = table._labels.tolist()
    if not labels:
        return []
    bounds: list[tuple[int, int]] = []
    current = labels[0]
    for i, label in enumerate(labels):
        if label < current:
            raise ValueError(
                f"task labels must be non-decreasing along the stream; "
                f"saw {label} after {current} at index {i}"
            )
        if label != current:
            bounds.append((current, i))
            current = label
    bounds.append((current, len(labels)))
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
        if not (0 < self.cell_size < math.inf):
            raise ValueError(f"cell_size is {self.cell_size}: it must be positive and finite")
        if len(self.origin) != 2 or not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in self.origin):
            raise ValueError(f"origin is {list(self.origin)}: it must be two finite numbers (x, y)")

    @property
    def n_cells(self) -> int:
        return self.rows_h * self.cols_w


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _one(*types: type) -> Callable[[object], bool]:
    return lambda value: type(value) in types


def _listed(*types: type) -> Callable[[object], bool]:
    return lambda value: type(value) is list and all(type(v) in types for v in value)


# What a field of each annotation reads from JSON: the test its value
# must pass, what the error says it must be, and its Python value.  A
# bool is not an int, nor a string a number or a list, so nothing is
# truncated or split.
JSON_FIELDS: dict[str, tuple[Callable[[object], bool], str, Callable]] = {
    "int": (_one(int), "an integer", int),
    "int | None": (_one(int, type(None)), "an integer", lambda value: value),
    "float": (_one(int, float), "a number", float),
    "str": (_one(str), "a string", str),
    "tuple[float, float]": (_listed(int, float), "a list of numbers", lambda value: tuple(map(float, value))),
    "tuple[int, ...]": (_listed(int), "a list of integers", tuple),
}


def json_object(data: object, keys: Iterable[str], where: str) -> dict:
    """``data`` if it is a JSON object whose keys are all in ``keys``;
    else a ConfigError names ``where``."""
    if type(data) is not dict:
        raise ConfigError(f"{where} is {json.dumps(data)}: it must be a JSON object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return data


def from_json(cls: type, obj: dict, prefix: str, **given):
    """The dataclass ``cls`` built from the fields in ``given`` and from
    the entries of the JSON object ``obj`` named for its other fields; a
    field in neither keeps its default.  A field without a default that
    neither holds, or a value of the wrong JSON type for its field's
    annotation (see ``JSON_FIELDS``), is a ConfigError that names the
    key after ``prefix``."""
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{prefix}{f.name} is required")
            continue
        check, what, convert = JSON_FIELDS[f.type]
        if not check(obj[f.name]):
            raise ConfigError(f"{prefix}{f.name} is {json.dumps(obj[f.name])}: it must be {what}")
        values[f.name] = convert(obj[f.name])
    return cls(**values)


def hypot_rows(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each pair of ``dx`` and ``dy``, whose last bit
    ``np.hypot`` does not always match."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64, count=len(dx))


def scene_frames(scenes: Scenes) -> np.ndarray:
    """Every row's target-centric frame at the decision step as one
    ``(n, 5)`` array of (origin x, origin y, cos, sin, speed): origin at
    the target vehicle's position, +x along its velocity, and the
    target's speed, :func:`hypot_rows` of that velocity.  A (near)
    stationary target keeps the world orientation."""
    last = scenes.tv[:, -1]
    vx, vy = last[:, 2], last[:, 3]
    speed = hypot_rows(vx, vy)
    still = speed < 1e-9
    divisor = np.where(still, 1.0, speed)
    cos_h = np.where(still, 1.0, vx / divisor)
    sin_h = np.where(still, 0.0, vy / divisor)
    return np.stack([last[:, 0], last[:, 1], cos_h, sin_h, speed], axis=1)


def local_endpoints(frames: np.ndarray, points: np.ndarray) -> np.ndarray:
    """World points ``(n, 2)`` moved into their :func:`scene_frames`
    rows: translated to the origin, then rotated by the heading."""
    dx = points[:, 0] - frames[:, 0]
    dy = points[:, 1] - frames[:, 1]
    cos_h, sin_h = frames[:, 2], frames[:, 3]
    return np.stack([dx * cos_h + dy * sin_h, -dx * sin_h + dy * cos_h], axis=1)


def endpoint_cells(points: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The grid cell of every row of ``points`` ``(n, 2)`` as flat cell
    indices ``row * cols_w + col``, shape ``(n,)``: the floor of the
    offset from ``origin`` in cells, clamped to the border cell, so an
    in-grid point maps to its containing cell (the one whose center is
    nearest) and a point beyond the grid to the nearest border cell.
    Applied to :func:`local_endpoints` this is each sample's training
    target."""
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


@contextmanager
def atomic_write(path: Path | str) -> Iterator[TextIO]:
    """Open ``path`` for writing text so that it appears whole or not at
    all: the block writes a temp file in the same directory, which
    replaces ``path`` when the block ends and is removed if it raises.
    Newlines are written as given, in UTF-8."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_text(path: Path | str, error: type[ValueError] = ValueError) -> Iterator[TextIO]:
    """Open the outside file ``path`` to read UTF-8 text, newlines as
    given.  A path that cannot be opened, such as a directory, and bytes
    that are not UTF-8 raise ``error`` with a message that starts with
    ``path``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None

