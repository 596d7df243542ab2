"""Checkpoint files: parameters, optimizer state, and buffer contents.

One JSON value per line, so that a reader can stop early.  Line 1 is
the header: the ``format``, the predictor ``config`` and, for each
optional part (``adam``, ``separation``, ``completion``), its scalar
fields (Adam's ``t``; a buffer's ``capacity``, ``stream_count`` and the
separation buffer's ``b_compare``), or null for an absent part.  Every
further line holds one float block, ``{"<part>": {"dtype": "<f8",
"shape": [...], "data": ...}}``, whose data is the base64 of its
little-endian float64 bytes, so a save/load cycle is bit-exact and two
saves of the same state give the same bytes.  The blocks come in a
fixed order: ``params``; ``adam.m`` and ``adam.v``; the separation
buffer's ``x`` (n, input_dim), ``ends`` (n, 2), ``speeds`` (n,),
``logits`` (n, rows_h, cols_w) and ``scores`` (n,); the completion
buffer's ``x``, ``ends``, ``speeds`` and ``logits``.  A buffer's
columns are the :class:`~contrail.core.SampleTable` columns of its
stored rows, packed as they are.  The target cells are not stored: a
load derives them from ``ends`` and the grid, as encoding does.  The
architecture header, with the trained ``t_pred``, lets a loader rebuild
the predictor without outside context, and the optional buffer dump
makes a checkpoint a full run-resumption unit.  v1 to v4 files are
refused by name; a v4 file is one JSON document on one line, so its
first line fails the format check.

A save streams the lines into the file: the header goes through
``json.dumps``, and each block's base64 is written a chunk of
``CHUNK_FLOATS`` floats at a time (whole 3-byte groups, so the chunks
join into one base64 string).  No array's whole base64 string is ever
built, and a buffer's columns are gathered only when the writer reaches
them.  A load reads one line at a time and decodes each block before it
reads the next, so it holds one block's text at a time; evaluation
reads the header and the parameters, two lines, and stops.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import GridSpec, SampleTable, atomic_write, endpoint_cells, from_json, json_object, open_text
from .memory import CompletionBuffer, SeparationBuffer
from .predictor import AdamState, HeatmapPredictor, PredictorConfig

__all__ = ["load_checkpoint", "save_checkpoint"]

FORMAT = "contrail-checkpoint-v5"


# 73,728 bytes, a multiple of 3: about 96 KB of base64 per write.
CHUNK_FLOATS = 9_216

# Each optional part's scalar fields, which the header holds, and its
# float blocks, one line each after the parameters, in file order.
_PARTS = {
    "adam": (("t",), ("m", "v")),
    "separation": (("capacity", "b_compare", "stream_count"), ("x", "ends", "speeds", "logits", "scores")),
    "completion": (("capacity", "stream_count"), ("x", "ends", "speeds", "logits")),
}


def _write_line(fh: TextIO, part: str, array: np.ndarray) -> None:
    """Write the line ``{part: block}``, ``array`` as a packed float
    block, its base64 in chunks.  The base64 alphabet and ``=`` need no
    JSON escaping, so each chunk is written as it is encoded."""
    data = np.ascontiguousarray(array, dtype="<f8")
    fh.write(f'{{{json.dumps(part)}: {{"dtype": "<f8", "shape": {json.dumps(list(data.shape))}, "data": "')
    flat = data.reshape(-1)
    for start in range(0, flat.size, CHUNK_FLOATS):
        fh.write(base64.b64encode(flat[start : start + CHUNK_FLOATS]).decode("ascii"))
    fh.write('"}}\n')


def _blocks(state: AdamState | SeparationBuffer | CompletionBuffer, grid: GridSpec) -> dict[str, np.ndarray]:
    """An optional part's float blocks in file order: Adam's moments, or
    a buffer's stored rows and logits, and a separation buffer's scores,
    as one column per field."""
    if isinstance(state, AdamState):
        return {"m": state.m, "v": state.v}
    rows, logits = state.contents()
    columns = {
        "x": rows.x,
        "ends": rows.ends,
        "speeds": rows.speeds,
        "logits": logits.reshape(len(rows), grid.rows_h, grid.cols_w),
    }
    if isinstance(state, SeparationBuffer):
        columns["scores"] = state.scores
    return columns


def save_checkpoint(
    path: Path | str,
    config: PredictorConfig,
    params: np.ndarray,
    adam: AdamState | None = None,
    separation: SeparationBuffer | None = None,
    completion: CompletionBuffer | None = None,
) -> None:
    states = dict(zip(_PARTS, (adam, separation, completion)))
    header = {"format": FORMAT, "config": dataclasses.asdict(config)}
    for name, state in states.items():
        header[name] = None if state is None else {key: getattr(state, key) for key in _PARTS[name][0]}
    # Streamed into the file: no block's base64 is held as one string,
    # and a buffer's columns are gathered only when the writer reaches it.
    with atomic_write(path) as fh:
        fh.write(json.dumps(header) + "\n")
        _write_line(fh, "params", params)
        for name, state in states.items():
            if state is not None:
                for key, array in _blocks(state, config.grid).items():
                    _write_line(fh, f"{name}.{key}", array)


@dataclasses.dataclass(frozen=True)
class _Block:  # a packed float block's fields, as ``_write_line`` writes them
    dtype: str
    shape: tuple[int, ...]
    data: str


def _floats(value: object, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Decode the packed float block ``value`` to a finite float64 array
    of ``shape``."""
    block = _header(_Block, value, what)
    if block.dtype != "<f8":
        raise ValueError(f"{what} has dtype {block.dtype!r}, not '<f8'")
    try:
        raw = base64.b64decode(block.data, validate=True)
    except ValueError as exc:
        raise ValueError(f"{what}.data is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(block.shape):
        raise ValueError(f"{what} holds {len(raw)} bytes, which do not fit shape {list(block.shape)}")
    array = np.frombuffer(raw, dtype="<f8").reshape(block.shape).astype(np.float64)
    if array.shape != shape:
        raise ValueError(f"{what} has shape {array.shape}, the header's geometry needs {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{what} holds non-finite values")
    return array


def _count(block: dict, key: str, what: str, least: int) -> int:
    """``block[key]``, which must be an int (not a bool) of at least
    ``least``."""
    value = block[key]
    if type(value) is not int or value < least:
        raise ValueError(f"{what}.{key} is {value!r}, not an int >= {least}")
    return value


class _Lines:
    """The block lines of an open checkpoint, after its header, read and
    decoded one at a time, so that only one line's text is held."""

    def __init__(self, fh: TextIO):
        self.fh, self.number, self.last = fh, 1, "the header"

    def floats(self, part: str, shape: tuple[int, ...]) -> np.ndarray:
        """The next line, which must be ``{part: block}``, with its block
        decoded by ``_floats``."""
        self.number += 1
        where = f"{part} (line {self.number})"
        text = self.fh.readline()
        if not text:
            raise ValueError(f"{where} is missing: the file ends")
        try:
            line = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"{where} is not JSON: {exc}") from None
        del text
        block = json_object(line, [part], where)[part]
        self.last = part
        return _floats(block, shape, part)

    def end(self) -> None:
        """Check that no line follows the last one read."""
        if self.fh.readline():
            raise ValueError(f"line {self.number + 1} follows {self.last}, the last part the header names")


def _slots(
    cls: type, block: dict, lines: _Lines, config: PredictorConfig, what: str, **fields
) -> SeparationBuffer | CompletionBuffer:
    """A buffer rebuilt from its header fields and the column lines that
    follow: the columns become one source table whose row ``s`` slot
    ``s`` holds, with the separation buffer's ``scores``.  Both buffers
    append while below capacity, so one that has seen ``stream_count``
    samples holds ``min(capacity, stream_count)`` slots, and every
    column must hold that many rows."""
    capacity = _count(block, "capacity", what, 1)
    stream_count = _count(block, "stream_count", what, 0)
    n, grid = min(capacity, stream_count), config.grid
    shapes = {
        "x": (n, config.input_dim),
        "ends": (n, 2),
        "speeds": (n,),
        "logits": (n, grid.rows_h, grid.cols_w),
        "scores": (n,),
    }
    x, ends, speeds, logits, *scores = (lines.floats(f"{what}.{k}", shapes[k]) for k in _PARTS[what][1])
    if np.any(speeds < 0):
        raise ValueError(f"{what}.speeds holds a negative speed")
    source = SampleTable(x, endpoint_cells(ends, grid), ends, speeds, np.zeros(n, dtype=np.int64))
    buffer = cls(
        capacity=capacity, source=source, n_cells=grid.n_cells, stream_count=stream_count, **fields
    )
    buffer.fill(np.arange(n), logits.reshape(n, grid.n_cells), *scores)
    return buffer


def _header(cls: type, data: object, where: str):
    """``cls`` read from the header object ``data`` by
    ``core.from_json``, a field that is a ``GridSpec`` likewise; every
    field is required."""
    fields = dataclasses.fields(cls)
    header = json_object(data, [f.name for f in fields], where)
    for f in fields:
        if f.name not in header:
            raise KeyError(f.name)
    grids = {f.name: _header(GridSpec, header[f.name], f"{where}.{f.name}") for f in fields if f.type == "GridSpec"}
    return from_json(cls, header, f"{where}.", **grids)


def _decode(header: dict, lines: _Lines, params_only: bool) -> tuple:
    json_object(header, ["format", "config", *_PARTS], "the header")
    config = _header(PredictorConfig, header["config"], "config")
    params = lines.floats("params", (HeatmapPredictor(config).param_count,))
    if params_only:
        return config, params, None, None, None
    a, s, c = (None if header[k] is None else json_object(header[k], keys, k) for k, (keys, _) in _PARTS.items())
    adam = None if a is None else AdamState(
        m=lines.floats("adam.m", params.shape),
        v=lines.floats("adam.v", params.shape),
        t=_count(a, "t", "adam", 0),
    )
    separation = None if s is None else _slots(
        SeparationBuffer, s, lines, config, "separation", b_compare=_count(s, "b_compare", "separation", 1)
    )
    completion = None if c is None else _slots(CompletionBuffer, c, lines, config, "completion")
    lines.end()
    return config, params, adam, separation, completion


def load_checkpoint(
    path: Path | str,
    params_only: bool = False,
) -> tuple[
    PredictorConfig,
    np.ndarray,
    AdamState | None,
    SeparationBuffer | None,
    CompletionBuffer | None,
]:
    """Inverse of ``save_checkpoint``; only ``contrail-checkpoint-v5``
    files load, and a v1, v2, v3 or v4 file is rejected by name.  A
    loaded buffer's slots index one table of the rows read from the
    file, whose target cells derive from the stored ``ends`` and whose
    task labels, never stored, read 0.  With ``params_only`` (all that
    evaluation needs) only the header and the parameters, the first two
    lines, are read; the optimizer state and buffers come back as None,
    unbuilt.  A file that is not UTF-8 text or of another format, a
    line that is not JSON, a missing key (``t_pred`` included), a header
    field of the wrong JSON type (named as in ``config.t_obs``), a part
    that is not a JSON object or holds an unknown key (named as in
    ``adam.m``; ``adam``, ``separation`` and ``completion`` may be
    null), a block line that is missing, misplaced or beyond the last
    part the header names (named for the part expected there, as in
    ``adam.m (line 3)``), any array that is non-finite, undecodable or
    does not fit the header's geometry (the parameters, the Adam moments
    and every buffer column, each holding ``min(capacity,
    stream_count)`` rows), a negative stored speed, and a ``capacity``,
    ``b_compare`` or ``stream_count`` that is not an int (at least 1, 1
    and 0) raise a ValueError that starts with ``path``."""
    with open_text(path) as fh:
        try:
            header = json.loads(fh.readline())
        except UnicodeDecodeError:
            raise  # named by open_text
        except ValueError as exc:
            raise ValueError(f"{path}: line 1 is not JSON: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise ValueError(f"{path} is not a {FORMAT} file")
        try:
            return _decode(header, _Lines(fh), params_only)
        except UnicodeDecodeError:
            raise
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint lacks the key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
