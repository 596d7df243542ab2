"""Checkpoint files: parameters, optimizer state, and buffer contents.

One JSON document per checkpoint.  Every float array (the parameters,
the Adam moments, the buffers' stored rows, logits and scores) is a
``{"dtype": "<f8", "shape": [...], "data": ...}`` block whose data is
the base64 of its little-endian float64 bytes, so a save/load cycle is
bit-exact and two saves of the same state give the same bytes.  A
buffer stores its slots as columns, the :class:`~contrail.core.SampleTable`
columns of its stored rows packed as they are: ``x`` (n, input_dim),
``ends`` (n, 2), ``speeds`` (n,) and ``logits`` (n, rows_h, cols_w),
and for the separation buffer its ``scores`` (n,).
The target cells are not stored: a load derives them from ``ends``
and the grid, as encoding does.  The architecture header, with the
trained ``t_pred``, lets a loader rebuild the predictor without outside
context, and the optional buffer dump makes a checkpoint a full
run-resumption unit.  v1, v2 and v3 files are refused by name.

A save streams the document into the file with the bytes ``json.dump``
would write: the header, keys and scalars go through ``json.dumps``,
and each block's base64 is written a chunk of ``CHUNK_FLOATS`` floats
at a time (whole 3-byte groups, so the chunks join into one base64
string).  No array's whole base64 string is ever built, and a
buffer's columns are gathered only when the writer reaches them.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from functools import partial
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import GridSpec, SampleTable, atomic_write, endpoint_cells, from_json, json_object, open_text
from .memory import CompletionBuffer, SeparationBuffer
from .predictor import AdamState, HeatmapPredictor, PredictorConfig

__all__ = ["load_checkpoint", "save_checkpoint"]

FORMAT = "contrail-checkpoint-v4"


# 73,728 bytes, a multiple of 3: about 96 KB of base64 per write.
CHUNK_FLOATS = 9_216


def _write_block(fh: TextIO, array: np.ndarray) -> None:
    """Write ``array`` as a packed float block, its base64 in chunks.
    The base64 alphabet and ``=`` need no JSON escaping, so each chunk
    is written as it is encoded."""
    data = np.ascontiguousarray(array, dtype="<f8")
    fh.write(f'{{"dtype": "<f8", "shape": {json.dumps(list(data.shape))}, "data": "')
    flat = data.reshape(-1)
    for start in range(0, flat.size, CHUNK_FLOATS):
        fh.write(base64.b64encode(flat[start : start + CHUNK_FLOATS]).decode("ascii"))
    fh.write('"}')


def _write(fh: TextIO, value) -> None:
    """Write ``value`` as ``json.dump(value, fh)`` would, with each float
    array as a packed block.  A callable stands for the value it
    returns, so what it gathers is alive only while it is written."""
    if callable(value):
        value = value()
    if isinstance(value, np.ndarray):
        _write_block(fh, value)
    elif isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write(fh, item)
        fh.write("}")
    else:
        fh.write(json.dumps(value))


# The keys of each optional part of the document, in the order they are
# written; a part may be null.  ``items`` holds a buffer's columns and
# every other key the attribute of that name.
_PARTS = {
    "adam": ("m", "v", "t"),
    "separation": ("capacity", "b_compare", "stream_count", "items"),
    "completion": ("capacity", "stream_count", "items"),
}


def _columns(buffer: SeparationBuffer | CompletionBuffer, grid: GridSpec) -> dict:
    """A buffer's stored rows and logits, and a separation buffer's
    scores, as one column per field."""
    rows, logits = buffer.contents()
    columns = {
        "x": rows.x,
        "ends": rows.ends,
        "speeds": rows.speeds,
        "logits": logits.reshape(len(rows), grid.rows_h, grid.cols_w),
    }
    if isinstance(buffer, SeparationBuffer):
        columns["scores"] = buffer.scores
    return columns


def save_checkpoint(
    path: Path | str,
    config: PredictorConfig,
    params: np.ndarray,
    adam: AdamState | None = None,
    separation: SeparationBuffer | None = None,
    completion: CompletionBuffer | None = None,
) -> None:
    payload: dict = {"format": FORMAT, "config": dataclasses.asdict(config), "params": params}
    for (name, keys), state in zip(_PARTS.items(), (adam, separation, completion)):
        # A buffer's columns are gathered only when the writer reaches them.
        payload[name] = None if state is None else {
            key: partial(_columns, state, config.grid) if key == "items" else getattr(state, key) for key in keys
        }
    # Streamed into the file: neither the document nor any block's base64
    # is held as one string.
    with atomic_write(path) as fh:
        _write(fh, payload)


@dataclasses.dataclass(frozen=True)
class _Block:  # a packed float block's fields, as ``_write_block`` writes them
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


def _slots(
    cls: type, block: dict, config: PredictorConfig, what: str, **fields
) -> SeparationBuffer | CompletionBuffer:
    """A buffer rebuilt from its header and stored columns: the columns
    become one source table whose row ``s`` slot ``s`` holds, with the
    separation buffer's ``scores``.  Both buffers append while below
    capacity, so one that has seen ``stream_count`` samples holds
    ``min(capacity, stream_count)`` slots, and every column must hold
    that many rows."""
    capacity = _count(block, "capacity", what, 1)
    stream_count = _count(block, "stream_count", what, 0)
    n, grid = min(capacity, stream_count), config.grid
    shapes = {"x": (n, config.input_dim), "ends": (n, 2), "speeds": (n,), "logits": (n, grid.rows_h, grid.cols_w)}
    if cls is SeparationBuffer:
        shapes["scores"] = (n,)
    items = json_object(block["items"], shapes, f"{what}.items")
    x, ends, speeds, logits, *scores = (_floats(items[k], shape, f"{what}.{k}") for k, shape in shapes.items())
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


def _decode(data: dict, params_only: bool) -> tuple:
    config = _header(PredictorConfig, data["config"], "config")
    params = _floats(data["params"], (HeatmapPredictor(config).param_count,), "params")
    if params_only:
        return config, params, None, None, None
    a, s, c = (None if data[k] is None else json_object(data[k], keys, k) for k, keys in _PARTS.items())
    adam = None if a is None else AdamState(
        m=_floats(a["m"], params.shape, "adam.m"),
        v=_floats(a["v"], params.shape, "adam.v"),
        t=_count(a, "t", "adam", 0),
    )
    separation = None if s is None else _slots(
        SeparationBuffer, s, config, "separation", b_compare=_count(s, "b_compare", "separation", 1)
    )
    completion = None if c is None else _slots(CompletionBuffer, c, config, "completion")
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
    """Inverse of ``save_checkpoint``; only ``contrail-checkpoint-v4``
    files load, and a v1, v2 or v3 file is rejected by name.  A loaded
    buffer's slots index one table of the rows read from the file,
    whose target cells derive from the stored ``ends`` and whose task
    labels, never stored, read 0.  With ``params_only`` (all that
    evaluation needs) only the header and parameters are decoded; the
    optimizer state and buffers come back as None, unbuilt.  A file of
    another format, a file that is not JSON, a missing key (``t_pred``
    included), a header field of the wrong JSON type (named as in
    ``config.t_obs``), a part that is not a JSON object or holds an
    unknown key (named as in ``adam.m``; ``adam``, ``separation`` and
    ``completion`` may be null), any array that is non-finite,
    undecodable or does not fit the header's geometry (the parameters,
    the Adam moments and every buffer column, each holding
    ``min(capacity, stream_count)`` rows), a negative stored speed, and
    a ``capacity``, ``b_compare`` or ``stream_count`` that is not an int
    (at least 1, 1 and 0) raise a ValueError that starts with
    ``path``."""
    with open_text(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bytes that are not UTF-8 too
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    try:
        return _decode(data, params_only)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
