"""Checkpoint files: parameters, optimizer state, and buffer contents.

One JSON document per checkpoint.  Every float array (the parameters,
the Adam moments, the buffers' stored rows and logits) is a
``{"dtype": "<f8", "shape": [...], "data": ...}`` block whose data is
the base64 of its little-endian float64 bytes, so a save/load cycle is
bit-exact and two saves of the same state give the same bytes.  A
buffer stores its slots as columns, the :class:`~contrail.core.SampleTable`
columns of its stored rows packed as they are: ``x`` (n, input_dim),
``ends`` (n, 2), ``speeds`` (n,) and ``logits`` (n, rows_h, cols_w).
The target cells are not stored: a load derives them from ``ends``
and the grid, as encoding does.  The architecture header lets a loader
rebuild the predictor without outside context, and the optional buffer
dump makes a checkpoint a full run-resumption unit.

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

from .core import GridSpec, SampleTable, atomic_write, endpoint_cells, from_json, json_object
from .memory import CompletionBuffer, SeparationBuffer
from .predictor import AdamState, HeatmapPredictor, PredictorConfig

__all__ = ["load_checkpoint", "save_checkpoint"]

FORMAT = "contrail-checkpoint-v3"


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


def _columns(buffer: SeparationBuffer | CompletionBuffer, grid: GridSpec) -> dict:
    """A buffer's stored rows and logits as one column per field."""
    rows, logits = buffer.contents()
    return {
        "x": rows.x,
        "ends": rows.ends,
        "speeds": rows.speeds,
        "logits": logits.reshape(len(rows), grid.rows_h, grid.cols_w),
    }


def save_checkpoint(
    path: Path | str,
    config: PredictorConfig,
    params: np.ndarray,
    adam: AdamState | None = None,
    separation: SeparationBuffer | None = None,
    completion: CompletionBuffer | None = None,
) -> None:
    payload: dict = {
        "format": FORMAT,
        "config": dataclasses.asdict(config),
        "params": params,
        "adam": None if adam is None else {"m": adam.m, "v": adam.v, "t": adam.t},
        "separation": None
        if separation is None
        else {
            "capacity": separation.capacity,
            "b_compare": separation.b_compare,
            "stream_count": separation.stream_count,
            "scores": separation.scores.tolist(),
            "items": partial(_columns, separation, config.grid),
        },
        "completion": None
        if completion is None
        else {
            "capacity": completion.capacity,
            "stream_count": completion.stream_count,
            "items": partial(_columns, completion, config.grid),
        },
    }
    # Streamed into the file: neither the document nor any block's base64
    # is held as one string, and a buffer's columns are gathered only
    # when the writer reaches them.
    with atomic_write(path) as fh:
        _write(fh, payload)


def _floats(value: dict, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Decode one packed float block to a finite float64 array of
    ``shape``."""
    if value["dtype"] != "<f8":
        raise ValueError(f"{what} has dtype {value['dtype']!r}, not '<f8'")
    raw = base64.b64decode(value["data"], validate=True)
    stored = tuple(value["shape"])
    if len(raw) != 8 * math.prod(stored):
        raise ValueError(f"{what} holds {len(raw)} bytes, which do not fit shape {list(stored)}")
    array = np.frombuffer(raw, dtype="<f8").reshape(stored).astype(np.float64)
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
    cls: type, block: dict, config: PredictorConfig, what: str, scores: list | None = None, **fields
) -> SeparationBuffer | CompletionBuffer:
    """A buffer rebuilt from its header and stored columns: the columns
    become one source table whose row ``s`` slot ``s`` holds, with the
    separation ``scores`` if given.  Both buffers append while below
    capacity, so one that has seen ``stream_count`` samples holds
    ``min(capacity, stream_count)`` slots, and every column must hold
    that many rows."""
    capacity = _count(block, "capacity", what, 1)
    stream_count = _count(block, "stream_count", what, 0)
    n, items, grid = min(capacity, stream_count), block["items"], config.grid
    x = _floats(items["x"], (n, config.input_dim), f"{what}.x")
    ends = _floats(items["ends"], (n, 2), f"{what}.ends")
    speeds = _floats(items["speeds"], (n,), f"{what}.speeds")
    if np.any(speeds < 0):
        raise ValueError(f"{what}.speeds holds a negative speed")
    logits = _floats(items["logits"], (n, grid.rows_h, grid.cols_w), f"{what}.logits")
    columns = []
    if scores is not None:
        if len(scores) != n or not all(type(q) in (int, float) and math.isfinite(q) for q in scores):
            raise ValueError(f"{what}.scores needs one finite number per slot ({n}), not {len(scores)} values")
        columns.append(scores)
    source = SampleTable(x, endpoint_cells(ends, grid), ends, speeds, np.zeros(n, dtype=np.int64))
    buffer = cls(
        capacity=capacity, source=source, n_cells=grid.n_cells, stream_count=stream_count, **fields
    )
    buffer.fill(np.arange(n), logits.reshape(n, grid.n_cells), *columns)
    return buffer


def _header(cls: type, data: object, where: str, **given):
    """``cls`` read from the header object ``data`` by
    ``core.from_json``; every field is required."""
    names = [f.name for f in dataclasses.fields(cls)]
    header = json_object(data, names, where)
    for name in names:
        if name not in header:
            raise KeyError(name)
    return from_json(cls, header, f"{where}.", **given)


def _decode(data: dict, params_only: bool) -> tuple:
    grid = _header(GridSpec, data["config"]["grid"], "config.grid")
    config = _header(PredictorConfig, data["config"], "config", grid=grid)
    params = _floats(data["params"], (HeatmapPredictor(config).param_count,), "params")
    if params_only:
        return config, params, None, None, None
    adam = None
    if data["adam"] is not None:
        a = data["adam"]
        adam = AdamState(
            m=_floats(a["m"], params.shape, "adam.m"),
            v=_floats(a["v"], params.shape, "adam.v"),
            t=_count(a, "t", "adam", 0),
        )
    separation = None
    if data["separation"] is not None:
        s = data["separation"]
        b_compare = _count(s, "b_compare", "separation", 1)
        separation = _slots(SeparationBuffer, s, config, "separation", s["scores"], b_compare=b_compare)
    completion = None
    if data["completion"] is not None:
        completion = _slots(CompletionBuffer, data["completion"], config, "completion")
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
    """Inverse of ``save_checkpoint``; only ``contrail-checkpoint-v3``
    files load, and a v1 or v2 file is rejected by name.  A loaded
    buffer's slots index one table of the rows read from the file,
    whose target cells derive from the stored ``ends`` and whose task
    labels, never stored, read 0.  With ``params_only`` (all that
    evaluation needs) only the header and parameters are decoded; the
    optimizer state and buffers come back as None, unbuilt.  A file of
    another format, a file that is not JSON, a missing key (``t_pred``
    and ``dt`` included), a header field of the wrong JSON type (named
    as in ``config.t_obs``), and any array that is non-finite,
    undecodable or does not fit the header's geometry (the parameters,
    the Adam moments, every buffer column, each holding
    ``min(capacity, stream_count)`` rows, and the separation scores), a
    separation score that is not a JSON number, a negative stored
    speed, and a ``capacity``, ``b_compare`` or ``stream_count`` that is
    not an int (at least 1, 1 and 0) raise a ValueError that starts
    with ``path``."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    try:
        return _decode(data, params_only)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
