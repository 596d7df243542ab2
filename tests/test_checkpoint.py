"""Checkpoint save/load: the cycle must be bit-exact."""

from __future__ import annotations

import base64
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from contrail import checkpoint
from contrail.checkpoint import CHUNK_FLOATS as CHUNK
from contrail.checkpoint import load_checkpoint, save_checkpoint
from contrail.core import GridSpec
from contrail.learner import Strategy, TrainConfig, train_stream
from contrail.memory import CompletionBuffer, SeparationBuffer
from contrail.predictor import AdamState, HeatmapPredictor, PredictorConfig
from contrail.scenarios import TaskSpec, generate_task

from conftest import make_scenes


def read_lines(path):
    """A saved checkpoint's lines, each parsed as JSON: the header, then
    one ``{part: block}`` object per float block."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_lines(path, lines):
    """Inverse of ``read_lines``: one JSON value per line."""
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def block_line(lines, part):
    """The block line of ``part``."""
    return next(line for line in lines[1:] if part in line)


def assert_contents_equal(a, b):
    """Two buffers' ``contents()``: the stored rows' columns (task
    labels aside, which no checkpoint stores) and the logits stacks,
    bit for bit."""
    (rows_a, logits_a), (rows_b, logits_b) = a, b
    assert len(rows_a) == len(rows_b)
    for name in ("x", "cells", "ends", "speeds"):
        column_a, column_b = getattr(rows_a, name), getattr(rows_b, name)
        assert column_a.dtype == column_b.dtype and column_a.tobytes() == column_b.tobytes(), name
    assert logits_a.tobytes() == logits_b.tobytes()


class TestRoundTrip:
    def test_params_only(self, tiny_model, tmp_path):
        params = tiny_model.init_params()
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, params)
        config, loaded, adam, sp, cp = load_checkpoint(path)
        assert config == tiny_model.config
        assert np.array_equal(loaded, params)
        assert adam is None and sp is None and cp is None

    def test_full_training_state(self, tiny_model, tmp_path):
        rng = np.random.default_rng(400)
        grid = tiny_model.config.grid
        stream = make_scenes(rng, 24, grid=grid, labels=[1] * 12 + [2] * 12)
        result = train_stream(
            tiny_model, tiny_model.encode(stream), Strategy.DUAL_REPLAY,
            TrainConfig(buffer_total=8),
        )

        path = tmp_path / "ck.json"
        save_checkpoint(
            path,
            tiny_model.config,
            result.final_params,
            adam=result.adam_state,
            separation=result.separation,
            completion=result.completion,
        )
        config, params, adam, sp, cp = load_checkpoint(path)

        assert config == tiny_model.config
        assert np.array_equal(params, result.final_params)
        assert adam is not None
        assert adam.t == result.adam_state.t
        assert np.array_equal(adam.m, result.adam_state.m)
        assert np.array_equal(adam.v, result.adam_state.v)

        assert sp is not None and result.separation is not None
        assert sp.capacity == result.separation.capacity
        assert sp.b_compare == result.separation.b_compare
        assert sp.stream_count == result.separation.stream_count
        assert np.array_equal(sp.scores, result.separation.scores)
        assert_contents_equal(sp.contents(), result.separation.contents())

        assert cp is not None and result.completion is not None
        assert cp.capacity == result.completion.capacity
        assert cp.stream_count == result.completion.stream_count
        assert_contents_equal(cp.contents(), result.completion.contents())
        # The labels are not stored: a loaded table's read 0.
        assert sp.source.task_label(0) == cp.source.task_label(0) == 0

    def test_loaded_state_resumes_identically(self, tiny_model, tmp_path):
        # Saving mid-run and resuming must match an uninterrupted run.
        rng = np.random.default_rng(401)
        grid = tiny_model.config.grid
        from contrail.predictor import adam_step

        cfg = TrainConfig()
        tables = [tiny_model.encode(make_scenes(rng, 4, grid=grid)) for _ in range(4)]

        params = tiny_model.init_params()
        adam = AdamState.zeros(tiny_model.param_count)
        for table in tables[:2]:
            _, grad, _ = tiny_model.loss_and_grad(params, table.x, table.cells, cfg.loss)
            adam_step(params, grad, adam, cfg.lr)

        path = tmp_path / "mid.json"
        save_checkpoint(path, tiny_model.config, params, adam=adam)
        _, params2, adam2, _, _ = load_checkpoint(path)

        for table in tables[2:]:
            _, grad, _ = tiny_model.loss_and_grad(params, table.x, table.cells, cfg.loss)
            adam_step(params, grad, adam, cfg.lr)
            _, grad2, _ = tiny_model.loss_and_grad(params2, table.x, table.cells, cfg.loss)
            adam_step(params2, grad2, adam2, cfg.lr)

        assert np.array_equal(params, params2)
        assert np.array_equal(adam.v, adam2.v)

    def test_trained_horizon_round_trips(self, tiny_model, tmp_path):
        config = dataclasses.replace(tiny_model.config, t_pred=20)
        path = tmp_path / "ck.json"
        save_checkpoint(path, config, tiny_model.init_params())
        header = read_lines(path)[0]["config"]
        assert header["t_pred"] == 20 and "dt" not in header
        assert load_checkpoint(path)[0] == config

    def test_header_without_horizon_is_named(self, tiny_model, tmp_path):
        path = tmp_path / "old.json"
        save_checkpoint(path, tiny_model.config, tiny_model.init_params())
        lines = read_lines(path)
        del lines[0]["config"]["t_pred"]
        write_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint lacks the key 't_pred'")):
            load_checkpoint(path, params_only=True)

    @pytest.mark.parametrize(
        "keys,value,message",
        [
            (("t_obs",), 3.0, "config.t_obs is 3.0: it must be an integer"),
            (("t_pred",), 5.0, "config.t_pred is 5.0: it must be an integer"),
            (("hidden_dims",), [4.0], "config.hidden_dims is [4.0]: it must be a list of integers"),
            (("grid", "rows_h"), 3.0, "config.grid.rows_h is 3.0: it must be an integer"),
            (("seed",), 1.5, "config.seed is 1.5: it must be an integer"),
            (("seed",), None, "config.seed is null: it must be an integer"),
            (("seed",), -1, "seed is -1: it must be a non-negative integer"),
            (("dt",), 0.1, "unknown key(s) in config: ['dt']"),
            (("extra",), 1, "unknown key(s) in config: ['extra']"),
        ],
    )
    def test_header_field_of_the_wrong_type_is_named(self, tiny_model, tmp_path, keys, value, message):
        """Each header field goes through the config reader: a value of
        the wrong JSON type is refused, naming the file and the key."""
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, tiny_model.init_params())
        lines = read_lines(path)
        header = lines[0]["config"]
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
        write_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed checkpoint: {message}")):
            load_checkpoint(path, params_only=True)

    def test_params_only_builds_no_state(self, tiny_model, tmp_path, monkeypatch):
        rng = np.random.default_rng(402)
        grid = tiny_model.config.grid
        stream = make_scenes(rng, 16, grid=grid)
        result = train_stream(
            tiny_model, tiny_model.encode(stream), Strategy.DUAL_REPLAY,
            TrainConfig(buffer_total=8),
        )
        path = tmp_path / "ck.json"
        save_checkpoint(
            path,
            tiny_model.config,
            result.final_params,
            adam=result.adam_state,
            separation=result.separation,
            completion=result.completion,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("evaluation built optimizer or buffer state")

        for name in ("AdamState", "SeparationBuffer", "CompletionBuffer", "_slots"):
            monkeypatch.setattr(checkpoint, name, refuse)
        config, params, adam, sp, cp = load_checkpoint(path, params_only=True)
        assert config == tiny_model.config
        assert np.array_equal(params, result.final_params)
        assert adam is None and sp is None and cp is None

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a contrail-checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "unreadable, message",
        [("directory", "cannot be read: Is a directory"), ("not UTF-8", "not UTF-8 text: 'utf-8' codec")],
    )
    def test_unreadable_file_is_named(self, tmp_path, unreadable, message):
        path = tmp_path / "checkpoint.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_checkpoint(path)


@pytest.fixture
def dual_result(tiny_model):
    """A trained ``dual`` run with both buffers full."""
    rng = np.random.default_rng(403)
    grid = tiny_model.config.grid
    stream = make_scenes(rng, 24, grid=grid, labels=[1] * 12 + [2] * 12)
    return train_stream(
        tiny_model, tiny_model.encode(stream), Strategy.DUAL_REPLAY,
        TrainConfig(buffer_total=8),
    )


def save_full(path, model, result):
    save_checkpoint(
        path,
        model.config,
        result.final_params,
        adam=result.adam_state,
        separation=result.separation,
        completion=result.completion,
    )


def unpack(block):
    """A packed float block as an array."""
    raw = base64.b64decode(block["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(block["shape"]).copy()


def pack(array):
    array = np.ascontiguousarray(array, dtype="<f8")
    return {"dtype": "<f8", "shape": list(array.shape), "data": base64.b64encode(array.tobytes()).decode()}


# What each line of a saved ``dual`` checkpoint holds, in file order.
PARTS_IN_ORDER = [
    "the header", "params", "adam.m", "adam.v",
    "separation.x", "separation.ends", "separation.speeds", "separation.logits", "separation.scores",
    "completion.x", "completion.ends", "completion.speeds", "completion.logits",
]


def eager_text(config, params, adam=None, separation=None, completion=None):
    """The file as ``json.dumps`` writes each line when every array is
    packed first: the oracle for the streaming writer."""
    g = config.grid

    def columns(name, buffer):
        rows, logits = buffer.contents()
        stacked = logits.reshape(len(rows), g.rows_h, g.cols_w)
        items = {"x": rows.x, "ends": rows.ends, "speeds": rows.speeds, "logits": stacked}
        if isinstance(buffer, SeparationBuffer):
            items["scores"] = buffer.scores
        return [{f"{name}.{key}": pack(column)} for key, column in items.items()]

    header = {
        "format": "contrail-checkpoint-v5",
        "config": dataclasses.asdict(config),
        "adam": None if adam is None else {"t": adam.t},
        "separation": None if separation is None else {
            "capacity": separation.capacity,
            "b_compare": separation.b_compare,
            "stream_count": separation.stream_count,
        },
        "completion": None if completion is None else {
            "capacity": completion.capacity,
            "stream_count": completion.stream_count,
        },
    }
    lines = [header, {"params": pack(params)}]
    if adam is not None:
        lines += [{"adam.m": pack(adam.m)}, {"adam.v": pack(adam.v)}]
    if separation is not None:
        lines += columns("separation", separation)
    if completion is not None:
        lines += columns("completion", completion)
    return "".join(json.dumps(line) + "\n" for line in lines)


def _random_blocks(n):
    return lambda rng: (rng.standard_normal(n), rng.standard_normal(n), rng.random(n))


_TOP = np.finfo(np.float64).max
_EXTREMES = np.array([-0.0, 0.0, 5e-324, -2.2e-308, _TOP, -_TOP, 1.0])  # signed zero, subnormals, +-max

# Parameters and Adam moments to save, each case drawn from one rng.
BLOCKS = {
    "0 B": _random_blocks(0),
    "8 B": _random_blocks(1),
    "chunk - 8 B": _random_blocks(CHUNK - 1),
    "one chunk": _random_blocks(CHUNK),
    "chunk + 8 B": _random_blocks(CHUNK + 1),
    "several chunks": _random_blocks(3 * CHUNK + 5),
    "transposed, strided, Fortran-order": lambda rng: (
        rng.standard_normal((CHUNK // 7 + 3, 7)).T,  # two chunks
        rng.standard_normal(3 * CHUNK)[::3],
        np.asfortranarray(rng.random((4, 5))),
    ),
    "extreme floats": lambda rng: (_EXTREMES, _EXTREMES[::-1], np.abs(_EXTREMES)),
}


class TestFormat:
    def test_arrays_are_packed_and_buffers_are_columns(self, tiny_model, dual_result, tmp_path):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        header = lines[0]
        assert header["format"] == "contrail-checkpoint-v5"
        assert header["adam"] == {"t": dual_result.adam_state.t}
        assert sorted(header["separation"]) == ["b_compare", "capacity", "stream_count"]
        assert sorted(header["completion"]) == ["capacity", "stream_count"]
        assert [list(line) for line in lines[1:]] == [[part] for part in PARTS_IN_ORDER[1:]]
        params = lines[1]["params"]
        assert params["dtype"] == "<f8"
        assert params["shape"] == [tiny_model.param_count]
        assert np.array_equal(unpack(params), dual_result.final_params)
        rows, _ = dual_result.separation.contents()
        g = tiny_model.config.grid
        column = {part: unpack(block_line(lines, part)[part]) for part in PARTS_IN_ORDER[2:]}
        assert np.array_equal(column["separation.x"], rows.x)
        assert column["separation.x"].shape == (len(rows), tiny_model.config.input_dim)
        assert np.array_equal(column["separation.ends"], rows.ends)
        assert np.array_equal(column["separation.speeds"], rows.speeds)
        assert column["separation.logits"].shape == (len(rows), g.rows_h, g.cols_w)
        assert np.array_equal(column["separation.scores"], dual_result.separation.scores)

    def test_v1_document_is_rejected_by_name(self, tiny_model, dual_result, tmp_path):
        v1 = tmp_path / "v1.json"
        config = dataclasses.asdict(tiny_model.config)
        params = tiny_model.init_params()
        v1.write_text(json.dumps({"format": "contrail-checkpoint-v1", "config": config, "params": params.tolist()}))
        # A v4 file is one JSON document on one line, so its first line
        # is the whole of it.
        v4 = tmp_path / "v4.json"
        parts = {"adam": None, "separation": None, "completion": None}
        v4.write_text(json.dumps({"format": "contrail-checkpoint-v4", "config": config, "params": pack(params), **parts}))
        # v2, v3 and v4 headers over v5 lines.
        older = [tmp_path / f"v{version}-lines.json" for version in (2, 3, 4)]
        for old, version in zip(older, (2, 3, 4)):
            save_full(old, tiny_model, dual_result)
            old.write_text(old.read_text().replace("contrail-checkpoint-v5", f"contrail-checkpoint-v{version}"))
        for old in (v1, v4, *older):
            for params_only in (False, True):
                with pytest.raises(ValueError, match="^" + re.escape(f"{old} is not a contrail-checkpoint-v5 file")):
                    load_checkpoint(old, params_only=params_only)

    def test_extreme_floats_round_trip_bit_exact(self, tiny_model, tmp_path):
        params = tiny_model.init_params()
        params[:3] = [-0.0, 5e-324, 1.7e308]
        adam = AdamState(m=-params, v=params[::-1].copy(), t=7)
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, params, adam=adam)
        _, loaded, adam2, _, _ = load_checkpoint(path)
        assert loaded.tobytes() == params.tobytes()
        assert adam2.m.tobytes() == adam.m.tobytes()
        assert adam2.v.tobytes() == adam.v.tobytes()
        assert np.signbit(loaded[0])

    def test_saves_of_one_state_are_byte_identical(self, tiny_model, dual_result, tmp_path):
        save_full(tmp_path / "a.json", tiny_model, dual_result)
        save_full(tmp_path / "b.json", tiny_model, dual_result)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("parts", ["params", "adam", "both buffers", "separation only"])
    def test_lazy_packing_writes_the_eagerly_packed_bytes(self, tiny_model, dual_result, tmp_path, parts):
        result = dual_result
        adam = None if parts == "params" else result.adam_state
        separation = result.separation if "buffer" in parts or "separation" in parts else None
        completion = result.completion if parts == "both buffers" else None
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, result.final_params, adam, separation, completion)
        assert path.read_text() == eager_text(tiny_model.config, result.final_params, adam, separation, completion)

    @pytest.mark.parametrize("case", BLOCKS)
    def test_streamed_blocks_write_the_eagerly_packed_bytes(self, tiny_model, tmp_path, case):
        params, m, v = BLOCKS[case](np.random.default_rng(7))
        adam = AdamState(m=m, v=v, t=3)
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, params, adam)
        assert path.read_text() == eager_text(tiny_model.config, params, adam)

    def test_empty_buffers_write_the_eagerly_packed_bytes(self, tiny_model, dual_result, tmp_path):
        source, n_cells = dual_result.separation.source, tiny_model.config.grid.n_cells
        separation = SeparationBuffer(capacity=4, source=source, n_cells=n_cells, b_compare=2)
        completion = CompletionBuffer(capacity=4, source=source, n_cells=n_cells)
        assert len(separation) == len(completion) == 0
        params = dual_result.final_params
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, params, None, separation, completion)
        assert path.read_text() == eager_text(tiny_model.config, params, None, separation, completion)
        _, _, _, sp, cp = load_checkpoint(path)
        assert len(sp) == len(cp) == 0 and sp.capacity == cp.capacity == 4

    def test_only_arrays_are_packed(self, tiny_model, tmp_path):
        params = tiny_model.init_params()
        adam = AdamState(m=params.copy(), v=params.copy(), t=np.int64(3))
        with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
            save_checkpoint(tmp_path / "checkpoint.json", tiny_model.config, params, adam)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_leaves_no_file(self, tiny_model, tmp_path, monkeypatch):
        encode, calls = checkpoint.base64.b64encode, []

        def second_chunk_fails(data):
            calls.append(len(data))
            if len(calls) == 2:  # fail halfway through the parameters' block
                raise RuntimeError("serialisation failed")
            return encode(data)

        monkeypatch.setattr(checkpoint.base64, "b64encode", second_chunk_fails)
        with pytest.raises(RuntimeError, match="serialisation failed"):
            save_checkpoint(tmp_path / "checkpoint.json", tiny_model.config, np.ones(3 * CHUNK))
        assert calls == [CHUNK, CHUNK]
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def state():
    """A training state at the README's sizes: P = 33,664 and 100-slot
    buffers on the 16 x 16 grid."""
    grid = GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5)
    model = HeatmapPredictor(PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(64, 64), grid=grid, seed=7))
    params = model.init_params()
    adam = AdamState(m=params * 0.5, v=params * params, t=40)
    table = model.encode(generate_task(TaskSpec("arc", 120, seed=2, noise_sigma=0.1), 1))
    rng = np.random.default_rng(0)
    separation = SeparationBuffer(capacity=100, source=table, n_cells=grid.n_cells, stream_count=300)
    separation.fill(rng.permutation(120)[:100], rng.standard_normal((100, grid.n_cells)), rng.random(100))
    completion = CompletionBuffer(capacity=100, source=table, n_cells=grid.n_cells, stream_count=300)
    completion.fill(rng.permutation(120)[:100], rng.standard_normal((100, grid.n_cells)))
    return model.config, params, adam, separation, completion


def traced_peak(call):
    """The tracemalloc peak of ``call()``, run once before so that
    first-call caches stay out of the count."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSaveMemory:
    """tracemalloc peaks of one ``save_checkpoint`` of ``state`` (numpy
    2.4, Python 3.11).  Measured: 204,504 B with the parameters and Adam
    moments, about two chunks of base64 (the encoded bytes and their
    str), where one parameter-length block's base64 is 359,088 B; and
    579,839 B with both buffers, one buffer's gathered columns at a
    time.  ``json.dump`` of blocks packed as it reached them peaked at
    1,092,237 and 1,828,141 B."""

    PEAKS = {"params and adam": 240_000, "both buffers": 650_000}

    @pytest.mark.parametrize("parts", PEAKS)
    def test_peak_is_pinned(self, state, tmp_path, parts):
        args = state[:3] if parts == "params and adam" else state
        assert traced_peak(lambda: save_checkpoint(tmp_path / "ck.json", *args)) <= self.PEAKS[parts]


class TestLoadMemory:
    """tracemalloc peaks of one ``load_checkpoint`` of the 2,058,691 B
    file that ``TestSaveMemory`` saves with both buffers (numpy 2.4,
    Python 3.11).  Measured: 1,014,125 B with ``params_only``, which
    reads two lines: the parameters' line as read, its parsed base64
    string, the decoded bytes and the array; and 2,112,808 B for a full
    load, about 1.4 MB of it the arrays it returns, plus one block's
    text.  The v4 reader parsed the whole document first and peaked at
    4,127,201 B for either."""

    PEAKS = {"params only": 1_150_000, "full": 2_400_000}

    @pytest.mark.parametrize("parts", PEAKS)
    def test_peak_is_pinned(self, state, tmp_path, parts):
        path = tmp_path / "ck.json"
        save_checkpoint(path, *state)
        peak = traced_peak(lambda: load_checkpoint(path, params_only=parts == "params only"))
        assert peak <= self.PEAKS[parts]


def _column(part, edit):
    """A fault that replaces the block of ``part`` by ``edit`` of its
    array."""

    def fault(lines):
        line = block_line(lines, part)
        line[part] = pack(edit(unpack(line[part])))

    return fault


def _set(name, key, edit):
    """A fault that edits the header field ``key`` of part ``name``."""

    def fault(lines):
        lines[0][name][key] = edit(lines[0][name][key])

    return fault


def _drop(part):
    def fault(lines):
        lines.remove(block_line(lines, part))

    return fault


ADAM_FAULTS = {
    "v missing": (_drop("adam.v"), "unknown key(s) in adam.v (line 4): ['separation.x']"),
    "v three NaNs": (_column("adam.v", lambda v: np.full(3, np.nan)), "adam.v has shape (3,)"),
    "m non-finite": (_column("adam.m", lambda m: np.where(m == m[5], np.inf, m)), "adam.m holds non-finite values"),
    "t negative": (_set("adam", "t", lambda t: -1), "adam.t is -1"),
    "t not an int": (_set("adam", "t", lambda t: 2.5), "adam.t is 2.5"),
    "t missing": (lambda lines: lines[0]["adam"].pop("t"), "lacks the key 't'"),
}


BUFFER_FAULTS = {
    "column one slot short": (
        _column("completion.speeds", lambda a: a[:-1]),
        "completion.speeds has shape (3,), the header's geometry needs (4,)",
    ),
    "column off the geometry": (
        _column("separation.ends", lambda a: a[:, :1]),
        "separation.ends has shape",
    ),
    "x off the input width": (
        _column("separation.x", lambda a: a[:, :-1]),
        "separation.x has shape (4, 15), the header's geometry needs (4, 16)",
    ),
    "x one row short": (
        _column("completion.x", lambda a: a[:-1]),
        "completion.x has shape (3, 16), the header's geometry needs (4, 16)",
    ),
    "logits one row short": (
        _column("separation.logits", lambda a: a[:-1]),
        "separation.logits has shape (3, 4, 5), the header's geometry needs (4, 4, 5)",
    ),
    "logits off the grid": (
        _column("completion.logits", lambda a: a[:, :, :-1]),
        "completion.logits has shape",
    ),
    "negative speed": (
        _column("completion.speeds", lambda a: -a),
        "completion.speeds holds a negative speed",
    ),
    "non-finite x": (
        _column("completion.x", lambda a: np.where(a == a.flat[2], -np.inf, a)),
        "completion.x holds non-finite values",
    ),
    "non-finite speed": (
        _column("separation.speeds", lambda a: np.where(a == a.flat[1], np.nan, a)),
        "separation.speeds holds non-finite values",
    ),
    "non-finite logit": (
        _column("separation.logits", lambda a: np.where(a == a.flat[3], np.inf, a)),
        "separation.logits holds non-finite values",
    ),
    "non-finite endpoint": (
        _column("completion.ends", lambda a: np.where(a == a.flat[0], np.nan, a)),
        "completion.ends holds non-finite values",
    ),
    "column missing": (
        _drop("completion.ends"),
        "unknown key(s) in completion.ends (line 11): ['completion.speeds']",
    ),
    "scores one short": (
        _column("separation.scores", lambda q: q[:-1]),
        "separation.scores has shape (3,), the header's geometry needs (4,)",
    ),
    "score non-finite": (
        _column("separation.scores", lambda q: np.where(q == q[0], np.nan, q)),
        "separation.scores holds non-finite values",
    ),
    "score negative": (
        _column("separation.scores", lambda q: np.where(q == q[0], -0.5, q)),
        "separation score -0.5 is not a finite non-negative number",
    ),
    "more slots than capacity": (
        _set("completion", "capacity", lambda c: c - 1),
        "completion.x has shape (4, 16), the header's geometry needs (3, 16)",
    ),
    "scores missing": (
        _drop("separation.scores"),
        "unknown key(s) in separation.scores (line 9): ['completion.x']",
    ),
    "stream_count negative": (
        _set("separation", "stream_count", lambda c: -3),
        "separation.stream_count is -3, not an int >= 0",
    ),
    "stream_count a string": (
        _set("separation", "stream_count", lambda c: "x"),
        "separation.stream_count is 'x'",
    ),
    "stream_count a float": (
        _set("separation", "stream_count", lambda c: 1.5),
        "separation.stream_count is 1.5",
    ),
    "stream_count a bool": (
        _set("completion", "stream_count", lambda c: True),
        "completion.stream_count is True",
    ),
    "stream_count below the stored slots": (
        _set("separation", "stream_count", lambda c: 2),
        "separation.x has shape (4, 16), the header's geometry needs (2, 16)",
    ),
    "capacity a float": (
        _set("completion", "capacity", lambda c: 1500.5),
        "completion.capacity is 1500.5, not an int >= 1",
    ),
    "capacity zero": (
        _set("completion", "capacity", lambda c: 0),
        "completion.capacity is 0, not an int >= 1",
    ),
    # Past the stored slots: a header never sizes an allocation.
    "capacity 10**12": (
        _set("completion", "capacity", lambda c: 10**12),
        "completion.x has shape (4, 16), the header's geometry needs (24, 16)",
    ),
    "b_compare a float": (
        _set("separation", "b_compare", lambda b: 2.5),
        "separation.b_compare is 2.5, not an int >= 1",
    ),
    "block shape not a list": (
        lambda lines: block_line(lines, "completion.x")["completion.x"].update(shape="x"),
        'completion.x.shape is "x": it must be a list of integers',
    ),
    "block data not base64": (
        lambda lines: block_line(lines, "separation.scores")["separation.scores"].update(data="!!!!"),
        "separation.scores.data is not base64",
    ),
    "block with an unknown key": (
        lambda lines: block_line(lines, "separation.ends")["separation.ends"].update(extra=1),
        "unknown key(s) in separation.ends: ['extra']",
    ),
    "scores in the completion buffer": (
        lambda lines: lines.append({"completion.scores": block_line(lines, "separation.scores")["separation.scores"]}),
        "line 14 follows completion.logits, the last part the header names",
    ),
    "a header part with an unknown key": (
        lambda lines: lines[0]["completion"].update(b_compare=2),
        "unknown key(s) in completion: ['b_compare']",
    ),
    "a second block on one line": (
        lambda lines: block_line(lines, "completion.x").update(block_line(lines, "completion.ends")),
        "unknown key(s) in completion.x (line 10): ['completion.ends']",
    ),
}


class TestFullLoadChecks:
    """Every part of a full load is checked; each fault names the file."""

    @pytest.mark.parametrize("layout", ["v2"])
    @pytest.mark.parametrize("fault", ADAM_FAULTS)
    def test_bad_adam_state_is_named(self, tiny_model, dual_result, tmp_path, layout, fault):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        edit, message = ADAM_FAULTS[fault]
        edit(lines)
        write_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_checkpoint(path)
        # Evaluation reads only the header and parameters.
        assert load_checkpoint(path, params_only=True)[2:] == (None, None, None)

    def test_huge_capacity_allocates_only_stored_slots(self, tiny_model, dual_result, tmp_path):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        n = len(dual_result.separation)
        lines[0]["separation"].update(capacity=10**12, stream_count=n)
        write_lines(path, lines)
        sp = load_checkpoint(path)[3]
        assert sp.capacity == 10**12 and len(sp) == n
        assert len(sp._rows) == len(sp._logits) == len(sp._scores) == n

    @pytest.mark.parametrize("fault", BUFFER_FAULTS)
    def test_bad_buffer_is_named(self, tiny_model, dual_result, tmp_path, fault):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        edit, message = BUFFER_FAULTS[fault]
        edit(lines)
        write_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_checkpoint(path)


# Where a value that must be a JSON object sits: a header field, a
# whole block line, or the block inside one; and how the reader names it.
PARTS = [
    *(((0, key), key) for key in ("config", "adam", "separation", "completion")),
    *(((i,), f"{part} (line {i + 1})") for i, part in enumerate(PARTS_IN_ORDER) if i),
    *(((i, part), part) for i, part in enumerate(PARTS_IN_ORDER) if i),
]
# null is legal for the optional parts (TestRoundTrip::test_params_only).
NOT_OBJECTS = [
    (keys, name, value) for keys, name in PARTS for value in (3, "x", [1], None)
    if not (value is None and keys in [(0, "adam"), (0, "separation"), (0, "completion")])
]


class TestPartsAreObjects:
    @pytest.mark.parametrize(
        "keys, name, value", NOT_OBJECTS, ids=[f"{n}={json.dumps(v)}" for _, n, v in NOT_OBJECTS]
    )
    def test_a_part_that_is_not_an_object_is_named(self, tiny_model, dual_result, tmp_path, keys, name, value):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        node = lines
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        write_lines(path, lines)
        message = f"{path}: malformed checkpoint: {name} is {json.dumps(value)}: it must be a JSON object"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            load_checkpoint(path)

    def test_a_missing_part_is_named(self, tiny_model, dual_result, tmp_path):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        del lines[0]["completion"]
        write_lines(path, lines)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: checkpoint lacks the key 'completion'") + "$"):
            load_checkpoint(path)


def _misplace(lines, edit, index):
    """``lines`` with line ``index`` dropped, duplicated, or swapped with
    the next one."""
    lines = list(lines)
    if edit == "dropped":
        del lines[index]
    elif edit == "duplicated":
        lines.insert(index, lines[index])
    else:
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
    return lines


MISPLACED = [
    (edit, index)
    for edit in ("dropped", "duplicated", "swapped")
    for index in range(len(PARTS_IN_ORDER) - (edit == "swapped"))
]


class TestLineOrder:
    """A line that is missing, repeated or out of place is named for the
    part expected where it went wrong, on a full load and, when that is
    among the first two lines, on a ``params_only`` load, which reads
    nothing further."""

    @pytest.mark.parametrize("edit, index", MISPLACED, ids=[f"{e} {PARTS_IN_ORDER[i]}" for e, i in MISPLACED])
    def test_a_misplaced_line_is_named(self, tiny_model, dual_result, tmp_path, edit, index):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        write_lines(path, _misplace(read_lines(path), edit, index))
        # The first line that no longer holds the part expected there.
        at = index + (edit == "duplicated")
        n = len(PARTS_IN_ORDER)
        if at == 0:
            message = f"{path} is not a contrail-checkpoint-v5 file"
        elif at == n:
            message = f"{path}: malformed checkpoint: line {n + 1} follows completion.logits, the last part"
        elif at == n - 1 and edit == "dropped":
            message = f"{path}: malformed checkpoint: completion.logits (line {n}) is missing: the file ends"
        else:
            message = f"{path}: malformed checkpoint: unknown key(s) in {PARTS_IN_ORDER[at]} (line {at + 1}): "
        for params_only in (False, True):
            if params_only and at > 1:
                assert np.array_equal(load_checkpoint(path, params_only=True)[1], dual_result.final_params)
                continue
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                load_checkpoint(path, params_only=params_only)

    def test_params_only_stops_after_the_second_line(self, tiny_model, dual_result, tmp_path):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        write_lines(path, read_lines(path)[:2])
        config, params, *rest = load_checkpoint(path, params_only=True)
        assert config == tiny_model.config and np.array_equal(params, dual_result.final_params)
        assert rest == [None, None, None]
        message = f"{path}: malformed checkpoint: adam.m (line 3) is missing: the file ends"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            load_checkpoint(path)


# Each probe replaces one value of the document with one of these.
PROBE_VALUES = [None, True, -1, 1.5, "x", [], {}, [1], 10**12]


def json_paths(node, prefix=()):
    """The path of every value inside the JSON ``node``, containers
    and leaves, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


class TestDocumentMutations:
    """Seeded probes over every line of a saved ``dual`` checkpoint,
    each replacing one value in it, the whole line or any value inside,
    by one of ``PROBE_VALUES``; probe ``seed`` picks line ``seed`` modulo
    the line count, so every line is probed.  A load, full or
    ``params_only``, either succeeds or raises a ValueError that starts
    with the path; no other exception escapes, and no value of the wrong
    JSON type reaches the reader's arithmetic (it is named before a
    TypeError could name it)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_a_replaced_value_loads_or_is_named(self, tiny_model, dual_result, tmp_path, seed):
        path = tmp_path / "ck.json"
        save_full(path, tiny_model, dual_result)
        lines = read_lines(path)
        rng = np.random.default_rng([2024, seed])
        index = seed % len(lines)
        paths = [(index,), *json_paths(lines[index], (index,))]
        *parents, key = paths[int(rng.integers(len(paths)))]
        node = lines
        for k in parents:
            node = node[k]
        node[key] = PROBE_VALUES[int(rng.integers(len(PROBE_VALUES)))]
        write_lines(path, lines)
        for params_only in (False, True):
            try:
                load_checkpoint(path, params_only=params_only)
            except ValueError as exc:
                assert str(exc).startswith(str(path)), exc
                assert not isinstance(exc.__context__, TypeError), exc
