"""Checkpoint save/load: the cycle must be bit-exact."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from contrail import checkpoint
from contrail.checkpoint import load_checkpoint, save_checkpoint
from contrail.learner import Strategy, TrainConfig, train_stream
from contrail.predictor import AdamState

from conftest import make_sample


def assert_triplets_equal(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.scene == tb.scene
        assert ta.truth == tb.truth
        assert np.array_equal(ta.init_logits, tb.init_logits)


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
        stream = [make_sample(rng, grid, task_label=1) for _ in range(12)]
        stream += [make_sample(rng, grid, task_label=2) for _ in range(12)]
        result = train_stream(
            tiny_model, stream, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=8)
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
        assert sp.scores == result.separation.scores
        assert_triplets_equal(sp.contents(), result.separation.contents())

        assert cp is not None and result.completion is not None
        assert cp.capacity == result.completion.capacity
        assert cp.stream_count == result.completion.stream_count
        assert_triplets_equal(cp.contents(), result.completion.contents())

    def test_loaded_state_resumes_identically(self, tiny_model, tmp_path):
        # Saving mid-run and resuming must match an uninterrupted run.
        rng = np.random.default_rng(401)
        grid = tiny_model.config.grid
        from contrail.predictor import adam_step

        cfg = TrainConfig()
        pairs = [
            [(make_sample(rng, grid).scene, make_sample(rng, grid).truth) for _ in range(4)]
            for _ in range(4)
        ]
        tables = [tiny_model.encode(*zip(*batch)) for batch in pairs]

        params = tiny_model.init_params()
        adam = AdamState.zeros(tiny_model.param_count)
        for x, cells in tables[:2]:
            _, grad, _ = tiny_model.loss_and_grad(params, x, cells, cfg.loss)
            params, adam = adam_step(params, grad, adam, cfg.lr)

        path = tmp_path / "mid.json"
        save_checkpoint(path, tiny_model.config, params, adam=adam)
        _, params2, adam2, _, _ = load_checkpoint(path)

        for x, cells in tables[2:]:
            _, grad, _ = tiny_model.loss_and_grad(params, x, cells, cfg.loss)
            params, adam = adam_step(params, grad, adam, cfg.lr)
            _, grad2, _ = tiny_model.loss_and_grad(params2, x, cells, cfg.loss)
            params2, adam2 = adam_step(params2, grad2, adam2, cfg.lr)

        assert np.array_equal(params, params2)
        assert np.array_equal(adam.v, adam2.v)

    def test_trained_horizon_round_trips(self, tiny_model, tmp_path):
        config = dataclasses.replace(tiny_model.config, t_pred=20, dt=0.2)
        path = tmp_path / "ck.json"
        save_checkpoint(path, config, tiny_model.init_params())
        header = json.loads(path.read_text())["config"]
        assert (header["t_pred"], header["dt"]) == (20, 0.2)
        assert load_checkpoint(path)[0] == config

    def test_header_without_horizon_gets_the_defaults(self, tiny_model, tmp_path):
        path = tmp_path / "old.json"
        save_checkpoint(path, tiny_model.config, tiny_model.init_params())
        data = json.loads(path.read_text())
        del data["config"]["t_pred"], data["config"]["dt"]
        path.write_text(json.dumps(data))
        config, params, adam, sp, cp = load_checkpoint(path)
        assert (config.t_pred, config.dt) == (30, 0.1)
        assert config == tiny_model.config

    def test_params_only_builds_no_state(self, tiny_model, tmp_path, monkeypatch):
        rng = np.random.default_rng(402)
        grid = tiny_model.config.grid
        stream = [make_sample(rng, grid, task_label=1) for _ in range(16)]
        result = train_stream(tiny_model, stream, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=8))
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

        for name in ("AdamState", "SeparationBuffer", "CompletionBuffer", "_triplet_from_json"):
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
