"""Shared fixtures: a tiny model, scene factories, the samples-to-rows
encoder and a v1 checkpoint writer."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from contrail.core import AgentState, GridSpec, GroundTruth, Sample, Scene
from contrail.predictor import HeatmapPredictor, PredictorConfig, SampleTable


def make_scene(
    rng: np.random.Generator, t_obs: int = 2, k_sv: int = 1, span: float = 20.0
) -> Scene:
    def track():
        return tuple(
            AgentState(*(float(v) for v in rng.uniform(-span, span, size=4)))
            for _ in range(t_obs)
        )

    return Scene(
        tv_history=track(),
        sv_histories=tuple(track() for _ in range(k_sv)),
        sv_mask=tuple(bool(rng.random() < 0.8) for _ in range(k_sv)),
        t_c=t_obs - 1,
    )


def make_sample(
    rng: np.random.Generator,
    grid: GridSpec,
    task_label: int = 1,
    t_obs: int = 2,
    k_sv: int = 1,
) -> Sample:
    scene = make_scene(rng, t_obs, k_sv)
    endpoint = (
        float(rng.uniform(grid.origin[0], grid.origin[0] + grid.cols_w * grid.cell_size)),
        float(rng.uniform(grid.origin[1], grid.origin[1] + grid.rows_h * grid.cell_size)),
    )
    truth = GroundTruth(endpoint=endpoint, speed_v=float(rng.uniform(0.5, 12.0)))
    return Sample(scene, truth, task_label)


def encode(model: HeatmapPredictor, samples) -> SampleTable:
    """``samples`` (anything with ``.scene`` and ``.truth``) as the rows
    ``train_stream`` and ``evaluate_task`` take."""
    return model.encode([s.scene for s in samples], [s.truth for s in samples])


@pytest.fixture
def tiny_grid() -> GridSpec:
    return GridSpec(rows_h=4, cols_w=5, origin=(-10.0, -8.0), cell_size=4.0)


@pytest.fixture
def tiny_model(tiny_grid: GridSpec) -> HeatmapPredictor:
    return HeatmapPredictor(
        PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(6,), grid=tiny_grid, seed=42)
    )


def write_v1_checkpoint(path, config, params, adam=None, separation=None, completion=None):
    """Write a ``contrail-checkpoint-v1`` file, the layout of files saved
    before v2: every float a JSON number, one nested dict per buffer
    slot."""

    def states(track):
        return [[st.x, st.y, st.vx, st.vy] for st in track]

    def items(buffer):
        return [
            {
                "scene": {
                    "tv": states(t.scene.tv_history),
                    "svs": [states(track) for track in t.scene.sv_histories],
                    "mask": list(t.scene.sv_mask),
                    "t_c": t.scene.t_c,
                },
                "truth": {"endpoint": list(t.truth.endpoint), "speed_v": t.truth.speed_v},
                "init_logits": t.init_logits.tolist(),
            }
            for t in buffer.contents()
        ]

    payload = {
        "format": "contrail-checkpoint-v1",
        "config": dataclasses.asdict(config),
        "params": params.tolist(),
        "adam": None if adam is None else {"m": adam.m.tolist(), "v": adam.v.tolist(), "t": adam.t},
        "separation": None
        if separation is None
        else {
            "capacity": separation.capacity,
            "b_compare": separation.b_compare,
            "stream_count": separation.stream_count,
            "scores": list(separation.scores),
            "items": items(separation),
        },
        "completion": None
        if completion is None
        else {
            "capacity": completion.capacity,
            "stream_count": completion.stream_count,
            "items": items(completion),
        },
    }
    path.write_text(json.dumps(payload))
