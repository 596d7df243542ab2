"""Shared fixtures: a tiny model, a random scene factory and a v1
checkpoint writer."""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

import numpy as np
import pytest

from contrail.core import GridSpec, Scenes
from contrail.predictor import HeatmapPredictor, PredictorConfig


def make_scenes(
    rng: np.random.Generator,
    n: int = 1,
    t_obs: int = 2,
    k_sv: int = 1,
    span: float = 20.0,
    grid: GridSpec | None = None,
    labels: int | Sequence[int] = 1,
) -> Scenes:
    """``n`` random scenes, drawn one after the other: uniform states in
    +-span and each neighbor slot kept with probability 0.8.  With a
    ``grid`` each scene then draws an endpoint inside it and a speed in
    [0.5, 12]; without one the endpoint is the origin and the speed 1.
    ``labels`` is one label for every row or one per row."""
    tv, svs, mask = np.empty((n, t_obs, 4)), np.empty((n, k_sv, t_obs, 4)), np.empty((n, k_sv), bool)
    ends, speeds = np.zeros((n, 2)), np.ones(n)
    for i in range(n):
        tracks = rng.uniform(-span, span, size=(1 + k_sv, t_obs, 4))
        tv[i], svs[i] = tracks[0], tracks[1:]
        mask[i] = rng.random(k_sv) < 0.8
        if grid is not None:
            ends[i] = (
                rng.uniform(grid.origin[0], grid.origin[0] + grid.cols_w * grid.cell_size),
                rng.uniform(grid.origin[1], grid.origin[1] + grid.rows_h * grid.cell_size),
            )
            speeds[i] = rng.uniform(0.5, 12.0)
    return Scenes(tv, svs, mask, ends, speeds, np.broadcast_to(np.asarray(labels), (n,)).copy())


def same_scenes(a: Scenes, b: Scenes) -> bool:
    """Every column of ``a`` and ``b``, the labels included, is equal."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(Scenes)
    )


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

    def items(buffer):
        scenes, logits = buffer.contents()
        return [
            {
                "scene": {"tv": tv, "svs": svs, "mask": mask, "t_c": config.t_obs - 1},
                "truth": {"endpoint": end, "speed_v": speed},
                "init_logits": lg,
            }
            for tv, svs, mask, end, speed, lg in zip(
                scenes.tv.tolist(), scenes.svs.tolist(), scenes.mask.tolist(),
                scenes.ends.tolist(), scenes.speeds.tolist(), logits.tolist(),
            )
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
