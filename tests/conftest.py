"""Shared fixtures: a tiny model, a random scene factory and the plain
reference implementations (oracles) that tests compare the array code
against."""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from contrail.core import GridSpec, SampleTable, Scenes, softmax
from contrail.memory import FIRST_SAMPLE_SCORE
from contrail.predictor import FactoredGrads, HeatmapPredictor, PredictorConfig
from contrail.scenarios import CSV_HEADER, TaskSpec, _generate, _pose_on


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


def make_table(
    rng: np.random.Generator,
    n: int = 1,
    grid: GridSpec | None = None,
    labels: int | Sequence[int] = 1,
) -> SampleTable:
    """``n`` random samples of :func:`make_scenes` (its default
    geometry), encoded onto ``grid`` (by default the tiny grid)."""
    grid = grid or GridSpec(rows_h=4, cols_w=5, origin=(-10.0, -8.0), cell_size=4.0)
    model = HeatmapPredictor(PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(1,), grid=grid))
    return model.encode(make_scenes(rng, n, grid=grid, labels=labels))


def same_rows(a, b) -> bool:
    """``a`` and ``b`` are tables of one type (``Scenes`` or
    ``SampleTable``) whose every column, the labels included, is equal."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


@pytest.fixture
def tiny_grid() -> GridSpec:
    return GridSpec(rows_h=4, cols_w=5, origin=(-10.0, -8.0), cell_size=4.0)


@pytest.fixture
def tiny_model(tiny_grid: GridSpec) -> HeatmapPredictor:
    return HeatmapPredictor(
        PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(6,), grid=tiny_grid, seed=42)
    )


def endpoint_to_cell(point: tuple[float, float], grid: GridSpec) -> tuple[int, int]:
    """Scalar reference for one row of ``endpoint_cells``: the floor of
    the offset in cells, clamped to the border cell, as (row, col)."""
    x, y = point
    col = math.floor((x - grid.origin[0]) / grid.cell_size)
    row = math.floor((y - grid.origin[1]) / grid.cell_size)
    return min(max(row, 0), grid.rows_h - 1), min(max(col, 0), grid.cols_w - 1)


def brute_force_endpoints(logits: np.ndarray, grid: GridSpec, w: int) -> tuple[tuple[float, float], ...]:
    """Plain-loop endpoint extraction for one ``(rows_h, cols_w)``
    heatmap: strict 3x3 local maxima of the probabilities first, the
    highest remaining cells after, ties by (row, col); as cell centers."""
    probs = softmax(logits[None])[0]
    peaks = []
    rest = []
    for r in range(grid.rows_h):
        for c in range(grid.cols_w):
            is_peak = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if (dr, dc) == (0, 0):
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < grid.rows_h and 0 <= cc < grid.cols_w:
                        if probs[rr, cc] >= probs[r, c]:
                            is_peak = False
            (peaks if is_peak else rest).append((r, c))
    key = lambda rc: (-probs[rc[0], rc[1]], rc[0], rc[1])
    chosen = sorted(peaks, key=key)[:w]
    if len(chosen) < w:
        chosen.extend(sorted(rest, key=key)[: w - len(chosen)])
    return tuple(
        (
            grid.origin[0] + (c + 0.5) * grid.cell_size,
            grid.origin[1] + (r + 0.5) * grid.cell_size,
        )
        for r, c in chosen
    )


def dense(grads: FactoredGrads) -> np.ndarray:
    """The per-sample gradient rows ``(n, P)`` in the flat parameter
    layout: per layer the weight outer product, then the bias."""
    pieces = []
    for d, h in zip(grads.deltas, grads.inputs):
        pieces.append(np.einsum("no,ni->noi", d, h).reshape(d.shape[0], d.shape[1] * h.shape[1]))
        pieces.append(d)
    return np.concatenate(pieces, axis=1)


def cosine_rows(grad: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Cosine of ``grad`` against each row of ``others``; zero-norm
    vectors give 0."""
    g_norm = float(np.linalg.norm(grad))
    denom = g_norm * np.linalg.norm(others, axis=1)
    dots = others @ grad
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


class RefCompletionBuffer:
    """List-backed reference for ``memory.CompletionBuffer``: slots as a
    Python list of rows and a list of logit arrays, appended below
    capacity and replaced in place above it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: list[int] = []
        self.logits: list[np.ndarray] = []
        self.stream_count = 0

    def __len__(self) -> int:
        return len(self.rows)

    def _put(self, slot: int, row: int, logits: np.ndarray) -> None:
        if slot == len(self.rows):
            self.rows.append(row)
            self.logits.append(logits)
        else:
            self.rows[slot] = row
            self.logits[slot] = logits

    def observe(self, row: int, rng: np.random.Generator, logits: np.ndarray) -> None:
        self.stream_count += 1
        if len(self.rows) < self.capacity:
            self._put(len(self.rows), row, logits)
            return
        slot = int(rng.integers(0, self.stream_count))
        if slot < self.capacity:
            self._put(slot, row, logits)

    def retain(self, slots: Sequence[int]) -> None:
        self.rows = [self.rows[s] for s in slots]
        self.logits = [self.logits[s] for s in slots]


class RefSeparationBuffer(RefCompletionBuffer):
    """List-backed reference for ``memory.SeparationBuffer``."""

    def __init__(self, capacity: int, b_compare: int = 10):
        super().__init__(capacity)
        self.b_compare = b_compare
        self.scores: list[float] = []

    def observe(self, row: int, q_new: float, rng: np.random.Generator, logits: np.ndarray) -> bool:
        self.stream_count += 1
        if len(self.rows) < self.capacity:
            self._put(len(self.rows), row, logits)
            self.scores.append(float(q_new))
            return True
        if q_new >= 1.0:
            return False
        q = np.asarray(self.scores)
        total = q.sum()
        if total > 0.0:
            cand = int(rng.choice(len(self.rows), p=q / total))
        else:
            cand = int(rng.integers(0, len(self.rows)))
        q_cand = self.scores[cand]
        denom = q_cand + q_new
        p_replace = q_cand / denom if denom > 0.0 else 0.5
        if rng.random() < p_replace:
            self._put(cand, row, logits)
            self.scores[cand] = float(q_new)
            return True
        return False

    def offer(self, row: int, cosines: np.ndarray, rng: np.random.Generator, logits: np.ndarray) -> bool:
        if self.stream_count == 0:
            q_new = FIRST_SAMPLE_SCORE
        else:
            draws = rng.integers(0, len(self.rows), size=min(self.b_compare, len(self.rows)))
            q_new = float(np.asarray(cosines, dtype=np.float64)[draws].max() + 1.0)
        return self.observe(row, q_new, rng, logits)


def ref_draw_minibatch(buffer: RefCompletionBuffer, n: int, rng: np.random.Generator) -> np.ndarray:
    """Reference for ``memory.draw_minibatch``."""
    if not buffer.rows or n == 0:
        return np.zeros(0, dtype=np.intp)
    return rng.integers(0, len(buffer.rows), size=n)


def ref_replay_targets(buffer: RefCompletionBuffer, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``losses.replay_targets``: one slot at a time."""
    rows = np.array([buffer.rows[s] for s in slots], dtype=np.intp)
    stored = np.stack([buffer.logits[s] for s in slots]).reshape(len(rows), -1)
    return rows, stored


def ref_episode_track(
    spec: TaskSpec,
    anchor: tuple[float, float],
    heading: float,
    speed: float,
    omega_obs: float,
    omega_pred: float,
    n_future: int,
    rng: np.random.Generator,
) -> list[list[float]]:
    """Reference for ``scenarios._episode_track``: one scalar noise draw
    for x, then one for y, at each step."""
    states = []
    for i in range(spec.t_obs + n_future):
        t = (i - (spec.t_obs - 1)) * spec.dt
        x, y, h = _pose_on(anchor, heading, speed, omega_obs if t <= 0 else omega_pred, t)
        if spec.noise_sigma > 0:
            x += rng.normal(0.0, spec.noise_sigma)
            y += rng.normal(0.0, spec.noise_sigma)
        states.append([x, y, speed * math.cos(h), speed * math.sin(h)])
    return states


def ref_write_task_csv(spec: TaskSpec, label: int, path: Path) -> None:
    """Reference for ``scenarios.write_task_csv``: a ``csv.writer`` row
    per agent per frame, floats as ``repr``.  It generates through
    ``scenarios._generate``, which draws with ``scenarios._episode_track``
    (patch in :func:`ref_episode_track` for the whole old path)."""
    scenes, tracks = _generate(spec, label)
    stride = max(100, spec.t_obs + spec.t_pred)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for idx, (tv_track, sv_tracks) in enumerate(zip(tracks.tolist(), scenes.svs.tolist())):
            agents = [(f"e{idx:05d}_tv", "tv", tv_track)]
            agents += [(f"e{idx:05d}_sv{k}", "sv", track) for k, track in enumerate(sv_tracks)]
            for track_id, role, track in agents:
                for f, (x, y, vx, vy) in enumerate(track):
                    writer.writerow(
                        [track_id, idx * stride + f, repr(x), repr(y), repr(vx), repr(vy), role, label]
                    )
