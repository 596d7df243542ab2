"""Grid geometry, frames, and the shared domain types."""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from contrail.core import (
    GridSpec,
    SampleTable,
    Scenes,
    atomic_write,
    endpoint_cells,
    local_endpoints,
    scene_frames,
    softmax,
    task_boundaries,
    task_label_reads,
)

from conftest import make_scenes, make_table, same_rows


def scenes_of(tv, svs=None, mask=None, ends=None, labels=None) -> Scenes:
    """A table around ``tv`` (n, t_obs, 4) whose other columns default to
    no neighbors, endpoints at the origin and label 1."""
    n, t_obs = tv.shape[:2]
    return Scenes(
        tv,
        np.zeros((n, 0, t_obs, 4)) if svs is None else svs,
        np.zeros((n, 0), bool) if mask is None else mask,
        np.zeros((n, 2)) if ends is None else ends,
        np.ones(n, int) if labels is None else np.asarray(labels),
    )


def cell_centers(grid: GridSpec) -> np.ndarray:
    """Metric center of every cell, ``(n_cells, 2)`` in flat cell order."""
    rows, cols = np.divmod(np.arange(grid.n_cells), grid.cols_w)
    return np.stack(
        [grid.origin[0] + (cols + 0.5) * grid.cell_size, grid.origin[1] + (rows + 0.5) * grid.cell_size],
        axis=1,
    )


class TestGridGeometry:
    def test_cell_center_of_origin_cell(self):
        grid = GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=2.0)
        assert cell_centers(grid)[0].tolist() == [1.0, 1.0]
        assert endpoint_cells(np.array([[1.0, 1.0]]), grid).tolist() == [0]

    def test_round_trip_from_cell_centers(self):
        """center -> cell is the identity on every cell."""
        grid = GridSpec(rows_h=7, cols_w=5, origin=(-3.5, 2.0), cell_size=1.25)
        assert endpoint_cells(cell_centers(grid), grid).tolist() == list(range(grid.n_cells))

    def test_random_points_hit_nearest_center(self):
        """The mapped cell achieves the minimum distance to the point
        among all cell centers (brute-force nearest-center oracle)."""
        rng = np.random.default_rng(42)
        grid = GridSpec(rows_h=6, cols_w=9, origin=(-4.0, -7.0), cell_size=0.8)
        centers = cell_centers(grid)
        points = rng.uniform(-15, 15, size=(1000, 2))
        got = centers[endpoint_cells(points, grid)]
        for p, (gx, gy) in zip(points.tolist(), got.tolist()):
            d_got = math.hypot(gx - p[0], gy - p[1])
            d_best = min(math.hypot(cx - p[0], cy - p[1]) for cx, cy in centers.tolist())
            assert d_got == pytest.approx(d_best, abs=1e-12)

    def test_far_point_clamps_to_border(self):
        """Beyond each border, and each corner, a point snaps to the
        nearest border cell."""
        grid = GridSpec(rows_h=4, cols_w=6, origin=(0.0, 0.0), cell_size=1.0)
        far = 1000.0
        cases = {
            (far, 2.5): (2, 5),
            (-far, 2.5): (2, 0),
            (3.5, far): (3, 3),
            (3.5, -far): (0, 3),
            (far, far): (3, 5),
            (-far, -far): (0, 0),
            (far, -far): (0, 5),
            (-far, far): (3, 0),
            (6.0, 4.0): (3, 5),
        }
        cells = endpoint_cells(np.array(list(cases)), grid)
        assert [divmod(int(c), grid.cols_w) for c in cells] == list(cases.values())

    def test_non_finite_point_rejected(self):
        grid = GridSpec(rows_h=4, cols_w=6, origin=(0.0, 0.0), cell_size=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite endpoint"):
                endpoint_cells(np.array([[0.5, bad]]), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(rows_h=0, cols_w=4, origin=(0.0, 0.0), cell_size=1.0)
        with pytest.raises(ValueError):
            GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=0.0)
        for cell_size in (math.nan, math.inf):
            with pytest.raises(ValueError, match="cell_size is .*: it must be positive and finite"):
                GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=cell_size)
        for origin in ((-5.0,), (0.0, 0.0, 1.0), ("a", "b"), (math.nan, 0.0), (0.0, -math.inf)):
            with pytest.raises(ValueError, match="origin is .*: it must be two finite numbers"):
                GridSpec(rows_h=4, cols_w=4, origin=origin, cell_size=1.0)


def to_world(frame: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Inverse of :func:`local_endpoints` for one frame row."""
    x0, y0, cos_h, sin_h, _ = frame
    px, py = point
    return np.array([x0 + px * cos_h - py * sin_h, y0 + px * sin_h + py * cos_h])


class TestFrame:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        scenes = make_scenes(rng, 200)
        frames = scene_frames(scenes)
        points = rng.uniform(-50, 50, size=(200, 2))
        local = local_endpoints(frames, points)
        for frame, p, q in zip(frames, points, local):
            assert to_world(frame, q) == pytest.approx(p, abs=1e-9)

    def test_tv_maps_to_origin_moving_plus_x(self):
        scenes = make_scenes(np.random.default_rng(4), 100)
        frames = scene_frames(scenes)
        last = scenes.tv[:, -1]
        origin = local_endpoints(frames, last[:, :2])
        assert np.abs(origin).max() < 1e-12
        # Velocities rotate without the translation.
        velocity = local_endpoints(frames * [0, 0, 1, 1, 0], last[:, 2:])
        speed = np.hypot(last[:, 2], last[:, 3])
        assert velocity[:, 0] == pytest.approx(speed, abs=1e-9)
        assert velocity[:, 1] == pytest.approx(np.zeros(100), abs=1e-9)

    def test_stationary_target_keeps_world_axes(self):
        scenes = scenes_of(np.array([[[3.0, 4.0, 0.0, 0.0]]]))
        frames = scene_frames(scenes)
        assert frames.tolist() == [[3.0, 4.0, 1.0, 0.0, 0.0]]
        assert local_endpoints(frames, np.array([[4.0, 5.0]])).tolist() == [[1.0, 1.0]]


class TestSceneValidation:
    def test_neighbor_length_mismatch(self):
        tv = np.array([[[0, 0, 1, 0], [1, 0, 1, 0]]], dtype=float)
        with pytest.raises(ValueError, match="svs"):
            scenes_of(tv, svs=np.zeros((1, 1, 1, 4)), mask=np.ones((1, 1), bool))

    def test_mask_length_mismatch(self):
        tv = np.array([[[0, 0, 1, 0]]], dtype=float)
        with pytest.raises(ValueError, match="svs"):
            scenes_of(tv, mask=np.ones((1, 1), bool))
        with pytest.raises(ValueError, match="mask"):
            scenes_of(tv, mask=np.zeros((2, 0), bool))
        with pytest.raises(ValueError, match="bools"):
            scenes_of(tv, svs=np.zeros((1, 1, 1, 4)), mask=np.ones((1, 1)))


class TestSceneHash:
    def test_hash_survives_pickle(self):
        scenes = make_scenes(np.random.default_rng(6), 3, labels=[1, 2, 2])
        copy = pickle.loads(pickle.dumps(scenes))
        assert same_rows(copy, scenes)
        assert copy.labels.tolist() == [1, 2, 2]

    def test_scene_stays_frozen(self):
        scenes = make_scenes(np.random.default_rng(7))
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenes.tv = scenes.tv.copy()  # type: ignore[misc]


class TestTable:
    def test_take_and_concat_select_rows(self):
        rng = np.random.default_rng(8)
        a, b = make_scenes(rng, 3, labels=1), make_scenes(rng, 2, labels=2)
        both = Scenes.concat([a, b])
        assert len(both) == 5
        assert both.labels.tolist() == [1, 1, 1, 2, 2]
        assert same_rows(both.take(np.arange(3)), a)
        picked = both.take(np.array([4, 0]))
        assert np.array_equal(picked.tv, np.stack([b.tv[1], a.tv[0]]))
        assert np.array_equal(picked.mask, np.stack([b.mask[1], a.mask[0]]))

    def test_sample_tables_select_rows_with_their_labels(self):
        rng = np.random.default_rng(9)
        a, b = make_table(rng, 3, labels=1), make_table(rng, 2, labels=2)
        both = SampleTable.concat([a, b])
        assert len(both) == 5
        assert task_boundaries(both) == [(1, 3), (2, 5)]
        assert same_rows(both.take(np.arange(3)), a)
        picked = both.take(np.array([4, 0]))
        assert np.array_equal(picked.x, np.stack([b.x[1], a.x[0]]))
        assert [picked.task_label(0), picked.task_label(1)] == [2, 1]


class TestHeatmap:
    def test_probabilities_sum_to_one(self):
        """``softmax`` normalises each heatmap of a stack on its own."""
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=5.0, size=(50, 8, 8))
        probs = softmax(logits)
        assert probs.shape == logits.shape
        np.testing.assert_allclose(probs.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(softmax(logits[7:8])[0], probs[7])


class TestTaskLabelAudit:
    def test_reads_are_counted(self):
        table = make_table(np.random.default_rng(6), labels=3)
        before = task_label_reads()
        assert table.task_label(0) == 3
        _ = table.task_label(0)
        assert task_label_reads() - before == 2

    def test_boundaries_do_not_touch_the_audited_accessor(self):
        stream = make_table(np.random.default_rng(7), 6, labels=[1, 1, 2, 2, 2, 3])
        before = task_label_reads()
        bounds = task_boundaries(stream)
        assert task_label_reads() == before
        assert bounds == [(1, 2), (2, 5), (3, 6)]

    def test_non_monotone_labels_rejected(self):
        stream = make_table(np.random.default_rng(8), 3, labels=[1, 2, 1])
        with pytest.raises(ValueError, match="non-decreasing"):
            task_boundaries(stream)


class TestAtomicWrite:
    def test_block_end_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new\r\nline\n")
            assert path.read_text() == "old"
        assert path.read_bytes() == b"new\r\nline\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_raising_block_leaves_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("half")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

