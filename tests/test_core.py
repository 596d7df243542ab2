"""Grid geometry, frames, and the shared domain types."""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from contrail.core import (
    AgentState,
    GridSpec,
    GroundTruth,
    Heatmap,
    ResultMatrix,
    Sample,
    Scene,
    atomic_write,
    cell_to_center,
    endpoint_to_cell,
    scene_frame,
    task_boundaries,
    task_label_reads,
)

from conftest import make_scene


class TestGridGeometry:
    def test_cell_center_of_origin_cell(self):
        grid = GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=2.0)
        assert cell_to_center((0, 0), grid) == (1.0, 1.0)

    def test_round_trip_from_cell_centers(self):
        """center -> cell -> center is the identity on every cell."""
        grid = GridSpec(rows_h=7, cols_w=5, origin=(-3.5, 2.0), cell_size=1.25)
        for r in range(grid.rows_h):
            for c in range(grid.cols_w):
                center = cell_to_center((r, c), grid)
                assert endpoint_to_cell(center, grid) == (r, c)

    def test_random_points_hit_nearest_center(self):
        """The mapped cell achieves the minimum distance to the point
        among all cell centers (brute-force nearest-center oracle)."""
        rng = np.random.default_rng(42)
        grid = GridSpec(rows_h=6, cols_w=9, origin=(-4.0, -7.0), cell_size=0.8)
        centers = [
            (r, c, *cell_to_center((r, c), grid))
            for r in range(grid.rows_h)
            for c in range(grid.cols_w)
        ]
        for _ in range(1000):
            p = (float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)))
            r, c = endpoint_to_cell(p, grid)
            got = cell_to_center((r, c), grid)
            d_got = math.hypot(got[0] - p[0], got[1] - p[1])
            d_best = min(math.hypot(cx - p[0], cy - p[1]) for _, _, cx, cy in centers)
            assert d_got == pytest.approx(d_best, abs=1e-12)

    def test_far_point_clamps_to_border(self):
        grid = GridSpec(rows_h=4, cols_w=6, origin=(0.0, 0.0), cell_size=1.0)
        row, col = endpoint_to_cell((1000.0, 2.5), grid)
        assert col == grid.cols_w - 1
        assert row == 2
        assert endpoint_to_cell((-1000.0, -1000.0), grid) == (0, 0)

    def test_cell_to_center_rejects_out_of_range(self):
        grid = GridSpec(rows_h=4, cols_w=6, origin=(0.0, 0.0), cell_size=1.0)
        with pytest.raises(ValueError):
            cell_to_center((4, 0), grid)
        with pytest.raises(ValueError):
            cell_to_center((0, -1), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(rows_h=0, cols_w=4, origin=(0.0, 0.0), cell_size=1.0)
        with pytest.raises(ValueError):
            GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=0.0)


class TestFrame:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            scene = make_scene(rng)
            frame = scene_frame(scene)
            p = (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
            q = frame.to_world(frame.to_local(p))
            assert q[0] == pytest.approx(p[0], abs=1e-9)
            assert q[1] == pytest.approx(p[1], abs=1e-9)

    def test_tv_maps_to_origin_moving_plus_x(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            scene = make_scene(rng)
            tv = scene.tv_history[-1]
            frame = scene_frame(scene)
            lx, ly = frame.to_local((tv.x, tv.y))
            assert abs(lx) < 1e-12 and abs(ly) < 1e-12
            vx, vy = frame.vector_to_local((tv.vx, tv.vy))
            speed = math.hypot(tv.vx, tv.vy)
            assert vx == pytest.approx(speed, abs=1e-9)
            assert vy == pytest.approx(0.0, abs=1e-9)

    def test_stationary_target_keeps_world_axes(self):
        hist = (AgentState(3.0, 4.0, 0.0, 0.0),)
        scene = Scene(tv_history=hist, sv_histories=(), sv_mask=(), t_c=0)
        frame = scene_frame(scene)
        assert frame.to_local((4.0, 5.0)) == (1.0, 1.0)


class TestSceneValidation:
    def test_neighbor_length_mismatch(self):
        tv = (AgentState(0, 0, 1, 0), AgentState(1, 0, 1, 0))
        with pytest.raises(ValueError):
            Scene(tv_history=tv, sv_histories=((AgentState(0, 0, 0, 0),),), sv_mask=(True,), t_c=1)

    def test_mask_length_mismatch(self):
        tv = (AgentState(0, 0, 1, 0),)
        with pytest.raises(ValueError):
            Scene(tv_history=tv, sv_histories=(), sv_mask=(True,), t_c=0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth(endpoint=(0.0, 0.0), speed_v=-1.0)


class TestSceneHash:
    def test_equal_scenes_hash_equal(self):
        a = make_scene(np.random.default_rng(5))
        b = make_scene(np.random.default_rng(5))
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: "stored"}[b] == "stored"

    def test_hash_survives_pickle(self):
        scene = make_scene(np.random.default_rng(6))
        copy = pickle.loads(pickle.dumps(scene))
        assert copy == scene and hash(copy) == hash(scene)
        assert repr(copy) == repr(scene)

    def test_scene_stays_frozen(self):
        scene = make_scene(np.random.default_rng(7))
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.t_c = 0  # type: ignore[misc]


class TestHeatmap:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        grid = GridSpec(rows_h=8, cols_w=8, origin=(0.0, 0.0), cell_size=1.0)
        for _ in range(50):
            hm = Heatmap(rng.normal(scale=5.0, size=(8, 8)), grid)
            assert hm.probabilities().sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_finite(self):
        grid = GridSpec(rows_h=2, cols_w=2, origin=(0.0, 0.0), cell_size=1.0)
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            Heatmap(bad, grid)

    def test_rejects_shape_mismatch(self):
        grid = GridSpec(rows_h=2, cols_w=3, origin=(0.0, 0.0), cell_size=1.0)
        with pytest.raises(ValueError):
            Heatmap(np.zeros((3, 2)), grid)


class TestTaskLabelAudit:
    def test_reads_are_counted(self):
        rng = np.random.default_rng(6)
        scene = make_scene(rng)
        sample = Sample(scene, GroundTruth((0.0, 0.0), 1.0), task_label=3)
        before = task_label_reads()
        _ = sample.task_label
        _ = sample.task_label
        assert task_label_reads() - before == 2

    def test_boundaries_do_not_touch_the_audited_accessor(self):
        rng = np.random.default_rng(7)
        truth = GroundTruth((0.0, 0.0), 1.0)
        stream = [Sample(make_scene(rng), truth, label) for label in (1, 1, 2, 2, 2, 3)]
        before = task_label_reads()
        bounds = task_boundaries(stream)
        assert task_label_reads() == before
        assert bounds == [(1, 2), (2, 5), (3, 6)]

    def test_non_monotone_labels_rejected(self):
        rng = np.random.default_rng(8)
        truth = GroundTruth((0.0, 0.0), 1.0)
        stream = [Sample(make_scene(rng), truth, label) for label in (1, 2, 1)]
        with pytest.raises(ValueError, match="non-decreasing"):
            task_boundaries(stream)


class TestResultMatrix:
    def test_set_get(self):
        m = ResultMatrix(3)
        m.set(2, 1, 4.5)
        assert m.get(2, 1) == 4.5

    def test_upper_triangle_write_rejected(self):
        m = ResultMatrix(3)
        with pytest.raises(ValueError):
            m.set(1, 2, 0.0)

    def test_unrecorded_read_raises(self):
        m = ResultMatrix(3)
        with pytest.raises(KeyError):
            m.get(2, 1)

    def test_final_row(self):
        m = ResultMatrix(2)
        m.set(1, 1, 1.0)
        m.set(2, 1, 3.0)
        m.set(2, 2, 2.0)
        assert m.final_row() == [3.0, 2.0]


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

