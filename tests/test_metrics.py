"""Metrics: endpoint extraction, FDE, miss rate, backward transfer."""

from __future__ import annotations

import json
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from contrail import metrics
from contrail.core import GridSpec
from contrail.metrics import (
    BLOCK_ROWS,
    EvalReport,
    bwt,
    extract_endpoints,
    fde,
    matrix_entries,
    mr_task,
    mr_threshold,
    read_matrix_csv,
    write_matrix_csv,
)
from contrail.selftest import _brute_force_endpoints

from conftest import result_matrix



def endpoints_of(logits: np.ndarray, grid: GridSpec, w: int):
    """``extract_endpoints`` on a batch of one, as a tuple of points."""
    got = extract_endpoints(logits[None], grid, w)
    assert got.shape == (1, w, 2)
    return tuple(tuple(p) for p in got[0].tolist())


def fde_of(points, endpoint) -> float:
    """``fde`` of one sample's candidate ``points``."""
    return fde(np.array([points], dtype=float), np.array([endpoint], dtype=float))[0]


class GroundTruth(NamedTuple):
    """A truth endpoint and the target's speed, as one miss-rate case needs."""

    endpoint: tuple[float, float]
    speed_v: float


def mr_of(cases) -> float:
    """``mr_task`` over (candidates, truth, heading) cases of one width."""
    return mr_task(
        np.array([points for points, _, _ in cases], dtype=float),
        np.array([truth.endpoint for _, truth, _ in cases]),
        np.array([truth.speed_v for _, truth, _ in cases]),
        np.array([heading for _, _, heading in cases], dtype=float),
    )


def fde_loop(points, truth) -> float:
    """Reference: the per-sample FDE loop the array form replaced."""
    tx, ty = truth
    best = math.inf
    for ex, ey in points:
        dx = ex - tx
        dy = ey - ty
        d = math.sqrt(dx * dx + dy * dy)
        if d < best:
            best = d
    return best


def mr_loop(cases) -> float:
    """Reference: the per-sample miss-rate loop the array form replaced;
    cases are (candidates, truth endpoint, speed, heading)."""
    misses = 0
    total = 0
    for points, (tx, ty), speed, (hx, hy) in cases:
        norm = math.sqrt(hx * hx + hy * hy)
        hx, hy = hx / norm, hy / norm
        gate = 1.0 if speed < 1.4 else 2.0 if speed > 11.0 else 1.0 + (speed - 1.4) / (11.0 - 1.4)
        for ex, ey in points:
            dx = ex - tx
            dy = ey - ty
            lon = dx * hx + dy * hy
            lat = -dx * hy + dy * hx
            if abs(lat) > 1.0 or abs(lon) > gate:
                misses += 1
            total += 1
    return 100.0 * misses / total


class TestExtractEndpoints:
    def test_matches_brute_force_on_random_heatmaps(self, tiny_grid):
        rng = np.random.default_rng(200)
        grid65 = GridSpec(rows_h=6, cols_w=5, origin=(-3.0, -4.0), cell_size=2.0)
        for trial in range(200):
            grid = tiny_grid if trial % 2 else grid65
            logits = rng.normal(size=(grid.rows_h, grid.cols_w))
            w = int(rng.integers(1, grid.n_cells + 1))
            assert endpoints_of(logits, grid, w) == tuple(_brute_force_endpoints(logits, grid, w))

    def test_matches_brute_force_with_ties(self, tiny_grid):
        # Integer-valued logits force duplicated probabilities, so both
        # the strict-maximum rule and the lexicographic tie break bite.
        rng = np.random.default_rng(201)
        for _ in range(100):
            logits = rng.integers(0, 3, size=(tiny_grid.rows_h, tiny_grid.cols_w)).astype(float)
            w = int(rng.integers(1, tiny_grid.n_cells + 1))
            assert endpoints_of(logits, tiny_grid, w) == tuple(_brute_force_endpoints(logits, tiny_grid, w))

    @pytest.mark.parametrize(
        "rows_h, cols_w, ws",
        [(16, 16, (1, 2, 6, 17, 200, 256)), (3, 7, (1, 2, 6, 17, 21))],
        ids=["16x16", "3x7"],
    )
    def test_matches_brute_force_on_tie_heavy_stacks(self, rows_h, cols_w, ws):
        # Ties at the W-th key: flat and quantized heatmaps, and logits
        # of +-1e300, whose softmax is a few equal maxima and exact
        # zeros elsewhere.
        rng = np.random.default_rng(203)
        grid = GridSpec(rows_h=rows_h, cols_w=cols_w, origin=(-5.0, -20.0), cell_size=2.5)
        shape = (6, rows_h, cols_w)
        stack = np.concatenate(
            [
                np.zeros((1, rows_h, cols_w)),
                np.full((1, rows_h, cols_w), 7.0),
                rng.integers(0, 2, size=shape).astype(float),
                np.round(rng.normal(size=shape) * 2.0) / 2.0,
                rng.choice([-1e300, 1e300], size=shape),
                rng.choice([-1e300, 0.0, 1e300], p=[0.6, 0.3, 0.1], size=shape),
                rng.normal(size=shape),
            ]
        )
        for w in ws:
            got = extract_endpoints(stack, grid, w)
            for logits, endpoints in zip(stack, got):
                assert [tuple(p) for p in endpoints.tolist()] == _brute_force_endpoints(logits, grid, w)

    def test_dominant_cell_comes_first(self, tiny_grid):
        logits = np.zeros((4, 5))
        logits[2, 3] = 10.0
        first = endpoints_of(logits, tiny_grid, 3)[0]
        assert first == (-10.0 + 3.5 * 4.0, -8.0 + 2.5 * 4.0)

    def test_flat_heatmap_falls_back_to_scan_order(self, tiny_grid):
        # No strict maxima anywhere: the tail fill walks cells in
        # (row, col) order.
        got = endpoints_of(np.zeros((4, 5)), tiny_grid, 3)
        expected = tuple(
            (-10.0 + (c + 0.5) * 4.0, -8.0 + 0.5 * 4.0) for c in range(3)
        )
        assert got == expected

    def test_prefix_stability_in_w(self, tiny_grid):
        rng = np.random.default_rng(202)
        logits = rng.normal(size=(4, 5))
        small = endpoints_of(logits, tiny_grid, 2)
        large = endpoints_of(logits, tiny_grid, 6)
        assert large[:2] == small

    def test_w_bounds(self, tiny_grid):
        flat = np.zeros((4, 5))
        with pytest.raises(ValueError, match="w must be"):
            endpoints_of(flat, tiny_grid, 0)
        with pytest.raises(ValueError, match="w must be"):
            endpoints_of(flat, tiny_grid, 21)
        assert len(endpoints_of(flat, tiny_grid, 20)) == 20

    def test_empty_prediction_rejected(self):
        with pytest.raises(ValueError, match="at least one endpoint"):
            fde(np.zeros((1, 0, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least one endpoint"):
            mr_task(np.zeros((1, 0, 2)), np.zeros((1, 2)), np.ones(1), np.array([1.0, 0.0]))


class TestBatchedScoring:
    """Whole stacks against the per-heatmap brute force and the
    per-sample loops, row by row and bit for bit."""

    def _check_stack(self, logits, grid, w):
        got = extract_endpoints(logits, grid, w)
        assert got.shape == (len(logits), w, 2)
        for row, endpoints in zip(logits, got):
            want = _brute_force_endpoints(row, grid, w)
            assert [tuple(p) for p in endpoints.tolist()] == want

    def test_stacks_with_ties_flat_heatmaps_and_plateaus(self, tiny_grid):
        rng = np.random.default_rng(240)
        for grid, n in (
            (tiny_grid, 20),
            (GridSpec(rows_h=6, cols_w=5, origin=(-3.0, -4.0), cell_size=2.0), 20),
            (GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5), 4),
            (tiny_grid, 70),  # 144 heatmaps: three row blocks
        ):
            shape = (grid.rows_h, grid.cols_w)
            ties = rng.integers(0, 3, size=(n, *shape)).astype(float)
            normal = rng.normal(size=(n, *shape))
            plateaus = np.zeros((3, *shape))
            plateaus[0, 1:3, 1:3] = 2.0  # a 2x2 top plateau: no strict maximum
            plateaus[1, :, :2] = 1.0
            plateaus[1, -1, -1] = 3.0  # one peak beside a long ridge
            plateaus[2] = np.arange(grid.cols_w) // 2  # a staircase of flat steps
            stack = np.concatenate([ties, normal, np.zeros((1, *shape)), plateaus])
            stack = stack[rng.permutation(len(stack))]
            if len(stack) > BLOCK_ROWS:  # one tie-heavy heatmap on both sides of a block boundary
                stack[BLOCK_ROWS - 1 : BLOCK_ROWS + 1] = ties[0]
            for w in (1, 2, 7, grid.n_cells):
                self._check_stack(stack, grid, w)

    def test_stack_rows_are_scored_independently(self, tiny_grid):
        rng = np.random.default_rng(241)
        stack = rng.integers(0, 3, size=(12, 4, 5)).astype(float)
        whole = extract_endpoints(stack, tiny_grid, 5)
        for k in range(len(stack)):
            assert np.array_equal(extract_endpoints(stack[k : k + 1], tiny_grid, 5)[0], whole[k])

    def test_peak_memory_is_no_higher_than_two_full_sorts(self):
        # tracemalloc peaks on this stack (a 400-sample test table on the
        # README grid, numpy 2.4): 4,553,252 B for the two-argsort
        # extraction, 5.6 times the probability array; 3,486,431 B for
        # one partition over the whole stack; 598,878 B in blocks of
        # BLOCK_ROWS heatmaps, the (400, 6, 2) result and one block's
        # transients.
        blocked_peak = 660_000
        grid = GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5)
        logits = np.random.default_rng(243).normal(size=(400, 16, 16)) * 3.0
        extract_endpoints(logits, grid, 6)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            extract_endpoints(logits, grid, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= blocked_peak

    def test_logits_are_checked(self, tiny_grid):
        bad = np.zeros((2, 4, 5))
        bad[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            extract_endpoints(bad, tiny_grid, 3)
        with pytest.raises(ValueError, match="does not match grid"):
            extract_endpoints(np.zeros((2, 5, 4)), tiny_grid, 3)

    def test_fde_and_mr_equal_the_per_sample_loops(self):
        rng = np.random.default_rng(242)
        for w in (1, 3, 6):
            n = 60
            truths = rng.uniform(-20, 20, size=(n, 2))
            speeds = rng.uniform(0, 13, size=n)
            speeds[:3] = (1.4, 11.0, 0.0)
            headings = rng.uniform(-2, 2, size=(n, 2))
            # Candidates on and just beside the gate edges, so any change
            # in the arithmetic flips a decision.
            unit = headings / np.hypot(headings[:, :1], headings[:, 1:])
            gate = np.asarray(mr_threshold(speeds))[:, None]
            lon = gate * rng.choice([-1.0, 1.0, 1.0 - 1e-15, 1.0 + 1e-15, 0.3], size=(n, w))
            lat = rng.choice([-1.0, 1.0, 1.0 - 1e-15, 1.0 + 1e-15, 0.2], size=(n, w))
            endpoints = np.stack(
                [
                    truths[:, None, 0] + lon * unit[:, None, 0] - lat * unit[:, None, 1],
                    truths[:, None, 1] + lon * unit[:, None, 1] + lat * unit[:, None, 0],
                ],
                axis=-1,
            )
            assert fde(endpoints, truths).tolist() == [
                fde_loop(p, t) for p, t in zip(endpoints.tolist(), truths.tolist())
            ]
            cases = list(zip(endpoints.tolist(), truths.tolist(), speeds.tolist(), headings.tolist()))
            assert mr_task(endpoints, truths, speeds, headings) == mr_loop(cases)
            plus_x = [(p, t, v, (1.0, 0.0)) for p, t, v, _ in cases]
            assert mr_task(endpoints, truths, speeds, np.array([1.0, 0.0])) == mr_loop(plus_x)


class TestFde:
    def test_three_four_five(self):
        assert fde_of([(3.0, 4.0)], (0.0, 0.0)) == pytest.approx(5.0, abs=1e-15)

    def test_takes_the_closest_candidate(self):
        pred = [(3.0, 4.0), (0.0, 1.0), (-7.0, 2.0)]
        assert fde_of(pred, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_candidate_order_is_irrelevant(self):
        rng = np.random.default_rng(210)
        pts = [tuple(p) for p in rng.normal(size=(6, 2))]
        a = fde_of(pts, (0.3, -0.4))
        b = fde_of(pts[::-1], (0.3, -0.4))
        assert a == b

    def test_exact_hit_is_zero(self):
        assert fde_of([(1.5, -2.5), (9.0, 9.0)], (1.5, -2.5)) == 0.0


class TestMrThreshold:
    def test_branch_values(self):
        assert mr_threshold(0.0) == 1.0
        assert mr_threshold(0.5) == 1.0
        assert mr_threshold(1.4) == 1.0
        assert mr_threshold(6.2) == pytest.approx(1.5, abs=1e-12)
        assert mr_threshold(11.0) == pytest.approx(2.0, abs=1e-12)
        assert mr_threshold(20.0) == 2.0

    def test_continuity_at_the_knees(self):
        eps = 1e-9
        assert mr_threshold(1.4 + eps) == pytest.approx(mr_threshold(1.4), abs=1e-8)
        assert mr_threshold(11.0 - eps) == pytest.approx(mr_threshold(11.0), abs=1e-8)

    def test_monotone_non_decreasing(self):
        speeds = np.linspace(0.0, 15.0, 400)
        values = [mr_threshold(float(v)) for v in speeds]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mr_threshold(-0.1)


class TestMrTask:
    def test_axis_aligned_hand_case(self):
        # Speed 0 gives gates of 1 m both ways.  Two of the four
        # candidates fall outside the box.
        truth = GroundTruth(endpoint=(0.0, 0.0), speed_v=0.0)
        pred = ((0.5, 0.0), (1.5, 0.0), (0.0, 1.5), (0.9, 0.9))
        assert mr_of([(pred, truth, (1.0, 0.0))]) == pytest.approx(50.0, abs=1e-12)

    def test_gate_boundary_is_a_hit(self):
        truth = GroundTruth(endpoint=(0.0, 0.0), speed_v=0.0)
        on_edge = ((1.0, 0.0),)
        beyond = ((1.0 + 1e-9, 0.0),)
        assert mr_of([(on_edge, truth, (1.0, 0.0))]) == 0.0
        assert mr_of([(beyond, truth, (1.0, 0.0))]) == 100.0

    def test_rotated_frames_match_the_axis_aligned_oracle(self):
        rng = np.random.default_rng(220)
        lon_factors = (-2.0, -0.9, 0.3, 0.9, 1.2, 2.0)
        lat_choices = (-1.3, -0.8, 0.2, 0.8, 1.3)
        for _ in range(50):
            theta = float(rng.uniform(0, 2 * math.pi))
            hx, hy = math.cos(theta), math.sin(theta)
            speed = float(rng.uniform(0.0, 14.0))
            gate = mr_threshold(speed)
            tx, ty = rng.uniform(-30, 30, size=2)
            truth = GroundTruth(endpoint=(float(tx), float(ty)), speed_v=speed)
            endpoints = []
            expected_misses = 0
            for _ in range(6):
                lon = gate * float(rng.choice(lon_factors))
                lat = float(rng.choice(lat_choices))
                if abs(lat) > 1.0 or abs(lon) > gate:
                    expected_misses += 1
                endpoints.append(
                    (tx + lon * hx - lat * hy, ty + lon * hy + lat * hx)
                )
            got = mr_of([(endpoints, truth, (hx, hy))])
            assert got == pytest.approx(100.0 * expected_misses / 6, abs=1e-9)

    def test_candidates_pool_across_cases(self):
        truth = GroundTruth(endpoint=(0.0, 0.0), speed_v=0.0)
        hit = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        mixed = ((0.0, 0.0), (5.0, 0.0), (0.0, 5.0))
        rate = mr_of([(hit, truth, (1.0, 0.0)), (mixed, truth, (1.0, 0.0))])
        assert rate == pytest.approx(100.0 * 2 / 6, abs=1e-12)

    def test_heading_scale_is_irrelevant(self):
        truth = GroundTruth(endpoint=(0.0, 0.0), speed_v=0.0)
        pred = ((1.5, 0.0), (0.5, 0.5))
        a = mr_of([(pred, truth, (1.0, 0.0))])
        b = mr_of([(pred, truth, (20.0, 0.0))])
        assert a == b

    def test_validation(self):
        truth = GroundTruth(endpoint=(0.0, 0.0), speed_v=0.0)
        pred = ((0.0, 0.0),)
        with pytest.raises(ValueError, match="at least one case"):
            mr_task(np.zeros((0, 1, 2)), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="nonzero"):
            mr_of([(pred, truth, (0.0, 0.0))])
        with pytest.raises(ValueError, match="non-negative"):
            mr_task(np.zeros((1, 1, 2)), np.zeros((1, 2)), np.array([-0.5]), np.array([1.0, 0.0]))


class TestBwt:
    def _matrix(self):
        return result_matrix([[1.0], [2.0, 1.0], [3.0, 2.0, 5.0]])

    def test_hand_case(self):
        m = self._matrix()
        assert bwt(m, 3) == pytest.approx((3.0 - 1.0 + 2.0 - 1.0) / 2, abs=1e-15)
        assert bwt(m, 2) == pytest.approx(1.0, abs=1e-15)

    def test_no_forgetting_gives_zero(self):
        assert bwt(result_matrix([[4.0], [4.0, 9.0]]), 2) == 0.0

    def test_sums_in_task_order(self):
        # In task order 1.0 is lost against 1e16; an exact (fsum) or a
        # reversed sum of the same terms keeps it.
        m = result_matrix([[0.0], [0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1e16, -1e16, 0.0]])
        assert bwt(m, 4) == 0.0
        assert math.fsum([1.0, 1e16, -1e16]) == 1.0

    def test_validation(self):
        m = self._matrix()
        with pytest.raises(ValueError, match="at least two"):
            bwt(m, 1)
        with pytest.raises(ValueError, match="exceeds"):
            bwt(m, 4)

    def test_missing_entry_gives_nan(self):
        assert math.isnan(bwt(result_matrix([[1.0], [math.nan, 1.0]]), 2))


class TestMatrixEntries:
    def test_recorded_entries_in_row_major_order(self):
        entries = list(matrix_entries(result_matrix([[], [2.5, 0.1 + 0.2]])))
        assert entries == [(2, 1, 2.5), (2, 2, 0.30000000000000004)]
        assert all(type(i) is int and type(j) is int and type(v) is float for i, j, v in entries)


class TestReportsAndCsv:
    def _matrices(self):
        return result_matrix([[1.5], [2.5, 1.25]]), result_matrix([[10.0], [30.0, 20.0]])

    def test_matrix_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(230)
        m = result_matrix([rng.normal(size=i).tolist() for i in range(1, 4)])
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path, 3)
        assert back.tobytes() == m.tobytes()

    def test_interrupted_matrix_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        fde, mr = self._matrices()
        path = tmp_path / "matrix.csv"
        write_matrix_csv(fde, path)
        real_writer = metrics.csv.writer

        class FailingWriter:
            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows > 2:
                    raise OSError("disk full")
                self.inner.writerow(row)

        monkeypatch.setattr(metrics.csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            write_matrix_csv(mr, path)
        assert np.array_equal(read_matrix_csv(path, 2), fde, equal_nan=True)
        assert list(tmp_path.iterdir()) == [path]

    def test_matrix_csv_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="result-matrix"):
            read_matrix_csv(path, 2)

    def test_task_count_comes_from_the_caller(self, tmp_path):
        # A row cannot claim a task count: the array would be sized by it.
        path = tmp_path / "matrix.csv"
        path.write_text("after_task,tested_task,value\n1,1,0.5\n100000000,1,0.5\n")
        with pytest.raises(ValueError, match=r"matrix.csv:3: after_task 100000000 out of range 1..2"):
            read_matrix_csv(path, 2)
        # Fewer rows than tasks leave the missing entries unrecorded.
        path.write_text("after_task,tested_task,value\n1,1,0.5\n")
        assert np.array_equal(read_matrix_csv(path, 2), result_matrix([[0.5], []]), equal_nan=True)

    def test_report_from_full_matrices(self):
        fde, mr = self._matrices()
        report = EvalReport("dual", 7, fde, mr)
        assert report.per_task_fde == [2.5, 1.25]
        assert report.per_task_mr == [30.0, 20.0]
        assert report.fde_avg == pytest.approx(1.875)
        assert report.mr_avg == pytest.approx(25.0)
        assert report.fde_bwt == pytest.approx(1.0)
        assert report.mr_bwt == pytest.approx(20.0)

    def test_report_without_checkpoints_has_no_bwt(self):
        report = EvalReport("joint", 0, result_matrix([[], [2.0, 3.0]]), result_matrix([[], [5.0, 5.0]]))
        assert report.fde_bwt is None
        assert report.mr_bwt is None
        assert report.fde_avg == pytest.approx(2.5)

    def test_single_task_has_no_bwt(self):
        report = EvalReport("vanilla", 1, result_matrix([[2.0]]), result_matrix([[4.0]]))
        assert report.fde_bwt is None

    @pytest.mark.parametrize(
        "fde_rows,mr_rows,message",
        [
            ([[1.0], [2.0]], [[1.0], [2.0, 3.0]], r"R\[2, 2\] of the fde matrix was never recorded"),
            ([[], [2.0, 3.0]], [[1.0], [2.0, 3.0]], r"R\[1, 1\] of the fde matrix was never recorded"),
            ([[1.0, 9.0], [2.0, 3.0]], [[1.0], [2.0, 3.0]], r"R\[1, 2\] of the fde matrix lies above the diagonal"),
            ([[1.0], [2.0, 3.0]], [[1.0]], r"float64 \(2, 2\) and float64 \(1, 1\)"),
            ([], [], r"n >= 1"),
        ],
        ids=["last row short", "checkpoint row in one matrix only", "upper triangle", "task counts", "empty"],
    )
    def test_inconsistent_matrices_are_refused(self, fde_rows, mr_rows, message):
        with pytest.raises(ValueError, match=message):
            EvalReport("dual", 0, result_matrix(fde_rows), result_matrix(mr_rows))

    def test_json_round_trip(self):
        fde, mr = self._matrices()
        report = EvalReport("dual", 7, fde, mr)
        back = json.loads(report.to_json())
        assert back["strategy"] == report.strategy
        assert back["seed"] == report.seed
        assert back["per_task_fde"] == report.per_task_fde
        assert back["per_task_mr"] == report.per_task_mr
        assert back["fde_avg"] == report.fde_avg
        assert back["mr_avg"] == report.mr_avg
        assert back["fde_bwt"] == report.fde_bwt
        assert back["mr_bwt"] == report.mr_bwt
        assert back["n_tasks"] == 2
        assert [tuple(e) for e in back["fde_matrix"]] == list(matrix_entries(fde))
        assert [tuple(e) for e in back["mr_matrix"]] == list(matrix_entries(mr))
