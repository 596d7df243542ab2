"""Scenario generation and CSV ingestion.

Noiseless episodes follow exact constant-speed kinematics, so endpoint
positions in the target-centric frame have closed forms the tests pin
down to float precision.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from contrail.core import scene_frame, task_boundaries
from contrail.scenarios import (
    CSV_HEADER,
    TaskSpec,
    build_stream,
    generate_task,
    ingest_csv,
    preset_task,
    task_datasets,
    write_task_csv,
)


def local_endpoint(sample):
    return scene_frame(sample.scene).to_local(sample.truth.endpoint)


class TestStraight:
    def test_endpoint_lies_dead_ahead(self):
        spec = TaskSpec(
            kind="straight", n_samples=6, seed=3, speed_range=(10.0, 10.0)
        )
        for sample in generate_task(spec):
            lon, lat = local_endpoint(sample)
            # 30 steps of 0.1 s at 10 m/s.
            assert lon == pytest.approx(30.0, abs=1e-9)
            assert lat == pytest.approx(0.0, abs=1e-9)
            assert sample.truth.speed_v == 10.0

    def test_velocities_and_spacing_are_exact(self):
        spec = TaskSpec(
            kind="straight", n_samples=3, seed=4, speed_range=(10.0, 10.0)
        )
        for sample in generate_task(spec):
            hist = sample.scene.tv_history
            for st in hist:
                assert math.hypot(st.vx, st.vy) == pytest.approx(10.0, rel=1e-12)
            for a, b in zip(hist, hist[1:]):
                step = math.hypot(b.x - a.x, b.y - a.y)
                assert step == pytest.approx(1.0, abs=1e-9)


class TestArc:
    def test_endpoint_matches_circular_closed_form(self):
        spec = TaskSpec(
            kind="arc",
            n_samples=6,
            seed=5,
            speed_range=(8.0, 8.0),
            curvature_range=(0.05, 0.05),
        )
        omega = 8.0 * 0.05
        r = 8.0 / omega
        phase = omega * 30 * 0.1
        for sample in generate_task(spec):
            lon, lat = local_endpoint(sample)
            assert lon == pytest.approx(r * math.sin(phase), abs=1e-6)
            assert lat == pytest.approx(r * (1.0 - math.cos(phase)), abs=1e-6)
            assert lat > 0  # positive curvature curves left


class TestTurn:
    def test_history_is_straight_and_future_bends_right(self):
        spec = TaskSpec(
            kind="turn",
            n_samples=6,
            seed=6,
            speed_range=(6.0, 6.0),
            turn_angle_range=(-1.6, -1.6),
        )
        omega = -1.6 / (30 * 0.1)
        r = 6.0 / omega
        phase = -1.6
        for sample in generate_task(spec):
            hist = sample.scene.tv_history
            ax, ay = hist[1].x - hist[0].x, hist[1].y - hist[0].y
            for st in hist[2:]:
                cross = ax * (st.y - hist[0].y) - ay * (st.x - hist[0].x)
                assert abs(cross) < 1e-9
            lon, lat = local_endpoint(sample)
            assert lon == pytest.approx(r * math.sin(phase), abs=1e-6)
            assert lat == pytest.approx(r * (1.0 - math.cos(phase)), abs=1e-6)
            assert lat < 0


class TestGeneration:
    def test_same_seed_same_samples(self):
        spec = preset_task("arc", 5, seed=11)
        a = generate_task(spec)
        b = generate_task(spec)
        for sa, sb in zip(a, b):
            assert sa.scene == sb.scene
            assert sa.truth == sb.truth

    def test_different_seeds_differ(self):
        a = generate_task(preset_task("arc", 5, seed=11))
        b = generate_task(preset_task("arc", 5, seed=12))
        assert a[0].truth.endpoint != b[0].truth.endpoint

    def test_noise_moves_positions_but_not_speeds(self):
        spec = TaskSpec(
            kind="straight",
            n_samples=4,
            seed=7,
            noise_sigma=0.5,
            speed_range=(10.0, 10.0),
        )
        for sample in generate_task(spec):
            hist = sample.scene.tv_history
            for st in hist:
                assert math.hypot(st.vx, st.vy) == pytest.approx(10.0, rel=1e-12)
            # Collinearity breaks once positions are perturbed.
            ax, ay = hist[1].x - hist[0].x, hist[1].y - hist[0].y
            residual = max(
                abs(ax * (st.y - hist[0].y) - ay * (st.x - hist[0].x))
                for st in hist[2:]
            )
            assert residual > 1e-6

    def test_neighbors_sorted_by_distance_at_decision_step(self):
        spec = preset_task("straight", 5, seed=8)
        for sample in generate_task(spec):
            tv = sample.scene.tv_history[-1]
            dists = [
                math.hypot(tr[-1].x - tv.x, tr[-1].y - tv.y)
                for tr in sample.scene.sv_histories
            ]
            assert dists == sorted(dists)
            assert all(sample.scene.sv_mask)

    def test_task_and_stream_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TaskSpec(kind="zigzag", n_samples=1)
        with pytest.raises(ValueError, match="n_samples"):
            TaskSpec(kind="arc", n_samples=0)
        with pytest.raises(ValueError, match="degenerate"):
            TaskSpec(kind="arc", n_samples=1, speed_range=(7.0, 5.0))
        with pytest.raises(ValueError, match="positive"):
            TaskSpec(kind="arc", n_samples=1, speed_range=(0.0, 5.0))
        with pytest.raises(ValueError, match="geometry"):
            TaskSpec(kind="arc", n_samples=1, t_obs=1)
        with pytest.raises(ValueError, match="at least one task"):
            task_datasets(())
        with pytest.raises(ValueError, match="share episode geometry"):
            task_datasets(
                (
                    TaskSpec(kind="arc", n_samples=1, t_obs=10),
                    TaskSpec(kind="turn", n_samples=1, t_obs=12),
                )
            )


class TestSplitsAndStream:
    def _datasets(self):
        return task_datasets(
            (
                preset_task("straight", 10, seed=1),
                preset_task("turn", 10, seed=2),
            )
        )

    def test_eighty_twenty_index_split(self):
        datasets = self._datasets()
        assert [len(tr) for tr, _ in datasets] == [8, 8]
        assert [len(te) for _, te in datasets] == [2, 2]
        full = generate_task(preset_task("straight", 10, seed=1), label=1)
        train, test = datasets[0]
        assert [s.truth for s in train + test] == [s.truth for s in full]

    def test_holdout_ignores_stream_seed(self):
        datasets = self._datasets()
        holdouts = [[s.truth for s in te] for _, te in datasets]
        held_out = {id(s) for _, te in datasets for s in te}
        for seed in (0, 99):
            stream = build_stream(datasets, seed)
            assert held_out.isdisjoint(id(s) for s in stream)
            assert [[s.truth for s in te] for _, te in datasets] == holdouts

    def test_stream_is_made_of_the_train_samples_themselves(self):
        datasets = self._datasets()
        stream = build_stream(datasets, 0)
        assert sorted(map(id, stream[:8])) == sorted(map(id, datasets[0][0]))
        assert sorted(map(id, stream[8:])) == sorted(map(id, datasets[1][0]))

    def test_stream_keeps_task_order_and_labels(self):
        stream = build_stream(self._datasets(), 0)
        assert len(stream) == 16
        assert task_boundaries(stream) == [(1, 8), (2, 16)]

    def test_shuffle_permutes_within_a_task(self):
        datasets = self._datasets()
        ordered = [s for train, _ in datasets for s in train]
        shuffled = build_stream(datasets, 0)
        assert {id(s) for s in shuffled} == {id(s) for s in ordered} or [
            s.truth for s in sorted(shuffled[:8], key=lambda s: s.truth.endpoint)
        ] == [s.truth for s in sorted(ordered[:8], key=lambda s: s.truth.endpoint)]
        assert [s.truth for s in shuffled] != [s.truth for s in ordered]
        again = build_stream(datasets, 0)
        assert [s.truth for s in again] == [s.truth for s in shuffled]

    def test_stream_seed_changes_the_order(self):
        datasets = self._datasets()
        a = build_stream(datasets, 0)
        b = build_stream(datasets, 1)
        assert [s.truth for s in a] != [s.truth for s in b]


class TestFamilySeparation:
    def test_endpoint_clusters_are_well_separated(self):
        straight = generate_task(preset_task("straight", 40, seed=21))
        turn = generate_task(preset_task("turn", 40, seed=22))
        lat_s = np.array([local_endpoint(s)[1] for s in straight])
        lat_t = np.array([local_endpoint(s)[1] for s in turn])
        gap = abs(lat_s.mean() - lat_t.mean())
        assert gap > 3.0 * (lat_s.std() + lat_t.std())


class TestCsvRoundTrip:
    def test_written_task_reingests_exactly(self, tmp_path):
        spec = preset_task("arc", 3, seed=31, k_sv=2)
        path = tmp_path / "task.csv"
        written = write_task_csv(spec, label=7, path=path)
        ingested = ingest_csv(path, t_obs=10, t_pred=30, k_sv=2)
        assert len(ingested) == len(written) == 3
        for w, g in zip(written, ingested):
            assert g.scene.tv_history == w.scene.tv_history
            assert g.scene.sv_histories == w.scene.sv_histories
            assert g.scene.sv_mask == w.scene.sv_mask
            assert g.truth.endpoint == w.truth.endpoint
            assert g.truth.speed_v == pytest.approx(w.truth.speed_v, rel=1e-12)
        assert task_boundaries(ingested) == [(7, 3)]

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = preset_task("turn", 3, seed=32)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_task_csv(spec, label=1, path=a)
        write_task_csv(spec, label=1, path=b)
        assert a.read_bytes() == b.read_bytes()


def csv_text(rows):
    lines = [",".join(CSV_HEADER)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestIngestion:
    def test_sliding_windows_and_neighbor_coverage(self, tmp_path):
        rows = []
        for f in range(6):
            rows.append(["car", f, float(f), 0.0, 10.0, 0.0, "tv", 3])
        for f in range(3):
            rows.append(["bike", f, 100.5, 5.0, 1.0, 0.0, "sv", 3])
        path = tmp_path / "track.csv"
        path.write_text(csv_text(rows))

        samples = ingest_csv(path, t_obs=3, t_pred=2, k_sv=2)
        assert len(samples) == 2

        first, second = samples
        assert [st.x for st in first.scene.tv_history] == [0.0, 1.0, 2.0]
        assert first.truth.endpoint == (4.0, 0.0)
        assert first.truth.speed_v == 10.0
        # The bike covers the first observation window only.
        assert first.scene.sv_mask == (True, False)
        assert first.scene.sv_histories[0][0].x == 100.5
        assert first.scene.sv_histories[1][0].x == 0.0

        assert [st.x for st in second.scene.tv_history] == [1.0, 2.0, 3.0]
        assert second.truth.endpoint == (5.0, 0.0)
        assert second.scene.sv_mask == (False, False)
        assert task_boundaries(samples) == [(3, 2)]

    def test_short_tracks_yield_nothing(self, tmp_path):
        rows = [["car", f, float(f), 0.0, 1.0, 0.0, "tv", 1] for f in range(4)]
        path = tmp_path / "short.csv"
        path.write_text(csv_text(rows))
        assert ingest_csv(path, t_obs=3, t_pred=2) == []

    def test_header_only_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        assert ingest_csv(path) == []

    def test_gaps_split_windows_and_warn(self, tmp_path, caplog):
        rows = [["car", f, float(f), 0.0, 1.0, 0.0, "tv", 1] for f in range(5)]
        rows += [["car", f, float(f), 0.0, 1.0, 0.0, "tv", 1] for f in range(6, 11)]
        path = tmp_path / "gap.csv"
        path.write_text(csv_text(rows))
        with caplog.at_level("WARNING", logger="contrail.scenarios"):
            samples = ingest_csv(path, t_obs=3, t_pred=2)
        assert len(samples) == 2
        assert any("gap" in rec.message for rec in caplog.records)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="expected header"):
            ingest_csv(path)

    def test_malformed_rows_name_the_line(self, tmp_path):
        rows = [
            ["car", 0, 0.0, 0.0, 1.0, 0.0, "tv", 1],
            ["car", 1, "oops", 0.0, 1.0, 0.0, "tv", 1],
        ]
        path = tmp_path / "bad.csv"
        path.write_text(csv_text(rows))
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            ingest_csv(path)

    def test_bad_role_and_field_count(self, tmp_path):
        path = tmp_path / "role.csv"
        path.write_text(csv_text([["car", 0, 0.0, 0.0, 1.0, 0.0, "ghost", 1]]))
        with pytest.raises(ValueError, match="agent_role"):
            ingest_csv(path)
        path2 = tmp_path / "fields.csv"
        path2.write_text(",".join(CSV_HEADER) + "\ncar,0,1.0\n")
        with pytest.raises(ValueError, match="fields"):
            ingest_csv(path2)

    def test_duplicate_frames_rejected(self, tmp_path):
        rows = [
            ["car", 0, 0.0, 0.0, 1.0, 0.0, "tv", 1],
            ["car", 0, 1.0, 0.0, 1.0, 0.0, "tv", 1],
        ]
        path = tmp_path / "dup.csv"
        path.write_text(csv_text(rows))
        with pytest.raises(ValueError, match="duplicate frames"):
            ingest_csv(path)


class TestNonFiniteRows:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", [2, 3, 4, 5])
    def test_rejected_with_path_and_line(self, tmp_path, value, column):
        rows = [["car", f, float(f), 0.0, 10.0, 0.0, "tv", 1] for f in range(6)]
        rows[2][column] = value
        path = tmp_path / "nonfinite.csv"
        path.write_text(csv_text(rows))
        with pytest.raises(ValueError, match=r"nonfinite\.csv:4: non-finite"):
            ingest_csv(path, t_obs=3, t_pred=2)
