"""Scenario generation and CSV ingestion.

Noiseless episodes follow exact constant-speed kinematics, so endpoint
positions in the target-centric frame have closed forms the tests pin
down to float precision.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from contrail import scenarios
from contrail.core import Scenes, local_endpoints, scene_frames
from contrail.scenarios import (
    CSV_HEADER,
    TaskSpec,
    build_stream,
    generate_task,
    ingest_csv,
    task_datasets,
    write_task_csv,
)

from conftest import ref_generate, ref_write_task_csv, same_bits, same_rows, scale_positions


def local_endpoints_of(scenes: Scenes) -> np.ndarray:
    """Each truth endpoint in its scene's target-centric frame, (n, 2)."""
    return local_endpoints(scene_frames(scenes), scenes.ends)


class TestStraight:
    def test_endpoint_lies_dead_ahead(self):
        spec = TaskSpec(
            kind="straight", n_samples=6, seed=3, speed_range=(10.0, 10.0)
        )
        scenes = generate_task(spec)
        for lon, lat in local_endpoints_of(scenes):
            # 30 steps of 0.1 s at 10 m/s.
            assert lon == pytest.approx(30.0, abs=1e-9)
            assert lat == pytest.approx(0.0, abs=1e-9)
        assert scenes.speeds.tolist() == [10.0] * 6

    def test_velocities_and_spacing_are_exact(self):
        spec = TaskSpec(
            kind="straight", n_samples=3, seed=4, speed_range=(10.0, 10.0)
        )
        for hist in generate_task(spec).tv.tolist():
            for x, y, vx, vy in hist:
                assert math.hypot(vx, vy) == pytest.approx(10.0, rel=1e-12)
            for a, b in zip(hist, hist[1:]):
                step = math.hypot(b[0] - a[0], b[1] - a[1])
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
        for lon, lat in local_endpoints_of(generate_task(spec)):
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
        scenes = generate_task(spec)
        for hist, (lon, lat) in zip(scenes.tv.tolist(), local_endpoints_of(scenes)):
            ax, ay = hist[1][0] - hist[0][0], hist[1][1] - hist[0][1]
            for x, y, _, _ in hist[2:]:
                cross = ax * (y - hist[0][1]) - ay * (x - hist[0][0])
                assert abs(cross) < 1e-9
            assert lon == pytest.approx(r * math.sin(phase), abs=1e-6)
            assert lat == pytest.approx(r * (1.0 - math.cos(phase)), abs=1e-6)
            assert lat < 0


class TestGeneration:
    def test_same_seed_same_samples(self):
        spec = TaskSpec("arc", 5, seed=11, noise_sigma=0.15)
        assert same_rows(generate_task(spec), generate_task(spec))

    def test_different_seeds_differ(self):
        a = generate_task(TaskSpec("arc", 5, seed=11, noise_sigma=0.15))
        b = generate_task(TaskSpec("arc", 5, seed=12, noise_sigma=0.15))
        assert a.ends[0].tolist() != b.ends[0].tolist()

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("straight", "5816e486721657198487783b947c2cf4888bae622b132f13f96098eed9936440"),
            ("arc", "51e2322f2401f8341f847038573516e95b049bedaab4526f650c5131ec438076"),
            ("turn", "124f7a3ec3a7e0f9f8d446ce9ff38e6c52dfe69ca67354bd0157c3807debdc21"),
        ],
    )
    def test_generated_bytes_are_pinned(self, kind, digest):
        """SHA-256 of the tv, svs, ends and speeds float64 bytes, pinned
        from the generator as it was when every sample was an object:
        the rng call order and the arithmetic stay exactly as they were."""
        scenes = generate_task(TaskSpec(kind=kind, n_samples=5, seed=11, noise_sigma=0.1, k_sv=2), label=1)
        h = hashlib.sha256()
        for column in (scenes.tv, scenes.svs, scenes.ends, scenes.speeds):
            h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
        assert h.hexdigest() == digest
        assert scenes.mask.all() and scenes.labels.tolist() == [1] * 5

    def test_noise_moves_positions_but_not_speeds(self):
        spec = TaskSpec(
            kind="straight",
            n_samples=4,
            seed=7,
            noise_sigma=0.5,
            speed_range=(10.0, 10.0),
        )
        for hist in generate_task(spec).tv.tolist():
            for _, _, vx, vy in hist:
                assert math.hypot(vx, vy) == pytest.approx(10.0, rel=1e-12)
            # Collinearity breaks once positions are perturbed.
            ax, ay = hist[1][0] - hist[0][0], hist[1][1] - hist[0][1]
            residual = max(
                abs(ax * (y - hist[0][1]) - ay * (x - hist[0][0]))
                for x, y, _, _ in hist[2:]
            )
            assert residual > 1e-6

    def test_neighbors_sorted_by_distance_at_decision_step(self):
        spec = TaskSpec("straight", 5, seed=8, noise_sigma=0.15)
        scenes = generate_task(spec)
        for tv, svs in zip(scenes.tv.tolist(), scenes.svs.tolist()):
            dists = [math.hypot(tr[-1][0] - tv[-1][0], tr[-1][1] - tv[-1][1]) for tr in svs]
            assert dists == sorted(dists)
        assert scenes.mask.all()

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
                TaskSpec("straight", 10, seed=1, noise_sigma=0.15),
                TaskSpec("turn", 10, seed=2, noise_sigma=0.15),
            )
        )

    def _stream(self, datasets, seed):
        """The rows of ``build_stream``'s order, as a cell takes them."""
        trains = [train for train, _ in datasets]
        return Scenes.concat(trains).take(build_stream(trains, seed))

    def test_eighty_twenty_index_split(self):
        datasets = self._datasets()
        assert [len(tr) for tr, _ in datasets] == [8, 8]
        assert [len(te) for _, te in datasets] == [2, 2]
        full = generate_task(TaskSpec("straight", 10, seed=1, noise_sigma=0.15), label=1)
        train, test = datasets[0]
        assert same_rows(Scenes.concat([train, test]), full)

    def test_holdout_ignores_stream_seed(self):
        datasets = self._datasets()
        holdouts = [te.ends.copy() for _, te in datasets]
        held_out = {tuple(end) for h in holdouts for end in h.tolist()}
        for seed in (0, 99):
            stream = self._stream(datasets, seed)
            assert held_out.isdisjoint(tuple(end) for end in stream.ends.tolist())
            assert all(np.array_equal(te.ends, h) for (_, te), h in zip(datasets, holdouts))

    def test_stream_is_made_of_the_train_samples_themselves(self):
        datasets = self._datasets()
        stream = self._stream(datasets, 0)
        order = build_stream([train for train, _ in datasets], 0)
        assert same_rows(stream.take(np.argsort(order)), Scenes.concat([tr for tr, _ in datasets]))

    def test_stream_is_a_row_order_over_the_train_halves(self):
        datasets = self._datasets()
        order = build_stream([train for train, _ in datasets], 0)
        assert sorted(order.tolist()) == list(range(16))
        assert sorted(order[:8].tolist()) == list(range(8))
        assert np.array_equal(order[:8], np.random.default_rng([0, 0]).permutation(8))
        assert np.array_equal(order[8:], 8 + np.random.default_rng([0, 1]).permutation(8))

    def test_stream_keeps_task_order_and_labels(self):
        stream = self._stream(self._datasets(), 0)
        assert len(stream) == 16
        assert stream.labels.tolist() == [1] * 8 + [2] * 8

    def test_shuffle_permutes_within_a_task(self):
        datasets = self._datasets()
        ordered = Scenes.concat([train for train, _ in datasets])
        shuffled = self._stream(datasets, 0)
        assert sorted(shuffled.ends[:8].tolist()) == sorted(ordered.ends[:8].tolist())
        assert not np.array_equal(shuffled.ends, ordered.ends)
        assert same_rows(self._stream(datasets, 0), shuffled)

    def test_stream_seed_changes_the_order(self):
        datasets = self._datasets()
        a = self._stream(datasets, 0)
        b = self._stream(datasets, 1)
        assert not np.array_equal(a.ends, b.ends)


class TestFamilySeparation:
    def test_endpoint_clusters_are_well_separated(self):
        straight = generate_task(TaskSpec("straight", 40, seed=21, noise_sigma=0.15))
        turn = generate_task(TaskSpec("turn", 40, seed=22, noise_sigma=0.15))
        lat_s = local_endpoints_of(straight)[:, 1]
        lat_t = local_endpoints_of(turn)[:, 1]
        gap = abs(lat_s.mean() - lat_t.mean())
        assert gap > 3.0 * (lat_s.std() + lat_t.std())


class TestCsvRoundTrip:
    @staticmethod
    def assert_round_trip(tmp_path, spec):
        path = tmp_path / "task.csv"
        written = write_task_csv(spec, label=7, path=path)
        assert same_rows(written, generate_task(spec, label=7))
        ingested = ingest_csv(path, t_obs=spec.t_obs, t_pred=spec.t_pred, k_sv=spec.k_sv)
        assert len(ingested) == len(written) == spec.n_samples
        for name in ("tv", "svs", "mask", "ends"):
            assert np.array_equal(getattr(ingested, name), getattr(written, name))
        assert ingested.speeds == pytest.approx(written.speeds, rel=1e-12)
        assert ingested.labels.tolist() == [7] * spec.n_samples

    def test_written_task_reingests_exactly(self, tmp_path):
        self.assert_round_trip(tmp_path, TaskSpec("arc", 3, seed=31, noise_sigma=0.15, k_sv=2))

    def test_long_horizon_task_reingests_exactly(self, tmp_path):
        # A 110-frame window: episodes 100 frames apart would leave each
        # target track alive in the next episode's observation window.
        self.assert_round_trip(tmp_path, TaskSpec("arc", 50, seed=3, noise_sigma=0.15, k_sv=1, t_pred=100))

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = TaskSpec("turn", 3, seed=32, noise_sigma=0.15)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_task_csv(spec, label=1, path=a)
        write_task_csv(spec, label=1, path=b)
        assert a.read_bytes() == b.read_bytes()


# (spec, label, SHA-256 of its file), pinned from the writer that drew
# one scalar noise value per coordinate and wrote a csv.writer row per
# agent per frame.
CSV_DIGESTS = [
    (
        TaskSpec("straight", 6, seed=11, noise_sigma=0.15),
        1,
        "2de84845e77ea6beb285f88c9c56ab761fb1bcbaae82177fe3ebb60c119df114",
    ),
    (
        TaskSpec("arc", 6, seed=12, noise_sigma=0.15),
        2,
        "0f493cd77685131e31ae38bb20b404aa8fc65e491e41fab466f7a6baec2dcc89",
    ),
    (
        TaskSpec("turn", 6, seed=13, noise_sigma=0.15),
        3,
        "08ccee0b32d5593341a0ab5b09d3b01e69d72fa86ae66a88edec6d94621fe401",
    ),
    (
        TaskSpec("arc", 4, seed=14, noise_sigma=0.0, k_sv=0, t_pred=100),
        4,
        "844bc0fae6b837d043447180e56beb8c2167613d21d528acfcb355bc267e0529",
    ),
]
CSV_IDS = ["straight", "arc", "turn", "noiseless long horizon"]


class TestCsvBytes:
    @pytest.mark.parametrize("spec, label, digest", CSV_DIGESTS, ids=CSV_IDS)
    def test_written_bytes_are_pinned(self, tmp_path, spec, label, digest):
        path = tmp_path / "task.csv"
        write_task_csv(spec, label, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("spec, label, digest", CSV_DIGESTS, ids=CSV_IDS)
    def test_reference_draws_and_rows_give_the_same_bytes(self, tmp_path, spec, label, digest):
        written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
        write_task_csv(spec, label, written)
        ref_write_task_csv(spec, label, reference)
        assert written.read_bytes() == reference.read_bytes()


# Specs whose tracks overflow or leave the bound, by how they get there.
OUT_OF_SCALE = [
    {"noise_sigma": 1e308},
    {"speed_range": (1.0, 1e308)},
    {"dt": 1e307},
    {"kind": "arc", "speed_range": (1.0, 1e200), "curvature_range": (0.04, 1e200)},
    {"kind": "turn", "dt": 5e-324},
    {"kind": "arc", "curvature_range": (-1e308, 1e308)},
    {"speed_range": (1.0, 5e307)},
    {"noise_sigma": 1e306},
    {"dt": 1e305},
]
OUT_OF_SCALE_IDS = [
    "noise_sigma", "speed_range", "dt", "infinite arc heading", "infinite turn rate", "range too wide to draw",
    "finite speed_range beyond the bound", "finite noise_sigma beyond the bound", "finite dt beyond the bound",
]


class TestNonFiniteTracks:
    @pytest.mark.parametrize("overrides", OUT_OF_SCALE, ids=OUT_OF_SCALE_IDS)
    def test_are_refused_by_kind_and_seed_and_never_written(self, tmp_path, overrides):
        spec = TaskSpec(**{"kind": "straight", "n_samples": 20, "seed": 5, **overrides})
        message = f"kind {spec.kind}, seed 5 draws non-finite tracks"
        with pytest.raises(ValueError, match=message):
            generate_task(spec)
        with pytest.raises(ValueError, match=message):
            write_task_csv(spec, 1, tmp_path / "task.csv")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match=rf"^tasks\[0\]: {message}"):
            task_datasets((spec,))

    def test_speed_at_the_bound_is_kept(self):
        # Within 0.1 s of the anchor the positions stay near 1e5 m, so
        # the velocity components decide: at most 1e6 m/s at speed 1e6,
        # at least 2e6 / sqrt(2) m/s at speed 2e6.  No neighbors, whose
        # speeds are jittered.
        def at(speed):
            return TaskSpec("straight", 20, seed=2, speed_range=(speed, speed), t_obs=2, t_pred=1, k_sv=0)

        assert scenarios.TRACK_LIMIT == 1e6
        assert np.abs(generate_task(at(1e6)).tv[..., 2:]).max() <= 1e6
        with pytest.raises(ValueError, match="values beyond 1e\\+06 m or m/s"):
            generate_task(at(2e6))

    def test_task_datasets_names_the_task(self):
        good = TaskSpec("straight", 5, seed=1)
        bad = TaskSpec("arc", 5, seed=9, noise_sigma=1e308)
        with pytest.raises(ValueError, match=r"^tasks\[1\]: kind arc, seed 9 draws non-finite tracks"):
            task_datasets((good, bad))


def assert_same_draw(spec: TaskSpec) -> None:
    """``_generate`` and the scalar oracle give the same arrays, bit for
    bit, or refuse the spec with the same message."""
    try:
        want = ref_generate(spec, 3)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            scenarios._generate(spec, 3)
        return
    got = scenarios._generate(spec, 3)
    assert same_rows(got[0], want[0]) and same_bits(got[1], want[1]), spec
    for column in ("tv", "svs", "ends", "speeds"):
        assert same_bits(getattr(got[0], column), getattr(want[0], column)), (spec, column)


class TestGenerationMatchesScalarOracle:
    """The array rollout against ``conftest.ref_generate``, which draws
    and rolls out one episode, agent and step at a time."""

    @pytest.mark.parametrize("kind", ["straight", "arc", "turn"])
    @pytest.mark.parametrize("t_obs, t_pred", [(2, 1), (10, 30), (5, 100)])
    def test_every_noise_level_and_neighbor_count(self, kind, t_obs, t_pred):
        for noise_sigma, k_sv in itertools.product((0.0, 0.15, 3.0), (0, 1, 4)):
            assert_same_draw(
                TaskSpec(kind, 7, seed=21, noise_sigma=noise_sigma, k_sv=k_sv, t_obs=t_obs, t_pred=t_pred)
            )

    @pytest.mark.parametrize(
        "bend",
        [(0.0, 0.0), (1e-13, 1e-13), (-1e-13, -1e-13), (1e-13, 3e-13), (-5e-12, 5e-12)],
        ids=["zero", "+1e-13", "-1e-13", "either side of the straight cut", "mixed signs"],
    )
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.15])
    def test_heading_rates_at_the_straight_cut(self, bend, noise_sigma):
        # A heading rate below 1e-12 in magnitude drives straight; the
        # mixed ranges put episodes of one task on both sides of it.
        for k_sv in (0, 4):
            assert_same_draw(TaskSpec("arc", 30, seed=22, noise_sigma=noise_sigma, k_sv=k_sv, curvature_range=bend))
            assert_same_draw(TaskSpec("turn", 30, seed=23, noise_sigma=noise_sigma, k_sv=k_sv, turn_angle_range=bend))

    @pytest.mark.parametrize("overrides", OUT_OF_SCALE, ids=OUT_OF_SCALE_IDS)
    def test_out_of_scale_specs_are_refused_alike(self, overrides):
        for kind in ("straight", "arc", "turn"):
            assert_same_draw(TaskSpec(**{"kind": kind, "n_samples": 20, "seed": 5, **overrides}))


class TestGenerationMemory:
    # tracemalloc peak of the scalar per-step generator on this spec
    # (numpy 2.4, Python 3.11), reached at its bound check: the target
    # and neighbor tracks (1,024,000 B) beside a full-size abs() copy.
    SCALAR_PEAK = 1_623_480

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.1])
    def test_peak_is_no_higher_than_the_scalar_path(self, noise_sigma):
        spec = TaskSpec("turn", 400, seed=3, noise_sigma=noise_sigma)
        scenarios._generate(spec, 1)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            scenarios._generate(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.SCALAR_PEAK


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

        assert samples.tv[0, :, 0].tolist() == [0.0, 1.0, 2.0]
        assert samples.ends[0].tolist() == [4.0, 0.0]
        assert samples.speeds[0] == 10.0
        # The bike covers the first observation window only.
        assert samples.mask[0].tolist() == [True, False]
        assert samples.svs[0, 0, 0, 0] == 100.5
        assert samples.svs[0, 1].tolist() == [[0.0] * 4] * 3

        assert samples.tv[1, :, 0].tolist() == [1.0, 2.0, 3.0]
        assert samples.ends[1].tolist() == [5.0, 0.0]
        assert samples.mask[1].tolist() == [False, False]
        assert samples.labels.tolist() == [3, 3]

    def test_short_tracks_yield_nothing(self, tmp_path):
        rows = [["car", f, float(f), 0.0, 1.0, 0.0, "tv", 1] for f in range(4)]
        path = tmp_path / "short.csv"
        path.write_text(csv_text(rows))
        scenes = ingest_csv(path, t_obs=3, t_pred=2)
        assert len(scenes) == 0 and scenes.tv.shape == (0, 3, 4) and scenes.svs.shape == (0, 4, 3, 4)

    def test_header_only_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        assert len(ingest_csv(path)) == 0

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
        with pytest.raises(ValueError, match=r"dup\.csv:3: duplicate frames within track car: frame 0"):
            ingest_csv(path)
        # The repeat is named where it is, past other tracks' rows.
        rows = [
            ["car", 0, 0.0, 0.0, 1.0, 0.0, "tv", 1],
            ["bike", 0, 5.0, 0.0, 1.0, 0.0, "sv", 1],
            ["bike", 1, 6.0, 0.0, 1.0, 0.0, "sv", 1],
            ["car", 1, 1.0, 0.0, 1.0, 0.0, "tv", 1],
            ["bike", 0, 7.0, 0.0, 1.0, 0.0, "sv", 1],
        ]
        path.write_text(csv_text(rows))
        with pytest.raises(ValueError, match=r"dup\.csv:6: duplicate frames within track bike: frame 0"):
            ingest_csv(path)

    def test_malformed_row_wins_over_a_duplicate_frame(self, tmp_path):
        # Rows are checked as they are read; frames once all are read.
        rows = [
            ["car", 0, 0.0, 0.0, 1.0, 0.0, "tv", 1],
            ["car", 0, 1.0, 0.0, 1.0, 0.0, "tv", 1],
            ["car", "one", 2.0, 0.0, 1.0, 0.0, "tv", 1],
        ]
        path = tmp_path / "dup.csv"
        path.write_text(csv_text(rows))
        with pytest.raises(ValueError, match=r"dup\.csv:4: malformed row"):
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


class TestOutOfRangeRows:
    """Ingestion holds positions and velocities to the bound generation
    uses, ``TRACK_LIMIT``."""

    def test_a_scaled_generated_table_is_refused_at_its_first_row(self, tmp_path):
        path = tmp_path / "big.csv"
        write_task_csv(TaskSpec(kind="straight", n_samples=3, seed=1, noise_sigma=0.1), 1, path)
        ingest_csv(path)
        scale_positions(path, 1e305)
        with pytest.raises(ValueError, match=r"big\.csv:2: non-finite x, y, vx or vy, or one beyond 1e\+06 m"):
            ingest_csv(path)

    @pytest.mark.parametrize("column", [2, 3, 4, 5])
    def test_the_limit_is_kept_and_the_next_float_refused(self, tmp_path, column):
        limit = scenarios.TRACK_LIMIT
        rows = [["car", f, float(f), 0.0, 10.0, 0.0, "tv", 1] for f in range(6)]
        rows[1][column], rows[2][column] = limit, -limit
        path = tmp_path / "edge.csv"
        path.write_text(csv_text(rows))
        assert len(ingest_csv(path, t_obs=3, t_pred=2)) == 2
        rows[4][column] = repr(-math.nextafter(limit, math.inf))
        path.write_text(csv_text(rows))
        with pytest.raises(ValueError, match=r"edge\.csv:6: non-finite x, y, vx or vy, or one beyond"):
            ingest_csv(path, t_obs=3, t_pred=2)


def quadratic_ingest(path, t_obs=10, t_pred=30, k_sv=4):
    """The plain quadratic neighbor search, kept as the reference
    ``ingest_csv`` must equal: every window rescans every other track
    and re-segments it, taking its first segment that covers the whole
    observation window.  Each window becomes a one-row table."""
    tracks, _ = scenarios._parse_rows(Path(path))
    samples = []
    window = t_obs + t_pred
    for tv_id, track in tracks.items():
        if track.role != "tv":
            continue
        for seg in scenarios._segments(track):
            for s in range(len(seg) - window + 1):
                obs = seg[s : s + t_obs]
                t_c_row = obs[-1]
                end_row = seg[s + window - 1]
                candidates = []
                for other_id, other in tracks.items():
                    if other_id == tv_id:
                        continue
                    for oseg in scenarios._segments(other):
                        if oseg[0][0] <= obs[0][0] and oseg[-1][0] >= t_c_row[0]:
                            off = obs[0][0] - oseg[0][0]
                            rows = oseg[off : off + t_obs]
                            d = math.hypot(rows[-1][1] - t_c_row[1], rows[-1][2] - t_c_row[2])
                            candidates.append((d, other_id, rows))
                            break
                candidates.sort(key=lambda c: (c[0], c[1]))
                slots = [[r[1:5] for r in c[2]] for c in candidates[:k_sv]]
                n_real = len(slots)
                slots += [[(0.0,) * 4] * t_obs] * (k_sv - n_real)
                samples.append(
                    Scenes(
                        np.array([[r[1:5] for r in obs]]),
                        np.array(slots, dtype=float).reshape(1, k_sv, t_obs, 4),
                        np.array([[k < n_real for k in range(k_sv)]]).reshape(1, k_sv),
                        np.array([end_row[1:3]]),
                        np.array([math.hypot(t_c_row[3], t_c_row[4])]),
                        np.array([t_c_row[5]]),
                    )
                )
    if not samples:
        return Scenes(
            np.zeros((0, t_obs, 4)), np.zeros((0, k_sv, t_obs, 4)), np.zeros((0, k_sv), bool),
            np.zeros((0, 2)), np.zeros(0), np.zeros(0, int),
        )
    return Scenes.concat(samples)


def track_rows(track_id, role, frames, x0, y0, vx=1.0, vy=0.0, label=1):
    return [[track_id, f, x0 + vx * f, y0 + vy * f, vx, vy, role, label] for f in frames]


class TestNeighborLookupMatchesQuadraticScan:
    """``ingest_csv`` against ``quadratic_ingest`` on tables built to hit
    each rule of the neighbor search."""

    def _ingest_both(self, tmp_path, rows, **kw):
        path = tmp_path / "table.csv"
        path.write_text(csv_text(rows))
        got = ingest_csv(path, **kw)
        assert same_rows(got, quadratic_ingest(path, **kw))
        assert len(got)
        return got

    def test_concurrent_overlapping_tracks(self, tmp_path):
        rows = track_rows("a", "tv", range(0, 12), 0.0, 0.0)
        rows += track_rows("b", "sv", range(2, 14), 0.0, 3.0)
        rows += track_rows("c", "sv", range(0, 5), 1.0, -2.0)
        rows += track_rows("d", "sv", range(5, 16), -1.0, 1.5, vx=0.5)
        rows += track_rows("e", "tv", range(3, 15), 2.0, -4.0, vy=0.25)
        samples = self._ingest_both(tmp_path, rows, t_obs=3, t_pred=2, k_sv=3)
        assert len(samples) == 8 + 8
        assert not samples.mask.all(axis=1).all()
        assert samples.mask.all(axis=1).any()

    def test_neighbor_split_by_a_gap_counts_only_where_a_segment_covers(self, tmp_path):
        rows = track_rows("car", "tv", range(0, 10), 0.0, 0.0)
        rows += track_rows("gappy", "sv", [0, 1, 2] + list(range(4, 13)), 0.0, 2.0)
        samples = self._ingest_both(tmp_path, rows, t_obs=3, t_pred=2, k_sv=1)
        # Window s observes frames s..s+2: the first segment covers s = 0,
        # no segment covers s = 1..3, the second covers s >= 4.
        assert samples.mask[:, 0].tolist() == [True, False, False, False, True, True]
        assert samples.svs[4, 0, 0, 0] == 4.0

    def test_equal_distances_break_on_track_id(self, tmp_path):
        rows = track_rows("car", "tv", range(0, 5), 0.0, 0.0)
        rows += track_rows("zeta", "sv", range(0, 5), 0.0, 2.0)
        rows += track_rows("alpha", "sv", range(0, 5), 0.0, -2.0)
        sample = self._ingest_both(tmp_path, rows, t_obs=3, t_pred=2, k_sv=2)
        assert len(sample) == 1
        assert sample.svs[0, :, 0, 1].tolist() == [-2.0, 2.0]

    def test_more_candidates_than_slots(self, tmp_path):
        rows = track_rows("car", "tv", range(0, 6), 0.0, 0.0)
        for k, y in enumerate((5.0, -1.0, 4.0, -3.0, 2.0)):
            rows += track_rows(f"sv{k}", "sv", range(0, 6), 0.0, y)
        samples = self._ingest_both(tmp_path, rows, t_obs=3, t_pred=2, k_sv=2)
        for svs in samples.svs:
            assert svs[:, 0, 1].tolist() == [-1.0, 2.0]

    def test_two_targets_are_each_others_neighbors(self, tmp_path):
        rows = track_rows("p", "tv", range(0, 6), 0.0, 0.0)
        rows += track_rows("q", "tv", range(0, 6), 0.0, 3.0)
        samples = self._ingest_both(tmp_path, rows, t_obs=3, t_pred=2, k_sv=2)
        assert samples.tv[:, 0, 1].tolist() == [0.0, 0.0, 3.0, 3.0]
        assert samples.svs[:, 0, 0, 1].tolist() == [3.0, 3.0, 0.0, 0.0]
        assert samples.mask.tolist() == [[True, False]] * 4

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables_with_gaps_and_ties(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for k in range(12):
            start = int(rng.integers(0, 20))
            frames = [f for f in range(start, start + int(rng.integers(3, 25))) if rng.random() > 0.1]
            role = "tv" if k % 3 == 0 else "sv"
            # Integer positions on a small grid make distance ties common.
            x0, y0 = (float(v) for v in rng.integers(-3, 4, size=2))
            rows += track_rows(f"t{int(rng.integers(0, 1000)):03d}_{k}", role, frames, x0, y0, vx=0.0)
        rng.shuffle(rows)
        path = tmp_path / "random.csv"
        path.write_text(csv_text(rows))
        assert same_rows(ingest_csv(path, t_obs=3, t_pred=2, k_sv=3), quadratic_ingest(path, t_obs=3, t_pred=2, k_sv=3))


class TestIngestionWorkIsLinear:
    def test_each_track_segmented_once_and_windows_check_only_live_tracks(self, tmp_path, monkeypatch):
        path = tmp_path / "big.csv"
        written = write_task_csv(TaskSpec(kind="straight", n_samples=2000, seed=8, k_sv=2), 1, path)

        segmented = []
        segments = scenarios._segments

        def counting_segments(track):
            segmented.append(id(track))
            return segments(track)

        checks = []  # (first frame, candidates looked at) per lookup

        class CountingList(list):
            def __init__(self, frame, items):
                super().__init__(items)
                self.frame = frame

            def __iter__(self):
                checks.append([self.frame, 0])
                for item in super().__iter__():
                    checks[-1][1] += 1
                    yield item

        index_by_frame = scenarios._index_by_frame

        def counting_index(segs):
            return {f: CountingList(f, entries) for f, entries in index_by_frame(segs).items()}

        monkeypatch.setattr(scenarios, "_segments", counting_segments)
        monkeypatch.setattr(scenarios, "_index_by_frame", counting_index)
        samples = ingest_csv(path, t_obs=10, t_pred=30, k_sv=2)
        assert len(samples) == len(written) == 2000

        alive: dict[int, set[str]] = {}
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                alive.setdefault(int(row[1]), set()).add(row[0])
        n_tracks = len(set().union(*alive.values()))
        assert len(segmented) == len(set(segmented)) == n_tracks == 2000 * 3
        assert len(checks) == len(samples)
        for frame, looked_at in checks:
            assert looked_at <= len(alive[frame])
