"""Command line flows: config parsing, artifacts, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from contrail import cli, scenarios
from contrail.cli import (
    ConfigError,
    ExperimentConfig,
    _cell_seeds,
    evaluate_task,
    format_summary,
    load_config,
    main,
    parse_config,
    run_cell,
    run_experiment,
    summarize,
)
from contrail.core import GridSpec
from contrail.learner import Strategy, TrainConfig
from contrail.predictor import HeatmapPredictor, PredictorConfig
from contrail.scenarios import generate_task, ingest_csv, preset_task, task_datasets


def base_config(**overrides):
    cfg = {
        "tasks": [
            {"kind": "straight", "n_samples": 40},
            {"kind": "turn", "n_samples": 40},
        ],
        "strategies": ["vanilla", "dual"],
        "train": {"buffer_total": 8, "batch_size": 8},
        "grid": {"rows_h": 8, "cols_w": 8, "origin": [-5.0, -20.0], "cell_size": 5.0},
        "hidden_dims": [16, 16],
        "seed": 3,
        "repetitions": 2,
        "w_endpoints": 4,
    }
    cfg.update(overrides)
    return cfg


def write_config(path, **overrides):
    path.write_text(json.dumps(base_config(**overrides)))
    return path


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(
            json.dumps(
                {
                    "tasks": [{"kind": "straight", "n_samples": 10}],
                    "grid": {
                        "rows_h": 4,
                        "cols_w": 4,
                        "origin": [0.0, 0.0],
                        "cell_size": 1.0,
                    },
                }
            )
        )
        assert cfg.strategies == (Strategy.VANILLA,)
        assert cfg.train.lr == 1e-3
        assert cfg.train.buffer_total == 200
        assert cfg.hidden_dims == (128, 128)
        assert cfg.tasks[0].seed == 1
        assert cfg.tasks[0].speed_range == (5.5, 7.5)
        assert cfg.repetitions == 1

    def test_full_config_parses(self):
        cfg = parse_config(
            json.dumps(
                base_config(
                    strategies=["dual", "agem", "joint"],
                    train={
                        "lr": 0.01,
                        "alpha": 0.5,
                        "beta": 2.0,
                        "base_kind": "focal",
                        "focal_gamma": 1.0,
                        "buffer_total": 50,
                        "replay_batch": 4,
                    },
                )
            )
        )
        assert cfg.strategies == (Strategy.DUAL_REPLAY, Strategy.AGEM, Strategy.JOINT)
        assert cfg.train.lr == 0.01
        assert cfg.train.loss.alpha == 0.5
        assert cfg.train.loss.beta == 2.0
        assert cfg.train.loss.base_kind == "focal"
        assert cfg.train.replay_batch == 4
        assert cfg.tasks[1].kind == "turn"

    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="unknown key.*config.*extra"):
            parse_config(json.dumps(base_config(extra=1)))
        with pytest.raises(ConfigError, match="unknown key.*train"):
            parse_config(json.dumps(base_config(train={"momentum": 0.9})))
        for removed in ("score_per_batch", "cached_score_grads"):
            with pytest.raises(ConfigError, match=f"unknown key.*train.*{removed}"):
                parse_config(json.dumps(base_config(train={removed: False})))
        with pytest.raises(ConfigError, match=r"tasks\[0\]"):
            parse_config(
                json.dumps(
                    base_config(tasks=[{"kind": "straight", "n_samples": 5, "color": 1}])
                )
            )
        bad_grid = base_config()
        bad_grid["grid"]["slant"] = 2
        with pytest.raises(ConfigError, match="unknown key.*grid"):
            parse_config(json.dumps(bad_grid))

    def test_structural_errors(self):
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")
        with pytest.raises(ConfigError, match="must define 'tasks'"):
            parse_config(json.dumps({"grid": base_config()["grid"]}))
        with pytest.raises(ConfigError, match="must define 'grid'"):
            parse_config(json.dumps({"tasks": base_config()["tasks"]}))

    def test_bad_values_become_config_errors(self):
        with pytest.raises(ConfigError, match="invalid config value"):
            parse_config(json.dumps(base_config(strategies=["ewc"])))
        with pytest.raises(ConfigError, match="invalid config value"):
            parse_config(json.dumps(base_config(train={"lr": -1.0})))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("field,value", [("t_obs", 12), ("t_pred", 20), ("dt", 0.2), ("k_sv", 2)])
    def test_tasks_must_share_episode_geometry(self, field, value):
        tasks = [
            {"kind": "straight", "n_samples": 10},
            {"kind": "arc", "n_samples": 10},
            {"kind": "turn", "n_samples": 10, field: value},
        ]
        with pytest.raises(ConfigError, match=rf"tasks\[2\]\.{field} .*share episode geometry"):
            parse_config(json.dumps(base_config(tasks=tasks)))


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        a = _cell_seeds(3, 0)
        assert a == _cell_seeds(3, 0)
        assert a != _cell_seeds(3, 1)
        assert a != _cell_seeds(4, 0)
        assert len(set(a)) == 3


class TestSummaries:
    def test_mean_std_and_missing_bwt(self):
        cells = [
            {"strategy": "joint", "rep": 0, "fde_avg": 1.0, "mr_avg": 2.0, "fde_bwt": None, "mr_bwt": None},
            {"strategy": "joint", "rep": 1, "fde_avg": 3.0, "mr_avg": 4.0, "fde_bwt": None, "mr_bwt": None},
        ]
        summary = summarize(cells)
        stats = summary["joint"]["fde_avg"]
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["std"] == pytest.approx(math.sqrt(2.0))
        assert stats["values"] == [1.0, 3.0]
        assert summary["joint"]["fde_bwt"] is None

        text = format_summary(summary, ["joint"])
        assert "N/A" in text
        assert "2.000 +- 1.414" in text

    def test_single_value_has_zero_std(self):
        cells = [
            {"strategy": "vanilla", "rep": 0, "fde_avg": 5.0, "mr_avg": 1.0, "fde_bwt": 0.5, "mr_bwt": 2.0}
        ]
        summary = summarize(cells)
        assert summary["vanilla"]["fde_avg"]["std"] == 0.0


class TestEvaluateTask:
    def test_wires_the_metric_components_together(self):
        from contrail.core import GridSpec, GroundTruth, Heatmap, scene_frame
        from contrail.metrics import extract_endpoints, fde_sample, mr_task

        grid = GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0)
        model = HeatmapPredictor(
            PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(8,), grid=grid, seed=1)
        )
        params = model.init_params()
        samples = generate_task(preset_task("straight", 6, seed=9), label=1)

        got_fde, got_mr = evaluate_task(model, params, samples, w=3)

        fdes = []
        cases = []
        for s in samples:
            heatmap = model.forward(params, s.scene)
            pred = extract_endpoints(heatmap, 3)
            local = scene_frame(s.scene).to_local(s.truth.endpoint)
            truth = GroundTruth(endpoint=local, speed_v=s.truth.speed_v)
            fdes.append(fde_sample(pred, truth))
            cases.append((pred, truth, (1.0, 0.0)))
        assert got_fde == pytest.approx(float(np.mean(fdes)), rel=1e-12)
        assert got_mr == pytest.approx(mr_task(cases), rel=1e-12)

    def test_empty_task_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="empty task"):
            evaluate_task(tiny_model, tiny_model.init_params(), [])


class TestGenCommand:
    def test_writes_csvs_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tasks=[
            {"kind": "straight", "n_samples": 5},
            {"kind": "arc", "n_samples": 4},
        ])
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 0
        data = out / "data"
        assert (data / "task_01.csv").is_file()
        assert (data / "task_02.csv").is_file()
        manifest = json.loads((data / "gen_manifest.json").read_text())
        assert [t["n_samples"] for t in manifest["tasks"]] == [5, 4]
        assert "task_01.csv" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "turn", "n_samples": 4}])
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--config", str(cfg), "--output", str(a)])
        main(["gen", "--config", str(cfg), "--output", str(b)])
        assert (a / "data" / "task_01.csv").read_bytes() == (
            b / "data" / "task_01.csv"
        ).read_bytes()

    def test_generated_csv_reingests_to_the_same_count(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "arc", "n_samples": 6}])
        out = tmp_path / "out"
        main(["gen", "--config", str(cfg), "--output", str(out)])
        samples = ingest_csv(out / "data" / "task_01.csv")
        assert len(samples) == 6


class TestRunCell:
    def test_every_train_setting_but_the_seed_reaches_training(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        seen = []

        def capture(model, stream, strategy, train_cfg):
            seen.append(train_cfg)
            raise Stop

        monkeypatch.setattr(cli, "train_stream", capture)
        config = ExperimentConfig(
            tasks=(preset_task("straight", 10, seed=1),),
            strategies=(Strategy.VANILLA,),
            train=TrainConfig(lr=0.01, checkpoint_after_each_task=False, agem_ref_batch=7),
            grid=GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=1.0),
            seed=3,
        )
        with pytest.raises(Stop):
            run_cell(config, Strategy.VANILLA, 1, tmp_path / "cell", task_datasets(config.tasks))
        assert seen == [dataclasses.replace(config.train, seed=_cell_seeds(3, 1)[2])]


class TestRunCommand:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_are_generated_once_per_run(self, tmp_path, monkeypatch, workers):
        labels = []
        generate = scenarios.generate_task

        def counting(spec, label=0):
            labels.append(label)
            return generate(spec, label)

        monkeypatch.setattr(scenarios, "generate_task", counting)
        tasks = [
            {"kind": "straight", "n_samples": 20},
            {"kind": "turn", "n_samples": 20},
        ]
        cfg = write_config(tmp_path / "cfg.json", tasks=tasks, workers=workers)
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        # Two strategies x two repetitions, yet each task is drawn once.
        assert labels == [1, 2]

    def test_full_run_artifacts_and_summary_math(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", strategies=["vanilla", "dual", "joint"])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "strategy" in printed and "dual" in printed

        for strategy in ("vanilla", "dual", "joint"):
            for rep in range(2):
                cell = out / "runs" / strategy / f"rep_{rep:02d}"
                for name in (
                    "matrix_fde.csv",
                    "matrix_mr.csv",
                    "report.json",
                    "checkpoint.json",
                ):
                    assert (cell / name).is_file(), (strategy, rep, name)

        summary = json.loads((out / "summary.json").read_text())
        for strategy in ("vanilla", "dual", "joint"):
            reports = [
                json.loads(
                    (out / "runs" / strategy / f"rep_{r:02d}" / "report.json").read_text()
                )
                for r in range(2)
            ]
            fde_vals = [r["fde_avg"] for r in reports]
            stats = summary[strategy]["fde_avg"]
            assert stats["mean"] == pytest.approx(float(np.mean(fde_vals)), rel=1e-12)
            assert stats["std"] == pytest.approx(float(np.std(fde_vals, ddof=1)), rel=1e-12)
            assert stats["values"] == fde_vals
        # Joint trains on a shuffled stream, so it has no per-task
        # checkpoints and no backward-transfer number.
        assert summary["joint"]["fde_bwt"] is None
        assert summary["vanilla"]["fde_bwt"] is not None

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "wall_clock_seconds" in manifest
        assert "N/A" in (out / "summary.txt").read_text()

    def test_repeat_runs_are_identical_except_the_manifest_clock(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            strategies=["dual"],
            repetitions=1,
            tasks=[
                {"kind": "straight", "n_samples": 20},
                {"kind": "turn", "n_samples": 20},
            ],
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(b)]) == 0

        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "manifest.json":
                ma = json.loads((a / rel).read_text())
                mb = json.loads((b / rel).read_text())
                ma.pop("wall_clock_seconds")
                mb.pop("wall_clock_seconds")
                assert ma == mb
            else:
                assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_worker_pool_matches_serial(self, tmp_path):
        tasks = [
            {"kind": "straight", "n_samples": 20},
            {"kind": "turn", "n_samples": 20},
        ]
        serial_cfg = write_config(
            tmp_path / "serial.json", tasks=tasks, repetitions=1, workers=1
        )
        pool_cfg = write_config(
            tmp_path / "pool.json", tasks=tasks, repetitions=1, workers=2
        )
        s_out, p_out = tmp_path / "serial", tmp_path / "pool"
        assert main(["run", "--config", str(serial_cfg), "--output", str(s_out)]) == 0
        assert main(["run", "--config", str(pool_cfg), "--output", str(p_out)]) == 0
        assert (s_out / "summary.json").read_text() == (p_out / "summary.json").read_text()


class TestReportCommand:
    def _run(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            strategies=["vanilla"],
            repetitions=1,
            tasks=[
                {"kind": "straight", "n_samples": 20},
                {"kind": "turn", "n_samples": 20},
            ],
        )
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--output", str(out)])
        return out

    def test_report_matches_stored_summary(self, tmp_path, capsys):
        out = self._run(tmp_path)
        assert main(["report", "--run-dir", str(out), "--check"]) == 0
        assert "matches stored summary.json" in capsys.readouterr().out

    def test_tampered_matrices_fail_the_check(self, tmp_path, capsys):
        out = self._run(tmp_path)
        matrix = out / "runs" / "vanilla" / "rep_00" / "matrix_fde.csv"
        rows = matrix.read_text().splitlines()
        head, first = rows[1].rsplit(",", 1)
        rows[1] = f"{head},{float(first) + 1.0!r}"
        matrix.write_text("\n".join(rows) + "\n")
        assert main(["report", "--run-dir", str(out), "--check"]) == 2

    def test_missing_run_dir_is_a_runtime_error(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path / "void")]) == 2


class TestEvalCommand:
    def test_checkpoint_against_generated_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            strategies=["vanilla"],
            repetitions=1,
            tasks=[{"kind": "straight", "n_samples": 20}],
        )
        out = tmp_path / "out"
        main(["gen", "--config", str(cfg), "--output", str(out)])
        main(["run", "--config", str(cfg), "--output", str(out)])
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--checkpoint",
                str(out / "runs" / "vanilla" / "rep_00" / "checkpoint.json"),
                "--data",
                str(out / "data" / "task_01.csv"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_samples"] == 20
        assert payload["fde"] >= 0.0
        assert 0.0 <= payload["mr"] <= 100.0

    def test_missing_checkpoint_is_a_runtime_error(self, tmp_path, capsys):
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "no.json"), "--data", "x.csv"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count(" ok") >= 6


class TestExitCodes:
    def test_config_problems_exit_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["run", "--config", str(bad)]) == 1
        assert main(["run"]) == 1
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_mismatched_episode_geometry_exits_one_before_any_output(self, tmp_path, capsys):
        tasks = [
            {"kind": "straight", "n_samples": 20},
            {"kind": "turn", "n_samples": 20, "k_sv": 2},
        ]
        cfg = write_config(tmp_path / "cfg.json", tasks=tasks)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        assert "config error: tasks[1].k_sv" in capsys.readouterr().err
