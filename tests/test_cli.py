"""Command line flows: config parsing, artifacts, exit codes."""

from __future__ import annotations

import base64
import concurrent.futures
import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from contrail import cli, predictor, scenarios
from contrail.checkpoint import save_checkpoint
from contrail.cli import (
    ConfigError,
    ExperimentConfig,
    _cell_seeds,
    _names,
    evaluate_task,
    format_summary,
    load_config,
    main,
    parse_config,
    run_cell,
    run_experiment,
    summarize,
)
from contrail.core import JSON_FIELDS, GridSpec, SampleTable
from contrail.learner import Strategy, TrainConfig
from contrail.losses import LossSpec
from contrail.metrics import EvalReport, matrix_entries
from contrail.predictor import HeatmapPredictor, PredictorConfig
from contrail.scenarios import TaskSpec, generate_task, ingest_csv, task_datasets, train_count, write_task_csvs
from contrail.selftest import GOLDEN_MATRIX_SHA256, _golden_digest

from conftest import make_scenes, result_matrix, same_bits, same_rows, scale_positions


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


def readme_config() -> ExperimentConfig:
    """The config under the README's quickstart heading: the heredoc of
    its first shell block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Write a config and run a small experiment", 1)[1]
    return parse_config(section.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])


class TestParseConfig:
    def test_readme_quickstart_config_parses(self):
        """The README's quickstart config stays a valid experiment over
        all six strategies."""
        cfg = readme_config()
        assert set(cfg.strategies) == set(Strategy)
        assert len(cfg.strategies) == 6

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

    def test_dataclasses_own_the_defaults(self):
        """A key left out takes its dataclass field's default; only the
        config's own rules (``strategies``, each task's ``seed`` and
        ``noise_sigma``) are supplied by the reader."""
        kinds = [("straight", 10), ("turn", 12)]
        cfg = parse_config(
            json.dumps({"tasks": [{"kind": k, "n_samples": n} for k, n in kinds], "grid": base_config()["grid"]})
        )
        assert cfg.train == TrainConfig()
        assert cfg.tasks == tuple(TaskSpec(k, n, seed=i + 1, noise_sigma=0.15) for i, (k, n) in enumerate(kinds))
        rest = [f for f in dataclasses.fields(ExperimentConfig) if f.name not in ("tasks", "strategies", "train", "grid")]
        assert rest and all(getattr(cfg, f.name) == f.default for f in rest)

    @pytest.mark.parametrize(
        "cls,built",
        [
            (ExperimentConfig, {"tasks", "strategies", "train", "grid"}),
            (TaskSpec, set()),
            (TrainConfig, {"loss"}),
            (LossSpec, set()),
            (GridSpec, set()),
            (PredictorConfig, {"grid"}),
        ],
    )
    def test_every_field_read_has_a_json_type(self, cls, built):
        """Every field the reader reads from JSON (all but those its
        caller builds) has its annotation in the type table, so a field
        of an unsupported type fails here, not in a user's config."""
        names = {f.name for f in dataclasses.fields(cls)}
        assert built <= names
        assert [f.name for f in dataclasses.fields(cls) if f.name not in built and f.type not in JSON_FIELDS] == []

    def test_readme_schema_names_the_keys_the_reader_accepts(self):
        """The tables and the ``grid`` line of README's configuration
        schema name exactly the keys each part of a config accepts."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
        tables, rows = [], None
        for line in section.splitlines():
            if line.startswith("|") and not line.startswith("|--"):
                if rows is None:  # the header row opens a table
                    rows = set()
                    tables.append(rows)
                else:
                    rows.update(re.findall(r"`(\w+)`", line.split("|")[1]))
            elif not line.startswith("|"):
                rows = None
        grid_line = section.split("\n`grid`:", 1)[1].split("\n\n", 1)[0]
        documented = dict(zip(("config", "task", "train"), tables), grid=set(re.findall(r"`(\w+)`", grid_line)))
        assert len(tables) == 3
        assert documented == {
            "config": _names(ExperimentConfig),
            "task": _names(TaskSpec),
            "train": _names(LossSpec, TrainConfig) - {"seed", "loss"},
            "grid": _names(GridSpec),
        }
        # Each documented key is read (``[[]]`` is of no key's type), and
        # the fields ``train`` leaves out are refused.
        for part, keys in documented.items():
            for key in keys:
                config = base_config()
                parts = {"config": config, "task": config["tasks"][0], "train": config["train"], "grid": config["grid"]}
                parts[part][key] = [[]]
                with pytest.raises(ConfigError) as caught:
                    parse_config(json.dumps(config))
                assert "unknown key" not in str(caught.value), (part, key)
        for key in ("seed", "loss"):
            with pytest.raises(ConfigError, match=f"unknown key.*train.*{key}"):
                parse_config(json.dumps(base_config(train={key: 1})))

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

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("hidden_dims",), "6464", 'hidden_dims is "6464": it must be a list of integers'),
            (("hidden_dims",), [64.5, 64], "hidden_dims is [64.5, 64]: it must be a list of integers"),
            (("grid", "origin"), "12", 'grid.origin is "12": it must be a list of numbers'),
            (("tasks", 0, "speed_range"), "35", 'tasks[0].speed_range is "35": it must be a list of numbers'),
            (("tasks", 1, "curvature_range"), [True, 0.1], "tasks[1].curvature_range is [true, 0.1]"),
            (("tasks", 1, "turn_angle_range"), {"lo": 1}, "tasks[1].turn_angle_range is {"),
            (("tasks", 0, "n_samples"), 10.9, "tasks[0].n_samples is 10.9: it must be an integer"),
            (("tasks", 1, "seed"), "4", 'tasks[1].seed is "4": it must be an integer'),
            (("tasks", 0, "t_obs"), 10.0, "tasks[0].t_obs is 10.0: it must be an integer"),
            (("tasks", 0, "k_sv"), False, "tasks[0].k_sv is false: it must be an integer"),
            (("seed",), 1.5, "seed is 1.5: it must be an integer"),
            (("repetitions",), True, "repetitions is true: it must be an integer"),
            (("w_endpoints",), 4.0, "w_endpoints is 4.0: it must be an integer"),
            (("workers",), "2", 'workers is "2": it must be an integer'),
            (("grid", "rows_h"), 8.5, "grid.rows_h is 8.5: it must be an integer"),
            (("train", "batch_size"), 8.0, "train.batch_size is 8.0: it must be an integer"),
            (("train", "buffer_total"), True, "train.buffer_total is true: it must be an integer"),
            (("train", "replay_batch"), 2.5, "train.replay_batch is 2.5: it must be an integer"),
            (("train", "lr"), "0.01", 'train.lr is "0.01": it must be a number'),
            (("output_dir",), 5, "output_dir is 5: it must be a string"),
            (("tasks",), "ab", 'tasks is "ab": it must be a list of task objects'),
            (
                ("tasks",),
                {"kind": "straight", "n_samples": 40},
                'tasks is {"kind": "straight", "n_samples": 40}: it must be a list of task objects',
            ),
            (("tasks",), [5], "tasks[0] is 5: it must be a JSON object"),
            (("train",), [1], "train is [1]: it must be a JSON object"),
            (("train",), None, "train is null: it must be a JSON object"),
            (("grid",), "x", 'grid is "x": it must be a JSON object'),
        ],
    )
    def test_wrong_json_type_is_named(self, tmp_path, capsys, path, value, message):
        """A value of the wrong JSON type is neither split nor truncated:
        the run exits 1 naming the key and writes nothing."""
        config = base_config(output_dir=str(tmp_path / "out"))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "path,message",
        [
            (("tasks", 0, "kind"), "tasks[0].kind is required"),
            (("tasks", 1, "n_samples"), "tasks[1].n_samples is required"),
            (("grid", "cell_size"), "grid.cell_size is required"),
        ],
    )
    def test_missing_required_key_is_named(self, path, message):
        config = base_config()
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(json.dumps(config))

    def test_bad_values_become_config_errors(self):
        with pytest.raises(ConfigError, match="invalid config value"):
            parse_config(json.dumps(base_config(strategies=["ewc"])))
        with pytest.raises(ConfigError, match="invalid config value"):
            parse_config(json.dumps(base_config(train={"lr": -1.0})))

    def test_finite_numbers_parse_to_the_same_floats(self):
        text = json.dumps(base_config(train={"buffer_total": 8, "lr": 0.1 + 0.2, "alpha": 5e-324}))
        cfg = parse_config(text)
        assert (cfg.train.lr, cfg.train.loss.alpha, cfg.grid.origin) == (0.1 + 0.2, 5e-324, (-5.0, -20.0))

    @pytest.mark.parametrize(
        "unreadable, message",
        [
            ("missing", "cannot be read: No such file or directory"),
            ("directory", "cannot be read: Is a directory"),
            ("not UTF-8", "not UTF-8 text: "),
        ],
    )
    def test_unreadable_file_is_a_config_error_naming_it(self, tmp_path, capsys, unreadable, message):
        path = tmp_path / "cfg.json"
        if unreadable == "directory":
            path.mkdir()
        elif unreadable == "not UTF-8":
            path.write_bytes(json.dumps(base_config(output_dir=str(tmp_path / "out"))).encode() + b"\xff")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: {message}")
        assert not (tmp_path / "out").exists()

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


def cell_report(strategy, rep, fde, mr, rows=(2,)):
    """The report of a two-task cell whose matrices hold ``fde`` and
    ``mr`` in every entry of the rows ``rows``; the default, the last
    row alone, is how ``joint`` is scored."""
    fde_m, mr_m = (result_matrix([[v] * i if i in rows else [] for i in (1, 2)]) for v in (fde, mr))
    return EvalReport(strategy, rep, fde_m, mr_m)


class TestSummaries:
    def test_mean_std_and_missing_bwt(self):
        # Out of repetition order: the values come back in it.
        summary = summarize([cell_report("joint", 1, 3.0, 4.0), cell_report("joint", 0, 1.0, 2.0)])
        stats = summary["joint"]["fde_avg"]
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["std"] == pytest.approx(math.sqrt(2.0))
        assert stats["values"] == [1.0, 3.0]
        assert summary["joint"]["mr_avg"]["values"] == [2.0, 4.0]
        assert summary["joint"]["fde_bwt"] is None

        text = format_summary(summary, ["joint"])
        assert "N/A" in text
        assert "2.000 +- 1.414" in text

    def test_single_value_has_zero_std(self):
        summary = summarize([cell_report("vanilla", 0, 5.0, 1.0, rows=(1, 2))])
        assert summary["vanilla"]["fde_avg"]["std"] == 0.0
        assert summary["vanilla"]["fde_bwt"] == {"mean": 0.0, "std": 0.0, "values": [0.0]}


class TestEvaluateTask:
    def test_wires_the_metric_components_together(self):
        from contrail.core import GridSpec, local_endpoints, scene_frames
        from contrail.metrics import extract_endpoints, fde, mr_task

        grid = GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0)
        model = HeatmapPredictor(
            PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(8,), grid=grid, seed=1)
        )
        params = model.init_params()
        samples = generate_task(TaskSpec("straight", 6, seed=9, noise_sigma=0.15), label=1)

        got_fde, got_mr = evaluate_task(model, params, model.encode(samples), w=3)

        fdes = []
        preds = []
        locals_ = []
        speeds = []
        for i in range(len(samples)):
            one = samples.take(np.array([i]))
            frames = scene_frames(one)
            logits = model.forward_logits(params, predictor.scene_features(one, frames))
            pred = extract_endpoints(logits.reshape(1, 8, 8), grid, 3)
            local = local_endpoints(frames, one.ends)
            fdes.append(fde(pred, local)[0])
            preds.append(pred[0])
            locals_.append(local[0])
            speeds.append(frames[0, 4])
        want_mr = mr_task(np.stack(preds), np.stack(locals_), np.array(speeds), np.array([1.0, 0.0]))
        assert got_fde == pytest.approx(float(np.mean(fdes)), rel=1e-12)
        assert got_mr == pytest.approx(want_mr, rel=1e-12)

    def test_empty_task_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="empty task"):
            empty = make_scenes(np.random.default_rng(0), 0)
            evaluate_task(tiny_model, tiny_model.init_params(), tiny_model.encode(empty))


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

    def test_readme_tasks_reingest_to_the_synthetic_table_rows(self, tmp_path):
        """The README tasks written as CSV tables, ingested, split 80/20
        and encoded on the README model give the rows ``encode_tasks``
        gives ``task_datasets``, in every column and bit for bit, the
        labels and speeds included: a run over gen's tables would train
        and score on the synthetic run's rows."""
        config = readme_config()
        model = cli._model(config, config.seed)
        first = config.tasks[0]
        splits = []
        for path, _ in write_task_csvs(config.tasks, tmp_path):
            scenes = ingest_csv(path, t_obs=first.t_obs, t_pred=first.t_pred, k_sv=first.k_sv)
            n_train, rows = train_count(len(scenes)), np.arange(len(scenes))
            splits.append((scenes.take(rows[:n_train]), scenes.take(rows[n_train:])))
        got = [table for pair in cli.encode_tasks(model, splits) for table in pair]
        want = [table for pair in cli.encode_tasks(model, task_datasets(config.tasks)) for table in pair]
        assert [len(table) for table in got] == [320, 80] * 3
        for a, b in zip(got, want, strict=True):
            for f in dataclasses.fields(SampleTable):
                assert same_bits(getattr(a, f.name), getattr(b, f.name)), f.name

    @pytest.mark.parametrize(
        "bad, shared",
        [({"noise_sigma": 1e308}, {}), ({"speed_range": [1.0, 1e308]}, {}), ({"dt": 1e306}, {"dt": 1e306})],
        ids=["noise_sigma", "speed_range", "dt"],
    )
    def test_non_finite_tracks_are_a_config_error_and_never_written(self, tmp_path, capsys, bad, shared):
        """An arc stays on its circle where a straight track overflows:
        the first task draws finite tracks, the second is refused, and
        gen writes nothing, not even the first task's file."""
        tasks = [{"kind": "arc", "n_samples": 5, "seed": 4, **shared}, {"kind": "straight", "n_samples": 5, "seed": 9, **bad}]
        cfg = write_config(tmp_path / "cfg.json", tasks=tasks)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 1
        assert "config error: tasks[1]: kind straight, seed 9 draws non-finite tracks" in capsys.readouterr().err
        assert not out.exists()

    def test_each_task_is_drawn_once(self, tmp_path, monkeypatch):
        labels = []
        draw = scenarios._generate

        def counting(spec, label):
            labels.append(label)
            return draw(spec, label)

        monkeypatch.setattr(scenarios, "_generate", counting)
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "arc", "n_samples": 5}, {"kind": "turn", "n_samples": 4}])
        assert main(["gen", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        assert labels == [1, 2]
        assert [len(ingest_csv(tmp_path / "out" / "data" / f"task_0{i}.csv")) for i in (1, 2)] == [5, 4]


class TestRunCell:
    def test_every_train_setting_but_the_seed_reaches_training(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        seen = []

        def capture(model, table, strategy, train_cfg):
            seen.append(train_cfg)
            raise Stop

        monkeypatch.setattr(cli, "train_stream", capture)
        config = ExperimentConfig(
            tasks=(TaskSpec("straight", 10, seed=1, noise_sigma=0.15),),
            strategies=(Strategy.VANILLA,),
            train=TrainConfig(lr=0.01, replay_batch=3, agem_ref_batch=7),
            grid=GridSpec(rows_h=4, cols_w=4, origin=(0.0, 0.0), cell_size=1.0),
            seed=3,
        )
        tables = cli.encode_tasks(cli._model(config, seed=0), task_datasets(config.tasks))
        with pytest.raises(Stop):
            run_cell(config, Strategy.VANILLA, 1, tmp_path / "cell", tables)
        assert seen == [dataclasses.replace(config.train, seed=_cell_seeds(3, 1)[2])]


class TestScoreCell:
    @pytest.mark.parametrize("strategy,rows", [(Strategy.VANILLA, (1, 2, 3)), (Strategy.JOINT, (3,))])
    def test_each_checkpoint_is_scored_on_its_task_and_every_earlier_one(self, monkeypatch, strategy, rows):
        config = ExperimentConfig(
            tasks=tuple(
                TaskSpec(kind, 10, seed=i, noise_sigma=0.15, k_sv=0)
                for i, kind in enumerate(("straight", "arc", "turn"), start=1)
            ),
            strategies=(strategy,),
            train=TrainConfig(buffer_total=8),
            grid=GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0),
            hidden_dims=(8,),
        )
        model = cli._model(config, seed=0)
        tables = cli.encode_tasks(model, task_datasets(config.tasks))
        result = cli.train_stream(model, SampleTable.concat([train for train, _ in tables]), strategy, config.train)
        tests = [test for _, test in tables]
        scored = []
        evaluate = cli.evaluate_task

        def counting(model, params, table, w):
            scored.append(table)
            return evaluate(model, params, table, w)

        monkeypatch.setattr(cli, "evaluate_task", counting)
        report = cli.score_cell(model, result, tests, strategy, 4, 2)
        # Checkpointed strategies fill the lower triangle; joint has no
        # checkpoint and fills only the last row.  One pass per entry.
        cells = [(i, j) for i in rows for j in range(1, i + 1)]
        assert [(i, j) for i, j, _ in matrix_entries(report.fde_matrix)] == cells
        assert [(i, j) for i, j, _ in matrix_entries(report.mr_matrix)] == cells
        assert [id(table) for table in scored] == [id(tests[j - 1]) for _, j in cells]
        assert (report.strategy, report.seed) == (strategy.value, 4)


class TestRunCommand:
    @pytest.mark.parametrize("strategies,sizes", [(["vanilla", "dual"], [2]), (["vanilla"], [])])
    def test_pool_is_no_larger_than_the_cell_count(self, tmp_path, monkeypatch, strategies, sizes):
        seen = []

        def one_thread(max_workers, **kwargs):  # records the size, starts no process
            seen.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(1, **kwargs)

        monkeypatch.setattr(cli, "_worker_tables", ())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", one_thread)
        config = parse_config(json.dumps(base_config(strategies=strategies, repetitions=1, workers=64)))
        run_experiment(config, tmp_path)
        # One cell runs in this process; two take a pool of two.
        assert seen == sizes
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(strategies)

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_task_split_is_featurised_once_per_run(self, tmp_path, monkeypatch, workers):
        # Counted in this process; a featurisation in a pool worker fails the run.
        main_pid = os.getpid()
        featurised = []
        framed = []
        real_features, real_frames = predictor.scene_features, predictor.scene_frames

        def features(scenes, *rest):
            assert os.getpid() == main_pid, "a worker featurised"
            featurised.append(scenes)
            return real_features(scenes, *rest)

        def frames_of(scenes):
            assert os.getpid() == main_pid, "a worker computed a frame"
            framed.append(scenes)
            return real_frames(scenes)

        monkeypatch.setattr(predictor, "scene_features", features)
        monkeypatch.setattr(predictor, "scene_frames", frames_of)
        tasks = [
            {"kind": "straight", "n_samples": 20},
            {"kind": "turn", "n_samples": 20},
        ]
        cfg = write_config(tmp_path / "cfg.json", tasks=tasks, workers=workers)
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        # Two strategies x two repetitions, yet each split is featurised
        # once, its frames computed in one pass.
        splits = [split for pair in task_datasets(load_config(cfg).tasks) for split in pair]
        assert [len(split) for split in splits] == [16, 4, 16, 4]
        assert len(featurised) == len(splits)
        assert all(same_rows(a, b) for a, b in zip(featurised, splits))
        assert [id(s) for s in framed] == [id(s) for s in featurised]

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
        assert "wall_clock_seconds" not in manifest
        assert "N/A" in (out / "summary.txt").read_text()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
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
        files = sorted(p.relative_to(s_out) for p in (s_out / "runs").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(p_out) for p in (p_out / "runs").rglob("*") if p.is_file())
        for rel in files:
            assert (s_out / rel).read_bytes() == (p_out / rel).read_bytes(), rel


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

    @pytest.mark.parametrize(
        "name, unreadable, message",
        [
            ("runs/vanilla/rep_00/matrix_mr.csv", "not UTF-8", "not UTF-8 text: "),
            ("runs/vanilla/rep_00/matrix_mr.csv", "directory", "cannot be read: Is a directory"),
            ("summary.json", "not UTF-8", "not UTF-8 text: "),
            ("summary.json", "not JSON", "not a JSON document: Expecting value"),
        ],
    )
    def test_unreadable_file_is_named(self, tmp_path, capsys, name, unreadable, message):
        out = self._run(tmp_path)
        path = out / name
        if unreadable == "directory":
            path.unlink()
            path.mkdir()
        elif unreadable == "not JSON":
            path.write_text('{"vanilla": ')
        else:
            path.write_bytes(path.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out), "--check"]) == 2
        assert f"error: ValueError: {path}: {message}" in capsys.readouterr().err

    def test_missing_run_dir_is_a_runtime_error(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path / "void")]) == 2

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rows: rows.__setitem__(1, "1,1"), "matrix_fde.csv:2: 2 fields, not 3"),
            (lambda rows: rows.__setitem__(1, "1.5,1,0.25"), "matrix_fde.csv:2: invalid literal for int()"),
            (lambda rows: rows.__setitem__(1, "1,2,0.25"), "matrix_fde.csv:2: tested_task 2 must be in 1..after_task (1)"),
            (lambda rows: rows.__setitem__(1, "0,1,0.25"), "matrix_fde.csv:2: after_task 0 out of range 1..2"),
            (lambda rows: rows.append("2,2,0.25"), "matrix_fde.csv:5: R[2, 2] is repeated"),
            (lambda rows: rows.__setitem__(1, "1,1,nan"), "matrix_fde.csv:2: value nan is not finite"),
            (lambda rows: rows.__setitem__(3, "2,2,-inf"), "matrix_fde.csv:4: value -inf is not finite"),
        ],
        ids=["two fields", "float index", "tested after the task", "after_task 0", "repeated entry", "nan", "-inf"],
    )
    def test_malformed_matrix_is_named_by_line(self, tmp_path, capsys, edit, message):
        out = self._run(tmp_path)
        matrix = out / "runs" / "vanilla" / "rep_00" / "matrix_fde.csv"
        rows = matrix.read_text().splitlines()
        edit(rows)
        matrix.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{matrix.parent}/{message}" in captured.err

    @pytest.mark.parametrize(
        "name,is_dir,named,message",
        [
            ("vanilla/notes.txt", False, "vanilla/notes.txt", "is not a rep_NN cell directory"),
            ("vanilla/rep_x", True, "vanilla/rep_x", "is not a rep_NN cell directory"),
            ("vanilla/rep_1", True, "vanilla/rep_1", "is not a rep_NN cell directory"),
            ("notes.txt", False, "notes.txt", "is not a strategy directory"),
            ("foo/rep_00", True, "foo", "is not a strategy directory"),
        ],
        ids=["file in a strategy dir", "rep_x", "rep_1", "file in runs", "unknown strategy"],
    )
    def test_stray_entry_in_runs_is_named(self, tmp_path, capsys, name, is_dir, named, message):
        out = self._run(tmp_path)
        stray = out / "runs" / name
        stray.mkdir(parents=True) if is_dir else stray.write_text("x")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{out / 'runs' / named} {message}" in captured.err

    @pytest.mark.parametrize(
        "csv,drop,message",
        [
            ("matrix_fde.csv", ["2,1,"], "R[2, 1] of the fde matrix was never recorded"),
            ("matrix_mr.csv", ["2,1,", "2,2,"], "the fde and mr matrices must both be float64 (n, n) with n >= 1, "
             "not float64 (2, 2) and float64 (1, 1)"),
            ("matrix_fde.csv", ["1,1,"], "R[1, 1] of the fde matrix was never recorded"),
        ],
        ids=["last row short", "last row dropped from one matrix", "checkpoint entry dropped from one matrix"],
    )
    def test_inconsistent_matrix_pair_is_named_by_cell(self, tmp_path, capsys, csv, drop, message):
        out = self._run(tmp_path)
        cell = out / "runs" / "vanilla" / "rep_00"
        rows = (cell / csv).read_text().splitlines()
        (cell / csv).write_text("\n".join(r for r in rows if not r.startswith(tuple(drop))) + "\n")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: ValueError: {cell}: {message}\n" == captured.err

    def test_cell_interrupted_while_saving_is_refused(self, tmp_path, capsys, monkeypatch):
        """A run killed inside the second cell's checkpoint save leaves
        that cell without its matrices, and ``report`` names the one it
        misses instead of summarising the cells that did finish."""
        saves = []

        def save_then_die(path, *args, **kwargs):
            saves.append(path)
            if len(saves) == 2:
                raise KeyboardInterrupt("killed")
            save_checkpoint(path, *args, **kwargs)

        monkeypatch.setattr(cli, "save_checkpoint", save_then_die)
        cfg = write_config(
            tmp_path / "cfg.json",
            strategies=["vanilla", "dual"],
            repetitions=1,
            tasks=[{"kind": "straight", "n_samples": 20}, {"kind": "turn", "n_samples": 20}],
        )
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(cfg), "--output", str(out)])
        cell = out / "runs" / "dual" / "rep_00"
        assert saves[1] == cell / "checkpoint.json"
        assert list(cell.iterdir()) == []
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cell / "matrix_fde.csv") in captured.err


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

    def test_horizon_comes_from_the_checkpoint(self, tmp_path, capsys):
        tasks = [{"kind": "straight", "n_samples": 20, "t_pred": 20}]
        cfg = write_config(tmp_path / "cfg.json", strategies=["vanilla"], repetitions=1, tasks=tasks)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        checkpoint = out / "runs" / "vanilla" / "rep_00" / "checkpoint.json"
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(out / "data" / "task_01.csv")]
        capsys.readouterr()
        # Written episodes span t_obs + 20 frames: one window each only
        # at the trained horizon.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 20
        # The horizon is not a flag: the file alone sets it.
        assert main(argv + ["--t-pred", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --t-pred 20" in captured.err

    def test_eval_builds_no_buffer_or_optimizer_state(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(
            tmp_path / "cfg.json",
            strategies=["dual"],
            repetitions=1,
            tasks=[{"kind": "straight", "n_samples": 20}],
        )
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        checkpoint = out / "runs" / "dual" / "rep_00" / "checkpoint.json"
        assert json.loads(checkpoint.read_text())["separation"]["stream_count"]

        def refuse(*args, **kwargs):
            raise AssertionError("eval built optimizer or buffer state")

        from contrail import checkpoint as ckpt

        for name in ("AdamState", "SeparationBuffer", "CompletionBuffer", "_slots"):
            monkeypatch.setattr(ckpt, name, refuse)
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(out / "data" / "task_01.csv")]
        assert main(argv) == 0, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)["n_samples"] == 20

    @pytest.mark.parametrize(
        "fault",
        [
            "missing header key",
            "params one short",
            "nan param",
            "not JSON",
            "bad base64",
            "bytes do not fit shape",
            "nan cell_size",
        ],
    )
    def test_malformed_v2_checkpoint_is_named(self, tiny_model, tmp_path, capsys, fault):
        path = tmp_path / "ck.json"
        save_checkpoint(path, tiny_model.config, tiny_model.init_params())
        data = json.loads(path.read_text())
        block = data["params"]
        params = np.frombuffer(base64.b64decode(block["data"]), dtype="<f8").copy()
        if fault == "missing header key":
            del data["config"]["k_sv"]
        elif fault == "params one short":
            block.update(shape=[params.size - 1], data=base64.b64encode(params[:-1].tobytes()).decode())
        elif fault == "nan param":
            params[3] = math.nan
            block["data"] = base64.b64encode(params.tobytes()).decode()
        elif fault == "bad base64":
            block["data"] = "!" + block["data"][1:]
        elif fault == "bytes do not fit shape":
            block["data"] = base64.b64encode(params.tobytes()[:-4]).decode()
        elif fault == "nan cell_size":
            data["config"]["grid"]["cell_size"] = math.nan
        path.write_text("{broken" if fault == "not JSON" else json.dumps(data))
        code = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: ValueError: {path}: " in capsys.readouterr().err

    def test_endpoint_count_outside_the_grid_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "straight", "n_samples": 5}])
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 0
        grid = GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0)
        model = HeatmapPredictor(PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(4,), grid=grid))
        checkpoint = tmp_path / "ck.json"
        save_checkpoint(checkpoint, model.config, model.init_params())
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(out / "data" / "task_01.csv")]
        capsys.readouterr()
        for w in (0, 65):
            assert main(argv + ["--w", str(w)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"config error: --w {w} must be in 1..64" in captured.err
        assert main(argv + ["--w", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 5

    def test_table_beyond_the_track_bound_exits_two_naming_its_line(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            strategies=["vanilla"],
            repetitions=1,
            tasks=[{"kind": "straight", "n_samples": 20}],
        )
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        data = out / "data" / "task_01.csv"
        scale_positions(data, 1e305)
        capsys.readouterr()
        checkpoint = out / "runs" / "vanilla" / "rep_00" / "checkpoint.json"
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: ValueError: {data}:2: non-finite x, y, vx or vy, or one beyond 1e+06" in captured.err

    @pytest.mark.parametrize(
        "name, unreadable, message",
        [
            ("checkpoint", "directory", "cannot be read: Is a directory"),
            ("checkpoint", "not UTF-8", "not a JSON document: 'utf-8' codec"),
            ("data", "directory", "cannot be read: Is a directory"),
            ("data", "not UTF-8", "not UTF-8 text: "),
        ],
    )
    def test_unreadable_file_exits_two_naming_it(self, tmp_path, capsys, name, unreadable, message):
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "straight", "n_samples": 5}])
        assert main(["gen", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        grid = GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0)
        model = HeatmapPredictor(PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(4,), grid=grid))
        paths = {"checkpoint": tmp_path / "ck.json", "data": tmp_path / "out" / "data" / "task_01.csv"}
        save_checkpoint(paths["checkpoint"], model.config, model.init_params())
        path = paths[name]
        if unreadable == "directory":
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(path.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["data"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: ValueError: {path}: {message}")

    @pytest.mark.parametrize("score", [math.inf, math.nan])
    def test_non_finite_score_is_an_error_not_invalid_json(self, tmp_path, capsys, monkeypatch, score):
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "straight", "n_samples": 5}])
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--output", str(out)]) == 0
        grid = GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0)
        model = HeatmapPredictor(PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(4,), grid=grid))
        checkpoint = tmp_path / "ck.json"
        save_checkpoint(checkpoint, model.config, model.init_params())
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(out / "data" / "task_01.csv")]
        capsys.readouterr()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 5
        monkeypatch.setattr(cli, "evaluate_task", lambda *args: (score, 50.0))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ValueError: Out of range float values are not JSON compliant" in captured.err

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
        assert out.count(" ok") >= 7
        assert "csv round trip" in out

    def test_every_strategy_trains_to_its_pinned_matrices(self):
        """The selftest's tiny experiment, digested as its golden check
        does, for each of the six strategies: a change that moves any
        strategy's training bits beyond the sixth decimal fails here."""
        assert {s.value: _golden_digest(s) for s in Strategy} == {
            "vanilla": "2b9900eb88822f7a0e72ccfca52ffe486c7af914721f5dbe9bd7a5ba8f81d3a0",
            "dual": GOLDEN_MATRIX_SHA256,
            "der": "5b0b5b24d0995a0e41bc9df33c8ecef46d8026c4c06cdaec32f86e0e1b01f78e",
            "gss": "ab2c926e80827ee3775b70e808b0d5590f506adf379b6c6e8cf530d6bc6611b6",
            "agem": "fb739400f5a60a0e6a00b81ac0452d8d4342ca08425190b15618fa1f46396b55",
            "joint": "aceb8eef4e69e479a3a3eae26b97e43d64d07aa71060582d298beec9e15131d4",
        }


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

    @pytest.mark.parametrize("w", [0, 65, 300])
    def test_endpoint_count_outside_the_grid_exits_one_before_any_output(self, tmp_path, capsys, w):
        cfg = write_config(tmp_path / "cfg.json", w_endpoints=w)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"config error: w_endpoints is {w}: it must be in 1..64" in err

    def test_odd_dual_budget_exits_one_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", train={"buffer_total": 9, "batch_size": 8})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        assert "config error: train.buffer_total is 9" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden", [[], [0], [16, -2]])
    def test_bad_hidden_dims_exit_one_before_any_output(self, tmp_path, capsys, hidden):
        cfg = write_config(tmp_path / "cfg.json", hidden_dims=hidden)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        assert f"config error: hidden_dims is {hidden}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tasks",
        [
            [{"kind": "straight", "n_samples": 1}],
            [{"kind": "turn", "n_samples": 20}, {"kind": "straight", "n_samples": 1}],
        ],
    )
    def test_empty_train_half_exits_one_before_any_output(self, tmp_path, capsys, tasks):
        cfg = write_config(tmp_path / "cfg.json", tasks=tasks)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        i = len(tasks) - 1
        assert f"config error: tasks[{i}].n_samples is 1: its 80/20 train half is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"noise_sigma": 1e308},
            {"speed_range": [1.0, 1e308]},
            {"dt": 1e307},
            {"speed_range": [1.0, 5e307]},
            {"noise_sigma": 1e306},
            {"dt": 1e305},
        ],
        ids=[
            "noise_sigma", "speed_range", "dt",
            "finite speed_range beyond the bound", "finite noise_sigma beyond the bound", "finite dt beyond the bound",
        ],
    )
    def test_non_finite_tracks_exit_one_before_any_output(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "cfg.json", tasks=[{"kind": "straight", "n_samples": 20, "seed": 1, **bad}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: tasks[0]: kind straight, seed 1 draws non-finite tracks" in err
        assert "Warning" not in err

    GRID = {"rows_h": 8, "cols_w": 8, "origin": [-5.0, -20.0], "cell_size": 5.0}
    NON_FINITE = "config holds the non-finite number "

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"strategies": [1]}, "strategies is [1]: it must be a list of strategy names"),
            ({"strategies": ["dual", None]}, 'strategies is ["dual", null]'),
            ({"grid": {**GRID, "origin": [-5]}}, "invalid config value: origin is [-5.0]: it must be two finite numbers"),
            ({"train": {"buffer_total": 8, "lr": 10**400}}, "invalid config value: int too large to convert to float"),
            ({"tasks": [{"kind": "straight", "n_samples": 20, "noise_sigma": "NAN"}]}, NON_FINITE + "NaN"),
            ({"train": {"buffer_total": 8, "lr": "NAN"}}, NON_FINITE + "NaN"),
            ({"grid": {**GRID, "cell_size": "NAN"}}, NON_FINITE + "NaN"),
            ({"grid": {**GRID, "origin": ["NAN", -20.0]}}, NON_FINITE + "NaN"),
            ({"tasks": [{"kind": "straight", "n_samples": 20, "speed_range": ["NAN", 3]}]}, NON_FINITE + "NaN"),
            ({"train": {"buffer_total": 8, "alpha": "INF"}}, NON_FINITE + "Infinity"),
            ({"train": {"buffer_total": 8, "beta": "-INF"}}, NON_FINITE + "-Infinity"),
            ({"train": {"buffer_total": 8, "lr": "HUGE"}}, NON_FINITE + "1e400"),
            ({"grid": {**GRID, "cell_size": "-HUGE"}}, NON_FINITE + "-1e400"),
            ({"seed": -1}, "seed is -1: it must be a non-negative integer"),
            (
                {"tasks": [{"kind": "straight", "n_samples": 20, "seed": -1}]},
                "invalid config value: tasks[0]: seed is -1: it must be a non-negative integer",
            ),
        ],
        ids=[
            "int strategy",
            "null strategy",
            "short origin",
            "huge integer",
            "NaN noise_sigma",
            "NaN lr",
            "NaN cell_size",
            "NaN origin",
            "NaN speed_range",
            "Infinity alpha",
            "-Infinity beta",
            "1e400 lr",
            "-1e400 cell_size",
            "negative seed",
            "negative task seed",
        ],
    )
    def test_bad_value_exits_one_before_any_output(self, tmp_path, capsys, overrides, message):
        """Python's JSON reader takes NaN, Infinity and out-of-range
        literals, which the quoted placeholders stand for here."""
        text = json.dumps(base_config(**overrides))
        for placeholder, literal in (
            ('"NAN"', "NaN"), ('"-INF"', "-Infinity"), ('"INF"', "Infinity"), ('"-HUGE"', "-1e400"), ('"HUGE"', "1e400")
        ):
            text = text.replace(placeholder, literal)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
        assert not out.exists()
        assert f"config error: {message}" in capsys.readouterr().err
