"""The benchmark's trace reaches every layer it claims to measure.

Each workload runs one traced round at a tiny scale.  Every layer the
workload should exercise must record calls, and the predicted zeros must
hold.  A wrapper installed where no caller looks the function up records
nothing, so it fails here rather than reporting a silent zero.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import contrail.cli  # noqa: E402
import contrail.learner  # noqa: E402
import contrail.predictor  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Scale  # noqa: E402

TINY = Scale(n_samples=30, hidden_dims=(8,), buffer_total=20, ingest_sizes=(3, 4, 5))

TRAINING = [
    "scenarios.generate_task.calls",
    "predictor.scene_features.calls",
    "predictor.loss_and_grad.calls",
    "predictor.forward_logits.calls",
    "predictor.adam_step.calls",
    "losses.batch_loss_and_dlogits.busy_s",
    "learner.train_stream.self_s",
    "learner.steps",
    "learner.step_s.p50",
    "checkpoint.save_checkpoint.bytes",
    "cli.evaluate_task.samples",
    "metrics.extract_endpoints.calls",
    "cli.run_cell.self_s",
]
NOT_INGEST = [
    "scenarios.ingest_csv.calls",
    "scenarios.write_task_csv.busy_s",
    "checkpoint.load_checkpoint.calls",
]

# (metrics that must be > 0, metrics that must be exactly 0) per workload.
EXPECTED = {
    "replay": (
        TRAINING + [
            "memory.separation_score.calls",
            "predictor.per_sample_grads.rows",
            "memory.separation.offers",
            "memory.separation.admit_ratio",
            "losses.replay_targets.busy_s",
            "memory.CompletionBuffer.observe.calls",
            "memory.draw_minibatch.calls",
            "learner.dual_replay_step.busy_s",
            "learner.gss_style_step.busy_s",
        ],
        NOT_INGEST + ["learner.agem_project.calls", "core.task_label_reads"],
    ),
    "baselines": (
        TRAINING + [
            "losses.replay_targets.busy_s",
            "memory.CompletionBuffer.observe.calls",
            "memory.draw_minibatch.calls",
            "learner.dual_replay_step.busy_s",
            "learner.agem_project.calls",
            "core.task_label_reads",
        ],
        NOT_INGEST + [
            "memory.separation_score.calls",
            "predictor.per_sample_grads.calls",
            "memory.separation.offers",
            "learner.gss_style_step.busy_s",
            "core.task_label_reads.task_free",
        ],
    ),
    "ingest": (
        [
            "scenarios.ingest_csv.rows",
            "scenarios.ingest_csv.samples",
            "scenarios.ingest_csv.us_per_sample",
            "scenarios.write_task_csv.busy_s",
            "checkpoint.load_checkpoint.calls",
            "cli.evaluate_task.samples",
            "metrics.extract_endpoints.calls",
            "predictor.forward_logits.rows",
            "predictor.scene_features.calls",
        ],
        [
            "scenarios.generate_task.calls",
            "memory.separation_score.calls",
            "predictor.per_sample_grads.calls",
            "predictor.loss_and_grad.calls",
            "predictor.adam_step.calls",
            "checkpoint.save_checkpoint.calls",
            "learner.steps",
            "cli.run_cell.self_s",
        ],
    ),
}


def _originals() -> dict[str, object]:
    return {
        "cli.train_stream": contrail.cli.train_stream,
        "learner.adam_step": contrail.learner.adam_step,
        "predictor.scene_features": contrail.predictor.scene_features,
        "HeatmapPredictor.loss_and_grad": contrail.predictor.HeatmapPredictor.loss_and_grad,
    }


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_reaches_every_layer(name: str, tmp_path: Path) -> None:
    before = _originals()
    workload = WORKLOADS[name]()
    workload.setup(3, TINY, tmp_path)
    workload.prepare()
    tracer = Tracer()
    with tracer.installed():
        rnd = workload.run_round(1, tracer)

    assert _originals() == before, "wrappers were not removed"
    assert not tracer.missing
    # The two caller-side names the layers are looked up by.
    assert {"contrail.cli.train_stream", "contrail.learner.adam_step"} <= set(tracer.patched)
    assert [op.errors for op in rnd.ops] == [[] for _ in rnd.ops]

    metrics = layer_metrics(tracer)
    positive, zero = EXPECTED[name]
    assert [m for m in positive if not metrics[m] > 0] == []
    assert [m for m in zero if metrics[m] != 0] == []


def test_probe_brackets_each_cell() -> None:
    tracer = Tracer(layers=())
    readings = iter([0.010, 0.030, 0.020, 0.020])
    tracer.probe = lambda: next(readings)
    for cell_id in ("a", "b"):
        with tracer.cell(cell_id):
            pass
    assert [c.ref_s for c in tracer.cells] == [0.020, 0.020]
