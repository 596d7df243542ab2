"""contrail: task-free continual learning for streaming trajectory prediction."""

from .core import GridSpec, Heatmap, ResultMatrix, Scenes, cell_to_center, endpoint_to_cell
from .learner import Strategy, TrainConfig, TrainResult, agem_project, train_stream
from .losses import LossSpec, base_loss
from .memory import CompletionBuffer, SeparationBuffer, draw_minibatch, separation_score
from .metrics import (
    EvalReport,
    averages,
    bwt,
    extract_endpoints,
    fde,
    mr_task,
    mr_threshold,
)
from .predictor import AdamState, HeatmapPredictor, PredictorConfig, adam_step
from .scenarios import TaskSpec, build_stream, generate_task, ingest_csv, task_datasets

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CompletionBuffer",
    "EvalReport",
    "GridSpec",
    "Heatmap",
    "HeatmapPredictor",
    "LossSpec",
    "PredictorConfig",
    "ResultMatrix",
    "Scenes",
    "SeparationBuffer",
    "Strategy",
    "TaskSpec",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "agem_project",
    "averages",
    "base_loss",
    "build_stream",
    "bwt",
    "cell_to_center",
    "draw_minibatch",
    "endpoint_to_cell",
    "extract_endpoints",
    "fde",
    "generate_task",
    "ingest_csv",
    "mr_task",
    "mr_threshold",
    "separation_score",
    "task_datasets",
    "train_stream",
]
