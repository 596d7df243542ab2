"""contrail: task-free continual learning for streaming trajectory prediction."""

from .core import GridSpec, ResultMatrix, SampleTable, Scenes
from .learner import Strategy, TrainConfig, TrainResult, agem_project, train_stream
from .losses import LossSpec
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
    "HeatmapPredictor",
    "LossSpec",
    "PredictorConfig",
    "ResultMatrix",
    "SampleTable",
    "Scenes",
    "SeparationBuffer",
    "Strategy",
    "TaskSpec",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "agem_project",
    "averages",
    "build_stream",
    "bwt",
    "draw_minibatch",
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
