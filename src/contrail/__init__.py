"""contrail: task-free continual learning for streaming trajectory prediction."""

from .core import (
    AgentState,
    Frame,
    GridSpec,
    GroundTruth,
    Heatmap,
    ResultMatrix,
    Sample,
    Scene,
    cell_to_center,
    endpoint_to_cell,
    scene_frame,
    target_cell,
)
from .learner import Strategy, TrainConfig, TrainResult, agem_project, train_stream
from .losses import LossSpec, base_loss, replay_loss, total_loss
from .memory import (
    CompletionBuffer,
    MemoryTriplet,
    SeparationBuffer,
    draw_minibatch,
    separation_score,
)
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
    "AgentState",
    "CompletionBuffer",
    "EvalReport",
    "Frame",
    "GridSpec",
    "GroundTruth",
    "Heatmap",
    "HeatmapPredictor",
    "LossSpec",
    "MemoryTriplet",
    "PredictorConfig",
    "ResultMatrix",
    "Sample",
    "Scene",
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
    "replay_loss",
    "scene_frame",
    "separation_score",
    "target_cell",
    "task_datasets",
    "total_loss",
    "train_stream",
]
