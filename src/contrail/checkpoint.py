"""Checkpoint files: parameters, optimizer state, and buffer contents.

One JSON document per checkpoint.  Floats go through Python's repr, so
a save/load cycle is bit-exact; the architecture header lets a loader
rebuild the predictor without outside context, and the optional buffer
dump makes a checkpoint a full run-resumption unit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .core import AgentState, GridSpec, GroundTruth, Scene
from .memory import CompletionBuffer, MemoryTriplet, SeparationBuffer
from .predictor import AdamState, HeatmapPredictor, PredictorConfig

__all__ = ["load_checkpoint", "save_checkpoint"]

FORMAT = "contrail-checkpoint-v1"


def _scene_to_json(scene: Scene) -> dict:
    return {
        "tv": [[st.x, st.y, st.vx, st.vy] for st in scene.tv_history],
        "svs": [
            [[st.x, st.y, st.vx, st.vy] for st in track]
            for track in scene.sv_histories
        ],
        "mask": list(scene.sv_mask),
        "t_c": scene.t_c,
    }


def _scene_from_json(data: dict) -> Scene:
    return Scene(
        tv_history=tuple(AgentState(*row) for row in data["tv"]),
        sv_histories=tuple(
            tuple(AgentState(*row) for row in track) for track in data["svs"]
        ),
        sv_mask=tuple(bool(m) for m in data["mask"]),
        t_c=data["t_c"],
    )


def _triplet_to_json(t: MemoryTriplet) -> dict:
    return {
        "scene": _scene_to_json(t.scene),
        "truth": {"endpoint": list(t.truth.endpoint), "speed_v": t.truth.speed_v},
        "init_logits": t.init_logits.tolist(),
    }


def _triplet_from_json(data: dict) -> MemoryTriplet:
    return MemoryTriplet(
        scene=_scene_from_json(data["scene"]),
        truth=GroundTruth(
            endpoint=tuple(data["truth"]["endpoint"]), speed_v=data["truth"]["speed_v"]
        ),
        init_logits=np.array(data["init_logits"], dtype=np.float64),
    )


def save_checkpoint(
    path: Path | str,
    config: PredictorConfig,
    params: np.ndarray,
    adam: AdamState | None = None,
    separation: SeparationBuffer | None = None,
    completion: CompletionBuffer | None = None,
) -> None:
    payload: dict = {
        "format": FORMAT,
        "config": dataclasses.asdict(config),
        "params": params.tolist(),
        "adam": None
        if adam is None
        else {"m": adam.m.tolist(), "v": adam.v.tolist(), "t": adam.t},
        "separation": None
        if separation is None
        else {
            "capacity": separation.capacity,
            "b_compare": separation.b_compare,
            "stream_count": separation.stream_count,
            "scores": list(separation.scores),
            "items": [_triplet_to_json(t) for t in separation.contents()],
        },
        "completion": None
        if completion is None
        else {
            "capacity": completion.capacity,
            "stream_count": completion.stream_count,
            "items": [_triplet_to_json(t) for t in completion.contents()],
        },
    }
    Path(path).write_text(json.dumps(payload))


def _slots(items: list[dict]) -> dict:
    triplets = [_triplet_from_json(t) for t in items]
    return {
        "samples": triplets,
        "rows": list(range(len(triplets))),
        "logits": [t.init_logits for t in triplets],
    }


def load_checkpoint(
    path: Path | str,
    params_only: bool = False,
) -> tuple[
    PredictorConfig,
    np.ndarray,
    AdamState | None,
    SeparationBuffer | None,
    CompletionBuffer | None,
]:
    """Inverse of ``save_checkpoint``.  A file written before the header
    carried the trained horizon gets ``PredictorConfig``'s defaults
    (t_pred 30, dt 0.1).  A loaded buffer's slots index the triplets
    read from the file.  With ``params_only`` (all that evaluation
    needs) only the header and parameters are read back; the optimizer
    state and buffers come back as None, unbuilt.  A header missing a
    key, or parameters that are non-finite or do not fit the header's
    geometry, raise a ValueError that starts with ``path``."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    try:
        c, g = data["config"], data["config"]["grid"]
        config = PredictorConfig(
            t_obs=c["t_obs"],
            k_sv=c["k_sv"],
            hidden_dims=tuple(c["hidden_dims"]),
            grid=GridSpec(g["rows_h"], g["cols_w"], tuple(g["origin"]), g["cell_size"]),
            seed=c["seed"],
            **{k: c[k] for k in ("t_pred", "dt") if k in c},
        )
        params = np.array(data["params"], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header or parameters: {exc}") from None
    expected = HeatmapPredictor(config).param_count
    if params.shape != (expected,):
        raise ValueError(f"{path}: the header's geometry needs {expected} parameters, not {params.size}")
    if not np.all(np.isfinite(params)):
        raise ValueError(f"{path}: parameters hold non-finite values")
    if params_only:
        return config, params, None, None, None
    adam = None
    if data["adam"] is not None:
        adam = AdamState(
            m=np.array(data["adam"]["m"], dtype=np.float64),
            v=np.array(data["adam"]["v"], dtype=np.float64),
            t=data["adam"]["t"],
        )
    separation = None
    if data["separation"] is not None:
        s = data["separation"]
        separation = SeparationBuffer(
            capacity=s["capacity"],
            b_compare=s["b_compare"],
            scores=[float(q) for q in s["scores"]],
            stream_count=s["stream_count"],
            **_slots(s["items"]),
        )
    completion = None
    if data["completion"] is not None:
        s = data["completion"]
        completion = CompletionBuffer(
            capacity=s["capacity"],
            stream_count=s["stream_count"],
            **_slots(s["items"]),
        )
    return config, params, adam, separation, completion
