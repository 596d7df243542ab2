"""Streaming trainers: one-pass continual learning strategies.

``train_stream`` consumes an ordered stream of samples (rows of a
:class:`~contrail.core.SampleTable`, encoded once per experiment) in
consecutive batches, takes one Adam step per batch, and (strategy
permitting) feeds each trained sample to replay memory.  The fixed
order per batch is: one forward and one backward pass over the batch
and its replay rows give the strategy loss, its gradient and the
batch's pre-update logits; Adam steps; then the batch is offered to
the buffers carrying those logits.

The trainer never featurises: batches, buffer slots and replay draws
are row indices into the stream's table, which is also the buffers'
source table.

Task labels are evaluation metadata.  The four task-free strategies
(vanilla, dual replay, DER-style, GSS-style) never read them on the
training path; checkpoint placement uses the evaluation-side boundary
helper.  AGem keys its per-task reference memories off labels and
Joint reorders the stream, which is exactly the privilege those
baselines are defined to have.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import core
from .core import SampleTable
from .losses import LossSpec, replay_targets
from .memory import CompletionBuffer, SeparationBuffer, draw_minibatch
from .predictor import AdamState, HeatmapPredictor, adam_step

__all__ = [
    "Strategy",
    "TrainConfig",
    "TrainResult",
    "agem_project",
    "check_buffer_split",
    "dual_replay_step",
    "gss_style_step",
    "train_stream",
]


class Strategy(enum.Enum):
    """Training strategies over one data pass.

    VANILLA ignores the past entirely.  DUAL_REPLAY trains with replay
    from both memory buffers plus logit distillation.  DER_STYLE keeps
    only the reservoir buffer with distillation; GSS_STYLE keeps only
    the diversity buffer and mixes replayed samples into the training
    batch without distillation.  AGEM constrains gradients against
    per-task reference memories; JOINT shuffles the whole stream first
    (the offline upper bound).
    """

    VANILLA = "vanilla"
    DUAL_REPLAY = "dual"
    DER_STYLE = "der"
    GSS_STYLE = "gss"
    AGEM = "agem"
    JOINT = "joint"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        for member in cls:
            if member.value == name.lower():
                return member
        raise ValueError(
            f"unknown strategy {name!r}; choose from "
            f"{[m.value for m in cls]}"
        )


TASK_FREE = (Strategy.VANILLA, Strategy.DUAL_REPLAY, Strategy.DER_STYLE, Strategy.GSS_STYLE)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the streaming trainer.

    ``buffer_total`` is the whole memory budget; dual replay splits it
    evenly between its two buffers, every other strategy hands it to
    its single store.  ``replay_batch`` defaults to ``batch_size``.
    ``b_compare`` is the number of stored items each offered sample's
    separation score is drawn against.  Those draws come from a stream
    of their own, so a batch's draws are all made before one scoring
    pass over the drawn slots and the batch; scoring is always exact
    (every cosine comes from the post-step per-sample gradients).
    """

    lr: float = 1e-3
    batch_size: int = 8
    buffer_total: int = 200
    replay_batch: int | None = None
    loss: LossSpec = field(default_factory=LossSpec)
    b_compare: int = 10
    seed: int = 0
    agem_ref_batch: int = 64

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_total < 0:
            raise ValueError("buffer_total must be >= 0")
        if self.replay_batch is not None and self.replay_batch < 0:
            raise ValueError("replay_batch must be >= 0")
        if self.b_compare < 1:
            raise ValueError("b_compare must be >= 1")
        if self.agem_ref_batch < 1:
            raise ValueError("agem_ref_batch must be >= 1")

    @property
    def replay_n(self) -> int:
        return self.batch_size if self.replay_batch is None else self.replay_batch


@dataclass
class TrainResult:
    """Everything a run leaves behind, buffers included."""

    final_params: np.ndarray
    adam_state: AdamState
    checkpoints: list[tuple[int, np.ndarray]]
    separation: SeparationBuffer | None
    completion: CompletionBuffer | None
    label_reads: int
    agem_dots: list[float]
    n_steps: int


def dual_replay_step(
    model: HeatmapPredictor,
    params: np.ndarray,
    table: SampleTable,
    batch: np.ndarray,
    sp_buffer: SeparationBuffer | None,
    cp_buffer: CompletionBuffer | None,
    cfg: TrainConfig,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss, gradient and logits of the current batch (rows of ``table``)
    plus weighted replay from both buffers (base loss + logit distillation
    on replayed samples), in one forward/backward pass over the batch and
    both draws, whose rows weigh 1/n_b, alpha/n_r and beta/n_r.  The
    draws come last, so the distilled rows are the pass's tail.

    A missing buffer, a zero replay weight or an empty draw drops that
    term; with no term left this is exactly the vanilla step that
    vanilla, agem and joint take, over the batch's rows as a slice (a
    batch is a run of consecutive rows).  The gradient is written into
    ``out`` when given.
    """
    spec = cfg.loss
    rows, weights, stored = [batch], [1.0 / len(batch)], []
    for weight, buffer in ((spec.alpha, sp_buffer), (spec.beta, cp_buffer)):
        if weight == 0.0 or buffer is None:
            continue
        slots = draw_minibatch(buffer, cfg.replay_n, rng)
        if not len(slots):
            continue
        drawn, logits = replay_targets(buffer, slots)
        rows.append(drawn)
        weights.append(weight / len(drawn))
        stored.append(logits)
    if not stored:
        view = slice(batch[0], batch[-1] + 1)
        return model.loss_and_grad(params, table.x[view], table.cells[view], spec, out=out)
    mixed = np.concatenate(rows)
    return model.loss_and_grad(
        params, table.x[mixed], table.cells[mixed], spec, stored=np.concatenate(stored),
        weights=np.repeat(weights, [len(r) for r in rows]), out=out,
    )


def gss_style_step(
    model: HeatmapPredictor,
    params: np.ndarray,
    table: SampleTable,
    batch: np.ndarray,
    buffer: SeparationBuffer | None,
    cfg: TrainConfig,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Base loss, gradient and logits over the current batch
    concatenated with a buffer draw; no distillation.  The mean runs
    over the mixed batch, so the sub-batches weigh in proportion to
    their sizes; an empty draw leaves the batch alone, read as a slice
    (a batch is a run of consecutive rows).  The gradient is written
    into ``out`` when given."""
    mixed = slice(batch[0], batch[-1] + 1)
    if buffer is not None:
        slots = draw_minibatch(buffer, cfg.replay_n, rng)
        if len(slots):
            mixed = np.concatenate([batch, replay_targets(buffer, slots)[0]])
    return model.loss_and_grad(params, table.x[mixed], table.cells[mixed], cfg.loss, out=out)


def agem_project(grad: np.ndarray, ref_grad: np.ndarray, scratch: np.ndarray) -> bool:
    """Project ``grad`` in place so that it does not increase the
    reference loss: when its dot product with ``ref_grad`` is negative,
    remove the component along the reference gradient, as
    ``grad - (dot / denom) * ref_grad`` through ``scratch`` (a vector of
    ``grad``'s shape).  Returns whether a projection happened.  The dots
    are summed by ``einsum``, whose order does not depend on the BLAS
    thread count.
    """
    dot = float(np.einsum("i,i->", grad, ref_grad))
    if dot >= 0.0:
        return False
    denom = float(np.einsum("i,i->", ref_grad, ref_grad))
    if denom == 0.0:
        return False
    np.multiply(ref_grad, dot / denom, out=scratch)
    grad -= scratch
    return True


class _AgemMemory:
    """Per-task reservoirs under one shared budget.

    When a new task shows up every existing reservoir shrinks to the
    new even quota (a random keep-subset), so the budget never grows
    with the task count.
    """

    def __init__(self, total: int, rng: np.random.Generator, source: SampleTable):
        self.total = total
        self.rng = rng
        self.source = source
        self.reservoirs: dict[int, CompletionBuffer] = {}

    def observe(self, label: int, row: int) -> None:
        if self.total <= 0:
            return
        if label not in self.reservoirs:
            quota = max(1, self.total // (len(self.reservoirs) + 1))
            for buf in self.reservoirs.values():
                if len(buf) > quota:
                    keep = self.rng.choice(len(buf), size=quota, replace=False)
                    buf.retain(sorted(int(i) for i in keep))
                buf.capacity = quota
            self.reservoirs[label] = CompletionBuffer(capacity=quota, source=self.source)
        self.reservoirs[label].observe(row, self.rng)

    def reference_rows(self, exclude_label: int, n: int) -> np.ndarray:
        """``n`` stream rows drawn uniformly from every other task's
        reservoir; none when those are empty."""
        pool = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [buf.rows for label, buf in self.reservoirs.items() if label != exclude_label]
        )
        if not len(pool):
            return pool
        return pool[self.rng.integers(0, len(pool), size=n)]


def check_buffer_split(strategies: Sequence[Strategy], buffer_total: int) -> None:
    """Dual replay splits the memory budget evenly between its buffers."""
    if Strategy.DUAL_REPLAY in strategies and buffer_total % 2:
        raise ValueError(
            f"train.buffer_total is {buffer_total}: dual replay splits it evenly; use an even total"
        )


def _make_buffers(
    strategy: Strategy, cfg: TrainConfig, table: SampleTable, n_cells: int
) -> tuple[SeparationBuffer | None, CompletionBuffer | None]:
    check_buffer_split((strategy,), cfg.buffer_total)
    total, half = cfg.buffer_total, cfg.buffer_total // 2
    # Each strategy's (separation, completion) capacities; 0 is no store.
    sp_capacity, cp_capacity = {
        Strategy.DUAL_REPLAY: (half, half),
        Strategy.DER_STYLE: (0, total),
        Strategy.GSS_STYLE: (total, 0),
    }.get(strategy, (0, 0))
    slots = {"source": table, "n_cells": n_cells}
    return (
        SeparationBuffer(capacity=sp_capacity, b_compare=cfg.b_compare, **slots) if sp_capacity else None,
        CompletionBuffer(capacity=cp_capacity, **slots) if cp_capacity else None,
    )


def train_stream(
    model: HeatmapPredictor,
    table: SampleTable,
    strategy: Strategy,
    cfg: TrainConfig,
) -> TrainResult:
    """Train over the stream once and return params, checkpoints, and
    final buffer contents.

    ``table`` holds the stream's samples encoded by ``model.encode``, in
    stream order.  The stream must be ordered by task label
    (checkpoints are recorded right after the step that consumes a
    task's last sample).  Given the same model config, table, strategy,
    and train config, the run is bit-reproducible.
    """
    if not len(table):
        raise ValueError("cannot train on an empty stream")
    boundaries = core.task_boundaries(table)  # also validates ordering

    reads_before = core.task_label_reads()
    spec = cfg.loss

    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    rng_replay = np.random.default_rng(seeds[0])
    rng_buffers = np.random.default_rng(seeds[1])
    rng_joint = np.random.default_rng(seeds[2])
    rng_agem = np.random.default_rng(seeds[3])
    rng_compare = np.random.default_rng(seeds[4])

    if strategy is Strategy.JOINT:
        table = table.take(rng_joint.permutation(len(table)))
        boundaries = []

    sp_buffer, cp_buffer = _make_buffers(strategy, cfg, table, model.config.grid.n_cells)
    agem_memory = (
        _AgemMemory(cfg.buffer_total, rng_agem, table) if strategy is Strategy.AGEM else None
    )

    # The step's parameter-length arrays, made once and updated in place.
    params = model.init_params()
    adam = AdamState.zeros(model.param_count)
    grad = np.empty(model.param_count)
    if agem_memory is not None:
        g_ref, agem_scratch = np.empty(model.param_count), np.empty(model.param_count)
    checkpoints: list[tuple[int, np.ndarray]] = []
    agem_dots: list[float] = []
    pending = list(boundaries)
    n_steps = 0

    for start in range(0, len(table), cfg.batch_size):
        end = min(start + cfg.batch_size, len(table))
        batch = np.arange(start, end)

        # The step's forward pass runs at the pre-update parameters: its
        # first len(batch) logit rows are the batch's snapshot.
        if strategy is Strategy.GSS_STYLE:
            _, _, logits = gss_style_step(
                model, params, table, batch, sp_buffer, cfg, rng_replay, grad
            )
        else:
            _, _, logits = dual_replay_step(
                model, params, table, batch, sp_buffer, cp_buffer, cfg, rng_replay, grad
            )
        if agem_memory is not None:
            refs = agem_memory.reference_rows(
                exclude_label=table.task_label(end - 1), n=cfg.agem_ref_batch
            )
            if len(refs):
                model.loss_and_grad(params, table.x[refs], table.cells[refs], spec, out=g_ref)
                if agem_project(grad, g_ref, agem_scratch):
                    agem_dots.append(float(np.einsum("i,i->", grad, g_ref)))

        adam_step(params, grad, adam, cfg.lr)
        n_steps += 1

        if sp_buffer is not None or cp_buffer is not None:
            _offer_batch(
                model, params, table, batch, logits, sp_buffer, cp_buffer, cfg, rng_buffers, rng_compare
            )
        elif agem_memory is not None:
            for row in range(start, end):
                agem_memory.observe(table.task_label(row), row)

        while pending and pending[0][1] <= end:
            label, _ = pending.pop(0)
            checkpoints.append((label, params.copy()))

    adam.scratch = None  # dead after the last step; freed before evaluation runs
    return TrainResult(
        final_params=params,
        adam_state=adam,
        checkpoints=checkpoints,
        separation=sp_buffer,
        completion=cp_buffer,
        label_reads=core.task_label_reads() - reads_before,
        agem_dots=agem_dots,
        n_steps=n_steps,
    )


def _offer_batch(
    model: HeatmapPredictor,
    params: np.ndarray,
    table: SampleTable,
    batch: np.ndarray,
    logits: np.ndarray,
    sp_buffer: SeparationBuffer | None,
    cp_buffer: CompletionBuffer | None,
    cfg: TrainConfig,
    rng: np.random.Generator,
    rng_compare: np.random.Generator,
) -> None:
    """Feed one trained batch (consecutive rows of ``table``) to the
    stores, sample ``k`` with its pre-update logits ``logits[k]``.

    Separation scores are base-loss gradient cosines at the current
    (post-step) parameters.  Every offer's comparison slots are drawn
    up front from ``rng_compare`` (``draws[k]`` for sample ``k``), so
    one factored pass covers just the drawn slots held at batch start
    (pass row ``i`` for slot ``held[i]``) followed by the batch (pass
    row ``m + k`` for sample ``k``).  A slot that holds a batch row was
    filled or replaced mid-batch and reads that row's pass row, the same
    gradient a fresh pass over it would give; every other drawn slot
    still holds its row from batch start.  ``cols[s]`` is the pass row
    of a drawn or rewritten slot ``s``, updated from the slot each offer
    returns.  The buffers' own decisions draw from ``rng``.
    """
    if sp_buffer is not None:
        draws = sp_buffer.draw_compare_batch(rng_compare, len(batch))
        n0 = len(sp_buffer)
        drawn = np.zeros(n0 + len(batch), dtype=bool)
        drawn[np.concatenate(draws)] = True
        held = np.flatnonzero(drawn[:n0])
        m = len(held)
        rows = np.concatenate([sp_buffer.rows[held], batch])
        grads = model.per_sample_grads(params, table.x[rows], table.cells[rows], cfg.loss)
        cosines = grads.cosines(np.arange(m, m + len(batch)))
        cols = np.zeros(len(drawn), dtype=np.intp)
        cols[held] = np.arange(m)

    for k, row in enumerate(batch.tolist()):
        if sp_buffer is not None:
            slot = sp_buffer.offer(row, cosines[k, cols[draws[k]]], rng, logits[k])
            if slot is not None:
                cols[slot] = m + k
        if cp_buffer is not None:
            cp_buffer.observe(row, rng, logits[k])
