"""Layer spans for the contrail benchmark, recorded from outside the program.

A ``Tracer`` wraps the public function of each layer listed in ``LAYERS``
and removes the wrappers again when its ``installed()`` block ends.  A
function is wrapped at every name it is bound to in the loaded
``contrail`` modules, so a caller that did ``from .predictor import
adam_step`` sees the wrapper as well as the defining module; a method is
wrapped on its class.

Each call becomes a span: name, start, end, parent span and cell id.
The tracer keeps, per layer, the call count, the busy time (span length)
and the self time (span length minus the time covered by its child
spans), plus any counts the layer's ``count`` hook takes from the call's
arguments and result.  Span records themselves are kept only when asked
for (``keep_spans``), since a traced cell makes tens of thousands.

A cell is one unit of work the benchmark reports on: a ``run_cell`` call
or one ingest operation.  At each cell's start and end the tracer reads
the audited task-label counter and the feature cache's hit and miss
counts, so both are attributed to the cell that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass(frozen=True)
class Layer:
    """One traced layer function.

    ``name`` is the metric prefix, ``<module>.<function>`` after the
    defining module.  ``attr`` is a module-level name or
    ``Class.method``.  ``count`` maps ``(args, result, seconds)`` to
    extra counts; ``cell`` maps ``args`` to a cell id, which makes every
    call a cell.
    """

    name: str
    module: str
    attr: str
    count: Callable[[tuple, object, float], dict[str, float]] | None = None
    cell: Callable[[tuple], str] | None = None


def _third_arg_len(key: str) -> Callable[[tuple, object, float], dict[str, float]]:
    # (self, params, batch_or_scenes, ...) of HeatmapPredictor methods, and
    # evaluate_task(model, params, samples, ...).
    return lambda args, result, seconds: {key: len(args[2])}


_rows = _third_arg_len("rows")


def _samples_returned(args: tuple, result: object, seconds: float) -> dict[str, float]:
    return {"samples": len(result)}  # type: ignore[arg-type]


def _ingest_counts(args: tuple, result: object, seconds: float) -> dict[str, float]:
    with open(args[0], "rb") as fh:
        rows = sum(1 for _ in fh) - 1  # minus the header
    n = len(result)  # type: ignore[arg-type]
    # Per file size too: ingest cost is expected to grow faster than linearly.
    return {"rows": rows, "samples": n, f"n{n}.samples": n, f"n{n}.busy_s": seconds}


def _admitted(args: tuple, result: object, seconds: float) -> dict[str, float]:
    return {"admitted": 1.0 if result else 0.0}


def _checkpoint_bytes(args: tuple, result: object, seconds: float) -> dict[str, float]:
    return {"bytes": Path(args[0]).stat().st_size}


def _steps(args: tuple, result: object, seconds: float) -> dict[str, float]:
    return {"steps": result.n_steps}  # type: ignore[attr-defined]


def _cell_of_run(args: tuple) -> str:
    # run_cell(config, strategy, rep, out_dir)
    return f"{args[1].value}/rep_{args[2]:02d}"


RUN_CELL = Layer("cli.run_cell", "contrail.cli", "run_cell", cell=_cell_of_run)

# Ordered from the outermost layer inwards.
LAYERS: tuple[Layer, ...] = (
    RUN_CELL,
    Layer("learner.train_stream", "contrail.learner", "train_stream", count=_steps),
    Layer("learner.dual_replay_step", "contrail.learner", "dual_replay_step"),
    Layer("learner.gss_style_step", "contrail.learner", "gss_style_step"),
    Layer("learner.agem_project", "contrail.learner", "agem_project"),
    Layer("predictor.adam_step", "contrail.predictor", "adam_step"),
    Layer(
        "predictor.loss_and_grad", "contrail.predictor", "HeatmapPredictor.loss_and_grad",
        count=_rows,
    ),
    Layer(
        "predictor.forward_logits", "contrail.predictor", "HeatmapPredictor.forward_logits",
        count=_rows,
    ),
    Layer(
        "predictor.per_sample_grads", "contrail.predictor",
        "HeatmapPredictor.per_sample_grads", count=_rows,
    ),
    Layer("predictor.scene_features", "contrail.predictor", "scene_features"),
    Layer("losses.batch_loss_and_dlogits", "contrail.losses", "batch_loss_and_dlogits"),
    Layer("losses.replay_targets", "contrail.losses", "replay_targets"),
    Layer("memory.separation.offer", "contrail.memory", "SeparationBuffer.offer", count=_admitted),
    Layer("memory.separation_score", "contrail.memory", "separation_score"),
    Layer("memory.CompletionBuffer.observe", "contrail.memory", "CompletionBuffer.observe"),
    Layer("memory.draw_minibatch", "contrail.memory", "draw_minibatch"),
    Layer("scenarios.generate_task", "contrail.scenarios", "generate_task", count=_samples_returned),
    Layer("scenarios.write_task_csv", "contrail.scenarios", "write_task_csv"),
    Layer("scenarios.ingest_csv", "contrail.scenarios", "ingest_csv", count=_ingest_counts),
    Layer("checkpoint.save_checkpoint", "contrail.checkpoint", "save_checkpoint", count=_checkpoint_bytes),
    Layer("checkpoint.load_checkpoint", "contrail.checkpoint", "load_checkpoint"),
    Layer("cli.evaluate_task", "contrail.cli", "evaluate_task", count=_third_arg_len("samples")),
    Layer("metrics.extract_endpoints", "contrail.metrics", "extract_endpoints"),
)


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class CellRecord:
    """Wall time and counter deltas of one cell."""

    id: str
    start: float
    end: float = 0.0
    label_reads: int = 0
    feature_hits: int = 0
    feature_misses: int = 0
    ref_s: float = math.nan  # mean of the tracer's probe just before and just after the cell

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class _Frame:
    name: str
    start: float
    span_id: int
    parent_id: int | None
    child_s: float = 0.0


def _contrail_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "contrail" or name.startswith("contrail.")) and mod is not None
    ]


class Tracer:
    """Wraps ``layers`` while ``installed()`` is active and aggregates
    their spans.  ``recording`` off makes every wrapper a plain call.
    A ``probe``, if set, is timed just before and just after each cell,
    outside the cell's wall time."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS, keep_spans: bool = False):
        self.layers = layers
        self.keep_spans = keep_spans
        self.recording = True
        self.probe: Callable[[], float] | None = None
        self.cell_id = ""
        self.stats: dict[str, LayerStat] = {layer.name: LayerStat() for layer in layers}
        self.cells: list[CellRecord] = []
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.step_intervals: list[float] = []
        self.missing: list[str] = []
        self.patched: list[str] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._last_step_end: float | None = None
        self._restore: list[tuple[object, str, object]] = []
        core = importlib.import_module("contrail.core")
        predictor = importlib.import_module("contrail.predictor")
        self._label_reads = core.task_label_reads
        self._feature_cache_info = getattr(
            getattr(predictor, "scene_features", None), "cache_info", None
        )

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(name, time.perf_counter(), self._next_id, parent)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.busy_s += dur
        stat.self_s += dur - frame.child_s
        if self._stack:
            self._stack[-1].child_s += dur
        if self.keep_spans:
            self.spans.append((frame.span_id, frame.name, frame.start, end, frame.parent_id, self.cell_id))
        return end

    def _add_counts(self, name: str, counts: dict[str, float]) -> None:
        total = self.stats[name].counts
        for key, value in counts.items():
            total[key] = total.get(key, 0.0) + value

    # -- cells ---------------------------------------------------------------

    def _feature_counts(self) -> tuple[int, int]:
        if self._feature_cache_info is None:
            return 0, 0
        info = self._feature_cache_info()
        return info.hits, info.misses

    @contextlib.contextmanager
    def cell(self, cell_id: str) -> Iterator[CellRecord]:
        """Attribute the enclosed work to one cell."""
        outer = self.cell_id
        self.cell_id = f"{outer}/{cell_id}" if outer else cell_id
        reads0 = self._label_reads()
        hits0, misses0 = self._feature_counts()
        self._last_step_end = None
        ref_before = self.probe() if self.probe is not None else math.nan
        record = CellRecord(self.cell_id, time.perf_counter())
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if self.probe is not None:
                record.ref_s = (ref_before + self.probe()) / 2
            hits1, misses1 = self._feature_counts()
            record.label_reads = self._label_reads() - reads0
            record.feature_hits = hits1 - hits0
            record.feature_misses = misses1 - misses0
            self.cells.append(record)
            self.cell_id = outer

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run the enclosed calls (the benchmark's own checks) unrecorded."""
        before = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = before

    # -- wrapping --------------------------------------------------------------

    def _call(self, layer: Layer, fn: Callable, args: tuple, kwargs: dict) -> object:
        frame = self._open(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self._close(frame)
        if layer.name == "predictor.adam_step":
            if self._last_step_end is not None:
                self.step_intervals.append(end - self._last_step_end)
            self._last_step_end = end
        if layer.count is not None:
            self._add_counts(layer.name, layer.count(args, result, end - frame.start))
        return result

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if layer.cell is None:
                return tracer._call(layer, fn, args, kwargs)
            with tracer.cell(layer.cell(args)):
                return tracer._call(layer, fn, args, kwargs)

        return wrapper

    def _patch(self, owner: object, attr: str, new: object, where: str) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
        self.patched.append(where)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer for the duration of the block."""
        try:
            for layer in self.layers:
                self._install(layer)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def _install(self, layer: Layer) -> None:
        module = importlib.import_module(layer.module)
        if "." in layer.attr:
            cls_name, meth = layer.attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            fn = None if cls is None else vars(cls).get(meth)
            if fn is None:
                self.missing.append(layer.name)
                return
            self._patch(cls, meth, self._wrap(layer, fn), f"{layer.module}.{layer.attr}")
            return
        fn = getattr(module, layer.attr, None)
        if fn is None:
            self.missing.append(layer.name)
            return
        wrapper = self._wrap(layer, fn)
        for mod in _contrail_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, name, wrapper, f"{mod.__name__}.{name}")


# -- per-layer metrics ---------------------------------------------------------

INGEST_SIZES = (100, 200, 400)
TASK_FREE = ("vanilla", "dual", "der", "gss")


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


UNITS = {
    "calls": "count", "rows": "count", "samples": "count", "offers": "count", "misses": "count",
    "steps": "count", "busy_s": "s", "self_s": "s", "p50": "s", "p95": "s", "overhead_s": "s",
    "bytes": "B", "us_per_sample": "us", "hit_ratio": "ratio", "admit_ratio": "ratio",
    "task_label_reads": "count", "task_free": "count", "overhead_pct": "%",
    "samples_per_s": "1/s", "op_s_p50": "s", "setup_s": "s",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer recorded."""

    def stat(name: str) -> LayerStat:
        return tracer.stats.get(name, LayerStat())

    def count(name: str, key: str) -> float:
        return stat(name).counts.get(key, 0.0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    out: dict[str, float] = {}
    for name, fields in (
        ("memory.separation_score", ("calls", "busy_s", "self_s")),
        ("predictor.per_sample_grads", ("calls", "rows", "busy_s")),
        ("scenarios.generate_task", ("calls", "samples", "busy_s")),
        ("predictor.scene_features", ("calls", "busy_s")),
        ("predictor.loss_and_grad", ("calls", "rows", "busy_s")),
        ("predictor.forward_logits", ("calls", "rows", "busy_s")),
        ("predictor.adam_step", ("calls", "busy_s")),
        ("losses.batch_loss_and_dlogits", ("busy_s",)),
        ("losses.replay_targets", ("busy_s",)),
        ("memory.CompletionBuffer.observe", ("calls", "busy_s")),
        ("memory.draw_minibatch", ("calls", "busy_s")),
        ("learner.dual_replay_step", ("busy_s",)),
        ("learner.gss_style_step", ("busy_s",)),
        ("learner.agem_project", ("calls",)),
        ("learner.train_stream", ("self_s",)),
        ("scenarios.ingest_csv", ("calls", "rows", "samples", "busy_s")),
        ("scenarios.write_task_csv", ("busy_s",)),
        ("checkpoint.save_checkpoint", ("calls", "busy_s", "bytes")),
        ("checkpoint.load_checkpoint", ("calls", "busy_s")),
        ("cli.evaluate_task", ("calls", "samples", "busy_s")),
        ("metrics.extract_endpoints", ("calls", "busy_s")),
        ("cli.run_cell", ("self_s",)),
    ):
        st = stat(name)
        for f in fields:
            value = getattr(st, f) if f in ("calls", "busy_s", "self_s") else count(name, f)
            out[f"{name}.{f}"] = float(value)

    offers = stat("memory.separation.offer").calls
    out["memory.separation.offers"] = float(offers)
    out["memory.separation.admit_ratio"] = ratio(count("memory.separation.offer", "admitted"), offers)

    hits = sum(c.feature_hits for c in tracer.cells)
    misses = sum(c.feature_misses for c in tracer.cells)
    out["predictor.scene_features.misses"] = float(misses)
    out["predictor.scene_features.hit_ratio"] = ratio(hits, hits + misses)

    out["learner.steps"] = count("learner.train_stream", "steps")
    out["learner.step_s.p50"] = _quantile(tracer.step_intervals, 50)
    out["learner.step_s.p95"] = _quantile(tracer.step_intervals, 95)

    ingest = stat("scenarios.ingest_csv")
    out["scenarios.ingest_csv.us_per_sample"] = ratio(ingest.busy_s, ingest.counts.get("samples", 0.0), 1e6)
    for n in INGEST_SIZES:
        out[f"scenarios.ingest_csv.n{n}.us_per_sample"] = ratio(
            ingest.counts.get(f"n{n}.busy_s", 0.0), ingest.counts.get(f"n{n}.samples", 0.0), 1e6
        )

    out["core.task_label_reads"] = float(sum(c.label_reads for c in tracer.cells))
    out["core.task_label_reads.task_free"] = float(
        sum(c.label_reads for c in tracer.cells if set(c.id.split("/")) & set(TASK_FREE))
    )
    return out
