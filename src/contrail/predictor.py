"""Feedforward heatmap predictor with hand-rolled reverse-mode gradients.

The network maps a flattened scene feature vector (target vehicle and
neighbor tracks, expressed in the target-centric frame) through tanh
hidden layers to one logit per grid cell.  Forward activations are kept
and reused by the backward sweep, so gradients are exact reverse-mode
derivatives of the configured loss; a finite-difference oracle in the
test suite pins this down.

Parameters live in a single flat float64 vector (weights row-major,
then bias, layer by layer) so the optimizer and checkpointing see one
canonical layout.  Per-sample gradients, which only the
gradient-similarity buffer needs, stay factored per layer and are
compared through Gram products instead of P-length rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import GridSpec, SampleTable, Scenes, endpoint_cells, local_endpoints, scene_frames
from .losses import LossSpec, batch_loss_and_dlogits

__all__ = [
    "AdamState",
    "FactoredGrads",
    "HeatmapPredictor",
    "PredictorConfig",
    "adam_step",
    "scene_features",
]


@dataclass(frozen=True)
class PredictorConfig:
    """Architecture and initialisation of the predictor.

    ``input_dim`` is fixed by the scene layout: ``(1 + k_sv)`` tracks of
    ``t_obs`` steps with 4 channels each.  ``t_pred`` steps is the
    horizon the model is trained to predict; the network does not read
    it, but evaluation must use the same horizon.
    """

    t_obs: int
    k_sv: int
    hidden_dims: tuple[int, ...]
    grid: GridSpec
    seed: int = 0
    t_pred: int = 30

    def __post_init__(self) -> None:
        if self.t_obs < 1:
            raise ValueError("t_obs must be >= 1")
        if self.k_sv < 0:
            raise ValueError("k_sv must be >= 0")
        if len(self.hidden_dims) < 1:
            raise ValueError("at least one hidden layer is required")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.t_pred < 1:
            raise ValueError("t_pred must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed is {self.seed}: it must be a non-negative integer")

    @property
    def input_dim(self) -> int:
        return (1 + self.k_sv) * self.t_obs * 4

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.grid.n_cells)


def scene_features(scenes: Scenes, frames: np.ndarray) -> np.ndarray:
    """Flatten scenes into network inputs, one row per scene.

    All states are re-expressed in each scene's target-centric frame,
    row ``i`` of ``frames`` (:func:`~contrail.core.scene_frames`):
    positions translated and rotated, velocities rotated; target
    track first and then the neighbor slots; masked-out slots are
    zero-filled.  Layout per track: t_obs rows of (x, y, vx, vy).
    """
    n, t_obs, k_sv = len(scenes), scenes.tv.shape[1], scenes.mask.shape[1]
    out = np.concatenate([scenes.tv[:, None], scenes.svs], axis=1)
    frames = frames[:, None, None, :]
    cos_h, sin_h = frames[..., 2], frames[..., 3]
    dx = out[..., 0] - frames[..., 0]
    dy = out[..., 1] - frames[..., 1]
    out[..., 0] = dx * cos_h + dy * sin_h
    out[..., 1] = -dx * sin_h + dy * cos_h
    vx = out[..., 2].copy()
    vy = out[..., 3]
    out[..., 2] = vx * cos_h + vy * sin_h
    out[..., 3] = -vx * sin_h + vy * cos_h
    out[:, 1:][~scenes.mask] = 0.0
    return out.reshape(n, (1 + k_sv) * t_obs * 4)


class HeatmapPredictor:
    """MLP over scene features producing per-cell endpoint logits."""

    def __init__(self, config: PredictorConfig):
        self.config = config
        dims = config.layer_dims
        self._shapes = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
        # Per layer, the flat slices of its weights and of its bias.
        self._slices = []
        pos = 0
        for out_dim, in_dim in self._shapes:
            w_end = pos + out_dim * in_dim
            self._slices.append((slice(pos, w_end), slice(w_end, w_end + out_dim)))
            pos = w_end + out_dim
        self.param_count = pos

    def init_params(self) -> np.ndarray:
        """Seeded uniform init in +-1/sqrt(fan_in) per layer."""
        rng = np.random.default_rng(self.config.seed)
        chunks = []
        for out_dim, in_dim in self._shapes:
            bound = 1.0 / np.sqrt(in_dim)
            chunks.append(rng.uniform(-bound, bound, size=out_dim * in_dim))
            chunks.append(rng.uniform(-bound, bound, size=out_dim))
        return np.concatenate(chunks)

    def _layers(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        if params.shape != (self.param_count,):
            raise ValueError(
                f"expected {self.param_count} parameters, got {params.shape}"
            )
        return [
            (params[ws].reshape(shape), params[bs])
            for shape, (ws, bs) in zip(self._shapes, self._slices)
        ]

    def encode(self, scenes: Scenes) -> SampleTable:
        """Every row of ``scenes`` as one table row, its task label
        copied across.  Each scene's frame is computed once; its features,
        local endpoint, target cell and speed all derive from it."""
        t_obs, k_sv = scenes.tv.shape[1], scenes.mask.shape[1]
        if (t_obs, k_sv) != (self.config.t_obs, self.config.k_sv):
            raise ValueError(
                f"scene geometry t_obs={t_obs}, k_sv={k_sv} does not match config "
                f"(t_obs={self.config.t_obs}, k_sv={self.config.k_sv})"
            )
        frames = scene_frames(scenes)
        ends = local_endpoints(frames, scenes.ends)
        return SampleTable(
            scene_features(scenes, frames),
            endpoint_cells(ends, self.config.grid),
            ends,
            frames[:, 4].copy(),
            scenes.labels,
        )

    def _forward_cached(
        self, params: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched forward pass keeping every activation for backprop."""
        layers = self._layers(params)
        acts = [x]
        h = x
        for li, (w, b) in enumerate(layers):
            h = h @ w.T
            h += b
            if not np.isfinite(h).all():
                raise ArithmeticError(f"layer {li} produced non-finite activations")
            if li < len(layers) - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return acts[-1], acts

    def forward_logits(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Logits for a batch of feature rows, shape ``(n, n_cells)``."""
        logits, _ = self._forward_cached(params, x)
        return logits

    def _back_through(
        self, params: np.ndarray, acts: list[np.ndarray], dlogits: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """The delta chain from the logit gradients down: ``(layer,
        delta)`` for each layer, the top one's delta ``dlogits``, each
        next one ``(delta @ w) * (1 - act**2)`` through the tanh whose
        output is ``act``; the activations are untouched."""
        layers = self._layers(params)
        delta = dlogits
        for li in range(len(layers) - 1, 0, -1):
            yield li, delta
            delta = delta @ layers[li][0]
            slope = np.square(acts[li])
            np.subtract(1.0, slope, out=slope)
            delta *= slope
        yield 0, delta

    def _backward(
        self,
        params: np.ndarray,
        acts: list[np.ndarray],
        dlogits: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reverse sweep: gradient of ``sum_i loss_i`` given per-sample
        logit gradients (scale ``dlogits`` beforehand for means).  Each
        layer's weight and bias gradients are written straight into
        their slices of one flat vector, in the parameter layout: ``out``
        when given (a contiguous float64 vector of ``param_count``),
        else a fresh one."""
        if out is None:
            out = np.empty(self.param_count)
        elif out.shape != (self.param_count,) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous float64 vector of {self.param_count}")
        for li, delta in self._back_through(params, acts, dlogits):
            ws, bs = self._slices[li]
            np.matmul(delta.T, acts[li], out=out[ws].reshape(self._shapes[li]))
            np.sum(delta, axis=0, out=out[bs])
        return out

    def loss_and_grad(
        self,
        params: np.ndarray,
        x: np.ndarray,
        cells: np.ndarray,
        loss_spec: LossSpec,
        *,
        stored: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean loss over the batch, its full parameter gradient and the logits.

        ``x`` holds one feature row per sample and ``cells`` its flat
        target cell.  ``stored`` (one logit row per distilled sample)
        adds the distillation term on the last ``len(stored)`` rows; see
        :func:`batch_loss_and_dlogits`.  ``weights`` (one non-negative
        weight per row) replaces the batch mean with ``losses @ weights``.
        The gradient is written into ``out`` when given, and ``out`` is
        returned.
        """
        n = len(x)
        if n == 0:
            raise ValueError("loss_and_grad requires a non-empty batch")
        logits, acts = self._forward_cached(params, x)
        losses, dlogits = batch_loss_and_dlogits(logits, cells, loss_spec, stored=stored)
        if weights is None:
            loss = float(losses.mean())
            dlogits /= n
        else:
            loss = float(losses @ weights)
            dlogits *= weights[:, None]
        return loss, self._backward(params, acts, dlogits, out), logits

    def per_sample_grads(
        self,
        params: np.ndarray,
        x: np.ndarray,
        cells: np.ndarray,
        loss_spec: LossSpec,
    ) -> "FactoredGrads":
        """One full-parameter loss gradient per sample, in factored form.

        This is the scoring path of the gradient-similarity buffer.  A
        sample's weight gradient in each layer is the outer product of
        its back-propagated delta and the layer input, so one batched
        forward/backward yields every per-sample gradient without ever
        building the ``(n, P)`` matrix; see :class:`FactoredGrads` for
        the inner products, norms and cosines.
        The loss is the base loss of :meth:`loss_and_grad`, without
        distillation.
        """
        logits, acts = self._forward_cached(params, x)
        _, dlogits = batch_loss_and_dlogits(logits, cells, loss_spec)
        deltas = [delta for _, delta in self._back_through(params, acts, dlogits)]
        return FactoredGrads(tuple(deltas[::-1]), tuple(acts[:-1]))


@dataclass(frozen=True, eq=False)
class FactoredGrads:
    """Per-sample gradients of the MLP as per-layer outer-product factors.

    For sample ``i`` and layer ``l`` the weight gradient is
    ``outer(deltas[l][i], inputs[l][i])`` and the bias gradient is
    ``deltas[l][i]``, so inner products follow from per-layer Gram
    matrices without any P-length vector (Goodfellow, arXiv:1510.01799):

        <g_i, g_j> = sum_l (delta_i . delta_j) (h_i . h_j + 1)
    """

    deltas: tuple[np.ndarray, ...]
    inputs: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.deltas[0].shape[0]

    def inner(self, rows: Sequence[int] | np.ndarray) -> np.ndarray:
        """Gradient inner products of ``rows`` against every sample,
        shape ``(len(rows), n)``."""
        rows = np.asarray(rows, dtype=np.intp)
        out = np.zeros((rows.size, len(self)))
        for d, h in zip(self.deltas, self.inputs):
            out += (d[rows] @ d.T) * (h[rows] @ h.T + 1.0)
        return out

    def sq_norms(self) -> np.ndarray:
        """Squared gradient norm of every sample:
        ``sum_l |delta_i|^2 (|h_i|^2 + 1)``."""
        out = np.zeros(len(self))
        for d, h in zip(self.deltas, self.inputs):
            out += np.einsum("no,no->n", d, d) * (np.einsum("ni,ni->n", h, h) + 1.0)
        return out

    def cosines(self, rows: Sequence[int] | np.ndarray) -> np.ndarray:
        """Gradient cosines of ``rows`` against every sample, shape
        ``(len(rows), n)``; a zero-norm gradient gives cosine 0."""
        rows = np.asarray(rows, dtype=np.intp)
        norms = np.sqrt(self.sq_norms())
        denom = norms[rows, None] * norms[None, :]
        dots = self.inner(rows)
        return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter, plus the
    two parameter-length scratch vectors of :func:`adam_step`, made on
    its first step and reused after."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update (Kingma & Ba, ICLR 2015, with their defaults
    ``BETA1``, ``BETA2`` and ``EPS``) of ``params``, ``state.m`` and
    ``state.v`` where they are; past its first step it allocates nothing
    parameter-length.  The moments follow the textbook order, so ``m``
    and ``v`` are bit for bit the textbook ones.  The bias corrections
    are folded into two scalars, the faster order of the paper's
    section 2: ``params - lr_t * m / (sqrt(v) + eps_t)`` with
    ``lr_t = lr * sqrt(1 - BETA2**t) / (1 - BETA1**t)`` and
    ``eps_t = EPS * sqrt(1 - BETA2**t)``, which equals the textbook
    update up to rounding.
    """
    if params.shape != grad.shape:
        raise ValueError("params and grad shapes differ")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient passed to adam_step")
    if state.scratch is None:
        state.scratch = (np.empty_like(params), np.empty_like(params))
    m, v = state.m, state.v
    step, denom = state.scratch
    state.t += 1
    np.multiply(grad, 1.0 - BETA1, out=step)
    m *= BETA1
    m += step
    np.square(grad, out=step)
    step *= 1.0 - BETA2
    v *= BETA2
    v += step
    root = math.sqrt(1.0 - BETA2**state.t)
    np.sqrt(v, out=denom)
    denom += EPS * root
    np.multiply(m, lr * root / (1.0 - BETA1**state.t), out=step)
    np.divide(step, denom, out=step)
    params -= step
