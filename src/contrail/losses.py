"""Loss definitions over heatmap logits.

Two ingredients: a per-cell classification loss against the true
endpoint cell (cross-entropy or its focal variant), and a logit
distillation penalty that anchors replayed samples to the logits they
were stored with.  The trainer weighs the current batch and the replay
draws from the two memory buffers in one call, the replayed rows last,
so the distilled rows are always the batch's tail.

All kernels operate on flat logit vectors and flat target-cell indices
(``row * cols_w + col``) so the predictor's backward pass can reuse
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .memory import CompletionBuffer, SeparationBuffer

__all__ = [
    "LossSpec",
    "batch_loss_and_dlogits",
    "replay_targets",
]

_BASE_KINDS = ("cross_entropy", "focal")


@dataclass(frozen=True)
class LossSpec:
    """Configuration for the composite stream loss.

    ``alpha`` weights replay from the diversity-selected buffer,
    ``beta`` replay from the reservoir buffer.  ``focal_gamma`` is used
    only when ``base_kind`` is ``"focal"``; gamma 0 reduces focal to
    plain cross-entropy.
    """

    base_kind: str = "cross_entropy"
    focal_gamma: float = 2.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.base_kind not in _BASE_KINDS:
            raise ValueError(f"base_kind must be one of {_BASE_KINDS}")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be non-negative")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("replay weights alpha and beta must be non-negative")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def batch_loss_and_dlogits(
    logits: np.ndarray,
    cells: Sequence[int] | np.ndarray,
    spec: LossSpec,
    *,
    stored: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and their logit gradients for a batch.

    ``logits`` has shape ``(n, n_cells)`` and ``cells`` holds each
    sample's flat target cell.  ``stored``, shape ``(m, n_cells)`` with
    ``m <= n``, are the logits the last ``m`` rows distill toward: the
    squared distance normalised by the cell count is added on that tail.
    Returns ``(losses, dlogits)`` with shapes ``(n,)`` and ``(n, n_cells)``.
    """
    n, n_cells = logits.shape
    idx = np.asarray(cells, dtype=np.intp)
    if idx.shape != (n,):
        raise ValueError("batch size mismatch between logits and targets")
    if (idx < 0).any() or (idx >= n_cells).any():
        raise ValueError("target cell outside the grid")

    lsm = _log_softmax(logits)
    # A fresh array that becomes dlogits in place.  It stays exp(lsm):
    # exp(shifted) / sum would round differently.
    softmax = np.exp(lsm)
    rows = np.arange(n)
    lsm_t = lsm[rows, idx]

    if spec.base_kind == "cross_entropy":
        losses = -lsm_t
        dlogits = softmax
        dlogits[rows, idx] -= 1.0  # softmax - onehot
    else:
        gamma = spec.focal_gamma
        p_t = np.exp(lsm_t)
        one_m = 1.0 - p_t
        losses = -(one_m**gamma) * lsm_t
        # d/dz_j = (delta - s_j) * (gamma (1-p)^(g-1) p log p - (1-p)^g);
        # the first factor vanishes smoothly as p -> 1, guard the 0**neg.
        safe = np.where(one_m > 0.0, one_m, 1.0)
        lead = np.where(one_m > 0.0, gamma * safe ** (gamma - 1.0) * p_t * lsm_t, 0.0)
        coeff = lead - one_m**gamma
        # (onehot - softmax) * coeff; 0 - s, not -s, keeps a zero's sign.
        dlogits = np.subtract(0.0, softmax, out=softmax)
        dlogits[rows, idx] += 1.0
        dlogits *= coeff[:, None]

    if stored is not None:
        stored = np.asarray(stored, dtype=np.float64)
        if stored.ndim != 2 or stored.shape[1] != n_cells:
            raise ValueError("stored logits do not match the grid size")
        if stored.shape[0] > n:
            raise ValueError("more stored logit rows than the batch holds")
        tail = slice(n - stored.shape[0], n)
        diff = logits[tail] - stored
        # The gradient term is elementwise, so bit-equal to a per-row
        # loop; the loss's row sums may round differently from a per-row
        # dot product, and training never reads the loss value.
        losses[tail] += np.einsum("ij,ij->i", diff, diff) / n_cells
        diff *= 2.0
        diff /= n_cells
        dlogits[tail] += diff

    return losses, dlogits


def replay_targets(
    buffer: "SeparationBuffer | CompletionBuffer", slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replay supervision for drawn buffer slots: the stream rows they
    hold and the logits they were stored with (one flat row per draw),
    the distillation anchor."""
    return buffer.rows[slots], buffer.logits[slots]
