"""Replay memories: a uniform reservoir and a gradient-diversity buffer.

Two small fixed-capacity stores with opposite retention goals.  The
completion buffer keeps an unbiased uniform sample of everything seen
(classic reservoir sampling), so its contents mirror the stream's task
proportions.  The separation buffer scores each arriving sample by the
cosine similarity between its loss gradient and the gradients of stored
items, and prefers to keep items whose gradients point in directions
the buffer does not already cover; redundant samples are rejected and
similar stored items are the ones most likely to be evicted.  The
buffer never holds gradients: callers hand it the offered sample's
cosines against the stored slots (the trainer computes them from
factored per-sample gradients, see ``HeatmapPredictor.per_sample_grads``).

Neither buffer ever sees a task label; items are (scene, truth,
init_logits) triplets, where init_logits are the model's logits at the
step the sample was first trained on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GroundTruth, Scene

__all__ = [
    "CompletionBuffer",
    "MemoryTriplet",
    "SeparationBuffer",
    "draw_minibatch",
    "separation_score",
]

FIRST_SAMPLE_SCORE = 0.1


@dataclass(frozen=True)
class MemoryTriplet:
    """One stored experience: the scene, its ground truth, and the
    logits the model produced when the sample was first trained on."""

    scene: Scene
    truth: GroundTruth
    init_logits: np.ndarray

    def __post_init__(self) -> None:
        logits = np.asarray(self.init_logits, dtype=np.float64)
        if logits.ndim != 2:
            raise ValueError("init_logits must be a rows x cols array")
        object.__setattr__(self, "init_logits", logits)


@dataclass
class CompletionBuffer:
    """Uniform reservoir over the stream (pattern completion side).

    After n observations every item has inclusion probability
    ``capacity / n``.
    """

    capacity: int
    items: list[MemoryTriplet] = field(default_factory=list)
    stream_count: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")

    def __len__(self) -> int:
        return len(self.items)

    def observe(self, item: MemoryTriplet, rng: np.random.Generator) -> None:
        """Reservoir step: append while below capacity, then replace a
        uniformly drawn slot only when the draw lands inside the buffer."""
        self.stream_count += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            return
        slot = int(rng.integers(0, self.stream_count))
        if slot < self.capacity:
            self.items[slot] = item

    def contents(self) -> list[MemoryTriplet]:
        return list(self.items)


@dataclass
class SeparationBuffer:
    """Gradient-diversity store (pattern separation side).

    Each stored item carries a similarity score ``q`` in [0, 2]: the
    maximum gradient cosine against items already stored at the time of
    scoring, shifted by +1.  Low q means the item pulled the parameters
    in a direction the buffer had not seen.
    """

    capacity: int
    b_compare: int = 10
    items: list[MemoryTriplet] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    stream_count: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.b_compare < 1:
            raise ValueError("b_compare must be positive")

    def __len__(self) -> int:
        return len(self.items)

    def contents(self) -> list[MemoryTriplet]:
        return list(self.items)

    def observe(self, item: MemoryTriplet, q_new: float, rng: np.random.Generator) -> bool:
        """Offer an already-scored item; returns True if it was stored.

        Below capacity the item is always appended.  At capacity an item
        similar to the buffer (q_new >= 1) is discarded outright;
        otherwise a stored candidate is drawn with probability
        proportional to its score and swapped out with probability
        q_cand / (q_cand + q_new), inheriting the newcomer's score.
        """
        self.stream_count += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            self.scores.append(float(q_new))
            return True
        if q_new >= 1.0:
            return False
        q = np.asarray(self.scores)
        total = q.sum()
        if total > 0.0:
            probs = q / total
            cand = int(rng.choice(len(self.items), p=probs))
        else:
            cand = int(rng.integers(0, len(self.items)))
        q_cand = self.scores[cand]
        denom = q_cand + q_new
        # Both scores zero: the candidate is exactly as (un)redundant as
        # the newcomer, treat like the q_cand == q_new tie.
        p_replace = q_cand / denom if denom > 0.0 else 0.5
        if rng.random() < p_replace:
            self.items[cand] = item
            self.scores[cand] = float(q_new)
            return True
        return False

    def offer(
        self,
        item: MemoryTriplet,
        cosines: np.ndarray,
        rng: np.random.Generator,
    ) -> bool:
        """Score-then-observe convenience covering the first-sample rule.

        ``cosines`` is the item's gradient cosine against each stored
        slot, as :func:`separation_score` takes it; the stream's first
        sample gets ``FIRST_SAMPLE_SCORE`` and does not read it.
        """
        if self.stream_count == 0:
            q_new = FIRST_SAMPLE_SCORE
        else:
            q_new = separation_score(cosines, self, rng)
        return self.observe(item, q_new, rng)


def _cosine_rows(grad: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Cosine of ``grad`` against each row; zero-norm vectors give 0."""
    g_norm = float(np.linalg.norm(grad))
    norms = np.linalg.norm(others, axis=1)
    denom = g_norm * norms
    dots = others @ grad
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


def separation_score(
    cosines: np.ndarray,
    buffer: SeparationBuffer,
    rng: np.random.Generator,
) -> float:
    """Similarity of a gradient to the buffer: max cosine + 1 over
    ``b_compare`` stored items drawn uniformly with replacement.

    ``cosines[s]`` is the offered gradient's cosine against the
    gradient of stored slot ``s`` (one entry per slot, slot order); only
    the drawn slots are read.  Callers holding explicit gradient vectors
    get it from ``_cosine_rows``; the trainer reads it off a factored
    Gram product.  A zero-norm gradient on either side counts as cosine
    0, so scores land in [0, 2].
    """
    if not buffer.items:
        raise ValueError("cannot score against an empty buffer")
    n = len(buffer.items)
    cosines = np.asarray(cosines, dtype=np.float64)
    if cosines.shape != (n,):
        raise ValueError(
            f"expected one cosine per stored slot ({n}), got shape {cosines.shape}"
        )
    draws = rng.integers(0, n, size=min(buffer.b_compare, n))
    return float(cosines[draws].max() + 1.0)


def draw_minibatch(
    buffer: CompletionBuffer | SeparationBuffer,
    n: int,
    rng: np.random.Generator,
) -> list[MemoryTriplet]:
    """Uniform with-replacement draw of n items; empty buffer gives []."""
    if n < 0:
        raise ValueError("minibatch size must be non-negative")
    if not buffer.items or n == 0:
        return []
    idx = rng.integers(0, len(buffer.items), size=n)
    return [buffer.items[int(i)] for i in idx]
