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

Neither buffer ever sees a task label.  A slot holds a row index into
the buffer's source table (the trainer's stream) and the logits the
model produced when that sample was first trained on; the separation
buffer adds the slot's score.  ``contents()`` gives the source table's
rows of every slot and the stack of their logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Scenes

__all__ = [
    "CompletionBuffer",
    "SeparationBuffer",
    "draw_minibatch",
    "separation_score",
]

FIRST_SAMPLE_SCORE = 0.1


@dataclass(eq=False)
class _Slots:
    """Fixed-capacity slots shared by both buffers.

    ``rows[s]`` is the row of ``source`` that slot ``s`` holds and
    ``logits[s]`` the logits it was stored with, or None when none were
    given.
    """

    capacity: int
    source: Scenes | None = None
    rows: list[int] = field(default_factory=list)
    logits: list[np.ndarray | None] = field(default_factory=list)
    stream_count: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")

    def __len__(self) -> int:
        return len(self.rows)

    def _put(self, slot: int, row: int, logits: np.ndarray | None) -> None:
        if slot == len(self.rows):
            self.rows.append(row)
            self.logits.append(logits)
        else:
            self.rows[slot] = row
            self.logits[slot] = logits

    def retain(self, slots: Sequence[int]) -> None:
        """Keep only ``slots``, in the given order."""
        self.rows = [self.rows[s] for s in slots]
        self.logits = [self.logits[s] for s in slots]

    def contents(self) -> tuple[Scenes, np.ndarray]:
        """The stored samples, the source's rows in slot order, and the
        stack of the logits they were stored with."""
        return (
            self.source.take(np.asarray(self.rows, dtype=np.intp)),
            np.array(self.logits),
        )


@dataclass(eq=False)
class CompletionBuffer(_Slots):
    """Uniform reservoir over the stream (pattern completion side).

    After n observations every item has inclusion probability
    ``capacity / n``.
    """

    def observe(self, row: int, rng: np.random.Generator, logits: np.ndarray | None = None) -> None:
        """Reservoir step: append while below capacity, then replace a
        uniformly drawn slot only when the draw lands inside the buffer."""
        self.stream_count += 1
        if len(self.rows) < self.capacity:
            self._put(len(self.rows), row, logits)
            return
        slot = int(rng.integers(0, self.stream_count))
        if slot < self.capacity:
            self._put(slot, row, logits)


@dataclass(eq=False)
class SeparationBuffer(_Slots):
    """Gradient-diversity store (pattern separation side).

    Each stored item carries a similarity score ``q`` in [0, 2]: the
    maximum gradient cosine against items already stored at the time of
    scoring, shifted by +1.  Low q means the item pulled the parameters
    in a direction the buffer had not seen.
    """

    b_compare: int = 10
    scores: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.b_compare < 1:
            raise ValueError("b_compare must be positive")

    def observe(
        self,
        row: int,
        q_new: float,
        rng: np.random.Generator,
        logits: np.ndarray | None = None,
    ) -> bool:
        """Offer an already-scored row; returns True if it was stored.

        Below capacity the row is always appended.  At capacity a row
        similar to the buffer (q_new >= 1) is discarded outright;
        otherwise a stored candidate is drawn with probability
        proportional to its score and swapped out with probability
        q_cand / (q_cand + q_new), inheriting the newcomer's score.
        """
        self.stream_count += 1
        if len(self.rows) < self.capacity:
            self._put(len(self.rows), row, logits)
            self.scores.append(float(q_new))
            return True
        if q_new >= 1.0:
            return False
        q = np.asarray(self.scores)
        total = q.sum()
        if total > 0.0:
            probs = q / total
            cand = int(rng.choice(len(self.rows), p=probs))
        else:
            cand = int(rng.integers(0, len(self.rows)))
        q_cand = self.scores[cand]
        denom = q_cand + q_new
        # Both scores zero: the candidate is exactly as (un)redundant as
        # the newcomer, treat like the q_cand == q_new tie.
        p_replace = q_cand / denom if denom > 0.0 else 0.5
        if rng.random() < p_replace:
            self._put(cand, row, logits)
            self.scores[cand] = float(q_new)
            return True
        return False

    def offer(
        self,
        row: int,
        cosines: np.ndarray,
        rng: np.random.Generator,
        logits: np.ndarray | None = None,
    ) -> bool:
        """Score-then-observe convenience covering the first-sample rule.

        ``cosines`` is the row's gradient cosine against each stored
        slot, as :func:`separation_score` takes it; the stream's first
        sample gets ``FIRST_SAMPLE_SCORE`` and does not read it.
        """
        if self.stream_count == 0:
            q_new = FIRST_SAMPLE_SCORE
        else:
            q_new = separation_score(cosines, self, rng)
        return self.observe(row, q_new, rng, logits)


def separation_score(
    cosines: np.ndarray,
    buffer: SeparationBuffer,
    rng: np.random.Generator,
) -> float:
    """Similarity of a gradient to the buffer: max cosine + 1 over
    ``b_compare`` stored items drawn uniformly with replacement.

    ``cosines[s]`` is the offered gradient's cosine against the
    gradient of stored slot ``s`` (one entry per slot, slot order); only
    the drawn slots are read.  The trainer reads it off a factored Gram
    product (:meth:`~contrail.predictor.FactoredGrads.cosines`).  A
    zero-norm gradient on either side counts as cosine 0, so scores
    land in [0, 2].
    """
    if not buffer.rows:
        raise ValueError("cannot score against an empty buffer")
    n = len(buffer.rows)
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
) -> np.ndarray:
    """Uniform with-replacement draw of n slots; an empty buffer or
    ``n == 0`` gives no slots and consumes no randomness."""
    if n < 0:
        raise ValueError("minibatch size must be non-negative")
    if not buffer.rows or n == 0:
        return np.zeros(0, dtype=np.intp)
    return rng.integers(0, len(buffer.rows), size=n)
