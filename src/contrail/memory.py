"""Replay memories: a uniform reservoir and a gradient-diversity buffer.

Two small fixed-capacity stores with opposite retention goals.  The
completion buffer keeps an unbiased uniform sample of everything seen
(classic reservoir sampling), so its contents mirror the stream's task
proportions.  The separation buffer scores each arriving sample by the
cosine similarity between its loss gradient and the gradients of stored
items, and prefers to keep items whose gradients point in directions
the buffer does not already cover; redundant samples are rejected and
similar stored items are the ones most likely to be evicted.  The
buffer never holds gradients.  It draws the slots each offer compares
against (:meth:`SeparationBuffer.draw_compare`) from a generator of
their own, so a trainer can draw a whole batch's comparison slots
before one pass over those slots and the batch, and then hands it the
offered sample's cosines against its drawn slots (the trainer computes
them from factored per-sample gradients, see
``HeatmapPredictor.per_sample_grads``).  The stream's first offer is
the empty draw, which scores ``FIRST_SAMPLE_SCORE``.

Neither buffer ever sees a task label.  A slot holds a row index into
the buffer's source :class:`~contrail.core.SampleTable` (the trainer's
stream) and the flat logits the model produced when that sample was
first trained on; the separation buffer adds the slot's score.  Slots
live in arrays, so a replay draw is one index into ``rows`` and one
into ``logits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SampleTable

__all__ = [
    "CompletionBuffer",
    "SeparationBuffer",
    "draw_minibatch",
    "separation_score",
]

FIRST_SAMPLE_SCORE = 0.1
NO_LOGITS = np.zeros(0)


@dataclass(eq=False)
class _Slots:
    """Fixed-capacity slots shared by both buffers, held in arrays.

    ``rows[s]`` is the row of ``source`` that slot ``s`` holds and
    ``logits[s]`` the ``n_cells`` logits it was stored with (zero-width
    by default): the filled part of a ``(k,)`` and a ``(k, n_cells)``
    array.  A slot holds a distinct source row, so ``k`` is
    ``min(capacity, len(source))`` (``capacity`` without a source).
    Both buffers append while below capacity, so the filled slots are
    the first ``min(capacity, stream_count)``; capacity only shrinks.
    """

    capacity: int
    source: SampleTable | None = None
    n_cells: int = 0
    stream_count: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        k = self.capacity if self.source is None else min(self.capacity, len(self.source))
        self._rows = np.zeros(k, dtype=np.intp)
        self._logits = np.zeros((k, self.n_cells))

    def __len__(self) -> int:
        return min(self.capacity, self.stream_count)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: len(self)]

    @property
    def logits(self) -> np.ndarray:
        return self._logits[: len(self)]

    def fill(self, rows: np.ndarray, logits: np.ndarray) -> None:
        """Make slot ``s`` hold ``rows[s]`` with ``logits[s]`` for each
        of the ``len(self)`` filled slots."""
        self._rows[: len(self)] = rows
        self._logits[: len(self)] = logits

    def contents(self) -> tuple[SampleTable, np.ndarray]:
        """The stored samples, the source's rows in slot order, and a
        copy of the logits they were stored with."""
        return self.source.take(self.rows), self.logits.copy()


@dataclass(eq=False)
class CompletionBuffer(_Slots):
    """Uniform reservoir over the stream (pattern completion side).

    After n observations every item has inclusion probability
    ``capacity / n``.
    """

    def observe(self, row: int, rng: np.random.Generator, logits: np.ndarray = NO_LOGITS) -> int | None:
        """Reservoir step: append while below capacity, then replace a
        uniformly drawn slot only when the draw lands inside the buffer.
        Returns the slot written, or None."""
        slot = len(self)
        self.stream_count += 1
        if slot >= self.capacity:
            slot = int(rng.integers(0, self.stream_count))
            if slot >= self.capacity:
                return None
        self._rows[slot], self._logits[slot] = row, logits
        return slot

    def retain(self, slots: Sequence[int]) -> None:
        """Keep only ``slots``, in the given order, and shrink the
        capacity to their number."""
        rows, logits = self.rows[slots], self.logits[slots]
        self.capacity = len(slots)
        self.fill(rows, logits)


@dataclass(eq=False)
class SeparationBuffer(_Slots):
    """Gradient-diversity store (pattern separation side).

    Each stored item carries a similarity score ``q`` in [0, 2]: the
    maximum gradient cosine against items already stored at the time of
    scoring, shifted by +1.  Low q means the item pulled the parameters
    in a direction the buffer had not seen.  ``scores[s]`` is slot
    ``s``'s score.
    """

    b_compare: int = 10

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.b_compare < 1:
            raise ValueError("b_compare must be positive")
        self._scores = np.zeros(len(self._rows))

    @property
    def scores(self) -> np.ndarray:
        return self._scores[: len(self)]

    def fill(self, rows: np.ndarray, logits: np.ndarray, scores: np.ndarray) -> None:
        """As :meth:`_Slots.fill`, with slot ``s`` scored ``scores[s]``;
        a NaN, infinite or negative score is refused."""
        scores = np.asarray(scores, dtype=np.float64)
        bad = ~((scores >= 0.0) & (scores < math.inf))
        if bad.any():
            raise _bad_score(scores[bad][0])
        super().fill(rows, logits)
        self._scores[: len(self)] = scores

    def observe(
        self,
        row: int,
        q_new: float,
        rng: np.random.Generator,
        logits: np.ndarray = NO_LOGITS,
    ) -> int | None:
        """Offer an already-scored row; returns the slot it was stored
        in, or None.

        Below capacity the row is always appended.  At capacity a row
        similar to the buffer (q_new >= 1) is discarded outright;
        otherwise a stored candidate is drawn with probability
        proportional to its score and swapped out with probability
        q_cand / (q_cand + q_new), inheriting the newcomer's score.  The
        candidate is ``Generator.choice(len(q), p=q / q.sum())`` (the
        same index and generator state) without that call's argument
        checks, so a NaN, infinite or negative ``q_new`` is refused here.
        """
        if not 0.0 <= q_new < math.inf:
            raise _bad_score(q_new)
        slot = len(self)
        self.stream_count += 1
        if slot >= self.capacity:
            if q_new >= 1.0:
                return None
            q = self.scores
            total = q.sum()
            if total > 0.0:
                cdf = (q / total).cumsum()
                cdf /= cdf[-1]
                slot = int(cdf.searchsorted(rng.random(), side="right"))
            else:
                slot = int(rng.integers(0, len(q)))
            denom = q[slot] + q_new
            # Both scores zero: the candidate is exactly as (un)redundant as
            # the newcomer, treat like the q_cand == q_new tie.
            p_replace = q[slot] / denom if denom > 0.0 else 0.5
            if rng.random() >= p_replace:
                return None
        self._rows[slot], self._logits[slot], self._scores[slot] = row, logits, q_new
        return slot

    def draw_compare(self, rng: np.random.Generator, ahead: int = 0) -> np.ndarray:
        """The slots an offer is scored against: ``min(b_compare, n)``
        drawn uniformly with replacement from the ``n = min(capacity,
        stream_count + ahead)`` slots filled at the turn of the offer
        ``ahead`` places after the next one (0: the next offer), since
        every offer counts and is stored while the buffer is below
        capacity.  The stream's first offer draws none and consumes no
        randomness; :func:`separation_score` scores that empty draw."""
        n = min(self.capacity, self.stream_count + ahead)
        if not n:
            return np.zeros(0, dtype=np.intp)
        return rng.integers(0, n, size=min(self.b_compare, n))

    def draw_compare_batch(self, rng: np.random.Generator, offers: int) -> np.ndarray | list[np.ndarray]:
        """``[draw_compare(rng, k) for k in range(offers)]``, the slots of
        the next ``offers`` offers, bit for bit and generator state
        included.  A full buffer draws them in one call, as an
        ``(offers, min(b_compare, capacity))`` array: a bounded integer
        draw below 2**32 takes one 32-bit word, and PCG64 keeps the spare
        half of its 64-bit output in its state, so splitting the draws
        into calls changes neither the values nor the state."""
        n = self.capacity
        if len(self) == n:
            return rng.integers(0, n, size=(offers, min(self.b_compare, n)))
        return [self.draw_compare(rng, k) for k in range(offers)]

    def offer(
        self,
        row: int,
        cosines: np.ndarray,
        rng: np.random.Generator,
        logits: np.ndarray = NO_LOGITS,
    ) -> int | None:
        """Score-then-observe convenience; returns what :meth:`observe`
        does.

        ``cosines`` is the row's gradient cosine against each slot that
        :meth:`draw_compare` drew for this offer, in draw order, as
        :func:`separation_score` takes it: empty for the stream's first
        offer.
        """
        cosines = np.asarray(cosines, dtype=np.float64)
        n = min(self.b_compare, len(self))
        if cosines.shape != (n,):
            raise ValueError(
                f"expected one cosine per drawn slot ({n}), got shape {cosines.shape}"
            )
        return self.observe(row, separation_score(cosines), rng, logits)


def _bad_score(q: float) -> ValueError:
    return ValueError(f"separation score {float(q)!r} is not a finite non-negative number")


def separation_score(cosines: np.ndarray) -> float:
    """Similarity of a gradient to the buffer: max cosine + 1 over the
    stored slots drawn for it (:meth:`SeparationBuffer.draw_compare`).

    ``cosines[i]`` is the offered gradient's cosine against the gradient
    of the ``i``-th drawn slot.  The trainer reads them off a factored
    Gram product (:meth:`~contrail.predictor.FactoredGrads.cosines`),
    where a zero-norm gradient on either side counts as cosine 0, so
    scores land in [0, 2].  An empty draw, the stream's first offer,
    scores ``FIRST_SAMPLE_SCORE``.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    if cosines.ndim != 1:
        raise ValueError(f"expected one cosine per drawn slot, got shape {cosines.shape}")
    if not cosines.size:
        return FIRST_SAMPLE_SCORE
    return float(cosines.max() + 1.0)


def draw_minibatch(
    buffer: CompletionBuffer | SeparationBuffer,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform with-replacement draw of n slots; an empty buffer or
    ``n == 0`` gives no slots and consumes no randomness."""
    if n < 0:
        raise ValueError("minibatch size must be non-negative")
    if not len(buffer) or n == 0:
        return np.zeros(0, dtype=np.intp)
    return rng.integers(0, len(buffer), size=n)
