"""Replay buffers: reservoir retention, diversity scoring, eviction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from contrail.memory import (
    FIRST_SAMPLE_SCORE,
    CompletionBuffer,
    SeparationBuffer,
    draw_minibatch,
    separation_score,
)

from contrail.losses import replay_targets

from conftest import (
    RefCompletionBuffer,
    RefSeparationBuffer,
    cosine_rows,
    make_table,
    ref_draw_minibatch,
    ref_replay_targets,
    same_rows,
)


class TestCompletionBuffer:
    def test_fills_in_order_below_capacity(self):
        rng = np.random.default_rng(100)
        buf = CompletionBuffer(capacity=5)
        assert [buf.observe(row, rng) for row in (7, 3, 11)] == [0, 1, 2]
        assert len(buf) == 3
        assert buf.rows.tolist() == [7, 3, 11]
        assert buf.stream_count == 3

    def test_contents_are_built_from_the_samples_themselves(self, tiny_grid):
        rng = np.random.default_rng(101)
        source = make_table(rng, 3, grid=tiny_grid)
        logits = rng.normal(size=(3, tiny_grid.n_cells))
        buf = CompletionBuffer(capacity=2, source=source, n_cells=tiny_grid.n_cells)
        buf.observe(2, rng, logits[2])
        buf.observe(0, rng, logits[0])
        rows, stored = buf.contents()
        assert same_rows(rows, source.take(np.array([2, 0])))
        assert np.array_equal(stored, logits[[2, 0]])

    def test_contents_returns_a_copy(self, tiny_grid):
        rng = np.random.default_rng(101)
        buf = CompletionBuffer(capacity=2, source=make_table(rng, grid=tiny_grid), n_cells=tiny_grid.n_cells)
        buf.observe(0, rng, rng.normal(size=tiny_grid.n_cells))
        rows, stored = buf.contents()
        rows.x[:] = 0.0
        stored[:] = 0.0
        assert buf.source.x.any() and buf.logits[0].any()

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(102)
        buf = CompletionBuffer(capacity=4, n_cells=4)
        for row in range(50):
            buf.observe(row, rng, np.full(4, float(row)))
            assert len(buf) <= 4
            assert len(buf.logits) == len(buf)
        assert len(buf) == 4
        assert buf.stream_count == 50
        # Each slot keeps the logits it was stored with.
        assert all(lg[0] == row for row, lg in zip(buf.rows, buf.logits))

    def test_retention_is_uniform(self):
        # Every stream item should survive with probability k/n.
        rng = np.random.default_rng(103)
        k, n, runs = 5, 40, 3000
        counts = np.zeros(n)
        for _ in range(runs):
            buf = CompletionBuffer(capacity=k)
            for row in range(n):
                buf.observe(row, rng)
            for row in buf.rows:
                counts[row] += 1
        p = k / n
        expected = runs * p
        sigma = math.sqrt(runs * p * (1 - p))
        assert np.abs(counts - expected).max() < 4 * sigma
        assert counts.sum() == runs * k

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            CompletionBuffer(capacity=0)


class TestSeparationScore:
    def _cosines_against(self, stored_grad):
        stored = np.asarray([stored_grad], dtype=float)
        return lambda g: cosine_rows(np.asarray(g, dtype=float), stored)

    def test_aligned_opposite_orthogonal(self):
        cos = self._cosines_against([1.0, 0.0])
        assert separation_score(cos([2.0, 0.0])) == pytest.approx(2.0)
        assert separation_score(cos([-3.0, 0.0])) == pytest.approx(0.0)
        assert separation_score(cos([0.0, 5.0])) == pytest.approx(1.0)

    def test_zero_norm_gradients_score_one(self):
        cos = self._cosines_against([1.0, 0.0])
        assert separation_score(cos(np.zeros(2))) == pytest.approx(1.0)
        cos2 = self._cosines_against([0.0, 0.0])
        assert separation_score(cos2([1.0, 1.0])) == pytest.approx(1.0)

    def test_scores_stay_in_range(self):
        rng = np.random.default_rng(112)
        buf = SeparationBuffer(capacity=20)
        grads = []
        for row in range(20):
            buf.observe(row, 1.0, rng)
            grads.append(rng.normal(size=30))
        stored = np.stack(grads)
        for _ in range(200):
            drawn = buf.draw_compare(rng)
            q = separation_score(cosine_rows(rng.normal(size=30), stored[drawn]))
            assert 0.0 <= q <= 2.0

    def test_max_over_the_drawn_slots(self):
        rng = np.random.default_rng(113)
        buf = SeparationBuffer(capacity=8, b_compare=5)
        grads = []
        for row in range(8):
            buf.observe(row, 1.0, rng)
            grads.append(rng.normal(size=12))
        cos = cosine_rows(rng.normal(size=12), np.stack(grads))
        # The draw is uniform with replacement over the filled slots, and
        # the score is the max over the drawn slots, one at a time.
        draws = np.random.default_rng(7).integers(0, 8, size=5)
        q_single = float(max(cos[int(d)] for d in draws) + 1.0)
        drawn = buf.draw_compare(np.random.default_rng(7))
        assert np.array_equal(drawn, draws)
        assert separation_score(cos[drawn]) == q_single

    def test_empty_draw_scores_the_first_sample(self):
        assert separation_score(np.ones(0)) == FIRST_SAMPLE_SCORE

    @pytest.mark.parametrize("cosines", [np.ones((2, 2)), np.float64(0.5)])
    def test_bad_shape_rejected(self, cosines):
        with pytest.raises(ValueError, match="shape"):
            separation_score(cosines)


class TestDrawCompare:
    def test_first_offer_draws_nothing(self):
        rng = np.random.default_rng(115)
        state = rng.bit_generator.state
        assert SeparationBuffer(capacity=4).draw_compare(rng).size == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("stream_count", [0, 1, 3, 6])
    def test_offer_k_draws_from_the_slots_filled_at_its_turn(self, stream_count):
        rng = np.random.default_rng(116)
        buf = SeparationBuffer(capacity=5, b_compare=3)
        for row in range(stream_count):
            buf.observe(row, 0.5, rng)
        for ahead in range(8):
            n_k = min(buf.capacity, stream_count + ahead)
            for _ in range(50):
                drawn = buf.draw_compare(rng, ahead)
                assert len(drawn) == min(buf.b_compare, n_k)
                assert ((0 <= drawn) & (drawn < n_k)).all()

    def test_draws_are_uniform(self):
        rng = np.random.default_rng(117)
        buf = SeparationBuffer(capacity=4, b_compare=2)
        buf.observe(0, 0.5, rng)
        # Two offers ahead, three slots are filled; the draw covers them all.
        trials = 4000
        counts = np.bincount(np.concatenate([buf.draw_compare(rng, 2) for _ in range(trials)]), minlength=4)
        assert counts[3] == 0
        expected = 2 * trials / 3
        sigma = math.sqrt(2 * trials * (1 / 3) * (2 / 3))
        assert np.abs(counts[:3] - expected).max() < 4 * sigma


    @pytest.mark.parametrize(
        "capacity, b_compare, stream_count, offers",
        [
            (6, 3, 6, 8),  # full at batch start: one call
            (6, 3, 40, 8),
            (6, 10, 9, 8),  # b_compare above the capacity
            (6, 3, 6, 3),  # a short last batch
            (6, 3, 6, 1),
            (1, 2, 5, 4),  # one slot: draws below 1 consume nothing
            (6, 3, 2, 8),  # fills mid-batch: per-offer draws
            (6, 3, 0, 8),  # the stream's first batch
            (6, 3, 5, 3),
        ],
    )
    def test_a_batch_draws_what_per_offer_calls_draw(self, capacity, b_compare, stream_count, offers):
        """One call per full batch gives the slots and the generator
        state of one ``draw_compare`` call per offer."""
        buf = SeparationBuffer(capacity=capacity, b_compare=b_compare, stream_count=stream_count)
        full = stream_count >= capacity
        for seed in range(300):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = buf.draw_compare_batch(rng, offers)
            want = [buf.draw_compare(ref, k) for k in range(offers)]
            assert isinstance(draws, np.ndarray) == full
            assert len(draws) == offers
            assert all(np.array_equal(got, w) for got, w in zip(draws, want))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [5, 100, 3 * 10**9])
    def test_bounded_draws_split_across_calls_alike(self, n):
        """The fact that batch draws rest on: ``Generator.integers`` below
        ``n`` gives the same values and state in one call as in one call
        per row, also at n = 3e9, where 30% of 32-bit words are
        rejected."""
        for size in (1, 3, 10):
            for seed in range(300):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                one = rng.integers(0, n, size=(7, size))
                per_row = np.stack([ref.integers(0, n, size=size) for _ in range(7)])
                assert np.array_equal(one, per_row)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestSeparationBuffer:
    def _full_buffer(self, rng, scores, n_cells=0):
        buf = SeparationBuffer(capacity=len(scores), n_cells=n_cells)
        for row, q in enumerate(scores):
            buf.observe(row, float(q), rng, np.zeros(n_cells))
        return buf

    def test_appends_below_capacity(self):
        rng = np.random.default_rng(120)
        buf = SeparationBuffer(capacity=3, n_cells=4)
        logits = np.ones(4)
        slot = buf.observe(5, 0.7, rng, logits)
        assert slot == 0
        assert buf.rows.tolist() == [5]
        assert np.array_equal(buf.logits, [logits])
        assert buf.scores.tolist() == [0.7]

    def test_similar_newcomer_discarded_at_capacity(self):
        rng = np.random.default_rng(121)
        buf = self._full_buffer(rng, [0.2, 0.4])
        before = buf.rows.tolist()
        assert buf.observe(9, 1.0, rng) is None
        assert buf.observe(9, 1.7, rng) is None
        assert buf.rows.tolist() == before
        assert buf.stream_count == 4

    def test_zero_score_newcomer_always_stored(self):
        rng = np.random.default_rng(122)
        for _ in range(300):
            buf = self._full_buffer(rng, [0.7])
            slot = buf.observe(9, 0.0, rng)
            assert slot is not None and buf.rows[slot] == 9

    def test_replacement_inherits_new_score(self):
        rng = np.random.default_rng(123)
        buf = self._full_buffer(rng, [0.9], n_cells=4)
        logits = np.ones(4)
        slot = buf.observe(9, 0.25, rng, logits)
        assert slot == 0
        assert buf.rows.tolist() == [9]
        assert np.array_equal(buf.logits, [logits])
        assert buf.scores.tolist() == [0.25]

    def test_equal_scores_replace_half_the_time(self):
        rng = np.random.default_rng(124)
        buf = self._full_buffer(rng, [0.5])
        trials = 20000
        stored = sum(buf.observe(1 + i, 0.5, rng) is not None for i in range(trials))
        assert abs(stored / trials - 0.5) < 0.015

    def test_zero_zero_tie_replaces_half_the_time(self):
        rng = np.random.default_rng(125)
        buf = self._full_buffer(rng, [0.0])
        trials = 20000
        stored = sum(buf.observe(1 + i, 0.0, rng) is not None for i in range(trials))
        assert abs(stored / trials - 0.5) < 0.015

    def test_all_zero_scores_pick_candidates_uniformly(self):
        rng = np.random.default_rng(126)
        buf = self._full_buffer(rng, [0.0, 0.0, 0.0])
        slot_counts = np.zeros(3)
        replaced = 0
        for newcomer in range(3, 6003):
            slot = buf.observe(newcomer, 0.0, rng)
            if slot is not None:
                assert buf.rows[slot] == newcomer
                replaced += 1
                slot_counts[slot] += 1
        assert replaced > 2500
        expected = replaced / 3
        sigma = math.sqrt(replaced * (1 / 3) * (2 / 3))
        assert np.abs(slot_counts - expected).max() < 4 * sigma

    def test_high_score_candidates_evicted_more_often(self):
        # One redundant item (q = 1.8) and one distinctive item
        # (q = 0.05): the redundant one should absorb most evictions.
        rng = np.random.default_rng(127)
        evictions = np.zeros(2)
        for _ in range(2000):
            buf = self._full_buffer(rng, [1.8, 0.05])
            slot = buf.observe(2, 0.3, rng)
            if slot is not None:
                assert buf.rows[slot] == 2
                evictions[slot] += 1
        assert evictions[0] > 10 * evictions[1]

    @pytest.mark.parametrize(
        "scores",
        [
            [0.3, 1.2, 0.05, 1.9, 0.7],
            [0.0, 0.8, 0.0, 0.0, 1.5],  # zero scores are never candidates
            [0.0, 0.0, 0.0, 0.0, 2.0],
            [0.6] * 5,
            [1.0] * 64,
            [0.4],  # one slot
        ],
    )
    def test_eviction_draw_is_generator_choice(self, scores):
        """The candidate is ``Generator.choice(n, p=q / q.sum())``: same
        index, same generator state.  A zero-score newcomer always
        replaces a candidate of positive score, so the slot written is
        the candidate drawn."""
        q = np.array(scores)
        buf = SeparationBuffer(capacity=len(q), stream_count=len(q))
        for seed in range(200):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                buf.fill(buf.rows, buf.logits, q)
                slot = buf.observe(7, 0.0, rng)
                assert slot == ref.choice(len(q), p=q / q.sum())
                ref.random()  # the replacement draw
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, -0.5, -1e-300])
    def test_bad_scores_refused(self, q):
        rng = np.random.default_rng(131)
        for filled in (1, 2):  # below capacity, then full
            buf = SeparationBuffer(capacity=2)
            for row in range(filled):
                buf.observe(row, 0.5, rng)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=f"separation score {q!r} is not a finite non-negative"):
                buf.observe(5, q, rng)
            assert buf.stream_count == filled and buf.rows.tolist() == list(range(filled))
            assert rng.bit_generator.state == state
            with pytest.raises(ValueError, match=f"separation score {q!r}"):
                buf.fill(buf.rows, buf.logits, [0.5, q][-filled:])
            assert buf.scores.tolist() == [0.5] * filled
        with pytest.raises(ValueError, match="separation score nan"):
            buf.offer(5, np.array([0.5, np.nan]), rng)

    def test_offer_first_sample_rule(self):
        rng = np.random.default_rng(128)
        buf = SeparationBuffer(capacity=3)

        # No stored slot exists, so nothing is drawn and the offer takes
        # no cosine.
        assert buf.draw_compare(rng).size == 0
        with pytest.raises(ValueError, match=r"one cosine per drawn slot \(0\)"):
            buf.offer(0, np.ones(1), rng)
        slot = buf.offer(0, np.ones(0), rng)
        assert slot == 0
        assert buf.scores.tolist() == [FIRST_SAMPLE_SCORE]

    def test_offer_scores_later_samples(self):
        rng = np.random.default_rng(129)
        buf = SeparationBuffer(capacity=3, n_cells=4)
        g = np.array([1.0, 0.0])
        buf.offer(0, cosine_rows(g, np.zeros((0, 2))), rng, np.zeros(4))
        logits = np.ones(4)
        drawn = buf.draw_compare(rng)
        assert drawn.tolist() == [0]
        slot = buf.offer(1, cosine_rows(g, np.stack([g])[drawn]), rng, logits)
        assert slot == 1
        assert buf.scores[1] == pytest.approx(2.0)
        assert buf.rows.tolist() == [0, 1] and np.array_equal(buf.logits[1], logits)

    @pytest.mark.parametrize("cosines", [np.ones(3), np.ones(1), np.ones((2, 1))])
    def test_offer_needs_one_cosine_per_drawn_slot(self, cosines):
        rng = np.random.default_rng(130)
        buf = SeparationBuffer(capacity=4, b_compare=2)
        for row in range(3):
            buf.observe(row, 0.5, rng)
        with pytest.raises(ValueError, match="one cosine per drawn slot"):
            buf.offer(3, cosines, rng)
        assert buf.stream_count == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SeparationBuffer(capacity=0)
        with pytest.raises(ValueError, match="b_compare"):
            SeparationBuffer(capacity=2, b_compare=0)


class TestDrawMinibatch:
    def test_empty_buffer_gives_empty_list(self):
        rng = np.random.default_rng(130)
        assert draw_minibatch(CompletionBuffer(capacity=3), 5, rng).size == 0

    def test_zero_draws_give_empty_list(self):
        rng = np.random.default_rng(131)
        buf = CompletionBuffer(capacity=3)
        buf.observe(0, rng)
        assert draw_minibatch(buf, 0, rng).size == 0

    def test_negative_size_rejected(self):
        rng = np.random.default_rng(132)
        with pytest.raises(ValueError, match="non-negative"):
            draw_minibatch(CompletionBuffer(capacity=3), -1, rng)

    def test_draws_with_replacement_from_buffer(self):
        rng = np.random.default_rng(133)
        buf = CompletionBuffer(capacity=2)
        for row in range(2):
            buf.observe(row, rng)
        slots = draw_minibatch(buf, 10, rng)
        assert len(slots) == 10
        assert all(0 <= s < len(buf) for s in slots)

    def test_draws_are_uniform(self):
        rng = np.random.default_rng(134)
        buf = CompletionBuffer(capacity=4)
        for row in range(4):
            buf.observe(row, rng)
        trials = 8000
        counts = np.bincount(draw_minibatch(buf, trials, rng), minlength=4)
        expected = trials / 4
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert np.abs(counts - expected).max() < 4 * sigma


class TestAgainstListReference:
    """The array slots make the decisions of the list-backed reference
    in ``conftest``: random operation sequences leave equal slots and
    the generators in the same state."""

    N_CELLS = 3

    def _assert_same(self, got, want):
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.logits, np.array(want.logits).reshape(len(want), self.N_CELLS))
        assert got.stream_count == want.stream_count
        if isinstance(want, RefSeparationBuffer):
            assert got.scores.tolist() == want.scores

    @pytest.mark.parametrize("seed", range(40))
    def test_random_operations_match(self, seed):
        ops = np.random.default_rng([150, seed])
        n_rows = 60
        source = make_table(np.random.default_rng(seed), n_rows)
        capacity = int(ops.integers(1, 8))
        b_compare = int(ops.integers(1, 4))
        comp = CompletionBuffer(capacity=capacity, source=source, n_cells=self.N_CELLS)
        sep = SeparationBuffer(capacity=capacity, source=source, n_cells=self.N_CELLS, b_compare=b_compare)
        ref_comp, ref_sep = RefCompletionBuffer(capacity), RefSeparationBuffer(capacity, b_compare)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        # Each source row is offered once, to one buffer.
        for row in ops.permutation(n_rows).tolist():
            logits = ops.normal(size=self.N_CELLS)
            op = ops.integers(0, 5)
            if op == 0:
                slot = comp.observe(row, rng, logits)
                ref_comp.observe(row, ref_rng, logits)
                assert slot is None or comp.rows[slot] == row
                assert (slot is not None) == (row in comp.rows)
            elif op == 1:
                cosines = ops.uniform(-1.0, 1.0, size=len(sep))
                drawn = sep.draw_compare(rng)
                assert np.array_equal(drawn, ref_sep.draw_compare(ref_rng))
                slot = sep.offer(row, cosines[drawn], rng, logits)
                assert (slot is not None) == ref_sep.offer(row, cosines[drawn], ref_rng, logits)
                assert slot is None or sep.rows[slot] == row
            elif op == 2:
                # Exact zeros reach the all-zero-scores branch.
                q = float(ops.choice([0.0, ops.uniform(0.0, 2.0)]))
                slot = sep.observe(row, q, rng, logits)
                assert (slot is not None) == ref_sep.observe(row, q, ref_rng, logits)
                assert slot is None or sep.rows[slot] == row
            elif op == 3 and len(comp) > 1:
                keep = sorted(ops.choice(len(comp), size=len(comp) - 1, replace=False).tolist())
                comp.retain(keep)
                ref_comp.retain(keep)
                comp.capacity = ref_comp.capacity = len(keep)
            else:
                for buffer, ref in ((comp, ref_comp), (sep, ref_sep)):
                    n = int(ops.integers(0, 5))
                    slots = draw_minibatch(buffer, n, rng)
                    assert np.array_equal(slots, ref_draw_minibatch(ref, n, ref_rng))
                    if len(slots):
                        got, want = replay_targets(buffer, slots), ref_replay_targets(ref, slots)
                        assert np.array_equal(got[0], want[0])
                        assert np.array_equal(got[1], want[1])
            self._assert_same(comp, ref_comp)
            self._assert_same(sep, ref_sep)
        assert rng.random() == ref_rng.random()
