"""Streaming trainer: strategies, equivalences, audit, checkpoints."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import contrail
from contrail import learner, predictor
from contrail.core import GridSpec, Scenes
from contrail.learner import (
    TASK_FREE,
    Strategy,
    TrainConfig,
    TrainResult,
    agem_project,
    dual_replay_step,
    gss_style_step,
    train_stream,
)
from contrail.losses import LossSpec, replay_targets
from contrail.memory import (
    CompletionBuffer,
    SeparationBuffer,
    draw_minibatch,
)
from contrail.learner import _AgemMemory
from contrail.predictor import AdamState, HeatmapPredictor, PredictorConfig
from contrail.scenarios import KINDS, TaskSpec, generate_task

from conftest import cosine_rows, dense, make_scenes, make_table, same_bits, same_rows


def make_stream(rng, grid, labels):
    return make_scenes(rng, len(labels), grid=grid, labels=labels)


class TestStrategyParsing:
    def test_known_names(self):
        assert Strategy.parse("dual") is Strategy.DUAL_REPLAY
        assert Strategy.parse("VANILLA") is Strategy.VANILLA
        assert Strategy.parse("Joint") is Strategy.JOINT

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("ewc")

    def test_task_free_set(self):
        assert Strategy.AGEM not in TASK_FREE
        assert Strategy.JOINT not in TASK_FREE
        assert Strategy.DUAL_REPLAY in TASK_FREE


class TestTrainConfig:
    def test_replay_batch_defaults_to_batch_size(self):
        assert TrainConfig(batch_size=8).replay_n == 8
        assert TrainConfig(batch_size=8, replay_batch=3).replay_n == 3
        assert TrainConfig(batch_size=8, replay_batch=0).replay_n == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="buffer_total"):
            TrainConfig(buffer_total=-1)
        with pytest.raises(ValueError, match="replay_batch"):
            TrainConfig(replay_batch=-1)
        with pytest.raises(ValueError, match="agem_ref_batch"):
            TrainConfig(agem_ref_batch=0)


class TestAgemProject:
    def test_aligned_gradient_passes_through(self):
        g = np.array([1.0, 2.0])
        assert agem_project(g, np.array([0.5, 0.5]), np.empty(2)) is False
        assert np.array_equal(g, [1.0, 2.0])

    def test_conflicting_gradient_becomes_orthogonal(self):
        rng = np.random.default_rng(300)
        scratch = np.empty(1000)
        done = 0
        for _ in range(200):
            g = rng.normal(size=1000)
            ref = rng.normal(size=1000)
            if g @ ref >= 0:
                continue
            assert agem_project(g, ref, scratch) is True
            assert abs(g @ ref) < 1e-9 * np.linalg.norm(g) * np.linalg.norm(ref) + 1e-12
            again = g.copy()
            reprojected = agem_project(again, ref, scratch)
            assert reprojected is False or abs(again @ ref) < 1e-9
            done += 1
        assert done > 50

    def test_zero_reference_is_a_no_op(self):
        g = np.array([1.0, -1.0])
        assert agem_project(g, np.zeros(2), np.empty(2)) is False
        assert np.array_equal(g, [1.0, -1.0])

    def test_hand_case(self):
        g = np.array([1.0, -1.0])
        assert agem_project(g, np.array([0.0, 1.0]), np.empty(2)) is True
        assert np.allclose(g, [1.0, 0.0], atol=1e-15)

    def test_matches_the_textbook_projection(self):
        """Bit for bit ``g - (dot / denom) * ref``, one fresh array per
        operation, with the dots summed by einsum; ``ref`` is left as
        it was, and so is ``g`` when nothing is projected."""
        rng = np.random.default_rng(301)
        scratch = np.empty(500)
        projections = 0
        for _ in range(100):
            g, ref = rng.normal(size=500), rng.normal(size=500)
            ref_before = ref.copy()
            dot, denom = float(np.einsum("i,i->", g, ref)), float(np.einsum("i,i->", ref, ref))
            want = g - (dot / denom) * ref if dot < 0.0 else g.copy()
            projected = agem_project(g, ref, scratch)
            assert projected is (dot < 0.0)
            assert same_bits(g, want) and same_bits(ref, ref_before)
            projections += projected
        assert projections > 20


class TestStepFunctions:
    """Rows 0-3 of the table are the current batch, rows 4 on are
    what the buffers hold."""

    batch = np.arange(4)

    def _table(self, rng, model, n):
        return model.encode(make_stream(rng, model.config.grid, [1] * n))

    def _logits(self, rng, grid):
        return rng.normal(size=grid.n_cells)

    def test_empty_buffers_match_vanilla(self, tiny_model):
        """Empty buffers, or full ones with replay_batch 0, draw nothing:
        both steps are then the vanilla step and never consume the
        generator."""
        rng = np.random.default_rng(310)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 8)
        b = self.batch
        for filled, replay_batch in ((0, None), (4, 0)):
            sp = SeparationBuffer(capacity=4, n_cells=grid.n_cells)
            cp = CompletionBuffer(capacity=4, n_cells=grid.n_cells)
            for row in range(4, 4 + filled):
                logits = self._logits(rng, grid)
                sp.observe(row, 0.5, rng, logits)
                cp.observe(row, rng, logits)
            cfg = TrainConfig(replay_batch=replay_batch)

            base_loss, base_grad, _ = tiny_model.loss_and_grad(
                params, table.x[b], table.cells[b], cfg.loss
            )
            for step in (
                lambda r: dual_replay_step(tiny_model, params, table, b, sp, cp, cfg, r),
                lambda r: gss_style_step(tiny_model, params, table, b, sp, cfg, r),
            ):
                step_rng = np.random.default_rng(77)
                loss, grad, _ = step(step_rng)
                assert loss == base_loss
                assert np.array_equal(grad, base_grad)
                assert step_rng.integers(1 << 20) == np.random.default_rng(77).integers(1 << 20)

    def test_zero_weights_match_vanilla_and_skip_the_rng(self, tiny_model):
        rng = np.random.default_rng(311)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 8)
        sp = SeparationBuffer(capacity=4, n_cells=grid.n_cells)
        cp = CompletionBuffer(capacity=4, n_cells=grid.n_cells)
        for row in range(4, 8):
            logits = self._logits(rng, grid)
            sp.observe(row, 0.5, rng, logits)
            cp.observe(row, rng, logits)
        cfg = TrainConfig(loss=LossSpec(alpha=0.0, beta=0.0))

        b = self.batch
        base_loss, base_grad, _ = tiny_model.loss_and_grad(
            params, table.x[b], table.cells[b], cfg.loss
        )
        step_rng = np.random.default_rng(77)
        loss, grad, _ = dual_replay_step(tiny_model, params, table, b, sp, cp, cfg, step_rng)
        assert loss == base_loss
        assert np.array_equal(grad, base_grad)
        # The generator was never consumed.
        assert step_rng.integers(1 << 20) == np.random.default_rng(77).integers(1 << 20)

    def test_alpha_zero_matches_reservoir_only_step(self, tiny_model):
        rng = np.random.default_rng(312)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 8)
        sp = SeparationBuffer(capacity=4, n_cells=grid.n_cells)
        cp = CompletionBuffer(capacity=4, n_cells=grid.n_cells)
        for row in range(4, 8):
            logits = self._logits(rng, grid)
            sp.observe(row, 0.5, rng, logits)
            cp.observe(row, rng, logits)
        cfg = TrainConfig(loss=LossSpec(alpha=0.0, beta=1.0))
        with_sp = dual_replay_step(
            tiny_model, params, table, self.batch, sp, cp, cfg, np.random.default_rng(5)
        )
        without_sp = dual_replay_step(
            tiny_model, params, table, self.batch, None, cp, cfg, np.random.default_rng(5)
        )
        assert with_sp[0] == without_sp[0]
        assert np.array_equal(with_sp[1], without_sp[1])

    def test_replay_terms_add_up(self, tiny_model):
        rng = np.random.default_rng(313)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 8)
        cp = CompletionBuffer(capacity=4, n_cells=grid.n_cells)
        for row in range(4, 8):
            cp.observe(row, rng, self._logits(rng, grid))
        cfg = TrainConfig(loss=LossSpec(alpha=1.0, beta=2.0))

        b = self.batch
        loss, grad, _ = dual_replay_step(
            tiny_model, params, table, b, None, cp, cfg, np.random.default_rng(9)
        )
        slots = draw_minibatch(cp, cfg.replay_n, np.random.default_rng(9))
        rows, stored = replay_targets(cp, slots)
        assert np.array_equal(rows, [cp.rows[s] for s in slots])
        assert np.array_equal(stored, np.stack([cp.logits[s] for s in slots]))
        base_l, base_g, _ = tiny_model.loss_and_grad(params, table.x[b], table.cells[b], cfg.loss)
        rep_l, rep_g, _ = tiny_model.loss_and_grad(
            params, table.x[rows], table.cells[rows], cfg.loss, stored=stored
        )
        assert loss == pytest.approx(base_l + 2.0 * rep_l, rel=1e-12)
        assert np.allclose(grad, base_g + 2.0 * rep_g, atol=1e-15)

    def _full_buffers(self, rng, grid, rows):
        sp = SeparationBuffer(capacity=len(rows), n_cells=grid.n_cells)
        cp = CompletionBuffer(capacity=len(rows), n_cells=grid.n_cells)
        for row in rows:
            sp.observe(row, 0.5, rng, self._logits(rng, grid))
            cp.observe(row, rng, self._logits(rng, grid))
        return sp, cp

    def test_fused_step_matches_the_separate_terms(self, tiny_model):
        rng = np.random.default_rng(316)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 13)
        sp, cp = self._full_buffers(rng, grid, range(5, 13))
        cfg = TrainConfig(batch_size=5, replay_batch=3, loss=LossSpec(alpha=0.5, beta=2.0))

        b = np.arange(5)
        loss, grad, logits = dual_replay_step(
            tiny_model, params, table, b, sp, cp, cfg, np.random.default_rng(9)
        )
        draw_rng = np.random.default_rng(9)
        want_l, want_g, _ = tiny_model.loss_and_grad(
            params, table.x[b], table.cells[b], cfg.loss
        )
        want_rows = [b]
        for weight, buffer in ((0.5, sp), (2.0, cp)):
            rows, stored = replay_targets(buffer, draw_minibatch(buffer, 3, draw_rng))
            r_l, r_g, _ = tiny_model.loss_and_grad(
                params, table.x[rows], table.cells[rows], cfg.loss, stored=stored
            )
            want_l += weight * r_l
            want_g = want_g + weight * r_g
            want_rows.append(rows)
        assert loss == pytest.approx(want_l, rel=1e-12)
        assert np.allclose(grad, want_g, atol=1e-15)
        rows = np.concatenate(want_rows)
        assert np.array_equal(logits, tiny_model.forward_logits(params, table.x[rows]))

    def test_step_logits_are_the_batch_snapshot(self, tiny_model):
        rng = np.random.default_rng(317)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 13)
        sp, cp = self._full_buffers(rng, grid, range(5, 13))
        cfg = TrainConfig(batch_size=5, loss=LossSpec(alpha=0.5, beta=2.0))

        b = np.arange(5)
        snapshot = tiny_model.forward_logits(params, table.x[b])
        _, _, dual = dual_replay_step(
            tiny_model, params, table, b, sp, cp, cfg, np.random.default_rng(1)
        )
        _, _, gss = gss_style_step(tiny_model, params, table, b, sp, cfg, np.random.default_rng(1))
        assert dual.shape == (5 + 2 * cfg.replay_n, grid.n_cells)
        assert gss.shape == (5 + cfg.replay_n, grid.n_cells)
        assert np.array_equal(dual[:5], snapshot)
        assert np.array_equal(gss[:5], snapshot)

    def test_gss_step_is_the_mixed_batch_mean(self, tiny_model):
        rng = np.random.default_rng(314)
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 10)
        sp = SeparationBuffer(capacity=6)
        for row in range(4, 10):
            sp.observe(row, 0.5, rng)
        cfg = TrainConfig(replay_batch=3)

        loss, grad, _ = gss_style_step(
            tiny_model, params, table, self.batch, sp, cfg, np.random.default_rng(4)
        )
        slots = draw_minibatch(sp, 3, np.random.default_rng(4))
        mixed = np.concatenate([self.batch, sp.rows[slots]])
        want_l, want_g, _ = tiny_model.loss_and_grad(
            params, table.x[mixed], table.cells[mixed], cfg.loss
        )
        assert loss == want_l
        assert np.array_equal(grad, want_g)

    def test_gss_step_without_buffer_matches_vanilla(self, tiny_model):
        rng = np.random.default_rng(315)
        params = tiny_model.init_params()
        table = self._table(rng, tiny_model, 4)
        cfg = TrainConfig()

        loss, grad, _ = gss_style_step(
            tiny_model, params, table, self.batch, None, cfg, np.random.default_rng(0)
        )
        want_l, want_g, _ = tiny_model.loss_and_grad(params, table.x, table.cells, cfg.loss)
        assert loss == want_l
        assert np.array_equal(grad, want_g)


class TestTrainStream:
    def _stream(self, seed, grid, labels=(1,) * 12 + (2,) * 12):
        return make_stream(np.random.default_rng(seed), grid, list(labels))

    def test_empty_stream_rejected(self, tiny_model):
        empty = make_stream(np.random.default_rng(319), tiny_model.config.grid, [])
        with pytest.raises(ValueError, match="empty stream"):
            train_stream(tiny_model, tiny_model.encode(empty), Strategy.VANILLA, TrainConfig())

    def test_unordered_stream_rejected(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(320, grid, labels=[1, 2, 1])
        table = tiny_model.encode(stream)
        with pytest.raises(ValueError, match="non-decreasing"):
            train_stream(tiny_model, table, Strategy.VANILLA, TrainConfig())

    def test_single_pass_visits(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(321, grid)
        table = tiny_model.encode(stream)
        for strategy in Strategy:
            cfg = TrainConfig(batch_size=5, buffer_total=8)
            result = train_stream(tiny_model, table, strategy, cfg)
            assert result.n_steps == math.ceil(len(table) / cfg.batch_size) == 5
            assert result.adam_state.t == result.n_steps

    def test_bit_reproducible(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(322, grid)
        table = tiny_model.encode(stream)
        cfg = TrainConfig(buffer_total=8, seed=13)
        for strategy in (Strategy.DUAL_REPLAY, Strategy.AGEM, Strategy.JOINT):
            a = train_stream(tiny_model, table, strategy, cfg)
            b = train_stream(tiny_model, table, strategy, cfg)
            assert np.array_equal(a.final_params, b.final_params)
            assert a.agem_dots == b.agem_dots
            assert len(a.checkpoints) == len(b.checkpoints)
            for (la, pa), (lb, pb) in zip(a.checkpoints, b.checkpoints):
                assert la == lb
                assert np.array_equal(pa, pb)

    def test_buffer_wiring_per_strategy(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(323, grid)
        table = tiny_model.encode(stream)
        cfg = TrainConfig(buffer_total=8)

        dual = train_stream(tiny_model, table, Strategy.DUAL_REPLAY, cfg)
        assert dual.separation is not None and dual.separation.capacity == 4
        assert dual.completion is not None and dual.completion.capacity == 4
        assert len(dual.completion) == 4

        der = train_stream(tiny_model, table, Strategy.DER_STYLE, cfg)
        assert der.separation is None
        assert der.completion is not None and der.completion.capacity == 8

        gss = train_stream(tiny_model, table, Strategy.GSS_STYLE, cfg)
        assert gss.separation is not None and gss.separation.capacity == 8
        assert gss.completion is None

        vanilla = train_stream(tiny_model, table, Strategy.VANILLA, cfg)
        assert vanilla.separation is None and vanilla.completion is None

    def test_dual_needs_an_even_budget(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(324, grid)
        table = tiny_model.encode(stream)
        with pytest.raises(ValueError, match="even total"):
            train_stream(
                tiny_model, table, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=7)
            )

    def test_dual_without_memory_matches_vanilla_bitwise(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(325, grid)
        table = tiny_model.encode(stream)
        vanilla = train_stream(
            tiny_model, table, Strategy.VANILLA, TrainConfig(buffer_total=0)
        )
        no_budget = train_stream(
            tiny_model, table, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=0)
        )
        assert np.array_equal(vanilla.final_params, no_budget.final_params)

        zero_weights = train_stream(
            tiny_model,
            table,
            Strategy.DUAL_REPLAY,
            TrainConfig(buffer_total=8, loss=LossSpec(alpha=0.0, beta=0.0)),
        )
        assert np.array_equal(vanilla.final_params, zero_weights.final_params)

    def test_replay_changes_the_outcome(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(326, grid)
        table = tiny_model.encode(stream)
        vanilla = train_stream(tiny_model, table, Strategy.VANILLA, TrainConfig())
        dual = train_stream(
            tiny_model, table, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=8)
        )
        assert not np.array_equal(vanilla.final_params, dual.final_params)

    def test_joint_equals_vanilla_on_the_shuffled_stream(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(327, grid, labels=[1] * 20)
        table = tiny_model.encode(stream)
        cfg = TrainConfig(seed=5)
        joint = train_stream(tiny_model, table, Strategy.JOINT, cfg)
        assert joint.checkpoints == []

        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        order = np.random.default_rng(seeds[2]).permutation(len(table))
        vanilla = train_stream(tiny_model, table.take(order), Strategy.VANILLA, cfg)
        assert np.array_equal(joint.final_params, vanilla.final_params)

    def test_task_free_strategies_read_no_labels(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(328, grid)
        table = tiny_model.encode(stream)
        for strategy in TASK_FREE:
            result = train_stream(
                tiny_model, table, strategy, TrainConfig(buffer_total=8)
            )
            assert result.label_reads == 0, strategy
        joint = train_stream(tiny_model, table, Strategy.JOINT, TrainConfig())
        assert joint.label_reads == 0
        agem = train_stream(
            tiny_model, table, Strategy.AGEM, TrainConfig(buffer_total=8)
        )
        assert agem.label_reads > 0

    def test_checkpoints_follow_task_boundaries(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(329, grid, labels=[1] * 6 + [2] * 6)
        table = tiny_model.encode(stream)
        cfg = TrainConfig(batch_size=4)
        result = train_stream(tiny_model, table, Strategy.VANILLA, cfg)
        assert [label for label, _ in result.checkpoints] == [1, 2]
        assert np.array_equal(result.checkpoints[1][1], result.final_params)
        assert not np.array_equal(result.checkpoints[0][1], result.final_params)

    def test_agem_projections_stay_non_negative(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(330, grid, labels=[1] * 16 + [2] * 16 + [3] * 16)
        table = tiny_model.encode(stream)
        result = train_stream(
            tiny_model, table, Strategy.AGEM, TrainConfig(buffer_total=12, batch_size=4)
        )
        assert all(d >= -1e-9 for d in result.agem_dots)


def _dense_offer_batch(late_admissions):
    """Reference for ``learner._offer_batch``: each offer draws its
    comparison slots at its own turn and is scored from dense
    per-sample gradient rows of the batch sample and of the rows its
    drawn slots hold at that moment, through ``cosine_rows``.  Records
    the batch positions of admissions into a full buffer."""

    def offer_batch(model, params, table, batch, snapshot, sp_buffer, cp_buffer, cfg, rng, rng_compare):
        def dense_rows(rows):
            return dense(model.per_sample_grads(params, table.x[rows], table.cells[rows], cfg.loss))

        new = dense_rows(batch)
        for k, row in enumerate(batch.tolist()):
            logits = snapshot[k]
            if sp_buffer is not None:
                stored = dense_rows(sp_buffer.rows[sp_buffer.draw_compare(rng_compare)])
                full = len(sp_buffer) == sp_buffer.capacity
                if sp_buffer.offer(row, cosine_rows(new[k], stored), rng, logits) is not None and full:
                    late_admissions.append((k, len(batch)))
            if cp_buffer is not None:
                cp_buffer.observe(row, rng, logits)

    return offer_batch


class TestExactScoring:
    """The trainer draws a batch's comparison slots up front and scores
    from one factored Gram pass over them; that must make the same
    buffer decisions as drawing and dense scoring per offer."""

    @pytest.mark.parametrize("strategy", [Strategy.DUAL_REPLAY, Strategy.GSS_STYLE])
    def test_gram_scoring_matches_dense_reference(self, tiny_model, monkeypatch, strategy):
        grid = tiny_model.config.grid
        stream = make_stream(
            np.random.default_rng(336), grid, [1] * 24 + [2] * 24 + [3] * 24
        )
        table = tiny_model.encode(stream)
        cfg = TrainConfig(buffer_total=8, batch_size=4, b_compare=3, seed=3)
        fast = train_stream(tiny_model, table, strategy, cfg)

        late: list[tuple[int, int]] = []
        monkeypatch.setattr(learner, "_offer_batch", _dense_offer_batch(late))
        ref = train_stream(tiny_model, table, strategy, cfg)

        # Some admission into the full buffer was followed, within its
        # batch, by an offer scored against the replaced slot.
        assert any(k < n - 1 for k, n in late)
        assert np.array_equal(fast.final_params, ref.final_params)
        for got, want in ((fast.separation, ref.separation), (fast.completion, ref.completion)):
            if want is None:
                assert got is None
                continue
            assert np.array_equal(got.rows, want.rows)
            (got_rows, got_logits), (want_rows, want_logits) = got.contents(), want.contents()
            assert len(got_rows) == len(want_rows) == len(want)
            assert same_rows(got_rows, want_rows)
            assert np.array_equal(got_logits, want_logits)
        np.testing.assert_allclose(
            fast.separation.scores, ref.separation.scores, rtol=0, atol=1e-12
        )


class TestScoringPassCoversTheDraws:
    """Each step's scoring pass holds exactly the drawn slots held at
    batch start, in slot order, then the batch; offer ``k`` draws
    ``min(b_compare, n_k)`` slots below ``n_k = min(capacity,
    stream_count + k)``."""

    def test_pass_rows_are_the_held_draws_then_the_batch(self, tiny_model, monkeypatch):
        grid = tiny_model.config.grid
        table = tiny_model.encode(make_stream(np.random.default_rng(344), grid, [1] * 20 + [2] * 20))
        cfg = TrainConfig(buffer_total=8, batch_size=4, b_compare=3, seed=4)
        steps: list[tuple[np.ndarray, int, list[np.ndarray]]] = []
        passes: list[np.ndarray] = []
        real_draw = SeparationBuffer.draw_compare_batch
        real_grads = predictor.HeatmapPredictor.per_sample_grads

        def draw(self, rng, offers):  # a batch's draws, from the slots held at its start
            draws = real_draw(self, rng, offers)
            steps.append((self.rows.copy(), self.stream_count, list(draws)))
            return draws

        def grads(self, params, x, cells, spec):
            passes.append(x.copy())
            return real_grads(self, params, x, cells, spec)

        monkeypatch.setattr(SeparationBuffer, "draw_compare_batch", draw)
        monkeypatch.setattr(predictor.HeatmapPredictor, "per_sample_grads", grads)
        result = train_stream(tiny_model, table, Strategy.GSS_STYLE, cfg)

        assert len(steps) == len(passes) == result.n_steps == 10
        assert [len(d) for d in steps[0][2]] == [0, 1, 2, 3]  # the first offer draws nothing
        for step, ((held_rows, count, draws), x) in enumerate(zip(steps, passes)):
            batch = np.arange(4 * step, 4 * step + 4)
            assert count == 4 * step and len(draws) == len(batch)
            for k, drawn in enumerate(draws):
                n_k = min(cfg.buffer_total, count + k)
                assert len(drawn) == min(cfg.b_compare, n_k)
                assert ((0 <= drawn) & (drawn < n_k)).all()
            held = sorted({int(s) for drawn in draws for s in drawn if s < len(held_rows)})
            assert np.array_equal(x, table.x[np.concatenate([held_rows[held], batch])])
        # Undrawn slots are left out of the pass.
        assert any(len(x) < min(cfg.buffer_total, 4 * step) + 4 for step, x in enumerate(passes))


    @pytest.mark.parametrize("strategy", [Strategy.DUAL_REPLAY, Strategy.GSS_STYLE])
    def test_one_draw_per_full_batch_trains_as_per_offer_draws(self, tiny_model, monkeypatch, strategy):
        """A buffer full at batch start draws the batch's slots in one
        call; drawing per offer instead leaves every bit of the run as
        it was.  The capacity fills mid-batch and the last batch is
        short."""
        grid = tiny_model.config.grid
        table = tiny_model.encode(make_stream(np.random.default_rng(345), grid, [1] * 23 + [2] * 22))
        cfg = TrainConfig(buffer_total=10, batch_size=4, b_compare=3, seed=5)
        batched = train_stream(tiny_model, table, strategy, cfg)

        def per_offer(self, rng, offers):
            return [self.draw_compare(rng, k) for k in range(offers)]

        monkeypatch.setattr(SeparationBuffer, "draw_compare_batch", per_offer)
        ref = train_stream(tiny_model, table, strategy, cfg)
        assert same_bits(batched.final_params, ref.final_params)
        for got, want in ((batched.separation, ref.separation), (batched.completion, ref.completion)):
            if want is not None:
                assert np.array_equal(got.rows, want.rows) and same_bits(got.logits, want.logits)
        assert same_bits(batched.separation.scores, ref.separation.scores)


class TestWorkIsOncePerSample:
    """Encoding computes every sample's frame in one call and
    featurises the whole set in one call; ``train_stream`` then only
    indexes rows."""

    @pytest.mark.parametrize(
        "strategy", [Strategy.DUAL_REPLAY, Strategy.GSS_STYLE, Strategy.AGEM]
    )
    def test_each_sample_is_featurised_once(self, tiny_model, monkeypatch, strategy):
        grid = tiny_model.config.grid
        stream = make_stream(np.random.default_rng(337), grid, [1] * 24 + [2] * 24 + [3] * 24)
        featurised: list = []
        framed: list = []
        real_features, real_frames = predictor.scene_features, predictor.scene_frames

        def features(scenes, frames):
            featurised.append(scenes)
            return real_features(scenes, frames)

        def frames_of(scenes):
            framed.append(scenes)
            return real_frames(scenes)

        monkeypatch.setattr(predictor, "scene_features", features)
        monkeypatch.setattr(predictor, "scene_frames", frames_of)

        table = tiny_model.encode(stream)
        assert len(featurised) == len(framed) == 1
        assert featurised[0] is framed[0] is stream

        cfg = TrainConfig(buffer_total=8, batch_size=4, agem_ref_batch=8)
        result = train_stream(tiny_model, table, strategy, cfg)

        assert result.n_steps == 18
        assert len(featurised) == len(framed) == 1


class TestOnePassPerStep:
    """Each training step is one forward and one backward pass over the
    batch and its replay rows; the snapshot comes from that forward.
    The separation buffer's scoring pass adds one forward per step."""

    @pytest.mark.parametrize(
        "strategy, forwards_per_step",
        [
            (Strategy.VANILLA, 1),
            (Strategy.DER_STYLE, 1),
            (Strategy.DUAL_REPLAY, 2),
            (Strategy.GSS_STYLE, 2),
        ],
    )
    def test_one_forward_and_backward_per_step(
        self, tiny_model, monkeypatch, strategy, forwards_per_step
    ):
        grid = tiny_model.config.grid
        stream = make_stream(np.random.default_rng(338), grid, [1] * 24 + [2] * 24 + [3] * 24)
        table = tiny_model.encode(stream)
        counts = {"_forward_cached": 0, "_backward": 0, "forward_logits": 0}

        def counting(name):
            real = getattr(predictor.HeatmapPredictor, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(predictor.HeatmapPredictor, name, counting(name))

        cfg = TrainConfig(buffer_total=8, batch_size=4)
        result = train_stream(tiny_model, table, strategy, cfg)

        assert result.n_steps == 18
        assert counts == {
            "_forward_cached": forwards_per_step * result.n_steps,
            "_backward": result.n_steps,
            "forward_logits": 0,
        }


class TestBufferAllocation:
    """A buffer's slot arrays follow the stream, not the budget: a
    slot holds a distinct stream row."""

    @pytest.mark.parametrize(
        "strategy", [Strategy.DUAL_REPLAY, Strategy.DER_STYLE, Strategy.GSS_STYLE, Strategy.AGEM]
    )
    def test_huge_budget_allocates_only_stream_rows(self, tiny_model, monkeypatch, strategy):
        made = []
        for name in ("CompletionBuffer", "SeparationBuffer"):

            def make(*args, _cls=getattr(learner, name), **kwargs):
                made.append(_cls(*args, **kwargs))
                return made[-1]

            monkeypatch.setattr(learner, name, make)
        stream = make_stream(np.random.default_rng(343), tiny_model.config.grid, [1] * 12 + [2] * 12)
        cfg = TrainConfig(buffer_total=2 * 10**6, batch_size=4)
        train_stream(tiny_model, tiny_model.encode(stream), strategy, cfg)
        assert made
        for buf in made:
            assert buf.capacity >= 10**6
            assert len(buf._rows) <= len(stream) and len(buf._logits) <= len(stream)


class TestAgemMemory:
    def test_quotas_rebalance_as_tasks_arrive(self):
        rng = np.random.default_rng(340)
        mem = _AgemMemory(total=6, rng=rng, source=make_table(np.random.default_rng(0), 21))
        for row in range(10):
            mem.observe(1, row)
        assert len(mem.reservoirs[1]) == 6

        mem.observe(2, 10)
        assert mem.reservoirs[1].capacity == 3
        assert len(mem.reservoirs[1]) == 3
        for row in range(11, 20):
            mem.observe(2, row)
        assert len(mem.reservoirs[2]) == 3

        mem.observe(3, 20)
        assert all(buf.capacity == 2 for buf in mem.reservoirs.values())
        assert all(len(buf) <= 2 for buf in mem.reservoirs.values())
        assert all(len(buf.logits) == len(buf.rows) for buf in mem.reservoirs.values())

    def test_reference_pool_excludes_the_current_task(self):
        rng = np.random.default_rng(341)
        mem = _AgemMemory(total=8, rng=rng, source=make_table(np.random.default_rng(0), 8))
        for row in range(4):
            mem.observe(1, row)
        assert len(mem.reference_rows(exclude_label=1, n=5)) == 0
        for row in range(4, 8):
            mem.observe(2, row)
        refs = mem.reference_rows(exclude_label=2, n=16)
        assert len(refs) == 16
        assert all(r in mem.reservoirs[1].rows for r in refs)

    def test_zero_budget_stores_nothing(self):
        rng = np.random.default_rng(342)
        mem = _AgemMemory(total=0, rng=rng, source=make_table(np.random.default_rng(0), 1))
        mem.observe(1, 0)
        assert mem.reservoirs == {}
        assert len(mem.reference_rows(exclude_label=2, n=3)) == 0


class TestStepAllocations:
    """Past the first step no gradient, Adam or A-GEM call of the
    trainer allocates a parameter-length array.

    tracemalloc sees numpy's buffers.  On the README model (P = 33,664,
    one P-length float64 array is 269,312 B) each call's peak above the
    memory held when it starts must stay below P x 8 bytes.  Its row
    temporaries (n x 256 cells each) count too and grow with the rows.
    The replay draws are the README's (batch 8, replay 8 per store, so
    a 24-row fused ``dual`` pass); A-GEM's reference batch is kept at 8,
    as its README batch of 64 rows still peaks above the bound.
    """

    @pytest.fixture(scope="class")
    def readme(self):
        grid = GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5)
        model = HeatmapPredictor(
            PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(64, 64), grid=grid, seed=7)
        )
        tasks = [TaskSpec(kind=kind, n_samples=24, seed=i, noise_sigma=0.1) for i, kind in enumerate(KINDS, 1)]
        return model, model.encode(Scenes.concat([generate_task(t, i) for i, t in enumerate(tasks, 1)]))

    @staticmethod
    def measured(peaks, name, fn):
        """``fn``, recording in ``peaks[name]`` each call's traced peak
        above the memory held when the call starts."""

        def call(*args, **kwargs):
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] - held)
            return result

        return call

    @pytest.fixture
    def traced(self):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        yield
        if started:
            tracemalloc.stop()

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_no_parameter_length_array_after_the_first_step(self, readme, monkeypatch, traced, strategy):
        model, table = readme
        limit = model.param_count * 8
        peaks: dict[str, list[int]] = {}
        monkeypatch.setattr(learner, "adam_step", self.measured(peaks, "adam_step", learner.adam_step))
        monkeypatch.setattr(learner, "agem_project", self.measured(peaks, "agem_project", learner.agem_project))
        monkeypatch.setattr(
            HeatmapPredictor, "loss_and_grad",
            self.measured(peaks, "loss_and_grad", HeatmapPredictor.loss_and_grad),
        )
        cfg = TrainConfig(buffer_total=20, replay_batch=8, agem_ref_batch=8)
        result = train_stream(model, table, strategy, cfg)
        assert len(peaks["adam_step"]) == result.n_steps == 9
        assert (strategy is Strategy.AGEM) == ("agem_project" in peaks)
        over = {name: max(p[1:]) for name, p in peaks.items() if max(p[1:]) >= limit}
        assert over == {}, f"peaks of at least {limit} B"

    def test_the_allocating_calls_reach_the_bound(self, readme, traced):
        """The guard's control: Adam's first step, which makes its
        scratch, and a gradient without a buffer each allocate a
        parameter-length array, and their peaks reach P x 8."""
        model, table = readme
        peaks: dict[str, list[int]] = {}
        params = model.init_params()
        adam, grad = AdamState.zeros(model.param_count), np.empty(model.param_count)
        x, cells = table.x[:8], table.cells[:8]
        for _ in range(2):
            self.measured(peaks, "out", model.loss_and_grad)(params, x, cells, LossSpec(), out=grad)
            self.measured(peaks, "adam", learner.adam_step)(params, grad, adam, 1e-3)
            self.measured(peaks, "fresh", model.loss_and_grad)(params, x, cells, LossSpec())
        limit = model.param_count * 8
        assert peaks["out"][1] < limit <= peaks["fresh"][1]
        assert peaks["adam"][1] < limit <= peaks["adam"][0]


# A tiny agem run on the README model (P = 33,664, past OpenBLAS's ddot
# threading threshold) that writes its final parameters' bytes.
_AGEM_RUN = """
import sys
from contrail.core import GridSpec, Scenes
from contrail.learner import Strategy, TrainConfig, train_stream
from contrail.predictor import HeatmapPredictor, PredictorConfig
from contrail.scenarios import KINDS, TaskSpec, generate_task
grid = GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5)
model = HeatmapPredictor(PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(64, 64), grid=grid, seed=7))
tasks = [TaskSpec(kind=kind, n_samples=40, seed=i, noise_sigma=0.1) for i, kind in enumerate(KINDS, 1)]
table = model.encode(Scenes.concat([generate_task(t, i) for i, t in enumerate(tasks, 1)]))
result = train_stream(model, table, Strategy.AGEM, TrainConfig(buffer_total=40, agem_ref_batch=16))
assert result.agem_dots, "no step was projected"
sys.stdout.buffer.write(result.final_params.tobytes())
"""


def test_agem_params_do_not_depend_on_the_blas_thread_count():
    src = str(Path(contrail.__file__).resolve().parents[1])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out[threads] = subprocess.run(
            [sys.executable, "-c", _AGEM_RUN], env=env, capture_output=True, check=True, timeout=300
        ).stdout
    assert len(out["1"]) == 33_664 * 8
    assert out["1"] == out["2"]


# Separation training on a tiny stream; reports whether numpy.ma (which
# np.unique and friends import, at a resident-memory cost) got loaded.
_SEPARATION_RUN = """
import sys
from contrail.core import GridSpec, Scenes
from contrail.learner import Strategy, TrainConfig, train_stream
from contrail.predictor import HeatmapPredictor, PredictorConfig
from contrail.scenarios import TaskSpec, generate_task
grid = GridSpec(rows_h=4, cols_w=4, origin=(-5.0, -5.0), cell_size=2.5)
model = HeatmapPredictor(PredictorConfig(t_obs=10, k_sv=4, hidden_dims=(8,), grid=grid, seed=7))
tasks = [TaskSpec(kind=kind, n_samples=24, seed=i) for i, kind in enumerate(("straight", "turn"), 1)]
table = model.encode(Scenes.concat([generate_task(t, i) for i, t in enumerate(tasks, 1)]))
for strategy in (Strategy.DUAL_REPLAY, Strategy.GSS_STYLE):
    assert train_stream(model, table, strategy, TrainConfig(buffer_total=8, batch_size=4)).separation.stream_count
print("numpy.ma" in sys.modules)
"""


def test_separation_training_does_not_import_numpy_ma():
    src = str(Path(contrail.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _SEPARATION_RUN], env=env, capture_output=True, text=True, check=True, timeout=300
    )
    assert out.stdout.split() == ["False"]
