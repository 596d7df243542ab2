"""Streaming trainer: strategies, equivalences, audit, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from contrail import learner
from contrail.core import target_cell
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
from contrail.losses import LossSpec, Target
from contrail.memory import (
    CompletionBuffer,
    MemoryTriplet,
    SeparationBuffer,
    _cosine_rows,
    draw_minibatch,
)
from contrail.learner import _AgemMemory

from conftest import make_sample


def make_stream(rng, grid, labels):
    return [make_sample(rng, grid, task_label=label) for label in labels]


def make_triplets(rng, grid, n):
    out = []
    for _ in range(n):
        s = make_sample(rng, grid)
        out.append(MemoryTriplet(s.scene, s.truth, rng.normal(size=(grid.rows_h, grid.cols_w))))
    return out


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
        ref = np.array([0.5, 0.5])
        out, projected = agem_project(g, ref)
        assert projected is False
        assert out is g

    def test_conflicting_gradient_becomes_orthogonal(self):
        rng = np.random.default_rng(300)
        done = 0
        for _ in range(200):
            g = rng.normal(size=1000)
            ref = rng.normal(size=1000)
            if g @ ref >= 0:
                continue
            out, projected = agem_project(g, ref)
            assert projected is True
            assert abs(out @ ref) < 1e-9 * np.linalg.norm(out) * np.linalg.norm(ref) + 1e-12
            again, reprojected = agem_project(out, ref)
            assert reprojected is False or abs(again @ ref) < 1e-9
            done += 1
        assert done > 50

    def test_zero_reference_is_a_no_op(self):
        g = np.array([1.0, -1.0])
        out, projected = agem_project(g, np.zeros(2))
        assert projected is False
        assert np.array_equal(out, g)

    def test_hand_case(self):
        g = np.array([1.0, -1.0])
        ref = np.array([0.0, 1.0])
        out, projected = agem_project(g, ref)
        assert projected is True
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)


class TestStepFunctions:
    def _pairs(self, rng, grid, n):
        return [(s.scene, s.truth) for s in make_stream(rng, grid, [1] * n)]

    def test_empty_buffers_match_vanilla(self, tiny_model):
        rng = np.random.default_rng(310)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        pairs = self._pairs(rng, grid, 4)
        cfg = TrainConfig()
        from contrail.learner import _base_targets

        base_loss, base_grad = tiny_model.loss_and_grad(
            params, _base_targets(pairs, grid), cfg.loss
        )
        loss, grad = dual_replay_step(
            tiny_model,
            params,
            pairs,
            SeparationBuffer(capacity=4),
            CompletionBuffer(capacity=4),
            cfg,
            np.random.default_rng(0),
        )
        assert loss == base_loss
        assert np.array_equal(grad, base_grad)

    def test_zero_weights_match_vanilla_and_skip_the_rng(self, tiny_model):
        rng = np.random.default_rng(311)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        pairs = self._pairs(rng, grid, 4)
        sp = SeparationBuffer(capacity=4)
        cp = CompletionBuffer(capacity=4)
        for t in make_triplets(rng, grid, 4):
            sp.observe(t, 0.5, rng)
            cp.observe(t, rng)
        cfg = TrainConfig(loss=LossSpec(alpha=0.0, beta=0.0))
        from contrail.learner import _base_targets

        base_loss, base_grad = tiny_model.loss_and_grad(
            params, _base_targets(pairs, grid), cfg.loss
        )
        step_rng = np.random.default_rng(77)
        loss, grad = dual_replay_step(tiny_model, params, pairs, sp, cp, cfg, step_rng)
        assert loss == base_loss
        assert np.array_equal(grad, base_grad)
        # The generator was never consumed.
        assert step_rng.integers(1 << 20) == np.random.default_rng(77).integers(1 << 20)

    def test_alpha_zero_matches_reservoir_only_step(self, tiny_model):
        rng = np.random.default_rng(312)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        pairs = self._pairs(rng, grid, 4)
        sp = SeparationBuffer(capacity=4)
        cp = CompletionBuffer(capacity=4)
        for t in make_triplets(rng, grid, 4):
            sp.observe(t, 0.5, rng)
            cp.observe(t, rng)
        cfg = TrainConfig(loss=LossSpec(alpha=0.0, beta=1.0))
        with_sp = dual_replay_step(
            tiny_model, params, pairs, sp, cp, cfg, np.random.default_rng(5)
        )
        without_sp = dual_replay_step(
            tiny_model, params, pairs, None, cp, cfg, np.random.default_rng(5)
        )
        assert with_sp[0] == without_sp[0]
        assert np.array_equal(with_sp[1], without_sp[1])

    def test_replay_terms_add_up(self, tiny_model):
        rng = np.random.default_rng(313)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        pairs = self._pairs(rng, grid, 4)
        cp = CompletionBuffer(capacity=4)
        for t in make_triplets(rng, grid, 4):
            cp.observe(t, rng)
        cfg = TrainConfig(loss=LossSpec(alpha=1.0, beta=2.0))
        from contrail.learner import _base_targets
        from contrail.losses import replay_targets

        loss, grad = dual_replay_step(
            tiny_model, params, pairs, None, cp, cfg, np.random.default_rng(9)
        )
        drawn = draw_minibatch(cp, cfg.replay_n, np.random.default_rng(9))
        base_l, base_g = tiny_model.loss_and_grad(
            params, _base_targets(pairs, grid), cfg.loss
        )
        rep_l, rep_g = tiny_model.loss_and_grad(
            params, replay_targets(drawn, grid), cfg.loss
        )
        assert loss == pytest.approx(base_l + 2.0 * rep_l, rel=1e-12)
        assert np.allclose(grad, base_g + 2.0 * rep_g, atol=1e-15)

    def test_gss_step_is_the_mixed_batch_mean(self, tiny_model):
        rng = np.random.default_rng(314)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        pairs = self._pairs(rng, grid, 4)
        sp = SeparationBuffer(capacity=6)
        for t in make_triplets(rng, grid, 6):
            sp.observe(t, 0.5, rng)
        cfg = TrainConfig(replay_batch=3)
        from contrail.learner import _base_targets

        loss, grad = gss_style_step(
            tiny_model, params, pairs, sp, cfg, np.random.default_rng(4)
        )
        drawn = draw_minibatch(sp, 3, np.random.default_rng(4))
        mixed = list(pairs) + [(t.scene, t.truth) for t in drawn]
        want_l, want_g = tiny_model.loss_and_grad(
            params, _base_targets(mixed, grid), cfg.loss
        )
        assert loss == want_l
        assert np.array_equal(grad, want_g)

    def test_gss_step_without_buffer_matches_vanilla(self, tiny_model):
        rng = np.random.default_rng(315)
        grid = tiny_model.config.grid
        params = tiny_model.init_params()
        pairs = self._pairs(rng, grid, 4)
        cfg = TrainConfig()
        from contrail.learner import _base_targets

        loss, grad = gss_style_step(
            tiny_model, params, pairs, None, cfg, np.random.default_rng(0)
        )
        want_l, want_g = tiny_model.loss_and_grad(params, _base_targets(pairs, grid), cfg.loss)
        assert loss == want_l
        assert np.array_equal(grad, want_g)


class TestTrainStream:
    def _stream(self, seed, grid, labels=(1,) * 12 + (2,) * 12):
        return make_stream(np.random.default_rng(seed), grid, list(labels))

    def test_empty_stream_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="empty stream"):
            train_stream(tiny_model, [], Strategy.VANILLA, TrainConfig())

    def test_unordered_stream_rejected(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(320, grid, labels=[1, 2, 1])
        with pytest.raises(ValueError, match="non-decreasing"):
            train_stream(tiny_model, stream, Strategy.VANILLA, TrainConfig())

    def test_single_pass_visits(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(321, grid)
        for strategy in Strategy:
            cfg = TrainConfig(batch_size=5, buffer_total=8)
            result = train_stream(tiny_model, stream, strategy, cfg)
            assert result.visits.shape == (24,)
            assert np.all(result.visits == 1)
            assert result.n_steps == 5

    def test_bit_reproducible(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(322, grid)
        cfg = TrainConfig(buffer_total=8, seed=13)
        for strategy in (Strategy.DUAL_REPLAY, Strategy.AGEM, Strategy.JOINT):
            a = train_stream(tiny_model, stream, strategy, cfg)
            b = train_stream(tiny_model, stream, strategy, cfg)
            assert np.array_equal(a.final_params, b.final_params)
            assert a.agem_dots == b.agem_dots
            assert len(a.checkpoints) == len(b.checkpoints)
            for (la, pa), (lb, pb) in zip(a.checkpoints, b.checkpoints):
                assert la == lb
                assert np.array_equal(pa, pb)

    def test_buffer_wiring_per_strategy(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(323, grid)
        cfg = TrainConfig(buffer_total=8)

        dual = train_stream(tiny_model, stream, Strategy.DUAL_REPLAY, cfg)
        assert dual.separation is not None and dual.separation.capacity == 4
        assert dual.completion is not None and dual.completion.capacity == 4
        assert len(dual.completion) == 4

        der = train_stream(tiny_model, stream, Strategy.DER_STYLE, cfg)
        assert der.separation is None
        assert der.completion is not None and der.completion.capacity == 8

        gss = train_stream(tiny_model, stream, Strategy.GSS_STYLE, cfg)
        assert gss.separation is not None and gss.separation.capacity == 8
        assert gss.completion is None

        vanilla = train_stream(tiny_model, stream, Strategy.VANILLA, cfg)
        assert vanilla.separation is None and vanilla.completion is None

    def test_dual_needs_an_even_budget(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(324, grid)
        with pytest.raises(ValueError, match="even total"):
            train_stream(
                tiny_model, stream, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=7)
            )

    def test_dual_without_memory_matches_vanilla_bitwise(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(325, grid)
        vanilla = train_stream(
            tiny_model, stream, Strategy.VANILLA, TrainConfig(buffer_total=0)
        )
        no_budget = train_stream(
            tiny_model, stream, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=0)
        )
        assert np.array_equal(vanilla.final_params, no_budget.final_params)

        zero_weights = train_stream(
            tiny_model,
            stream,
            Strategy.DUAL_REPLAY,
            TrainConfig(buffer_total=8, loss=LossSpec(alpha=0.0, beta=0.0)),
        )
        assert np.array_equal(vanilla.final_params, zero_weights.final_params)

    def test_replay_changes_the_outcome(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(326, grid)
        vanilla = train_stream(tiny_model, stream, Strategy.VANILLA, TrainConfig())
        dual = train_stream(
            tiny_model, stream, Strategy.DUAL_REPLAY, TrainConfig(buffer_total=8)
        )
        assert not np.array_equal(vanilla.final_params, dual.final_params)

    def test_joint_equals_vanilla_on_the_shuffled_stream(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(327, grid, labels=[1] * 20)
        cfg = TrainConfig(seed=5)
        joint = train_stream(tiny_model, stream, Strategy.JOINT, cfg)
        assert joint.checkpoints == []

        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        order = np.random.default_rng(seeds[2]).permutation(len(stream))
        shuffled = [stream[int(i)] for i in order]
        vanilla = train_stream(tiny_model, shuffled, Strategy.VANILLA, cfg)
        assert np.array_equal(joint.final_params, vanilla.final_params)

    def test_task_free_strategies_read_no_labels(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(328, grid)
        for strategy in TASK_FREE:
            result = train_stream(
                tiny_model, stream, strategy, TrainConfig(buffer_total=8)
            )
            assert result.label_reads == 0, strategy
        joint = train_stream(tiny_model, stream, Strategy.JOINT, TrainConfig())
        assert joint.label_reads == 0
        agem = train_stream(
            tiny_model, stream, Strategy.AGEM, TrainConfig(buffer_total=8)
        )
        assert agem.label_reads > 0

    def test_checkpoints_follow_task_boundaries(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(329, grid, labels=[1] * 6 + [2] * 6)
        cfg = TrainConfig(batch_size=4)
        result = train_stream(tiny_model, stream, Strategy.VANILLA, cfg)
        assert [label for label, _ in result.checkpoints] == [1, 2]
        assert np.array_equal(result.checkpoints[1][1], result.final_params)
        assert not np.array_equal(result.checkpoints[0][1], result.final_params)

        silent = train_stream(
            tiny_model,
            stream,
            Strategy.VANILLA,
            TrainConfig(batch_size=4, checkpoint_after_each_task=False),
        )
        assert silent.checkpoints == []

    def test_agem_projections_stay_non_negative(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(330, grid, labels=[1] * 16 + [2] * 16 + [3] * 16)
        result = train_stream(
            tiny_model, stream, Strategy.AGEM, TrainConfig(buffer_total=12, batch_size=4)
        )
        assert all(d >= -1e-9 for d in result.agem_dots)

    def test_explicit_init_params_are_respected_and_unchanged(self, tiny_model):
        grid = tiny_model.config.grid
        stream = self._stream(332, grid)
        init = np.zeros(tiny_model.param_count)
        before = init.copy()
        result = train_stream(
            tiny_model, stream, Strategy.VANILLA, TrainConfig(), init_params=init
        )
        assert np.array_equal(init, before)
        assert not np.array_equal(result.final_params, init)


def _dense_offer_batch(late_admissions):
    """Reference for ``learner._offer_batch``: scores every offer from
    dense per-sample gradient rows of the batch sample and of every
    item stored at that moment, through ``_cosine_rows``.  Records the
    batch positions of admissions into a full buffer."""

    def offer_batch(model, params, batch, snapshot, strategy, sp_buffer, cp_buffer,
                    agem_memory, cfg, rng):
        grid = model.config.grid

        def dense(pairs):
            targets = [(sc, Target(target_cell(sc, tr, grid))) for sc, tr in pairs]
            return model.per_sample_grads(params, targets, cfg.loss).dense()

        new = dense([(s.scene, s.truth) for s in batch])
        for k, s in enumerate(batch):
            triplet = MemoryTriplet(
                s.scene, s.truth, snapshot[k].reshape(grid.rows_h, grid.cols_w)
            )
            if sp_buffer is not None:
                stored = dense([(t.scene, t.truth) for t in sp_buffer.items])
                full = len(sp_buffer) == sp_buffer.capacity
                if sp_buffer.offer(triplet, _cosine_rows(new[k], stored), rng) and full:
                    late_admissions.append((k, len(batch)))
            if cp_buffer is not None:
                cp_buffer.observe(triplet, rng)

    return offer_batch


class TestExactScoring:
    """The trainer scores from one factored Gram pass per batch; that
    must make the same buffer decisions as dense scoring per offer."""

    @pytest.mark.parametrize("strategy", [Strategy.DUAL_REPLAY, Strategy.GSS_STYLE])
    def test_gram_scoring_matches_dense_reference(self, tiny_model, monkeypatch, strategy):
        grid = tiny_model.config.grid
        stream = make_stream(
            np.random.default_rng(336), grid, [1] * 24 + [2] * 24 + [3] * 24
        )
        cfg = TrainConfig(buffer_total=8, batch_size=4, b_compare=3, seed=3)
        fast = train_stream(tiny_model, stream, strategy, cfg)

        late: list[tuple[int, int]] = []
        monkeypatch.setattr(learner, "_offer_batch", _dense_offer_batch(late))
        ref = train_stream(tiny_model, stream, strategy, cfg)

        # Some admission into the full buffer was followed, within its
        # batch, by an offer scored against the replaced slot.
        assert any(k < n - 1 for k, n in late)
        assert np.array_equal(fast.final_params, ref.final_params)
        for got, want in ((fast.separation, ref.separation), (fast.completion, ref.completion)):
            if want is None:
                assert got is None
                continue
            assert len(got.items) == len(want.items)
            for a, b in zip(got.items, want.items):
                assert a.scene == b.scene and a.truth == b.truth
                assert np.array_equal(a.init_logits, b.init_logits)
        np.testing.assert_allclose(
            fast.separation.scores, ref.separation.scores, rtol=0, atol=1e-12
        )


class TestAgemMemory:
    def test_quotas_rebalance_as_tasks_arrive(self, tiny_grid):
        rng = np.random.default_rng(340)
        mem = _AgemMemory(total=6, rng=rng)
        triplets = make_triplets(rng, tiny_grid, 30)
        for t in triplets[:10]:
            mem.observe(1, t)
        assert len(mem.reservoirs[1].items) == 6

        mem.observe(2, triplets[10])
        assert mem.reservoirs[1].capacity == 3
        assert len(mem.reservoirs[1].items) == 3
        for t in triplets[11:20]:
            mem.observe(2, t)
        assert len(mem.reservoirs[2].items) == 3

        mem.observe(3, triplets[20])
        assert all(buf.capacity == 2 for buf in mem.reservoirs.values())
        assert all(len(buf.items) <= 2 for buf in mem.reservoirs.values())

    def test_reference_pool_excludes_the_current_task(self, tiny_grid):
        rng = np.random.default_rng(341)
        mem = _AgemMemory(total=8, rng=rng)
        first = make_triplets(rng, tiny_grid, 4)
        second = make_triplets(rng, tiny_grid, 4)
        for t in first:
            mem.observe(1, t)
        assert mem.reference_items(exclude_label=1, n=5) == []
        for t in second:
            mem.observe(2, t)
        refs = mem.reference_items(exclude_label=2, n=16)
        assert len(refs) == 16
        assert all(r in mem.reservoirs[1].items for r in refs)

    def test_zero_budget_stores_nothing(self, tiny_grid):
        rng = np.random.default_rng(342)
        mem = _AgemMemory(total=0, rng=rng)
        mem.observe(1, make_triplets(rng, tiny_grid, 1)[0])
        assert mem.reservoirs == {}
        assert mem.reference_items(exclude_label=2, n=3) == []
