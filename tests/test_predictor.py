"""Predictor forward/backward and Adam.

The backward pass is pinned by a central finite-difference oracle: the
analytic gradient of the batch loss must agree with (L(p+eps e_i) -
L(p-eps e_i)) / 2 eps across every coordinate, to a relative error
measured against the gradient's own scale.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from contrail.core import (
    AgentState,
    GridSpec,
    Sample,
    endpoint_cells,
    local_endpoints,
    scene_frame,
    scene_frames,
    target_cell,
)
from contrail.losses import LossSpec
from contrail.memory import _cosine_rows
from contrail.predictor import (
    AdamState,
    FactoredGrads,
    HeatmapPredictor,
    PredictorConfig,
    adam_step,
    scene_features,
)

from contrail.scenarios import TaskSpec, generate_task, ingest_csv, write_task_csv

from conftest import make_sample, make_scene


def finite_difference_grad(model, params, batch, spec, eps=1e-3):
    fd = np.empty_like(params)
    for i in range(params.size):
        hi = params.copy()
        hi[i] += eps
        lo = params.copy()
        lo[i] -= eps
        l_hi, _, _ = loss_and_grad(model, hi, batch, spec)
        l_lo, _, _ = loss_and_grad(model, lo, batch, spec)
        fd[i] = (l_hi - l_lo) / (2 * eps)
    return fd


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / scale)


def random_batch(rng, model, n, with_distill=False, span=20.0, weighted=False):
    """Feature rows, flat target cells, stored logits, the mask of rows
    that distill toward them, and random non-negative row weights (None,
    the batch mean, unless ``weighted``)."""
    grid = model.config.grid
    scenes, cells, stored, distill = [], [], [], []
    for _ in range(n):
        scenes.append(make_scene(rng, model.config.t_obs, model.config.k_sv, span=span))
        row = int(rng.integers(0, grid.rows_h))
        cells.append(row * grid.cols_w + int(rng.integers(0, grid.cols_w)))
        distill.append(bool(with_distill and rng.random() < 0.7))
        stored.append(rng.normal(size=grid.n_cells) if distill[-1] else np.zeros(grid.n_cells))
    weights = rng.uniform(0.0, 2.0, size=n) if weighted else None
    return model.features(scenes), np.array(cells), np.stack(stored), np.array(distill), weights


def loss_and_grad(model, params, batch, spec):
    x, cells, stored, distill, weights = batch
    return model.loss_and_grad(params, x, cells, spec, stored, distill, weights)


def rows_of(batch, rows):
    return tuple(None if part is None else part[rows] for part in batch)


class TestForward:
    def test_zero_params_give_uniform_heatmap(self, tiny_model):
        rng = np.random.default_rng(0)
        scene = make_scene(rng)
        hm = tiny_model.forward(np.zeros(tiny_model.param_count), scene)
        probs = hm.probabilities()
        assert np.allclose(probs, 1.0 / probs.size, atol=1e-12)

    def test_forward_is_deterministic(self, tiny_model):
        rng = np.random.default_rng(1)
        scene = make_scene(rng)
        params = tiny_model.init_params()
        a = tiny_model.forward(params, scene).logits
        b = tiny_model.forward(params, scene).logits
        np.testing.assert_array_equal(a, b)

    def test_init_is_seeded(self, tiny_grid):
        cfg = PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(6,), grid=tiny_grid, seed=9)
        a = HeatmapPredictor(cfg).init_params()
        b = HeatmapPredictor(cfg).init_params()
        np.testing.assert_array_equal(a, b)
        bound = 1.0 / np.sqrt(cfg.input_dim)
        assert np.abs(a[: cfg.input_dim * 6]).max() <= bound

    def test_scene_shape_mismatch_rejected(self, tiny_model):
        rng = np.random.default_rng(2)
        wrong = make_scene(rng, t_obs=3, k_sv=1)
        with pytest.raises(ValueError, match="does not match config"):
            tiny_model.forward(tiny_model.init_params(), wrong)

    def test_overflowing_params_name_the_layer(self, tiny_model):
        rng = np.random.default_rng(3)
        scene = make_scene(rng)
        params = np.full(tiny_model.param_count, 1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ArithmeticError, match="layer"
        ):
            tiny_model.forward(params, scene)

    def test_masked_neighbors_are_ignored(self):
        rng = np.random.default_rng(4)
        base = make_scene(rng, t_obs=2, k_sv=2)
        masked = type(base)(
            tv_history=base.tv_history,
            sv_histories=(
                base.sv_histories[0],
                tuple(type(s)(9.0, 9.0, 9.0, 9.0) for s in base.sv_histories[1]),
            ),
            sv_mask=(base.sv_mask[0], False),
            t_c=base.t_c,
        )
        feats = features_of([masked])[0]
        per_track = len(base.tv_history) * 4
        assert np.all(feats[2 * per_track :] == 0.0)


class TestGradient:
    def test_matches_finite_differences(self, tiny_model):
        """Required gradient oracle: 100 random cases, rel err < 1e-4."""
        rng = np.random.default_rng(42)
        for case in range(100):
            spec = LossSpec(
                base_kind="focal" if case % 3 == 0 else "cross_entropy",
                focal_gamma=float(rng.uniform(0.5, 3.0)),
            )
            params = rng.normal(0.0, 0.4, size=tiny_model.param_count)
            batch = random_batch(
                rng,
                tiny_model,
                int(rng.integers(1, 4)),
                with_distill=True,
                span=2.0,
                weighted=bool(case % 2),
            )
            _, grad, _ = loss_and_grad(tiny_model, params, batch, spec)
            fd = finite_difference_grad(tiny_model, params, batch, spec)
            assert relative_gap(grad, fd) < 1e-4

    def test_duplicated_batch_leaves_mean_unchanged(self, tiny_model):
        rng = np.random.default_rng(5)
        spec = LossSpec()
        params = rng.normal(0.0, 0.5, size=tiny_model.param_count)
        batch = random_batch(rng, tiny_model, 3)
        loss_1, grad_1, _ = loss_and_grad(tiny_model, params, batch, spec)
        twice = rows_of(batch, [0, 1, 2, 0, 1, 2])
        loss_2, grad_2, _ = loss_and_grad(tiny_model, params, twice, spec)
        assert loss_2 == pytest.approx(loss_1, rel=1e-12)
        np.testing.assert_allclose(grad_1, grad_2, rtol=1e-10, atol=1e-14)

    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.loss_and_grad(
                np.zeros(tiny_model.param_count),
                np.zeros((0, tiny_model.config.input_dim)),
                np.zeros(0, dtype=int),
                LossSpec(),
            )

    def test_per_sample_grads_match_single_calls(self, tiny_model):
        rng = np.random.default_rng(6)
        spec = LossSpec()
        params = rng.normal(0.0, 0.5, size=tiny_model.param_count)
        batch = random_batch(rng, tiny_model, 5, with_distill=True)
        x, cells, stored, distill, _ = batch
        per = tiny_model.per_sample_grads(params, x, cells, spec, stored, distill)
        assert per.shape == (5, tiny_model.param_count)
        for k in range(5):
            _, g, _ = loss_and_grad(tiny_model, params, rows_of(batch, [k]), spec)
            np.testing.assert_allclose(per[k], g, rtol=1e-10, atol=1e-14)

    def test_factored_products_match_dense_rows(self, tiny_model):
        rng = np.random.default_rng(9)
        spec = LossSpec()
        params = rng.normal(0.0, 0.5, size=tiny_model.param_count)
        batch = random_batch(rng, tiny_model, 7, with_distill=True)
        x, cells, stored, distill, _ = batch
        assert distill.any()
        grads = tiny_model.per_sample_grads(params, x, cells, spec, stored, distill)
        dense = grads.dense()
        rows = [0, 3, 6]
        np.testing.assert_allclose(
            grads.inner(rows), dense[rows] @ dense.T, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            grads.sq_norms(), np.einsum("np,np->n", dense, dense), rtol=1e-12
        )
        reference = np.stack([_cosine_rows(dense[r], dense) for r in rows])
        np.testing.assert_allclose(grads.cosines(rows), reference, rtol=0, atol=1e-12)

    def test_zero_gradient_row_has_cosine_zero(self, tiny_model):
        rng = np.random.default_rng(10)
        params = rng.normal(0.0, 0.5, size=tiny_model.param_count)
        x, cells, stored, distill, _ = random_batch(rng, tiny_model, 4, with_distill=True)
        grads = tiny_model.per_sample_grads(params, x, cells, LossSpec(), stored, distill)
        zeroed = FactoredGrads(
            tuple(np.vstack([np.zeros_like(d[:1]), d[1:]]) for d in grads.deltas),
            grads.inputs,
        )
        assert not zeroed.dense()[0].any()
        cos = zeroed.cosines(range(len(zeroed)))
        assert np.all(cos[0] == 0.0) and np.all(cos[:, 0] == 0.0)
        assert np.all(cos[1:, 1:] != 0.0)

    def test_param_count_matches_layout(self, tiny_grid):
        cfg = PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(6, 3), grid=tiny_grid, seed=0)
        model = HeatmapPredictor(cfg)
        d = cfg.input_dim
        expected = (d * 6 + 6) + (6 * 3 + 3) + (3 * tiny_grid.n_cells + tiny_grid.n_cells)
        assert model.param_count == expected
        assert cfg.input_dim == (1 + 1) * 2 * 4


class TestAdam:
    def test_zero_grad_from_fresh_state_is_identity(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.zeros(3)
        new, state = adam_step(params, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(new, params)

    def test_first_step_closed_form(self):
        """Step 1 must equal -lr * g / (|g| + eps) elementwise."""
        rng = np.random.default_rng(8)
        g = rng.normal(size=20)
        params = rng.normal(size=20)
        lr = 1e-3
        new, state = adam_step(params, g, AdamState.zeros(20), lr=lr)
        expected = params - lr * g / (np.sqrt(g**2) + 1e-8)
        np.testing.assert_allclose(new, expected, rtol=1e-12)
        assert state.t == 1

    def test_first_step_direction_is_minus_sign(self):
        g = np.array([3.0, -0.5, 1e-4])
        params = np.zeros(3)
        new, _ = adam_step(params, g, AdamState.zeros(3), lr=1e-3)
        np.testing.assert_allclose(new, -1e-3 * np.sign(g), rtol=1e-3)

    def test_non_finite_grad_rejected(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), AdamState.zeros(2), lr=0.1)

    def test_inputs_not_mutated(self):
        params = np.ones(4)
        grad = np.full(4, 0.5)
        state = AdamState.zeros(4)
        adam_step(params, grad, state, lr=0.1)
        np.testing.assert_array_equal(params, np.ones(4))
        np.testing.assert_array_equal(state.m, np.zeros(4))
        assert state.t == 0


class TestConfigValidation:
    def test_rejects_empty_hidden(self, tiny_grid):
        with pytest.raises(ValueError):
            PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(), grid=tiny_grid)

    def test_rejects_bad_dims(self, tiny_grid):
        with pytest.raises(ValueError):
            PredictorConfig(t_obs=0, k_sv=1, hidden_dims=(4,), grid=tiny_grid)
        with pytest.raises(ValueError):
            PredictorConfig(t_obs=2, k_sv=-1, hidden_dims=(4,), grid=tiny_grid)


def features_of(scenes) -> np.ndarray:
    return scene_features(scenes, scene_frames(scenes))


def per_scene_features(scene) -> np.ndarray:
    """Reference: the scene-at-a-time featuriser the batched one replaced."""
    frame = scene_frame(scene)
    t_obs = len(scene.tv_history)
    out = np.zeros((1 + len(scene.sv_histories), t_obs, 4), dtype=np.float64)
    for t, st in enumerate(scene.tv_history):
        out[0, t, 0:2] = frame.to_local((st.x, st.y))
        out[0, t, 2:4] = frame.vector_to_local((st.vx, st.vy))
    for k, track in enumerate(scene.sv_histories):
        if not scene.sv_mask[k]:
            continue
        for t, st in enumerate(track):
            out[k + 1, t, 0:2] = frame.to_local((st.x, st.y))
            out[k + 1, t, 2:4] = frame.vector_to_local((st.vx, st.vy))
    return out.reshape(-1)


class TestBatchedMatchesPerScene:
    """``HeatmapPredictor.encode`` (``scene_features``,
    ``local_endpoints`` and ``endpoint_cells`` over one ``scene_frames``
    pass) against the per-scene featuriser and the ``target_cell`` loop,
    bit for bit."""

    grid = GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5)

    def assert_bit_equal(self, samples):
        scenes = [s.scene for s in samples]
        truths = [s.truth for s in samples]
        model = HeatmapPredictor(
            PredictorConfig(
                t_obs=len(scenes[0].tv_history),
                k_sv=len(scenes[0].sv_histories),
                hidden_dims=(4,),
                grid=self.grid,
            )
        )
        table = model.encode(scenes, truths)
        want_x = np.stack([per_scene_features(sc) for sc in scenes])
        assert table.x.tobytes() == want_x.tobytes()
        assert features_of(scenes).tobytes() == want_x.tobytes()
        cells = [target_cell(sc, tr, self.grid) for sc, tr in zip(scenes, truths)]
        want_cells = np.array([r * self.grid.cols_w + c for r, c in cells])
        assert np.array_equal(table.cells, want_cells)
        want_local = np.array(
            [scene_frame(sc).to_local(tr.endpoint) for sc, tr in zip(scenes, truths)]
        )
        assert table.ends.tobytes() == want_local.tobytes()
        frames = scene_frames(scenes)
        local = local_endpoints(frames, [t.endpoint for t in truths])
        assert local.tobytes() == want_local.tobytes()
        assert np.array_equal(endpoint_cells(local, self.grid), want_cells)
        assert table.speeds.tolist() == [t.speed_v for t in truths]

    @pytest.mark.parametrize("kind", ["straight", "arc", "turn"])
    def test_every_family(self, kind):
        samples = generate_task(TaskSpec(kind=kind, n_samples=60, seed=61, noise_sigma=0.3))
        self.assert_bit_equal(samples)

    def test_no_neighbor_slots(self):
        samples = generate_task(TaskSpec(kind="arc", n_samples=20, seed=62, k_sv=0))
        self.assert_bit_equal(samples)
        assert features_of([s.scene for s in samples]).shape == (20, 10 * 4)

    def test_stationary_target_keeps_world_orientation(self):
        rng = np.random.default_rng(63)
        samples = []
        for _ in range(5):
            s = make_sample(rng, self.grid, k_sv=2)
            tv = s.scene.tv_history
            still = tv[:-1] + (AgentState(tv[-1].x, tv[-1].y, 0.0, 0.0),)
            scene = dataclasses.replace(s.scene, tv_history=still)
            assert scene_frame(scene).cos_h == 1.0 and scene_frame(scene).sin_h == 0.0
            samples.append(Sample(scene, s.truth, 1))
        samples.append(make_sample(rng, self.grid, k_sv=2))
        self.assert_bit_equal(samples)

    def test_masked_slots_from_a_sparse_track_table(self, tmp_path):
        # Written with one neighbor, ingested with three slots: two are
        # zero-filled and masked in every scene.
        spec = TaskSpec(kind="turn", n_samples=12, seed=64, noise_sigma=0.2, k_sv=1)
        path = tmp_path / "sparse.csv"
        write_task_csv(spec, 1, path)
        samples = ingest_csv(path, t_obs=spec.t_obs, t_pred=spec.t_pred, k_sv=3)
        assert len(samples) == 12
        assert all(s.scene.sv_mask == (True, False, False) for s in samples)
        self.assert_bit_equal(samples)
        per_track = spec.t_obs * 4
        assert not features_of([s.scene for s in samples])[:, 2 * per_track :].any()

    def test_scenes_of_mixed_geometry_rejected(self):
        rng = np.random.default_rng(65)
        with pytest.raises(ValueError, match="share t_obs and k_sv"):
            features_of([make_scene(rng, k_sv=1), make_scene(rng, k_sv=2)])
