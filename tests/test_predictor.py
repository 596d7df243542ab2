"""Predictor forward/backward and Adam.

The backward pass is pinned bit for bit by the plain reference kernels
of conftest; the central finite-difference oracle that pins those
derivatives is ``test_acceptance.py::test_01``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from contrail.core import (
    GridSpec,
    Scenes,
    endpoint_cells,
    local_endpoints,
    scene_frames,
    softmax,
)
from contrail.losses import LossSpec
from contrail.predictor import (
    AdamState,
    FactoredGrads,
    HeatmapPredictor,
    PredictorConfig,
    adam_step,
    scene_features,
)

from contrail.scenarios import TaskSpec, generate_task, ingest_csv, write_task_csv

from conftest import (
    cosine_rows,
    dense,
    endpoint_to_cell,
    make_scenes,
    ref_adam_step,
    ref_adam_step_textbook,
    ref_loss_and_grad,
    ref_per_sample_grads,
    same_bits,
    tail_as_mask,
    tail_lengths,
)


def random_batch(rng, model, n, tail=None, span=20.0, weighted=False):
    """Feature rows, flat target cells, the stored logits of a distilled
    tail of ``tail`` rows (None for none), and random non-negative row
    weights (None, the batch mean, unless ``weighted``)."""
    grid = model.config.grid
    scenes, cells = [], []
    for _ in range(n):
        scenes.append(make_scenes(rng, 1, model.config.t_obs, model.config.k_sv, span=span))
        row = int(rng.integers(0, grid.rows_h))
        cells.append(row * grid.cols_w + int(rng.integers(0, grid.cols_w)))
    stored = None if tail is None else rng.normal(size=(tail, grid.n_cells))
    weights = rng.uniform(0.0, 2.0, size=n) if weighted else None
    x = features_of(Scenes.concat(scenes))
    return x, np.array(cells), stored, weights


def loss_and_grad(model, params, batch, spec):
    x, cells, stored, weights = batch
    return model.loss_and_grad(params, x, cells, spec, stored=stored, weights=weights)


def rows_of(batch, rows):
    return tuple(None if part is None else part[rows] for part in batch)


def heatmap(model, params, scenes) -> np.ndarray:
    """The ``(rows_h, cols_w)`` logits of a one-row table."""
    logits = model.forward_logits(params, features_of(scenes))[0]
    grid = model.config.grid
    return logits.reshape(grid.rows_h, grid.cols_w)


class TestForward:
    def test_zero_params_give_uniform_heatmap(self, tiny_model):
        scenes = make_scenes(np.random.default_rng(0))
        probs = softmax(heatmap(tiny_model, np.zeros(tiny_model.param_count), scenes)[None])[0]
        assert np.allclose(probs, 1.0 / probs.size, atol=1e-12)

    def test_forward_is_deterministic(self, tiny_model):
        scenes = make_scenes(np.random.default_rng(1))
        params = tiny_model.init_params()
        a = heatmap(tiny_model, params, scenes)
        b = heatmap(tiny_model, params, scenes)
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
        for wrong in (make_scenes(rng, t_obs=3, k_sv=1), make_scenes(rng, t_obs=2, k_sv=2)):
            with pytest.raises(ValueError, match="does not match config"):
                tiny_model.encode(wrong)

    def test_overflowing_params_name_the_layer(self, tiny_model):
        scenes = make_scenes(np.random.default_rng(3))
        params = np.full(tiny_model.param_count, 1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ArithmeticError, match="layer"
        ):
            heatmap(tiny_model, params, scenes)

    def test_masked_neighbors_are_ignored(self):
        base = make_scenes(np.random.default_rng(4), t_obs=2, k_sv=2)
        svs = base.svs.copy()
        svs[0, 1] = 9.0
        mask = np.array([[base.mask[0, 0], False]])
        masked = Scenes(base.tv, svs, mask, base.ends, np.ones(1, int))
        feats = features_of(masked)[0]
        per_track = base.tv.shape[1] * 4
        assert np.all(feats[2 * per_track :] == 0.0)


class TestGradient:
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
        batch = random_batch(rng, tiny_model, 5)
        x, cells, _, _ = batch
        per = dense(tiny_model.per_sample_grads(params, x, cells, spec))
        assert per.shape == (5, tiny_model.param_count)
        for k in range(5):
            _, g, _ = loss_and_grad(tiny_model, params, rows_of(batch, [k]), spec)
            np.testing.assert_allclose(per[k], g, rtol=1e-10, atol=1e-14)

    def test_factored_products_match_dense_rows(self, tiny_model):
        rng = np.random.default_rng(9)
        spec = LossSpec()
        params = rng.normal(0.0, 0.5, size=tiny_model.param_count)
        x, cells, _, _ = random_batch(rng, tiny_model, 7)
        grads = tiny_model.per_sample_grads(params, x, cells, spec)
        rows_p = dense(grads)
        rows = [0, 3, 6]
        np.testing.assert_allclose(
            grads.inner(rows), rows_p[rows] @ rows_p.T, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            grads.sq_norms(), np.einsum("np,np->n", rows_p, rows_p), rtol=1e-12
        )
        reference = np.stack([cosine_rows(rows_p[r], rows_p) for r in rows])
        np.testing.assert_allclose(grads.cosines(rows), reference, rtol=0, atol=1e-12)

    def test_zero_gradient_row_has_cosine_zero(self, tiny_model):
        rng = np.random.default_rng(10)
        params = rng.normal(0.0, 0.5, size=tiny_model.param_count)
        x, cells, _, _ = random_batch(rng, tiny_model, 4)
        grads = tiny_model.per_sample_grads(params, x, cells, LossSpec())
        zeroed = FactoredGrads(
            tuple(np.vstack([np.zeros_like(d[:1]), d[1:]]) for d in grads.deltas),
            grads.inputs,
        )
        assert not dense(zeroed)[0].any()
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
        adam_step(params, np.zeros(3), AdamState.zeros(3), lr=0.1)
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])

    def test_first_step_closed_form(self):
        """Step 1 must equal -lr * g / (|g| + eps) elementwise."""
        rng = np.random.default_rng(8)
        g = rng.normal(size=20)
        params = rng.normal(size=20)
        lr = 1e-3
        expected = params - lr * g / (np.sqrt(g**2) + 1e-8)
        state = AdamState.zeros(20)
        assert adam_step(params, g, state, lr=lr) is None
        np.testing.assert_allclose(params, expected, rtol=1e-12)
        assert state.t == 1

    def test_first_step_direction_is_minus_sign(self):
        g = np.array([3.0, -0.5, 1e-4])
        params = np.zeros(3)
        adam_step(params, g, AdamState.zeros(3), lr=1e-3)
        np.testing.assert_allclose(params, -1e-3 * np.sign(g), rtol=1e-3)

    def test_non_finite_grad_rejected(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), AdamState.zeros(2), lr=0.1)


class TestMatchesReferenceKernels:
    """The in-place kernels against the plain references of conftest,
    bit for bit, leaving every input they do not update as it was."""

    @pytest.fixture
    def deep_model(self, tiny_grid):
        return HeatmapPredictor(PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(7, 5), grid=tiny_grid, seed=3))

    def test_adam_in_place_over_50_chained_steps(self):
        """The step updates the arrays it is given to the reference's
        bits and leaves the gradient as it was."""
        rng = np.random.default_rng(73)
        for lr in (1e-3, 0.05):
            params = rng.normal(size=300)
            state, ref_state = AdamState.zeros(300), AdamState.zeros(300)
            ref_params = params.copy()
            arrays = (params, state.m, state.v)
            for _ in range(50):
                grad = rng.normal(0.0, rng.uniform(1e-4, 10.0), size=300)
                grad[rng.random(300) < 0.1] = 0.0
                grad_before = grad.copy()
                adam_step(params, grad, state, lr)
                ref_params, ref_state = ref_adam_step(ref_params, grad, ref_state, lr)
                assert all(a is b for a, b in zip((params, state.m, state.v), arrays))
                assert same_bits(grad, grad_before)
                assert same_bits(params, ref_params)
                assert same_bits(state.m, ref_state.m) and same_bits(state.v, ref_state.v)
                assert state.t == ref_state.t

    def test_folded_adam_tracks_the_textbook_formula(self):
        """The folded bias corrections move only the parameter update:
        the moments stay the textbook ones bit for bit, and the
        parameters within rounding over 50 chained steps."""
        rng = np.random.default_rng(75)
        for lr in (1e-3, 0.05):
            params = rng.normal(size=300)
            state, ref_state = AdamState.zeros(300), AdamState.zeros(300)
            ref_params = params.copy()
            for _ in range(50):
                grad = rng.normal(0.0, rng.uniform(1e-4, 10.0), size=300)
                grad[rng.random(300) < 0.1] = 0.0
                adam_step(params, grad, state, lr)
                ref_params, ref_state = ref_adam_step_textbook(ref_params, grad, ref_state, lr)
                assert same_bits(state.m, ref_state.m) and same_bits(state.v, ref_state.v)
            np.testing.assert_allclose(params, ref_params, rtol=1e-12, atol=0.0)
            assert not same_bits(params, ref_params)  # the orders do differ in rounding

    def test_loss_and_grad_into_a_buffer(self, deep_model):
        rng = np.random.default_rng(74)
        buf = np.full(deep_model.param_count, np.nan)
        for base_kind in ("cross_entropy", "focal"):
            spec = LossSpec(base_kind=base_kind, focal_gamma=1.5)
            for n in (1, 5):
                params = rng.normal(0.0, 0.5, size=deep_model.param_count)
                x, cells, stored, weights = random_batch(rng, deep_model, n, tail=n // 2 + 1, weighted=True)
                kwargs = {"stored": stored, "weights": weights}
                loss, grad, logits = deep_model.loss_and_grad(params, x, cells, spec, **kwargs)
                got = deep_model.loss_and_grad(params, x, cells, spec, **kwargs, out=buf)
                assert got[1] is buf
                assert got[0] == loss and same_bits(buf, grad) and same_bits(got[2], logits)

    @pytest.mark.parametrize(
        "make_out",
        [lambda p: np.empty(p - 1), lambda p: np.empty(p, dtype=np.float32), lambda p: np.empty(2 * p)[::2]],
        ids=["short", "float32", "strided"],
    )
    def test_loss_and_grad_refuses_a_buffer_it_cannot_fill(self, deep_model, make_out):
        x, cells, _, _ = random_batch(np.random.default_rng(75), deep_model, 2)
        params = deep_model.init_params()
        out = make_out(deep_model.param_count)
        with pytest.raises(ValueError, match="out must be a contiguous float64 vector of 279"):
            deep_model.loss_and_grad(params, x, cells, LossSpec(), out=out)

    @pytest.mark.parametrize("base_kind", ["cross_entropy", "focal"])
    @pytest.mark.parametrize("distilled", ["none", "all", "tail"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["mean", "weights"])
    def test_loss_and_grad(self, deep_model, base_kind, distilled, weighted):
        """Every distilled tail, none and 0 to the batch, against the
        reference's mask of the same rows."""
        rng = np.random.default_rng(71)
        spec = LossSpec(base_kind=base_kind, focal_gamma=1.5)
        for n in (1, 3, 9):
            params = rng.normal(0.0, 0.5, size=deep_model.param_count)
            x, cells, _, weights = random_batch(rng, deep_model, n, weighted=weighted)
            for tail in tail_lengths(distilled, n):
                stored = None if tail is None else rng.normal(size=(tail, deep_model.config.grid.n_cells))
                inputs = (params, x, cells, stored, weights)
                before = [None if a is None else a.copy() for a in inputs]
                loss, grad, logits = deep_model.loss_and_grad(params, x, cells, spec, stored=stored, weights=weights)
                ref_loss, ref_grad, ref_logits = ref_loss_and_grad(
                    deep_model, params, x, cells, spec, *tail_as_mask(n, stored), weights
                )
                assert loss == ref_loss
                assert same_bits(grad, ref_grad) and same_bits(logits, ref_logits)
                assert all(b is None or same_bits(a, b) for a, b in zip(inputs, before))

    def test_stored_and_weights_are_keyword_only(self, deep_model):
        x, cells, stored, weights = random_batch(np.random.default_rng(76), deep_model, 3, tail=1, weighted=True)
        params = deep_model.init_params()
        for extra in ((stored,), (stored, weights)):
            with pytest.raises(TypeError):
                deep_model.loss_and_grad(params, x, cells, LossSpec(), *extra)

    @pytest.mark.parametrize("base_kind", ["cross_entropy", "focal"])
    def test_per_sample_grads(self, deep_model, base_kind):
        rng = np.random.default_rng(72)
        spec = LossSpec(base_kind=base_kind, focal_gamma=2.5)
        for n in (1, 4, 11):
            params = rng.normal(0.0, 0.5, size=deep_model.param_count)
            x, cells, _, _ = random_batch(rng, deep_model, n)
            before = [a.copy() for a in (params, x, cells)]
            got = deep_model.per_sample_grads(params, x, cells, spec)
            want = ref_per_sample_grads(deep_model, params, x, cells, spec)
            assert len(got.deltas) == len(want.deltas) == 3
            assert all(same_bits(a, b) for a, b in zip(got.deltas, want.deltas))
            assert all(same_bits(a, b) for a, b in zip(got.inputs, want.inputs))
            assert all(same_bits(a, b) for a, b in zip((params, x, cells), before))


class TestConfigValidation:
    def test_rejects_empty_hidden(self, tiny_grid):
        with pytest.raises(ValueError):
            PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(), grid=tiny_grid)

    def test_rejects_bad_dims(self, tiny_grid):
        with pytest.raises(ValueError):
            PredictorConfig(t_obs=0, k_sv=1, hidden_dims=(4,), grid=tiny_grid)
        with pytest.raises(ValueError):
            PredictorConfig(t_obs=2, k_sv=-1, hidden_dims=(4,), grid=tiny_grid)


def features_of(scenes: Scenes) -> np.ndarray:
    return scene_features(scenes, scene_frames(scenes))


def frame_of(x, y, vx, vy) -> tuple[float, float, float, float]:
    """Reference frame of one target state, in Python floats."""
    speed = math.hypot(vx, vy)
    if speed < 1e-9:
        return x, y, 1.0, 0.0
    return x, y, vx / speed, vy / speed


def to_local(frame, px, py) -> tuple[float, float]:
    x0, y0, cos_h, sin_h = frame
    dx, dy = px - x0, py - y0
    return dx * cos_h + dy * sin_h, -dx * sin_h + dy * cos_h


def rotate(frame, vx, vy) -> tuple[float, float]:
    return to_local((0.0, 0.0, *frame[2:]), vx, vy)


def per_scene_features(tv, svs, mask) -> list[float]:
    """Reference: one scene at a time, one state at a time, in Python
    floats; ``tv``, ``svs`` and ``mask`` are one row's nested lists."""
    frame = frame_of(*tv[-1])
    out = []
    for k, track in enumerate([tv, *svs]):
        for x, y, vx, vy in track:
            if k and not mask[k - 1]:
                out += [0.0] * 4
            else:
                out += [*to_local(frame, x, y), *rotate(frame, vx, vy)]
    return out


class TestBatchedMatchesPerScene:
    """``HeatmapPredictor.encode`` (``scene_features``,
    ``local_endpoints`` and ``endpoint_cells`` over one ``scene_frames``
    pass) against a scene-at-a-time featuriser and target-cell loop in
    Python floats, bit for bit."""

    grid = GridSpec(rows_h=16, cols_w=16, origin=(-5.0, -20.0), cell_size=2.5)

    def assert_bit_equal(self, scenes):
        model = HeatmapPredictor(
            PredictorConfig(
                t_obs=scenes.tv.shape[1],
                k_sv=scenes.mask.shape[1],
                hidden_dims=(4,),
                grid=self.grid,
            )
        )
        table = model.encode(scenes)
        rows = list(zip(scenes.tv.tolist(), scenes.svs.tolist(), scenes.mask.tolist()))
        want_x = np.array([per_scene_features(*row) for row in rows])
        assert table.x.tobytes() == want_x.tobytes()
        assert features_of(scenes).tobytes() == want_x.tobytes()
        want_local = np.array(
            [to_local(frame_of(*tv[-1]), *end) for (tv, _, _), end in zip(rows, scenes.ends.tolist())]
        )
        assert table.ends.tobytes() == want_local.tobytes()
        cells = [endpoint_to_cell(tuple(p), self.grid) for p in want_local.tolist()]
        want_cells = np.array([r * self.grid.cols_w + c for r, c in cells])
        assert np.array_equal(table.cells, want_cells)
        local = local_endpoints(scene_frames(scenes), scenes.ends)
        assert local.tobytes() == want_local.tobytes()
        assert np.array_equal(endpoint_cells(local, self.grid), want_cells)
        # A still target's speed stays its raw hypot, not the 1.0 its frame divides by.
        assert table.speeds.tolist() == [math.hypot(*tv[-1][2:]) for tv, _, _ in rows]

    @pytest.mark.parametrize("kind", ["straight", "arc", "turn"])
    def test_every_family(self, kind):
        self.assert_bit_equal(generate_task(TaskSpec(kind=kind, n_samples=60, seed=61, noise_sigma=0.3)))

    def test_no_neighbor_slots(self):
        scenes = generate_task(TaskSpec(kind="arc", n_samples=20, seed=62, k_sv=0))
        self.assert_bit_equal(scenes)
        assert features_of(scenes).shape == (20, 10 * 4)

    def test_stationary_target_keeps_world_orientation(self):
        rng = np.random.default_rng(63)
        moving = make_scenes(rng, 6, k_sv=2, grid=self.grid)
        tv = moving.tv.copy()
        tv[:5, -1, 2:] = 0.0
        scenes = Scenes(tv, moving.svs, moving.mask, moving.ends, np.ones(6, int))
        frames = scene_frames(scenes)
        assert frames[:5, 2:].tolist() == [[1.0, 0.0, 0.0]] * 5
        self.assert_bit_equal(scenes)

    def test_masked_slots_from_a_sparse_track_table(self, tmp_path):
        # Written with one neighbor, ingested with three slots: two are
        # zero-filled and masked in every scene.
        spec = TaskSpec(kind="turn", n_samples=12, seed=64, noise_sigma=0.2, k_sv=1)
        path = tmp_path / "sparse.csv"
        write_task_csv(spec, 1, path)
        scenes = ingest_csv(path, t_obs=spec.t_obs, t_pred=spec.t_pred, k_sv=3)
        assert len(scenes) == 12
        assert scenes.mask.tolist() == [[True, False, False]] * 12
        self.assert_bit_equal(scenes)
        per_track = spec.t_obs * 4
        assert not features_of(scenes)[:, 2 * per_track :].any()

    def test_scenes_of_mixed_geometry_rejected(self):
        rng = np.random.default_rng(65)
        with pytest.raises(ValueError):
            Scenes.concat([make_scenes(rng, k_sv=1), make_scenes(rng, k_sv=2)])
