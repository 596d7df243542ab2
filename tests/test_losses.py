"""Loss kernels: cross-entropy, focal variant, distillation.

The classification kernels are checked against closed forms and against
finite differences in logit space.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from contrail.losses import LossSpec, batch_loss_and_dlogits

from contrail.selftest import _central_differences

from conftest import ref_batch_loss_and_dlogits, same_bits, tail_as_mask, tail_lengths


def fd_dlogits(logits_row, cell, spec, stored=None, eps=1e-6):
    """Central finite difference of the per-sample loss in logit space."""
    return _central_differences(
        lambda row: batch_loss_and_dlogits(row[None, :], [cell], spec, stored=stored)[0][0], logits_row, eps
    )


class TestCrossEntropy:
    def test_uniform_logits_give_log_cell_count(self):
        spec = LossSpec()
        for rows, cols in [(2, 2), (4, 5), (3, 7)]:
            logits = np.full((1, rows * cols), 3.25)
            losses, _ = batch_loss_and_dlogits(logits, [1 * cols + 1], spec)
            assert losses[0] == pytest.approx(math.log(rows * cols), abs=1e-12)

    def test_matches_manual_log_softmax(self):
        rng = np.random.default_rng(7)
        spec = LossSpec()
        logits = rng.normal(size=(6, 12))
        cells = [int(rng.integers(0, 12)) for _ in range(6)]
        losses, _ = batch_loss_and_dlogits(logits, cells, spec)
        for k, cell in enumerate(cells):
            row = logits[k]
            manual = -(row[cell] - math.log(np.exp(row - row.max()).sum()) - row.max())
            assert losses[k] == pytest.approx(manual, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        spec = LossSpec()
        logits = rng.normal(size=(3, 10))
        cells = [4] * 3
        base, dbase = batch_loss_and_dlogits(logits, cells, spec)
        shifted, dshift = batch_loss_and_dlogits(logits + 57.0, cells, spec)
        assert np.allclose(base, shifted, rtol=1e-10)
        assert np.allclose(dbase, dshift, atol=1e-10)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(9)
        spec = LossSpec()
        logits = rng.normal(size=(4, 8))
        _, dlogits = batch_loss_and_dlogits(logits, np.array([0, 3, 5, 7]), spec)
        shifted = logits - logits.max(axis=1, keepdims=True)
        softmax = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        onehot = np.zeros_like(logits)
        onehot[np.arange(4), [0, 3, 5, 7]] = 1.0
        assert np.allclose(dlogits, softmax - onehot, atol=1e-12)


class TestFocal:
    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(21)
        ce = LossSpec(base_kind="cross_entropy")
        focal0 = LossSpec(base_kind="focal", focal_gamma=0.0)
        for _ in range(100):
            logits = rng.normal(scale=2.0, size=(1, 15))
            cells = [int(rng.integers(0, 15))]
            l_ce, d_ce = batch_loss_and_dlogits(logits, cells, ce)
            l_f, d_f = batch_loss_and_dlogits(logits, cells, focal0)
            assert abs(l_ce[0] - l_f[0]) < 1e-10
            assert np.abs(d_ce - d_f).max() < 1e-10

    def test_never_exceeds_cross_entropy(self):
        rng = np.random.default_rng(22)
        ce = LossSpec()
        focal = LossSpec(base_kind="focal", focal_gamma=2.0)
        logits = rng.normal(scale=1.5, size=(50, 9))
        cells = [int(rng.integers(0, 9)) for _ in range(50)]
        l_ce, _ = batch_loss_and_dlogits(logits, cells, ce)
        l_f, _ = batch_loss_and_dlogits(logits, cells, focal)
        assert np.all(l_f <= l_ce + 1e-12)

    def test_two_cell_closed_form(self):
        # Equal logits over two cells: p = 1/2, loss = (1/2)^gamma ln 2.
        for gamma in (0.5, 1.0, 2.0, 3.0):
            spec = LossSpec(base_kind="focal", focal_gamma=gamma)
            logits = np.array([[1.7, 1.7]])
            losses, _ = batch_loss_and_dlogits(logits, [0], spec)
            assert losses[0] == pytest.approx(0.5**gamma * math.log(2.0), rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            gamma = float(rng.uniform(0.5, 3.0))
            spec = LossSpec(base_kind="focal", focal_gamma=gamma)
            logits = rng.normal(size=10)
            cell = int(rng.integers(0, 10))
            _, dlogits = batch_loss_and_dlogits(logits[None, :], [cell], spec)
            fd = fd_dlogits(logits, cell, spec)
            assert np.abs(dlogits[0] - fd).max() < 1e-6

    def test_saturated_probability_stays_finite(self):
        # p_t rounds to exactly 1.0; the (1-p)**(gamma-1) guard must not
        # emit nan or inf.
        spec = LossSpec(base_kind="focal", focal_gamma=2.0)
        logits = np.array([[40.0, -40.0]])
        losses, dlogits = batch_loss_and_dlogits(logits, [0], spec)
        assert np.isfinite(losses).all()
        assert np.isfinite(dlogits).all()
        assert losses[0] == pytest.approx(0.0, abs=1e-12)


class TestDistillation:
    def test_hand_computed_two_by_two(self):
        # 2x2 grid, logits [1, 0, 0, 0], stored logits [0, 0, 0, 1],
        # target cell (0, 0).  CE = -1 + log(e + 3); squared distance is
        # (1-0)^2 + 0 + 0 + (0-1)^2 = 2, normalised by 4 cells.
        spec = LossSpec()
        logits = np.array([[1.0, 0.0, 0.0, 0.0]])
        stored = np.array([[0.0, 0.0, 0.0, 1.0]])
        losses, _ = batch_loss_and_dlogits(logits, [0], spec, stored=stored)
        ce = -1.0 + math.log(math.e + 3.0)
        assert losses[0] == pytest.approx(ce + 2.0 / 4.0, rel=1e-12)

    def test_gradient_adds_two_diff_over_cells(self):
        rng = np.random.default_rng(31)
        spec = LossSpec()
        logits = rng.normal(size=(1, 6))
        stored = rng.normal(size=(1, 6))
        _, d_plain = batch_loss_and_dlogits(logits, [2], spec)
        _, d_store = batch_loss_and_dlogits(logits, [2], spec, stored=stored)
        expected = 2.0 * (logits[0] - stored[0]) / 6.0
        assert np.allclose(d_store[0] - d_plain[0], expected, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        spec = LossSpec(base_kind="focal", focal_gamma=1.5)
        for _ in range(20):
            logits = rng.normal(size=8)
            cell = int(rng.integers(0, 8))
            stored = rng.normal(size=(1, 8))
            _, dlogits = batch_loss_and_dlogits(logits[None, :], [cell], spec, stored=stored)
            fd = fd_dlogits(logits, cell, spec, stored)
            assert np.abs(dlogits[0] - fd).max() < 1e-6

    def test_identical_logits_add_nothing(self):
        spec = LossSpec()
        logits = np.array([[0.3, -0.2, 1.1, 0.0]])
        l_plain, _ = batch_loss_and_dlogits(logits, [1], spec)
        l_anch, _ = batch_loss_and_dlogits(logits, [1], spec, stored=logits.copy())
        assert l_plain[0] == pytest.approx(l_anch[0], rel=1e-14)

    def test_tail_matches_a_per_row_loop(self):
        # The tail's array op against a per-row loop: the gradient bit
        # for bit, the loss to rounding.
        rng = np.random.default_rng(33)
        for base_kind in ("cross_entropy", "focal"):
            spec = LossSpec(base_kind=base_kind, focal_gamma=1.5)
            logits = rng.normal(size=(7, 12))
            cells = rng.integers(0, 12, size=7)
            for m in range(8):
                stored = rng.normal(size=(m, 12))
                losses, dlogits = batch_loss_and_dlogits(logits, cells, spec, stored=stored)
                want_l, want_d = batch_loss_and_dlogits(logits, cells, spec)
                for j, k in enumerate(range(7 - m, 7)):
                    diff = logits[k] - stored[j]
                    want_l[k] = want_l[k] + diff.dot(diff) / 12
                    want_d[k] += 2.0 * diff / 12
                assert dlogits.tobytes() == want_d.tobytes()
                np.testing.assert_allclose(losses, want_l, rtol=1e-14, atol=0)


class TestMatchesOneHotReference:
    """Bit for bit against the dense one-hot reference of conftest, the
    arguments left as they were.  The reference distills the rows of a
    mask; every tail length, 0 to the batch, is its mask's last rows."""

    @pytest.mark.parametrize("base_kind, gamma", [("cross_entropy", 2.0), ("focal", 0.0), ("focal", 1.0), ("focal", 2.5)])
    @pytest.mark.parametrize("distilled", ["none", "all", "tail"])
    def test_random_batches(self, base_kind, gamma, distilled):
        rng = np.random.default_rng(34)
        spec = LossSpec(base_kind=base_kind, focal_gamma=gamma)
        for n, n_cells, scale in ((1, 4, 1.0), (6, 12, 3.0), (9, 20, 400.0)):
            # Scale 400 underflows most softmax entries to exactly 0, and
            # drives some target probabilities to exactly 1.
            logits = rng.normal(0.0, scale, size=(n, n_cells))
            cells = rng.integers(0, n_cells, size=n)
            cells[0] = np.argmax(logits[0])
            for m in tail_lengths(distilled, n):
                stored = None if m is None else rng.normal(size=(m, n_cells))
                before = [None if a is None else a.copy() for a in (logits, cells, stored)]
                losses, dlogits = batch_loss_and_dlogits(logits, cells, spec, stored=stored)
                want_l, want_d = ref_batch_loss_and_dlogits(logits, cells, spec, *tail_as_mask(n, stored))
                assert same_bits(losses, want_l) and same_bits(dlogits, want_d)
                after = (logits, cells, stored)
                assert all(b is None or same_bits(a, b) for a, b in zip(after, before))


class TestValidation:
    def test_loss_spec_rejects_bad_values(self):
        with pytest.raises(ValueError, match="base_kind"):
            LossSpec(base_kind="hinge")
        with pytest.raises(ValueError, match="focal_gamma"):
            LossSpec(focal_gamma=-0.5)
        with pytest.raises(ValueError, match="alpha and beta"):
            LossSpec(alpha=-1.0)
        with pytest.raises(ValueError, match="alpha and beta"):
            LossSpec(beta=-0.1)

    def test_batch_size_mismatch(self):
        logits = np.zeros((2, 4))
        with pytest.raises(ValueError, match="batch size"):
            batch_loss_and_dlogits(logits, [0], LossSpec())

    def test_target_outside_grid(self):
        logits = np.zeros((1, 4))
        with pytest.raises(ValueError, match="outside the grid"):
            batch_loss_and_dlogits(logits, [1 * 2 + 3], LossSpec())

    def test_stored_logits_wrong_length(self):
        logits = np.zeros((1, 4))
        for stored in (np.zeros((1, 5)), np.zeros((1, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match="stored logits do not match the grid size"):
                batch_loss_and_dlogits(logits, [0], LossSpec(), stored=stored)

    def test_more_stored_rows_than_the_batch(self):
        logits = np.zeros((2, 4))
        with pytest.raises(ValueError, match="more stored logit rows than the batch holds"):
            batch_loss_and_dlogits(logits, [0, 1], LossSpec(), stored=np.zeros((3, 4)))

    def test_stored_is_keyword_only(self):
        with pytest.raises(TypeError):
            batch_loss_and_dlogits(np.zeros((1, 4)), [0], LossSpec(), np.zeros((1, 4)))
