"""Fast invariant suite behind ``contrail selftest``.

Six independent checks that catch the classic silent breakages:
analytic gradients against finite differences, reservoir uniformity,
the score-proportional replacement frequency, endpoint extraction
against a brute-force re-implementation, an optimizer descent probe,
and a seeded tiny experiment whose result matrix must hash to a pinned
golden value.  Everything is seeded and runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import stats

from .core import AgentState, GridSpec, GroundTruth, Heatmap, Sample, Scene
from .learner import Strategy, TrainConfig, train_stream
from .losses import LossSpec, Target
from .memory import CompletionBuffer, MemoryTriplet, SeparationBuffer
from .metrics import extract_endpoints, fde_sample, mr_threshold
from .predictor import AdamState, HeatmapPredictor, PredictorConfig, adam_step
from .scenarios import TaskSpec, task_datasets

__all__ = ["run_selftest"]

# Pinned digest of the tiny-experiment result matrices (values rounded
# to 6 decimals).  Regenerate deliberately via _golden_digest() when the
# training pipeline changes.
GOLDEN_MATRIX_SHA256 = "0da4227e520ae1edadbda18023bba3715e12de651531b98fa8ce668d532fa836"


def _random_scene(
    rng: np.random.Generator, t_obs: int, k_sv: int, span: float = 20.0
) -> Scene:
    def track():
        return tuple(
            AgentState(*(float(v) for v in rng.uniform(-span, span, size=4)))
            for _ in range(t_obs)
        )

    return Scene(
        tv_history=track(),
        sv_histories=tuple(track() for _ in range(k_sv)),
        sv_mask=tuple(bool(rng.random() < 0.8) for _ in range(k_sv)),
        t_c=t_obs - 1,
    )


def check_gradients(n_cases: int = 10, tol: float = 1e-4) -> bool:
    """Analytic gradient vs central finite differences on a tiny net."""
    rng = np.random.default_rng(7)
    grid = GridSpec(rows_h=3, cols_w=3, origin=(-5.0, -5.0), cell_size=3.0)
    model = HeatmapPredictor(
        PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(4,), grid=grid, seed=1)
    )
    eps = 1e-3
    for case in range(n_cases):
        params = rng.normal(0.0, 0.5, size=model.param_count)
        spec = LossSpec(base_kind="focal" if case % 2 else "cross_entropy", focal_gamma=2.0)
        batch = []
        for _ in range(3):
            # O(1) features keep the finite-difference truncation error
            # (quadratic in the activations) well under the tolerance.
            scene = _random_scene(rng, 2, 1, span=2.0)
            cell = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            stored = rng.normal(size=9) if rng.random() < 0.5 else None
            batch.append((scene, Target(cell, stored)))
        _, grad = model.loss_and_grad(params, batch, spec)
        fd = np.empty_like(grad)
        for i in range(model.param_count):
            p_hi = params.copy()
            p_hi[i] += eps
            p_lo = params.copy()
            p_lo[i] -= eps
            hi, _ = model.loss_and_grad(p_hi, batch, spec)
            lo, _ = model.loss_and_grad(p_lo, batch, spec)
            fd[i] = (hi - lo) / (2 * eps)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
        if np.abs(grad - fd).max() / scale >= tol:
            return False
    return True


def check_reservoir(runs: int = 4000, n: int = 40, k: int = 5) -> bool:
    """Inclusion frequencies within 3-sigma and a chi-square pass."""

    def dummy(i: int) -> int:
        return i  # the buffer stores items opaquely

    counts = np.zeros(n)
    rng = np.random.default_rng(11)
    for _ in range(runs):
        buf = CompletionBuffer(capacity=k)
        for i in range(n):
            buf.observe(dummy(i), rng)  # type: ignore[arg-type]
        for item in buf.items:
            counts[item] += 1
    p = k / n
    sigma = math.sqrt(p * (1 - p) / runs)
    if np.any(np.abs(counts / runs - p) > 3 * sigma):
        return False
    expected = runs * p
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return chi2 < stats.chi2.ppf(1 - 0.001, n - 1)


def check_replacement_frequency(trials: int = 30000) -> bool:
    """Equal scores replace at 1/2; a zero-score newcomer always wins."""
    rng = np.random.default_rng(13)
    replaced = 0
    for _ in range(trials):
        buf = SeparationBuffer(capacity=4)
        for i in range(4):
            buf.observe(i, 0.5, rng)  # type: ignore[arg-type]
        if buf.observe(99, 0.5, rng):  # type: ignore[arg-type]
            replaced += 1
    if abs(replaced / trials - 0.5) > 0.01:
        return False
    for _ in range(2000):
        buf = SeparationBuffer(capacity=4)
        for i in range(4):
            buf.observe(i, 0.5, rng)  # type: ignore[arg-type]
        if not buf.observe(99, 0.0, rng):  # type: ignore[arg-type]
            return False
    return True


def _brute_force_endpoints(heatmap: Heatmap, w: int) -> list[tuple[float, float]]:
    """Independent re-derivation of extract_endpoints by enumeration."""
    probs = heatmap.probabilities()
    h_dim, w_dim = probs.shape
    peaks = []
    for r in range(h_dim):
        for c in range(w_dim):
            is_peak = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h_dim and 0 <= cc < w_dim:
                        if probs[rr, cc] >= probs[r, c]:
                            is_peak = False
            if is_peak:
                peaks.append((r, c))
    peaks.sort(key=lambda rc: (-probs[rc[0], rc[1]], rc[0], rc[1]))
    chosen = peaks[:w]
    if len(chosen) < w:
        rest = [
            (r, c)
            for r in range(h_dim)
            for c in range(w_dim)
            if (r, c) not in set(chosen)
        ]
        rest.sort(key=lambda rc: (-probs[rc[0], rc[1]], rc[0], rc[1]))
        chosen += rest[: w - len(chosen)]
    grid = heatmap.grid
    return [
        (
            grid.origin[0] + (c + 0.5) * grid.cell_size,
            grid.origin[1] + (r + 0.5) * grid.cell_size,
        )
        for r, c in chosen
    ]


def check_metric_oracles(cases: int = 200) -> bool:
    rng = np.random.default_rng(17)
    grid = GridSpec(rows_h=6, cols_w=5, origin=(-10.0, -10.0), cell_size=2.0)
    for _ in range(cases):
        hm = Heatmap(rng.normal(size=(6, 5)), grid)
        w = int(rng.integers(1, 12))
        got = extract_endpoints(hm, w)
        want = _brute_force_endpoints(hm, w)
        if list(got.endpoints) != want:
            return False
    branch_ok = (
        mr_threshold(0.5) == 1.0
        and abs(mr_threshold(6.2) - 1.5) < 1e-12
        and mr_threshold(20.0) == 2.0
    )
    fde_ok = (
        fde_sample(
            extract_endpoints(
                Heatmap(np.zeros((6, 5)), grid), 1
            ),  # uniform: tie-break picks no peak, highest remaining = (0, 0)
            GroundTruth(endpoint=(-9.0, -9.0), speed_v=1.0),
        )
        >= 0.0
    )
    return branch_ok and fde_ok


def check_adam_descends(steps: int = 60) -> bool:
    rng = np.random.default_rng(19)
    grid = GridSpec(rows_h=4, cols_w=4, origin=(-8.0, -8.0), cell_size=4.0)
    model = HeatmapPredictor(
        PredictorConfig(t_obs=3, k_sv=1, hidden_dims=(8,), grid=grid, seed=3)
    )
    batch = [
        (
            _random_scene(rng, 3, 1),
            Target((int(rng.integers(0, 4)), int(rng.integers(0, 4)))),
        )
        for _ in range(6)
    ]
    spec = LossSpec()
    params = model.init_params()
    adam = AdamState.zeros(model.param_count)
    first, _ = model.loss_and_grad(params, batch, spec)
    for _ in range(steps):
        _, grad = model.loss_and_grad(params, batch, spec)
        params, adam = adam_step(params, grad, adam, lr=1e-2)
    last, _ = model.loss_and_grad(params, batch, spec)
    return last < first


def _tiny_matrix_values() -> list[float]:
    """Deterministic tiny two-task experiment; returns matrix entries."""
    from .cli import ExperimentConfig, run_cell  # local import to avoid a cycle
    import tempfile
    from pathlib import Path

    grid = GridSpec(rows_h=8, cols_w=8, origin=(-5.0, -20.0), cell_size=5.0)
    tasks = (
        TaskSpec(kind="straight", n_samples=150, seed=21, noise_sigma=0.1),
        TaskSpec(kind="turn", n_samples=150, seed=22, noise_sigma=0.1),
    )
    config = ExperimentConfig(
        tasks=tasks,
        strategies=(Strategy.DUAL_REPLAY,),
        train=TrainConfig(buffer_total=40),
        grid=grid,
        hidden_dims=(16, 16),
        seed=5,
        repetitions=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cell"
        run_cell(config, Strategy.DUAL_REPLAY, 0, out, task_datasets(tasks))
        from .metrics import read_matrix_csv

        fde_m = read_matrix_csv(out / "matrix_fde.csv")
        mr_m = read_matrix_csv(out / "matrix_mr.csv")
    values = [v for _, _, v in fde_m.entries()] + [v for _, _, v in mr_m.entries()]
    return values


def _golden_digest() -> str:
    values = _tiny_matrix_values()
    canon = ",".join(f"{v:.6f}" for v in values)
    return hashlib.sha256(canon.encode()).hexdigest()


def check_golden() -> bool:
    if GOLDEN_MATRIX_SHA256 is None:
        return False
    return _golden_digest() == GOLDEN_MATRIX_SHA256


CHECKS = [
    ("gradient check", check_gradients),
    ("reservoir uniformity", check_reservoir),
    ("replacement frequency", check_replacement_frequency),
    ("metric oracles", check_metric_oracles),
    ("adam descends", check_adam_descends),
    ("golden tiny experiment", check_golden),
]


def run_selftest(verbose: bool = True) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok = fn()
        all_ok &= ok
        if verbose:
            print(f"selftest: {name:28s} {'ok' if ok else 'FAIL'}")
    return all_ok
