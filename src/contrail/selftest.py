"""Fast invariant suite behind ``contrail selftest``.

Eight independent checks that catch the classic silent breakages:
analytic gradients against finite differences, reservoir uniformity,
the score-proportional replacement frequency, endpoint extraction
against a brute-force re-implementation, an optimizer descent probe,
the in-place optimizer step against the pure one, a CSV write/ingest
round trip, and a seeded tiny experiment whose result matrix must hash
to a pinned golden value.  Everything is seeded and runs in a few
seconds.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
from scipy import stats

from .core import GridSpec, Scenes, softmax
from .learner import Strategy, TrainConfig
from .losses import LossSpec
from .memory import CompletionBuffer, SeparationBuffer
from .metrics import extract_endpoints, fde, mr_threshold
from .predictor import AdamState, HeatmapPredictor, PredictorConfig, adam_step
from .scenarios import TaskSpec, ingest_csv, write_task_csv

__all__ = ["run_selftest"]

# Pinned digest of the tiny-experiment result matrices (values rounded
# to 6 decimals).  Regenerate deliberately via _golden_digest() when the
# training pipeline changes.
GOLDEN_MATRIX_SHA256 = "0da4227e520ae1edadbda18023bba3715e12de651531b98fa8ce668d532fa836"


def _random_scene(
    rng: np.random.Generator, t_obs: int, k_sv: int, span: float = 20.0
) -> Scenes:
    """One scene of uniform states in +-span, each neighbor slot kept
    with probability 0.8."""
    tracks = rng.uniform(-span, span, size=(1 + k_sv, t_obs, 4))
    mask = rng.random(k_sv) < 0.8
    return Scenes(tracks[None, 0], tracks[None, 1:], mask[None], np.zeros((1, 2)), np.ones(1), np.zeros(1, int))


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
        scenes, cells, stored, distill = [], [], [], []
        for _ in range(3):
            # O(1) features keep the finite-difference truncation error
            # (quadratic in the activations) well under the tolerance.
            scenes.append(_random_scene(rng, 2, 1, span=2.0))
            cells.append(int(rng.integers(0, 3)) * 3 + int(rng.integers(0, 3)))
            distill.append(bool(rng.random() < 0.5))
            stored.append(rng.normal(size=9) if distill[-1] else np.zeros(9))
        x, distill = model.encode(Scenes.concat(scenes)).x, np.array(distill)
        # Random non-negative row weights, as the fused replay step uses.
        batch = (x, np.array(cells), spec, np.stack(stored), distill, rng.uniform(0.0, 2.0, size=3))
        _, grad, _ = model.loss_and_grad(params, *batch)
        fd = np.empty_like(grad)
        for i in range(model.param_count):
            p_hi = params.copy()
            p_hi[i] += eps
            p_lo = params.copy()
            p_lo[i] -= eps
            hi, _, _ = model.loss_and_grad(p_hi, *batch)
            lo, _, _ = model.loss_and_grad(p_lo, *batch)
            fd[i] = (hi - lo) / (2 * eps)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
        if np.abs(grad - fd).max() / scale >= tol:
            return False
    return True


def check_reservoir(runs: int = 4000, n: int = 40, k: int = 5) -> bool:
    """Inclusion frequencies within 3-sigma and a chi-square pass."""

    counts = np.zeros(n)
    rng = np.random.default_rng(11)
    for _ in range(runs):
        buf = CompletionBuffer(capacity=k)
        for i in range(n):
            buf.observe(i, rng)
        counts[buf.rows] += 1
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
            buf.observe(i, 0.5, rng)
        if buf.observe(99, 0.5, rng):
            replaced += 1
    if abs(replaced / trials - 0.5) > 0.01:
        return False
    for _ in range(2000):
        buf = SeparationBuffer(capacity=4)
        for i in range(4):
            buf.observe(i, 0.5, rng)
        if not buf.observe(99, 0.0, rng):
            return False
    return True


def _brute_force_endpoints(logits: np.ndarray, grid: GridSpec, w: int) -> list[tuple[float, float]]:
    """Independent re-derivation of extract_endpoints by enumeration,
    for one ``(rows_h, cols_w)`` heatmap."""
    probs = softmax(logits[None])[0]
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
    return [
        (
            grid.origin[0] + (c + 0.5) * grid.cell_size,
            grid.origin[1] + (r + 0.5) * grid.cell_size,
        )
        for r, c in chosen
    ]


def check_metric_oracles(cases: int = 200) -> bool:
    """Batched extraction against the brute force, row by row: the
    cases are scored in one stack per endpoint count."""
    rng = np.random.default_rng(17)
    grid = GridSpec(rows_h=6, cols_w=5, origin=(-10.0, -10.0), cell_size=2.0)
    by_w: dict[int, list[np.ndarray]] = {}
    for _ in range(cases):
        logits = rng.normal(size=(6, 5))
        by_w.setdefault(int(rng.integers(1, 12)), []).append(logits)
    for w, stack in by_w.items():
        got = extract_endpoints(np.stack(stack), grid, w)
        for logits, endpoints in zip(stack, got):
            if [tuple(p) for p in endpoints.tolist()] != _brute_force_endpoints(logits, grid, w):
                return False
    branch_ok = (
        mr_threshold(0.5) == 1.0
        and abs(mr_threshold(6.2) - 1.5) < 1e-12
        and mr_threshold(20.0) == 2.0
    )
    # Uniform heatmap: no peak, so the fill picks the highest remaining
    # cell in scan order, (0, 0).
    uniform = extract_endpoints(np.zeros((1, 6, 5)), grid, 1)
    fde_ok = fde(uniform, np.array([[-9.0, -9.0]]))[0] >= 0.0
    return branch_ok and fde_ok


def _adam_probe() -> tuple[HeatmapPredictor, tuple]:
    """A small model and one fixed batch of six random scenes."""
    rng = np.random.default_rng(19)
    grid = GridSpec(rows_h=4, cols_w=4, origin=(-8.0, -8.0), cell_size=4.0)
    model = HeatmapPredictor(
        PredictorConfig(t_obs=3, k_sv=1, hidden_dims=(8,), grid=grid, seed=3)
    )
    scenes, cells = [], []
    for _ in range(6):
        scenes.append(_random_scene(rng, 3, 1))
        cells.append(int(rng.integers(0, 4)) * 4 + int(rng.integers(0, 4)))
    return model, (model.encode(Scenes.concat(scenes)).x, np.array(cells), LossSpec())


def check_adam_descends(steps: int = 60) -> bool:
    """The trainer's in-place step (gradient buffer, in-place Adam)
    lowers the loss of a fixed batch."""
    model, batch = _adam_probe()
    params = model.init_params()
    adam = AdamState.zeros(model.param_count)
    grad = np.empty(model.param_count)
    first, _, _ = model.loss_and_grad(params, *batch)
    for _ in range(steps):
        model.loss_and_grad(params, *batch, out=grad)
        adam_step(params, grad, adam, lr=1e-2, in_place=True)
    last, _, _ = model.loss_and_grad(params, *batch)
    return last < first


def check_adam_in_place(steps: int = 60) -> bool:
    """The in-place Adam step equals the pure one bit for bit along a
    chain of steps, moments and step count included."""
    model, batch = _adam_probe()
    params = model.init_params()
    pure, pure_adam = params.copy(), AdamState.zeros(model.param_count)
    adam = AdamState.zeros(model.param_count)
    for _ in range(steps):
        _, grad, _ = model.loss_and_grad(params, *batch)
        pure, pure_adam = adam_step(pure, grad, pure_adam, lr=1e-2)
        adam_step(params, grad, adam, lr=1e-2, in_place=True)
        pairs = ((params, pure), (adam.m, pure_adam.m), (adam.v, pure_adam.v))
        if adam.t != pure_adam.t or any(a.tobytes() != b.tobytes() for a, b in pairs):
            return False
    return True


def check_csv_round_trip() -> bool:
    """A written task ingests back to exactly the same states, masks
    and endpoints."""
    spec = TaskSpec(kind="arc", n_samples=4, seed=23, noise_sigma=0.1, k_sv=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "task.csv"
        written = write_task_csv(spec, 1, path)
        ingested = ingest_csv(path, t_obs=spec.t_obs, t_pred=spec.t_pred, k_sv=spec.k_sv)
    return all(
        np.array_equal(getattr(written, name), getattr(ingested, name))
        for name in ("tv", "svs", "mask", "ends")
    )


def _tiny_matrix_values() -> list[float]:
    """Deterministic tiny two-task experiment; returns matrix entries."""
    from .cli import ExperimentConfig, run_experiment  # local import to avoid a cycle
    from .metrics import matrix_entries, read_matrix_csv

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
        run_experiment(config, Path(tmp))
        cell = Path(tmp) / "runs" / Strategy.DUAL_REPLAY.value / "rep_00"
        fde_m = read_matrix_csv(cell / "matrix_fde.csv")
        mr_m = read_matrix_csv(cell / "matrix_mr.csv")
    return [v for m in (fde_m, mr_m) for _, _, v in matrix_entries(m)]


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
    ("adam in place", check_adam_in_place),
    ("csv round trip", check_csv_round_trip),
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
