"""Shared fixtures: a tiny model, a random scene factory and the plain
reference implementations (oracles) that tests compare the array code
against."""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from contrail.core import GridSpec, SampleTable, Scenes
from contrail.losses import LossSpec
from contrail.memory import FIRST_SAMPLE_SCORE
from contrail.predictor import AdamState, FactoredGrads, HeatmapPredictor, PredictorConfig
from contrail.scenarios import CSV_HEADER, TRACK_LIMIT, TaskSpec


def make_scenes(
    rng: np.random.Generator,
    n: int = 1,
    t_obs: int = 2,
    k_sv: int = 1,
    span: float = 20.0,
    grid: GridSpec | None = None,
    labels: int | Sequence[int] = 1,
) -> Scenes:
    """``n`` random scenes, drawn one after the other: uniform states in
    +-span and each neighbor slot kept with probability 0.8.  With a
    ``grid`` each scene then draws an endpoint inside it and one unused
    uniform value, which keeps the rng stream the tests' data comes
    from; without one the endpoint is the origin.
    ``labels`` is one label for every row or one per row."""
    tv, svs, mask = np.empty((n, t_obs, 4)), np.empty((n, k_sv, t_obs, 4)), np.empty((n, k_sv), bool)
    ends = np.zeros((n, 2))
    for i in range(n):
        tracks = rng.uniform(-span, span, size=(1 + k_sv, t_obs, 4))
        tv[i], svs[i] = tracks[0], tracks[1:]
        mask[i] = rng.random(k_sv) < 0.8
        if grid is not None:
            ends[i] = (
                rng.uniform(grid.origin[0], grid.origin[0] + grid.cols_w * grid.cell_size),
                rng.uniform(grid.origin[1], grid.origin[1] + grid.rows_h * grid.cell_size),
            )
            rng.uniform(0.5, 12.0)
    return Scenes(tv, svs, mask, ends, np.broadcast_to(np.asarray(labels), (n,)).copy())


def make_table(
    rng: np.random.Generator,
    n: int = 1,
    grid: GridSpec | None = None,
    labels: int | Sequence[int] = 1,
) -> SampleTable:
    """``n`` random samples of :func:`make_scenes` (its default
    geometry), encoded onto ``grid`` (by default the tiny grid)."""
    grid = grid or GridSpec(rows_h=4, cols_w=5, origin=(-10.0, -8.0), cell_size=4.0)
    model = HeatmapPredictor(PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(1,), grid=grid))
    return model.encode(make_scenes(rng, n, grid=grid, labels=labels))


def same_rows(a, b) -> bool:
    """``a`` and ``b`` are tables of one type (``Scenes`` or
    ``SampleTable``) whose every column, the labels included, is equal."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


@pytest.fixture
def tiny_grid() -> GridSpec:
    return GridSpec(rows_h=4, cols_w=5, origin=(-10.0, -8.0), cell_size=4.0)


@pytest.fixture
def tiny_model(tiny_grid: GridSpec) -> HeatmapPredictor:
    return HeatmapPredictor(
        PredictorConfig(t_obs=2, k_sv=1, hidden_dims=(6,), grid=tiny_grid, seed=42)
    )


def endpoint_to_cell(point: tuple[float, float], grid: GridSpec) -> tuple[int, int]:
    """Scalar reference for one row of ``endpoint_cells``: the floor of
    the offset in cells, clamped to the border cell, as (row, col)."""
    x, y = point
    col = math.floor((x - grid.origin[0]) / grid.cell_size)
    row = math.floor((y - grid.origin[1]) / grid.cell_size)
    return min(max(row, 0), grid.rows_h - 1), min(max(col, 0), grid.cols_w - 1)


def result_matrix(rows) -> np.ndarray:
    """An ``(n, n)`` result matrix whose row ``i`` records ``rows[i]``
    from the first column on; an empty row records nothing."""
    m = np.full((len(rows), len(rows)), np.nan)
    for i, row in enumerate(rows):
        m[i, : len(row)] = row
    return m


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """``a`` and ``b`` hold the same float64 values bit for bit, signed
    zeros and NaN payloads included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense(grads: FactoredGrads) -> np.ndarray:
    """The per-sample gradient rows ``(n, P)`` in the flat parameter
    layout: per layer the weight outer product, then the bias."""
    pieces = []
    for d, h in zip(grads.deltas, grads.inputs):
        pieces.append(np.einsum("no,ni->noi", d, h).reshape(d.shape[0], d.shape[1] * h.shape[1]))
        pieces.append(d)
    return np.concatenate(pieces, axis=1)


def ref_adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """Reference for ``predictor.adam_step``: Kingma & Ba's folded
    order (ICLR 2015, section 2), the bias corrections taken into the
    step size and epsilon, one fresh array per operation."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad**2
    root = math.sqrt(1.0 - beta2**t)
    lr_t = lr * root / (1.0 - beta1**t)
    return params - lr_t * m / (np.sqrt(v) + eps * root), AdamState(m=m, v=v, t=t)


def ref_adam_step_textbook(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """The textbook Adam update through bias-corrected moments, which
    the folded order equals up to rounding."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), AdamState(m=m, v=v, t=t)


def ref_batch_loss_and_dlogits(
    logits: np.ndarray,
    cells: np.ndarray,
    spec: LossSpec,
    stored: np.ndarray | None = None,
    distill: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``losses.batch_loss_and_dlogits`` over a dense
    one-hot target array."""
    n, n_cells = logits.shape
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    softmax = np.exp(lsm)
    rows = np.arange(n)
    lsm_t = lsm[rows, cells]
    onehot = np.zeros_like(logits)
    onehot[rows, cells] = 1.0
    if spec.base_kind == "cross_entropy":
        losses = -lsm_t
        dlogits = softmax - onehot
    else:
        gamma = spec.focal_gamma
        p_t = np.exp(lsm_t)
        one_m = 1.0 - p_t
        losses = -(one_m**gamma) * lsm_t
        safe = np.where(one_m > 0.0, one_m, 1.0)
        lead = np.where(one_m > 0.0, gamma * safe ** (gamma - 1.0) * p_t * lsm_t, 0.0)
        dlogits = (onehot - softmax) * (lead - one_m**gamma)[:, None]
    if stored is not None:
        on = slice(None) if distill is None else distill
        diff = logits[on] - stored[on]
        losses[on] += np.einsum("ij,ij->i", diff, diff) / n_cells
        dlogits[on] += 2.0 * diff / n_cells
    return losses, dlogits


def tail_as_mask(n: int, stored: np.ndarray | None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A distilled tail as the references' per-row arguments: ``stored``
    after zero rows up to ``n`` rows, and the mask of its last
    ``len(stored)`` rows (both None for None)."""
    if stored is None:
        return None, None
    full = np.zeros((n, stored.shape[1]))
    full[n - len(stored) :] = stored
    return full, np.arange(n) >= n - len(stored)


def tail_lengths(distilled: str, n: int) -> tuple[int | None, ...]:
    """The distilled tails of an ``n``-row batch that a test case checks:
    ``"none"`` passes no stored logits, ``"all"`` distils every row and
    ``"tail"`` each shorter tail, the empty one included."""
    return {"none": (None,), "all": (n,), "tail": tuple(range(n))}[distilled]


def _ref_forward(model: HeatmapPredictor, params: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """Every activation of the MLP, input first, from the layout of
    ``model._shapes`` (per layer: row-major weights, then bias)."""
    acts, pos = [x], 0
    for li, (out_dim, in_dim) in enumerate(model._shapes):
        w = params[pos : pos + out_dim * in_dim].reshape(out_dim, in_dim)
        b = params[pos + out_dim * in_dim : pos + out_dim * (in_dim + 1)]
        pos += out_dim * (in_dim + 1)
        z = acts[-1] @ w.T + b
        acts.append(np.tanh(z) if li < len(model._shapes) - 1 else z)
    return acts


def _ref_deltas(
    model: HeatmapPredictor, params: np.ndarray, acts: list[np.ndarray], dlogits: np.ndarray
) -> list[np.ndarray]:
    """Back-propagated deltas per layer, first layer first."""
    offsets = np.cumsum([0] + [o * (i + 1) for o, i in model._shapes])
    deltas = [dlogits]
    for li in range(len(model._shapes) - 1, 0, -1):
        out_dim, in_dim = model._shapes[li]
        w = params[offsets[li] : offsets[li] + out_dim * in_dim].reshape(out_dim, in_dim)
        deltas.append((deltas[-1] @ w) * (1.0 - acts[li] ** 2))
    return deltas[::-1]


def ref_loss_and_grad(
    model: HeatmapPredictor,
    params: np.ndarray,
    x: np.ndarray,
    cells: np.ndarray,
    spec: LossSpec,
    stored: np.ndarray | None = None,
    distill: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Reference for ``HeatmapPredictor.loss_and_grad``: the one-hot
    loss, and a backward that concatenates each layer's weight and bias
    gradients and then the layers."""
    acts = _ref_forward(model, params, x)
    losses, dlogits = ref_batch_loss_and_dlogits(acts[-1], cells, spec, stored, distill)
    if weights is None:
        loss, dlogits = float(losses.mean()), dlogits / len(x)
    else:
        loss, dlogits = float(losses @ weights), dlogits * weights[:, None]
    deltas = _ref_deltas(model, params, acts, dlogits)
    grads = [np.concatenate([(d.T @ h).reshape(-1), d.sum(axis=0)]) for d, h in zip(deltas, acts)]
    return loss, np.concatenate(grads), acts[-1]


def ref_per_sample_grads(
    model: HeatmapPredictor, params: np.ndarray, x: np.ndarray, cells: np.ndarray, spec: LossSpec
) -> FactoredGrads:
    """Reference for ``HeatmapPredictor.per_sample_grads``."""
    acts = _ref_forward(model, params, x)
    _, dlogits = ref_batch_loss_and_dlogits(acts[-1], cells, spec)
    return FactoredGrads(tuple(_ref_deltas(model, params, acts, dlogits)), tuple(acts[:-1]))


def cosine_rows(grad: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Cosine of ``grad`` against each row of ``others``; zero-norm
    vectors give 0."""
    g_norm = float(np.linalg.norm(grad))
    denom = g_norm * np.linalg.norm(others, axis=1)
    dots = others @ grad
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


class RefCompletionBuffer:
    """List-backed reference for ``memory.CompletionBuffer``: slots as a
    Python list of rows and a list of logit arrays, appended below
    capacity and replaced in place above it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: list[int] = []
        self.logits: list[np.ndarray] = []
        self.stream_count = 0

    def __len__(self) -> int:
        return len(self.rows)

    def _put(self, slot: int, row: int, logits: np.ndarray) -> None:
        if slot == len(self.rows):
            self.rows.append(row)
            self.logits.append(logits)
        else:
            self.rows[slot] = row
            self.logits[slot] = logits

    def observe(self, row: int, rng: np.random.Generator, logits: np.ndarray) -> None:
        self.stream_count += 1
        if len(self.rows) < self.capacity:
            self._put(len(self.rows), row, logits)
            return
        slot = int(rng.integers(0, self.stream_count))
        if slot < self.capacity:
            self._put(slot, row, logits)

    def retain(self, slots: Sequence[int]) -> None:
        self.rows = [self.rows[s] for s in slots]
        self.logits = [self.logits[s] for s in slots]


class RefSeparationBuffer(RefCompletionBuffer):
    """List-backed reference for ``memory.SeparationBuffer``."""

    def __init__(self, capacity: int, b_compare: int = 10):
        super().__init__(capacity)
        self.b_compare = b_compare
        self.scores: list[float] = []

    def observe(self, row: int, q_new: float, rng: np.random.Generator, logits: np.ndarray) -> bool:
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
            cand = int(rng.choice(len(self.rows), p=q / total))
        else:
            cand = int(rng.integers(0, len(self.rows)))
        q_cand = self.scores[cand]
        denom = q_cand + q_new
        p_replace = q_cand / denom if denom > 0.0 else 0.5
        if rng.random() < p_replace:
            self._put(cand, row, logits)
            self.scores[cand] = float(q_new)
            return True
        return False

    def draw_compare(self, rng: np.random.Generator) -> np.ndarray:
        """The next offer's comparison slots, drawn from the filled ones."""
        n = len(self.rows)
        return rng.integers(0, n, size=min(self.b_compare, n)) if n else np.zeros(0, dtype=np.intp)

    def offer(self, row: int, cosines: np.ndarray, rng: np.random.Generator, logits: np.ndarray) -> bool:
        """Score against the cosines of the drawn slots, then observe."""
        if self.stream_count == 0:
            q_new = FIRST_SAMPLE_SCORE
        else:
            q_new = max(float(c) for c in cosines) + 1.0
        return self.observe(row, q_new, rng, logits)


def ref_draw_minibatch(buffer: RefCompletionBuffer, n: int, rng: np.random.Generator) -> np.ndarray:
    """Reference for ``memory.draw_minibatch``."""
    if not buffer.rows or n == 0:
        return np.zeros(0, dtype=np.intp)
    return rng.integers(0, len(buffer.rows), size=n)


def ref_replay_targets(buffer: RefCompletionBuffer, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``losses.replay_targets``: one slot at a time."""
    rows = np.array([buffer.rows[s] for s in slots], dtype=np.intp)
    stored = np.stack([buffer.logits[s] for s in slots]).reshape(len(rows), -1)
    return rows, stored


def ref_pose_on(
    anchor: tuple[float, float], heading: float, speed: float, omega: float, t: float
) -> tuple[float, float, float]:
    """Closed-form pose (x, y, heading) at time t for motion that is at
    ``anchor``/``heading`` at t = 0 with constant speed and heading rate."""
    if abs(omega) < 1e-12:
        return (
            anchor[0] + speed * t * math.cos(heading),
            anchor[1] + speed * t * math.sin(heading),
            heading,
        )
    h = heading + omega * t
    r = speed / omega
    return (
        anchor[0] + r * (math.sin(h) - math.sin(heading)),
        anchor[1] + r * (math.cos(heading) - math.cos(h)),
        h,
    )


def ref_episode_track(
    spec: TaskSpec,
    anchor: tuple[float, float],
    heading: float,
    speed: float,
    omega_obs: float,
    omega_pred: float,
    n_future: int,
    rng: np.random.Generator,
) -> list[list[float]]:
    """States (x, y, vx, vy) of one agent at dt steps: t_obs history
    ending at the anchor time plus n_future prediction steps, one step
    at a time, with one scalar noise draw for x, then one for y, at
    each step."""
    states = []
    for i in range(spec.t_obs + n_future):
        t = (i - (spec.t_obs - 1)) * spec.dt
        x, y, h = ref_pose_on(anchor, heading, speed, omega_obs if t <= 0 else omega_pred, t)
        if spec.noise_sigma > 0:
            x += rng.normal(0.0, spec.noise_sigma)
            y += rng.normal(0.0, spec.noise_sigma)
        states.append([x, y, speed * math.cos(h), speed * math.sin(h)])
    return states


def ref_generate(spec: TaskSpec, label: int) -> tuple[Scenes, np.ndarray]:
    """Reference for ``scenarios._generate``: the scalar path, one
    episode, one agent and one step at a time, drawing in the same
    order and refusing the same specs with the same message."""
    rng = np.random.default_rng(spec.seed)
    n, t_obs, k_sv = spec.n_samples, spec.t_obs, spec.k_sv
    tracks, svs = [], []
    horizon = spec.t_pred * spec.dt
    try:
        for _ in range(n):
            anchor = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
            heading = rng.uniform(0.0, 2.0 * math.pi)
            speed = rng.uniform(*spec.speed_range)
            if spec.kind == "straight":
                omega_obs = omega_pred = 0.0
            elif spec.kind == "arc":
                omega_obs = omega_pred = speed * rng.uniform(*spec.curvature_range)
            else:
                omega_obs, omega_pred = 0.0, rng.uniform(*spec.turn_angle_range) / horizon
            tv_track = ref_episode_track(
                spec, anchor, heading, speed, omega_obs, omega_pred, spec.t_pred, rng
            )
            sv_tracks = []
            for _ in range(k_sv):
                lon = rng.uniform(-15.0, 15.0)
                lat = rng.uniform(-6.0, 6.0)
                sv_anchor = (
                    anchor[0] + lon * math.cos(heading) - lat * math.sin(heading),
                    anchor[1] + lon * math.sin(heading) + lat * math.cos(heading),
                )
                sv_speed = max(0.5, speed + rng.uniform(-1.0, 1.0))
                sv_tracks.append(
                    ref_episode_track(spec, sv_anchor, heading, sv_speed, omega_obs, omega_obs, 0, rng)
                )
            tv_x, tv_y = tv_track[t_obs - 1][:2]
            sv_tracks.sort(key=lambda tr: math.hypot(tr[-1][0] - tv_x, tr[-1][1] - tv_y))
            tracks.append(tv_track)
            svs.append(sv_tracks)
    except (ValueError, OverflowError):  # math.sin of an infinite heading; a range too wide to draw from
        in_range = False
    else:
        in_range = all(
            abs(v) <= TRACK_LIMIT for agents in (tracks, svs) for v in np.ravel(agents).tolist()
        )
    if not in_range:
        raise ValueError(
            f"kind {spec.kind}, seed {spec.seed} draws non-finite tracks or values beyond "
            f"{TRACK_LIMIT:g} m or m/s: its noise_sigma, dt or a range is out of scale"
        )
    whole = np.array(tracks, dtype=np.float64).reshape(n, t_obs + spec.t_pred, 4)
    scenes = Scenes(
        whole[:, :t_obs].copy(),
        np.array(svs, dtype=np.float64).reshape(n, k_sv, t_obs, 4),
        np.ones((n, k_sv), dtype=bool),
        whole[:, -1, :2].copy(),
        np.full(n, label),
    )
    return scenes, whole


def ref_write_task_csv(spec: TaskSpec, label: int, path: Path) -> None:
    """Reference for ``scenarios.write_task_csv``: a ``csv.writer`` row
    per agent per frame, floats as ``repr``, from :func:`ref_generate`."""
    scenes, tracks = ref_generate(spec, label)
    stride = max(100, spec.t_obs + spec.t_pred)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for idx, (tv_track, sv_tracks) in enumerate(zip(tracks.tolist(), scenes.svs.tolist())):
            agents = [(f"e{idx:05d}_tv", "tv", tv_track)]
            agents += [(f"e{idx:05d}_sv{k}", "sv", track) for k, track in enumerate(sv_tracks)]
            for track_id, role, track in agents:
                for f, (x, y, vx, vy) in enumerate(track):
                    writer.writerow(
                        [track_id, idx * stride + f, repr(x), repr(y), repr(vx), repr(vy), role, label]
                    )


def scale_positions(path: Path, factor: float) -> None:
    """Multiply the x and y columns of a track table in place, floats
    written as ``repr``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[2], row[3] = repr(float(row[2]) * factor), repr(float(row[3]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# The row-tuple CSV reader that ``scenarios.ingest_csv`` replaced, kept
# verbatim as the reference its columns, segments and messages must equal.
_Row = tuple[int, float, float, float, float, int, int]  # frame, x, y, vx, vy, label, line


@dataclass
class _Track:
    role: str
    rows: list[_Row] = field(default_factory=list)


def _parse_rows(path: Path) -> tuple[dict[str, _Track], int]:
    tracks: dict[str, _Track] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return {}, 0
        if header != CSV_HEADER:
            raise ValueError(f"{path}: expected header {CSV_HEADER}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
            try:
                track_id = row[0]
                frame = int(row[1])
                x, y, vx, vy = float(row[2]), float(row[3]), float(row[4]), float(row[5])
                role = row[6]
                label = int(row[7])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
            # False for NaN and infinities too.
            if not (
                abs(x) <= TRACK_LIMIT and abs(y) <= TRACK_LIMIT
                and abs(vx) <= TRACK_LIMIT and abs(vy) <= TRACK_LIMIT
            ):
                raise ValueError(
                    f"{path}:{lineno}: non-finite x, y, vx or vy, or one beyond "
                    f"{TRACK_LIMIT:g} m or m/s in magnitude"
                )
            if role not in ("tv", "sv"):
                raise ValueError(f"{path}:{lineno}: agent_role must be 'tv' or 'sv'")
            track = tracks.get(track_id)
            if track is None:
                track = tracks[track_id] = _Track(role=role)
            elif track.role != role:
                raise ValueError(f"{path}:{lineno}: track {track_id} changes role")
            track.rows.append((frame, x, y, vx, vy, label, lineno))

    gaps = 0
    for track_id, track in tracks.items():
        # Stable: a repeated frame sorts after its first line.
        track.rows.sort(key=itemgetter(0))
        repeats = [b for a, b in zip(track.rows, track.rows[1:]) if a[0] == b[0]]
        if repeats:
            first = min(repeats, key=lambda r: r[6])
            raise ValueError(
                f"{path}:{first[6]}: duplicate frames within track {track_id}: "
                f"frame {first[0]} appears again"
            )
        gaps += sum(1 for a, b in zip(track.rows, track.rows[1:]) if b[0] - a[0] > 1)
    return tracks, gaps


def _segments(track: _Track) -> list[list[_Row]]:
    segs: list[list[_Row]] = []
    for row in track.rows:
        if segs and row[0] == segs[-1][-1][0] + 1:
            segs[-1].append(row)
        else:
            segs.append([row])
    return segs
