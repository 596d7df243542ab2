"""Synthetic driving scenarios and CSV ingestion.

Each task is a family of short episodes drawn from one kinematic
pattern: constant-velocity cruising ("straight"), gentle constant-
curvature drift ("arc", curving left by default), or a sharp heading
change unfolding over the prediction horizon ("turn", to the right by
default).  Episodes place the vehicle anywhere in the world with any
heading, so only the target-centric geometry carries task identity.
Tracks are exact closed-form rollouts plus optional Gaussian position
noise; velocities stay exact.  A task's episodes are drawn one after
the other and their draws stored in arrays; one array rollout per
agent role then writes every track of the task into the arrays of a
:class:`~contrail.core.Scenes` table.

The CSV side round-trips generated data through a plain track table
(one row per agent per frame) and can ingest externally recorded files
with the same schema into one table per file.  The writer draws each
track's noise in one call and formats each episode as one block of
lines, byte for byte what a ``csv.writer`` row per frame with ``repr``
floats gives.  Positions and velocities must be finite and at most
``TRACK_LIMIT`` in magnitude on both sides: a task whose drawn tracks
break the bound is refused before any file is written, and so is a CSV
row, with an error naming ``path:line``.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Sequence, Sized

import numpy as np

from .core import Scenes, atomic_write

__all__ = [
    "TaskSpec",
    "build_stream",
    "check_episode_geometry",
    "generate_task",
    "ingest_csv",
    "task_datasets",
    "write_task_csv",
    "write_task_csvs",
]

logger = logging.getLogger(__name__)

KINDS = ("straight", "arc", "turn")

CSV_HEADER = ["track_id", "frame", "x", "y", "vx", "vy", "agent_role", "task_label"]

# Largest magnitude of a generated or ingested position (m) or velocity
# (m/s).  The README tasks stay within about 100 m and 10 m/s; at 1e6
# every square and sum downstream (features, distances, FDE) is still
# far from overflowing.
TRACK_LIMIT = 1e6


@dataclass(frozen=True)
class TaskSpec:
    """One synthetic task: a kinematic family plus sampling ranges.

    ``curvature_range`` (1/m, signed) applies to the arc family over
    the whole episode; ``turn_angle_range`` (radians, signed) is the
    total heading change a turn episode spreads over the prediction
    horizon.  Ranges are uniform and inclusive.
    """

    kind: str
    n_samples: int
    seed: int = 0
    noise_sigma: float = 0.0
    speed_range: tuple[float, float] = (5.5, 7.5)
    curvature_range: tuple[float, float] = (0.04, 0.07)
    turn_angle_range: tuple[float, float] = (-1.9, -1.3)
    t_obs: int = 10
    t_pred: int = 30
    dt: float = 0.1
    k_sv: int = 4

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        for name in ("speed_range", "curvature_range", "turn_angle_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is degenerate: min {lo} > max {hi}")
        if self.speed_range[0] <= 0:
            raise ValueError("speeds must be positive")
        if self.t_obs < 2 or self.t_pred < 1 or self.dt <= 0:
            raise ValueError("invalid episode geometry")
        if self.k_sv < 0:
            raise ValueError("k_sv must be non-negative")


def _roll_out(
    out: np.ndarray,
    noisy: bool,
    x0: np.ndarray,
    y0: np.ndarray,
    heading: np.ndarray,
    speed: np.ndarray,
    omega: np.ndarray,
    t: np.ndarray,
) -> None:
    """Write the states (x, y, vx, vy) of agents ``(m,)`` at times ``t``
    into ``out`` ``(m, len(t), 4)``, in closed form for motion that is
    at ``(x0, y0)`` with ``heading`` at t = 0, with constant speed and
    heading rate ``omega``.  With ``noisy``, the x and y columns of
    ``out`` hold each step's position noise on entry and the pose is
    added to it.  Agents with ``abs(omega) < 1e-12`` drive straight.
    Each branch is computed on its own agents only, one coordinate at a
    time in one scratch array, and each element goes through the same
    IEEE operations as the scalar formula."""
    straight = np.abs(omega) < 1e-12
    for curved, mask in ((False, straight), (True, ~straight)):
        if not mask.any():
            continue
        rows = slice(None) if mask.all() else np.flatnonzero(mask)
        dst = out if isinstance(rows, slice) else out[rows]
        hd, v, w = heading[rows, None], speed[rows, None], omega[rows, None]
        pose = np.empty(dst.shape[:2])
        for col, anchor in ((0, x0[rows, None]), (1, y0[rows, None])):
            if curved:  # h = heading + omega * t, r = speed / omega
                np.multiply(w, t, out=pose)
                np.add(hd, pose, out=pose)
                if col == 0:
                    np.sin(pose, out=pose)
                    np.multiply(v, pose, out=dst[..., 3])
                    np.subtract(pose, np.sin(hd), out=pose)
                else:
                    np.cos(pose, out=pose)
                    np.multiply(v, pose, out=dst[..., 2])
                    np.subtract(np.cos(hd), pose, out=pose)
                np.multiply(v / w, pose, out=pose)
            else:
                trig = (np.cos if col == 0 else np.sin)(hd)
                dst[..., 2 + col] = v * trig
                np.multiply(v, t, out=pose)
                np.multiply(pose, trig, out=pose)
            np.add(anchor, pose, out=pose)
            if noisy:  # noise + pose, bit for bit pose + noise
                np.add(dst[..., col], pose, out=dst[..., col])
            else:
                dst[..., col] = pose
        if dst is not out:
            out[rows] = dst


def _within_limit(a: np.ndarray) -> bool:
    """Every value of ``a`` is at most ``TRACK_LIMIT`` in magnitude;
    false for NaN and infinities too."""
    return a.size == 0 or bool(a.min() >= -TRACK_LIMIT and a.max() <= TRACK_LIMIT)


def _slot_order(sv_xy: np.ndarray, tv_xy: np.ndarray) -> np.ndarray:
    """Each episode's neighbors ``(n, k_sv)`` in ascending distance of
    their positions ``sv_xy`` ``(n, k_sv, 2)`` from the target's
    ``tv_xy`` ``(n, 2)``, by ``math.hypot`` and stable on ties."""
    n, k_sv = sv_xy.shape[:2]
    dx = (sv_xy[..., 0] - tv_xy[:, 0, None]).ravel().tolist()
    dy = (sv_xy[..., 1] - tv_xy[:, 1, None]).ravel().tolist()
    dist = np.fromiter(map(math.hypot, dx, dy), dtype=np.float64, count=n * k_sv)
    return np.argsort(dist.reshape(n, k_sv), axis=1, kind="stable")


def _draw(spec: TaskSpec, tracks: np.ndarray, svs: np.ndarray) -> tuple[np.ndarray, ...]:
    """A task's random draws, episode by episode in a fixed order:
    anchor x and y, heading, speed, curvature or turn angle, the
    target's position noise, then per neighbor its longitudinal and
    lateral offsets, speed jitter and position noise.  Noise goes
    straight into the x and y columns of ``tracks`` and ``svs``; the
    rest is returned as ``(x0, y0, heading, speed, bend)`` per episode
    and ``(lon, lat, jitter)`` per neighbor."""
    rng = np.random.default_rng(spec.seed)
    n, k_sv = spec.n_samples, spec.k_sv
    x0, y0, heading, speeds, bend = (np.empty(n) for _ in range(5))
    lon, lat, jitter = (np.empty((n, k_sv)) for _ in range(3))
    bend_range = {"arc": spec.curvature_range, "turn": spec.turn_angle_range}.get(spec.kind)
    uniform, normal, sigma = rng.uniform, rng.normal, spec.noise_sigma
    noisy, steps = sigma > 0, tracks.shape[1]
    for i in range(n):
        x0[i] = uniform(-50.0, 50.0)
        y0[i] = uniform(-50.0, 50.0)
        heading[i] = uniform(0.0, 2.0 * math.pi)
        speeds[i] = uniform(*spec.speed_range)
        if bend_range:
            bend[i] = uniform(*bend_range)
        if noisy:
            tracks[i, :, :2] = normal(0.0, sigma, size=(steps, 2))
        for k in range(k_sv):
            lon[i, k] = uniform(-15.0, 15.0)
            lat[i, k] = uniform(-6.0, 6.0)
            jitter[i, k] = uniform(-1.0, 1.0)
            if noisy:
                svs[i, k, :, :2] = normal(0.0, sigma, size=(spec.t_obs, 2))
    return x0, y0, heading, speeds, bend, lon, lat, jitter


def _out_of_scale(spec: TaskSpec) -> ValueError:
    return ValueError(
        f"kind {spec.kind}, seed {spec.seed} draws non-finite tracks or values beyond "
        f"{TRACK_LIMIT:g} m or m/s: its noise_sigma, dt or a range is out of scale"
    )


@np.errstate(all="ignore")  # non-finite tracks are refused by the bound check
def _generate(spec: TaskSpec, label: int) -> tuple[Scenes, np.ndarray]:
    """A task's samples and the target vehicles' whole tracks (n,
    t_obs + t_pred, 4), which CSV export writes in full.

    The draws (:func:`_draw`) are only stored.  Then one closed-form
    rollout over every (episode, step) writes the targets: the history
    turns at the heading rate ``omega_obs``, the future at
    ``omega_pred``.  Neighbors keep ``omega_obs`` throughout and take
    their slots by distance from the target at the decision step:
    their positions there come first, their draws move to their slots,
    and one rollout over every (episode, neighbor, step) writes them.
    With a finite dt the history is exactly the steps with t <= 0; with
    a non-finite one every track is non-finite either way.  A spec with
    a track value that is not finite or exceeds ``TRACK_LIMIT`` in
    magnitude is a ValueError naming its kind and seed."""
    n, t_obs, k_sv = spec.n_samples, spec.t_obs, spec.k_sv
    noisy = spec.noise_sigma > 0
    tracks = np.empty((n, t_obs + spec.t_pred, 4))
    svs = np.empty((n, k_sv, t_obs, 4))
    try:
        x0, y0, heading, speeds, bend, lon, lat, jitter = _draw(spec, tracks, svs)
    except (ValueError, OverflowError):  # a range too wide to draw from
        raise _out_of_scale(spec) from None

    t = (np.arange(t_obs + spec.t_pred) - (t_obs - 1)) * spec.dt
    if spec.kind == "straight":
        omega_obs = omega_pred = np.zeros(n)
    elif spec.kind == "arc":
        omega_obs = omega_pred = speeds * bend
    else:  # turn: straight approach, the heading change is all ahead
        omega_obs, omega_pred = np.zeros(n), bend / (spec.t_pred * spec.dt)
    _roll_out(tracks[:, :t_obs], noisy, x0, y0, heading, speeds, omega_obs, t[:t_obs])
    _roll_out(tracks[:, t_obs:], noisy, x0, y0, heading, speeds, omega_pred, t[t_obs:])

    if k_sv:
        cos_h, sin_h = np.cos(heading)[:, None], np.sin(heading)[:, None]
        sv_x0 = x0[:, None] + lon * cos_h - lat * sin_h
        sv_y0 = y0[:, None] + lon * sin_h + lat * cos_h
        sv_speed = np.maximum(speeds[:, None] + jitter, 0.5)
        sv_heading, sv_omega = np.repeat(heading, k_sv), np.repeat(omega_obs, k_sv)
        last = np.empty((n * k_sv, 1, 4))
        if noisy:
            last[:, 0, :2] = svs[:, :, -1, :2].reshape(-1, 2)
        decision = t[t_obs - 1 : t_obs]
        _roll_out(last, noisy, sv_x0.ravel(), sv_y0.ravel(), sv_heading, sv_speed.ravel(), sv_omega, decision)
        slots = _slot_order(last[:, 0, :2].reshape(n, k_sv, 2), tracks[:, t_obs - 1, :2])
        rows = np.arange(n)[:, None]
        if noisy:
            svs[..., :2] = svs[rows, slots, :, :2]
        sv_x0, sv_y0, sv_speed = (a[rows, slots].ravel() for a in (sv_x0, sv_y0, sv_speed))
        svs_flat = svs.reshape(n * k_sv, t_obs, 4)
        _roll_out(svs_flat, noisy, sv_x0, sv_y0, sv_heading, sv_speed, sv_omega, t[:t_obs])

    if not (_within_limit(tracks) and _within_limit(svs)):
        raise _out_of_scale(spec)
    scenes = Scenes(
        tracks[:, :t_obs].copy(),
        svs,
        np.ones((n, k_sv), dtype=bool),
        tracks[:, -1, :2].copy(),
        speeds,
        np.full(n, label),
    )
    return scenes, tracks


def generate_task(spec: TaskSpec, label: int = 0) -> Scenes:
    """Draw a task's samples; fully determined by ``spec.seed``."""
    return _generate(spec, label)[0]


def check_episode_geometry(tasks: Sequence[TaskSpec]) -> None:
    """Reject a stream that is empty or whose tasks differ from
    ``tasks[0]`` in t_obs, t_pred, dt or k_sv; the error names the task
    and the field."""
    if not tasks:
        raise ValueError("a stream needs at least one task")
    for i, task in enumerate(tasks[1:], start=1):
        for name in ("t_obs", "t_pred", "dt", "k_sv"):
            if getattr(task, name) != getattr(tasks[0], name):
                raise ValueError(
                    f"tasks[{i}].{name} is {getattr(task, name)}, tasks[0].{name} is "
                    f"{getattr(tasks[0], name)}: all tasks in a stream must share episode geometry"
                )


def task_datasets(tasks: Sequence[TaskSpec]) -> list[tuple[Scenes, Scenes]]:
    """Per-task (train, test) pairs under the fixed 80/20 index split:
    the first four fifths of each task's samples train, the rest test.
    Content comes only from each task's own seed, so one call serves
    every repetition and strategy of an experiment."""
    check_episode_geometry(tasks)
    out = []
    for i, task in enumerate(tasks):
        try:
            scenes = generate_task(task, label=i + 1)
        except ValueError as exc:
            raise ValueError(f"tasks[{i}]: {exc}") from None
        n_train = (4 * len(scenes)) // 5
        rows = np.arange(len(scenes))
        out.append((scenes.take(rows[:n_train]), scenes.take(rows[n_train:])))
    return out


def build_stream(trains: Sequence[Sized], seed: int) -> np.ndarray:
    """Training stream as a row order over the train halves ``trains``
    of ``task_datasets`` (as samples or as their encoded rows: only the
    lengths are read), concatenated in task order: each task's rows
    stay together and are shuffled by ``seed`` (vary it between
    repetitions)."""
    orders = []
    start = 0
    for i, train in enumerate(trains):
        orders.append(start + np.random.default_rng([seed, i]).permutation(len(train)))
        start += len(train)
    return np.concatenate(orders)


def write_task_csv(
    spec: TaskSpec, label: int, path: Path, drawn: tuple[Scenes, np.ndarray] | None = None
) -> Scenes:
    """Write one task as a track table and return its samples.

    Episodes start ``max(100, t_obs + t_pred)`` frames apart, so their
    frame ranges are disjoint and re-ingestion recovers exactly one
    sample per episode with the same neighbor assignment.  ``drawn`` is
    the task's samples and whole target tracks when the caller has
    drawn them already (:func:`write_task_csvs`); by default the task
    is drawn here.
    """
    scenes, tracks = drawn if drawn is not None else _generate(spec, label)
    stride = max(100, spec.t_obs + spec.t_pred)
    with atomic_write(path) as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        # The csv writer's lines, one block per episode: no field needs
        # quoting, and floats are Python floats, whose repr is the
        # shortest round-tripping form.
        for idx, (tv_track, sv_tracks) in enumerate(zip(tracks.tolist(), scenes.svs.tolist())):
            base = idx * stride
            lines = [
                f"e{idx:05d}_tv,{base + f},{x!r},{y!r},{vx!r},{vy!r},tv,{label}\r\n"
                for f, (x, y, vx, vy) in enumerate(tv_track)
            ]
            for k, track in enumerate(sv_tracks):
                lines.extend(
                    f"e{idx:05d}_sv{k},{base + f},{x!r},{y!r},{vx!r},{vy!r},sv,{label}\r\n"
                    for f, (x, y, vx, vy) in enumerate(track)
                )
            fh.write("".join(lines))
    return scenes


def write_task_csvs(tasks: Sequence[TaskSpec], out_dir: Path) -> list[tuple[Path, Scenes]]:
    """Write ``tasks[i]`` as ``out_dir/task_{i+1:02d}.csv`` with label
    ``i + 1``; returns each file with its samples.  All or nothing:
    every task is drawn before ``out_dir`` is created, so a refused
    task (a ValueError naming ``tasks[i]``) leaves no file behind."""
    drawn = []
    for i, task in enumerate(tasks):
        try:
            drawn.append(_generate(task, i + 1))
        except ValueError as exc:
            raise ValueError(f"tasks[{i}]: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (task, task_draw) in enumerate(zip(tasks, drawn)):
        path = out_dir / f"task_{i + 1:02d}.csv"
        written.append((path, write_task_csv(task, i + 1, path, task_draw)))
    return written


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


def _index_by_frame(segments: dict[str, list[list[_Row]]]) -> dict[int, list[tuple[str, list[_Row]]]]:
    """Map each frame to the ``(track_id, segment)`` pairs alive at it,
    in track order.  A track's frames are unique, so at most one of its
    segments is alive at any frame."""
    alive: dict[int, list[tuple[str, list[_Row]]]] = {}
    for track_id, segs in segments.items():
        for seg in segs:
            entry = (track_id, seg)
            for row in seg:
                alive.setdefault(row[0], []).append(entry)
    return alive


def ingest_csv(
    path: Path | str,
    t_obs: int = 10,
    t_pred: int = 30,
    k_sv: int = 4,
) -> Scenes:
    """Samples from a track table via sliding windows.

    Every contiguous ``t_obs + t_pred`` frame window of a tv track
    yields one sample.  Neighbor slots take the k_sv tracks nearest to
    the target at the decision step, ties broken by track id, among
    those whose segment alive at the window's first frame covers the
    whole observation window; missing slots are zero-filled and masked
    out.  Windows never span frame gaps (gaps are counted and logged).
    Each track is segmented once and candidates are looked up by frame,
    so the cost is linear in rows while the number of tracks alive at
    one frame stays bounded.  The windows' rows are collected as lists
    and become the table's arrays once per file.
    """
    path = Path(path)
    tracks, gaps = _parse_rows(path)
    if gaps:
        logger.warning("%s: %d frame gap(s); windows do not span them", path, gaps)

    segments = {track_id: _segments(track) for track_id, track in tracks.items()}
    alive = _index_by_frame(segments)

    tv: list[tuple[float, ...]] = []
    svs: list[tuple[float, ...]] = []
    mask: list[bool] = []
    ends: list[tuple[float, float]] = []
    speeds: list[float] = []
    labels: list[int] = []
    window = t_obs + t_pred
    padding = [(0.0, 0.0, 0.0, 0.0)] * t_obs
    for tv_id, track in tracks.items():
        if track.role != "tv":
            continue
        for seg in segments[tv_id]:
            if len(seg) < window:
                continue
            for s in range(len(seg) - window + 1):
                obs = seg[s : s + t_obs]
                t_c_row = obs[-1]
                end_row = seg[s + window - 1]
                first, last = obs[0][0], t_c_row[0]

                candidates = []
                for other_id, oseg in alive[first]:
                    if other_id == tv_id or oseg[-1][0] < last:
                        continue
                    off = first - oseg[0][0]
                    rows = oseg[off : off + t_obs]
                    d = math.hypot(rows[-1][1] - t_c_row[1], rows[-1][2] - t_c_row[2])
                    candidates.append((d, other_id, rows))
                candidates.sort(key=lambda c: (c[0], c[1]))

                tv.extend(r[1:5] for r in obs)
                for k in range(k_sv):
                    if k < len(candidates):
                        svs.extend(r[1:5] for r in candidates[k][2])
                    else:
                        svs.extend(padding)
                    mask.append(k < len(candidates))
                ends.append(end_row[1:3])
                speeds.append(math.hypot(t_c_row[3], t_c_row[4]))
                labels.append(t_c_row[5])
    n = len(labels)
    return Scenes(
        np.array(tv, dtype=np.float64).reshape(n, t_obs, 4),
        np.array(svs, dtype=np.float64).reshape(n, k_sv, t_obs, 4),
        np.array(mask, dtype=bool).reshape(n, k_sv),
        np.array(ends, dtype=np.float64).reshape(n, 2),
        np.array(speeds, dtype=np.float64),
        np.array(labels, dtype=np.int64),
    )
