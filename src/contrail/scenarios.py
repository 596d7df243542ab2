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
with the same schema into one table per file.  The writer formats each
episode as one block of lines, byte for byte what a ``csv.writer`` row
per frame with ``repr`` floats gives, so only one episode is ever held
as Python values.  The reader parses ``CHUNK_ROWS`` rows at a time into
numpy columns and cuts windows from them with array operations.
Positions and velocities must be finite and at most ``TRACK_LIMIT`` in
magnitude on both sides: a task whose drawn tracks break the bound is
refused before any file is written, and so is a CSV row, with an error
naming ``path:line``.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Sequence, Sized

import numpy as np

from .core import Scenes, atomic_write, hypot_rows, open_text

__all__ = [
    "TaskSpec",
    "build_stream",
    "check_episode_geometry",
    "generate_task",
    "ingest_csv",
    "task_datasets",
    "train_count",
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
        if self.seed < 0:
            raise ValueError(f"seed is {self.seed}: it must be a non-negative integer")
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
    dist = hypot_rows((sv_xy[..., 0] - tv_xy[:, 0, None]).ravel(), (sv_xy[..., 1] - tv_xy[:, 1, None]).ravel())
    return np.argsort(dist.reshape(n, k_sv), axis=1, kind="stable")


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> Callable[[], float]:
    """A draw of ``rng.uniform(lo, hi)``, bit for bit and from the same
    stream: numpy computes ``lo + (hi - lo) * rng.random()`` too, but
    checks its bounds on every call.  They are checked here once, with
    numpy's errors: an OverflowError when ``hi - lo`` is not finite, a
    ValueError when it is negative."""
    lo, hi = float(lo), float(hi)
    width = hi - lo
    if not math.isfinite(width):
        raise OverflowError("high - low range exceeds valid bounds")
    if width < 0:
        raise ValueError("high - low < 0")
    random = rng.random
    return lambda: lo + width * random()


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
    draw_xy, draw_heading = _uniform(rng, -50.0, 50.0), _uniform(rng, 0.0, 2.0 * math.pi)
    draw_speed = _uniform(rng, *spec.speed_range)
    draw_bend = _uniform(rng, *bend_range) if bend_range else None
    draw_lon, draw_lat = _uniform(rng, -15.0, 15.0), _uniform(rng, -6.0, 6.0)
    draw_jitter = _uniform(rng, -1.0, 1.0)
    normal, sigma = rng.normal, spec.noise_sigma
    noisy, steps = sigma > 0, tracks.shape[1]
    for i in range(n):
        x0[i] = draw_xy()
        y0[i] = draw_xy()
        heading[i] = draw_heading()
        speeds[i] = draw_speed()
        if draw_bend:
            bend[i] = draw_bend()
        if noisy:
            tracks[i, :, :2] = normal(0.0, sigma, size=(steps, 2))
        for k in range(k_sv):
            lon[i, k] = draw_lon()
            lat[i, k] = draw_lat()
            jitter[i, k] = draw_jitter()
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


def train_count(n_samples: int) -> int:
    """The train half of ``n_samples`` under the fixed 80/20 split: four fifths, rounded down."""
    return (4 * n_samples) // 5


def task_datasets(tasks: Sequence[TaskSpec]) -> list[tuple[Scenes, Scenes]]:
    """Per-task (train, test) pairs under the fixed 80/20 index split
    (:func:`train_count`): the first rows of each task train, the rest
    test.  Content comes only from each task's own seed, so one call
    serves every repetition and strategy of an experiment."""
    check_episode_geometry(tasks)
    out = []
    for i, task in enumerate(tasks):
        try:
            scenes = generate_task(task, label=i + 1)
        except ValueError as exc:
            raise ValueError(f"tasks[{i}]: {exc}") from None
        n_train = train_count(len(scenes))
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
    is drawn here.  Each episode becomes Python floats only while its
    own lines are built and written, so memory beyond the task's arrays
    stays at one episode's lines.
    """
    scenes, tracks = drawn if drawn is not None else _generate(spec, label)
    stride = max(100, spec.t_obs + spec.t_pred)
    with atomic_write(path) as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        # The csv writer's lines, one block per episode: no field needs
        # quoting, and floats are Python floats, whose repr is the
        # shortest round-tripping form.
        for idx in range(len(tracks)):
            tv_track, sv_tracks = tracks[idx].tolist(), scenes.svs[idx].tolist()
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


# Rows of a track table read at a time, and windows filled at a time:
# only one chunk of rows is ever held as Python objects.
CHUNK_ROWS = 1024

# Largest magnitude of a frame or task label, so that every frame
# difference fits in int64.
INT_LIMIT = 2**62


class _BrokenRule(Exception):
    """A chunk of rows breaks the row rule its message states."""


def _ints(column: tuple[str, ...], n: int) -> np.ndarray | None:
    """``column`` parsed by ``int`` into int64, or None if a value is
    beyond it: that rule comes last, after the row's later fields parse."""
    try:
        return np.fromiter(map(int, column), np.int64, n)
    except OverflowError:
        return None


def _chunk_columns(
    rows: list[list[str]], lineno: int, ids: dict[str, int], roles: dict[str, str]
) -> tuple[np.ndarray, ...]:
    """One chunk of rows, read from ``lineno`` on, as columns: track
    codes, frames, states ``(n, 4)`` (x, y, vx, vy), labels and line
    numbers, blank rows left out.  Tracks new to ``ids`` get the next
    codes, by first appearance, and their first row's role in
    ``roles``.  Each row rule of :func:`ingest_csv`, in its order, is
    checked over the whole chunk; the first one broken raises
    :class:`_BrokenRule`."""
    lines = np.arange(lineno, lineno + len(rows))
    widths = set(map(len, rows))
    if widths != {len(CSV_HEADER)}:
        if not widths <= {0, len(CSV_HEADER)}:
            raise _BrokenRule(f"expected {len(CSV_HEADER)} fields")
        lines = lines[np.fromiter(map(bool, rows), bool, len(rows))]
        rows = list(filter(None, rows))
    n = len(rows)
    track, frame, x, y, vx, vy, role, label = zip(*rows) if n else ((),) * len(CSV_HEADER)
    try:
        frames = _ints(frame, n)
        states = np.fromiter(map(float, chain.from_iterable(zip(x, y, vx, vy))), np.float64, 4 * n)
        labels = _ints(label, n)
    except ValueError as exc:
        raise _BrokenRule(f"malformed row: {exc}") from None
    if not _within_limit(states):
        raise _BrokenRule(f"non-finite x, y, vx or vy, or one beyond {TRACK_LIMIT:g} m or m/s in magnitude")
    if not set(role) <= {"tv", "sv"}:
        raise _BrokenRule("agent_role must be 'tv' or 'sv'")
    first_role = dict(zip(reversed(track), reversed(role)))
    for track_id in dict.fromkeys(track):
        if track_id not in ids:
            ids[track_id], roles[track_id] = len(ids), first_role[track_id]
    if (known := tuple(map(roles.__getitem__, track))) != role:
        raise _BrokenRule(f"track {next(t for t, r, k in zip(track, role, known) if r != k)} changes role")
    for ints in (frames, labels):
        if ints is None or n and not (ints.min() >= -INT_LIMIT and ints.max() <= INT_LIMIT):
            raise _BrokenRule("frame or task_label beyond 2**62 in magnitude")
    codes = np.fromiter(map(ids.__getitem__, track), np.intp, n)
    return codes, frames, states.reshape(n, 4), labels, lines


def _read_columns(path: Path) -> tuple[list[np.ndarray], dict[str, int], dict[str, str]]:
    """The rows of the table at ``path`` as the columns of
    :func:`_chunk_columns`, in file order, with each track's code and
    role.  The table is read ``CHUNK_ROWS`` rows at a time; a chunk that
    breaks a row rule is read again one row at a time, so the first bad
    row as read raises a ValueError naming ``path:line``."""
    ids: dict[str, int] = {}
    roles: dict[str, str] = {}
    parts = [[column] for column in _chunk_columns([], 2, ids, roles)]  # typed, empty
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and header != CSV_HEADER:
            raise ValueError(f"{path}: expected header {CSV_HEADER}, got {header}")
        lineno = 2
        while rows := list(islice(reader, CHUNK_ROWS)):
            try:
                columns = _chunk_columns(rows, lineno, ids, roles)
            except _BrokenRule:
                # Each rule holds row by row, so some row breaks one.
                # ``roles`` may hold the chunk's new tracks already, as
                # single rows would set them.
                for at, row in enumerate(rows, start=lineno):
                    try:
                        _chunk_columns([row], at, ids, roles)
                    except _BrokenRule as exc:
                        raise ValueError(f"{path}:{at}: {exc}") from None
                raise
            for part, column in zip(parts, columns):
                part.append(column)
            lineno += len(rows)
    # Each column's chunks are dropped as soon as they are joined.
    return [np.concatenate(parts.pop(0)) for _ in range(len(parts))], ids, roles


def _group(
    path: Path, codes: np.ndarray, frames: np.ndarray, lines: np.ndarray, names: list[str]
) -> tuple[np.ndarray, ...]:
    """One stable sort of the rows by (track, frame): the file rows in
    that order, their track codes and frames, and for each the end of
    its segment (its track's run of consecutive frames), as positions in
    that order.  A frame repeated within a track raises a ValueError at
    the first such track by appearance and its smallest line; frame
    gaps are counted and logged."""
    order = np.lexsort((frames, codes))  # stable: a repeated frame sorts after its first line
    codes, frames = codes[order], frames[order]
    same_track = codes[1:] == codes[:-1]
    step = np.diff(frames)
    repeats = np.flatnonzero(same_track & (step == 0)) + 1
    if len(repeats):
        repeats = repeats[codes[repeats] == codes[repeats].min()]
        first = repeats[np.argmin(lines[order[repeats]])]
        raise ValueError(
            f"{path}:{lines[order[first]]}: duplicate frames within track {names[codes[first]]}: "
            f"frame {frames[first]} appears again"
        )
    gaps = np.count_nonzero(same_track & (step > 1))
    if gaps:
        logger.warning("%s: %d frame gap(s); windows do not span them", path, gaps)
    bounds = np.append(np.flatnonzero(~same_track | (step != 1)) + 1, len(codes))
    return order, codes, frames, np.repeat(bounds, np.diff(bounds, prepend=0))


def _alive_at(index_frames: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per window, the range ``[lo, hi)`` of the frame-sorted neighbor
    index ``index_frames`` at its first frame ``first``: one row for
    each track alive there at most."""
    return np.searchsorted(index_frames, first, "left"), np.searchsorted(index_frames, first, "right")


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

    The table is read ``CHUNK_ROWS`` rows at a time, each chunk parsed
    into numpy columns, so no more than one chunk of rows is ever held
    as Python objects.  A bad row raises a ValueError naming
    ``path:line``: the first bad row as read, checked in a fixed order
    (field count, parsing, the ``TRACK_LIMIT`` bound, the role, a role
    change, frames and labels beyond ``INT_LIMIT``).  A frame repeated
    within a track is named once every row is read.  One stable sort by
    (track, frame) gives the segments, and a frame-sorted index of the
    rows that can open a neighbor's observation gives each window only
    the tracks alive at its first frame, so the cost is linear in rows
    while that number stays bounded.  Windows fill the table's
    preallocated arrays ``CHUNK_ROWS`` at a time.  Memory is the
    columns (64 bytes a row) and a few index arrays beside the table.
    """
    path = Path(path)
    (codes, frames, states, labels, lines), ids, roles = _read_columns(path)
    names = list(ids)
    order, codes, frames, seg_end = _group(path, codes, frames, lines, names)
    at = np.arange(len(order))
    is_tv = np.fromiter((roles[name] == "tv" for name in names), bool, len(names))
    starts = np.flatnonzero((at + t_obs + t_pred <= seg_end) & is_tv[codes])
    index = np.flatnonzero(at + t_obs <= seg_end)  # rows that open t_obs frames of their track
    index = index[np.argsort(frames[index], kind="stable")]
    index_frames = frames[index]
    id_rank = np.empty(len(names), np.intp)
    id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))

    n, steps = len(starts), np.arange(t_obs)
    tv, svs = np.empty((n, t_obs, 4)), np.zeros((n, k_sv, t_obs, 4))
    mask, ends = np.zeros((n, k_sv), dtype=bool), np.empty((n, 2))
    window_labels = np.empty(n, dtype=np.int64)
    for c in range(0, n, CHUNK_ROWS):
        first = starts[c : c + CHUNK_ROWS]
        out = slice(c, c + len(first))
        now = order[first + t_obs - 1]  # each window's decision row
        tv[out] = states[order[first[:, None] + steps]]
        ends[out] = states[order[first + t_obs + t_pred - 1], :2]
        window_labels[out] = labels[now]

        lo, hi = _alive_at(index_frames, frames[first])
        win = np.repeat(np.arange(len(first)), hi - lo)
        cand = index[lo[win] + np.arange(len(win)) - (np.cumsum(hi - lo) - (hi - lo))[win]]
        other = codes[cand] != codes[first[win]]
        win, cand = win[other], cand[other]
        last = order[cand + t_obs - 1]
        dist = hypot_rows(states[last, 0] - states[now[win], 0], states[last, 1] - states[now[win], 1])
        by = np.lexsort((id_rank[codes[cand]], dist, win))
        win, cand = win[by], cand[by]
        slot = np.arange(len(win)) - np.searchsorted(win, win)
        kept = slot < k_sv
        win, slot, cand = win[kept] + c, slot[kept], cand[kept]
        svs[win, slot] = states[order[cand[:, None] + steps]]
        mask[win, slot] = True
    return Scenes(tv, svs, mask, ends, window_labels)
