"""Synthetic driving scenarios and CSV ingestion.

Each task is a family of short episodes drawn from one kinematic
pattern: constant-velocity cruising ("straight"), gentle constant-
curvature drift ("arc", curving left by default), or a sharp heading
change unfolding over the prediction horizon ("turn", to the right by
default).  Episodes place the vehicle anywhere in the world with any
heading, so only the target-centric geometry carries task identity.
Tracks are exact closed-form rollouts plus optional Gaussian position
noise; velocities stay exact.

The CSV side round-trips generated data through a plain track table
(one row per agent per frame) and can ingest externally recorded files
with the same schema.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import AgentState, GroundTruth, Sample, Scene

__all__ = [
    "TaskSpec",
    "build_stream",
    "check_episode_geometry",
    "generate_task",
    "ingest_csv",
    "preset_task",
    "task_datasets",
    "write_task_csv",
]

logger = logging.getLogger(__name__)

KINDS = ("straight", "arc", "turn")

CSV_HEADER = ["track_id", "frame", "x", "y", "vx", "vy", "agent_role", "task_label"]


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


def preset_task(kind: str, n_samples: int, seed: int = 0, noise_sigma: float = 0.15, **overrides) -> TaskSpec:
    """Family presets whose endpoint clusters are well separated."""
    return TaskSpec(kind=kind, n_samples=n_samples, seed=seed, noise_sigma=noise_sigma, **overrides)


def _pose_on(
    anchor: tuple[float, float],
    heading: float,
    speed: float,
    omega: float,
    t: float,
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


def _episode_track(
    spec: TaskSpec,
    anchor: tuple[float, float],
    heading: float,
    speed: float,
    omega_obs: float,
    omega_pred: float,
    n_future: int,
    rng: np.random.Generator,
) -> list[AgentState]:
    """States for one agent at dt steps: t_obs history ending at the
    anchor time plus n_future prediction steps, with position noise."""
    states = []
    for i in range(spec.t_obs + n_future):
        t = (i - (spec.t_obs - 1)) * spec.dt
        if t <= 0:
            x, y, h = _pose_on(anchor, heading, speed, omega_obs, t)
        else:
            x, y, h = _pose_on(anchor, heading, speed, omega_pred, t)
        if spec.noise_sigma > 0:
            x += rng.normal(0.0, spec.noise_sigma)
            y += rng.normal(0.0, spec.noise_sigma)
        states.append(
            AgentState(x=x, y=y, vx=speed * math.cos(h), vy=speed * math.sin(h))
        )
    return states


@dataclass
class _Episode:
    """Full tracks behind one sample, kept so CSV export can write the
    whole future path rather than just the endpoint."""

    tv_track: list[AgentState]
    sv_tracks: list[list[AgentState]]
    sample: Sample


def _generate_episodes(spec: TaskSpec, label: int) -> list[_Episode]:
    rng = np.random.default_rng(spec.seed)
    episodes = []
    for _ in range(spec.n_samples):
        anchor = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        heading = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(*spec.speed_range)
        horizon = spec.t_pred * spec.dt
        if spec.kind == "straight":
            omega_obs = omega_pred = 0.0
        elif spec.kind == "arc":
            kappa = rng.uniform(*spec.curvature_range)
            omega_obs = omega_pred = speed * kappa
        else:  # turn: straight approach, the heading change is all ahead
            omega_obs = 0.0
            angle = rng.uniform(*spec.turn_angle_range)
            omega_pred = angle / horizon

        tv_track = _episode_track(
            spec, anchor, heading, speed, omega_obs, omega_pred, spec.t_pred, rng
        )

        sv_tracks = []
        for _ in range(spec.k_sv):
            lon = rng.uniform(-15.0, 15.0)
            lat = rng.uniform(-6.0, 6.0)
            sv_anchor = (
                anchor[0] + lon * math.cos(heading) - lat * math.sin(heading),
                anchor[1] + lon * math.sin(heading) + lat * math.cos(heading),
            )
            sv_speed = max(0.5, speed + rng.uniform(-1.0, 1.0))
            sv_tracks.append(
                _episode_track(
                    spec, sv_anchor, heading, sv_speed, omega_obs, omega_obs, 0, rng
                )
            )
        # Neighbor slots ordered by distance at the decision step, matching
        # how ingestion ranks candidate neighbors.
        tv_at_tc = tv_track[spec.t_obs - 1]
        sv_tracks.sort(
            key=lambda tr: math.hypot(
                tr[spec.t_obs - 1].x - tv_at_tc.x, tr[spec.t_obs - 1].y - tv_at_tc.y
            )
        )

        scene = Scene(
            tv_history=tuple(tv_track[: spec.t_obs]),
            sv_histories=tuple(tuple(tr) for tr in sv_tracks),
            sv_mask=tuple(True for _ in sv_tracks),
            t_c=spec.t_obs - 1,
        )
        end = tv_track[-1]
        truth = GroundTruth(endpoint=(end.x, end.y), speed_v=speed)
        episodes.append(
            _Episode(tv_track, sv_tracks, Sample(scene, truth, task_label=label))
        )
    return episodes


def generate_task(spec: TaskSpec, label: int = 0) -> list[Sample]:
    """Draw a task's samples; fully determined by ``spec.seed``."""
    return [ep.sample for ep in _generate_episodes(spec, label)]


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


def task_datasets(tasks: Sequence[TaskSpec]) -> list[tuple[list[Sample], list[Sample]]]:
    """Per-task (train, test) pairs under the fixed 80/20 index split:
    the first four fifths of each task's samples train, the rest test.
    Content comes only from each task's own seed, so one call serves
    every repetition and strategy of an experiment."""
    check_episode_geometry(tasks)
    out = []
    for i, task in enumerate(tasks):
        samples = generate_task(task, label=i + 1)
        n_train = (4 * len(samples)) // 5
        out.append((samples[:n_train], samples[n_train:]))
    return out


def build_stream(datasets: Sequence[tuple[list[Sample], list[Sample]]], seed: int) -> list[Sample]:
    """Training stream: the train halves of ``datasets`` in task order,
    each shuffled by ``seed`` (vary it between repetitions).  The test
    halves never enter it."""
    stream: list[Sample] = []
    for i, (train, _) in enumerate(datasets):
        order = np.random.default_rng([seed, i]).permutation(len(train))
        stream.extend(train[int(j)] for j in order)
    return stream


def write_task_csv(spec: TaskSpec, label: int, path: Path) -> list[Sample]:
    """Write one task as a track table and return its samples.

    Episodes get disjoint frame ranges so re-ingestion recovers exactly
    one sample per episode with the same neighbor assignment.
    """
    episodes = _generate_episodes(spec, label)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for idx, ep in enumerate(episodes):
            base = idx * 100
            tv_id = f"e{idx:05d}_tv"
            for f, st in enumerate(ep.tv_track):
                writer.writerow(
                    [tv_id, base + f, repr(st.x), repr(st.y), repr(st.vx), repr(st.vy), "tv", label]
                )
            for k, track in enumerate(ep.sv_tracks):
                sv_id = f"e{idx:05d}_sv{k}"
                for f, st in enumerate(track):
                    writer.writerow(
                        [sv_id, base + f, repr(st.x), repr(st.y), repr(st.vx), repr(st.vy), "sv", label]
                    )
    return [ep.sample for ep in episodes]


@dataclass
class _Track:
    role: str
    rows: list[tuple[int, float, float, float, float, int]] = field(default_factory=list)


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
                x, y, vx, vy = (float(v) for v in row[2:6])
                role = row[6]
                label = int(row[7])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
            if not all(math.isfinite(v) for v in (x, y, vx, vy)):
                raise ValueError(f"{path}:{lineno}: non-finite x, y, vx or vy")
            if role not in ("tv", "sv"):
                raise ValueError(f"{path}:{lineno}: agent_role must be 'tv' or 'sv'")
            track = tracks.setdefault(track_id, _Track(role=role))
            if track.role != role:
                raise ValueError(f"{path}:{lineno}: track {track_id} changes role")
            track.rows.append((frame, x, y, vx, vy, label))

    gaps = 0
    for track in tracks.values():
        track.rows.sort(key=lambda r: r[0])
        frames = [r[0] for r in track.rows]
        if len(set(frames)) != len(frames):
            raise ValueError(f"{path}: duplicate frames within a track")
        gaps += sum(1 for a, b in zip(frames, frames[1:]) if b - a > 1)
    return tracks, gaps


def _segments(track: _Track) -> list[list[tuple[int, float, float, float, float, int]]]:
    segs: list[list] = []
    for row in track.rows:
        if segs and row[0] == segs[-1][-1][0] + 1:
            segs[-1].append(row)
        else:
            segs.append([row])
    return segs


def ingest_csv(
    path: Path | str,
    t_obs: int = 10,
    t_pred: int = 30,
    k_sv: int = 4,
) -> list[Sample]:
    """Samples from a track table via sliding windows.

    Every contiguous ``t_obs + t_pred`` frame window of a tv track
    yields one sample.  Neighbor slots take the k_sv tracks nearest to
    the target at the decision step among those covering the whole
    observation window; missing slots are zero-filled and masked out.
    Windows never span frame gaps (gaps are counted and logged).
    """
    path = Path(path)
    tracks, gaps = _parse_rows(path)
    if gaps:
        logger.warning("%s: %d frame gap(s); windows do not span them", path, gaps)

    samples: list[Sample] = []
    window = t_obs + t_pred
    zero = AgentState(0.0, 0.0, 0.0, 0.0)
    for tv_id, track in tracks.items():
        if track.role != "tv":
            continue
        for seg in _segments(track):
            if len(seg) < window:
                continue
            for s in range(len(seg) - window + 1):
                obs = seg[s : s + t_obs]
                t_c_row = obs[-1]
                end_row = seg[s + window - 1]
                obs_frames = (obs[0][0], t_c_row[0])

                candidates = []
                for other_id, other in tracks.items():
                    if other_id == tv_id:
                        continue
                    for oseg in _segments(other):
                        start, stop = oseg[0][0], oseg[-1][0]
                        if start <= obs_frames[0] and stop >= obs_frames[1]:
                            off = obs_frames[0] - start
                            rows = oseg[off : off + t_obs]
                            d = math.hypot(
                                rows[-1][1] - t_c_row[1], rows[-1][2] - t_c_row[2]
                            )
                            candidates.append((d, other_id, rows))
                            break
                candidates.sort(key=lambda c: (c[0], c[1]))

                sv_histories = []
                sv_mask = []
                for k in range(k_sv):
                    if k < len(candidates):
                        rows = candidates[k][2]
                        sv_histories.append(
                            tuple(AgentState(r[1], r[2], r[3], r[4]) for r in rows)
                        )
                        sv_mask.append(True)
                    else:
                        sv_histories.append(tuple(zero for _ in range(t_obs)))
                        sv_mask.append(False)

                scene = Scene(
                    tv_history=tuple(AgentState(r[1], r[2], r[3], r[4]) for r in obs),
                    sv_histories=tuple(sv_histories),
                    sv_mask=tuple(sv_mask),
                    t_c=t_obs - 1,
                )
                truth = GroundTruth(
                    endpoint=(end_row[1], end_row[2]),
                    speed_v=math.hypot(t_c_row[3], t_c_row[4]),
                )
                samples.append(Sample(scene, truth, task_label=t_c_row[5]))
    return samples
