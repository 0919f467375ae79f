"""Synthetic calibrated rigs, ground-truth trajectories and detection
streams with pixel noise and per-camera dropout episodes.

The generated streams are the source for all statistically derived test
expectations.  Randomness is drawn from per-record substreams (seeded by
(seed, frame, camera, person)) so outputs are deterministic regardless of
generation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import TrackingSpace
from .geometry import (CameraModel, CameraRig, DegenerateDepth, PlaneSpec,
                       Point3, project)
from .sv_track import Bbox, Detection

PERSON_HALF_HEIGHT = 0.85
BBOX_HEIGHT_SLACK = 1.1
BBOX_ASPECT = 0.4


def _look_at(center: np.ndarray, aim: np.ndarray) -> np.ndarray:
    """World-to-camera rotation for a camera at `center` looking at `aim`,
    image x to the right and image y downward (z-up world)."""
    forward = aim - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def make_rig(radius: float, height: float, focal: float,
             resolution: tuple[int, int],
             aim: tuple[float, float, float] = (0.0, 0.0, 1.0)) -> list[CameraModel]:
    """Four cameras at 90-degree spacing on a circle, all aimed at `aim`.

    Pairs (0, 2) and (1, 3) end up opposite (central ray angle close to
    180 degrees).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    w, h = resolution
    K = np.array([[focal, 0.0, w / 2.0],
                  [0.0, focal, h / 2.0],
                  [0.0, 0.0, 1.0]])
    aim_pt = np.asarray(aim, dtype=float)
    cams = []
    for cam_id in range(4):
        ang = math.pi / 2.0 * cam_id
        center = np.array([radius * math.cos(ang), radius * math.sin(ang), height])
        R = _look_at(center, aim_pt)
        cams.append(CameraModel(id=cam_id, K=K, R=R, t=-R @ center))
    return cams


@dataclass
class PersonTrajectory:
    is_target: bool
    center: np.ndarray  # (frames, 3)
    top: np.ndarray
    bottom: np.ndarray


def _smooth_gate(frames: np.ndarray, intervals: list[tuple[int, int]],
                 ramp: int = 20) -> np.ndarray:
    """1 outside the intervals, 0 inside, with cosine ramps at the edges."""
    gate = np.ones(len(frames))
    for start, end in intervals:
        for i, f in enumerate(frames):
            if start <= f <= end:
                gate[i] = 0.0
            elif start - ramp < f < start:
                gate[i] = min(gate[i], 0.5 - 0.5 * math.cos(math.pi * (start - f) / ramp))
            elif end < f < end + ramp:
                gate[i] = min(gate[i], 0.5 - 0.5 * math.cos(math.pi * (f - end) / ramp))
    return gate


def synth_trajectory(kind: str, duration: int, seed: int,
                     plane: PlaneSpec | None = None,
                     on_plane_intervals: list[tuple[int, int]] | None = None,
                     off_plane_amplitude: float = 0.0,
                     offset: float = 1.2) -> PersonTrajectory:
    """Ground-truth center/top/bottom trajectories at 30 FPS.

    on_plane_jump: piecewise parabolic bounces with in-plane lateral
    motion; the center lies exactly on the plane except for an optional
    out-of-plane oscillation, which is gated to zero inside
    `on_plane_intervals`.

    off_plane_walk: constant height near 1 m, displaced `offset` meters
    from the plane.
    """
    if plane is None:
        plane = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    frames = np.arange(duration)
    # In-plane lateral axis: horizontal direction orthogonal to the normal.
    lateral = np.cross(plane.n, [0.0, 0.0, 1.0])
    lateral = lateral / np.linalg.norm(lateral)

    if kind == "on_plane_jump":
        base = 0.9
        bounce = 30
        heights = rng.uniform(1.2, 1.9, size=duration // bounce + 1)
        z = np.empty(duration)
        for i, f in enumerate(frames):
            tau = (f % bounce) / bounce
            z[i] = base + heights[f // bounce] * (1.0 - (2.0 * tau - 1.0) ** 2)
        lat = 0.8 * np.sin(2.0 * math.pi * frames / 300.0 + rng.uniform(0, 2 * math.pi))
        dev = off_plane_amplitude * np.sin(2.0 * math.pi * frames / 137.0)
        if on_plane_intervals:
            dev = dev * _smooth_gate(frames, on_plane_intervals)
        center = (plane.point[None, :] + lat[:, None] * lateral[None, :]
                  + dev[:, None] * plane.n[None, :])
        center[:, 2] = z
    elif kind == "off_plane_walk":
        phase = rng.uniform(0, 2 * math.pi)
        lat = 0.9 * np.sin(2.0 * math.pi * frames / 260.0 + phase)
        wobble = 0.15 * np.sin(2.0 * math.pi * frames / 90.0 + phase)
        center = (plane.point[None, :]
                  + (offset + wobble)[:, None] * plane.n[None, :]
                  + lat[:, None] * lateral[None, :])
        center[:, 2] = 1.0
    else:
        raise ValueError(f"unknown trajectory kind: {kind!r}")

    up = np.array([0.0, 0.0, PERSON_HALF_HEIGHT])
    return PersonTrajectory(is_target=False, center=center,
                            top=center + up, bottom=center - up)


@dataclass
class Scenario:
    """Full synthetic scene description."""

    seed: int
    duration: int
    noise_px: float
    rig: list[CameraModel]
    plane: PlaneSpec
    space: TrackingSpace
    persons: list[PersonTrajectory]
    dropout: list[dict] = field(default_factory=list)  # {cameras, start, end}

    def camera_visible(self, camera: int, frame: int) -> bool:
        for episode in self.dropout:
            if camera in episode["cameras"] and \
                    episode["start"] <= frame <= episode["end"]:
                return False
        return True


def build_scenario(spec: dict) -> Scenario:
    """Instantiate a Scenario from its JSON description."""
    try:
        rig_spec = spec.get("rig", {})
        rig = make_rig(
            radius=float(rig_spec.get("radius", 6.0)),
            height=float(rig_spec.get("height", 2.0)),
            focal=float(rig_spec.get("focal", 1000.0)),
            resolution=tuple(rig_spec.get("resolution", [1920, 1080])))
        plane_spec = spec.get("plane", {"n": [1, 0, 0], "point": [0, 0, 0]})
        plane = PlaneSpec(n=plane_spec["n"], point=plane_spec["point"])
        space = TrackingSpace(perf=tuple(spec.get("perf_space",
                                                  [-2.0, -2.0, 0.0, 2.0, 2.0, 4.0])),
                              beta=float(spec.get("beta", 1.0)))
        seed = int(spec.get("seed", 0))
        duration = int(spec["duration"])
        persons = []
        for i, p in enumerate(spec["persons"]):
            traj = synth_trajectory(
                kind=p["kind"], duration=duration, seed=seed * 1000 + i,
                plane=plane,
                on_plane_intervals=[tuple(iv) for iv in p.get("on_plane_intervals", [])],
                off_plane_amplitude=float(p.get("off_plane_amplitude", 0.0)),
                offset=float(p.get("offset", 1.2)))
            traj.is_target = bool(p.get("is_target", False))
            persons.append(traj)
        dropout = [{"cameras": set(d["cameras"]), "start": int(d["start"]),
                    "end": int(d["end"])} for d in spec.get("dropout", [])]
        return Scenario(seed=seed, duration=duration,
                        noise_px=float(spec.get("noise_px", 0.0)),
                        rig=rig, plane=plane, space=space,
                        persons=persons, dropout=dropout)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario spec: {exc}") from exc


def _person_box(cam: CameraModel, traj: PersonTrajectory, frame: int) -> Bbox | None:
    try:
        c = project(cam, Point3.from_array(traj.center[frame]))
        t = project(cam, Point3.from_array(traj.top[frame]))
        b = project(cam, Point3.from_array(traj.bottom[frame]))
    except DegenerateDepth:
        return None
    h = abs(t.y - b.y) * BBOX_HEIGHT_SLACK
    if h <= 0:
        return None
    return Bbox(c.x, c.y, BBOX_ASPECT * h, h)


def render_detections(scenario: Scenario) -> tuple[list[Detection], list[dict]]:
    """Project every person into every camera, add noise and apply the
    dropout schedule.  Returns (detections, truth_records)."""
    detections: list[Detection] = []
    truth: list[dict] = []
    for frame in range(scenario.duration):
        for pid, traj in enumerate(scenario.persons):
            boxes: dict[int, Bbox] = {}
            for cam in scenario.rig:
                box = _person_box(cam, traj, frame)
                if box is None:
                    continue
                boxes[cam.id] = box
                if not scenario.camera_visible(cam.id, frame):
                    continue
                rng = np.random.default_rng(np.random.SeedSequence(
                    scenario.seed, spawn_key=(frame, cam.id, pid)))
                noise = rng.normal(size=4)
                sigma = scenario.noise_px
                detections.append(Detection(
                    frame=frame, camera=cam.id,
                    bbox=Bbox(box.x + sigma * noise[0], box.y + sigma * noise[1],
                              max(box.w + 0.5 * sigma * noise[2], 1.0),
                              max(box.h + 0.5 * sigma * noise[3], 1.0))))
            truth.append({
                "frame": frame, "person": pid, "is_target": traj.is_target,
                "X": [float(v) for v in traj.center[frame]],
                "top": [float(v) for v in traj.top[frame]],
                "bottom": [float(v) for v in traj.bottom[frame]],
                "boxes": {str(c): [b.x, b.y, b.w, b.h] for c, b in boxes.items()},
            })
    detections.sort(key=lambda d: (d.frame, d.camera))
    return detections, truth


def save_truth(truth: list[dict], path) -> None:
    with open(path, "w") as fh:
        for rec in truth:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def load_truth(path) -> list[dict]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad truth record: {exc}") from exc
    return records
