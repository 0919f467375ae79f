"""Synthetic calibrated rigs, ground-truth trajectories and detection
streams with pixel noise and per-camera dropout episodes.

The generated streams are the source for all statistically derived test
expectations.  Randomness is drawn from per-record substreams (seeded by
(seed, frame, camera, person)) so outputs are deterministic regardless of
generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .cascade import TrackingSpace
from .geometry import CameraModel, PlaneSpec, project
from .records import BOOL, INT, NUM, Fields, read_jsonl, require
from .sv_track import Detections

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


SCENARIO_FIELDS = Fields(
    {"seed": INT, "duration": INT, "noise_px": NUM, "beta": NUM, "perf_space": 6,
     "rig": Fields({"radius": NUM, "height": NUM, "focal": NUM, "resolution": 2},
                   optional=("radius", "height", "focal", "resolution")),
     "plane": Fields({"n": 3, "point": 3}),
     "persons": [Fields({"is_target": BOOL, "off_plane_amplitude": NUM, "offset": NUM,
                         "on_plane_intervals": [2]},
                        optional=("is_target", "off_plane_amplitude", "offset",
                                  "on_plane_intervals"))],
     "dropout": [Fields({"cameras": [INT], "start": INT, "end": INT})]},
    optional=("seed", "noise_px", "beta", "perf_space", "rig", "plane", "dropout"))


def build_scenario(spec: dict) -> Scenario:
    """Instantiate a Scenario from its JSON description, whose fields must
    be of the kinds in SCENARIO_FIELDS."""
    try:
        SCENARIO_FIELDS.check(spec)
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
        seed = spec.get("seed", 0)
        duration = spec["duration"]
        persons = []
        for i, p in enumerate(spec["persons"]):
            traj = synth_trajectory(
                kind=p["kind"], duration=duration, seed=seed * 1000 + i,
                plane=plane,
                on_plane_intervals=[tuple(iv) for iv in p.get("on_plane_intervals", [])],
                off_plane_amplitude=float(p.get("off_plane_amplitude", 0.0)),
                offset=float(p.get("offset", 1.2)))
            traj.is_target = p.get("is_target", False)
            persons.append(traj)
        dropout = [{"cameras": set(d["cameras"]), "start": d["start"], "end": d["end"]}
                   for d in spec.get("dropout", [])]
        return Scenario(seed=seed, duration=duration,
                        noise_px=float(spec.get("noise_px", 0.0)),
                        rig=rig, plane=plane, space=space,
                        persons=persons, dropout=dropout)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario spec: {exc}") from exc


def _person_box(cam: CameraModel, traj: PersonTrajectory,
                frame: int) -> tuple[float, float, float, float] | None:
    """The (x, y, w, h) box of a person in a camera, or None if not seen."""
    pixels = project(cam, [traj.center[frame], traj.top[frame], traj.bottom[frame]])
    if np.isnan(pixels).any():
        return None
    (cx, cy), (_, ty), (_, by) = pixels.tolist()
    h = abs(ty - by) * BBOX_HEIGHT_SLACK
    if h <= 0:
        return None
    return (cx, cy, BBOX_ASPECT * h, h)


def render_detections(scenario: Scenario) -> tuple[Detections, list[dict]]:
    """Project every person into every camera, add noise and apply the
    dropout schedule.  Returns (detections, truth_records), the detections
    sorted by (frame, camera)."""
    rows: list[tuple] = []
    truth: list[dict] = []
    for frame in range(scenario.duration):
        for pid, traj in enumerate(scenario.persons):
            boxes: dict[int, tuple] = {}
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
                x, y, w, h = box
                rows.append((frame, cam.id, x + sigma * noise[0], y + sigma * noise[1],
                             max(w + 0.5 * sigma * noise[2], 1.0),
                             max(h + 0.5 * sigma * noise[3], 1.0)))
            truth.append({
                "frame": frame, "person": pid, "is_target": traj.is_target,
                "X": [float(v) for v in traj.center[frame]],
                "top": [float(v) for v in traj.top[frame]],
                "bottom": [float(v) for v in traj.bottom[frame]],
                "boxes": {str(c): list(b) for c, b in boxes.items()},
            })
    rows.sort(key=itemgetter(0, 1))
    return Detections(np.array([r[0] for r in rows], dtype=np.int64),
                      np.array([r[1] for r in rows], dtype=np.int64),
                      np.array([r[2:] for r in rows], dtype=float).reshape(-1, 4)), truth


TRUTH_FIELDS = Fields({"frame": INT, "is_target": BOOL, "X": 3, "top": 3, "bottom": 3},
                      optional=("is_target", "top", "bottom"))


def _parse_truth_record(rec) -> dict:
    """rec, once it has the fields `metrics.evaluate` reads with the kinds
    `render_detections` gives."""
    TRUTH_FIELDS.check(rec)
    boxes = rec.get("boxes", {})
    if type(boxes) is not dict:
        raise ValueError(f"boxes must be an object, got {boxes!r}")
    for cam, box in boxes.items():
        if not (cam.removeprefix("-").isdecimal() and str(int(cam)) == cam):
            raise ValueError(f"box camera id must be an integer string, got {cam!r}")
        require(box, 4, "box")
        if not (box[2] > 0 and box[3] > 0):
            raise ValueError(f"box must be four numbers x, y, w, h with positive w "
                             f"and h, got {box!r}")
    return rec


def load_truth(path) -> list[dict]:
    return read_jsonl(path, "truth", _parse_truth_record)
