"""Synthetic calibrated rigs, ground-truth trajectories and detection
streams with pixel noise and per-camera dropout episodes.

The generated streams are the source for all statistically derived test
expectations.  Randomness is drawn from per-record substreams (seeded by
(seed, frame, camera, person)) so outputs are deterministic regardless of
generation order; rendering projects whole trajectories, one `project`
call per (person, camera).  Each detection's stream is the one
`default_rng(SeedSequence(seed, spawn_key=key))` draws, but the seed states
of all detections are hashed in one array pass (`detection_noise`);
`tests/test_simulated_bytes.py` pins the bytes this writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from .cascade import TrackingSpace
from .geometry import CameraModel, PlaneSpec, project
from .records import (BOOL, INT, NUM, BadRecord, Fields, describe, error_of, int_column,
                      read_blocks, require)
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
    """1 outside the intervals, 0 inside, with cosine ramps at the edges (an
    interval's ramp before it wins where it meets the one after it)."""
    gate = np.ones(len(frames))
    for start, end in intervals:
        inside = (start <= frames) & (frames <= end)
        before = (start - ramp < frames) & (frames < start)
        after = (end < frames) & (frames < end + ramp)
        rows = np.flatnonzero(before | after)
        gate[rows] = np.minimum(gate[rows], [
            0.5 - 0.5 * math.cos(math.pi * (start - f if b else f - end) / ramp)
            for f, b in zip(frames[rows].tolist(), before[rows].tolist())])
        gate[inside] = 0.0
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
        tau = (frames % bounce) / bounce
        z = base + heights[frames // bounce] * (1.0 - (2.0 * tau - 1.0) ** 2)
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
        raise ValueError(f"unknown trajectory kind: {describe(kind)}")

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
    be of the kinds in SCENARIO_FIELDS, whose seed and duration are
    non-negative and whose ranges start <= end."""
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
        for name, value in (("seed", seed), ("duration", duration)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {describe(value)}")
        ranges = [(f"person {i} on_plane_intervals pair", iv) for i, p in enumerate(
            spec["persons"]) for iv in p.get("on_plane_intervals", [])]
        ranges += [(f"dropout episode {k}", [d["start"], d["end"]])
                   for k, d in enumerate(spec.get("dropout", []))]
        for name, (start, end) in ranges:
            if end < start:
                raise ValueError(f"{name} {[start, end]} ends before it starts")
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix on uint32 columns, carrying its running
    hash constant from call to call as the scalar one does."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> np.uint32(16)


def _seed_states(entropy: list[np.ndarray]) -> np.ndarray:
    """`generate_state(4, np.uint64)` of a SeedSequence per row, given each
    row's assembled entropy as uint32 columns (at least `_POOL` of them):
    `mix_entropy` into the pool, then the state words, paired little-endian."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    return np.column_stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])])


def detection_noise(seed: int, keys: np.ndarray) -> np.ndarray:
    """(N, 4) normals, row i the `default_rng(SeedSequence(seed,
    spawn_key=keys[i])).normal(size=4)` of the (N, 3) uint64 `keys`, with
    its bits.  Every row's seed state is hashed at once: SeedSequence pads
    the seed's little-endian 32-bit words to the pool and appends each key
    int's minimal words, so rows are grouped by which keys take two words.
    One PCG64 is then set per row to the state its srandom makes of that
    seed state, and draws as a fresh one would."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    run = [seed >> 32 * k & 0xFFFFFFFF for k in range(max(1, (seed.bit_length() + 31) // 32))]
    run += [0] * (_POOL - len(run))
    low, high = keys.astype(np.uint32), (keys >> np.uint64(32)).astype(np.uint32)
    pattern = (high != 0) @ np.array([1, 2, 4])
    states = np.empty((len(keys), 4), dtype=np.uint64)
    for p in np.unique(pattern).tolist():
        rows = np.flatnonzero(pattern == p)
        entropy = [np.full(len(rows), word, dtype=np.uint32) for word in run]
        for j in range(3):
            entropy += [low[rows, j]] + ([high[rows, j]] if p >> j & 1 else [])
        states[rows] = _seed_states(entropy)
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    noise = np.empty((len(keys), 4))
    for i, (s_hi, s_lo, q_hi, q_lo) in enumerate(states.tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}
        noise[i] = rng.normal(size=4)
    return noise


def render_detections(scenario: Scenario) -> tuple[Detections, list[dict]]:
    """Project every person into every camera, add noise and apply the
    dropout schedule.  Returns (detections, truth_records), the detections
    sorted by (frame, camera, person), cameras in rig order.  A person is
    seen where none of its center, top and bottom pixels is NaN and its box
    height is not <= 0; `project`'s rows are independent, so projecting a
    whole trajectory gives each frame the bits of projecting it alone."""
    duration, rig = scenario.duration, scenario.rig
    boxes = np.full((duration, len(rig), len(scenario.persons), 4), np.nan)
    for p, traj in enumerate(scenario.persons):
        points = np.concatenate([traj.center, traj.top, traj.bottom])
        for c, cam in enumerate(rig):
            pixels = project(cam, points).reshape(3, duration, 2)
            h = np.abs(pixels[1, :, 1] - pixels[2, :, 1]) * BBOX_HEIGHT_SLACK
            kept = ~np.isnan(pixels).any(axis=(0, 2)) & ~(h <= 0)
            boxes[kept, c, p] = np.column_stack([pixels[0], BBOX_ASPECT * h, h])[kept]
    visible = np.ones((duration, len(rig)), dtype=bool)
    for episode in scenario.dropout:
        dark = [c for c, cam in enumerate(rig) if cam.id in episode["cameras"]]
        visible[max(episode["start"], 0):max(episode["end"] + 1, 0), dark] = False
    seen = ~np.isnan(boxes[..., 0])
    frame, c, person = np.nonzero(seen & visible[:, :, None])
    camera = np.array([cam.id for cam in rig], dtype=np.int64)[c]
    # A spawn key is non-negative: a camera id keys by its 64 bits, unsigned.
    noise = detection_noise(scenario.seed, np.column_stack([frame, camera, person]).view(np.uint64))
    x, y, w, h = boxes[frame, c, person].T
    sigma = scenario.noise_px
    with np.errstate(over="ignore"):  # save_detections refuses what overflows
        detections = Detections(frame, camera, np.stack([
            x + sigma * noise[:, 0], y + sigma * noise[:, 1],
            np.maximum(w + 0.5 * sigma * noise[:, 2], 1.0),
            np.maximum(h + 0.5 * sigma * noise[:, 3], 1.0)], axis=1))

    keys = [str(cam.id) for cam in rig]
    paths = [(traj.is_target, traj.center.tolist(), traj.top.tolist(), traj.bottom.tolist())
             for traj in scenario.persons]
    box_rows = boxes.transpose(0, 2, 1, 3).tolist()
    seen_rows = seen.transpose(0, 2, 1).tolist()
    truth = [{"frame": f, "person": p, "is_target": is_target,
              "X": X[f], "top": top[f], "bottom": bottom[f],
              "boxes": {key: box for key, box, s in zip(keys, box_rows[f][p], seen_rows[f][p])
                        if s}}
             for f in range(duration) for p, (is_target, X, top, bottom) in enumerate(paths)]
    return detections, truth


TRUTH_FIELDS = Fields({"frame": INT, "is_target": BOOL, "X": 3, "top": 3, "bottom": 3},
                      optional=("is_target", "top", "bottom"))


def _parse_truth_record(rec) -> dict:
    """rec, once it has the fields `metrics.evaluate` reads with the kinds
    `render_detections` gives."""
    TRUTH_FIELDS.check(rec)
    boxes = rec.get("boxes", {})
    if type(boxes) is not dict:
        raise ValueError(f"boxes must be an object, got {describe(boxes)}")
    for cam, box in boxes.items():
        if not _is_camera_key(cam):
            raise ValueError(f"box camera id must be an integer string, got {cam!r}")
        require(box, 4, "box")
        if not (box[2] > 0 and box[3] > 0):
            raise ValueError(f"box must be four numbers x, y, w, h with positive w "
                             f"and h, got {box!r}")
    return rec


def _is_camera_key(key: str) -> bool:
    return key.removeprefix("-").isdecimal() and str(int(key)) == key


def _floats(lists: tuple, k: int) -> np.ndarray | None:
    """The (n, k) array of `lists` if each is a list of k finite floats,
    else None."""
    if not (set(map(type, lists)) <= {list} and set(map(len, lists)) <= {k}):
        return None
    flat = list(chain.from_iterable(lists))
    if not set(map(type, flat)) <= {float}:
        return None
    values = np.array(flat, dtype=float).reshape(-1, k)
    return values if np.isfinite(values).all() else None


_truth_values = itemgetter("frame", "is_target", "X", "top", "bottom", "boxes")


def _common_kinds(recs: list) -> bool:
    """Whether every record has all the fields `render_detections` writes,
    of the types it writes, and boxes with positive sides, so that each
    passes `_parse_truth_record`: one type-set test per column."""
    try:
        frame, is_target, X, top, bottom, boxes = list(zip(*map(_truth_values, recs))) or [()] * 6
        if not (set(map(type, frame)) <= {int} and set(map(type, is_target)) <= {bool}
                and set(map(type, boxes)) <= {dict}
                and all(map(_is_camera_key, set(chain.from_iterable(boxes))))):
            return False
    except (KeyError, TypeError, ValueError):  # int() refuses a key of over 4 300 digits
        return False
    arrays = [_floats(X, 3), _floats(top, 3), _floats(bottom, 3),
              _floats(list(chain.from_iterable(map(dict.values, boxes))), 4)]
    return all(a is not None for a in arrays) and bool((arrays[-1][:, 2:] > 0).all())


def _truth_block(recs: list, seen: set) -> tuple:
    """(frame, X, row, camera, box) of the target rows of a block of decoded
    truth records: their frames and centres, and a (row, camera, box) per
    box, `row` counted over the file's target rows.  Raises BadRecord for
    the first record that breaks a rule of `load_truth`; `seen` holds the
    target frames of the blocks before.  Kinds take `_common_kinds`, and
    `_parse_truth_record` only in a block that fails it, to find the first
    bad record."""
    end = len(recs)
    if not _common_kinds(recs):
        end = next((i for i, rec in enumerate(recs) if error_of(_parse_truth_record, rec)), end)
    first_row = len(seen)
    rows = [i for i in range(end) if recs[i].get("is_target")]
    for i in rows:
        if recs[i]["frame"] in seen:
            raise BadRecord(i, ValueError(
                f"a second is_target row for frame {describe(recs[i]['frame'])}"))
        seen.add(recs[i]["frame"])
    if end < len(recs):
        raise BadRecord(end, error_of(_parse_truth_record, recs[end]))
    target = [recs[i] for i in rows]
    boxes = [rec.get("boxes", {}) for rec in target]
    return ([rec["frame"] for rec in target],
            np.array([rec["X"] for rec in target], dtype=float).reshape(-1, 3),
            np.repeat(np.arange(first_row, len(seen)), list(map(len, boxes))),
            list(map(int, chain.from_iterable(boxes))),
            np.array(list(chain.from_iterable(map(dict.values, boxes))),
                     dtype=float).reshape(-1, 4))


@dataclass(frozen=True, eq=False)
class Truth:
    """The target rows of a ground-truth file, as columns in file order:
    `frame` (n,), int64 (objects where a frame does not fit), the centres
    `X` (n, 3), and `boxes` (C, n, 4), each row's (x, y, w, h) box in each
    of the sorted camera ids `cameras`, NaN where the row has none."""

    frame: np.ndarray
    X: np.ndarray
    cameras: tuple
    boxes: np.ndarray


def load_truth(path) -> Truth:
    """Read a JSON-lines ground-truth file into the columns of its target
    rows.  Every line is checked, a block of `records.BLOCK_LINES` lines at
    a time, and the first bad one raises ValueError "path:line: bad truth
    record: ...": a record whose fields are not of the kinds
    `_parse_truth_record` reads, or a second is_target row for a frame."""
    seen = set()
    blocks = read_blocks(path, "truth", lambda recs: _truth_block(recs, seen))
    frame, X, row, camera, box = zip(*blocks or [_truth_block([], set())])
    frame, camera = [f for part in frame for f in part], [c for part in camera for c in part]
    cameras = sorted(set(camera))
    slot = {c: k for k, c in enumerate(cameras)}
    boxes = np.full((len(cameras), len(frame), 4), np.nan)
    boxes[list(map(slot.__getitem__, camera)), np.concatenate(row)] = np.concatenate(box)
    return Truth(int_column(frame), np.concatenate(X), tuple(cameras), boxes)
