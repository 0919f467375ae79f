import json
import math
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from mvtrack.cascade import PROVENANCE, Provenance, Tracklet3D, WindowTrack, solve_heights
from mvtrack.config import PipelineConfig
from mvtrack.geometry import CameraModel, CameraRig
from mvtrack.simulate import build_scenario, render_detections
from mvtrack.stitch import TrackRecord
from mvtrack.sv_track import (WINDOW_LEN, Bbox, Detections, Segments, load_detections,
                              save_detections)

FOCAL = 1000.0
PRINCIPAL = (960.0, 540.0)


def intrinsics(focal=FOCAL, principal=PRINCIPAL):
    return np.array([
        [focal, 0.0, principal[0]],
        [0.0, focal, principal[1]],
        [0.0, 0.0, 1.0],
    ])


def look_at_camera(cam_id, center, aim, focal=FOCAL, principal=PRINCIPAL):
    """Camera at `center` aimed at `aim`, image x right, image y down."""
    center = np.asarray(center, dtype=float)
    forward = np.asarray(aim, dtype=float) - center
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])
    return CameraModel(id=cam_id, K=intrinsics(focal, principal), R=R,
                       t=-R @ center)


@pytest.fixture
def cam_a():
    return CameraModel(id=0, K=intrinsics(), R=np.eye(3), t=np.zeros(3))


@pytest.fixture
def cam_b():
    return CameraModel(id=1, K=intrinsics(), R=np.eye(3),
                       t=np.array([-1.0, 0.0, 0.0]))


def simulated(spec: dict):
    """(detections, rig, cfg) of a scenario spec, as `mvtrack simulate`
    writes them and `mvtrack track` reads them back.  The scene cache of
    the test session: each spec is simulated once, and callers share the
    result, so they must not modify it."""
    return _simulated(json.dumps(spec, sort_keys=True))


@lru_cache(maxsize=None)
def _simulated(spec_json: str):
    scene = build_scenario(json.loads(spec_json))
    detections, _ = render_detections(scene)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "detections.jsonl"
        save_detections(detections, path)
        detections = load_detections(path)
    cfg = PipelineConfig(plane_n=scene.plane.n, plane_point=scene.plane.point,
                         perf_space=scene.space.perf, beta=scene.space.beta)
    return detections, CameraRig(scene.rig), cfg


def window_segment(camera, boxes, track_id=0, start=0, span=None) -> Segments:
    """A one-row segment table holding `boxes`, {frame: Bbox or (x, y, w,
    h)}, on a grid of `span` frames from `start`: by default a window's, or
    as many as the boxes need."""
    span = span or max(WINDOW_LEN + 1, max(boxes, default=start) - start + 1)
    rows = np.full((span, 4), np.nan)
    for f, b in boxes.items():
        rows[f - start] = (b.x, b.y, b.w, b.h) if isinstance(b, Bbox) else b
    return Segments(np.array([camera]), np.array([track_id]), np.array([start]), rows[None])


def no_links(n: int, cameras: int = 4) -> np.ndarray:
    """(cameras, n, 4) links that hold no box."""
    return np.full((cameras, n, 4), np.nan)


def links_of(segments: Segments, rig) -> np.ndarray:
    """The (C, L+1, 4) links of a window track whose segments are the rows
    of `segments`, on their grid, per camera of `rig` in id order: each
    row's boxes at its camera, the later row's where two rows of one
    camera both hold a box, NaN where none."""
    cameras = [cam.id for cam in rig]
    links = np.full((len(cameras),) + segments.boxes.shape[1:], np.nan)
    for camera, boxes in zip(segments.camera.tolist(), segments.boxes):
        rows = ~np.isnan(boxes[:, 0])
        links[cameras.index(camera), rows] = boxes[rows]
    return links


def box_dict(segments: Segments, row: int = 0) -> dict:
    """{frame: Bbox} of the cells of a row of `segments` that hold a box."""
    start = int(segments.start[row])
    return {start + j: Bbox(*box) for j, box in enumerate(segments.boxes[row].tolist())
            if not math.isnan(box[0])}


def sorted_chunk(clusters) -> tuple[Segments, list[np.ndarray]]:
    """The rows of the tables `clusters` as one table sorted by (start,
    camera, track_id), as `collect_window_segments` gives it, and each
    cluster as the sorted array of its rows there."""
    table = Segments.concat(clusters)
    order = np.lexsort((table.track_id, table.camera, table.start))
    rank = np.argsort(order)
    edges = np.cumsum([0] + [len(c) for c in clusters])
    return table.take(order), [np.sort(rank[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def assert_same_rows(a: Segments, b: Segments) -> None:
    """Two tables column for column, the boxes bit for bit."""
    for name in ("camera", "track_id", "start"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
    assert a.boxes.shape == b.boxes.shape and a.boxes.tobytes() == b.boxes.tobytes()


def columns(rows) -> Detections:
    """Detections of (frame, camera, x, y, w, h) rows."""
    rows = list(rows)
    return Detections(np.array([r[0] for r in rows], dtype=np.int64),
                      np.array([r[1] for r in rows], dtype=np.int64),
                      np.array([r[2:] for r in rows], dtype=float).reshape(-1, 4))


@dataclass
class FrameTrack:
    """A 3D track as frame-keyed dicts, {frame: (3,) point} and {frame:
    Provenance}: the form the tests' oracles work on."""

    points: dict = field(default_factory=dict)
    top: dict = field(default_factory=dict)
    bottom: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def frames(self) -> list[int]:
        return sorted(self.points)


def _rows(points: dict, first: int, n: int) -> np.ndarray:
    """{frame: (3,) point} as (n, 3) rows from `first`, NaN where none."""
    out = np.full((n, 3), np.nan)
    for f, X in points.items():
        out[f - first] = X
    return out


def to_arrays(t: FrameTrack, first: int | None = None, n: int | None = None,
              links: np.ndarray | None = None) -> Tracklet3D:
    """`t`'s points and provenance as a `Tracklet3D` over the n frames from
    `first`: by default from its first to its last frame with a point, top
    or bottom.  Its links are `links`, by default four cameras' with no box.
    A point with no provenance is TRIANGULATED."""
    frames = sorted({*t.points, *t.top, *t.bottom})
    first = (frames[0] if frames else 0) if first is None else first
    n = (frames[-1] + 1 - first if frames else 0) if n is None else n
    codes = np.zeros(n, np.uint8)
    for f in t.points:
        codes[f - first] = PROVENANCE.index(t.provenance.get(f, Provenance.TRIANGULATED))
    return Tracklet3D(first, _rows(t.points, first, n), codes,
                      no_links(n) if links is None else links)


def to_record(t: FrameTrack, first: int | None = None, n: int | None = None,
              links: np.ndarray | None = None, pending=()) -> TrackRecord:
    """`t` as a stitched track over the frames `to_arrays` gives it, with
    its tops and bottoms and the window tracks `pending`."""
    rec = as_record(to_arrays(t, first, n, links), pending)
    rec.top, rec.bottom = (_rows(h, rec.first, len(rec.points)) for h in (t.top, t.bottom))
    return rec


def as_record(t3: Tracklet3D, pending=()) -> TrackRecord:
    """A stitched track of `t3`'s arrays, with no height and the window
    tracks `pending`."""
    return TrackRecord(t3.first, t3.points, t3.provenance, t3.links, list(pending))


def as_window_track(t3: Tracklet3D, rig) -> WindowTrack:
    """A window track of `rig` of `t3`'s arrays."""
    return WindowTrack(t3.first, t3.points, t3.provenance, t3.links, rig)


def to_frames(t3: Tracklet3D) -> FrameTrack:
    """`t3` as frame-keyed dicts of the rows of each array that hold a
    point, and of the provenance of the rows with a center; a track with
    no heights, as a window track, has empty tops and bottoms."""
    def keyed(points):
        if points is None:
            return {}
        rows = np.flatnonzero(~np.isnan(points[:, 0]))
        return dict(zip((t3.first + rows).tolist(), points[rows]))
    points = keyed(t3.points)
    codes = t3.provenance[np.flatnonzero(t3.valid)].tolist()
    return FrameTrack(points, keyed(getattr(t3, "top", None)), keyed(getattr(t3, "bottom", None)),
                      {f: PROVENANCE[c] for f, c in zip(points, codes)})


def with_heights(window_tracks) -> list[TrackRecord]:
    """Each window track as a stitched track of its own, holding the tops
    and bottoms that `cascade.solve_heights` returns for the batch; the
    window tracks are left as they were."""
    top, bottom = solve_heights(window_tracks)
    records = [as_record(wt) for wt in window_tracks]
    for rec, t, b in zip(records, top, bottom):
        rec.top, rec.bottom = t, b
    return records


def fold_pending(rec, heights: dict) -> None:
    """Fold into registry track `rec` the (top, bottom) rows `heights` holds,
    by id, for each window track pending on it, in merge order, as
    `TargetMaintainer.observe` folds solved ones, and clear them."""
    for wt in rec.pending:
        rec.fold_heights(wt.first, *heights[id(wt)])
    rec.pending = []


def assert_frame_tracks_equal(a: FrameTrack, b: FrameTrack) -> None:
    """Bit for bit: the same frames, points, heights and provenance."""
    for attr in ("points", "top", "bottom"):
        da, db = getattr(a, attr), getattr(b, attr)
        assert da.keys() == db.keys(), attr
        for f in da:
            assert np.array_equal(da[f], db[f]) and \
                np.array_equal(np.signbit(da[f]), np.signbit(db[f])), (attr, f)
    assert a.provenance == b.provenance
