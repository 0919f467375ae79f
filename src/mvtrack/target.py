"""Target selection among tracked identities, gap filling, smoothing and
per-view box emission.

The pipeline always tracks every identity; the target is a view over the
multi-object output, picked by the height-trigger rule and re-picked by
the same rule after a loss.  Short gaps in the target track are bridged
by linear interpolation; the bridged track is smoothed and reprojected
into each camera with buffered square boxes.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import Provenance, Tracklet3D, TrackingSpace
from .geometry import CameraRig, project
from .stitch import TrackRegistry
from .sv_track import Bbox

logger = logging.getLogger(__name__)

IDENTIFY_WINDOW = 30
MAX_GAP_FILL = 7
BUFFER_SCALE = 1.3
SMOOTH_WINDOW = 5


@dataclass(frozen=True)
class TargetCriteria:
    """Height-trigger thresholds for picking the performing identity."""

    h_top: float
    h_bot: float
    delta: int = IDENTIFY_WINDOW
    occupancy: float = 0.5

    def __post_init__(self):
        if not self.h_top >= self.h_bot >= 0:
            raise ValueError("need h_top >= h_bot >= 0")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")


def identify_target(t3: Tracklet3D, space: TrackingSpace, crit: TargetCriteria,
                    current_frame: int) -> bool:
    """True when, over the trailing delta-frame buffer, the count of frames
    with (center in perf) and (top.z > h_top) and (bottom.z > h_bot)
    strictly exceeds occupancy * delta."""
    count = 0
    for f in range(current_frame - crit.delta, current_frame + 1):
        X = t3.points.get(f)
        top = t3.top.get(f)
        bot = t3.bottom.get(f)
        if X is None or top is None or bot is None:
            continue
        if space.in_perf(X) and top[2] > crit.h_top and bot[2] > crit.h_bot:
            count += 1
    return count > crit.occupancy * crit.delta


def buffer_bbox(b: Bbox, alpha: float = BUFFER_SCALE) -> Bbox:
    """Square box with the same center and side alpha * max(w, h)."""
    side = alpha * max(b.w, b.h)
    return Bbox(b.x, b.y, side, side)


def smooth_track(t3: Tracklet3D, window: int = SMOOTH_WINDOW) -> Tracklet3D:
    """Centered moving average over each contiguous frame run; near run
    ends the window shrinks symmetrically."""
    if window % 2 != 1 or window < 1:
        raise ValueError("smoothing window must be odd and >= 1")
    out = Tracklet3D(track_id=t3.track_id, top=dict(t3.top), bottom=dict(t3.bottom),
                     provenance=dict(t3.provenance),
                     source_views=dict(t3.source_views))
    frames = t3.frames
    runs: list[list[int]] = []
    for f in frames:
        if runs and f == runs[-1][-1] + 1:
            runs[-1].append(f)
        else:
            runs.append([f])
    half = window // 2
    for run in runs:
        pts = np.array([t3.points[f] for f in run])
        for i, f in enumerate(run):
            k = min(half, i, len(run) - 1 - i)
            out.points[f] = pts[i - k:i + k + 1].mean(axis=0)
    return out


@dataclass
class TargetRecord:
    """One emitted frame of the target track."""

    frame: int
    track_id: int
    X: np.ndarray
    provenance: Provenance
    per_view: list[dict]


@dataclass
class TargetMaintainer:
    """Causal state machine over window results.

    Call observe() after each stitched window; finalize() assembles the
    target timeline, bridges gaps of at most `max_gap` frames, smooths
    with a `smooth_window`-frame moving average and reprojects.
    """

    space: TrackingSpace
    criteria: TargetCriteria
    max_gap: int = MAX_GAP_FILL
    buffer_scale: float = BUFFER_SCALE
    smooth_window: int = SMOOTH_WINDOW
    target_id: int | None = None
    tenures: list[dict] = field(default_factory=list)

    def observe(self, window_start: int, window_len: int,
                registry: TrackRegistry) -> None:
        t_c = window_start + window_len
        if self.target_id is not None:
            rec = registry.tracks[self.target_id]
            if rec.tracklet.last_frame < window_start:
                logger.info("target track %d lost after frame %d",
                            self.target_id, rec.tracklet.last_frame)
                self.tenures[-1]["end"] = rec.tracklet.last_frame
                self.target_id = None
        if self.target_id is None:
            for tid in registry.live_tracks(window_start):
                t3 = registry.tracks[tid].tracklet
                if identify_target(t3, self.space, self.criteria, t_c):
                    self.target_id = tid
                    self.tenures.append({"id": tid, "identified_at": t_c,
                                         "end": None})
                    logger.info("target identified: track %d at frame %d", tid, t_c)
                    break

    def finalize(self, registry: TrackRegistry,
                 rig: CameraRig) -> list[TargetRecord]:
        target = Tracklet3D(track_id=-1)
        frame_tid: dict[int, int] = {}
        emitted_end = -1
        for tenure in self.tenures:
            t3 = registry.tracks[tenure["id"]].tracklet
            end = tenure["end"] if tenure["end"] is not None else t3.last_frame
            for f in t3.frames:
                if f <= emitted_end or f > end:
                    continue
                target.points[f] = t3.points[f]
                target.provenance[f] = t3.provenance[f]
                target.source_views[f] = t3.source_views.get(f, frozenset())
                if f in t3.top:
                    target.top[f] = t3.top[f]
                if f in t3.bottom:
                    target.bottom[f] = t3.bottom[f]
                frame_tid[f] = tenure["id"]
            emitted_end = max(emitted_end, end)
        if not target.points:
            return []

        self._fill_gaps(target, frame_tid)
        smoothed = smooth_track(target, self.smooth_window)
        return self._emit(smoothed, frame_tid, registry, rig)

    def _fill_gaps(self, target: Tracklet3D, frame_tid: dict[int, int]) -> None:
        frames = target.frames
        for a, b in zip(frames, frames[1:]):
            gap = b - a - 1
            if gap < 1 or gap > self.max_gap:
                continue
            for f in range(a + 1, b):
                u = (f - a) / (b - a)
                target.points[f] = (1 - u) * target.points[a] + u * target.points[b]
                target.provenance[f] = Provenance.INTERPOLATED
                target.source_views[f] = frozenset()
                frame_tid[f] = frame_tid[b]

    def _emit(self, target: Tracklet3D, frame_tid: dict[int, int],
              registry: TrackRegistry, rig: CameraRig) -> list[TargetRecord]:
        frames = target.frames
        X = np.array([target.points[f] for f in frames])
        cameras = list(rig)
        pixels = [project(cam, X).tolist() for cam in cameras]
        last_size: dict[int, tuple[float, float]] = {}
        records: list[TargetRecord] = []
        for i, f in enumerate(frames):
            tid = frame_tid[f]
            boxes2d = registry.tracks[tid].boxes2d
            per_view: list[dict] = []
            for cam, cam_pixels in zip(cameras, pixels):
                x, y = cam_pixels[i]
                if math.isnan(x):
                    continue
                orig = boxes2d.get(cam.id, {}).get(f)
                if orig is not None and np.hypot(x - orig.x, y - orig.y) \
                        <= 0.5 * max(orig.w, orig.h):
                    refined = Bbox(x, y, orig.w, orig.h)
                    last_size[cam.id] = (orig.w, orig.h)
                elif cam.id in last_size:
                    w, h = last_size[cam.id]
                    refined = Bbox(x, y, w, h)
                else:
                    continue
                buf = buffer_bbox(refined, self.buffer_scale)
                per_view.append({"camera": cam.id, "x": buf.x, "y": buf.y,
                                 "w": buf.w, "h": buf.h, "buffered": True})
            records.append(TargetRecord(
                frame=f, track_id=tid, X=target.points[f],
                provenance=target.provenance[f], per_view=per_view))
        return records


def save_target_records(records: list[TargetRecord], path) -> None:
    """Write the target output as JSON-lines, one record per frame."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({
                "frame": rec.frame,
                "track_id": rec.track_id,
                "X": [float(v) for v in rec.X],
                "provenance": rec.provenance.value,
                "per_view": rec.per_view,
            }, sort_keys=True))
            fh.write("\n")


def _finite_number(value) -> bool:
    # type(), not isinstance(): a JSON true is a bool, not a number.
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _check_target_record(rec) -> None:
    """Raise ValueError unless rec has the fields `metrics.evaluate` reads,
    with the JSON types `save_target_records` writes."""
    if not isinstance(rec, dict):
        raise ValueError("record must be a JSON object")
    for key in ("frame", "track_id"):
        if type(rec[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {rec[key]!r}")
    X = rec["X"]
    if not (isinstance(X, list) and len(X) == 3 and all(map(_finite_number, X))):
        raise ValueError(f"X must be three finite numbers, got {X!r}")
    views = rec.get("per_view", [])
    if not isinstance(views, list):
        raise ValueError(f"per_view must be a list, got {views!r}")
    for view in views:
        if not isinstance(view, dict) or type(view.get("camera")) is not int or \
                not all(_finite_number(view.get(k)) for k in ("x", "y", "w", "h")):
            raise ValueError("per_view entry needs an integer camera and finite "
                             f"numbers x, y, w, h, got {view!r}")


def load_target_records(path) -> list[dict]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                _check_target_record(rec)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad target record: {exc}") from exc
            records.append(rec)
    return records
