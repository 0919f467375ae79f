"""Target selection among tracked identities, gap filling, smoothing and
per-view box emission.

The pipeline always tracks every identity; the target is a view over the
multi-object output, picked by the height-trigger rule and re-picked by
the same rule after a loss.  Short gaps in the target track are bridged
by linear interpolation; the bridged track is smoothed and reprojected
into each camera with buffered square boxes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import Provenance, Tracklet3D, TrackingSpace, attach_top_bottom_batch
from .geometry import CameraRig, project
from .stitch import TrackRegistry
from .records import INT, NUM, Fields, read_jsonl, write_jsonl

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
    strictly exceeds occupancy * delta.  Only the track's frames inside
    the buffer are visited, however long the buffer."""
    first = current_frame - crit.delta
    count = 0
    for f in (range(first, current_frame + 1) if len(t3.top) > crit.delta
              else [f for f in t3.top if first <= f <= current_frame]):
        X = t3.points.get(f)
        top = t3.top.get(f)
        bot = t3.bottom.get(f)
        if X is None or top is None or bot is None:
            continue
        if space.in_perf(X) and top[2] > crit.h_top and bot[2] > crit.h_bot:
            count += 1
    return count > crit.occupancy * crit.delta


def smooth_track(t3: Tracklet3D, window: int = SMOOTH_WINDOW) -> Tracklet3D:
    """Centered moving average over each contiguous frame run; near run
    ends the window shrinks symmetrically."""
    if window % 2 != 1 or window < 1:
        raise ValueError("smoothing window must be odd and >= 1")
    out = Tracklet3D(provenance=dict(t3.provenance))
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
        """Check the target for loss and, while none is held, run the height
        trigger on every live track.  Heights are solved only for it: a
        track keeps the window tracks merged into it pending while they can
        reach a later buffer, and with no target held the pending ones of
        all live tracks are solved in one call and folded in merge order."""
        t_c = window_start + window_len
        for rec in registry.tracks.values():
            if rec.pending:
                ended = rec.last_frame < window_start
                rec.pending = [wt for wt in rec.pending if not ended
                               and wt.start + window_len >= t_c - self.criteria.delta]
        if self.target_id is not None:
            rec = registry.tracks[self.target_id]
            if rec.last_frame < window_start:
                logger.info("target track %d lost after frame %d",
                            self.target_id, rec.last_frame)
                self.tenures[-1]["end"] = rec.last_frame
                self.target_id = None
        if self.target_id is None:
            live = registry.live_tracks(window_start)
            pending = [wt for tid in live for wt in registry.tracks[tid].pending]
            if pending:
                attach_top_bottom_batch([(wt.tracklet, wt.segments) for wt in pending],
                                        pending[0].rig)
            for tid in live:
                registry.tracks[tid].fold_heights()
            for tid in live:
                t3 = registry.tracks[tid].tracklet
                if identify_target(t3, self.space, self.criteria, t_c):
                    self.target_id = tid
                    self.tenures.append({"id": tid, "identified_at": t_c,
                                         "end": None})
                    logger.info("target identified: track %d at frame %d", tid, t_c)
                    break

    def finalize(self, registry: TrackRegistry,
                 rig: CameraRig) -> list[TargetRecord]:
        target = Tracklet3D()
        frame_tid: dict[int, int] = {}
        emitted_end = -1
        for tenure in self.tenures:
            rec = registry.tracks[tenure["id"]]
            end = tenure["end"] if tenure["end"] is not None else rec.last_frame
            for f in rec.tracklet.frames:
                if f <= emitted_end or f > end:
                    continue
                target.points[f] = rec.tracklet.points[f]
                target.provenance[f] = rec.tracklet.provenance[f]
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
                frame_tid[f] = frame_tid[b]

    def _emit(self, target: Tracklet3D, frame_tid: dict[int, int],
              registry: TrackRegistry, rig: CameraRig) -> list[TargetRecord]:
        frames = target.frames
        X = np.array([target.points[f] for f in frames])
        cameras = list(rig)
        pixels = [project(cam, X).tolist() for cam in cameras]
        boxes = {tid: {camera: (first, arr.tolist()) for camera, (first, arr)
                       in registry.tracks[tid].boxes_by_camera(tid).items()}
                 for tid in dict.fromkeys(frame_tid.values())}
        last_size: dict[int, float] = {}
        records: list[TargetRecord] = []
        for i, f in enumerate(frames):
            tid = frame_tid[f]
            per_view: list[dict] = []
            for cam, cam_pixels in zip(cameras, pixels):
                x, y = cam_pixels[i]
                if math.isnan(x):
                    continue
                # A square centred on the projection, its side buffer_scale *
                # max(w, h) of the box linked there, else of the camera's last.
                first, linked = boxes[tid].get(cam.id, (0, []))
                at = f - first
                ox, oy, ow, oh = linked[at] if 0 <= at < len(linked) else (math.nan,) * 4
                if not math.isnan(ox) and np.hypot(x - ox, y - oy) <= 0.5 * max(ow, oh):
                    last_size[cam.id] = max(ow, oh)
                elif cam.id not in last_size:
                    continue
                side = self.buffer_scale * last_size[cam.id]
                per_view.append({"camera": cam.id, "x": x, "y": y,
                                 "w": side, "h": side, "buffered": True})
            records.append(TargetRecord(
                frame=f, track_id=tid, X=target.points[f],
                provenance=target.provenance[f], per_view=per_view))
        return records


def save_target_records(records: list[TargetRecord], path) -> None:
    """Write the target output as JSON-lines, one record per frame."""
    write_jsonl(path, ({"frame": rec.frame, "track_id": rec.track_id,
                        "X": [float(v) for v in rec.X],
                        "provenance": rec.provenance.value, "per_view": rec.per_view}
                       for rec in records))


VIEW_FIELDS = Fields({"camera": INT, ("x", "y", "w", "h"): NUM})
# The fields `metrics.evaluate` reads, with the kinds `save_target_records` writes.
TARGET_FIELDS = Fields({"frame": INT, "track_id": INT, "X": 3, "per_view": [VIEW_FIELDS]},
                       optional=("per_view",))


def load_target_records(path) -> list[dict]:
    return read_jsonl(path, "target", TARGET_FIELDS.check)
