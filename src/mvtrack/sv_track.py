"""Per-camera IoU tracking and sliding-window segmentation.

Tracks are matched greedily by descending IoU (classic IoU-tracker
behavior), with ties broken by the lower track id, then the lower
detection index.  Each step takes a detection's corners and area once,
as a plain tuple, and each live track keeps the tuple of its last box,
so scoring a pair is a few float operations inline.  Completed tracklets
are later cut into temporally overlapping window segments on a global
frame grid so that segments from different cameras line up.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .records import INT, NUM, Fields, read_jsonl, write_jsonl

IOU_THRESHOLD = 0.1
MAX_AGE = 2
WINDOW_LEN = 10
MIN_SEGMENT_OBS = 5
MAX_EXTRAPOLATION = 2
# The bound on |x|, |y|, w and h of an input box: every value derived from
# one by interpolation, extrapolation or triangulation stays finite.
MAX_BOX_PX = 1e9


@dataclass(frozen=True)
class Bbox:
    """Center-parameterized box: (x, y) is the center, not the top-left."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.w, self.h))):
            raise ValueError(f"box values must be finite, got x={self.x}, y={self.y}, "
                             f"w={self.w}, h={self.h}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x - self.w / 2, self.y - self.h / 2,
                self.x + self.w / 2, self.y + self.h / 2)


def boxes_array(boxes) -> np.ndarray:
    """(n, 4) array of the (x, y, w, h) rows of an iterable of n boxes."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes])


@dataclass(frozen=True)
class Detection:
    frame: int
    camera: int
    bbox: Bbox

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError("frame index must be >= 0")


@dataclass
class Tracklet2D:
    camera: int
    track_id: int
    boxes: dict[int, Bbox] = field(default_factory=dict)


@dataclass
class WindowSegment2D:
    """One tracklet restricted to [start, start + window_len] (inclusive),
    with interior gaps interpolated and short boundary gaps extrapolated."""

    camera: int
    track_id: int
    start: int
    boxes: dict[int, Bbox]

    @property
    def key(self) -> tuple[int, int]:
        return (self.camera, self.track_id)


class IouTracker:
    """Online greedy IoU tracker for a single camera.

    Tracks unmatched for more than `max_age` frames are closed and
    emitted.  New track ids increase monotonically and are never reused.
    """

    def __init__(self, camera: int, iou_threshold: float = IOU_THRESHOLD,
                 max_age: int = MAX_AGE):
        self.camera = camera
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self._next_id = 0
        self._live: list[dict] = []

    def step(self, frame: int, detections: list[Detection]) -> list[Tracklet2D]:
        """Advance one frame; returns tracklets closed at this step."""
        for det in detections:
            if det.frame != frame or det.camera != self.camera:
                raise ValueError("detections must share the step's frame and camera")

        # Corners and area once per box; the pair loop is the IoU inline
        # (min/max spelled out with their tie rules), since a function call
        # per pair would cost more than the arithmetic.
        boxes = [(*det.bbox.corners(), det.bbox.w * det.bbox.h)
                 for det in detections]
        threshold = self.iou_threshold
        pairs = []
        for ti, track in enumerate(self._live):
            ax0, ay0, ax1, ay1, a_area = track["last"]
            tid = track["id"]
            for di, (bx0, by0, bx1, by1, b_area) in enumerate(boxes):
                iw = (bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)
                ih = (by1 if by1 < ay1 else ay1) - (by0 if by0 > ay0 else ay0)
                if iw <= 0 or ih <= 0:
                    score = 0.0
                else:
                    inter = iw * ih
                    score = inter / (a_area + b_area - inter)
                if score >= threshold:
                    pairs.append((-score, tid, di, ti))
        # (-score, track id, detection index) is unique per pair.
        pairs.sort()

        used_tracks: set[int] = set()
        used_dets: set[int] = set()
        for _score, _tid, di, ti in pairs:
            if ti in used_tracks or di in used_dets:
                continue
            used_tracks.add(ti)
            used_dets.add(di)
            track = self._live[ti]
            track["boxes"][frame] = detections[di].bbox
            track["last"] = boxes[di]
            track["missed"] = 0

        closed: list[Tracklet2D] = []
        survivors = []
        for ti, track in enumerate(self._live):
            if ti in used_tracks:
                survivors.append(track)
                continue
            track["missed"] += 1
            if track["missed"] > self.max_age:
                closed.append(Tracklet2D(self.camera, track["id"], track["boxes"]))
            else:
                survivors.append(track)
        self._live = survivors

        for di, det in enumerate(detections):
            if di in used_dets:
                continue
            self._live.append({
                "id": self._next_id,
                "boxes": {frame: det.bbox},
                "last": boxes[di],
                "missed": 0,
            })
            self._next_id += 1
        return closed

    def finish(self) -> list[Tracklet2D]:
        """Close and emit all remaining live tracks."""
        closed = [Tracklet2D(self.camera, t["id"], t["boxes"]) for t in self._live]
        self._live = []
        return closed


def track_camera_stream(camera: int, detections: list[Detection],
                        iou_threshold: float = IOU_THRESHOLD,
                        max_age: int = MAX_AGE) -> list[Tracklet2D]:
    """Run the IoU tracker over one camera's full detection stream.

    A frame without detections is stepped only while some track is live
    (at most max_age + 1 such frames in a row); with none live, an empty
    step changes nothing, so the tracker jumps to the next detection."""
    tracker = IouTracker(camera, iou_threshold, max_age)
    by_frame: dict[int, list[Detection]] = {}
    for det in detections:
        by_frame.setdefault(det.frame, []).append(det)
    tracklets: list[Tracklet2D] = []
    empty = 0
    for frame in sorted(by_frame):
        while tracker._live and empty < frame:
            tracklets.extend(tracker.step(empty, []))
            empty += 1
        tracklets.extend(tracker.step(frame, by_frame[frame]))
        empty = frame + 1
    tracklets.extend(tracker.finish())
    tracklets.sort(key=lambda t: t.track_id)
    return tracklets


def _lerp_box(a: Bbox, b: Bbox, u: float) -> Bbox:
    return Bbox(a.x + (b.x - a.x) * u, a.y + (b.y - a.y) * u,
                a.w + (b.w - a.w) * u, a.h + (b.h - a.h) * u)


def _extrapolate(anchor: Bbox, prev: Bbox | None, gap: int, steps: int) -> Bbox:
    # Constant velocity from the two boxes nearest the boundary (anchor and
    # prev, `gap` frames apart); falls back to a frozen box when only one
    # observation is available.
    if prev is None:
        return anchor
    u = steps / gap
    w = max(anchor.w + (anchor.w - prev.w) * u, 1e-6)
    h = max(anchor.h + (anchor.h - prev.h) * u, 1e-6)
    return Bbox(anchor.x + (anchor.x - prev.x) * u,
                anchor.y + (anchor.y - prev.y) * u, w, h)


def segment_windows(tracklet: Tracklet2D, window_len: int = WINDOW_LEN,
                    min_observed: int = MIN_SEGMENT_OBS) -> list[WindowSegment2D]:
    """Cut a tracklet into overlapping [start, start + window_len] segments.

    Starts lie on the global step grid (so segments of different cameras
    share windows), advancing by window_len/2.  Segments with fewer than
    `min_observed` observed frames are discarded; the rest get interior
    gaps linearly interpolated and up to MAX_EXTRAPOLATION boundary frames
    extrapolated at constant velocity.
    """
    if window_len < 2 or window_len % 2 != 0:
        raise ValueError("window_len must be even and >= 2")
    step = window_len // 2
    if not tracklet.boxes:
        return []

    frames = sorted(tracklet.boxes)
    start = (frames[0] // step) * step
    segments: list[WindowSegment2D] = []
    while True:
        observed = frames[bisect_left(frames, start):
                          bisect_right(frames, start + window_len)]
        if len(observed) >= min_observed:
            boxes: dict[int, Bbox] = {f: tracklet.boxes[f] for f in observed}
            # Interior gaps: per-field linear interpolation.
            for lo, hi in zip(observed, observed[1:]):
                for f in range(lo + 1, hi):
                    boxes[f] = _lerp_box(tracklet.boxes[lo], tracklet.boxes[hi],
                                         (f - lo) / (hi - lo))
            # Boundary gaps: constant velocity, at most MAX_EXTRAPOLATION frames.
            first, last = observed[0], observed[-1]
            if len(observed) > 1:
                prev_lo, gap_lo = tracklet.boxes[observed[1]], observed[1] - first
                prev_hi, gap_hi = tracklet.boxes[observed[-2]], last - observed[-2]
            else:
                prev_lo = prev_hi = None
                gap_lo = gap_hi = 1
            for f in range(max(start, first - MAX_EXTRAPOLATION), first):
                boxes[f] = _extrapolate(tracklet.boxes[first], prev_lo, gap_lo, first - f)
            for f in range(last + 1, min(start + window_len, last + MAX_EXTRAPOLATION) + 1):
                boxes[f] = _extrapolate(tracklet.boxes[last], prev_hi, gap_hi, f - last)
            segments.append(WindowSegment2D(
                camera=tracklet.camera, track_id=tracklet.track_id, start=start,
                boxes=dict(sorted(boxes.items()))))
        if start + window_len >= frames[-1]:
            break
        start += step
    return segments


DETECTION_FIELDS = Fields({("frame", "camera"): INT, ("x", "y", "w", "h"): NUM})
_detection_values = itemgetter("frame", "camera", "x", "y", "w", "h")


def _parse_detection(rec) -> Detection:
    frame, camera, x, y, w, h = _detection_values(DETECTION_FIELDS.check(rec))
    box = Bbox(float(x), float(y), float(w), float(h))
    # The area is a positive normal float, so IoU never divides by zero.
    if not (-MAX_BOX_PX <= box.x <= MAX_BOX_PX and -MAX_BOX_PX <= box.y <= MAX_BOX_PX
            and box.w <= MAX_BOX_PX and box.h <= MAX_BOX_PX
            and box.w * box.h >= sys.float_info.min):
        raise ValueError(f"box needs |x|, |y|, w and h at most {MAX_BOX_PX:g} and an "
                         f"area w * h of at least {sys.float_info.min:g}, got x={x!r}, "
                         f"y={y!r}, w={w!r}, h={h!r}")
    return Detection(frame, camera, box)


def load_detections(path) -> list[Detection]:
    """Read a JSON-lines detection stream sorted by frame."""
    return read_jsonl(path, "detection", _parse_detection)


def save_detections(detections: list[Detection], path) -> None:
    write_jsonl(path, ({"frame": det.frame, "camera": det.camera, "x": det.bbox.x,
                        "y": det.bbox.y, "w": det.bbox.w, "h": det.bbox.h}
                       for det in detections))
