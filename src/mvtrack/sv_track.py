"""Detections as columns, per-camera IoU tracking and sliding-window
segmentation.

Boxes travel as arrays from the file to the cascade: `load_detections`
gives one columnar `Detections` (frame, camera and (x, y, w, h) box
columns, in file order), checked a block of lines at a time with one
column test per rule and the first bad line in file order named; a
tracklet holds its frames and boxes as arrays; and a run's window
segments are one `Segments` table of columns.  `Bbox`, `Detection` and
`WindowSegment2D` are the row forms of a box, a detection and a segment;
nothing from `load_detections` to the cascade builds them.

Tracks are matched greedily by descending IoU (classic IoU-tracker
behavior), with ties broken by the lower track id, then the lower
detection index.  The corners and area of each box are computed once, as
arrays, and each live track keeps the tuple of its last box, so scoring a
pair is a few float operations inline.  Completed tracklets are later cut
into temporally overlapping window segments on a global frame grid so that
segments from different cameras line up.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .records import INT, NUM, BadRecord, Fields, read_blocks, write_jsonl

IOU_THRESHOLD = 0.1
MAX_AGE = 2
WINDOW_LEN = 10
MIN_SEGMENT_OBS = 5
MAX_EXTRAPOLATION = 2
# The bound on |x|, |y|, w and h of an input box: every value derived from
# one by interpolation, extrapolation or triangulation stays finite.
MAX_BOX_PX = 1e9
# The bound on a detection's frame index, so frames and every window start
# and end derived from them fit in int64 arrays.
MAX_FRAME = 2**31 - 1
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


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


@dataclass(frozen=True)
class Detection:
    frame: int
    camera: int
    bbox: Bbox

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError("frame index must be >= 0")


class Columns:
    """A dataclass of equal-length array fields, one row per index."""

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))

    def take(self, index):
        """The rows at `index`, a slice, index array or mask, in its order."""
        return type(self)(*(column[index] for column in vars(self).values()))


@dataclass(frozen=True, eq=False)
class Detections(Columns):
    """Detections as columns, one row per detection: `frame` and `camera`
    (N,) int64 and `boxes` (N, 4) float64 rows (x, y, w, h)."""

    frame: np.ndarray
    camera: np.ndarray
    boxes: np.ndarray

    # Row views, and `from_rows` to turn a list of them back into columns,
    # serve callers that walk detections one at a time (bench/traced.py).
    # Delete both with ROADMAP item 12, which makes that caller a trace reader.
    def __iter__(self):
        for frame, camera, box in zip(self.frame.tolist(), self.camera.tolist(),
                                      self.boxes.tolist()):
            yield Detection(frame, camera, Bbox(*box))

    @classmethod
    def from_rows(cls, rows) -> Detections:
        rows = list(rows)
        return cls(np.array([d.frame for d in rows], dtype=np.int64),
                   np.array([d.camera for d in rows], dtype=np.int64),
                   np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in rows],
                            dtype=float).reshape(-1, 4))


@dataclass(eq=False)
class Tracklet2D:
    """One camera's track: its frames, increasing, as an (n,) int64 array,
    and the box at each, (n, 4)."""

    camera: int
    track_id: int
    frames: np.ndarray
    boxes: np.ndarray


@dataclass(eq=False)
class WindowSegment2D:
    """A `Segments` row as an object, for bench/traced.py."""

    camera: int
    track_id: int
    start: int
    boxes: np.ndarray

    @property
    def key(self) -> tuple[int, int]:
        return (self.camera, self.track_id)


def run_edges(values: np.ndarray) -> list[int]:
    """The first index of each run of equal `values`, then their count: run
    k is values[edges[k]:edges[k + 1]], as a window of a sorted `Segments`."""
    return np.flatnonzero(np.diff(values, prepend=values[:1] - 1)).tolist() + [len(values)]


@dataclass(frozen=True, eq=False)
class Segments(Columns):
    """Window segments as columns, a row per tracklet in a window [start,
    start + L]: `camera`, `track_id` and `start` (S,) int64, and `boxes`
    (S, L + 1, 4), row k the box at frame start + k, NaN where none.  Sorted
    by (start, camera, track_id), a window is a run of rows in key order."""

    camera: np.ndarray
    track_id: np.ndarray
    start: np.ndarray
    boxes: np.ndarray

    @classmethod
    def concat(cls, parts, span: int = 0) -> Segments:
        """The rows of the tables `parts`, in order (with none, of `span` frames)."""
        if not parts:
            return cls(*(np.empty(0, np.int64),) * 3, np.empty((0, span, 4)))
        return cls(*map(np.concatenate, zip(*(vars(part).values() for part in parts))))

    def sorted(self) -> Segments:
        return self.take(np.lexsort((self.track_id, self.camera, self.start)))

    def keys(self, rows=slice(None)) -> list[tuple[int, int]]:
        """The (camera, track_id) of each of `rows`."""
        return list(zip(self.camera[rows].tolist(), self.track_id[rows].tolist()))

    @property
    def valid(self) -> np.ndarray:
        """The (S, L + 1) mask of the cells that hold a box."""
        return ~np.isnan(self.boxes[..., 0])

    # Row objects, and `from_rows` to sort a list of them into a table, serve
    # bench/traced.py.  Delete both, and `WindowSegment2D`, with ROADMAP item 12.
    def __iter__(self):
        rows = zip(self.camera.tolist(), self.track_id.tolist(), self.start.tolist(), self.boxes)
        return (WindowSegment2D(*row) for row in rows)

    @classmethod
    def from_rows(cls, rows) -> Segments:
        return cls(*map(np.array, zip(*(vars(row).values() for row in rows)))).sorted()


class IouTracker:
    """Online greedy IoU tracker over one camera's detections; each step
    takes the rows of those detections at one frame.

    Tracks unmatched for more than `max_age` frames are closed and
    emitted.  New track ids increase monotonically and are never reused.
    """

    def __init__(self, camera: int, detections: Detections,
                 iou_threshold: float = IOU_THRESHOLD, max_age: int = MAX_AGE):
        if (detections.camera != camera).any():
            raise ValueError(f"camera {camera}'s tracker was given another camera's "
                             "detections")
        self.camera = camera
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self._detections = detections
        self._frames = detections.frame.tolist()
        # Corners and area once per box, with the arithmetic of
        # `Bbox.corners`; the pair loop is the IoU inline (min/max spelled
        # out with their tie rules), since a function call per pair would
        # cost more than the arithmetic.
        x, y, w, h = detections.boxes.T
        self._scored = list(zip((x - w / 2).tolist(), (y - h / 2).tolist(),
                                (x + w / 2).tolist(), (y + h / 2).tolist(),
                                (w * h).tolist()))
        self._next_id = 0
        self._live: list[dict] = []

    def step(self, frame: int, rows) -> list[Tracklet2D]:
        """Advance one frame with the detections at `rows`, all of that
        frame; returns tracklets closed at this step."""
        if any(self._frames[r] != frame for r in rows):
            raise ValueError("detections must share the step's frame")
        boxes = [self._scored[r] for r in rows]
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
            track["rows"].append(rows[di])
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
                closed.append(self._tracklet(track))
            else:
                survivors.append(track)
        self._live = survivors

        for di, row in enumerate(rows):
            if di in used_dets:
                continue
            self._live.append({"id": self._next_id, "rows": [row], "last": boxes[di],
                               "missed": 0})
            self._next_id += 1
        return closed

    def finish(self) -> list[Tracklet2D]:
        """Close and emit all remaining live tracks."""
        closed = [self._tracklet(t) for t in self._live]
        self._live = []
        return closed

    def _tracklet(self, track: dict) -> Tracklet2D:
        rows = track["rows"]
        return Tracklet2D(self.camera, track["id"], self._detections.frame[rows],
                          self._detections.boxes[rows])


def track_camera_stream(camera: int, detections: Detections,
                        iou_threshold: float = IOU_THRESHOLD,
                        max_age: int = MAX_AGE) -> list[Tracklet2D]:
    """Run the IoU tracker over one camera's full detection stream, taken
    in frame order and, within a frame, in the stream's order.

    A frame without detections is stepped only while some track is live
    (at most max_age + 1 such frames in a row); with none live, an empty
    step changes nothing, so the tracker jumps to the next detection.

    `detections` may also be a list of `Detection` rows, turned back into
    columns here (see `Detections.from_rows`)."""
    if not isinstance(detections, Detections):
        detections = Detections.from_rows(detections)
    detections = detections.take(np.argsort(detections.frame, kind="stable"))
    tracker = IouTracker(camera, detections, iou_threshold, max_age)
    frames, edges = detections.frame.tolist(), run_edges(detections.frame)
    tracklets: list[Tracklet2D] = []
    empty = 0
    for lo, hi in zip(edges, edges[1:]):
        frame = frames[lo]
        while tracker._live and empty < frame:
            tracklets.extend(tracker.step(empty, ()))
            empty += 1
        tracklets.extend(tracker.step(frame, range(lo, hi)))
        empty = frame + 1
    tracklets.extend(tracker.finish())
    tracklets.sort(key=lambda t: t.track_id)
    return tracklets


def _extrapolate(out: np.ndarray, slots: np.ndarray, frames: np.ndarray,
                 boxes: np.ndarray, anchor: np.ndarray, prev: np.ndarray,
                 mask: np.ndarray) -> None:
    """Fill out[mask] at constant velocity from each window's observation
    `anchor` and the one next to it, `prev`, per-field as
    anchor + (anchor - prev) * (steps / gap), w and h at least 1e-6; a
    window with one observation (prev == anchor) holds its box."""
    w, j = np.nonzero(mask)
    a, p = anchor[w], prev[w]
    u = np.abs(slots[w, j] - frames[a]) / np.maximum(np.abs(frames[a] - frames[p]), 1)
    moved = boxes[a] + (boxes[a] - boxes[p]) * u[:, None]
    moved[:, 2:] = np.maximum(moved[:, 2:], 1e-6)
    out[w, j] = np.where((p != a)[:, None], moved, boxes[a])


def segment_windows(tracklet: Tracklet2D, window_len: int = WINDOW_LEN,
                    min_observed: int = MIN_SEGMENT_OBS) -> Segments:
    """Cut a tracklet into overlapping [start, start + window_len] segments,
    its rows of a table.

    Starts lie on the global step grid (so segments of different cameras
    share windows), advancing by window_len/2 from the tracklet's first
    frame to the first window that reaches its last.  Segments with fewer
    than `min_observed` observed frames are discarded; the rest get
    interior gaps linearly interpolated, a + (b - a) * ((f - lo) / (hi - lo))
    per field, and up to MAX_EXTRAPOLATION boundary frames extrapolated at
    constant velocity.  All windows of the tracklet are filled at once.
    """
    if window_len < 2 or window_len % 2 != 0:
        raise ValueError("window_len must be even and >= 2")
    step = window_len // 2
    frames, boxes = tracklet.frames, tracklet.boxes
    if not len(frames):
        return Segments.concat([], window_len + 1)

    first_start = int(frames[0]) // step * step
    last_k = max(0, -(-(int(frames[-1]) - window_len - first_start) // step))
    # Only windows that hold an observation can be kept: those starting in
    # the two steps up to one.
    k = (frames - first_start) // step
    ks = np.unique(np.concatenate([k - 2, k - 1, k]))
    starts = first_start + ks[(ks >= 0) & (ks <= last_k)] * step
    lo = np.searchsorted(frames, starts, "left")
    hi = np.searchsorted(frames, starts + window_len, "right")
    keep = hi - lo >= min_observed
    starts, lo, hi = starts[keep], lo[keep], hi[keep]

    slots = starts[:, None] + np.arange(window_len + 1)
    first, last = frames[lo][:, None], frames[hi - 1][:, None]
    out = np.full(slots.shape + (4,), np.nan)
    # From the first to the last observation: the observed box, or the
    # interpolation between the observations around the frame.
    w, j = np.nonzero((slots >= first) & (slots <= last))
    f = slots[w, j]
    i = np.searchsorted(frames, f, "right") - 1
    seen = frames[i] == f
    out[w[seen], j[seen]] = boxes[i[seen]]
    w, j, f, i = w[~seen], j[~seen], f[~seen], i[~seen]
    u = (f - frames[i]) / (frames[i + 1] - frames[i])
    out[w, j] = boxes[i] + (boxes[i + 1] - boxes[i]) * u[:, None]
    # Boundary gaps, from the two observations nearest each boundary.
    single = hi - lo == 1
    _extrapolate(out, slots, frames, boxes, lo, np.where(single, lo, lo + 1),
                 (slots < first) & (slots >= first - MAX_EXTRAPOLATION))
    _extrapolate(out, slots, frames, boxes, hi - 1, np.where(single, hi - 1, hi - 2),
                 (slots > last) & (slots <= last + MAX_EXTRAPOLATION))
    return Segments(np.full(len(starts), tracklet.camera, np.int64),
                    np.full(len(starts), tracklet.track_id, np.int64), starts, out)


DETECTION_FIELDS = Fields({("frame", "camera"): INT, ("x", "y", "w", "h"): NUM})
_detection_values = itemgetter("frame", "camera", "x", "y", "w", "h")
_COMMON_TYPES = (int, int, float, float, float, float)


def _kind_error(rec) -> Exception | None:
    try:
        DETECTION_FIELDS.check(rec)
    except (ValueError, KeyError) as exc:
        return exc
    return None


def _ints(values: tuple) -> np.ndarray:
    """Python ints as int64, or as objects where one does not fit (a bad
    file's)."""
    if values and not _INT64_MIN <= min(values) <= max(values) <= _INT64_MAX:
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.int64)


def _detection_block(recs: list, cameras) -> tuple:
    """(frame, camera, boxes) columns of a block of decoded detection
    records, or BadRecord for the first that breaks a rule of
    `load_detections`.  Kinds take one type-set test per field, and
    `DETECTION_FIELDS` only for a record of other types; each value rule
    is one mask over the records before the first of a wrong kind, `end`."""
    rows = []
    try:
        rows.extend(map(_detection_values, recs))
    except (KeyError, TypeError):
        pass
    columns, end = list(zip(*rows)) or [()] * 6, len(rows)
    if not all(set(map(type, column)) <= {kind} for column, kind in zip(columns, _COMMON_TYPES)):
        end = next((i for i, row in enumerate(rows) if tuple(map(type, row)) != _COMMON_TYPES
                    and _kind_error(recs[i])), end)
    boxes = np.array([column[:end] for column in columns[2:]], dtype=float).T.copy()
    finite = np.isfinite(boxes).all(axis=1)  # NaN and inf are floats, but no NUM
    end = int(np.argmin(finite)) if not finite.all() else end
    boxes = boxes[:end]
    frame, camera = _ints(columns[0][:end]), _ints(columns[1][:end])
    w, h = boxes[:, 2], boxes[:, 3]
    absent = [] if cameras is None else [c for c in np.unique(camera).tolist() if c not in cameras]
    with np.errstate(over="ignore"):
        # Each value rule's mask and its message from a record's values.  The
        # area is a positive normal float, so IoU never divides by zero.
        rules = [((w <= 0) | (h <= 0), lambda f, c, x, y, w, h:
                  f"box sides must be positive, got w={float(w)}, h={float(h)}"),
                 (~((np.abs(boxes) <= MAX_BOX_PX).all(axis=1) & (w * h >= sys.float_info.min)),
                  lambda f, c, x, y, w, h:
                  f"box needs |x|, |y|, w and h at most {MAX_BOX_PX:g} and an area w * h of "
                  f"at least {sys.float_info.min:g}, got x={x!r}, y={y!r}, w={w!r}, h={h!r}"),
                 (frame < 0, lambda *_: "frame index must be >= 0"),
                 (frame > MAX_FRAME,
                  lambda f, *_: f"frame index must be at most {MAX_FRAME}, got {f}"),
                 ((camera < _INT64_MIN) | (camera > _INT64_MAX),
                  lambda f, c, *_: f"camera id must fit in a signed 64-bit integer, got {c}"),
                 (np.isin(camera, absent),
                  lambda f, c, *_: f"camera {c} is absent from calibration")]
    broken = np.any([mask for mask, _ in rules], axis=0)
    if broken.any():
        i = int(np.argmax(broken))
        message = next(message for mask, message in rules if mask[i])
        raise BadRecord(i, ValueError(message(*rows[i])))
    if end < len(recs):
        raise BadRecord(end, _kind_error(recs[end]))
    return frame, camera, boxes


def load_detections(path, cameras=None) -> Detections:
    """Read a JSON-lines detection stream into columns, in file order.

    A line that is not a detection record raises ValueError "path:line: bad
    detection record: ..." for the first such line, naming the first rule
    it breaks: its JSON value is not an object with integer frame and
    camera and finite x, y, w and h; its box has a side <= 0, a value
    beyond MAX_BOX_PX or an area below the smallest normal float; its
    frame is negative or beyond MAX_FRAME; its camera id does not fit in
    int64; or, given the collection `cameras`, its camera is not in it.
    The file is read and checked in blocks of `records.BLOCK_LINES` lines,
    each rule as one column test over a block."""
    blocks = read_blocks(path, "detection", lambda recs: _detection_block(recs, cameras))
    frame, camera, boxes = zip(*blocks or [_detection_block([], None)])
    return Detections(np.concatenate(frame), np.concatenate(camera), np.concatenate(boxes))


def save_detections(detections: Detections, path) -> None:
    write_jsonl(path, ({"frame": frame, "camera": camera, "x": x, "y": y, "w": w, "h": h}
                       for frame, camera, (x, y, w, h) in zip(
                           detections.frame.tolist(), detections.camera.tolist(),
                           detections.boxes.tolist())))
