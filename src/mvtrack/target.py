"""Target selection among tracked identities, gap filling, smoothing and
per-view box emission.

The pipeline always tracks every identity; the target is a view over the
multi-object output, picked by the height-trigger rule and re-picked by
the same rule after a loss.  Short gaps in the target track are bridged
by linear interpolation, in blocks split at the longer gaps; each block is
smoothed and reprojected into each camera with buffered square boxes, the
box rule evaluated per camera over the whole timeline as arrays, into
columns that are written a line per frame from one template.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cascade import (PROVENANCE, Provenance, Tracklet3D, TrackingSpace,
                      attach_top_bottom_batch)
from .geometry import CameraRig, project
from .stitch import TrackRegistry
from .records import INT, NUM, Fields, read_jsonl

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
    the buffer are read, however long the buffer."""
    lo = max(current_frame - crit.delta - t3.first, 0)
    rows = slice(lo, max(lo, current_frame + 1 - t3.first))
    X = t3.points[rows]
    hits = (((X >= space.perf[:3]) & (X <= space.perf[3:])).all(axis=1)
            & (t3.top[rows, 2] > crit.h_top) & (t3.bottom[rows, 2] > crit.h_bot))
    return int(hits.sum()) > crit.occupancy * crit.delta


def smooth_track(t3: Tracklet3D, window: int = SMOOTH_WINDOW) -> Tracklet3D:
    """Centered moving average over each run of consecutive frames with a
    point; near run ends the window shrinks symmetrically.  Each output is
    the sum of its window's rows, added in frame order from zero, over
    their count: the bits of `np.mean(axis=0)` of those rows."""
    if window % 2 != 1 or window < 1:
        raise ValueError("smoothing window must be odd and >= 1")
    rows = np.flatnonzero(t3.valid)
    # Each row's distance to the nearer end of its run bounds its window.
    breaks = np.flatnonzero(np.diff(rows) != 1) + 1
    starts, ends = np.r_[0, breaks], np.r_[breaks, len(rows)]
    at = np.arange(len(rows))
    run = np.repeat(np.arange(len(starts)), ends - starts)
    k = np.minimum(window // 2, np.minimum(at - starts[run], ends[run] - 1 - at))
    total = np.zeros((len(rows), 3))
    for step in range(window):
        use = step <= 2 * k
        total[use] += t3.points[rows[use] - k[use] + step]
    points = np.full_like(t3.points, np.nan)
    points[rows] = total / (2 * k + 1)[:, None]
    return Tracklet3D(t3.first, points, t3.provenance.copy())


@dataclass(frozen=True)
class TargetRecords:
    """The target output, a row per frame: `frame` and `track_id` (n,) int64,
    `X` (n, 3) float64, `provenance` (n,) uint8 codes into `PROVENANCE`, and
    `views` (C, n, 3), per camera of `cameras` (rig order) the x, y and side
    of its buffered square box, NaN where that camera shows no view."""

    frame: np.ndarray
    track_id: np.ndarray
    X: np.ndarray
    provenance: np.ndarray
    cameras: tuple[int, ...]
    views: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)


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
                               and wt.track.first + window_len >= t_c - self.criteria.delta]
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
                attach_top_bottom_batch([(wt.track, wt.segments) for wt in pending],
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

    def finalize(self, registry: TrackRegistry, rig: CameraRig) -> TargetRecords:
        # Each tenure's points after the frames already taken, to its end.
        parts, emitted_end = [], -1
        for tenure in self.tenures:
            rec = registry.tracks[tenure["id"]]
            t3 = rec.tracklet
            end = tenure["end"] if tenure["end"] is not None else rec.last_frame
            rows = np.flatnonzero(t3.valid)
            rows = rows[(rows > emitted_end - t3.first) & (rows <= end - t3.first)]
            parts.append((t3.first + rows, t3.points[rows], t3.provenance[rows],
                          np.full(len(rows), tenure["id"])))
            emitted_end = max(emitted_end, end)
        if not any(len(frames) for frames, _, _, _ in parts):
            return self._emit(np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0, np.uint8),
                              np.zeros(0, np.int64), registry, rig)
        frames, X, codes, tids = map(np.concatenate, zip(*parts))

        # A block per run of frames whose gaps can all be bridged, so the
        # timeline stays sparse across longer ones.
        blocks = []
        for run in np.split(np.arange(len(frames)),
                            np.flatnonzero(np.diff(frames) > self.max_gap + 1) + 1):
            rows = frames[run] - frames[run[0]]
            block = Tracklet3D(int(frames[run[0]]), np.full((rows[-1] + 1, 3), np.nan),
                               np.zeros(rows[-1] + 1, np.uint8))
            block.points[rows], block.provenance[rows] = X[run], codes[run]
            tid = np.zeros(len(block.points), dtype=int)
            tid[rows] = tids[run]
            self._fill_gaps(block, tid)
            block = smooth_track(block, self.smooth_window)
            blocks.append((block.first + np.arange(len(tid)), block.points,
                           block.provenance, tid))
        return self._emit(*map(np.concatenate, zip(*blocks)), registry, rig)

    def _fill_gaps(self, target: Tracklet3D, tids: np.ndarray) -> None:
        """Bridge each gap of at most max_gap frames between frames a and b
        with points linear in u = (f - a) / (b - a), taking b's track id."""
        rows = np.flatnonzero(target.valid)
        gap = np.diff(rows) - 1
        bridged = (gap >= 1) & (gap <= self.max_gap)
        for a, b in zip(rows[:-1][bridged].tolist(), rows[1:][bridged].tolist()):
            u = (np.arange(a + 1, b) - a) / (b - a)
            target.points[a + 1:b] = ((1 - u)[:, None] * target.points[a]
                                      + u[:, None] * target.points[b])
            target.provenance[a + 1:b] = PROVENANCE.index(Provenance.INTERPOLATED)
            tids[a + 1:b] = tids[b]

    def _emit(self, frames: np.ndarray, X: np.ndarray, codes: np.ndarray, tids: np.ndarray,
              registry: TrackRegistry, rig: CameraRig) -> TargetRecords:
        """The timeline's columns, with a view per camera the point projects
        into once that camera has a size: a square centred on the
        projection, its side buffer_scale * max(w, h) of the box linked
        there when the projection lies within half that size of the box's
        centre, else of the camera's last such box.  Each rule is one array
        operation per camera."""
        linked = [(tids == tid, registry.tracks[tid].boxes_by_camera(
            tid, frames[tids == tid], [cam.id for cam in rig])) for tid in np.unique(tids).tolist()]
        views = np.full((len(rig), len(frames), 3), np.nan)
        for c, (view, cam) in enumerate(zip(views, rig)):
            # The box linked at each frame, NaN where none.
            boxes = np.full((len(frames), 4), np.nan)
            for rows, track_boxes in linked:
                boxes[rows] = track_boxes[c]
            x, y = project(cam, X).T
            ox, oy, ow, oh = boxes.T
            size = np.maximum(ow, oh)
            hit = np.hypot(x - ox, y - oy) <= 0.5 * size
            last = np.maximum.accumulate(np.where(hit, np.arange(len(frames)), -1))
            shown = ~np.isnan(x) & (last >= 0)
            view[shown] = np.column_stack([x, y, self.buffer_scale * size[last]])[shown]
        return TargetRecords(frames, tids, X, codes, tuple(cam.id for cam in rig), views)


def save_target_records(records: TargetRecords, path) -> None:
    """Write the target output as JSON-lines, one record per frame: each line
    is json.dumps(record, sort_keys=True), its `per_view` a view per camera
    whose x is not NaN, w and h the side, formatted from one template (the
    floats are finite, written by float.__repr__ as json writes them).
    Lines go to the file's buffer as they are formatted: holding them all
    for one write raised the process's peak memory."""
    with open(path, "w") as fh:
        for f, tid, (x, y, z), code, *views in zip(
                records.frame.tolist(), records.track_id.tolist(), records.X.tolist(),
                records.provenance.tolist(), *(view.tolist() for view in records.views)):
            shown = ", ".join([f'{{"buffered": true, "camera": {camera}, "h": {s!r}, '
                               f'"w": {s!r}, "x": {px!r}, "y": {py!r}}}'
                               for camera, (px, py, s) in zip(records.cameras, views)
                               if px == px])
            fh.write(f'{{"X": [{x!r}, {y!r}, {z!r}], "frame": {f}, '
                     f'"per_view": [{shown}], "provenance": "{PROVENANCE[code].value}", '
                     f'"track_id": {tid}}}\n')


VIEW_FIELDS = Fields({"camera": INT, ("x", "y", "w", "h"): NUM})
# The fields `metrics.evaluate` reads, with the kinds `save_target_records` writes.
TARGET_FIELDS = Fields({"frame": INT, "track_id": INT, "X": 3, "per_view": [VIEW_FIELDS]},
                       optional=("per_view",))


def load_target_records(path) -> list[dict]:
    return read_jsonl(path, "target", TARGET_FIELDS.check)
