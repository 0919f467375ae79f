"""Target selection among tracked identities, gap filling, smoothing and
per-view box emission.

The pipeline always tracks every identity; the target is a view over the
multi-object output, picked by the height-trigger rule and re-picked by
the same rule after a loss.  The target timeline is sparse columns: short
gaps are bridged by linear interpolation, each run of frames is smoothed
and reprojected into each camera with buffered square boxes, the box rule
evaluated per camera over the whole timeline as arrays, into columns that
are written a line per frame from one template.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cascade import PROVENANCE, Provenance, TrackingSpace, solve_heights
from .geometry import CameraRig, project
from .stitch import TrackRecord, TrackRegistry
from .records import INT, NUM, Fields, describe, read_jsonl

logger = logging.getLogger(__name__)

IDENTIFY_WINDOW = 30
# The share of the trailing buffer's frames that must pass the trigger.
IDENTIFY_OCCUPANCY = 0.5
MAX_GAP_FILL = 7
BUFFER_SCALE = 1.3
SMOOTH_WINDOW = 5


@dataclass(frozen=True)
class TargetCriteria:
    """Height-trigger thresholds for picking the performing identity."""

    h_top: float
    h_bot: float
    delta: int = IDENTIFY_WINDOW

    def __post_init__(self):
        if not self.h_top >= self.h_bot >= 0:
            raise ValueError("need h_top >= h_bot >= 0")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")


def identify_target(rec: TrackRecord, space: TrackingSpace, crit: TargetCriteria,
                    current_frame: int) -> bool:
    """True when, over the trailing delta-frame buffer, the count of frames
    with (center in perf) and (top.z > h_top) and (bottom.z > h_bot)
    strictly exceeds IDENTIFY_OCCUPANCY * delta.  Only the stitched track's
    frames inside the buffer are read, however long the buffer."""
    lo = max(current_frame - crit.delta - rec.first, 0)
    rows = slice(lo, max(lo, current_frame + 1 - rec.first))
    X = rec.points[rows]
    hits = (((X >= space.perf[:3]) & (X <= space.perf[3:])).all(axis=1)
            & (rec.top[rows, 2] > crit.h_top) & (rec.bottom[rows, 2] > crit.h_bot))
    return int(hits.sum()) > IDENTIFY_OCCUPANCY * crit.delta


def smooth_track(frames: np.ndarray, X: np.ndarray, window: int = SMOOTH_WINDOW) -> np.ndarray:
    """The points X at increasing `frames` after a centered moving average
    over each run of consecutive frames; near run ends the window shrinks
    symmetrically.  Each output is the sum of its window's rows, added in
    frame order from zero, over their count: the bits of
    `np.mean(axis=0)` of those rows."""
    if window % 2 != 1 or window < 1:
        raise ValueError("smoothing window must be odd and >= 1")
    # Each row's distance to the nearer end of its run bounds its window.
    breaks = np.flatnonzero(np.diff(frames) != 1) + 1
    starts, ends = np.r_[0, breaks], np.r_[breaks, len(frames)]
    at = np.arange(len(frames))
    run = np.repeat(np.arange(len(starts)), ends - starts)
    k = np.minimum(window // 2, np.minimum(at - starts[run], ends[run] - 1 - at))
    total = np.zeros((len(frames), 3))
    for step in range(2 * int(k.max(initial=0)) + 1):  # no run needs more steps
        use = step <= 2 * k
        total[use] += X[at[use] - k[use] + step]
    return total / (2 * k + 1)[:, None]


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
    target_id: int | None = field(default=None, init=False)
    tenures: list[dict] = field(default_factory=list, init=False)

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
                               and wt.first + window_len >= t_c - self.criteria.delta]
        if self.target_id is not None:
            rec = registry.tracks[self.target_id]
            if rec.last_frame < window_start:
                logger.info("target track %d lost after frame %d",
                            self.target_id, rec.last_frame)
                self.tenures[-1]["end"] = rec.last_frame
                self.target_id = None
        if self.target_id is None:
            live = registry.live_tracks(window_start)
            records = [registry.tracks[tid] for tid in live]
            pending = [(rec, wt) for rec in records for wt in rec.pending]
            if pending:
                tops, bottoms = solve_heights([wt for _, wt in pending])
                for (rec, wt), top, bottom in zip(pending, tops, bottoms):
                    rec.fold_heights(wt.first, top, bottom)
            for rec in records:
                rec.pending = []
            for tid, rec in zip(live, records):
                if identify_target(rec, self.space, self.criteria, t_c):
                    self.target_id = tid
                    self.tenures.append({"id": tid, "identified_at": t_c,
                                         "end": None})
                    logger.info("target identified: track %d at frame %d", tid, t_c)
                    break

    def finalize(self, registry: TrackRegistry, rig: CameraRig) -> TargetRecords:
        # Each tenure's points after the frames already taken, to its end.
        parts, emitted_end = [(np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0, np.uint8),
                               np.zeros(0, np.int64))], -1
        for tenure in self.tenures:
            rec = registry.tracks[tenure["id"]]
            end = tenure["end"] if tenure["end"] is not None else rec.last_frame
            rows = np.flatnonzero(rec.valid)
            rows = rows[(rows > emitted_end - rec.first) & (rows <= end - rec.first)]
            parts.append((rec.first + rows, rec.points[rows], rec.provenance[rows],
                          np.full(len(rows), tenure["id"])))
            emitted_end = max(emitted_end, end)
        frames, X, codes, tids = self._fill_gaps(*map(np.concatenate, zip(*parts)))
        return self._emit(frames, smooth_track(frames, X, self.smooth_window), codes, tids,
                          registry, rig)

    def _fill_gaps(self, frames, X, codes, tids) -> tuple[np.ndarray, ...]:
        """The timeline's columns with each gap of at most max_gap frames
        between frames a and b bridged, its rows inserted before b: points
        linear in u = (f - a) / (b - a), taking b's track id."""
        gap = np.diff(frames) - 1
        bridged = np.flatnonzero((gap >= 1) & (gap <= self.max_gap))
        # Per bridged frame f, the row of its gap's b, before which it goes.
        at = np.repeat(bridged + 1, gap[bridged])
        a, b = frames[at - 1], frames[at]
        f = a + 1 + np.arange(len(at)) - np.searchsorted(at, at)
        u = (f - a) / (b - a)
        points = (1 - u)[:, None] * X[at - 1] + u[:, None] * X[at]
        return (np.insert(frames, at, f), np.insert(X, at, points, axis=0),
                np.insert(codes, at, PROVENANCE.index(Provenance.INTERPOLATED)),
                np.insert(tids, at, tids[at]))

    def _emit(self, frames: np.ndarray, X: np.ndarray, codes: np.ndarray, tids: np.ndarray,
              registry: TrackRegistry, rig: CameraRig) -> TargetRecords:
        """The timeline's columns, with a view per camera the point projects
        into once that camera has a size: a square centred on the
        projection, its side buffer_scale * max(w, h) of the box linked
        there when the projection lies within half that size of the box's
        centre, else of the camera's last such box.  Each rule is one array
        operation per camera."""
        # Per camera, the box linked at each frame, NaN where none.
        linked = np.full((len(rig), len(frames), 4), np.nan)
        for tid in np.unique(tids).tolist():
            # A bridged frame takes the next point's track id, so it can lie
            # before that track's first frame, where it has no link.
            rec = registry.tracks[tid]
            rows = np.flatnonzero((tids == tid) & (frames >= rec.first))
            linked[:, rows] = rec.links[:, frames[rows] - rec.first]
        views = np.full((len(rig), len(frames), 3), np.nan)
        for view, cam, boxes in zip(views, rig, linked):
            x, y = project(cam, X).T
            ox, oy, ow, oh = boxes.T
            size = np.maximum(ow, oh)
            hit = np.hypot(x - ox, y - oy) <= 0.5 * size
            last = np.maximum.accumulate(np.where(hit, np.arange(len(frames)), -1))
            shown = ~np.isnan(x) & (last >= 0)
            view[shown] = np.column_stack([x, y, self.buffer_scale * size[last]])[shown]
        return TargetRecords(frames, tids, X, codes, tuple(rig.ids.tolist()), views)


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
    """The records of a target output file; a record that breaks
    TARGET_FIELDS, or a second record for a frame, is a bad record."""
    seen = set()

    def parse(rec):
        TARGET_FIELDS.check(rec)
        if rec["frame"] in seen:
            raise ValueError(f"a second target record for frame {describe(rec['frame'])}")
        seen.add(rec["frame"])
        return rec
    return read_jsonl(path, "target", parse)
