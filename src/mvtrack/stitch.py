"""Cross-window stitching of fragmented 3D tracklets.

Adjacent windows overlap by half a window; fragment pairs are scored by
their mean 3D distance over shared frames (NaN when they share none)
and matched with an optimal linear assignment, rejecting pairs with no
shared frame or above the unmatched threshold.  Each window scores all
live-track x window-track pairs at once, on arrays over the window's
frames only.
Matched fragments are merged in place into the earlier track, touching
only the new window's frames and averaging the overlap; unmatched
fragments from the new window get fresh ids as copies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cascade import Tracklet3D, WindowTrack
from .sv_track import Bbox

logger = logging.getLogger(__name__)

STITCH_THRESHOLD_M = 0.6

# Cost used for no-overlap (NaN) entries; far above any plausible
# threshold, so such pairs are always rejected.
UNAVAILABLE_COST = 1e9


def window_distance(prev: Tracklet3D, nxt: Tracklet3D) -> float:
    """Mean per-frame Euclidean distance over the shared valid frames;
    NaN when the overlap is empty."""
    return float(window_distance_matrix([prev], [nxt])[0, 0])


def _frame_stack(tracks: list[Tracklet3D], frames: list[int]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(len(tracks), len(frames), 3) points, zero where a track has no
    point, and the matching presence mask.  Only `frames` are looked up,
    so a long live track costs no more than a window track."""
    got = [t.points.get(f) for t in tracks for f in frames]
    has = np.array([p is not None for p in got], dtype=bool
                   ).reshape(len(tracks), len(frames))
    pts = np.zeros(has.shape + (3,))
    present = [p for p in got if p is not None]
    if present:
        pts[has] = np.concatenate(present).reshape(-1, 3)
    return pts, has


def window_distance_matrix(prev: list[Tracklet3D], nxt: list[Tracklet3D]) -> np.ndarray:
    """The (len(prev), len(nxt)) array of mean per-frame distances over
    shared frames, NaN for a pair that shares none.

    Every pair is scored in one pass over the new window's frames.  Each
    pair's mean is `np.mean` of its per-frame distances in frame order:
    pairs with the same number of shared frames are reduced together as
    contiguous rows, which numpy sums exactly as it sums one such row.
    """
    frames = sorted({f for t in nxt for f in t.points})
    a, has_a = _frame_stack(prev, frames)
    b, has_b = _frame_stack(nxt, frames)
    dist = np.linalg.norm(a[:, None] - b[None], axis=-1)
    shared = has_a[:, None] & has_b[None]
    counts = shared.sum(axis=-1)
    D = np.full(counts.shape, np.nan)
    for k in set(counts[counts > 0].tolist()):
        sel = counts == k
        D[sel] = np.mean(dist[sel][shared[sel]].reshape(-1, k), axis=1)
    return D


def assign(D, unmatched_threshold: float = STITCH_THRESHOLD_M
           ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Optimal assignment over a rectangular 2-D array-like with NaN
    (no overlap) entries excluded; assigned pairs costing more than the
    threshold are rejected to unmatched.  Returns (pairs, unmatched_rows,
    unmatched_cols).
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 and not D.size:
        D = D.reshape(0, 0)  # a bare [] has no column count
    cost = np.where(np.isnan(D), UNAVAILABLE_COST, D)
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols)
             if cost[i, j] <= unmatched_threshold]
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    n_rows, n_cols = cost.shape
    return (pairs,
            [i for i in range(n_rows) if i not in matched_rows],
            [j for j in range(n_cols) if j not in matched_cols])


def merge_assigned(prev: Tracklet3D, nxt: Tracklet3D) -> Tracklet3D:
    """Merge an assigned fragment into prev in place and return prev.

    Only nxt's frames are visited: a frame both have is averaged, keeping
    prev's provenance and the union of source views; a frame only nxt has
    is taken from it.  prev's frames before the overlap are untouched and
    prev's id wins."""
    for f, p in nxt.points.items():
        if f in prev.points:
            prev.points[f] = (prev.points[f] + p) / 2.0
            prev.source_views[f] = prev.source_views.get(f, frozenset()) | \
                nxt.source_views.get(f, frozenset())
        else:
            prev.points[f] = p
            prev.provenance[f] = nxt.provenance[f]
            prev.source_views[f] = nxt.source_views.get(f, frozenset())
    for attr in ("top", "bottom"):
        a = getattr(prev, attr)
        for f, b in getattr(nxt, attr).items():
            a[f] = (a[f] + b) / 2.0 if f in a else b
    return prev


@dataclass
class TrackRecord:
    """A live stitched track: the accumulated 3D tracklet plus the 2D boxes
    propagated from associated window segments, per camera."""

    tracklet: Tracklet3D
    boxes2d: dict[int, dict[int, Bbox]] = field(default_factory=dict)

    def absorb_segments(self, segments) -> None:
        # On cross-window 2D conflicts the newer window's segment wins.
        for seg in segments:
            per_cam = self.boxes2d.setdefault(seg.camera, {})
            for f, box in seg.boxes.items():
                if f in per_cam and per_cam[f] != box:
                    logger.debug("track %d cam %d frame %d: 2D link conflict, "
                                 "keeping newer window", self.tracklet.track_id,
                                 seg.camera, f)
                per_cam[f] = box


class TrackRegistry:
    """Sequential cross-window stitcher; confined to the pipeline thread."""

    def __init__(self, unmatched_threshold: float = STITCH_THRESHOLD_M):
        self.unmatched_threshold = unmatched_threshold
        self.tracks: dict[int, TrackRecord] = {}
        self._next_id = 0

    def new_track_ids(self, count: int) -> list[int]:
        ids = list(range(self._next_id, self._next_id + count))
        self._next_id += count
        return ids

    def live_tracks(self, window_start: int) -> list[int]:
        """Tracks that can still overlap a window starting at window_start."""
        return sorted(tid for tid, rec in self.tracks.items()
                      if rec.tracklet.points and
                      rec.tracklet.last_frame >= window_start)

    def advance(self, window_start: int, window_tracks: list[WindowTrack]) -> None:
        live = self.live_tracks(window_start)
        D = window_distance_matrix([self.tracks[tid].tracklet for tid in live],
                                   [wt.tracklet for wt in window_tracks])
        pairs, _unmatched_prev, unmatched_next = assign(D, self.unmatched_threshold)

        for i, j in pairs:
            rec = self.tracks[live[i]]
            merge_assigned(rec.tracklet, window_tracks[j].tracklet)
            rec.absorb_segments(window_tracks[j].segments)
        for j, tid in zip(unmatched_next, self.new_track_ids(len(unmatched_next))):
            wt = window_tracks[j]
            # Merged into an empty track: a copy, so later merges leave the
            # window track as it was.
            rec = TrackRecord(tracklet=merge_assigned(Tracklet3D(track_id=tid),
                                                      wt.tracklet))
            rec.absorb_segments(wt.segments)
            self.tracks[tid] = rec
