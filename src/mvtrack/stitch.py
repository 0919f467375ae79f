"""Cross-window stitching of fragmented 3D tracklets.

Adjacent windows overlap by half a window; fragment pairs are scored by
their mean 3D distance over shared frames (NaN when they share none)
and matched with an optimal linear assignment, rejecting pairs with no
shared frame or above the unmatched threshold.  Each window scores all
live-track x window-track pairs at once, on arrays over the window's
frames only.  Unmatched fragments get fresh ids as copies, so a track's
arrays start at the window that made it; matched ones, starting later,
are merged in place, averaging the overlap and appending the rest.

The assignment is solved in plain Python by `min_cost_assignment`, the
shortest-augmenting-path method of Crouse ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016), a variant of Jonker
and Volgenant's.  Its tie rules are those of the C++ port of that method
behind the common `linear_sum_assignment`, whose (rows, cols) it
reproduces on every input (the tests pin this):
- the remaining columns are scanned from the highest index down;
- on an equal shortest-path cost an unassigned column wins;
- a tall matrix is solved transposed and the result sorted by row;
- NaN or -inf entries, or no assignment of finite cost (a row of +inf),
  raise ValueError.
Stitching matrices are live tracks x window tracks, a few rows, where
list arithmetic costs less than array dispatch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import Tracklet3D, WindowTrack
from .sv_track import Segments

logger = logging.getLogger(__name__)

STITCH_THRESHOLD_M = 0.6

# Cost used for no-overlap (NaN) entries; far above any plausible
# threshold, so such pairs are always rejected.
UNAVAILABLE_COST = 1e9


def window_distance_matrix(prev: list[Tracklet3D], nxt: list[Tracklet3D]) -> np.ndarray:
    """The (len(prev), len(nxt)) array of mean per-frame distances over
    shared frames, NaN for a pair that shares none; `nxt` are the tracks
    of one window, on its grid.

    Every pair is scored in one pass over the window's frames, copying
    only each live track's slice of them.  Each pair's mean is `np.mean`
    of its per-frame distances in frame order: pairs with the same number
    of shared frames are reduced together as contiguous rows, which numpy
    sums exactly as it sums one such row.
    """
    first, n = (nxt[0].first, len(nxt[0].points)) if nxt else (0, 0)
    b = np.array([t.points for t in nxt]).reshape(len(nxt), n, 3)
    a = np.full((len(prev), n, 3), np.nan)
    for row, t in zip(a, prev):
        lo = max(first, t.first)
        hi = max(lo, min(first + n, t.first + len(t.points)))
        row[lo - first:hi - first] = t.points[lo - t.first:hi - t.first]
    dist = np.linalg.norm(a[:, None] - b[None], axis=-1)
    shared = ~np.isnan(a[:, None, :, 0]) & ~np.isnan(b[None, :, :, 0])
    counts = shared.sum(axis=-1)
    D = np.full(counts.shape, np.nan)
    for k in set(counts[counts > 0].tolist()):
        sel = counts == k
        D[sel] = np.mean(dist[sel][shared[sel]].reshape(-1, k), axis=1)
    return D


def min_cost_assignment(cost: list[list[float]]) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-cost assignment of a rectangular
    cost matrix given as a list of rows; min(rows, columns) pairs, sorted
    by row.  Raises ValueError for NaN or -inf entries and for a matrix
    with no finite assignment."""
    nr, nc = len(cost), len(cost[0]) if cost else 0
    if not nr or not nc:
        return [], []
    if any(c != c or c == -math.inf for row in cost for c in row):
        raise ValueError("cost matrix contains NaN or -inf entries")
    transposed = nc < nr
    if transposed:
        cost = [list(col) for col in zip(*cost)]
        nr, nc = nc, nr
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur_row in range(nr):
        # Dijkstra over reduced costs from cur_row to an unassigned column.
        spc = [math.inf] * nc
        rows_seen, cols_seen = [cur_row], []
        remaining = list(range(nc - 1, -1, -1))
        min_val, i, sink = 0.0, cur_row, -1
        while sink == -1:
            index, lowest = -1, math.inf
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                rows_seen.append(i)
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:  # flip the path back to cur_row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transposed:
        pairs = sorted((r, c) for c, r in enumerate(col4row))
        return [r for r, _ in pairs], [c for _, c in pairs]
    return list(range(nr)), col4row


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
    n_rows, n_cols = D.shape
    cost = np.where(np.isnan(D), UNAVAILABLE_COST, D).tolist()
    pairs = [(i, j) for i, j in zip(*min_cost_assignment(cost))
             if cost[i][j] <= unmatched_threshold]
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    return (pairs,
            [i for i in range(n_rows) if i not in matched_rows],
            [j for j in range(n_cols) if j not in matched_cols])


def _average_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge the (n, 3) rows b into a in place, averaging a row both have;
    returns where only b has one, taken from it."""
    has_a, has_b = ~np.isnan(a[:, 0]), ~np.isnan(b[:, 0])
    only_b = has_b & ~has_a
    np.copyto(a, (a + b) / 2.0, where=(has_a & has_b)[:, None])
    np.copyto(a, b, where=only_b[:, None])
    return only_b


def merge_assigned(prev: Tracklet3D, nxt: Tracklet3D) -> Tracklet3D:
    """Merge an assigned fragment, starting no earlier than prev, into prev
    in place and return prev.  Only nxt's frames are visited: a frame both
    have is averaged, keeping prev's provenance; a frame only nxt has is
    taken from it."""
    at, n = nxt.first - prev.first, len(nxt.points)
    if at + n > len(prev.points):
        # Grown by at least doubling: appending costs amortised O(1) a frame.
        pad = max(at + n, 2 * len(prev.points)) - len(prev.points)
        prev.points, prev.top, prev.bottom = (np.concatenate([a, np.full((pad, 3), np.nan)])
                                              for a in (prev.points, prev.top, prev.bottom))
        prev.provenance = np.concatenate([prev.provenance, np.zeros(pad, np.uint8)])
    taken = _average_into(prev.points[at:at + n], nxt.points)
    prev.provenance[at:at + n][taken] = nxt.provenance[taken]
    return prev


@dataclass
class TrackRecord:
    """A stitched track: the accumulated 3D tracklet and its last frame,
    kept at each merge; the segments of each window track merged into it;
    and those window tracks whose heights are not yet folded into the
    tracklet (see `target.TargetMaintainer.observe`), both in merge order."""

    tracklet: Tracklet3D
    segments: list[Segments] = field(default_factory=list)
    pending: list[WindowTrack] = field(default_factory=list)
    last_frame: int = field(init=False)

    def __post_init__(self):
        self.last_frame = int(self.tracklet.frames.max(initial=-1))

    def boxes_by_camera(self, track_id: int, frames: np.ndarray, cameras) -> np.ndarray:
        """(len(cameras), len(frames), 4): per camera, the 2D box at each of
        the increasing `frames` among the merged segments, read there only,
        NaN where none; where two windows' boxes differ the newer one's wins."""
        out = np.full((len(cameras), len(frames), 4), np.nan)
        table = Segments.concat(self.segments)
        for boxes, camera in zip(out, cameras):
            rows = np.flatnonzero(table.camera == camera)
            cells = table.start[rows, None] + np.arange(table.boxes.shape[1])
            at = np.minimum(np.searchsorted(frames, cells), len(frames) - 1)
            row, j = np.nonzero(~np.isnan(table.boxes[rows, :, 0]) & (frames[at] == cells))
            pos, linked = at[row, j], table.boxes[rows[row], j]
            # The last of the merge-ordered boxes at each frame wins.
            kept, last = np.unique(pos[::-1], return_index=True)
            boxes[kept] = linked[::-1][last]
            if logger.isEnabledFor(logging.DEBUG):
                for f in frames[np.unique(pos[(linked != boxes[pos]).any(axis=1)])].tolist():
                    logger.debug("track %d cam %d frame %d: 2D link conflict, keeping "
                                 "newer window", track_id, camera, f)
        return out

    def fold_heights(self) -> None:
        """Fold the solved tops and bottoms of the pending window tracks
        into the tracklet in merge order, averaging a frame it already has,
        and clear them."""
        for wt in self.pending:
            at = wt.track.first - self.tracklet.first
            rows = slice(at, at + len(wt.track.points))
            _average_into(self.tracklet.top[rows], wt.track.top)
            _average_into(self.tracklet.bottom[rows], wt.track.bottom)
        self.pending = []


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
                      if rec.last_frame >= window_start)

    def advance(self, window_start: int, window_tracks: list[WindowTrack]) -> None:
        live = self.live_tracks(window_start)
        D = window_distance_matrix([self.tracks[tid].tracklet for tid in live],
                                   [wt.track for wt in window_tracks])
        pairs, _unmatched_prev, unmatched_next = assign(D, self.unmatched_threshold)

        for i, j in pairs:
            rec, wt = self.tracks[live[i]], window_tracks[j]
            merge_assigned(rec.tracklet, wt.track)
            rec.last_frame = max(rec.last_frame, int(wt.track.frames[-1]))
            rec.segments.append(wt.segments)
            rec.pending.append(wt)
        for j, tid in zip(unmatched_next, self.new_track_ids(len(unmatched_next))):
            wt = window_tracks[j]
            # Merged into an empty track from the window's start: a copy, so
            # later merges leave the window track as it was.
            empty = Tracklet3D(wt.track.first, np.empty((0, 3)), np.empty(0, np.uint8))
            self.tracks[tid] = TrackRecord(tracklet=merge_assigned(empty, wt.track),
                                           segments=[wt.segments], pending=[wt])
