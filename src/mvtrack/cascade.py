"""Cascaded association of window clusters to 3D tracklets.

Clusters with enough well-separated views are triangulated directly;
single-view and opposite-view-only clusters are routed to the
ray-plane-intersection path, where coplanar candidates from different
cameras are matched and fused.  Every cluster goes through exactly one
branch.

A cluster is a sorted array of rows of a `sv_track.Segments` table, whose
windows' (L+1)-frame grids make every 3D result from solve to gate an
(L+1, 3) row, NaN where it has no point; the rows of a run of windows
stack, so each step (solve, two-view verdict, plane matching, outlier
gate) is one call per run.  A gated row is a window track's `Tracklet3D`.
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from types import SimpleNamespace

import numpy as np

from .clustering import block_distances, cluster_with_cutoff
from .geometry import (CameraRig, PlaneSpec, ray_plane_intersect_batch,
                       triangulate_batch)
from .sv_track import Segments, WindowSegment2D, run_edges

logger = logging.getLogger(__name__)

THETA_OPP_DEG = 150.0
TAU_PLANE_M = 0.5
VELOCITY_LIMIT_M = 1.0
BETA_M = 1.0
# Cells solved per `triangulate_batch` call in `_triangulate_boxes`: this
# bounds the temporaries of a call however many cells a chunk holds.
CELLS_PER_CALL = 2048

# Box points that are triangulated, as vertical offsets from the box
# center in box heights (image y points down).
CENTER, TOP, BOTTOM = 0.0, -0.5, 0.5


class Provenance(enum.Enum):
    TRIANGULATED = "triangulated"
    PLANE_INTERSECTED = "plane_intersected"
    INTERPOLATED = "interpolated"


# A member's uint8 code in `Tracklet3D.provenance` is its index here.
PROVENANCE = tuple(Provenance)


class Mode(enum.Enum):
    CASCADE = "cascade"
    TRIANGULATION_ONLY = "triangulation_only"
    PLANE_ONLY = "plane_only"


@dataclass
class Tracklet3D:
    """A 3D track over the n frames from `first`: `points` (n, 3) centers,
    NaN at a frame with none, and `provenance` (n,) uint8 codes into
    `PROVENANCE`, read where there is a point.  Its identity is the
    `stitch.TrackRegistry` key it is stored under, if any.  `top` / `bottom`
    (n, 3) hold head/foot points, NaN where none was solved (the default),
    solved only for the height trigger (`attach_top_bottom_batch`)."""

    first: int
    points: np.ndarray
    provenance: np.ndarray
    top: np.ndarray | None = None
    bottom: np.ndarray | None = None

    def __post_init__(self):
        if self.top is None:
            self.top = np.full_like(self.points, np.nan)
        if self.bottom is None:
            self.bottom = np.full_like(self.points, np.nan)

    @property
    def valid(self) -> np.ndarray:
        """(n,) bool, True at the frames with a point."""
        return ~np.isnan(self.points[:, 0])

    @property
    def frames(self) -> np.ndarray:
        return self.first + np.flatnonzero(self.valid)


@dataclass(frozen=True)
class TrackingSpace:
    """Performance cuboid plus the laterally buffered tracking cuboid."""

    perf: tuple[float, float, float, float, float, float]
    beta: float = BETA_M

    def __post_init__(self):
        x0, y0, z0, x1, y1, z1 = self.perf
        if not (x0 < x1 and y0 < y1 and z0 < z1):
            raise ValueError("perf cuboid must have min < max per axis")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    @property
    def track(self) -> tuple[float, float, float, float, float, float]:
        x0, y0, z0, x1, y1, z1 = self.perf
        b = self.beta
        return (x0 - b, y0 - b, z0, x1 + b, y1 + b, z1)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for a C-contiguous 2-D array: the index of one
    occurrence of each distinct row, and each row's index into
    rows[first].  Rows are keyed on their bytes, so -0.0 and 0.0 differ."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _triangulate_boxes(segments: Segments,
                       requests: Sequence[tuple[np.ndarray, np.ndarray | None]],
                       rig: CameraRig, offsets: tuple[float, ...]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangulate box points of each request's rows of `segments`.

    A request is (rows, wanted): rows of one window, and a mask of the
    window's frames to solve, or None for all of them.  A frame is solved
    from every row of its request with a box there, if there are at least
    two.  The cells of all requests are grouped by the cameras they are
    seen by, and the distinct cells of each group are solved, for all
    `offsets`, one `triangulate_batch` call per CELLS_PER_CALL cells.
    Returns (points, ok, seen): points (len(offsets), R, L, 3) and ok
    (len(offsets), R, L) per offset, request and frame of the window (L
    frames), and per request the number of wanted frames with a box in at
    least two rows.
    """
    if not requests:
        return np.empty((len(offsets), 0, 0, 3)), np.empty((len(offsets), 0, 0), bool), \
            np.empty(0, int)
    sizes = [len(rows) for rows, _ in requests]
    span = segments.boxes.shape[1]
    # The table row of each request's k-th row, -1 past its last.
    row = np.full((len(requests), max(sizes)), -1)
    row[np.repeat(np.arange(len(requests)), sizes), np.concatenate(
        [np.arange(n) for n in sizes])] = np.concatenate([rows for rows, _ in requests])
    present = segments.valid[row] & (row >= 0)[..., None]
    wanted = np.stack([np.ones(span, dtype=bool) if w is None else w for _, w in requests])
    solve = wanted & (present.sum(axis=1) >= 2)
    r, j = np.nonzero(solve)
    # A cell is seen by the cameras of its request's present rows, in row
    # order, looked up once per distinct (request, pattern).
    pattern = present[r, :, j]
    distinct, inverse = _distinct_rows(np.column_stack([r, pattern]))
    cameras_of = [tuple(segments.camera[row[r[c], pattern[c]]].tolist())
                  for c in distinct.tolist()]
    group_ids = {cameras: g for g, cameras in enumerate(dict.fromkeys(cameras_of))}
    group = np.array([group_ids[cameras] for cameras in cameras_of], dtype=int)[inverse]

    points = np.full((len(offsets),) + solve.shape + (3,), np.nan)
    ok = np.zeros((len(offsets),) + solve.shape, dtype=bool)
    for cameras, g in group_ids.items():
        of_group = np.flatnonzero(group == g)
        for cells in np.split(of_group, range(CELLS_PER_CALL, len(of_group), CELLS_PER_CALL)):
            ks = np.nonzero(pattern[cells])[1].reshape(len(cells), len(cameras))
            boxes = segments.boxes[row[r[cells, None], ks], j[cells, None]]
            # A box tuple kept across the overlap of two windows recurs.  A row's
            # solve does not depend on the other rows, so one solve serves all.
            first, inverse = _distinct_rows(boxes.reshape(len(boxes), -1))
            distinct = boxes[first]
            x, y, h = distinct[..., 0], distinct[..., 1], distinct[..., 3]
            pixels = np.concatenate([np.stack([x, y + off * h], axis=-1)
                                     for off in offsets])
            solved, good = triangulate_batch([rig[c] for c in cameras], pixels)
            points[:, r[cells], j[cells]] = solved.reshape(len(offsets), len(first), 3)[:, inverse]
            ok[:, r[cells], j[cells]] = good.reshape(len(offsets), len(first))[:, inverse]
    return points, ok, solve.sum(axis=1)


def classify_clusters(segments: Segments, clusters: Sequence[np.ndarray], rig: CameraRig,
                      theta_opp_deg: float = THETA_OPP_DEG,
                      opposite_pairs: list[frozenset[int]] | None = None, *,
                      triangulated: np.ndarray) -> np.ndarray:
    """(C,) bool, True where a cluster of rows of `segments` is sufficient
    for triangulation: False for single-view clusters and for two-view
    clusters whose line-of-sight rays are nearly opposed (median per-frame
    angle above theta_opp, or an explicitly configured opposite pair).

    The angles are taken at `triangulated`, the clusters' (C, L+1, 3)
    centers from `triangulate_clusters` (only two-camera rows are read),
    at the frames where every member has a box and the center is solved;
    a two-view cluster with no such frame, or a NaN angle, is sufficient.
    """
    cameras = [sorted(set(segments.camera[rows].tolist())) for rows in clusters]
    sufficient = np.array([len(cams) > 2 for cams in cameras], dtype=bool)
    two = [k for k, cams in enumerate(cameras) if len(cams) == 2
           and not (opposite_pairs and frozenset(cams) in opposite_pairs)]
    if not two:
        return sufficient
    rows = np.concatenate([clusters[k] for k in two])
    firsts = np.cumsum([0] + [len(clusters[k]) for k in two[:-1]])
    common = np.logical_and.reduceat(~np.isnan(segments.boxes[rows, :, 0]), firsts, axis=0)
    X = triangulated[two]
    c, f = np.nonzero(common & ~np.isnan(X[..., 0]))
    X = X[c, f]
    d_a = X - np.array([rig[cameras[k][0]].center for k in two])[c]
    d_b = X - np.array([rig[cameras[k][1]].center for k in two])[c]
    cosang = np.clip(np.einsum("ij,ij->i", d_a, d_b)
                     / (np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)),
                     -1.0, 1.0)
    # Unused frames sort last, so the median of a row's n used angles is
    # the mean of its middle two, as np.median takes it: (a + b) / 2.
    angles = np.full(common.shape, np.inf)
    angles[c, f] = np.degrees(np.arccos(cosang))
    n = np.bincount(c, minlength=len(two))[:, None]
    ranked = np.sort(angles, axis=1)
    median = (np.take_along_axis(ranked, (n - 1) // 2, 1)
              + np.take_along_axis(ranked, n // 2, 1))[:, 0] / 2
    sufficient[two] = (n[:, 0] == 0) | np.isnan(angles).any(axis=1) | ~(median > theta_opp_deg)
    return sufficient


def triangulate_clusters(segments: Segments, clusters: Sequence[np.ndarray],
                         rig: CameraRig) -> np.ndarray:
    """Per-frame triangulation of each cluster's bbox centers, (R, L+1, 3) on
    the clusters' window grid, NaN at frames with a single view or a
    degenerate solve.  The frames of all clusters are solved together, one
    `triangulate_batch` call per camera set."""
    points, ok, seen = _triangulate_boxes(segments, [(rows, None) for rows in clusters], rig,
                                          (CENTER,))
    for k in np.flatnonzero(seen > ok[0].sum(axis=1)).tolist():
        logger.debug("cluster %s: triangulation skipped at %d frames",
                     segments.keys(clusters[k]), seen[k] - ok[0, k].sum())
    return points[0]


def outlier_gate(points: np.ndarray, space: TrackingSpace,
                 velocity_limit: float = VELOCITY_LIMIT_M) -> np.ndarray:
    """(K,) bool, True to keep each track of the (K, L+1, 3) stack
    `points`, NaN where a track has no point: at least one point, all
    inside the tracking cuboid, and no step between consecutive grid
    frames above the velocity limit."""
    x0, y0, z0, x1, y1, z1 = space.track
    valid = ~np.isnan(points[..., 0])
    inside = ((points >= (x0, y0, z0)) & (points <= (x1, y1, z1))).all(axis=-1)
    # A step to or from a frame with no point is NaN, so never above the
    # limit: only consecutive grid frames that both have a point count.
    with np.errstate(invalid="ignore"):
        fast = np.linalg.norm(np.diff(points, axis=1), axis=-1) > velocity_limit
    return valid.any(axis=1) & (inside | ~valid).all(axis=1) & ~fast.any(axis=1)


def plane_candidates(segments: Segments, plane: PlaneSpec, rig: CameraRig) -> np.ndarray:
    """One coplanar 3D candidate per row of `segments`, (n, L+1, 3) on the
    window grid, from per-frame ray-plane intersection of the bbox
    centers; NaN where a segment has no box or its ray is parallel to the
    plane or hits it behind the camera.  The segments of one camera are
    intersected in one call."""
    valid = segments.valid
    points = np.full(valid.shape + (3,), np.nan)
    for camera in np.unique(segments.camera).tolist():
        k, j = np.nonzero(valid & (segments.camera == camera)[:, None])
        points[k, j] = ray_plane_intersect_batch(rig[camera], segments.boxes[k, j, :2], plane)[0]
    missed = valid.sum(axis=1) - (~np.isnan(points[..., 0])).sum(axis=1)
    for k in np.flatnonzero(missed).tolist():
        logger.debug("segment %s: plane intersection skipped at %d frames",
                     segments.keys([k])[0], missed[k])
    return points


def plane_match_and_fuse(points: np.ndarray, segments: Segments,
                         cutoff: float = TAU_PLANE_M) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cluster the coplanar candidates `points` (n, L+1, 3) of the rows of
    `segments`, each window's apart, and fuse each cluster covering >=2
    cameras by per-frame averaging over the views present, into an (L+1, 3)
    track, NaN where no member has a point, paired with the cluster's rows;
    single-camera clusters are discarded.  Candidates with no point take
    no part."""
    present = ~np.isnan(points[..., 0])
    order = np.flatnonzero(present.any(axis=1))
    if not len(order):
        return []
    points, present = points[order], present[order]
    cameras = segments.camera[order]
    edges = run_edges(segments.start[order])
    Ds = block_distances(present, cameras, lambda _a, _b, i, j, frame: np.linalg.norm(
        points[i, frame] - points[j, frame], axis=1), np.diff(edges))

    fused: list[tuple[np.ndarray, np.ndarray]] = []
    for first, groups in zip(edges, cluster_with_cutoff(Ds, cutoff)):
        for group in (first + np.array(g) for g in groups):
            if len(set(cameras[group].tolist())) < 2:
                continue
            seen = present[group]
            count = seen.sum(axis=0)
            mean = (np.where(seen[..., None], points[group], 0.0).sum(axis=0)
                    / np.maximum(count, 1)[:, None])
            mean[count == 0] = np.nan
            fused.append((mean, order[group]))
    return fused


def attach_top_bottom_batch(tracks: Sequence[tuple[Tracklet3D, Segments]],
                            rig: CameraRig) -> None:
    """Triangulate per-frame top-center and bottom-center pixels of the 2D
    boxes associated with each track, at the track's frames; a top is kept
    where it solves, a bottom only where top and bottom both solve, and
    frames with fewer than two views are left NaN.  Each track lies on its
    segments' window grid.  All tracks are solved together, one
    `triangulate_batch` call per camera set."""
    edges = np.cumsum([0] + [len(segments) for _, segments in tracks]).tolist()
    points, ok, _ = _triangulate_boxes(
        Segments.concat([segments for _, segments in tracks]),
        [(np.arange(lo, hi), t3.valid) for (t3, _), lo, hi in zip(tracks, edges, edges[1:])],
        rig, (TOP, BOTTOM))
    for (t3, _), top, bottom, has_top, has_bottom in zip(
            tracks, points[0], points[1], ok[0], ok[0] & ok[1]):
        t3.top[has_top] = top[has_top]
        t3.bottom[has_bottom] = bottom[has_bottom]


@dataclass
class WindowTrack:
    """A fused 3D track on one window's grid plus its contributing segments
    and the rig they are seen by, which its height solve needs."""

    track: Tracklet3D
    segments: Segments
    rig: CameraRig

    # A frame-keyed view of `track` for bench/traced.py, the one caller that
    # reads it so.  Delete it with ROADMAP item 12.
    @property
    def tracklet(self) -> SimpleNamespace:
        frames, valid = self.track.frames.tolist(), self.track.valid
        codes = self.track.provenance[valid].tolist()
        return SimpleNamespace(frames=frames, points=dict(zip(frames, self.track.points[valid])),
                               provenance={f: PROVENANCE[c] for f, c in zip(frames, codes)})


def process_windows(segments: Segments, clusters: Sequence[np.ndarray],
                    rig: CameraRig, plane: PlaneSpec, space: TrackingSpace,
                    mode: Mode = Mode.CASCADE, theta_opp_deg: float = THETA_OPP_DEG,
                    tau_plane: float = TAU_PLANE_M, velocity_limit: float = VELOCITY_LIMIT_M,
                    opposite_pairs: list[frozenset[int]] | None = None
                    ) -> dict[int, list[WindowTrack]]:
    """Route every cluster of rows of `segments` through exactly one branch
    and gate the results; returns the tracks of each window by its start,
    in start order, and a window's by their first rows.

    Each step takes all windows in one call: the multi-camera clusters
    are triangulated (`triangulate_clusters`) and given the two-view
    verdict (`classify_clusters`), the rows of the insufficient ones are
    intersected with the plane (`plane_candidates`) and matched
    (`plane_match_and_fuse`), and both branches' tracks are gated
    (`outlier_gate`).  Only centers are solved: tops and bottoms are left
    to the height trigger (`attach_top_bottom_batch`).  Each row of these
    calls is independent of the others, so a window's tracks do not depend
    on the windows it is solved with.
    """
    tracks = {start: [] for start in segments.start[run_edges(segments.start)[:-1]].tolist()}
    # The triangulation feeds both the two-view verdict and the branch.
    multi = [k for k, rows in enumerate(clusters)
             if mode is not Mode.PLANE_ONLY and len(set(segments.camera[rows].tolist())) >= 2]
    chosen = [clusters[k] for k in multi]
    solved = triangulate_clusters(segments, chosen, rig)
    sufficient = np.zeros(len(clusters), dtype=bool)
    sufficient[multi] = (classify_clusters(segments, chosen, rig, theta_opp_deg,
                                           opposite_pairs, triangulated=solved)
                         if mode is Mode.CASCADE else True)
    ok = sufficient.tolist()
    # The tracks of both branches as (points, rows, branch).
    found = [(points, clusters[k], Provenance.TRIANGULATED)
             for k, points in zip(multi, solved) if ok[k]]
    if mode is not Mode.TRIANGULATION_ONLY:
        rest = np.sort(np.concatenate(
            [np.empty(0, int)] + [rows for rows, good in zip(clusters, ok) if not good]))
        others = segments.take(rest)
        fused = plane_match_and_fuse(plane_candidates(others, plane, rig), others, tau_plane)
        found += [(points, rest[rows], Provenance.PLANE_INTERSECTED) for points, rows in fused]

    if found:
        # By first row, so a window's tracks in key order; both branches gated.
        found.sort(key=lambda f: f[1][0])
        points = np.stack([points for points, _, _ in found])
        kept = outlier_gate(points, space, velocity_limit)
        for (_, rows, branch), row in zip(compress(found, kept.tolist()), points[kept]):
            start, code = int(segments.start[rows[0]]), PROVENANCE.index(branch)
            tracks[start].append(WindowTrack(
                Tracklet3D(start, row, np.full(len(row), code, np.uint8)),
                segments.take(rows), rig))
    return tracks


def process_window(start: int, clusters: list[list[WindowSegment2D]], *args,
                   **kwargs) -> list[WindowTrack]:
    """`process_windows` of one window's `cross_view.cluster_segments`, for
    bench/traced.py.  Delete with ROADMAP item 12."""
    table = Segments.from_rows(s for cluster in clusters for s in cluster)
    row = {key: r for r, key in enumerate(table.keys())}
    return process_windows(table, [np.array([row[s.key] for s in c]) for c in clusters],
                           *args, **kwargs).get(start, [])
