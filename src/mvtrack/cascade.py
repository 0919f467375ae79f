"""Cascaded association of window clusters to 3D tracklets.

Clusters with enough well-separated views are triangulated directly;
single-view and opposite-view-only clusters are routed to the
ray-plane-intersection path, where coplanar candidates from different
cameras are matched and fused.  Every cluster goes through exactly one
branch.

The 2D boxes are read from the segments' arrays: the segments of a
window share its frame grid, so the frames where a set of segments have
boxes are masks over that grid, and the rows to solve are gathered by
index.  The 3D results are frame-keyed `Tracklet3D` dicts.
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .clustering import cluster_with_cutoff, shared_frame_distances
from .cross_view import Cluster
from .geometry import (CameraRig, PlaneSpec, ray_plane_intersect_batch,
                       triangulate_batch)
from .sv_track import WindowSegment2D

logger = logging.getLogger(__name__)

THETA_OPP_DEG = 150.0
TAU_PLANE_M = 0.5
VELOCITY_LIMIT_M = 1.0
BETA_M = 1.0

# Box points that are triangulated, as vertical offsets from the box
# center in box heights (image y points down).
CENTER, TOP, BOTTOM = 0.0, -0.5, 0.5


class Provenance(enum.Enum):
    TRIANGULATED = "triangulated"
    PLANE_INTERSECTED = "plane_intersected"
    INTERPOLATED = "interpolated"


class Mode(enum.Enum):
    CASCADE = "cascade"
    TRIANGULATION_ONLY = "triangulation_only"
    PLANE_ONLY = "plane_only"


@dataclass
class Tracklet3D:
    """Frame-indexed 3D center positions with provenance.  Its identity is
    the `stitch.TrackRegistry` key it is stored under, if any.

    `top` / `bottom` hold triangulated head/foot points, solved only for
    the height trigger: a window track's by `attach_top_bottom_batch`, a
    registry track's folded in by `target.TargetMaintainer.observe`.
    """

    points: dict[int, np.ndarray] = field(default_factory=dict)
    top: dict[int, np.ndarray] = field(default_factory=dict)
    bottom: dict[int, np.ndarray] = field(default_factory=dict)
    provenance: dict[int, Provenance] = field(default_factory=dict)

    @property
    def frames(self) -> list[int]:
        return sorted(self.points)


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

    def in_perf(self, X) -> bool:
        return self._contains(self.perf, X)

    @staticmethod
    def _contains(cuboid, X) -> bool:
        x0, y0, z0, x1, y1, z1 = cuboid
        return bool(x0 <= X[0] <= x1 and y0 <= X[1] <= y1 and z0 <= X[2] <= z1)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for a C-contiguous 2-D array: the index of one
    occurrence of each distinct row, and each row's index into
    rows[first].  Rows are keyed on their bytes, so -0.0 and 0.0 differ."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _triangulate_boxes(requests: Sequence[tuple[Sequence[WindowSegment2D],
                                                 np.ndarray | None]],
                       rig: CameraRig, offsets: tuple[float, ...]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangulate box points of each request's segments.

    A request is (segments, wanted): segments of one window, and a mask of
    the window's frames to solve, or None for all of them.  A frame is
    solved from every segment of its request with a box there, if there
    are at least two.  The rows of all requests are grouped by the cameras
    they are seen by, and the distinct rows of each group are solved, for
    all `offsets`, in one `triangulate_batch` call.
    Returns (points, ok, seen): points (len(offsets), R, L, 3) and ok
    (len(offsets), R, L) per offset, request and frame of the window (L
    frames), and per request the number of wanted frames with a box in at
    least two segments.
    """
    if not requests:
        return np.empty((len(offsets), 0, 0, 3)), np.empty((len(offsets), 0, 0), bool), \
            np.empty(0, int)
    sizes = [len(segments) for segments, _ in requests]
    span = len(requests[0][0][0].boxes)
    stack = np.full((len(requests), max(sizes), span, 4), np.nan)
    stack[np.repeat(np.arange(len(requests)), sizes),
          np.concatenate([np.arange(n) for n in sizes])] = np.stack(
        [seg.boxes for segments, _ in requests for seg in segments])
    present = ~np.isnan(stack[..., 0])
    wanted = np.stack([np.ones(span, dtype=bool) if w is None else w for _, w in requests])
    solve = wanted & (present.sum(axis=1) >= 2)
    r, j = np.nonzero(solve)
    # A cell is seen by the cameras of its request's present segments, in
    # segment order, looked up once per distinct (request, pattern).
    pattern = present[r, :, j]
    distinct, inverse = _distinct_rows(np.column_stack([r, pattern]))
    cameras_of = [tuple(requests[r[c]][0][k].camera for k in np.flatnonzero(pattern[c]))
                  for c in distinct.tolist()]
    group_ids = {cameras: g for g, cameras in enumerate(dict.fromkeys(cameras_of))}
    group = np.array([group_ids[cameras] for cameras in cameras_of], dtype=int)[inverse]

    points = np.full((len(offsets),) + solve.shape + (3,), np.nan)
    ok = np.zeros((len(offsets),) + solve.shape, dtype=bool)
    for cameras, g in group_ids.items():
        cells = np.flatnonzero(group == g)
        ks = np.nonzero(pattern[cells])[1].reshape(len(cells), len(cameras))
        boxes = stack[r[cells, None], ks, j[cells, None]]
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


def _by_frame(values: np.ndarray, mask: np.ndarray, starts) -> list[dict[int, np.ndarray]]:
    """Per row r of the (R, L) `mask`, {starts[r] + j: values[r, j]} over the
    set j, in frame order."""
    r, j = np.nonzero(mask)
    rows = values[r, j]
    frames = (j + np.asarray(starts, dtype=int)[r]).tolist()
    out, lo = [], 0
    for hi in np.cumsum(mask.sum(axis=1)).tolist():
        out.append(dict(zip(frames[lo:hi], rows[lo:hi])))
        lo = hi
    return out


def classify_cluster(cluster: Cluster, rig: CameraRig,
                     theta_opp_deg: float = THETA_OPP_DEG,
                     opposite_pairs: list[frozenset[int]] | None = None, *,
                     triangulated: Tracklet3D | None) -> bool:
    """True if the cluster is sufficient for triangulation.  False for
    single-view clusters and for two-view clusters whose line-of-sight
    rays are nearly opposed (median per-frame angle above theta_opp, or an
    explicitly configured opposite pair).

    The angles are taken at `triangulated`, the cluster's centers as
    solved by `triangulate_clusters`; it is read only for two-camera
    clusters, so a single-camera cluster may pass None.
    """
    cameras = sorted(cluster.cameras)
    if len(cameras) == 1:
        return False
    if len(cameras) != 2:
        return True
    if opposite_pairs and frozenset(cameras) in opposite_pairs:
        return False

    common = np.logical_and.reduce([s.valid for s in cluster.members])
    frames = [f for f in (np.flatnonzero(common) + cluster.members[0].start).tolist()
              if f in triangulated.points]
    if not frames:
        return True
    X = np.array([triangulated.points[f] for f in frames])
    d_a = X - rig[cameras[0]].center
    d_b = X - rig[cameras[1]].center
    cosang = np.clip(np.einsum("ij,ij->i", d_a, d_b)
                     / (np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)),
                     -1.0, 1.0)
    return not float(np.median(np.degrees(np.arccos(cosang)))) > theta_opp_deg


def triangulate_clusters(clusters: Sequence[Cluster],
                         rig: CameraRig) -> list[Tracklet3D]:
    """Per-frame triangulation of each cluster's bbox centers; frames with
    a single view or a degenerate solve are skipped.  The frames of all
    clusters are solved together, one `triangulate_batch` call per camera
    set."""
    points, ok, seen = _triangulate_boxes([(c.members, None) for c in clusters], rig,
                                          (CENTER,))
    solved = _by_frame(points[0], ok[0], [c.members[0].start for c in clusters])
    out = []
    for cluster, found, n in zip(clusters, solved, seen.tolist()):
        if n > len(found):
            logger.debug("cluster %s: triangulation skipped at %d frames",
                         [s.key for s in cluster.members], n - len(found))
        out.append(Tracklet3D(points=found,
                              provenance=dict.fromkeys(found, Provenance.TRIANGULATED)))
    return out


def outlier_gate(t3: Tracklet3D, space: TrackingSpace,
                 velocity_limit: float = VELOCITY_LIMIT_M) -> bool:
    """True to keep: all points inside the tracking cuboid and no
    consecutive-frame step above the velocity limit."""
    frames = t3.frames
    pts = np.array([t3.points[f] for f in frames])
    x0, y0, z0, x1, y1, z1 = space.track
    if not np.all((pts >= (x0, y0, z0)) & (pts <= (x1, y1, z1))):
        return False
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return not np.any((np.diff(frames) == 1) & (steps > velocity_limit))


def plane_candidates(windows: Sequence[Sequence[WindowSegment2D]], plane: PlaneSpec,
                     rig: CameraRig) -> list[list[tuple[Tracklet3D, WindowSegment2D]]]:
    """Per window, one coplanar 3D candidate per segment, in the window's
    order, from per-frame ray-plane intersection of the bbox centers; the
    segments of one camera, across all windows, are intersected in one
    call.  Parallel/behind frames are skipped, and a segment with no hit
    has no candidate."""
    out: list[list[tuple[Tracklet3D, WindowSegment2D]]] = [[] for _ in windows]
    unmatched = [seg for segs in windows for seg in segs]
    if not unmatched:
        return out
    boxes = np.stack([seg.boxes for seg in unmatched])
    valid = ~np.isnan(boxes[..., 0])
    by_camera: dict[int, list[int]] = {}
    for k, seg in enumerate(unmatched):
        by_camera.setdefault(seg.camera, []).append(k)
    points = np.empty(valid.shape + (3,))
    s = np.zeros(valid.shape)
    for camera, ks in by_camera.items():
        k, j = np.nonzero(valid[ks])
        k = np.asarray(ks)[k]
        points[k, j], s[k, j] = ray_plane_intersect_batch(rig[camera], boxes[k, j, :2],
                                                          plane)

    hit = s > 0
    window = [w for w, segs in enumerate(windows) for _ in segs]
    candidates = _by_frame(points, hit, [seg.start for seg in unmatched])
    for k, (seg, found, n) in enumerate(zip(unmatched, candidates,
                                            valid.sum(axis=1).tolist())):
        if len(found) < n:
            logger.debug("segment %s: plane intersection skipped at %d frames",
                         seg.key, n - len(found))
        if found:
            out[window[k]].append((Tracklet3D(
                points=found, provenance=dict.fromkeys(found, Provenance.PLANE_INTERSECTED)),
                seg))
    return out


def _frame_aligned(tracklets: Sequence[Tracklet3D]) -> tuple[int, np.ndarray]:
    """(first, points): the tracklets' points stacked on their common frame
    span starting at frame `first`, (n, span, 3), NaN where missing."""
    first = min(min(t.points) for t in tracklets)
    span = max(max(t.points) for t in tracklets) - first + 1
    points = np.full((len(tracklets), span, 3), np.nan)
    for k, t in enumerate(tracklets):
        at = np.fromiter(t.points, dtype=int, count=len(t.points)) - first
        points[k, at] = list(t.points.values())
    return first, points


def plane_match_and_fuse(cands: list[tuple[Tracklet3D, WindowSegment2D]],
                         cutoff: float = TAU_PLANE_M
                         ) -> list[tuple[Tracklet3D, list[WindowSegment2D]]]:
    """Cluster coplanar candidates and fuse clusters covering >=2 cameras by
    per-frame averaging over the views present; single-camera clusters
    are discarded."""
    if not cands:
        return []
    ordered = sorted(cands, key=lambda cs: cs[1].key)
    cameras = [seg.camera for _, seg in ordered]
    first, points = _frame_aligned([t for t, _ in ordered])
    present = ~np.isnan(points[..., 0])
    D = shared_frame_distances(
        present, cameras,
        lambda _a, _b, i, j, frame: np.linalg.norm(points[i, frame] - points[j, frame],
                                                   axis=1))

    fused: list[tuple[Tracklet3D, list[WindowSegment2D]]] = []
    for group in cluster_with_cutoff(D, cutoff):
        if len({cameras[i] for i in group}) < 2:
            continue
        seen = present[group]
        count = seen.sum(axis=0)
        mean = (np.where(seen[..., None], points[group], 0.0).sum(axis=0)
                / np.maximum(count, 1)[:, None])
        t3 = Tracklet3D()
        for i in np.flatnonzero(count):
            f = first + int(i)
            t3.points[f] = mean[i]
            t3.provenance[f] = Provenance.PLANE_INTERSECTED
        fused.append((t3, [ordered[i][1] for i in group]))
    return fused


def attach_top_bottom_batch(tracks: Sequence[tuple[Tracklet3D, Sequence[WindowSegment2D]]],
                            rig: CameraRig) -> None:
    """Triangulate per-frame top-center and bottom-center pixels of the 2D
    boxes associated with each track, at the track's frames; a top is kept
    where it solves, a bottom only where top and bottom both solve, and
    frames with fewer than two views are omitted.  All tracks are solved
    together, one `triangulate_batch` call per camera set."""
    requests = []
    for t3, segments in tracks:
        wanted = np.zeros(len(segments[0].boxes), dtype=bool)
        wanted[np.fromiter(t3.points, dtype=int, count=len(t3.points))
               - segments[0].start] = True
        requests.append((segments, wanted))
    points, ok, _ = _triangulate_boxes(requests, rig, (TOP, BOTTOM))
    starts = [segments[0].start for _, segments in tracks]
    for (t3, _), top, bottom in zip(tracks, _by_frame(points[0], ok[0], starts),
                                    _by_frame(points[1], ok[0] & ok[1], starts)):
        t3.top.update(top)
        t3.bottom.update(bottom)


@dataclass
class WindowTrack:
    """A fused 3D tracklet for one window plus its contributing segments
    and the rig they are seen by, which its height solve needs."""

    start: int
    tracklet: Tracklet3D
    segments: list[WindowSegment2D]
    rig: CameraRig


def process_windows(starts: Sequence[int], windows: Sequence[Sequence[Cluster]],
                    rig: CameraRig, plane: PlaneSpec, space: TrackingSpace,
                    mode: Mode = Mode.CASCADE,
                    theta_opp_deg: float = THETA_OPP_DEG,
                    tau_plane: float = TAU_PLANE_M,
                    velocity_limit: float = VELOCITY_LIMIT_M,
                    opposite_pairs: list[frozenset[int]] | None = None
                    ) -> list[list[WindowTrack]]:
    """Route every cluster of each window (windows[k] starts at starts[k])
    through exactly one branch and gate the results; returns each window's
    tracks.

    A run of windows is solved at once: the multi-camera clusters of all
    windows are triangulated together (`triangulate_clusters`), their
    insufficient segments intersected with the plane together
    (`plane_candidates`).  Only centers are solved: tops and bottoms are
    left to the height trigger (`attach_top_bottom_batch`).  The two-view
    verdict, plane matching and the outlier gate run per window,
    and every row of those batched solves is independent of the others, so
    a window's tracks do not depend on the windows it is solved with.
    """
    # The triangulation feeds both the two-view verdict and the branch.
    solvable = [(w, i) for w, clusters in enumerate(windows)
                for i, c in enumerate(clusters)
                if mode is not Mode.PLANE_ONLY and len(c.cameras) >= 2]
    solved = dict(zip(solvable, triangulate_clusters(
        [windows[w][i] for w, i in solvable], rig)))
    tracks: list[list[WindowTrack]] = [[] for _ in windows]
    insufficient: list[list[WindowSegment2D]] = [[] for _ in windows]
    for w, (start, clusters) in enumerate(zip(starts, windows)):
        for i, cluster in enumerate(clusters):
            t3 = solved.get((w, i))
            if mode is Mode.CASCADE:
                sufficient = classify_cluster(cluster, rig, theta_opp_deg, opposite_pairs,
                                              triangulated=t3)
            else:
                sufficient = t3 is not None
            if not sufficient:
                insufficient[w].extend(cluster.members)
            elif t3.points and outlier_gate(t3, space, velocity_limit):
                tracks[w].append(WindowTrack(start, t3, list(cluster.members), rig))

    if mode is not Mode.TRIANGULATION_ONLY:
        cands = plane_candidates(
            [sorted(segs, key=lambda s: s.key) for segs in insufficient], plane, rig)
        for start, window_tracks, c in zip(starts, tracks, cands):
            # The gate is applied to both branches for uniformity.
            window_tracks.extend(WindowTrack(start, t3, segs, rig)
                                 for t3, segs in plane_match_and_fuse(c, tau_plane)
                                 if t3.points and outlier_gate(t3, space, velocity_limit))

    for window_tracks in tracks:
        window_tracks.sort(key=lambda wt: min(seg.key for seg in wt.segments))
    return tracks


def process_window(start: int, clusters: list[Cluster], rig: CameraRig,
                   plane: PlaneSpec, space: TrackingSpace,
                   mode: Mode = Mode.CASCADE,
                   theta_opp_deg: float = THETA_OPP_DEG,
                   tau_plane: float = TAU_PLANE_M,
                   velocity_limit: float = VELOCITY_LIMIT_M,
                   opposite_pairs: list[frozenset[int]] | None = None
                   ) -> list[WindowTrack]:
    """`process_windows` for one window."""
    return process_windows([start], [clusters], rig, plane, space, mode, theta_opp_deg,
                           tau_plane, velocity_limit, opposite_pairs)[0]
