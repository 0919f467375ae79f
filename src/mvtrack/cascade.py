"""Cascaded association of window clusters to 3D tracklets.

Clusters with enough well-separated views are triangulated directly;
single-view and opposite-view-only clusters are routed to the
ray-plane-intersection path, where coplanar candidates from different
cameras are matched and fused.  Every cluster goes through exactly one
branch.
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
from .sv_track import WindowSegment2D, boxes_array

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
    """Frame-indexed 3D center positions with provenance and view sets.

    `top` / `bottom` hold the triangulated head/foot heights for frames
    where at least two views were available.
    """

    track_id: int
    points: dict[int, np.ndarray] = field(default_factory=dict)
    top: dict[int, np.ndarray] = field(default_factory=dict)
    bottom: dict[int, np.ndarray] = field(default_factory=dict)
    provenance: dict[int, Provenance] = field(default_factory=dict)
    source_views: dict[int, frozenset[int]] = field(default_factory=dict)

    @property
    def frames(self) -> list[int]:
        return sorted(self.points)

    @property
    def first_frame(self) -> int:
        return min(self.points)

    @property
    def last_frame(self) -> int:
        return max(self.points)


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


def _triangulate_boxes(requests: Sequence[tuple[Sequence[WindowSegment2D], list[int]]],
                       rig: CameraRig, offsets: tuple[float, ...]
                       ) -> list[tuple[np.ndarray, np.ndarray, list[frozenset[int] | None]]]:
    """Triangulate box points of each request's segments at its frames.

    A request is (segments, frames).  A frame is solved from every segment
    of its request with a box there, if there are at least two.  The rows
    of all requests are grouped by the cameras they are seen by, and each
    group is solved, for all `offsets`, in one `triangulate_batch` call.
    Returns, per request, (points, ok, views): points (len(offsets), n, 3)
    and ok (len(offsets), n) per offset and frame, and the cameras of each
    frame's solve (None where fewer than two segments have a box).
    """
    results = []
    by_cameras: dict[tuple[int, ...], list[tuple[int, list[int], np.ndarray]]] = {}
    for r, (segments, frames) in enumerate(requests):
        n = len(frames)
        views: list[frozenset[int] | None] = [None] * n
        results.append((np.full((len(offsets), n, 3), np.nan),
                        np.zeros((len(offsets), n), dtype=bool), views))
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, f in enumerate(frames):
            present = tuple(k for k, seg in enumerate(segments) if f in seg.boxes)
            if len(present) >= 2:
                groups.setdefault(present, []).append(i)
        for present, rows in groups.items():
            segs = [segments[k] for k in present]
            boxes = np.stack([boxes_array(seg.boxes[frames[i]] for i in rows)
                              for seg in segs], axis=1)
            cameras = tuple(seg.camera for seg in segs)
            by_cameras.setdefault(cameras, []).append((r, rows, boxes))
            view_set = frozenset(cameras)
            for i in rows:
                views[i] = view_set
    for cameras, parts in by_cameras.items():
        boxes = np.concatenate([b for _, _, b in parts])
        x, y, h = boxes[..., 0], boxes[..., 1], boxes[..., 3]
        pixels = np.concatenate([np.stack([x, y + off * h], axis=-1)
                                 for off in offsets])
        solved, good = triangulate_batch([rig[c] for c in cameras], pixels)
        solved = solved.reshape(len(offsets), len(boxes), 3)
        good = good.reshape(len(offsets), len(boxes))
        at = 0
        for r, rows, b in parts:
            points, ok, _ = results[r]
            points[:, rows] = solved[:, at:at + len(b)]
            ok[:, rows] = good[:, at:at + len(b)]
            at += len(b)
    return results


def _set_top_bottom(t3: Tracklet3D, frames: list[int], points: np.ndarray,
                    ok: np.ndarray) -> None:
    # A failed top solve drops the frame's bottom as well.
    for i in np.flatnonzero(ok[0]):
        t3.top[frames[i]] = points[0, i]
        if ok[1, i]:
            t3.bottom[frames[i]] = points[1, i]


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

    common = frozenset.intersection(*[s.valid_frames for s in cluster.members])
    frames = sorted(common & triangulated.points.keys())
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
    """Per-frame triangulation of each cluster's bbox centers, with the top
    and bottom centers of the same boxes solved alongside; frames with a
    single view or a degenerate center solve are skipped.  The frames of
    all clusters are solved together, one `triangulate_batch` call per
    camera set."""
    frame_lists = [sorted(set().union(*[s.boxes.keys() for s in c.members]))
                   for c in clusters]
    solves = _triangulate_boxes(list(zip([c.members for c in clusters], frame_lists)),
                                rig, (CENTER, TOP, BOTTOM))
    out = []
    for cluster, frames, (points, ok, views) in zip(clusters, frame_lists, solves):
        t3 = Tracklet3D(track_id=-1)
        solved = np.flatnonzero(ok[0])
        for i in solved:
            f = frames[i]
            t3.points[f] = points[0, i]
            t3.provenance[f] = Provenance.TRIANGULATED
            t3.source_views[f] = views[i]
        skipped = sum(v is not None for v in views) - len(solved)
        if skipped:
            logger.debug("cluster %s: triangulation skipped at %d frames",
                         [s.key for s in cluster.members], skipped)
        _set_top_bottom(t3, frames, points[1:], ok[1:] & ok[0])
        out.append(t3)
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


def plane_candidates(unmatched: list[WindowSegment2D], plane: PlaneSpec,
                     rig: CameraRig) -> list[tuple[Tracklet3D, WindowSegment2D]]:
    """One coplanar 3D candidate per segment, in the order of `unmatched`,
    from per-frame ray-plane intersection of the bbox centers; the
    segments of one camera are intersected in one call.  Parallel/behind
    frames are skipped."""
    frames = [sorted(seg.boxes) for seg in unmatched]
    by_camera: dict[int, list[int]] = {}
    for k, seg in enumerate(unmatched):
        by_camera.setdefault(seg.camera, []).append(k)
    solved: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for camera, ks in by_camera.items():
        centers = boxes_array(unmatched[k].boxes[f] for k in ks for f in frames[k])[:, :2]
        points, s = ray_plane_intersect_batch(rig[camera], centers, plane)
        bounds = np.cumsum([len(frames[k]) for k in ks])[:-1]
        solved.update(zip(ks, zip(np.split(points, bounds), np.split(s, bounds))))

    out = []
    for k, seg in enumerate(unmatched):
        points, s = solved[k]
        hits = np.flatnonzero(s > 0)
        if len(hits) < len(frames[k]):
            logger.debug("segment %s: plane intersection skipped at %d frames",
                         seg.key, len(frames[k]) - len(hits))
        if not len(hits):
            continue
        t3 = Tracklet3D(track_id=-1)
        views = frozenset({seg.camera})
        for i in hits:
            f = frames[k][i]
            t3.points[f] = points[i]
            t3.provenance[f] = Provenance.PLANE_INTERSECTED
            t3.source_views[f] = views
        out.append((t3, seg))
    return out


def _frame_aligned(tracklets: Sequence[Tracklet3D]) -> tuple[int, np.ndarray]:
    """(first, points): the tracklets' points stacked on their common frame
    span starting at frame `first`, (n, span, 3), NaN where missing."""
    first = min(t.first_frame for t in tracklets)
    span = max(t.last_frame for t in tracklets) - first + 1
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
        t3 = Tracklet3D(track_id=-1)
        for i in np.flatnonzero(count):
            f = first + int(i)
            t3.points[f] = mean[i]
            t3.provenance[f] = Provenance.PLANE_INTERSECTED
            t3.source_views[f] = frozenset(cameras[g] for g, p in zip(group, seen[:, i])
                                           if p)
        fused.append((t3, [ordered[i][1] for i in group]))
    return fused


def attach_top_bottom_batch(tracks: Sequence[tuple[Tracklet3D, Sequence[WindowSegment2D]]],
                            rig: CameraRig) -> None:
    """Triangulate per-frame top-center and bottom-center pixels of the 2D
    boxes associated with each track, at the track's frames; frames with
    fewer than two views are omitted.  All tracks are solved together, one
    `triangulate_batch` call per camera set."""
    frame_lists = [t3.frames for t3, _ in tracks]
    solves = _triangulate_boxes(list(zip([segs for _, segs in tracks], frame_lists)),
                                rig, (TOP, BOTTOM))
    for (t3, _), frames, (points, ok, _) in zip(tracks, frame_lists, solves):
        _set_top_bottom(t3, frames, points, ok)


@dataclass
class WindowTrack:
    """A fused 3D tracklet for one window plus its contributing segments."""

    start: int
    tracklet: Tracklet3D
    segments: list[WindowSegment2D]


def process_window(start: int, clusters: list[Cluster], rig: CameraRig,
                   plane: PlaneSpec, space: TrackingSpace,
                   mode: Mode = Mode.CASCADE,
                   theta_opp_deg: float = THETA_OPP_DEG,
                   tau_plane: float = TAU_PLANE_M,
                   velocity_limit: float = VELOCITY_LIMIT_M,
                   opposite_pairs: list[frozenset[int]] | None = None
                   ) -> list[WindowTrack]:
    """Route every cluster through exactly one branch and gate the results.

    The window is solved at once: the multi-camera clusters are
    triangulated together (`triangulate_clusters`), and the tops and
    bottoms of the plane-branch tracks together (`attach_top_bottom_batch`),
    each with one `triangulate_batch` call per camera set.
    """
    tracks: list[WindowTrack] = []
    insufficient_segments: list[WindowSegment2D] = []
    # The triangulation feeds both the two-view verdict and the branch.
    solvable = [i for i, c in enumerate(clusters)
                if mode is not Mode.PLANE_ONLY and len(c.cameras) >= 2]
    solved = dict(zip(solvable, triangulate_clusters([clusters[i] for i in solvable],
                                                     rig)))
    for i, cluster in enumerate(clusters):
        t3 = solved.get(i)
        if mode is Mode.CASCADE:
            sufficient = classify_cluster(cluster, rig, theta_opp_deg, opposite_pairs,
                                          triangulated=t3)
        else:
            sufficient = t3 is not None
        if not sufficient:
            insufficient_segments.extend(cluster.members)
        elif t3.points and outlier_gate(t3, space, velocity_limit):
            tracks.append(WindowTrack(start, t3, list(cluster.members)))

    if mode is not Mode.TRIANGULATION_ONLY and insufficient_segments:
        cands = plane_candidates(sorted(insufficient_segments, key=lambda s: s.key),
                                 plane, rig)
        # The gate is applied to both branches for uniformity.
        fused = [(t3, segs) for t3, segs in plane_match_and_fuse(cands, tau_plane)
                 if t3.points and outlier_gate(t3, space, velocity_limit)]
        attach_top_bottom_batch(fused, rig)
        tracks.extend(WindowTrack(start, t3, segs) for t3, segs in fused)

    tracks.sort(key=lambda wt: min(seg.key for seg in wt.segments))
    return tracks
