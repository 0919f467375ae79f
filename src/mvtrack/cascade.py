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
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .clustering import EMPTY, Distance, cluster_with_cutoff
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


class Sufficiency(enum.Enum):
    SUFFICIENT = "sufficient"
    INSUFFICIENT = "insufficient"


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

    def in_track(self, X) -> bool:
        return self._contains(self.track, X)

    @staticmethod
    def _contains(cuboid, X) -> bool:
        x0, y0, z0, x1, y1, z1 = cuboid
        return bool(x0 <= X[0] <= x1 and y0 <= X[1] <= y1 and z0 <= X[2] <= z1)


def _triangulate_boxes(segments: Sequence[WindowSegment2D], frames: list[int],
                       rig: CameraRig, offsets: tuple[float, ...]
                       ) -> tuple[np.ndarray, np.ndarray, list[frozenset[int] | None]]:
    """Triangulate box points of `segments` at each of `frames`.

    A frame is solved from every segment with a box there, if there are at
    least two; frames sharing one set of segments are solved together, for
    all `offsets`, in one `triangulate_batch` call.  Returns (points, ok,
    views): points (len(offsets), n, 3) and ok (len(offsets), n) per
    offset and frame, and the cameras of each frame's solve (None where
    fewer than two segments have a box).
    """
    n = len(frames)
    points = np.full((len(offsets), n, 3), np.nan)
    ok = np.zeros((len(offsets), n), dtype=bool)
    views: list[frozenset[int] | None] = [None] * n
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(frames):
        present = tuple(k for k, seg in enumerate(segments) if f in seg.boxes)
        if len(present) >= 2:
            groups.setdefault(present, []).append(i)
    for present, rows in groups.items():
        segs = [segments[k] for k in present]
        boxes = np.stack([boxes_array(seg.boxes[frames[i]] for i in rows)
                          for seg in segs], axis=1)
        x, y, h = boxes[..., 0], boxes[..., 1], boxes[..., 3]
        pixels = np.concatenate([np.stack([x, y + off * h], axis=-1)
                                 for off in offsets])
        solved, good = triangulate_batch([rig[seg.camera] for seg in segs], pixels)
        points[:, rows] = solved.reshape(len(offsets), len(rows), 3)
        ok[:, rows] = good.reshape(len(offsets), len(rows))
        cameras = frozenset(seg.camera for seg in segs)
        for i in rows:
            views[i] = cameras
    return points, ok, views


def _set_top_bottom(t3: Tracklet3D, frames: list[int], points: np.ndarray,
                    ok: np.ndarray) -> None:
    # A failed top solve drops the frame's bottom as well.
    for i in np.flatnonzero(ok[0]):
        t3.top[frames[i]] = points[0, i]
        if ok[1, i]:
            t3.bottom[frames[i]] = points[1, i]


def classify_cluster(cluster: Cluster, rig: CameraRig,
                     theta_opp_deg: float = THETA_OPP_DEG,
                     opposite_pairs: list[frozenset[int]] | None = None,
                     triangulated: Tracklet3D | None = None) -> Sufficiency:
    """INSUFFICIENT for single-view clusters and for two-view clusters whose
    line-of-sight rays are nearly opposed (median per-frame angle above
    theta_opp, or an explicitly configured opposite pair).

    The angles are taken at the cluster's triangulated centers; pass
    `triangulated`, the cluster's `triangulate_cluster` result, when it
    has been solved already.
    """
    cameras = sorted(cluster.cameras)
    if len(cameras) == 1:
        return Sufficiency.INSUFFICIENT
    if len(cameras) != 2:
        return Sufficiency.SUFFICIENT
    if opposite_pairs and frozenset(cameras) in opposite_pairs:
        return Sufficiency.INSUFFICIENT

    if triangulated is None:
        triangulated = triangulate_cluster(cluster, rig)
    common = frozenset.intersection(*[s.valid_frames for s in cluster.members])
    frames = sorted(common & triangulated.points.keys())
    if not frames:
        return Sufficiency.SUFFICIENT
    X = np.array([triangulated.points[f] for f in frames])
    d_a = X - rig[cameras[0]].center
    d_b = X - rig[cameras[1]].center
    cosang = np.clip(np.einsum("ij,ij->i", d_a, d_b)
                     / (np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)),
                     -1.0, 1.0)
    if float(np.median(np.degrees(np.arccos(cosang)))) > theta_opp_deg:
        return Sufficiency.INSUFFICIENT
    return Sufficiency.SUFFICIENT


def triangulate_cluster(cluster: Cluster, rig: CameraRig,
                        track_id: int = -1) -> Tracklet3D:
    """Per-frame triangulation of the cluster's bbox centers, with the top
    and bottom centers of the same boxes solved alongside; frames with a
    single view or a degenerate center solve are skipped."""
    t3 = Tracklet3D(track_id=track_id)
    frames = sorted(set().union(*[s.boxes.keys() for s in cluster.members]))
    points, ok, views = _triangulate_boxes(cluster.members, frames, rig,
                                           (CENTER, TOP, BOTTOM))
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
    return t3


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
    """One coplanar 3D candidate per segment, from per-frame ray-plane
    intersection of the bbox centers.  Parallel/behind frames are skipped."""
    out = []
    for seg in unmatched:
        frames = sorted(seg.boxes)
        points, s = ray_plane_intersect_batch(
            rig[seg.camera], boxes_array(map(seg.boxes.__getitem__, frames))[:, :2],
            plane)
        hits = np.flatnonzero(s > 0)
        if len(hits) < len(frames):
            logger.debug("segment %s: plane intersection skipped at %d frames",
                         seg.key, len(frames) - len(hits))
        if not len(hits):
            continue
        t3 = Tracklet3D(track_id=-1)
        views = frozenset({seg.camera})
        for i in hits:
            t3.points[frames[i]] = points[i]
            t3.provenance[frames[i]] = Provenance.PLANE_INTERSECTED
            t3.source_views[frames[i]] = views
        out.append((t3, seg))
    return out


def candidate_pair_distance(a: Tracklet3D, cam_a: int,
                            b: Tracklet3D, cam_b: int) -> Distance:
    """Mean per-frame Euclidean distance between coplanar candidates."""
    common = set(a.points) & set(b.points)
    if not common:
        return EMPTY
    if cam_a == cam_b:
        return math.inf
    return float(np.mean([np.linalg.norm(a.points[f] - b.points[f]) for f in sorted(common)]))


def plane_match_and_fuse(cands: list[tuple[Tracklet3D, WindowSegment2D]],
                         cutoff: float = TAU_PLANE_M
                         ) -> list[tuple[Tracklet3D, list[WindowSegment2D]]]:
    """Cluster coplanar candidates and fuse clusters covering >=2 cameras by
    per-frame averaging over the views present; single-camera clusters
    are discarded."""
    ordered = sorted(cands, key=lambda cs: cs[1].key)

    def dist(i: int, j: int) -> Distance:
        return candidate_pair_distance(ordered[i][0], ordered[i][1].camera,
                                       ordered[j][0], ordered[j][1].camera)

    fused: list[tuple[Tracklet3D, list[WindowSegment2D]]] = []
    for group in cluster_with_cutoff(len(ordered), dist, cutoff):
        members = [ordered[i] for i in group]
        cameras = {seg.camera for _, seg in members}
        if len(cameras) < 2:
            continue
        t3 = Tracklet3D(track_id=-1)
        frames = sorted(set().union(*[set(t.points) for t, _ in members]))
        for frame in frames:
            present = [(t, seg) for t, seg in members if frame in t.points]
            t3.points[frame] = np.mean([t.points[frame] for t, _ in present], axis=0)
            t3.provenance[frame] = Provenance.PLANE_INTERSECTED
            t3.source_views[frame] = frozenset(seg.camera for _, seg in present)
        fused.append((t3, [seg for _, seg in members]))
    return fused


def attach_top_bottom(t3: Tracklet3D, segments: list[WindowSegment2D],
                      rig: CameraRig) -> None:
    """Triangulate per-frame top-center and bottom-center pixels of the
    associated 2D boxes; frames with fewer than two views are omitted."""
    frames = t3.frames
    points, ok, _ = _triangulate_boxes(segments, frames, rig, (TOP, BOTTOM))
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
    """Route every cluster through exactly one branch and gate the results."""
    tracks: list[WindowTrack] = []
    insufficient_segments: list[WindowSegment2D] = []
    for cluster in clusters:
        # The triangulation feeds both the two-view verdict and the branch.
        t3 = None
        if mode is not Mode.PLANE_ONLY and len(cluster.cameras) >= 2:
            t3 = triangulate_cluster(cluster, rig)
        if mode is Mode.CASCADE:
            sufficient = classify_cluster(cluster, rig, theta_opp_deg, opposite_pairs,
                                          t3) is Sufficiency.SUFFICIENT
        else:
            sufficient = t3 is not None
        if not sufficient:
            insufficient_segments.extend(cluster.members)
        elif t3.points and outlier_gate(t3, space, velocity_limit):
            tracks.append(WindowTrack(start, t3, list(cluster.members)))

    if mode is not Mode.TRIANGULATION_ONLY and insufficient_segments:
        cands = plane_candidates(sorted(insufficient_segments, key=lambda s: s.key),
                                 plane, rig)
        for t3, segs in plane_match_and_fuse(cands, tau_plane):
            # The gate is applied to both branches for uniformity.
            if t3.points and outlier_gate(t3, space, velocity_limit):
                attach_top_bottom(t3, segs, rig)
                tracks.append(WindowTrack(start, t3, segs))

    tracks.sort(key=lambda wt: min(seg.key for seg in wt.segments))
    return tracks
