"""Cross-camera association of same-window 2D tracklet segments.

Segment pairs are compared with the symmetric two-term epipolar box
distance, averaged over their overlapping frames; same-camera overlaps
are infinitely far (inf, never merged) and disjoint-frame pairs carry no
evidence at all (NaN).  Clusters are formed with the NaN-aware
complete-linkage scheme in `clustering`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import cluster_with_cutoff, shared_frame_distances
from .geometry import CameraRig, epipolar_distance_batch
from .sv_track import WindowSegment2D, boxes_array

LAMBDA_2D = 0.3


@dataclass(frozen=True)
class Cluster:
    """Segments associated to one identity within a window."""

    members: tuple[WindowSegment2D, ...]

    @property
    def cameras(self) -> frozenset[int]:
        return frozenset(s.camera for s in self.members)


def _box_pair_distances(a: np.ndarray, b: np.ndarray, cam_a: int, cam_b: int,
                        rig: CameraRig) -> np.ndarray:
    """Symmetric two-term epipolar distances between matching rows of two
    (n, 4) arrays of (x, y, w, h) boxes seen by cameras cam_a and cam_b."""
    la = epipolar_distance_batch(rig.fundamental(cam_b, cam_a), b[:, :2], a[:, :2],
                                 a[:, 2] + a[:, 3])
    lb = epipolar_distance_batch(rig.fundamental(cam_a, cam_b), a[:, :2], b[:, :2],
                                 b[:, 2] + b[:, 3])
    return la + lb


def pair_distance_matrix(segments: list[WindowSegment2D], rig: CameraRig) -> np.ndarray:
    """All pairwise segment distances as an (n, n) array: the mean
    per-frame epipolar distance over shared valid frames, inf for
    same-camera overlap and NaN where two segments share no valid frames
    (and on the diagonal).

    The boxes are stacked once on the segments' common frame span, and
    the shared frames of all pairs from one camera pair are scored in one
    batched call.
    """
    n = len(segments)
    if n < 2:
        return np.full((n, n), np.nan)
    first = min(min(seg.boxes) for seg in segments)
    span = max(max(seg.boxes) for seg in segments) - first + 1
    boxes = np.zeros((n, span, 4))
    valid = np.zeros((n, span), dtype=bool)
    for k, seg in enumerate(segments):
        at = np.fromiter(seg.boxes, dtype=int, count=len(seg.boxes)) - first
        boxes[k, at] = boxes_array(seg.boxes.values())
        valid[k, at] = True
    return shared_frame_distances(
        valid, [seg.camera for seg in segments],
        lambda cam_a, cam_b, i, j, frame: _box_pair_distances(
            boxes[i, frame], boxes[j, frame], cam_a, cam_b, rig))


def cluster_segments(segments: list[WindowSegment2D], rig: CameraRig,
                     cutoff: float = LAMBDA_2D) -> list[Cluster]:
    """Associate same-window segments into per-identity clusters."""
    ordered = sorted(segments, key=lambda s: s.key)
    groups = cluster_with_cutoff(pair_distance_matrix(ordered, rig), cutoff)
    return [Cluster(tuple(ordered[i] for i in g)) for g in groups]
