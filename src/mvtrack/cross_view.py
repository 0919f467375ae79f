"""Cross-camera association of same-window 2D tracklet segments.

Segment pairs are compared with the symmetric two-term epipolar box
distance, averaged over their overlapping frames; same-camera overlaps
are infinitely far (inf, never merged) and disjoint-frame pairs carry no
evidence at all (NaN).  Clusters are formed with the NaN-aware
complete-linkage scheme in `clustering`.  The segments of a window share
one frame grid, so their box arrays stack as they are, and a frame is
valid where a box is not NaN.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .clustering import block_distances, cluster_with_cutoff
from .geometry import CameraRig, epipolar_distance_batch
from .sv_track import WindowSegment2D

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


def pair_distance_matrices(windows: Sequence[Sequence[WindowSegment2D]],
                           rig: CameraRig) -> list[np.ndarray]:
    """Each window's pairwise segment distances as an (n, n) array: the
    mean per-frame epipolar distance over shared valid frames, inf for
    same-camera overlap and NaN where two segments share no valid frames
    (and on the diagonal).

    The box arrays of all windows' segments are stacked once.  Only pairs
    within a window are formed, and the shared frames of all of them from
    one camera pair are scored in one batched call.
    """
    segments = [seg for segs in windows for seg in segs]
    boxes = np.stack([seg.boxes for seg in segments]) if segments else np.empty((0, 0, 4))
    return block_distances(
        ~np.isnan(boxes[..., 0]), [seg.camera for seg in segments],
        lambda cam_a, cam_b, i, j, frame: _box_pair_distances(
            boxes[i, frame], boxes[j, frame], cam_a, cam_b, rig),
        [len(segs) for segs in windows])


def cluster_windows(windows: Sequence[Sequence[WindowSegment2D]], rig: CameraRig,
                    cutoff: float = LAMBDA_2D) -> list[list[Cluster]]:
    """Associate each window's segments into per-identity clusters; the
    distances of all windows are scored together and clustered in one
    `cluster_with_cutoff` call."""
    ordered = [sorted(segs, key=lambda s: s.key) for segs in windows]
    groups = cluster_with_cutoff(pair_distance_matrices(ordered, rig), cutoff)
    return [[Cluster(tuple(segs[i] for i in g)) for g in window]
            for segs, window in zip(ordered, groups)]


def cluster_segments(segments: list[WindowSegment2D], rig: CameraRig,
                     cutoff: float = LAMBDA_2D) -> list[Cluster]:
    """Associate same-window segments into per-identity clusters."""
    return cluster_windows([segments], rig, cutoff)[0]
