"""Cross-camera association of same-window 2D tracklet segments.

Segment pairs are compared with the symmetric two-term epipolar box
distance, averaged over their overlapping frames; same-camera overlaps
are infinitely far (never merged) and disjoint-frame pairs carry no
evidence at all (EMPTY).  Clusters are formed with the EMPTY-aware
complete-linkage scheme in `clustering`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import EMPTY, Distance, cluster_with_cutoff
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

    def __len__(self):
        return len(self.members)


def _box_pair_distances(a: np.ndarray, b: np.ndarray, cam_a: int, cam_b: int,
                        rig: CameraRig) -> np.ndarray:
    """Symmetric two-term epipolar distances between matching rows of two
    (n, 4) arrays of (x, y, w, h) boxes seen by cameras cam_a and cam_b."""
    la = epipolar_distance_batch(rig.fundamental(cam_b, cam_a), b[:, :2], a[:, :2],
                                 a[:, 2] + a[:, 3])
    lb = epipolar_distance_batch(rig.fundamental(cam_a, cam_b), a[:, :2], b[:, :2],
                                 b[:, 2] + b[:, 3])
    return la + lb


def pair_distance_matrix(segments: list[WindowSegment2D],
                         rig: CameraRig) -> list[list[Distance]]:
    """All pairwise segment distances: the mean per-frame epipolar distance
    over shared valid frames, math.inf for same-camera overlap and EMPTY
    where two segments share no valid frames (and on the diagonal).

    The boxes are stacked once on the segments' common frame span, and
    the shared frames of all pairs from one camera pair are scored in one
    batched call.
    """
    n = len(segments)
    D: list[list[Distance]] = [[EMPTY] * n for _ in range(n)]
    if n < 2:
        return D
    first = min(min(seg.boxes) for seg in segments)
    span = max(max(seg.boxes) for seg in segments) - first + 1
    boxes = np.zeros((n, span, 4))
    valid = np.zeros((n, span), dtype=bool)
    for k, seg in enumerate(segments):
        at = np.fromiter(seg.boxes, dtype=int, count=len(seg.boxes)) - first
        boxes[k, at] = boxes_array(seg.boxes.values())
        valid[k, at] = True
    cameras = np.array([seg.camera for seg in segments])

    rows, cols = np.triu_indices(n, k=1)
    shared = valid[rows] & valid[cols]
    counts = shared.sum(axis=1)
    overlap = counts > 0
    same = cameras[rows] == cameras[cols]
    for i, j in zip(rows[overlap & same], cols[overlap & same]):
        D[i][j] = D[j][i] = math.inf
    scored = overlap & ~same
    pair_cams = np.column_stack([cameras[rows], cameras[cols]])
    for cam_a, cam_b in np.unique(pair_cams[scored], axis=0).tolist():
        group = np.flatnonzero(scored & (pair_cams == (cam_a, cam_b)).all(axis=1))
        pair, frame = np.nonzero(shared[group])
        i, j = rows[group], cols[group]
        d = _box_pair_distances(boxes[i[pair], frame], boxes[j[pair], frame],
                                cam_a, cam_b, rig)
        means = np.bincount(pair, weights=d, minlength=len(group)) / counts[group]
        for a, b, m in zip(i.tolist(), j.tolist(), means.tolist()):
            D[a][b] = D[b][a] = m
    return D


def cluster_segments(segments: list[WindowSegment2D], rig: CameraRig,
                     cutoff: float = LAMBDA_2D) -> list[Cluster]:
    """Associate same-window segments into per-identity clusters."""
    ordered = sorted(segments, key=lambda s: s.key)
    D = pair_distance_matrix(ordered, rig)
    groups = cluster_with_cutoff(len(ordered), lambda i, j: D[i][j], cutoff)
    return [Cluster(tuple(ordered[i] for i in g)) for g in groups]
