"""Cross-camera association of same-window 2D tracklet segments.

Segment pairs are compared with the symmetric two-term epipolar box
distance, averaged over their overlapping frames; same-camera overlaps
are infinitely far (inf, never merged) and disjoint-frame pairs carry no
evidence at all (NaN) (Hartley and Zisserman, *Multiple View Geometry*,
ch. 9).  Clusters are formed with the NaN-aware complete-linkage scheme in
`clustering`.  A window is a run of rows of a sorted `sv_track.Segments`
table, and a cluster a sorted array of its rows.
"""

from __future__ import annotations

import numpy as np

from .clustering import block_distances, cluster_with_cutoff
from .geometry import CameraRig, epipolar_distance_batch
from .sv_track import Segments, WindowSegment2D, run_edges

LAMBDA_2D = 0.3


def _box_pair_distances(a: np.ndarray, b: np.ndarray, cam_a: int, cam_b: int,
                        rig: CameraRig) -> np.ndarray:
    """Symmetric two-term epipolar distances between matching rows of two
    (n, 4) arrays of (x, y, w, h) boxes seen by cameras cam_a and cam_b."""
    la = epipolar_distance_batch(rig.fundamental(cam_b, cam_a), b[:, :2], a[:, :2],
                                 a[:, 2] + a[:, 3])
    lb = epipolar_distance_batch(rig.fundamental(cam_a, cam_b), a[:, :2], b[:, :2],
                                 b[:, 2] + b[:, 3])
    return la + lb


def pair_distance_matrices(segments: Segments, rig: CameraRig) -> list[np.ndarray]:
    """Each window's pairwise segment distances as an (n, n) array: the
    mean per-frame epipolar distance over shared valid frames, inf for
    same-camera overlap and NaN where two segments share no valid frames
    (and on the diagonal).

    Only pairs within a window are formed, and the shared frames of all of
    them from one camera pair are scored in one batched call.
    """
    boxes = segments.boxes
    return block_distances(segments.valid, segments.camera, lambda a, b, i, j, frame:
                           _box_pair_distances(boxes[i, frame], boxes[j, frame], a, b, rig),
                           np.diff(run_edges(segments.start)))


def cluster_windows(segments: Segments, rig: CameraRig,
                    cutoff: float = LAMBDA_2D) -> list[np.ndarray]:
    """Associate each window's segments into per-identity clusters, each a
    sorted array of rows of `segments`, in the order of their first rows;
    the distances of all windows are scored together and clustered in one
    `cluster_with_cutoff` call."""
    groups = cluster_with_cutoff(pair_distance_matrices(segments, rig), cutoff)
    return [lo + np.array(g) for lo, window in zip(run_edges(segments.start), groups)
            for g in window]


def cluster_segments(segments: list[WindowSegment2D], rig: CameraRig,
                     cutoff: float = LAMBDA_2D) -> list[list[WindowSegment2D]]:
    """`cluster_windows` of one window's rows, for bench/traced.py; a cluster
    is a list of rows.  Delete with ROADMAP item 12."""
    table = Segments.from_rows(segments)
    rows = list(table)
    return [[rows[i] for i in cluster.tolist()] for cluster in cluster_windows(table, rig, cutoff)]
