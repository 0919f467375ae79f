"""Agglomerative clustering on a three-state distance array.

Pairwise distances are a float array whose entries are one of: a finite
distance, inf (forbidden merge, e.g. same-camera overlap), or NaN (no
shared temporal support).  The complete-linkage update is np.fmax, so a
NaN entry defers to the other side instead of poisoning the max, while
inf still wins:

    fmax(a, b) = max(a, b)   if neither is NaN
               = b           if only a is NaN
               = a           if only b is NaN
               = NaN         if both are NaN

Merging continues while the global minimum over non-NaN entries is below
the cutoff.  Ties are broken by the lexicographically smallest (i, j)
cluster-index pair, which makes the result deterministic.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


def shared_frame_distances(present: np.ndarray, cameras,
                           frame_distance: Callable[..., np.ndarray],
                           pairs: tuple[np.ndarray, np.ndarray] | None = None
                           ) -> np.ndarray:
    """Pairwise (n, n) distances between n items over the frames they share.

    `present` is an (n, span) mask of the frames each item has and
    `cameras` the camera label of each item.  An entry is the mean
    per-frame distance over the two items' shared frames, inf where two
    items of one camera share a frame, and NaN where two items share no
    frame (and on the diagonal).  A NaN frame distance is no evidence: it
    leaves the mean, and a pair with no other shared frame gets NaN.

    `frame_distance(cam_a, cam_b, i, j, frames)` returns the distances
    between items i[k] of camera cam_a and j[k] of camera cam_b at frame
    frames[k]; it is called once per camera pair, with the shared frames
    of all that pair's item pairs.

    With `pairs`, a (rows, cols) pair of index arrays with rows < cols,
    only those item pairs are scored, and their (len(rows),) distances
    are returned in pair order instead of the (n, n) array.
    """
    n = len(present)
    labels, camera = np.unique(cameras, return_inverse=True)
    labels = labels.tolist()
    rows, cols = np.triu_indices(n, k=1) if pairs is None else pairs
    out = np.full(len(rows), np.nan)
    shared = present[rows] & present[cols]
    overlap = shared.any(axis=1)
    # One code per ordered camera pair, sorted as (camera a, camera b).
    pair_code = camera[rows] * len(labels) + camera[cols]
    same = camera[rows] == camera[cols]
    out[overlap & same] = np.inf
    scored = overlap & ~same
    for code in np.unique(pair_code[scored]).tolist():
        group = np.flatnonzero(scored & (pair_code == code))
        pair, frame = np.nonzero(shared[group])
        i, j = rows[group], cols[group]
        a, b = divmod(code, len(labels))
        d = frame_distance(labels[a], labels[b], i[pair], j[pair], frame)
        defined = ~np.isnan(d)
        total = np.bincount(pair, weights=np.where(defined, d, 0.0), minlength=len(group))
        with np.errstate(invalid="ignore"):
            out[group] = total / np.bincount(pair, weights=defined, minlength=len(group))
    if pairs is not None:
        return out
    D = np.full((n, n), np.nan)
    D[rows, cols] = D[cols, rows] = out
    return D


def cluster_with_cutoff(D, cutoff: float) -> list[list[int]]:
    """Cluster items 0..n-1 of the symmetric (n, n) distance array D; the
    diagonal is ignored.

    Returns the final clusters as lists of original item indices, each
    sorted, in a deterministic order.
    """
    D = np.array(D, dtype=float)
    n = len(D)
    clusters = [[i] for i in range(n)]
    if n < 2:
        return clusters
    active = np.ones(n, dtype=bool)
    # The merge candidates: the active upper triangle, NaN and inactive
    # entries as inf, so a row-major argmin is the lexicographic minimum.
    search = np.where(np.isnan(D) | np.tri(n, dtype=bool), np.inf, D)
    while True:
        k = int(search.argmin())
        if not search.flat[k] < cutoff:
            break
        i, j = divmod(k, n)
        clusters[i] = sorted(clusters[i] + clusters[j])
        active[j] = False
        search[j, :] = search[:, j] = np.inf
        D[i] = D[:, i] = np.fmax(D[i], D[j])
        row = np.where(np.isnan(D[i]) | ~active, np.inf, D[i])
        search[i, i + 1:] = row[i + 1:]
        search[:i, i] = row[:i]
    return [clusters[k] for k in np.flatnonzero(active)]
