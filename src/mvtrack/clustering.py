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
cluster-index pair, which makes the result deterministic.  The arrays of
a run of windows are clustered in one call, stacked by size.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

# Item pairs scored per `frame_distance` call: this bounds the per-frame
# temporaries of a call however many pairs a chunk of windows holds.
PAIRS_PER_CALL = 512


def shared_frame_distances(present: np.ndarray, cameras,
                           frame_distance: Callable[..., np.ndarray],
                           pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Distances between the item pairs `pairs`, a (rows, cols) pair of
    index arrays with rows < cols, over the frames they share, in pair order.

    `present` is an (n, span) mask of the frames each item has and
    `cameras` the camera label of each item.  A distance is the mean
    per-frame distance over the two items' shared frames, inf where two
    items of one camera share a frame, and NaN where two items share no
    frame.  A NaN frame distance is no evidence: it leaves the mean, and a
    pair with no other shared frame gets NaN.

    `frame_distance(cam_a, cam_b, i, j, frames)` returns the distances
    between items i[k] of camera cam_a and j[k] of camera cam_b at frame
    frames[k]; it is called once per camera pair and run of up to
    PAIRS_PER_CALL of its item pairs, with all their shared frames.  A
    pair's frames are scored in one call, and its mean is taken over them
    in frame order, so the result does not depend on the other pairs.
    """
    labels, camera = np.unique(cameras, return_inverse=True)
    labels = labels.tolist()
    rows, cols = pairs
    out = np.full(len(rows), np.nan)
    shared = present[rows] & present[cols]
    overlap = shared.any(axis=1)
    # One code per ordered camera pair, sorted as (camera a, camera b).
    pair_code = camera[rows] * len(labels) + camera[cols]
    same = camera[rows] == camera[cols]
    out[overlap & same] = np.inf
    scored = overlap & ~same
    for code in np.unique(pair_code[scored]).tolist():
        a, b = divmod(code, len(labels))
        of_code = np.flatnonzero(scored & (pair_code == code))
        for group in np.split(of_code, range(PAIRS_PER_CALL, len(of_code), PAIRS_PER_CALL)):
            pair, frame = np.nonzero(shared[group])
            i, j = rows[group], cols[group]
            d = frame_distance(labels[a], labels[b], i[pair], j[pair], frame)
            defined = ~np.isnan(d)
            total = np.bincount(pair, weights=np.where(defined, d, 0.0), minlength=len(group))
            with np.errstate(invalid="ignore"):
                out[group] = total / np.bincount(pair, weights=defined, minlength=len(group))
    return out


def block_distances(present: np.ndarray, cameras, frame_distance: Callable[..., np.ndarray],
                    sizes: Sequence[int]) -> list[np.ndarray]:
    """`shared_frame_distances` of the pairs within each of consecutive
    blocks of `sizes` items, as one (n, n) array per block, NaN on the
    diagonal; all pairs, each block's row-major, are scored in one call.

    The arrays are views of one flat buffer of sum(n * n) cells, and the
    pair indices are built per block size, so the work and memory are
    linear in the pairs scored, not quadratic in the items."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    cells = np.cumsum(sizes * sizes) - sizes * sizes
    n_pairs = sizes * (sizes - 1) // 2
    first = np.cumsum(n_pairs) - n_pairs
    # Per pair: item rows and cols, and its two cells in the buffer.
    index = np.empty((4, int(n_pairs.sum())), dtype=np.int64)
    for n in np.unique(sizes[n_pairs > 0]).tolist():
        of = np.flatnonzero(sizes == n)
        r, c = np.triu_indices(n, k=1)
        at = (first[of, None] + np.arange(len(r))).ravel()
        index[0, at] = (starts[of, None] + r).ravel()
        index[1, at] = (starts[of, None] + c).ravel()
        index[2, at] = (cells[of, None] + r * n + c).ravel()
        index[3, at] = (cells[of, None] + c * n + r).ravel()
    rows, cols, upper, lower = index
    D = np.full(int((sizes * sizes).sum()), np.nan)
    D[upper] = D[lower] = shared_frame_distances(present, cameras, frame_distance,
                                                 pairs=(rows, cols))
    return [D[o:o + n * n].reshape(n, n) for n, o in zip(sizes.tolist(), cells.tolist())]


def cluster_with_cutoff(Ds: Sequence[np.ndarray], cutoff: float) -> list[list[list[int]]]:
    """Cluster items 0..n-1 of each symmetric (n, n) distance array of Ds;
    the diagonal is ignored.

    Returns each array's final clusters as lists of original item indices,
    each sorted, in a deterministic order.  The arrays of one size are
    stacked and clustered together by `_link`.
    """
    out = [[[i] for i in range(len(D))] for D in Ds]
    for n in sorted({len(D) for D in Ds} - {0, 1}):
        ks = [k for k, D in enumerate(Ds) if len(D) == n]
        for k, clusters in zip(ks, _link(np.array([Ds[k] for k in ks], dtype=float), cutoff)):
            out[k] = clusters
    return out


def _link(D: np.ndarray, cutoff: float) -> list[list[list[int]]]:
    """`cluster_with_cutoff` of a (W, n, n) stack, n >= 2, which it
    overwrites.  Each pass makes one merge in every array whose smallest
    candidate is still below the cutoff, so the passes are as many as the
    most merges of any one array."""
    W, n, _ = D.shape
    clusters = [[[i] for i in range(n)] for _ in range(W)]
    active = np.ones((W, n), dtype=bool)
    # The merge candidates: the active upper triangle, NaN and inactive
    # entries as inf, so a row-major argmin is the lexicographic minimum.
    search = np.where(np.isnan(D) | np.tri(n, dtype=bool), np.inf, D)
    flat = search.reshape(W, n * n)
    col = np.arange(n)
    live = np.arange(W)
    while len(live):
        k = (flat if len(live) == W else flat[live]).argmin(axis=1)
        below = flat[live, k] < cutoff
        live, (i, j) = live[below], np.divmod(k[below], n)
        for w, a, b in zip(live.tolist(), i.tolist(), j.tolist()):
            clusters[w][a] = sorted(clusters[w][a] + clusters[w][b])
        active[live, j] = False
        search[live, j] = search[live, :, j] = np.inf
        D[live, i] = D[live, :, i] = merged = np.fmax(D[live, i], D[live, j])
        row = np.where(np.isnan(merged) | ~active[live], np.inf, merged)
        search[live, i] = np.where(col > i[:, None], row, np.inf)
        search[live, :, i] = np.where(col < i[:, None], row, np.inf)
    return [[c[a] for a, on in enumerate(act) if on]
            for c, act in zip(clusters, active.tolist())]
