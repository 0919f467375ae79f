import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack.clustering import cluster_with_cutoff, shared_frame_distances

nan = math.nan


def linkage_after_merge(a, b, cutoff):
    """Clusters of four items where 0 and 1 merge first (0.0) and 2 and 3
    next (0.1), so the last merge is decided by fmax(fmax(a, b), 0.2): a
    and b are the distances of items 0 and 1 to item 2, and 0.2 and NaN
    their distances to item 3."""
    D = np.array([[nan, 0.0, a, 0.2],
                  [0.0, nan, b, nan],
                  [a, b, nan, 0.1],
                  [0.2, nan, 0.1, nan]])
    return cluster_with_cutoff(D, cutoff)


class TestCombine:
    """The complete-linkage update is np.fmax: NaN (no shared frames)
    defers to the other side and inf still wins."""

    def test_both_finite_takes_max(self):
        assert np.fmax(0.2, 0.5) == 0.5
        assert linkage_after_merge(0.2, 0.5, 0.5) == [[0, 1], [2, 3]]
        assert linkage_after_merge(0.2, 0.5, np.nextafter(0.5, 1.0)) == [[0, 1, 2, 3]]

    def test_empty_defers_to_other(self):
        assert np.fmax(nan, 0.3) == 0.3
        assert np.fmax(0.3, nan) == 0.3
        for a, b in ((nan, 0.3), (0.3, nan)):
            assert linkage_after_merge(a, b, 0.3) == [[0, 1], [2, 3]]
            assert linkage_after_merge(a, b, np.nextafter(0.3, 1.0)) == [[0, 1, 2, 3]]

    def test_both_empty(self):
        assert math.isnan(np.fmax(nan, nan))
        # Still no relation, so the 0.2 to item 3 decides.
        assert linkage_after_merge(nan, nan, 0.2) == [[0, 1], [2, 3]]
        assert linkage_after_merge(nan, nan, np.nextafter(0.2, 1.0)) == [[0, 1, 2, 3]]

    def test_infinite_dominates(self):
        assert np.fmax(0.1, math.inf) == math.inf
        assert np.fmax(nan, math.inf) == math.inf
        for a in (0.2, nan):
            assert linkage_after_merge(a, math.inf, math.inf) == [[0, 1], [2, 3]]


class TestClusterWithCutoff:
    def test_single_item(self):
        assert cluster_with_cutoff(np.array([[nan]]), 0.5) == [[0]]

    def test_no_items(self):
        assert cluster_with_cutoff(np.empty((0, 0)), 0.5) == []

    def test_pair_below_cutoff_merges(self):
        D = np.array([[nan, 0.1], [0.1, nan]])
        assert cluster_with_cutoff(D, 0.3) == [[0, 1]]

    def test_pair_above_cutoff_stays(self):
        D = np.array([[nan, 0.4], [0.4, nan]])
        assert cluster_with_cutoff(D, 0.3) == [[0], [1]]

    def test_empty_pair_never_merges(self):
        D = np.array([[nan, nan], [nan, nan]])
        assert cluster_with_cutoff(D, 0.3) == [[0], [1]]

    def test_infinite_blocks_merge(self):
        D = np.array([[nan, math.inf], [math.inf, nan]])
        assert cluster_with_cutoff(D, 0.3) == [[0], [1]]

    def test_max_update_blocks_chained_merge(self):
        # 0-1 merge first (0.1); the merged cluster is 0.9 from item 2
        # under the max rule even though D[1, 2] = 0.2.
        D = np.array([[nan, 0.1, 0.9],
                      [0.1, nan, 0.2],
                      [0.9, 0.2, nan]])
        assert cluster_with_cutoff(D, 0.5) == [[0, 1], [2]]

    def test_empty_aware_update_allows_merge(self):
        # Item 2 has no relation to 0; after 0-1 merge the combined
        # distance defers to the finite 1-2 entry.
        D = np.array([[nan, 0.1, nan],
                      [0.1, nan, 0.2],
                      [nan, 0.2, nan]])
        assert cluster_with_cutoff(D, 0.5) == [[0, 1, 2]]

    def test_tie_break_is_lexicographic(self):
        D = np.array([[nan, 0.1, 0.1],
                      [0.1, nan, 0.1],
                      [0.1, 0.1, nan]])
        # All pairs tie at 0.1: (0,1) merges first, then the combined
        # cluster is still 0.1 from item 2.
        assert cluster_with_cutoff(D, 0.5) == [[0, 1, 2]]

    def test_input_is_not_modified(self):
        D = np.array([[nan, 0.1, 0.9],
                      [0.1, nan, 0.2],
                      [0.9, 0.2, nan]])
        before = D.copy()
        cluster_with_cutoff(D, 0.5)
        assert np.array_equal(D, before, equal_nan=True)


def reference_clustering(n, D, cutoff):
    """Direct agglomerative transcription: rescan all member pairs each
    round instead of updating the matrix incrementally."""
    clusters = [[i] for i in range(n)]

    def cluster_distance(A, B):
        vals = [D[a][b] for a in A for b in B if not math.isnan(D[a][b])]
        return max(vals) if vals else nan

    while len(clusters) > 1:
        best, bi, bj = math.inf, -1, -1
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = cluster_distance(clusters[i], clusters[j])
                if not math.isnan(d) and d < best:
                    best, bi, bj = d, i, j
        if bi < 0 or best >= cutoff:
            break
        clusters[bi] = sorted(clusters[bi] + clusters[bj])
        del clusters[bj]
    return clusters


def random_distance_matrix(rng, n, cutoff):
    D = np.full((n, n), nan)
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < 0.3:
                d = nan
            elif roll < 0.45:
                d = math.inf
            else:
                d = float(rng.uniform(0.0, 2.0 * cutoff))
            D[i][j] = D[j][i] = d
    return D


class TestReferenceEquivalence:
    def test_matches_rescan_reference(self):
        rng = np.random.default_rng(42)
        cutoff = 0.5
        for _ in range(200):
            n = int(rng.integers(1, 7))
            D = random_distance_matrix(rng, n, cutoff)
            got = cluster_with_cutoff(D, cutoff)
            want = reference_clustering(n, D, cutoff)
            assert sorted(map(tuple, got)) == sorted(map(tuple, want))

    def test_every_merge_below_cutoff(self):
        # With the max-update rule any merged pair of items whose direct
        # distance is finite must be below the cutoff.
        rng = np.random.default_rng(7)
        cutoff = 0.5
        for _ in range(100):
            n = int(rng.integers(2, 7))
            D = random_distance_matrix(rng, n, cutoff)
            for group in cluster_with_cutoff(D, cutoff):
                for a in group:
                    for b in group:
                        if a < b and not math.isnan(D[a][b]):
                            assert D[a][b] < cutoff


@st.composite
def tied_distance_matrices(draw):
    """Symmetric (n, n) arrays whose entries come from a few values, so
    that merges tie, plus inf and NaN."""
    n = draw(st.integers(1, 12))
    entries = st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8, math.inf, nan])
    D = np.full((n, n), nan)
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = draw(entries)
    return D


class TestClusteringProperties:
    @settings(max_examples=300, deadline=None)
    @given(D=tied_distance_matrices(), cutoff=st.sampled_from([0.15, 0.3, 0.6, math.inf]))
    def test_equals_reference_in_order(self, D, cutoff):
        assert cluster_with_cutoff(D, cutoff) == reference_clustering(len(D), D, cutoff)


def reference_shared_frame_distances(present, cameras, values):
    """Per-pair loop: the mean Euclidean distance of `values` over the
    frames two items share."""
    n = len(present)
    D = np.full((n, n), nan)
    for i in range(n):
        for j in range(n):
            shared = np.flatnonzero(present[i] & present[j])
            if i == j or not len(shared):
                continue
            if cameras[i] == cameras[j]:
                D[i, j] = math.inf
            else:
                D[i, j] = np.mean([np.linalg.norm(values[i, f] - values[j, f])
                                   for f in shared])
    return D


class TestSharedFrameDistances:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 8), span=st.integers(1, 12), n_cameras=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_pair_loop(self, n, span, n_cameras, seed):
        rng = np.random.default_rng(seed)
        present = rng.random((n, span)) < 0.5
        cameras = rng.integers(0, n_cameras, size=n).tolist()
        values = rng.normal(size=(n, span, 3))
        calls = []

        def frame_distance(cam_a, cam_b, i, j, frames):
            calls.append((cam_a, cam_b))
            assert (np.asarray(cameras)[i] == cam_a).all()
            assert (np.asarray(cameras)[j] == cam_b).all()
            return np.linalg.norm(values[i, frames] - values[j, frames], axis=1)

        got = shared_frame_distances(present, cameras, frame_distance)
        want = reference_shared_frame_distances(present, cameras, values)
        assert got.shape == (n, n)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)
        # One call per camera pair with a scored pair of items.
        assert len(calls) == len(set(calls))
        assert set(calls) == {(cameras[i], cameras[j]) for i in range(n)
                              for j in range(i + 1, n) if np.isfinite(want[i, j])}
