import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack import clustering
from mvtrack.clustering import block_distances, cluster_with_cutoff, shared_frame_distances

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
    return cluster_with_cutoff([D], cutoff)[0]


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
        assert cluster_with_cutoff([np.array([[nan]])], 0.5) == [[[0]]]

    def test_no_items(self):
        assert cluster_with_cutoff([np.empty((0, 0))], 0.5) == [[]]

    def test_pair_below_cutoff_merges(self):
        D = np.array([[nan, 0.1], [0.1, nan]])
        assert cluster_with_cutoff([D], 0.3) == [[[0, 1]]]

    def test_pair_above_cutoff_stays(self):
        D = np.array([[nan, 0.4], [0.4, nan]])
        assert cluster_with_cutoff([D], 0.3) == [[[0], [1]]]

    def test_empty_pair_never_merges(self):
        D = np.array([[nan, nan], [nan, nan]])
        assert cluster_with_cutoff([D], 0.3) == [[[0], [1]]]

    def test_infinite_blocks_merge(self):
        D = np.array([[nan, math.inf], [math.inf, nan]])
        assert cluster_with_cutoff([D], 0.3) == [[[0], [1]]]

    def test_max_update_blocks_chained_merge(self):
        # 0-1 merge first (0.1); the merged cluster is 0.9 from item 2
        # under the max rule even though D[1, 2] = 0.2.
        D = np.array([[nan, 0.1, 0.9],
                      [0.1, nan, 0.2],
                      [0.9, 0.2, nan]])
        assert cluster_with_cutoff([D], 0.5) == [[[0, 1], [2]]]

    def test_empty_aware_update_allows_merge(self):
        # Item 2 has no relation to 0; after 0-1 merge the combined
        # distance defers to the finite 1-2 entry.
        D = np.array([[nan, 0.1, nan],
                      [0.1, nan, 0.2],
                      [nan, 0.2, nan]])
        assert cluster_with_cutoff([D], 0.5) == [[[0, 1, 2]]]

    def test_tie_break_is_lexicographic(self):
        D = np.array([[nan, 0.1, 0.1],
                      [0.1, nan, 0.1],
                      [0.1, 0.1, nan]])
        # All pairs tie at 0.1: (0,1) merges first, then the combined
        # cluster is still 0.1 from item 2.
        assert cluster_with_cutoff([D], 0.5) == [[[0, 1, 2]]]

    def test_input_is_not_modified(self):
        D = np.array([[nan, 0.1, 0.9],
                      [0.1, nan, 0.2],
                      [0.9, 0.2, nan]])
        before = D.copy()
        cluster_with_cutoff([D], 0.5)
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
            got, = cluster_with_cutoff([D], cutoff)
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
            for group in cluster_with_cutoff([D], cutoff)[0]:
                for a in group:
                    for b in group:
                        if a < b and not math.isnan(D[a][b]):
                            assert D[a][b] < cutoff


@st.composite
def tied_distance_matrices(draw, sizes=st.integers(1, 12)):
    """Symmetric (n, n) arrays whose entries come from a few values, so
    that merges tie, plus inf and NaN."""
    n = draw(sizes)
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
        assert cluster_with_cutoff([D], cutoff) == [reference_clustering(len(D), D, cutoff)]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cutoff=st.sampled_from([0.15, 0.3, 0.6, math.inf]))
    def test_batch_equals_reference_in_order(self, data, cutoff):
        # Mixed sizes, with one size repeated, so that one stack holds
        # arrays that need different numbers of merges.
        size = st.integers(0, 12)
        sizes = data.draw(st.lists(size, max_size=5))
        sizes += [data.draw(size)] * data.draw(st.integers(2, 4))
        sizes = data.draw(st.permutations(sizes))
        Ds = [data.draw(tied_distance_matrices(st.just(n))) for n in sizes]
        before = [D.copy() for D in Ds]
        assert cluster_with_cutoff(Ds, cutoff) == \
            [reference_clustering(len(D), D, cutoff) for D in Ds]
        for D, was in zip(Ds, before):
            assert np.array_equal(D, was, equal_nan=True)

    def test_one_link_per_size(self, monkeypatch):
        sizes = []
        real = clustering._link
        monkeypatch.setattr(clustering, "_link",
                            lambda D, cutoff: sizes.append(D.shape) or real(D, cutoff))
        Ds = [np.full((n, n), 0.1) for n in (3, 0, 1, 3, 2, 3, 1)]
        assert cluster_with_cutoff(Ds, 0.5) == \
            [[[0, 1, 2]], [], [[0]], [[0, 1, 2]], [[0, 1]], [[0, 1, 2]], [[0]]]
        assert sizes == [(1, 2, 2), (3, 3, 3)]


def reference_shared_frame_distances(present, cameras, values):
    """Per-pair loop: the mean Euclidean distance of `values` over the
    frames two items share, leaving out NaN distances."""
    n = len(present)
    D = np.full((n, n), nan)
    for i in range(n):
        for j in range(n):
            shared = np.flatnonzero(present[i] & present[j])
            if i == j or not len(shared):
                continue
            if cameras[i] == cameras[j]:
                D[i, j] = math.inf
                continue
            d = [np.linalg.norm(values[i, f] - values[j, f]) for f in shared]
            d = [x for x in d if not math.isnan(x)]
            if d:
                D[i, j] = np.mean(d)
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
        # A NaN frame distance is no evidence for its pair.
        values[rng.random((n, span)) < 0.2] = nan
        calls = []

        def frame_distance(cam_a, cam_b, i, j, frames):
            calls.append((cam_a, cam_b))
            assert (np.asarray(cameras)[i] == cam_a).all()
            assert (np.asarray(cameras)[j] == cam_b).all()
            return np.linalg.norm(values[i, frames] - values[j, frames], axis=1)

        got, = block_distances(present, cameras, frame_distance, [n])
        want = reference_shared_frame_distances(present, cameras, values)
        assert got.shape == (n, n)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)
        # One call per camera pair with a scored pair of items.
        assert len(calls) == len(set(calls))
        assert set(calls) == {(cameras[i], cameras[j]) for i in range(n)
                              for j in range(i + 1, n) if cameras[i] != cameras[j]
                              and (present[i] & present[j]).any()}
        # A given pair list scores just those pairs, with the same values.
        rows, cols = np.triu_indices(n, k=1)
        pick = rng.random(len(rows)) < 0.5
        some = shared_frame_distances(present, cameras, frame_distance,
                                      pairs=(rows[pick], cols[pick]))
        assert np.array_equal(some, got[rows[pick], cols[pick]], equal_nan=True)
        # Consecutive blocks are scored as if each were alone.
        cuts = sorted(rng.integers(0, n + 1, size=2).tolist())
        sizes = [cuts[0], cuts[1] - cuts[0], n - cuts[1]]
        blocks = block_distances(present, cameras, frame_distance, sizes)
        for block, lo, hi in zip(blocks, [0] + cuts, cuts + [n]):
            assert np.array_equal(block, got[lo:hi, lo:hi], equal_nan=True)


def reference_block_distances(present, cameras, frame_distance, sizes):
    """The chunk-wide form of `block_distances`: one triu over all S items,
    the same-block pairs kept, scattered into one (S, S) array."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    rows, cols = np.triu_indices(len(block), k=1)
    same = block[rows] == block[cols]
    rows, cols = rows[same], cols[same]
    D = np.full((len(block),) * 2, nan)
    D[rows, cols] = D[cols, rows] = shared_frame_distances(present, cameras, frame_distance,
                                                           pairs=(rows, cols))
    ends = np.cumsum(sizes, dtype=int).tolist()
    return [D[e - n:e, e - n:e] for n, e in zip(sizes, ends)]


class TestBlockDistances:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.sampled_from([0, 1, 2, 3, 5, 7]), max_size=8),
           span=st.integers(1, 10), n_cameras=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_chunk_wide_form(self, sizes, span, n_cameras, seed):
        # Empty, one-item and repeated block sizes, in any order.
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        present = rng.random((n, span)) < 0.6
        cameras = rng.integers(0, n_cameras, size=n).tolist()
        values = rng.normal(size=(n, span, 3))
        values[rng.random((n, span)) < 0.2] = nan

        def frame_distance(cam_a, cam_b, i, j, frames):
            return np.linalg.norm(values[i, frames] - values[j, frames], axis=1)

        want = reference_block_distances(present, cameras, frame_distance, sizes)
        # The pairs of a camera pair are scored in runs of PAIRS_PER_CALL.
        for per_call in (clustering.PAIRS_PER_CALL, 1, 3):
            with mock.patch.object(clustering, "PAIRS_PER_CALL", per_call):
                got = block_distances(present, cameras, frame_distance, sizes)
            assert [D.shape for D in got] == [(k, k) for k in sizes]
            for D, W in zip(got, want):
                assert np.array_equal(D, W, equal_nan=True)

    def test_memory_is_linear_in_pairs(self):
        # 300 blocks of 12: 19 800 pairs.  One (S, S) float array over the
        # S = 3 600 items alone would take 104 MB.
        sizes = [12] * 300
        n = sum(sizes)
        present = np.ones((n, 9), dtype=bool)
        cameras = (np.arange(n) % 4).tolist()

        def frame_distance(cam_a, cam_b, i, j, frames):
            return np.abs(i - j).astype(float)

        tracemalloc.start()
        try:
            Ds = block_distances(present, cameras, frame_distance, sizes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(Ds) == 300 and Ds[0].shape == (12, 12)
        assert peak < 6 * 2**20
