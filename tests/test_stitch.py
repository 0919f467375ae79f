from itertools import permutations

import numpy as np
import pytest

from mvtrack.cascade import Provenance, Tracklet3D, WindowTrack
from mvtrack.stitch import (TrackRecord, TrackRegistry, assign,
                            merge_assigned, window_distance,
                            window_distance_matrix)
from mvtrack.sv_track import Bbox, WindowSegment2D


def tracklet(frames, value, track_id=-1, provenance=Provenance.TRIANGULATED):
    t3 = Tracklet3D(track_id=track_id)
    for f in frames:
        t3.points[f] = np.asarray(value(f) if callable(value) else value,
                                  dtype=float)
        t3.provenance[f] = provenance
        t3.source_views[f] = frozenset({0, 1})
    return t3


class TestWindowDistance:
    def test_identical_overlap_is_zero(self):
        a = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        b = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        assert window_distance(a, b) == 0.0

    def test_constant_offset(self):
        a = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        b = tracklet(range(5, 16), (0.0, 0.0, 1.3))
        assert window_distance(a, b) == pytest.approx(0.3, abs=1e-12)

    def test_disjoint_is_unavailable(self):
        a = tracklet(range(0, 5), (0.0, 0.0, 1.0))
        b = tracklet(range(10, 15), (0.0, 0.0, 1.0))
        assert np.isnan(window_distance(a, b))

    def test_matrix_shape(self):
        a = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        b = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        D = window_distance_matrix([a, a], [b])
        assert D.shape == (2, 1)


class TestAssign:
    def test_diagonal_optimum(self):
        pairs, ur, uc = assign([[1.0, 2.0], [2.0, 1.0]], unmatched_threshold=10.0)
        assert pairs == [(0, 0), (1, 1)]
        assert ur == [] and uc == []

    def test_threshold_rejects_expensive_pair(self):
        pairs, ur, uc = assign([[0.1, 0.9], [0.9, 0.7]], unmatched_threshold=0.6)
        assert pairs == [(0, 0)]
        assert ur == [1] and uc == [1]

    def test_unavailable_entries_never_match(self):
        pairs, ur, uc = assign([[np.nan, np.nan], [np.nan, 0.2]],
                               unmatched_threshold=0.6)
        assert pairs == [(1, 1)]
        assert ur == [0] and uc == [0]

    def test_empty_matrix(self):
        assert assign([], 0.6) == ([], [], [])
        assert assign(np.empty((0, 0)), 0.6) == ([], [], [])
        # No live tracks: every window track is unmatched.
        assert assign(np.empty((0, 3)), 0.6) == ([], [], [0, 1, 2])

    def test_rectangular(self):
        pairs, ur, uc = assign([[0.1, 0.5, 0.2]], unmatched_threshold=0.6)
        assert pairs == [(0, 0)]
        assert uc == [1, 2]


def brute_force_min_cost(cost):
    m, n = cost.shape
    if m <= n:
        return min(sum(cost[i, p[i]] for i in range(m))
                   for p in permutations(range(n), m))
    return min(sum(cost[p[j], j] for j in range(n))
               for p in permutations(range(m), n))


class TestAssignOptimality:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, n = rng.integers(1, 6, size=2)
            cost = rng.uniform(0.0, 10.0, size=(int(m), int(n)))
            pairs, _, _ = assign(cost.tolist(), unmatched_threshold=1e8)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


class TestMergeAssigned:
    def test_constant_merge(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0), track_id=3)
        nxt = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        merged = merge_assigned(prev, nxt)
        assert merged.track_id == 3
        assert merged.frames == list(range(16))
        for f in merged.frames:
            assert np.allclose(merged.points[f], (0.0, 0.0, 1.0))

    def test_overlap_averaged(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        nxt = tracklet(range(5, 16), (0.0, 0.0, 1.2))
        merged = merge_assigned(prev, nxt)
        assert np.allclose(merged.points[7], (0.0, 0.0, 1.1))
        assert np.allclose(merged.points[2], (0.0, 0.0, 1.0))
        assert np.allclose(merged.points[14], (0.0, 0.0, 1.2))

    def test_overlap_frame_in_prev_only(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        nxt = tracklet([5, 6, 8, 9, 10, 11], (0.0, 0.0, 1.2))
        merged = merge_assigned(prev, nxt)
        assert np.allclose(merged.points[7], (0.0, 0.0, 1.0))

    def test_overlap_provenance_prefers_prev(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0),
                        provenance=Provenance.PLANE_INTERSECTED)
        nxt = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        merged = merge_assigned(prev, nxt)
        assert merged.provenance[7] is Provenance.PLANE_INTERSECTED
        assert merged.provenance[12] is Provenance.TRIANGULATED


def window_track(start, frames, value, camera=0, track_id=0):
    t3 = tracklet(frames, value)
    boxes = {f: Bbox(100.0 + f, 200.0, 40.0, 80.0) for f in frames}
    seg = WindowSegment2D(camera=camera, track_id=track_id, start=start,
                          window_len=10, boxes=boxes,
                          observed_frames=frozenset(frames))
    return WindowTrack(start=start, tracklet=t3, segments=[seg])


class TestTrackRegistry:
    def test_new_track_ids_monotone(self):
        reg = TrackRegistry()
        assert reg.new_track_ids(3) == [0, 1, 2]
        assert reg.new_track_ids(0) == []
        assert reg.new_track_ids(2) == [3, 4]

    def test_first_window_registers_all(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0)),
                        window_track(0, range(0, 11), (1.0, 1.0, 1.0),
                                     track_id=1)])
        assert sorted(reg.tracks) == [0, 1]

    def test_continuation_keeps_id(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0))])
        reg.advance(5, [window_track(5, range(5, 16), (0.0, 0.0, 1.0))])
        assert sorted(reg.tracks) == [0]
        assert reg.tracks[0].tracklet.frames == list(range(16))

    def test_distant_fragment_gets_new_id(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0))])
        reg.advance(5, [window_track(5, range(5, 16), (0.0, 0.0, 2.5))])
        assert sorted(reg.tracks) == [0, 1]

    def test_segments_absorbed_with_newer_window_priority(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0))])
        second = window_track(5, range(5, 16), (0.0, 0.0, 1.0), track_id=9)
        second.segments[0].boxes[7] = Bbox(999.0, 200.0, 40.0, 80.0)
        reg.advance(5, [second])
        assert reg.tracks[0].boxes2d[0][7].x == 999.0
        assert reg.tracks[0].boxes2d[0][2].x == 102.0


class TestTrackRecord:
    def test_absorb_overwrites_conflicts(self):
        rec = TrackRecord(tracklet=tracklet(range(3), (0, 0, 1), track_id=0))
        seg_a = WindowSegment2D(camera=0, track_id=0, start=0, window_len=10,
                                boxes={0: Bbox(1.0, 1.0, 2.0, 2.0)},
                                observed_frames=frozenset({0}))
        seg_b = WindowSegment2D(camera=0, track_id=1, start=0, window_len=10,
                                boxes={0: Bbox(9.0, 9.0, 2.0, 2.0)},
                                observed_frames=frozenset({0}))
        rec.absorb_segments([seg_a])
        rec.absorb_segments([seg_b])
        assert rec.boxes2d[0][0].x == 9.0
