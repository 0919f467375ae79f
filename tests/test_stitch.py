import logging
import math
from itertools import permutations

import numpy as np
import pytest

from mvtrack.cascade import Mode, Provenance, WindowTrack
from mvtrack.geometry import CameraRig
from mvtrack.pipeline import run_pipeline
from mvtrack.scenarios import get_scenario_spec
from mvtrack.simulate import make_rig
from mvtrack.stitch import (TrackRecord, TrackRegistry, assign,
                            merge_assigned,
                            window_distance_matrix)

from conftest import FrameTrack, simulated, to_arrays, to_frames, window_segment

RIG = CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))


def tracklet(frames, value, provenance=Provenance.TRIANGULATED, first=None, n=None):
    t3 = FrameTrack()
    for f in frames:
        t3.points[f] = np.asarray(value(f) if callable(value) else value,
                                  dtype=float)
        t3.provenance[f] = provenance
    return to_arrays(t3, first, n)


class TestWindowDistance:
    def test_identical_overlap_is_zero(self):
        a = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        b = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        assert window_distance_matrix([a], [b])[0, 0] == 0.0

    def test_constant_offset(self):
        a = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        b = tracklet(range(5, 16), (0.0, 0.0, 1.3))
        assert window_distance_matrix([a], [b])[0, 0] == pytest.approx(0.3, abs=1e-12)

    def test_disjoint_is_unavailable(self):
        a = tracklet(range(0, 5), (0.0, 0.0, 1.0))
        b = tracklet(range(10, 15), (0.0, 0.0, 1.0))
        assert np.isnan(window_distance_matrix([a], [b])[0, 0])

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
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        nxt = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        merged = merge_assigned(prev, nxt)
        assert merged.frames.tolist() == list(range(16))
        for f in merged.frames.tolist():
            assert np.allclose(to_frames(merged).points[f], (0.0, 0.0, 1.0))

    def test_overlap_averaged(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        nxt = tracklet(range(5, 16), (0.0, 0.0, 1.2))
        merged = to_frames(merge_assigned(prev, nxt))
        assert np.allclose(merged.points[7], (0.0, 0.0, 1.1))
        assert np.allclose(merged.points[2], (0.0, 0.0, 1.0))
        assert np.allclose(merged.points[14], (0.0, 0.0, 1.2))

    def test_overlap_frame_in_prev_only(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0))
        nxt = tracklet([5, 6, 8, 9, 10, 11], (0.0, 0.0, 1.2))
        merged = to_frames(merge_assigned(prev, nxt))
        assert np.allclose(merged.points[7], (0.0, 0.0, 1.0))

    def test_overlap_provenance_prefers_prev(self):
        prev = tracklet(range(0, 11), (0.0, 0.0, 1.0),
                        provenance=Provenance.PLANE_INTERSECTED)
        nxt = tracklet(range(5, 16), (0.0, 0.0, 1.0))
        merged = to_frames(merge_assigned(prev, nxt))
        assert merged.provenance[7] is Provenance.PLANE_INTERSECTED
        assert merged.provenance[12] is Provenance.TRIANGULATED


def box_at(rec, camera, frame) -> tuple:
    """The (x, y, w, h) `TrackRecord.boxes_by_camera` gives at a camera and
    frame, NaN where none."""
    return tuple(rec.boxes_by_camera(0, np.array([frame]), [camera])[0, 0].tolist())


def window_track(start, frames, value, camera=0, track_id=0):
    boxes = {f: (100.0 + f, 200.0, 40.0, 80.0) for f in frames}
    seg = window_segment(camera, boxes, track_id=track_id, start=start)
    t3 = tracklet(frames, value, first=start, n=seg.boxes.shape[1])
    return WindowTrack(track=t3, segments=seg, rig=RIG)


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
        assert reg.tracks[0].tracklet.frames.tolist() == list(range(16))

    def test_merged_window_tracks_kept_pending_in_merge_order(self):
        reg = TrackRegistry()
        first = window_track(0, range(0, 11), (0.0, 0.0, 1.0))
        other = window_track(0, range(0, 11), (2.0, 0.0, 1.0), track_id=1)
        reg.advance(0, [first, other])
        second = window_track(5, range(5, 16), (0.0, 0.0, 1.0))
        reg.advance(5, [second])
        assert list(map(id, reg.tracks[0].pending)) == [id(first), id(second)]
        assert list(map(id, reg.tracks[1].pending)) == [id(other)]
        # Heights are not merged with the centers.
        assert to_frames(reg.tracks[0].tracklet).top == {} == \
            to_frames(reg.tracks[0].tracklet).bottom

    def test_distant_fragment_gets_new_id(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0))])
        reg.advance(5, [window_track(5, range(5, 16), (0.0, 0.0, 2.5))])
        assert sorted(reg.tracks) == [0, 1]

    def test_segments_absorbed_with_newer_window_priority(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0))])
        second = window_track(5, range(5, 16), (0.0, 0.0, 1.0), track_id=9)
        second.segments.boxes[0, 7 - 5] = (999.0, 200.0, 40.0, 80.0)
        reg.advance(5, [second])
        assert [seg.start.tolist() for seg in reg.tracks[0].segments] == [[0], [5]]
        assert box_at(reg.tracks[0], 0, 7) == (999.0, 200.0, 40.0, 80.0)
        assert box_at(reg.tracks[0], 0, 2) == (102.0, 200.0, 40.0, 80.0)
        assert math.isnan(box_at(reg.tracks[0], 0, 16)[0])

    def test_last_frame_follows_merges(self):
        reg = TrackRegistry()
        reg.advance(0, [window_track(0, range(0, 11), (0.0, 0.0, 1.0))])
        assert reg.tracks[0].last_frame == 10
        reg.advance(5, [window_track(5, range(5, 14), (0.0, 0.0, 1.0))])
        assert reg.tracks[0].last_frame == 13
        assert reg.live_tracks(13) == [0] and reg.live_tracks(14) == []


class TestTrackRecord:
    def test_absorb_overwrites_conflicts(self):
        seg_a = window_segment(0, {0: (1.0, 1.0, 2.0, 2.0)})
        seg_b = window_segment(0, {0: (9.0, 9.0, 2.0, 2.0)}, track_id=1)
        rec = TrackRecord(tracklet=tracklet(range(3), (0, 0, 1)), segments=[seg_a, seg_b])
        assert box_at(rec, 0, 0) == (9.0, 9.0, 2.0, 2.0)
        assert rec.last_frame == 2

    def test_absorb_logs_conflicts_at_debug(self, caplog):
        def seg(x):
            return window_segment(2, {0: (x, 1.0, 2.0, 2.0)})
        # The same box again is no conflict.
        rec = TrackRecord(tracklet=tracklet(range(3), (0, 0, 1)),
                          segments=[seg(1.0), seg(9.0), seg(9.0)])
        caplog.set_level(logging.DEBUG, logger="mvtrack.stitch")
        boxes = rec.boxes_by_camera(4, np.array([0]), [2])
        assert [r.getMessage() for r in caplog.records] == \
            ["track 4 cam 2 frame 0: 2D link conflict, keeping newer window"]
        assert boxes[0, 0, 0] == 9.0


@pytest.mark.parametrize("mode", list(Mode))
def test_last_frame_is_kept_on_every_advance(monkeypatch, mode):
    detections, rig, cfg = simulated(get_scenario_spec("clean-4cam"))
    advance, checked = TrackRegistry.advance, []

    def advance_spy(self, window_start, window_tracks):
        advance(self, window_start, window_tracks)
        for rec in self.tracks.values():
            assert rec.last_frame == rec.tracklet.frames[-1]
        checked.append(len(self.tracks))
    monkeypatch.setattr(TrackRegistry, "advance", advance_spy)
    run_pipeline(detections, rig, cfg, mode)
    assert len(checked) > 100 and checked[-1] > 0
