import time

import numpy as np
import pytest

from mvtrack import target
from mvtrack.cascade import (PROVENANCE, Provenance, TrackingSpace, WindowTrack,
                             attach_top_bottom_batch)
from mvtrack.geometry import CameraRig, project
from mvtrack.simulate import make_rig
from mvtrack.stitch import TrackRecord, TrackRegistry
from mvtrack.sv_track import Bbox, Segments
from mvtrack.target import (TargetCriteria, TargetMaintainer,
                            identify_target, load_target_records,
                            save_target_records, smooth_track)

from conftest import FrameTrack, to_arrays, to_frames, window_segment

SPACE = TrackingSpace(perf=(-2.0, -2.0, 0.0, 2.0, 2.0, 4.0), beta=1.0)
CRIT = TargetCriteria(h_top=1.5, h_bot=0.5, delta=30)
RIG = CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))
INTERPOLATED = PROVENANCE.index(Provenance.INTERPOLATED)


def performer_track(frames, hole=(), z=1.8):
    t3 = FrameTrack()
    for f in frames:
        if f in hole:
            continue
        X = np.array([0.0, 0.01 * f, z])
        t3.points[f] = X
        t3.provenance[f] = Provenance.TRIANGULATED
        t3.top[f] = X + [0.0, 0.0, 0.85]
        t3.bottom[f] = X - [0.0, 0.0, 0.85]
    return t3


def pending_windows(t3, window_len=10):
    """t3's half-overlapping window tracks in merge order, centers only:
    each carries four cameras' boxes whose top and bottom centers see t3's
    tops and bottoms, for the deferred height solve."""
    frames = t3.frames
    out = []
    step = window_len // 2
    for start in range(frames[0] // step * step,
                       max(frames[-1] - window_len, frames[0]) + step, step):
        span = [f for f in frames if start <= f <= start + window_len]
        if not span:
            continue
        segments = []
        for cam in RIG:
            tops = project(cam, np.array([t3.top[f] for f in span])).tolist()
            bottoms = project(cam, np.array([t3.bottom[f] for f in span])).tolist()
            boxes = {f: Bbox((tx + bx) / 2, (ty + by) / 2, 40.0, by - ty)
                     for f, (tx, ty), (bx, by) in zip(span, tops, bottoms)}
            segments.append(window_segment(cam.id, boxes, start=start))
        segments = Segments.concat(segments)
        out.append(WindowTrack(to_arrays(centers_of(t3, span), start, segments.boxes.shape[1]),
                               segments, RIG))
    return out


def centers_of(t3, frames=None):
    frames = t3.frames if frames is None else frames
    return FrameTrack(points={f: t3.points[f] for f in frames},
                      provenance={f: t3.provenance[f] for f in frames})


def old_identify_target(t3, space, crit, current_frame):
    """`identify_target` as it was on frame-keyed dicts: every frame of the
    buffer visited."""
    x0, y0, z0, x1, y1, z1 = space.perf
    count = 0
    for f in range(current_frame - crit.delta, current_frame + 1):
        X, top, bot = t3.points.get(f), t3.top.get(f), t3.bottom.get(f)
        if X is None or top is None or bot is None:
            continue
        if (x0 <= X[0] <= x1 and y0 <= X[1] <= y1 and z0 <= X[2] <= z1
                and top[2] > crit.h_top and bot[2] > crit.h_bot):
            count += 1
    return count > crit.occupancy * crit.delta


def record_of(t3, pending):
    """A registry track of t3's centers on the frames its pending window
    tracks span."""
    first = pending[0].track.first
    n = pending[-1].track.first + len(pending[-1].track.points) - first
    return TrackRecord(tracklet=to_arrays(centers_of(t3), first, n), pending=pending)


class TestTargetCriteria:
    def test_rejects_inverted_heights(self):
        with pytest.raises(ValueError):
            TargetCriteria(h_top=0.4, h_bot=0.5)

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ValueError):
            TargetCriteria(h_top=1.5, h_bot=0.5, delta=0)


class TestIdentifyTarget:
    def test_all_frames_satisfy(self):
        t3 = performer_track(range(0, 31))
        assert identify_target(to_arrays(t3), SPACE, CRIT, current_frame=30)

    def test_exactly_half_is_not_enough(self):
        # 15 of 30 satisfying frames sits on the strict boundary.
        t3 = performer_track(range(0, 15))  # frames 0..14 high
        for f in range(15, 31):
            X = np.array([0.0, 0.0, 0.3])
            t3.points[f] = X
            t3.top[f] = X + [0, 0, 0.85]  # top 1.15 < 1.5
            t3.bottom[f] = X - [0, 0, 0.85]
        assert not identify_target(to_arrays(t3), SPACE, CRIT, current_frame=30)

    def test_sixteen_of_thirty_satisfies(self):
        t3 = performer_track(range(0, 16))
        assert identify_target(to_arrays(t3), SPACE, CRIT, current_frame=30)

    def test_low_bottom_fails(self):
        t3 = performer_track(range(0, 31), z=1.2)  # bottom 0.35 < 0.5
        assert not identify_target(to_arrays(t3), SPACE, CRIT, current_frame=30)

    def test_center_outside_perf_fails(self):
        t3 = FrameTrack()
        for f in range(31):
            X = np.array([4.0, 0.0, 1.8])
            t3.points[f] = X
            t3.top[f] = X + [0, 0, 0.85]
            t3.bottom[f] = X - [0, 0, 0.85]
        assert not identify_target(to_arrays(t3), SPACE, CRIT, current_frame=30)

    def test_frames_without_extent_do_not_count(self):
        t3 = performer_track(range(0, 31))
        t3.top.clear()
        assert not identify_target(to_arrays(t3), SPACE, CRIT, current_frame=30)

    def test_huge_delta_visits_only_the_tracks_frames(self):
        t3 = to_arrays(performer_track(range(0, 60)))
        crit = TargetCriteria(h_top=1.5, h_bot=0.5, delta=10**9)
        t0 = time.perf_counter()
        assert identify_target(t3, SPACE, crit, current_frame=59) is False
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("delta", [1, 2, 10, 29, 30, 31, 45, 60, 200])
    def test_verdict_equals_full_buffer_scan(self, delta):
        crit = TargetCriteria(h_top=1.5, h_bot=0.5, delta=delta)
        t3 = performer_track(range(0, 61), hole=range(20, 26))
        for f in range(40, 61, 3):
            del t3.top[f]
        for f in range(30, 61, 4):
            t3.bottom[f] = t3.bottom[f] - [0.0, 0.0, 0.6]
        for current in range(-5, 130, 3):
            assert identify_target(to_arrays(t3), SPACE, crit, current) == \
                old_identify_target(t3, SPACE, crit, current)


def emit_one(w, h, **kwargs):
    """The pixel (x, y) of a one-frame target in camera 0, and the view
    (x, y, side) `_emit` gives there, the only one, when a w x h box
    centred on (x, y) is linked."""
    X = np.array([0.0, 0.0, 1.8])
    (x, y), = project(RIG[0], [X]).tolist()
    seg = window_segment(0, {0: (x, y, w, h)})
    reg = TrackRegistry()
    reg.tracks[0] = TrackRecord(tracklet=to_arrays(FrameTrack(points={0: X})), segments=[seg])
    maintainer = TargetMaintainer(space=SPACE, criteria=CRIT, **kwargs)
    records = maintainer._emit(np.array([0]), X[None],
                               np.array([PROVENANCE.index(Provenance.TRIANGULATED)], np.uint8),
                               np.array([0]), reg, RIG)
    assert records.cameras[0] == 0 and len(records) == 1 and np.isnan(records.views[1:]).all()
    return (x, y), records.views[0, 0].tolist()


class TestBufferBbox:
    def test_reference_box(self):
        (x, y), v = emit_one(50.0, 80.0)
        assert v == [x, y, 104.0]

    def test_unit_scale_identity(self):
        _, v = emit_one(10.0, 10.0, buffer_scale=1.0)
        assert v[2] == 10.0

    def test_square_input(self):
        _, v = emit_one(20.0, 20.0)
        assert v[2] == 1.3 * 20.0

    def test_double_application_squares_alpha(self):
        _, once = emit_one(50.0, 80.0)
        _, v = emit_one(once[2], once[2])
        assert v[2] == 1.3 * (1.3 * 80.0)


class TestSmoothTrack:
    def test_constant_is_fixed_point(self):
        t3 = FrameTrack(points={f: np.array([1.0, 2.0, 3.0]) for f in range(9)})
        out = to_frames(smooth_track(to_arrays(t3)))
        for f in range(9):
            assert np.allclose(out.points[f], (1.0, 2.0, 3.0), atol=1e-15)

    def test_linear_ramp_unchanged(self):
        t3 = FrameTrack(points={f: np.array([0.1 * f, 0.0, 1.0]) for f in range(11)})
        out = to_frames(smooth_track(to_arrays(t3)))
        for f in range(2, 9):
            assert out.points[f][0] == pytest.approx(0.1 * f, abs=1e-12)

    def test_spike_attenuated(self):
        points = {f: np.array([0.0, 0.0, 1.0]) for f in range(11)}
        points[5] = np.array([0.0, 0.0, 1.5])
        out = to_frames(smooth_track(to_arrays(FrameTrack(points=points))))
        assert abs(out.points[5][2] - 1.0) <= 0.1 + 1e-12

    def test_runs_smoothed_independently(self):
        points = {f: np.array([float(f), 0.0, 1.0]) for f in [0, 1, 2, 10, 11, 12]}
        out = to_frames(smooth_track(to_arrays(FrameTrack(points=points))))
        # End frames of a 3-frame run keep their value (window shrinks to 1).
        assert out.points[2][0] == 2.0
        assert out.points[10][0] == 10.0

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            smooth_track(to_arrays(FrameTrack()), window=4)


def run_maintainer(registry, last_frame, maintainer=None, rig=None):
    maintainer = maintainer or TargetMaintainer(space=SPACE, criteria=CRIT)
    for start in range(0, last_frame, 5):
        maintainer.observe(start, 10, registry)
    return maintainer.finalize(registry, rig or RIG)


def registry_with(tracks):
    """A registry of the tracks' centers, their heights left pending."""
    reg = TrackRegistry()
    for tid, t3 in enumerate(tracks):
        reg.tracks[tid] = record_of(t3, pending_windows(t3))
    reg._next_id = max(reg.tracks) + 1
    return reg


class TestTargetMaintainer:
    def test_continuous_target_single_id_no_interpolation(self):
        reg = registry_with([performer_track(range(0, 61))])
        records = run_maintainer(reg, 60)
        assert set(records.track_id.tolist()) == {0}
        assert not (records.provenance == INTERPOLATED).any()

    def test_five_frame_gap_bridged(self):
        reg = registry_with([performer_track(range(0, 61), hole=range(40, 45))])
        records = run_maintainer(reg, 60)
        interp = records.frame[records.provenance == INTERPOLATED].tolist()
        assert interp == [40, 41, 42, 43, 44]

    def test_twelve_frame_gap_left_open(self):
        reg = registry_with([performer_track(range(0, 61), hole=range(40, 52))])
        records = run_maintainer(reg, 60)
        assert set(records.frame.tolist()).isdisjoint(range(40, 52))
        assert not (records.provenance == INTERPOLATED).any()

    def test_interpolated_positions_are_linear(self):
        reg = registry_with([performer_track(range(0, 61), hole=range(40, 45))])
        records = run_maintainer(reg, 60)
        X = dict(zip(records.frame.tolist(), records.X))
        for f in range(40, 45):
            assert X[f][1] == pytest.approx(0.01 * f, abs=1e-9)

    def test_non_performer_never_selected(self):
        walker = performer_track(range(0, 61), z=1.0)
        reg = registry_with([performer_track(range(0, 61)), walker])
        records = run_maintainer(reg, 60)
        assert set(records.track_id.tolist()) == {0}

    def test_smooth_window_is_used(self):
        spiky = performer_track(range(0, 61))
        spiky.points[30] = spiky.points[30] + [0.0, 0.0, 0.5]
        kept = run_maintainer(registry_with([spiky]), 60,
                              TargetMaintainer(space=SPACE, criteria=CRIT, smooth_window=1))
        kept = dict(zip(kept.frame.tolist(), kept.X))
        assert np.array_equal(kept[30], spiky.points[30])
        smoothed = run_maintainer(registry_with([spiky]), 60)
        smoothed = dict(zip(smoothed.frame.tolist(), smoothed.X))
        assert smoothed[30][2] == pytest.approx(spiky.points[30][2] - 0.4)

    def test_heights_come_from_the_pending_windows(self):
        t3 = performer_track(range(0, 61))
        reg = registry_with([t3])
        TargetMaintainer(space=SPACE, criteria=CRIT).observe(0, 10, reg)
        rec = reg.tracks[0]
        got = to_frames(rec.tracklet)
        assert rec.pending == [] and sorted(got.top) == t3.frames
        # The boxes' top and bottom centers are a few pixels off the true
        # projections sideways, not in height.
        for heights, want in ((got.top, t3.top), (got.bottom, t3.bottom)):
            for f in t3.frames:
                assert np.linalg.norm(heights[f] - want[f]) < 0.02
                assert abs(heights[f][2] - want[f][2]) < 1e-3

    def test_overlapping_windows_fold_in_merge_order(self):
        # Two window tracks of one identity see heights 2 cm apart over
        # their overlap: each is solved on its own and the overlap averaged.
        low, high = performer_track(range(0, 11)), performer_track(range(5, 16))
        for f in high.frames:
            high.top[f] = high.top[f] + [0.0, 0.0, 0.02]
        (first,), (second,) = pending_windows(low), pending_windows(high)
        rec = record_of(performer_track(range(0, 16)), [first, second])
        reg = TrackRegistry()
        reg.tracks[0], reg._next_id = rec, 1
        TargetMaintainer(space=SPACE, criteria=CRIT).observe(5, 10, reg)
        alone = pending_windows(low) + pending_windows(high)
        for wt in alone:
            attach_top_bottom_batch([(wt.track, wt.segments)], RIG)
        a, b = (to_frames(wt.track) for wt in alone)
        top = to_frames(rec.tracklet).top
        for f in range(16):
            want = (a.top[f] + b.top[f]) / 2.0 if 5 <= f <= 10 else \
                a.top.get(f, b.top.get(f))
            assert np.array_equal(top[f], want)
        assert abs(top[7][2] - top[12][2] + 0.01) < 0.005

    def test_pending_dropped_behind_the_buffer_and_once_ended(self, monkeypatch):
        solved = []
        monkeypatch.setattr(target, "attach_top_bottom_batch",
                            lambda tracks, rig: solved.extend(tracks))
        reg = registry_with([performer_track(range(0, 61))])
        maintainer = TargetMaintainer(space=SPACE, criteria=CRIT, target_id=0)
        maintainer.observe(25, 10, reg)  # buffer from frame 5: windows from 0 on
        assert [wt.track.first for wt in reg.tracks[0].pending] == list(range(0, 55, 5))
        maintainer.observe(40, 10, reg)  # buffer from frame 20: windows from 10 on
        assert [wt.track.first for wt in reg.tracks[0].pending] == list(range(10, 55, 5))
        maintainer.target_id = None
        maintainer.observe(70, 10, reg)  # ended at 60: dropped, not solved
        assert reg.tracks[0].pending == [] and solved == []
        assert maintainer.tenures == [] and maintainer.target_id is None

    def test_reidentification_after_track_end(self):
        first = performer_track(range(0, 31))
        second = performer_track(range(60, 101))
        reg = registry_with([first, second])
        records = run_maintainer(reg, 100)
        ids = dict(zip(records.frame.tolist(), records.track_id.tolist()))
        assert ids[30] == 0
        assert ids[100] == 1
        assert not any(30 < f < 60 for f in ids)


class TestEmission:
    def make_scene(self, with_box_for_frame=lambda f: True):
        rig = RIG
        performer = performer_track(range(0, 61))
        t3 = centers_of(performer)
        rec = record_of(performer, pending_windows(performer))
        boxes = {}
        for f in t3.frames:
            if not with_box_for_frame(f):
                continue
            (x, y), = project(rig[0], [t3.points[f]]).tolist()
            boxes[f] = Bbox(x, y, 40.0, 100.0)
        rec.segments.append(window_segment(0, boxes))
        reg = TrackRegistry()
        reg.tracks[0] = rec
        reg._next_id = 1
        return rig, reg

    def test_reprojection_matches_linear_motion(self):
        rig, reg = self.make_scene()
        records = run_maintainer(reg, 60, rig=rig)
        for f in range(2, 59):
            i = records.frame.tolist().index(f)
            (x, _), = project(rig[0], records.X[i:i + 1])
            assert records.views[0, i, 0] == pytest.approx(x, abs=1e-6)
            assert records.views[0, i, 2] == pytest.approx(1.3 * 100.0)

    def test_missing_box_synthesized_with_last_size(self):
        rig, reg = self.make_scene(with_box_for_frame=lambda f: f != 30)
        records = run_maintainer(reg, 60, rig=rig)
        view = records.views[0, records.frame.tolist().index(30)]
        assert not np.isnan(view).any()
        assert view[2] == pytest.approx(1.3 * 100.0)

    def test_boxes_looked_up_for_the_target_tracks_only(self, monkeypatch):
        looked_up = []
        lookup = TrackRecord.boxes_by_camera
        monkeypatch.setattr(TrackRecord, "boxes_by_camera",
                            lambda rec, tid, *args: looked_up.append(tid)
                            or lookup(rec, tid, *args))
        reg = registry_with([performer_track(range(0, 61)),
                             performer_track(range(0, 61), z=1.0)])
        assert run_maintainer(reg, 60)
        assert looked_up == [0]


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        reg = registry_with([performer_track(range(0, 61))])
        records = run_maintainer(reg, 60)
        path = tmp_path / "tracklets.jsonl"
        save_target_records(records, path)
        loaded = load_target_records(path)
        assert len(loaded) == len(records)
        assert loaded[0]["frame"] == records.frame[0]
        assert loaded[0]["provenance"] == PROVENANCE[records.provenance[0]].value

    def test_no_target_is_empty_columns(self, tmp_path):
        # A walker below the height trigger is never the target.
        records = run_maintainer(registry_with([performer_track(range(0, 61), z=1.0)]), 60)
        assert len(records) == 0 and records.cameras == tuple(cam.id for cam in RIG)
        assert [(a.dtype, a.shape) for a in (records.frame, records.track_id, records.X,
                                             records.provenance, records.views)] == [
            (np.int64, (0,)), (np.int64, (0,)), (np.float64, (0, 3)), (np.uint8, (0,)),
            (np.float64, (len(RIG), 0, 3))]
        save_target_records(records, tmp_path / "tracklets.jsonl")
        assert (tmp_path / "tracklets.jsonl").read_bytes() == b""

    def test_bad_record(self, tmp_path):
        path = tmp_path / "tracklets.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError):
            load_target_records(path)
