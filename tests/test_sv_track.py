import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack.sv_track import (Bbox, Detection, IouTracker, Tracklet2D,
                              load_detections, save_detections,
                              segment_windows, track_camera_stream)


def det(frame, x, y, w=10.0, h=10.0, camera=0):
    return Detection(frame=frame, camera=camera, bbox=Bbox(x, y, w, h))


def iou(a: Bbox, b: Bbox) -> float:
    """Scalar IoU of two boxes: the oracle for the tracker's inline score."""
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


class ReferenceIouTracker(IouTracker):
    """`IouTracker.step` as it was, scoring each pair with a scalar `iou`
    call on the track's last `Bbox`."""

    def step(self, frame, detections):
        pairs = []
        for ti, track in enumerate(self._live):
            for di, det in enumerate(detections):
                score = iou(track["last_box"], det.bbox)
                if score >= self.iou_threshold:
                    pairs.append((score, track["id"], di, ti))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))

        used_tracks: set[int] = set()
        used_dets: set[int] = set()
        for score, _tid, di, ti in pairs:
            if ti in used_tracks or di in used_dets:
                continue
            used_tracks.add(ti)
            used_dets.add(di)
            track = self._live[ti]
            track["boxes"][frame] = detections[di].bbox
            track["last_box"] = detections[di].bbox
            track["missed"] = 0

        closed = []
        survivors = []
        for ti, track in enumerate(self._live):
            if ti in used_tracks:
                survivors.append(track)
                continue
            track["missed"] += 1
            if track["missed"] > self.max_age:
                closed.append(Tracklet2D(self.camera, track["id"], track["boxes"]))
            else:
                survivors.append(track)
        self._live = survivors

        for di, det in enumerate(detections):
            if di in used_dets:
                continue
            self._live.append({"id": self._next_id, "boxes": {frame: det.bbox},
                               "last_box": det.bbox, "missed": 0})
            self._next_id += 1
        return closed


class TestBbox:
    def test_rejects_non_positive_sides(self):
        with pytest.raises(ValueError):
            Bbox(0.0, 0.0, 0.0, 5.0)

    def test_corners(self):
        b = Bbox(10.0, 20.0, 4.0, 6.0)
        assert b.corners() == (8.0, 17.0, 12.0, 23.0)


class TestIou:
    def test_identical(self):
        b = Bbox(0.0, 0.0, 2.0, 2.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Bbox(0.0, 0.0, 2.0, 2.0), Bbox(10.0, 0.0, 2.0, 2.0)) == 0.0

    def test_half_overlap(self):
        # Unit shift of a 2x2 box: intersection 2, union 6.
        d = iou(Bbox(0.0, 0.0, 2.0, 2.0), Bbox(1.0, 0.0, 2.0, 2.0))
        assert d == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestIouTracker:
    def test_match_extends_track(self):
        tracker = IouTracker(camera=0)
        tracker.step(0, [det(0, 0.0, 0.0)])
        tracker.step(1, [det(1, 3.0, 0.0)])  # IoU 7/13 with the previous box
        tracks = tracker.finish()
        assert len(tracks) == 1
        assert sorted(tracks[0].boxes) == [0, 1]

    def test_track_closed_after_age_exceeded(self):
        tracker = IouTracker(camera=0)
        tracker.step(0, [det(0, 0.0, 0.0)])
        assert tracker.step(1, []) == []
        assert tracker.step(2, []) == []
        closed = tracker.step(3, [])
        assert len(closed) == 1
        assert closed[0].boxes.keys() == {0}

    def test_dominant_diagonal_matching(self):
        tracker = IouTracker(camera=0)
        tracker.step(0, [det(0, 0.0, 0.0), det(0, 100.0, 0.0)])
        tracker.step(1, [det(1, 100.0, 1.0), det(1, 0.0, 1.0)])
        tracks = sorted(tracker.finish(), key=lambda t: t.track_id)
        assert tracks[0].boxes[1].x == 0.0
        assert tracks[1].boxes[1].x == 100.0

    def test_one_detection_never_feeds_two_tracks(self):
        tracker = IouTracker(camera=0)
        tracker.step(0, [det(0, 0.0, 0.0), det(0, 4.0, 0.0)])
        tracker.step(1, [det(1, 2.0, 0.0)])
        tracks = tracker.finish()
        extended = [t for t in tracks if 1 in t.boxes]
        assert len(extended) == 1

    def test_rejects_mixed_frames(self):
        tracker = IouTracker(camera=0)
        with pytest.raises(ValueError):
            tracker.step(0, [det(1, 0.0, 0.0)])

    def test_determinism(self):
        stream = [det(f, 10.0 * (f % 3), float(f)) for f in range(30)]
        a = track_camera_stream(0, stream)
        b = track_camera_stream(0, stream)
        assert [(t.track_id, sorted(t.boxes)) for t in a] == \
            [(t.track_id, sorted(t.boxes)) for t in b]


# Boxes on a coarse grid: duplicates, identical scores across tracks and
# exact rational IoUs are common.
grid_boxes = st.builds(Bbox, st.integers(0, 6).map(float), st.integers(0, 2).map(float),
                       st.sampled_from([1.0, 2.0, 3.0, 4.0]),
                       st.sampled_from([1.0, 2.0, 4.0]))


@st.composite
def detection_streams(draw):
    frames = draw(st.lists(st.lists(grid_boxes, max_size=6), max_size=12))
    boxes = [b for frame in frames for b in frame]
    # A threshold equal to a score that occurs in the stream, so some pairs
    # sit exactly at it, or a fixed one.
    scores = sorted({s for a in boxes[:8] for b in boxes[:8]
                     if 0.0 < (s := iou(a, b)) <= 1.0})
    fixed = st.sampled_from([0.1, 1.0 / 3.0, 0.5, 1.0])
    threshold = draw(st.sampled_from(scores) | fixed if scores else fixed)
    return frames, threshold, draw(st.integers(0, 3))


class TestIouTrackerAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(detection_streams())
    def test_equals_scalar_iou_step(self, stream):
        frames, threshold, max_age = stream
        tracker = IouTracker(3, threshold, max_age)
        reference = ReferenceIouTracker(3, threshold, max_age)
        for f, boxes in enumerate(frames):
            dets = [Detection(frame=f, camera=3, bbox=b) for b in boxes]
            assert tracker.step(f, dets) == reference.step(f, dets)
        assert tracker.finish() == reference.finish()

    def test_score_at_threshold_matches(self):
        # 2x2 boxes one unit apart: IoU 2/6, exactly the threshold.
        tracker = IouTracker(0, iou_threshold=2.0 / 6.0)
        tracker.step(0, [det(0, 0.0, 0.0, 2.0, 2.0)])
        tracker.step(1, [det(1, 1.0, 0.0, 2.0, 2.0)])
        assert [sorted(t.boxes) for t in tracker.finish()] == [[0, 1]]

    def test_equal_scores_go_to_lower_track_id(self):
        tracker = IouTracker(0)
        tracker.step(0, [det(0, 0.0, 0.0), det(0, 0.0, 0.0)])
        tracker.step(1, [det(1, 1.0, 0.0)])
        tracks = sorted(tracker.finish(), key=lambda t: t.track_id)
        assert [sorted(t.boxes) for t in tracks] == [[0, 1], [0]]


def dense_track_camera_stream(camera, detections, iou_threshold, max_age):
    """`track_camera_stream` stepping every frame from the first detection to
    the last, with or without a live track."""
    tracker = IouTracker(camera, iou_threshold, max_age)
    by_frame = {}
    for d in detections:
        by_frame.setdefault(d.frame, []).append(d)
    tracklets = []
    for frame in range(min(by_frame), max(by_frame) + 1):
        tracklets.extend(tracker.step(frame, by_frame.get(frame, [])))
    tracklets.extend(tracker.finish())
    return sorted(tracklets, key=lambda t: t.track_id)


class TestSparseFrames:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 7), st.lists(grid_boxes, min_size=1,
                                                          max_size=4)),
                    min_size=1, max_size=10),
           st.integers(0, 3), st.sampled_from([0.1, 1.0 / 3.0, 0.5]))
    def test_equals_dense_stepping(self, gaps, max_age, threshold):
        # Gaps of 1 to 7 frames straddle every max_age + 1 from 1 to 4.
        detections, frame = [], 0
        for gap, boxes in gaps:
            frame += gap
            detections += [Detection(frame=frame, camera=1, bbox=b) for b in boxes]
        assert track_camera_stream(1, detections, threshold, max_age) == \
            dense_track_camera_stream(1, detections, threshold, max_age)

    def test_far_frame_steps_only_to_close_tracks(self, monkeypatch):
        steps = []
        real = IouTracker.step

        def spy(self, frame, detections):
            steps.append(frame)
            assert len(steps) <= 10, "stepped through the empty frames"
            return real(self, frame, detections)
        monkeypatch.setattr(IouTracker, "step", spy)
        tracklets = track_camera_stream(0, [det(0, 0.0, 0.0), det(10**9, 0.0, 0.0)],
                                        max_age=2)
        assert steps == [0, 1, 2, 3, 10**9]
        assert [sorted(t.boxes) for t in tracklets] == [[0], [10**9]]


def linear_tracklet(frames, camera=0, track_id=0):
    return Tracklet2D(camera=camera, track_id=track_id,
                      boxes={f: Bbox(float(f), 2.0 * f, 10.0, 20.0)
                             for f in frames})


class TestSegmentWindows:
    def test_window_starts_on_grid(self):
        segments = segment_windows(linear_tracklet(range(21)), window_len=10)
        assert [s.start for s in segments] == [0, 5, 10]

    def test_start_snaps_down_to_grid(self):
        segments = segment_windows(linear_tracklet(range(7, 21)), window_len=10)
        assert segments[0].start == 5

    def test_interior_interpolation_midpoint(self):
        frames = [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]
        t = linear_tracklet(frames)
        seg = segment_windows(t, window_len=10)[0]
        box = seg.boxes[5]
        assert box.x == pytest.approx((t.boxes[4].x + t.boxes[6].x) / 2.0)
        assert box.y == pytest.approx((t.boxes[4].y + t.boxes[6].y) / 2.0)
        assert 5 in seg.boxes and 5 not in seg.boxes.keys() & t.boxes.keys()

    def test_short_segment_discarded(self):
        assert segment_windows(linear_tracklet(range(4)), window_len=10) == []

    def test_boundary_extrapolation_constant_velocity(self):
        seg = segment_windows(linear_tracklet(range(3, 11)), window_len=10)[0]
        # Linear motion x = f extends exactly; at most 2 frames are added.
        assert 0 not in seg.boxes
        assert seg.boxes[1].x == pytest.approx(1.0)
        assert seg.boxes[2].x == pytest.approx(2.0)

    def test_extrapolation_scales_by_observation_gap(self):
        # Nearest two observations 2 frames apart: velocity is halved.
        t = Tracklet2D(camera=0, track_id=0,
                       boxes={2: Bbox(2.0, 0.0, 10.0, 10.0),
                              4: Bbox(4.0, 0.0, 10.0, 10.0),
                              5: Bbox(5.0, 0.0, 10.0, 10.0),
                              6: Bbox(6.0, 0.0, 10.0, 10.0),
                              7: Bbox(7.0, 0.0, 10.0, 10.0)})
        seg = segment_windows(t, window_len=10)[0]
        assert seg.boxes[1].x == pytest.approx(1.0)

    def test_frames_stay_inside_window(self):
        t = linear_tracklet(range(40))
        for seg in segment_windows(t, window_len=10):
            assert all(seg.start <= f <= seg.start + 10 for f in seg.boxes)
            assert len(seg.boxes.keys() & t.boxes.keys()) >= 5

    def test_adjacent_windows_overlap_half(self):
        segments = segment_windows(linear_tracklet(range(16)), window_len=10)
        first, second = segments[0], segments[1]
        overlap = set(first.boxes) & set(second.boxes)
        assert len(overlap) == 6  # inclusive window endpoints share 6 frames

    def test_rejects_odd_window(self):
        with pytest.raises(ValueError):
            segment_windows(linear_tracklet(range(20)), window_len=9)


class TestDetectionIO:
    def test_round_trip(self, tmp_path):
        stream = [det(f, 1.0 + f, 2.0, camera=f % 2) for f in range(6)]
        path = tmp_path / "detections.jsonl"
        save_detections(stream, path)
        loaded = load_detections(path)
        assert loaded == stream

    def test_bad_record(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('{"frame": 0, "camera": 0, "x": 1.0}\n')
        with pytest.raises(ValueError, match="bad detection record"):
            load_detections(path)

    def test_confidence_key_is_ignored(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('{"frame": 3, "camera": 1, "x": 1.0, "y": 2.0, '
                        '"w": 3.0, "h": 4.0, "confidence": 0.25}\n')
        assert load_detections(path) == [det(3, 1.0, 2.0, 3.0, 4.0, camera=1)]
        save_detections(load_detections(path), path)
        assert "confidence" not in path.read_text()
