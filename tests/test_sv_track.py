import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack.records import write_jsonl
from mvtrack.sv_track import (Bbox, Detection, Detections, Tracklet2D,
                              load_detections, save_detections,
                              segment_windows, track_camera_stream)

from conftest import box_dict, columns


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


class ReferenceIouTracker:
    """The IoU tracker as it was before detections became columns: it steps
    with `Detection` rows, scores each pair with a scalar `iou` call on the
    track's last `Bbox` and keeps each track's boxes in a {frame: Bbox}
    dict.  Closed tracklets are (camera, track id, {frame: Bbox})."""

    def __init__(self, camera, iou_threshold, max_age):
        self.camera = camera
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self._next_id = 0
        self._live = []

    def step(self, frame, detections):
        pairs = []
        for ti, track in enumerate(self._live):
            for di, d in enumerate(detections):
                score = iou(track["last_box"], d.bbox)
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
                closed.append((self.camera, track["id"], track["boxes"]))
            else:
                survivors.append(track)
        self._live = survivors

        for di, d in enumerate(detections):
            if di in used_dets:
                continue
            self._live.append({"id": self._next_id, "boxes": {frame: d.bbox},
                               "last_box": d.bbox, "missed": 0})
            self._next_id += 1
        return closed

    def finish(self):
        closed = [(self.camera, t["id"], t["boxes"]) for t in self._live]
        self._live = []
        return closed


def as_dicts(tracklets):
    """(camera, track id, {frame: Bbox}) of each tracklet, as the reference
    gives them."""
    return [(t.camera, t.track_id,
             {f: Bbox(*b) for f, b in zip(t.frames.tolist(), t.boxes.tolist())})
            for t in tracklets]


def frame_detections(frames, camera=0):
    """`Detection` rows of a list of frames, each a list of boxes."""
    return [Detection(frame=f, camera=camera, bbox=b) for f, boxes in enumerate(frames)
            for b in boxes]


def track_frames(frames, camera=0, iou_threshold=0.1, max_age=2):
    """`track_camera_stream` over a list of frames, each a list of boxes."""
    return track_camera_stream(camera, Detections.from_rows(frame_detections(frames, camera)),
                               iou_threshold, max_age)


def box(x, y, w=10.0, h=10.0):
    return Bbox(x, y, w, h)


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
        # IoU 7/13 with the previous box.
        tracks = track_frames([[box(0.0, 0.0)], [box(3.0, 0.0)]])
        assert len(tracks) == 1
        assert tracks[0].frames.tolist() == [0, 1]

    def test_track_closed_after_age_exceeded(self):
        # max_age = 2: a track last matched at frame 0 is still a candidate
        # at frame 3, and closed before frame 4.
        tracks = track_frames([[box(0.0, 0.0)], [], [], [box(0.0, 0.0)]])
        assert [t.frames.tolist() for t in tracks] == [[0, 3]]
        tracks = track_frames([[box(0.0, 0.0)], [], [], [], [box(0.0, 0.0)]])
        assert [t.frames.tolist() for t in tracks] == [[0], [4]]

    def test_dominant_diagonal_matching(self):
        tracks = track_frames([[box(0.0, 0.0), box(100.0, 0.0)],
                               [box(100.0, 1.0), box(0.0, 1.0)]])
        assert tracks[0].boxes[1, 0] == 0.0
        assert tracks[1].boxes[1, 0] == 100.0

    def test_one_detection_never_feeds_two_tracks(self):
        tracks = track_frames([[box(0.0, 0.0), box(4.0, 0.0)], [box(2.0, 0.0)]])
        extended = [t for t in tracks if 1 in t.frames.tolist()]
        assert len(extended) == 1

    def test_rejects_mixed_frames(self):
        # The camera check; frames need no check, as the stream is sorted
        # into frames here.
        with pytest.raises(ValueError):
            track_camera_stream(1, columns([(1, 0, 0.0, 0.0, 10.0, 10.0)]))
        with pytest.raises(ValueError):
            track_camera_stream(1, [det(1, 0.0, 0.0, camera=0)])

    def test_determinism(self):
        stream = columns((f, 0, 10.0 * (f % 3), float(f), 10.0, 10.0) for f in range(30))
        assert as_dicts(track_camera_stream(0, stream)) == \
            as_dicts(track_camera_stream(0, stream))


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
        # Empty frames included: the reference steps each of them.
        frames, threshold, max_age = stream
        detections = frame_detections(frames, 3)
        want = dense_reference_stream(3, detections, threshold, max_age) if detections else []
        assert as_dicts(track_frames(frames, 3, threshold, max_age)) == want

    def test_score_at_threshold_matches(self):
        # 2x2 boxes one unit apart: IoU 2/6, exactly the threshold.
        tracks = track_frames([[box(0.0, 0.0, 2.0, 2.0)], [box(1.0, 0.0, 2.0, 2.0)]],
                              iou_threshold=2.0 / 6.0)
        assert [t.frames.tolist() for t in tracks] == [[0, 1]]

    def test_equal_scores_go_to_lower_track_id(self):
        tracks = track_frames([[box(0.0, 0.0), box(0.0, 0.0)], [box(1.0, 0.0)]])
        assert [t.frames.tolist() for t in tracks] == [[0, 1], [0]]


def dense_reference_stream(camera, detections, iou_threshold, max_age):
    """The reference tracker stepped through every frame from the first
    detection to the last, with or without a live track; its tracklets
    sorted by id."""
    tracker = ReferenceIouTracker(camera, iou_threshold, max_age)
    by_frame = {}
    for d in detections:
        by_frame.setdefault(d.frame, []).append(d)
    tracklets = []
    for frame in range(min(by_frame), max(by_frame) + 1):
        tracklets.extend(tracker.step(frame, by_frame.get(frame, [])))
    tracklets.extend(tracker.finish())
    return sorted(tracklets, key=lambda t: t[1])


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
        want = dense_reference_stream(1, detections, threshold, max_age)
        assert as_dicts(track_camera_stream(1, Detections.from_rows(detections), threshold,
                                            max_age)) == want
        # A list of rows is turned into the same columns.
        assert as_dicts(track_camera_stream(1, detections, threshold, max_age)) == want

    def test_far_frame_steps_only_to_close_tracks(self):
        # A track is a candidate at a far frame exactly when max_age spans
        # the gap, with no empty frame stepped.
        stream = columns([(0, 0, 0.0, 0.0, 10.0, 10.0), (10**9, 0, 0.0, 0.0, 10.0, 10.0)])
        for max_age, want in ((2, [[0], [10**9]]), (10**9 - 2, [[0], [10**9]]),
                              (10**9 - 1, [[0, 10**9]])):
            tracklets = track_camera_stream(0, stream, max_age=max_age)
            assert [t.frames.tolist() for t in tracklets] == want

    def test_long_gap_with_a_live_track_is_not_stepped(self):
        # Stepping each of the 10**7 empty frames, while the track stays
        # live, took seconds.
        stream = columns([(0, 0, 0.0, 0.0, 10.0, 10.0), (1, 0, 0.0, 0.0, 10.0, 10.0),
                          (10**7, 0, 0.0, 0.0, 10.0, 10.0)])
        start = time.perf_counter()
        tracklets = track_camera_stream(0, stream, max_age=10**9)
        assert time.perf_counter() - start < 2.0
        assert [t.frames.tolist() for t in tracklets] == [[0, 1, 10**7]]

    def test_rows_of_a_frame_keep_stream_order(self):
        # Unsorted frames: each frame's rows are stepped in stream order, so
        # the first box of frame 0 in the stream gets track id 0.
        stream = columns([(1, 0, 50.0, 0.0, 10.0, 10.0), (0, 0, 50.0, 0.0, 10.0, 10.0),
                          (0, 0, 0.0, 0.0, 10.0, 10.0), (1, 0, 0.0, 0.0, 10.0, 10.0)])
        tracks = track_camera_stream(0, stream)
        assert [(t.track_id, t.boxes[:, 0].tolist()) for t in tracks] == \
            [(0, [50.0, 50.0]), (1, [0.0, 0.0])]


def linear_tracklet(frames, camera=0, track_id=0):
    frames = np.array(list(frames), dtype=np.int64)
    return Tracklet2D(camera=camera, track_id=track_id, frames=frames,
                      boxes=np.stack([frames, 2.0 * frames, np.full(len(frames), 10.0),
                                      np.full(len(frames), 20.0)], axis=1).astype(float))


class TestSegmentWindows:
    def test_window_starts_on_grid(self):
        segments = segment_windows(linear_tracklet(range(21)), window_len=10)
        assert segments.start.tolist() == [0, 5, 10]

    def test_start_snaps_down_to_grid(self):
        segments = segment_windows(linear_tracklet(range(7, 21)), window_len=10)
        assert segments.start[0] == 5

    def test_interior_interpolation_midpoint(self):
        frames = [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]
        t = linear_tracklet(frames)
        boxes = box_dict(segment_windows(t, window_len=10), 0)
        assert boxes[5].x == pytest.approx((4.0 + 6.0) / 2.0)
        assert boxes[5].y == pytest.approx((8.0 + 12.0) / 2.0)
        assert 5 in boxes and 5 not in frames

    def test_short_segment_discarded(self):
        assert len(segment_windows(linear_tracklet(range(4)), window_len=10)) == 0

    def test_boundary_extrapolation_constant_velocity(self):
        boxes = box_dict(segment_windows(linear_tracklet(range(3, 11)), window_len=10), 0)
        # Linear motion x = f extends exactly; at most 2 frames are added.
        assert 0 not in boxes
        assert boxes[1].x == pytest.approx(1.0)
        assert boxes[2].x == pytest.approx(2.0)

    def test_extrapolation_scales_by_observation_gap(self):
        # Nearest two observations 2 frames apart: velocity is halved.
        t = Tracklet2D(camera=0, track_id=0, frames=np.array([2, 4, 5, 6, 7]),
                       boxes=np.array([(x, 0.0, 10.0, 10.0) for x in (2.0, 4.0, 5.0, 6.0,
                                                                       7.0)]))
        assert box_dict(segment_windows(t, window_len=10), 0)[1].x == pytest.approx(1.0)

    def test_frames_stay_inside_window(self):
        frames = range(40)
        segments = segment_windows(linear_tracklet(frames), window_len=10)
        for k, start in enumerate(segments.start.tolist()):
            assert segments.boxes[k].shape == (11, 4)
            assert all(start <= f <= start + 10 for f in box_dict(segments, k))
            assert len(box_dict(segments, k).keys() & set(frames)) >= 5

    def test_adjacent_windows_overlap_half(self):
        segments = segment_windows(linear_tracklet(range(16)), window_len=10)
        overlap = set(box_dict(segments, 0)) & set(box_dict(segments, 1))
        assert len(overlap) == 6  # inclusive window endpoints share 6 frames

    def test_rejects_odd_window(self):
        with pytest.raises(ValueError):
            segment_windows(linear_tracklet(range(20)), window_len=9)


def stream_rows(detections):
    return list(zip(detections.frame.tolist(), detections.camera.tolist(),
                    map(tuple, detections.boxes.tolist())))


class TestDetectionIO:
    def test_round_trip(self, tmp_path):
        stream = [det(f, 1.0 + f, 2.0, camera=f % 2) for f in range(6)]
        path = tmp_path / "detections.jsonl"
        save_detections(Detections.from_rows(stream), path)
        loaded = load_detections(path)
        assert list(loaded) == stream
        assert loaded.frame.dtype == loaded.camera.dtype == np.int64
        assert loaded.boxes.dtype == np.float64 and loaded.boxes.shape == (6, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2**63 - 1), st.integers(-2**63, 2**63 - 1),
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 0.1])),
                 min_size=4, max_size=4)), max_size=20))
    def test_lines_are_the_json_of_each_record(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("io") / "detections.jsonl"
        save_detections(columns((f, c, *box) for f, c, box in rows), path)
        oracle = path.with_name("oracle.jsonl")
        write_jsonl(oracle, ({"frame": f, "camera": c, "x": x, "y": y, "w": w, "h": h}
                             for f, c, (x, y, w, h) in rows))
        assert path.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_box_that_is_not_finite_raises_naming_its_row(self, tmp_path, bad):
        detections = columns([(0, 0, 1.0, 2.0, 3.0, 4.0), (1, 0, 1.0, 2.0, bad, 4.0),
                              (2, 0, bad, 2.0, 3.0, 4.0)])
        with pytest.raises(ValueError, match="detection row 1 has a box that is not finite"):
            save_detections(detections, tmp_path / "detections.jsonl")

    def test_bad_record(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('{"frame": 0, "camera": 0, "x": 1.0}\n')
        with pytest.raises(ValueError, match="bad detection record"):
            load_detections(path)

    def test_confidence_key_is_ignored(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('{"frame": 3, "camera": 1, "x": 1.0, "y": 2.0, '
                        '"w": 3.0, "h": 4.0, "confidence": 0.25}\n')
        assert list(load_detections(path)) == [det(3, 1.0, 2.0, 3.0, 4.0, camera=1)]
        save_detections(load_detections(path), path)
        assert "confidence" not in path.read_text()

    def test_leading_whitespace_and_crlf_are_accepted(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_bytes(b'  {"frame": 3, "camera": 1, "x": 1.0, "y": 2.0, "w": 3.0, '
                         b'"h": 4.0}\r\n\r\n\t{"frame": 4, "camera": 1, "x": 1, "y": 2.5, '
                         b'"w": 3.0, "h": 4.0} \r\n')
        assert stream_rows(load_detections(path)) == [(3, 1, (1.0, 2.0, 3.0, 4.0)),
                                                      (4, 1, (1.0, 2.5, 3.0, 4.0))]
