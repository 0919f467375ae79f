"""Linear-time stitching and segmentation against the copy-merge and
rescan versions they replaced, kept here as oracles.  The copy-merge also
averaged tops and bottoms at every merge; the registry now keeps the merged
window tracks pending and folds the heights solved for them on demand
(`TrackRecord.fold_heights`), which must give the same heights.  The
oracles work on frame-keyed dicts (`conftest.FrameTrack`), the registry on
arrays."""

import copy
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack.cascade import Provenance
from mvtrack.geometry import CameraRig
from mvtrack.simulate import make_rig
from mvtrack.stitch import TrackRegistry, assign, window_distance_matrix
from mvtrack.sv_track import MAX_EXTRAPOLATION, Bbox, Tracklet2D, segment_windows

from conftest import (FrameTrack, as_window_track, assert_frame_tracks_equal, box_dict,
                      fold_pending, links_of, to_arrays, to_frames, to_record, window_segment)
from test_track_arrays import window_distance_matrix_dicts

WINDOW_LEN = 10
RIG = CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))
PROVENANCES = (Provenance.TRIANGULATED, Provenance.PLANE_INTERSECTED)


def copy_merge(prev: FrameTrack, nxt: FrameTrack) -> FrameTrack:
    """The merge that rebuilt the whole accumulated track every window."""
    merged = FrameTrack()
    for f in sorted(set(prev.points) | set(nxt.points)):
        in_prev, in_next = f in prev.points, f in nxt.points
        if in_prev and in_next:
            merged.points[f] = (prev.points[f] + nxt.points[f]) / 2.0
            merged.provenance[f] = prev.provenance[f]
        elif in_prev:
            merged.points[f] = prev.points[f]
            merged.provenance[f] = prev.provenance[f]
        else:
            merged.points[f] = nxt.points[f]
            merged.provenance[f] = nxt.provenance[f]
    for attr in ("top", "bottom"):
        a, b = getattr(prev, attr), getattr(nxt, attr)
        out = getattr(merged, attr)
        for f in sorted(set(a) | set(b)):
            if f in a and f in b:
                out[f] = (a[f] + b[f]) / 2.0
            else:
                out[f] = a.get(f, b.get(f))
    return merged


def absorb_segments(boxes2d: dict, segments) -> None:
    """The per-camera box store every merge used to update, box by box: the
    newer window's box wins."""
    for k, camera in enumerate(segments.camera.tolist()):
        boxes2d.setdefault(camera, {}).update(box_dict(segments, k))


@dataclass
class OracleWindowTrack:
    """A window track of the oracle: its frame-keyed track and the table of
    its segments, from which its registry twin's links are built."""

    track: FrameTrack
    segments: object


@dataclass
class OracleRecord:
    """A registry track of the oracle: its frame-keyed track and last frame."""

    tracklet: FrameTrack
    last_frame: int


def copy_merge_advance(reg: TrackRegistry, boxes2d: dict, window_start: int,
                       window_tracks: list[OracleWindowTrack]) -> None:
    """`TrackRegistry.advance` as it was with the copy-merge: a new identity
    took the window tracklet object itself, and each track's 2D boxes were
    copied into `boxes2d[tid]` at every merge.  The assignment is the
    module's own; scoring, the merge and the bookkeeping are the oracle's."""
    live = reg.live_tracks(window_start)
    if live:
        D = window_distance_matrix_dicts([reg.tracks[tid].tracklet for tid in live],
                                         [wt.track for wt in window_tracks])
        pairs, _, unmatched_next = assign(D, reg.unmatched_threshold)
    else:
        pairs, unmatched_next = [], list(range(len(window_tracks)))
    for i, j in pairs:
        rec = reg.tracks[live[i]]
        rec.tracklet = copy_merge(rec.tracklet, window_tracks[j].track)
        rec.last_frame = max(rec.tracklet.points)
        absorb_segments(boxes2d[live[i]], window_tracks[j].segments)
    for j, tid in zip(unmatched_next, reg.new_track_ids(len(unmatched_next))):
        wt = window_tracks[j]
        reg.tracks[tid] = OracleRecord(wt.track, max(wt.track.points))
        boxes2d[tid] = {}
        absorb_segments(boxes2d[tid], wt.segments)


def assert_tracks_equal(a, b) -> None:
    """Two window tracks' points, bit for bit, with their empty rows."""
    assert a.first == b.first and a.points.tobytes() == b.points.tobytes()
    assert a.provenance[a.valid].tolist() == b.provenance[b.valid].tolist()


def assert_registries_equal(a: TrackRegistry, b: TrackRegistry, b_boxes2d: dict) -> None:
    assert a.tracks.keys() == b.tracks.keys()
    assert a._next_id == b._next_id
    for tid in a.tracks:
        assert_frame_tracks_equal(to_frames(a.tracks[tid]), b.tracks[tid].tracklet)
        assert a.tracks[tid].last_frame == b.tracks[tid].last_frame
        # The box linked at every frame of the track, per camera.
        rec = a.tracks[tid]
        assert rec.links.shape == (len(RIG), len(rec.points), 4)
        linked = {}
        for cam, boxes in zip(RIG, rec.links):
            linked[cam.id] = {rec.first + j: Bbox(*row)
                              for j, row in enumerate(boxes.tolist()) if not np.isnan(row[0])}
        assert {camera: boxes for camera, boxes in linked.items() if boxes} == b_boxes2d[tid]


@st.composite
def window_sequences(draw):
    """Half-overlapping windows of gappy tracks of a few walkers, 2 m apart.

    A walker may skip windows (its track ends and it re-appears under a new
    id), jump by 1 m (its fragment is left unmatched), carry top/bottom on a
    subset of frames and either provenance.  Each window track is an
    `OracleWindowTrack`; `as_arrays` gives the registry's input and the
    heights its window tracks are folded with."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_people = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    offsets = [np.array([2.0 * p, 0.0, 1.0]) for p in range(n_people)]
    windows = []
    for w in range(n_windows):
        start = w * WINDOW_LEN // 2
        tracks = []
        for p in range(n_people):
            if not draw(st.booleans()) and w > 0 and draw(st.booleans()):
                continue
            span = range(start, start + WINDOW_LEN + 1)
            frames = [f for f, keep in zip(span, draw(st.lists(
                st.booleans(), min_size=len(span), max_size=len(span)))) if keep]
            if not frames:
                continue
            if draw(st.integers(0, 5)) == 0:
                offsets[p] = offsets[p] + np.array([0.0, 1.0, 0.0])
            prov = draw(st.sampled_from(PROVENANCES))
            t3 = FrameTrack()
            for f in frames:
                t3.points[f] = offsets[p] + rng.normal(scale=0.05, size=3)
                t3.provenance[f] = prov
                if rng.random() < 0.7:
                    t3.top[f] = t3.points[f] + np.array([0.0, 0.0, 0.8])
                if rng.random() < 0.7:
                    t3.bottom[f] = t3.points[f] - np.array([0.0, 0.0, 0.9])
            camera = int(rng.integers(4))
            seg = window_segment(camera, {f: tuple(rng.uniform(10.0, 50.0, size=4))
                                          for f in frames}, track_id=p, start=start)
            tracks.append(OracleWindowTrack(track=t3, segments=seg))
        rng.shuffle(tracks)
        windows.append((start, tracks))
    return windows


def as_arrays(windows):
    """The windows with each track on its window's grid and its segments as
    links, and the (top, bottom) rows of each window track, by id."""
    out, heights = [], {}
    for start, tracks in windows:
        window = []
        for wt in tracks:
            solved = to_record(wt.track, start, WINDOW_LEN + 1, links_of(wt.segments, RIG))
            window.append(as_window_track(solved, RIG))
            heights[id(window[-1])] = solved.top, solved.bottom
        out.append((start, window))
    return out, heights


class TestAdvanceAgainstCopyMerge:
    @settings(max_examples=150, deadline=None)
    @given(window_sequences())
    def test_registry_equals_copy_merge(self, oracle_windows):
        windows, heights = as_arrays(copy.deepcopy(oracle_windows))
        reg, oracle, oracle_boxes2d = TrackRegistry(), TrackRegistry(), {}
        for (start, tracks), (_, oracle_tracks) in zip(windows, oracle_windows):
            reg.advance(start, tracks)
            for rec in reg.tracks.values():
                fold_pending(rec, heights)
            copy_merge_advance(oracle, oracle_boxes2d, start, oracle_tracks)
            assert_registries_equal(reg, oracle, oracle_boxes2d)

    @settings(max_examples=60, deadline=None)
    @given(window_sequences())
    def test_window_tracks_are_not_mutated(self, windows):
        windows, _ = as_arrays(windows)
        before = copy.deepcopy(windows)
        reg = TrackRegistry()
        for start, tracks in windows:
            reg.advance(start, tracks)
        for (_, tracks), (_, kept) in zip(windows, before):
            for wt, wt0 in zip(tracks, kept):
                assert_tracks_equal(wt, wt0)
                assert wt.links.tobytes() == wt0.links.tobytes()


class TestInPlaceMerge:
    def test_merges_into_prev_and_returns_it(self):
        prev = to_record(FrameTrack(points={0: np.zeros(3), 1: np.ones(3)},
                                    provenance={0: Provenance.TRIANGULATED,
                                                1: Provenance.PLANE_INTERSECTED},
                                    top={1: np.ones(3)}))
        solved = to_record(FrameTrack(points={1: 3 * np.ones(3), 2: np.full(3, 5.0)},
                                      provenance={1: Provenance.TRIANGULATED,
                                                  2: Provenance.TRIANGULATED},
                                      top={1: 3 * np.ones(3), 2: np.ones(3)}))
        nxt = as_window_track(solved, RIG)
        prev.merge(0, nxt)
        assert len(prev.pending) == 1 and prev.pending[0] is nxt
        merged = to_frames(prev)
        assert merged.frames == [0, 1, 2]
        assert np.array_equal(merged.points[1], 2 * np.ones(3))
        assert merged.provenance[1] is Provenance.PLANE_INTERSECTED
        # Heights are folded in later, for the pending window track.
        assert merged.top.keys() == {1}
        fold_pending(prev, {id(nxt): (solved.top, solved.bottom)})
        assert prev.pending == []
        folded = to_frames(prev)
        assert np.array_equal(folded.top[1], 2 * np.ones(3))
        assert np.array_equal(folded.top[2], np.ones(3))
        assert to_frames(nxt).frames == [1, 2] and \
            np.array_equal(to_frames(nxt).points[1], 3 * np.ones(3))


class TestWindowDistance:
    def test_equals_per_frame_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            prev = FrameTrack(points={
                f: rng.normal(size=3) for f in range(20) if rng.random() < 0.7})
            nxt = FrameTrack(points={
                f: rng.normal(size=3) for f in range(10, 30) if rng.random() < 0.7})
            common = sorted(set(prev.points) & set(nxt.points))
            got = window_distance_matrix([to_arrays(prev)], [to_arrays(nxt)])[0, 0]
            if not common:
                assert np.isnan(got)
                continue
            want = np.mean([np.linalg.norm(prev.points[f] - nxt.points[f])
                            for f in common])
            # Row norms sum the squares in another order: a few ulp apart.
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def pairwise_window_distance(prev: FrameTrack, nxt: FrameTrack) -> float:
    """The one-pair distance as it was: one `np.mean` over the shared frames."""
    common = sorted(f for f in nxt.points if f in prev.points)
    if not common:
        return np.nan
    diff = np.array([prev.points[f] for f in common]) - \
        np.array([nxt.points[f] for f in common])
    return float(np.mean(np.linalg.norm(diff, axis=1)))


@st.composite
def live_and_window_tracks(draw):
    """Gappy live tracks (some ending before the window, some reaching
    back far) and gappy window tracks of one window, 0 or more of each;
    and the window's first frame and length."""
    window_len = draw(st.sampled_from([10, 20]))
    start = draw(st.integers(0, 3)) * window_len // 2 + 40
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def track(lo, hi):
        frames = [f for f in range(lo, hi + 1) if draw(st.integers(0, 4))]
        return FrameTrack(points={
            f: rng.normal(scale=float(10.0 ** rng.integers(-2, 2)), size=3)
            for f in frames})

    prev = [track(draw(st.integers(0, start)), draw(st.integers(0, start + window_len)))
            for _ in range(draw(st.integers(0, 5)))]
    nxt = [track(start + draw(st.integers(0, 3)), start + window_len)
           for _ in range(draw(st.integers(0, 5)))]
    return prev, nxt, start, window_len + 1


class TestWindowDistanceMatrixAgainstPairwise:
    @settings(max_examples=300, deadline=None)
    @given(live_and_window_tracks())
    def test_equals_pairwise_mean(self, tracks):
        prev, nxt, start, span = tracks
        want = np.array([[pairwise_window_distance(p, n) for n in nxt] for p in prev]
                        ).reshape(len(prev), len(nxt))
        prev_arrays = [to_arrays(p) for p in prev]
        nxt_arrays = [to_arrays(n, start, span) for n in nxt]
        got = window_distance_matrix(prev_arrays, nxt_arrays)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        for p, pa in list(zip(prev, prev_arrays))[:2]:
            for n, na in list(zip(nxt, nxt_arrays))[:2]:
                assert np.array_equal(window_distance_matrix([pa], [na])[0, 0],
                                      pairwise_window_distance(p, n), equal_nan=True)

    def test_long_overlap_keeps_pairwise_summation(self):
        # 21 shared frames: np.mean sums them pairwise, not left to right.
        rng = np.random.default_rng(3)
        prev = [FrameTrack(points={f: rng.normal(size=3) for f in range(40)})]
        nxt = [FrameTrack(points={f: rng.normal(size=3) for f in range(19, 40)})
               for _ in range(3)]
        want = [[pairwise_window_distance(prev[0], n) for n in nxt]]
        assert np.array_equal(window_distance_matrix([to_arrays(p) for p in prev],
                                                     [to_arrays(n) for n in nxt]), want)


def _lerp_box(a: Bbox, b: Bbox, u: float) -> Bbox:
    return Bbox(a.x + (b.x - a.x) * u, a.y + (b.y - a.y) * u,
                a.w + (b.w - a.w) * u, a.h + (b.h - a.h) * u)


def _extrapolate(anchor: Bbox, prev: Bbox | None, gap: int, steps: int) -> Bbox:
    if prev is None:
        return anchor
    u = steps / gap
    w = max(anchor.w + (anchor.w - prev.w) * u, 1e-6)
    h = max(anchor.h + (anchor.h - prev.h) * u, 1e-6)
    return Bbox(anchor.x + (anchor.x - prev.x) * u,
                anchor.y + (anchor.y - prev.y) * u, w, h)


def rescan_segment_windows(boxes: dict, window_len: int,
                           min_observed: int) -> list[tuple[int, dict]]:
    """`segment_windows` as it was, on a {frame: Bbox} tracklet, scanning
    every box for every window and building each box as a `Bbox` in
    Python; (start, {frame: Bbox}) per segment."""
    step = window_len // 2
    t0, tn = min(boxes), max(boxes)
    start = (t0 // step) * step
    segments = []
    while True:
        observed = sorted(f for f in boxes if start <= f <= start + window_len)
        if len(observed) >= min_observed:
            out = {f: boxes[f] for f in observed}
            for lo, hi in zip(observed, observed[1:]):
                for f in range(lo + 1, hi):
                    out[f] = _lerp_box(boxes[lo], boxes[hi], (f - lo) / (hi - lo))
            first, last = observed[0], observed[-1]
            if len(observed) > 1:
                prev_lo, gap_lo = boxes[observed[1]], observed[1] - first
                prev_hi, gap_hi = boxes[observed[-2]], last - observed[-2]
            else:
                prev_lo = prev_hi = None
                gap_lo = gap_hi = 1
            for f in range(max(start, first - MAX_EXTRAPOLATION), first):
                out[f] = _extrapolate(boxes[first], prev_lo, gap_lo, first - f)
            for f in range(last + 1, min(start + window_len, last + MAX_EXTRAPOLATION) + 1):
                out[f] = _extrapolate(boxes[last], prev_hi, gap_hi, f - last)
            segments.append((start, out))
        if start + window_len >= tn:
            break
        start += step
    return segments


def bits(a: np.ndarray) -> list:
    return a.view(np.int64).tolist()


class TestSegmentWindowsAgainstRescan:
    @settings(max_examples=300, deadline=None)
    @given(frames=st.sets(st.integers(0, 120), min_size=1, max_size=80),
           window_len=st.sampled_from([2, 4, 10, 20]),
           min_observed=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1),
           tiny=st.booleans())
    def test_equals_rescan(self, frames, window_len, min_observed, seed, tiny):
        # Bit for bit, on signed values and, with `tiny`, on sides near the
        # 1e-6 floor of extrapolation.
        rng = np.random.default_rng(seed)
        boxes = {}
        for f in sorted(frames, key=lambda _: rng.random()):
            x, y = rng.uniform(-1000.0, 1000.0, size=2)
            w, h = rng.uniform(5.0, 80.0, size=2) * (1e-6 if tiny else 1.0)
            boxes[f] = Bbox(x, y, w, h)
        order = sorted(boxes)
        t = Tracklet2D(camera=2, track_id=7, frames=np.array(order, dtype=np.int64),
                       boxes=np.array([(boxes[f].x, boxes[f].y, boxes[f].w, boxes[f].h)
                                       for f in order]))
        got = segment_windows(t, window_len, min_observed)
        want = rescan_segment_windows(boxes, window_len, min_observed)
        assert list(zip(got.camera.tolist(), got.track_id.tolist(), got.start.tolist())) == \
            [(2, 7, start) for start, _ in want]
        for boxes, (start, out) in zip(got.boxes, want):
            assert bits(boxes) == bits(window_segment(2, out, start=start,
                                                      span=window_len + 1).boxes[0])
