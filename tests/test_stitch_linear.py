"""Linear-time stitching and segmentation against the copy-merge and
rescan versions they replaced, kept here as oracles."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack.cascade import Provenance, Tracklet3D, WindowTrack
from mvtrack.stitch import (TrackRecord, TrackRegistry, assign, merge_assigned,
                            window_distance, window_distance_matrix)
from mvtrack.sv_track import (MAX_EXTRAPOLATION, Bbox, Tracklet2D,
                              WindowSegment2D, _extrapolate, _lerp_box,
                              segment_windows)

WINDOW_LEN = 10
PROVENANCES = (Provenance.TRIANGULATED, Provenance.PLANE_INTERSECTED)


def copy_merge(prev: Tracklet3D, nxt: Tracklet3D) -> Tracklet3D:
    """The merge that rebuilt the whole accumulated track every window."""
    merged = Tracklet3D(track_id=prev.track_id)
    for f in sorted(set(prev.points) | set(nxt.points)):
        in_prev, in_next = f in prev.points, f in nxt.points
        if in_prev and in_next:
            merged.points[f] = (prev.points[f] + nxt.points[f]) / 2.0
            merged.provenance[f] = prev.provenance[f]
            merged.source_views[f] = prev.source_views.get(f, frozenset()) | \
                nxt.source_views.get(f, frozenset())
        elif in_prev:
            merged.points[f] = prev.points[f]
            merged.provenance[f] = prev.provenance[f]
            merged.source_views[f] = prev.source_views.get(f, frozenset())
        else:
            merged.points[f] = nxt.points[f]
            merged.provenance[f] = nxt.provenance[f]
            merged.source_views[f] = nxt.source_views.get(f, frozenset())
    for attr in ("top", "bottom"):
        a, b = getattr(prev, attr), getattr(nxt, attr)
        out = getattr(merged, attr)
        for f in sorted(set(a) | set(b)):
            if f in a and f in b:
                out[f] = (a[f] + b[f]) / 2.0
            else:
                out[f] = a.get(f, b.get(f))
    return merged


def copy_merge_advance(reg: TrackRegistry, window_start: int,
                       window_tracks: list[WindowTrack]) -> None:
    """`TrackRegistry.advance` as it was with the copy-merge: a new identity
    took the window tracklet object itself.  Scoring and assignment are the
    module's own; only the merge and the bookkeeping are the oracle's."""
    live = reg.live_tracks(window_start)
    if live:
        D = window_distance_matrix([reg.tracks[tid].tracklet for tid in live],
                                   [wt.tracklet for wt in window_tracks])
        pairs, _, unmatched_next = assign(D, reg.unmatched_threshold)
    else:
        pairs, unmatched_next = [], list(range(len(window_tracks)))
    for i, j in pairs:
        rec = reg.tracks[live[i]]
        rec.tracklet = copy_merge(rec.tracklet, window_tracks[j].tracklet)
        rec.absorb_segments(window_tracks[j].segments)
    for j, tid in zip(unmatched_next, reg.new_track_ids(len(unmatched_next))):
        wt = window_tracks[j]
        wt.tracklet.track_id = tid
        rec = TrackRecord(tracklet=wt.tracklet)
        rec.absorb_segments(wt.segments)
        reg.tracks[tid] = rec


def assert_tracklets_equal(a: Tracklet3D, b: Tracklet3D) -> None:
    assert a.track_id == b.track_id
    for attr in ("points", "top", "bottom"):
        da, db = getattr(a, attr), getattr(b, attr)
        assert da.keys() == db.keys(), attr
        for f in da:
            assert np.array_equal(da[f], db[f]), (attr, f)
    assert a.provenance == b.provenance
    assert a.source_views == b.source_views


def assert_registries_equal(a: TrackRegistry, b: TrackRegistry) -> None:
    assert a.tracks.keys() == b.tracks.keys()
    assert a._next_id == b._next_id
    for tid in a.tracks:
        assert_tracklets_equal(a.tracks[tid].tracklet, b.tracks[tid].tracklet)
        assert a.tracks[tid].boxes2d == b.tracks[tid].boxes2d


@st.composite
def window_sequences(draw):
    """Half-overlapping windows of gappy tracks of a few walkers, 2 m apart.

    A walker may skip windows (its track ends and it re-appears under a new
    id), jump by 1 m (its fragment is left unmatched), carry top/bottom on a
    subset of frames and either provenance."""
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
            t3 = Tracklet3D(track_id=-1)
            for f in frames:
                t3.points[f] = offsets[p] + rng.normal(scale=0.05, size=3)
                t3.provenance[f] = prov
                t3.source_views[f] = frozenset(
                    int(c) for c in np.flatnonzero(rng.random(4) < 0.6))
                if rng.random() < 0.7:
                    t3.top[f] = t3.points[f] + np.array([0.0, 0.0, 0.8])
                if rng.random() < 0.7:
                    t3.bottom[f] = t3.points[f] - np.array([0.0, 0.0, 0.9])
            camera = int(rng.integers(4))
            seg = WindowSegment2D(
                camera=camera, track_id=p, start=start, window_len=WINDOW_LEN,
                boxes={f: Bbox(*rng.uniform(10.0, 50.0, size=4)) for f in frames},
                observed_frames=frozenset(frames))
            tracks.append(WindowTrack(start=start, tracklet=t3, segments=[seg]))
        rng.shuffle(tracks)
        windows.append((start, tracks))
    return windows


class TestAdvanceAgainstCopyMerge:
    @settings(max_examples=150, deadline=None)
    @given(window_sequences())
    def test_registry_equals_copy_merge(self, windows):
        oracle_windows = copy.deepcopy(windows)
        reg, oracle = TrackRegistry(), TrackRegistry()
        for (start, tracks), (_, oracle_tracks) in zip(windows, oracle_windows):
            reg.advance(start, tracks)
            copy_merge_advance(oracle, start, oracle_tracks)
            assert_registries_equal(reg, oracle)

    @settings(max_examples=60, deadline=None)
    @given(window_sequences())
    def test_window_tracks_are_not_mutated(self, windows):
        before = copy.deepcopy(windows)
        reg = TrackRegistry()
        for start, tracks in windows:
            reg.advance(start, tracks)
        for (_, tracks), (_, kept) in zip(windows, before):
            for wt, wt0 in zip(tracks, kept):
                assert_tracklets_equal(wt.tracklet, wt0.tracklet)
                assert wt.segments == wt0.segments


class TestInPlaceMerge:
    def test_merges_into_prev_and_returns_it(self):
        prev = Tracklet3D(track_id=4, points={0: np.zeros(3), 1: np.ones(3)},
                          provenance={0: Provenance.TRIANGULATED,
                                      1: Provenance.PLANE_INTERSECTED},
                          source_views={0: frozenset({0}), 1: frozenset({1})},
                          top={1: np.ones(3)})
        nxt = Tracklet3D(track_id=9, points={1: 3 * np.ones(3), 2: np.full(3, 5.0)},
                         provenance={1: Provenance.TRIANGULATED,
                                     2: Provenance.TRIANGULATED},
                         source_views={1: frozenset({2}), 2: frozenset({3})},
                         top={1: 3 * np.ones(3), 2: np.ones(3)})
        assert merge_assigned(prev, nxt) is prev
        assert prev.track_id == 4 and prev.frames == [0, 1, 2]
        assert np.array_equal(prev.points[1], 2 * np.ones(3))
        assert prev.provenance[1] is Provenance.PLANE_INTERSECTED
        assert prev.source_views[1] == {1, 2}
        assert np.array_equal(prev.top[1], 2 * np.ones(3))
        assert np.array_equal(prev.top[2], np.ones(3))
        assert nxt.frames == [1, 2] and np.array_equal(nxt.points[1], 3 * np.ones(3))


class TestWindowDistance:
    def test_equals_per_frame_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            prev = Tracklet3D(track_id=0, points={
                f: rng.normal(size=3) for f in range(20) if rng.random() < 0.7})
            nxt = Tracklet3D(track_id=1, points={
                f: rng.normal(size=3) for f in range(10, 30) if rng.random() < 0.7})
            common = sorted(set(prev.points) & set(nxt.points))
            got = window_distance(prev, nxt)
            if not common:
                assert np.isnan(got)
                continue
            want = np.mean([np.linalg.norm(prev.points[f] - nxt.points[f])
                            for f in common])
            # Row norms sum the squares in another order: a few ulp apart.
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def pairwise_window_distance(prev: Tracklet3D, nxt: Tracklet3D) -> float:
    """`window_distance` as it was: one `np.mean` over the shared frames."""
    common = sorted(f for f in nxt.points if f in prev.points)
    if not common:
        return np.nan
    diff = np.array([prev.points[f] for f in common]) - \
        np.array([nxt.points[f] for f in common])
    return float(np.mean(np.linalg.norm(diff, axis=1)))


@st.composite
def live_and_window_tracks(draw):
    """Gappy live tracks (some ending before the window, some reaching
    back far) and gappy window tracks of one window, 0 or more of each."""
    window_len = draw(st.sampled_from([10, 20]))
    start = draw(st.integers(0, 3)) * window_len // 2 + 40
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def track(lo, hi):
        frames = [f for f in range(lo, hi + 1) if draw(st.integers(0, 4))]
        return Tracklet3D(track_id=-1, points={
            f: rng.normal(scale=float(10.0 ** rng.integers(-2, 2)), size=3)
            for f in frames})

    prev = [track(draw(st.integers(0, start)), draw(st.integers(0, start + window_len)))
            for _ in range(draw(st.integers(0, 5)))]
    nxt = [track(start + draw(st.integers(0, 3)), start + window_len)
           for _ in range(draw(st.integers(0, 5)))]
    return prev, nxt


class TestWindowDistanceMatrixAgainstPairwise:
    @settings(max_examples=300, deadline=None)
    @given(live_and_window_tracks())
    def test_equals_pairwise_mean(self, tracks):
        prev, nxt = tracks
        want = np.array([[pairwise_window_distance(p, n) for n in nxt] for p in prev]
                        ).reshape(len(prev), len(nxt))
        got = window_distance_matrix(prev, nxt)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        for p in prev[:2]:
            for n in nxt[:2]:
                assert np.array_equal(window_distance(p, n),
                                      pairwise_window_distance(p, n), equal_nan=True)

    def test_long_overlap_keeps_pairwise_summation(self):
        # 21 shared frames: np.mean sums them pairwise, not left to right.
        rng = np.random.default_rng(3)
        prev = [Tracklet3D(track_id=0, points={f: rng.normal(size=3) for f in range(40)})]
        nxt = [Tracklet3D(track_id=1, points={f: rng.normal(size=3)
                                              for f in range(19, 40)})
               for _ in range(3)]
        want = [[pairwise_window_distance(prev[0], n) for n in nxt]]
        assert np.array_equal(window_distance_matrix(prev, nxt), want)


def rescan_segment_windows(tracklet: Tracklet2D, window_len: int,
                           min_observed: int) -> list[WindowSegment2D]:
    """`segment_windows` as it was, scanning every box for every window."""
    step = window_len // 2
    t0, tn = min(tracklet.boxes), max(tracklet.boxes)
    start = (t0 // step) * step
    segments = []
    while True:
        observed = sorted(f for f in tracklet.boxes if start <= f <= start + window_len)
        if len(observed) >= min_observed:
            boxes = {f: tracklet.boxes[f] for f in observed}
            for lo, hi in zip(observed, observed[1:]):
                for f in range(lo + 1, hi):
                    boxes[f] = _lerp_box(tracklet.boxes[lo], tracklet.boxes[hi],
                                         (f - lo) / (hi - lo))
            first, last = observed[0], observed[-1]
            if len(observed) > 1:
                prev_lo, gap_lo = tracklet.boxes[observed[1]], observed[1] - first
                prev_hi, gap_hi = tracklet.boxes[observed[-2]], last - observed[-2]
            else:
                prev_lo = prev_hi = None
                gap_lo = gap_hi = 1
            for f in range(max(start, first - MAX_EXTRAPOLATION), first):
                boxes[f] = _extrapolate(tracklet.boxes[first], prev_lo, gap_lo, first - f)
            for f in range(last + 1, min(start + window_len, last + MAX_EXTRAPOLATION) + 1):
                boxes[f] = _extrapolate(tracklet.boxes[last], prev_hi, gap_hi, f - last)
            segments.append(WindowSegment2D(
                camera=tracklet.camera, track_id=tracklet.track_id, start=start,
                window_len=window_len, boxes=dict(sorted(boxes.items())),
                observed_frames=frozenset(observed)))
        if start + window_len >= tn:
            break
        start += step
    return segments


class TestSegmentWindowsAgainstRescan:
    @settings(max_examples=150, deadline=None)
    @given(frames=st.sets(st.integers(0, 120), min_size=1, max_size=80),
           window_len=st.sampled_from([2, 4, 10, 20]),
           min_observed=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_rescan(self, frames, window_len, min_observed, seed):
        rng = np.random.default_rng(seed)
        boxes = {}
        for f in sorted(frames, key=lambda _: rng.random()):
            x, y = rng.uniform(0.0, 1000.0, size=2)
            w, h = rng.uniform(5.0, 80.0, size=2)
            boxes[f] = Bbox(x, y, w, h)
        t = Tracklet2D(camera=2, track_id=7, boxes=boxes)
        assert segment_windows(t, window_len, min_observed) == \
            rescan_segment_windows(t, window_len, min_observed)
