"""The array forms of a 3D track's operations against the frame-keyed
dict bodies they replaced, kept here as oracles: window scoring, merging,
height folding, the height trigger, gap filling, smoothing and the target
timeline.  Each is checked bit for bit on random tracks with empty rows."""

import numpy as np
import pytest

from mvtrack.cascade import PROVENANCE, Provenance, TrackingSpace
from mvtrack.geometry import CameraRig
from mvtrack.simulate import make_rig
from mvtrack.stitch import TrackRegistry, window_distance_matrix
from mvtrack import target
from mvtrack.target import (TargetCriteria, TargetMaintainer, identify_target,
                            smooth_track)

from conftest import (FrameTrack, as_record, as_window_track, assert_frame_tracks_equal,
                      fold_pending, to_arrays, to_frames, to_record)

SPACE = TrackingSpace(perf=(-2.0, -2.0, 0.0, 2.0, 2.0, 4.0), beta=1.0)
RIG = CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))
BRANCHES = (Provenance.TRIANGULATED, Provenance.PLANE_INTERSECTED)


def _frame_stack(tracks, frames):
    got = [t.points.get(f) for t in tracks for f in frames]
    has = np.array([p is not None for p in got], dtype=bool
                   ).reshape(len(tracks), len(frames))
    pts = np.zeros(has.shape + (3,))
    present = [p for p in got if p is not None]
    if present:
        pts[has] = np.concatenate(present).reshape(-1, 3)
    return pts, has


def window_distance_matrix_dicts(prev, nxt):
    """`stitch.window_distance_matrix` on frame-keyed dicts."""
    frames = sorted({f for t in nxt for f in t.points})
    a, has_a = _frame_stack(prev, frames)
    b, has_b = _frame_stack(nxt, frames)
    dist = np.linalg.norm(a[:, None] - b[None], axis=-1)
    shared = has_a[:, None] & has_b[None]
    counts = shared.sum(axis=-1)
    D = np.full(counts.shape, np.nan)
    for k in set(counts[counts > 0].tolist()):
        sel = counts == k
        D[sel] = np.mean(dist[sel][shared[sel]].reshape(-1, k), axis=1)
    return D


def merge_dicts(prev, nxt):
    """The points and provenance of `stitch.TrackRecord.merge` on
    frame-keyed dicts."""
    for f, p in nxt.points.items():
        if f in prev.points:
            prev.points[f] = (prev.points[f] + p) / 2.0
        else:
            prev.points[f] = p
            prev.provenance[f] = nxt.provenance[f]
    return prev


def fold_heights_dicts(t, pending):
    """`stitch.TrackRecord.fold_heights` on frame-keyed dicts."""
    for wt in pending:
        for a, b in ((t.top, wt.top), (t.bottom, wt.bottom)):
            a.update({f: (a[f] + v) / 2.0 if f in a else v for f, v in b.items()})


def identify_target_dicts(t3, space, crit, current_frame):
    """`target.identify_target` on frame-keyed dicts, every frame of the
    buffer visited when it is shorter than the track."""
    x0, y0, z0, x1, y1, z1 = space.perf
    first = current_frame - crit.delta
    count = 0
    for f in (range(first, current_frame + 1) if len(t3.top) > crit.delta
              else [f for f in t3.top if first <= f <= current_frame]):
        X = t3.points.get(f)
        top = t3.top.get(f)
        bot = t3.bottom.get(f)
        if X is None or top is None or bot is None:
            continue
        if (x0 <= X[0] <= x1 and y0 <= X[1] <= y1 and z0 <= X[2] <= z1
                and top[2] > crit.h_top and bot[2] > crit.h_bot):
            count += 1
    return count > target.IDENTIFY_OCCUPANCY * crit.delta


def fill_gaps_dicts(target, frame_tid, max_gap):
    """`target.TargetMaintainer._fill_gaps` on frame-keyed dicts."""
    frames = target.frames
    for a, b in zip(frames, frames[1:]):
        gap = b - a - 1
        if gap < 1 or gap > max_gap:
            continue
        for f in range(a + 1, b):
            u = (f - a) / (b - a)
            target.points[f] = (1 - u) * target.points[a] + u * target.points[b]
            target.provenance[f] = Provenance.INTERPOLATED
            frame_tid[f] = frame_tid[b]


def smooth_track_dicts(t3, window):
    """`target.smooth_track` on frame-keyed dicts."""
    out = FrameTrack(provenance=dict(t3.provenance))
    runs = []
    for f in t3.frames:
        if runs and f == runs[-1][-1] + 1:
            runs[-1].append(f)
        else:
            runs.append([f])
    half = window // 2
    for run in runs:
        pts = np.array([t3.points[f] for f in run])
        for i, f in enumerate(run):
            k = min(half, i, len(run) - 1 - i)
            out.points[f] = pts[i - k:i + k + 1].mean(axis=0)
    return out


def timeline_dicts(tenures, tracks, max_gap, smooth_window):
    """The target timeline of `target.TargetMaintainer.finalize` on
    frame-keyed dicts: (frame, X, provenance, track id) per frame."""
    target, frame_tid, emitted_end = FrameTrack(), {}, -1
    for tenure in tenures:
        t, last_frame = tracks[tenure["id"]]
        end = tenure["end"] if tenure["end"] is not None else last_frame
        for f in t.frames:
            if f <= emitted_end or f > end:
                continue
            target.points[f] = t.points[f]
            target.provenance[f] = t.provenance[f]
            frame_tid[f] = tenure["id"]
        emitted_end = max(emitted_end, end)
    if not target.points:
        return []
    fill_gaps_dicts(target, frame_tid, max_gap)
    smoothed = smooth_track_dicts(target, smooth_window)
    return [(f, smoothed.points[f], smoothed.provenance[f], frame_tid[f])
            for f in smoothed.frames]


def random_track(rng, first, n, keep=0.7, heights=False):
    """A track on the n frames from `first` with a point at a `keep` share
    of them, at most scales from 1 cm to 10 m and some signed zeros, one
    branch, and with `heights` tops and bottoms at some of its frames."""
    t = FrameTrack()
    branch = BRANCHES[rng.integers(2)]
    for f in range(first, first + n):
        if rng.random() >= keep:
            continue
        X = rng.normal(scale=float(10.0 ** rng.integers(-2, 2)), size=3)
        X[rng.random(3) < 0.1] = -0.0
        t.points[f], t.provenance[f] = X, branch
        if heights and rng.random() < 0.8:
            t.top[f] = X + rng.normal(size=3)
        if heights and rng.random() < 0.8:
            t.bottom[f] = X + rng.normal(size=3)
    return t


def test_window_distance_matrix_equals_dicts():
    rng = np.random.default_rng(101)
    for _ in range(300):
        span = int(rng.choice([3, 11, 21]))
        start = int(rng.integers(0, 40))
        nxt = [random_track(rng, start, span, keep=rng.uniform(0.2, 1.0))
               for _ in range(rng.integers(0, 5))]
        # Live tracks from far back, some ending before the window, some
        # inside it; the last overlaps the window with its tail only.
        prev = []
        for _ in range(rng.integers(0, 5)):
            lo = int(rng.integers(0, start + span))
            prev.append(random_track(rng, lo, int(rng.integers(0, start + span + 5 - lo)),
                                     keep=rng.uniform(0.2, 1.0)))
        prev.append(random_track(rng, start - 30, 30 + min(2, span - 1)))
        got = window_distance_matrix([to_arrays(t) for t in prev],
                                     [to_arrays(t, start, span) for t in nxt])
        want = window_distance_matrix_dicts(prev, nxt)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def window_tracks(rng, start, step, span, count):
    """`count` window tracks of one identity, one per window, the windows
    `step` apart from `start`, a window sometimes skipped."""
    out = []
    while len(out) < count:
        t = random_track(rng, start, span, keep=rng.uniform(0.3, 1.0), heights=True)
        if t.points:
            out.append((start, t))
        start += step * int(rng.choice([1, 1, 1, 2, 3]))
    return out


def test_merge_assigned_equals_dicts():
    rng = np.random.default_rng(102)
    for _ in range(150):
        span = int(rng.choice([3, 11, 21]))
        windows = window_tracks(rng, int(rng.integers(0, 50)), span // 2, span,
                                int(rng.integers(1, 12)))
        rec = as_record(to_arrays(FrameTrack(), windows[0][0], 0))
        oracle = FrameTrack()
        for start, t in windows:
            wt = as_window_track(to_arrays(t, start, span), RIG)
            kept = wt.points.tobytes(), wt.provenance.tobytes()
            rec.merge(0, wt)
            assert rec.pending[-1] is wt
            merge_dicts(oracle, t)
            assert (wt.points.tobytes(), wt.provenance.tobytes()) == kept
            assert rec.first == windows[0][0]
            assert_frame_tracks_equal(to_frames(rec), oracle)


def test_merge_grows_by_doubling():
    rng = np.random.default_rng(103)
    rec = as_record(to_arrays(FrameTrack(), 0, 0))
    sizes = []
    for start in range(0, 2000, 5):
        rec.merge(0, as_window_track(
            to_arrays(random_track(rng, start, 11, keep=1.0), start, 11), RIG))
        sizes.append(len(rec.points))
        # All five per-frame arrays grow together.
        assert rec.links.shape == (4, len(rec.points), 4)
        assert len(rec.provenance) == len(rec.top) == len(rec.bottom) == sizes[-1]
    # 11, 22, 44, ..., 2816 rows: each growth at least doubles.
    assert sorted(set(sizes)) == [11 * 2**k for k in range(9)]
    assert rec.frames.tolist() == list(range(2006))


def test_fold_heights_equals_dicts():
    rng = np.random.default_rng(104)
    for _ in range(150):
        span = int(rng.choice([3, 11, 21]))
        windows = window_tracks(rng, int(rng.integers(0, 50)), span // 2, span,
                                int(rng.integers(1, 8)))
        # Each window track with the tops and bottoms of its FrameTrack, by id.
        pending, heights = [], {}
        for start, t in windows:
            solved = to_record(t, start, span)
            pending.append(as_window_track(solved, RIG))
            heights[id(pending[-1])] = solved.top, solved.bottom
        rec = as_record(to_arrays(FrameTrack(), windows[0][0], 0))
        for wt in pending:
            rec.merge(0, wt)
        oracle = to_frames(rec)
        split = int(rng.integers(0, len(pending) + 1))
        for lo, hi in ((0, split), (split, len(pending))):
            rec.pending = pending[lo:hi]
            fold_pending(rec, heights)
            assert rec.pending == []
            fold_heights_dicts(oracle, [t for _, t in windows[lo:hi]])
            assert_frame_tracks_equal(to_frames(rec), oracle)


def test_identify_target_equals_dicts(monkeypatch):
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        t = FrameTrack()
        for f in range(40, 40 + n):
            if rng.random() < 0.8:
                X = np.array([rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5),
                              rng.uniform(0.5, 2.5)])
                t.points[f], t.provenance[f] = X, Provenance.TRIANGULATED
                if rng.random() < 0.8:
                    t.top[f] = X + [0.0, 0.0, rng.uniform(0.0, 1.0)]
                if rng.random() < 0.8:
                    t.bottom[f] = X - [0.0, 0.0, rng.uniform(0.0, 1.0)]
        t3 = to_record(t, 40 - int(rng.integers(0, 3)), n + 5)
        # Buffers shorter and longer than the track.
        delta = int(rng.choice([1, 2, 5, 10, 30, n, n + 1, 2 * n + 7, 10**6]))
        crit = TargetCriteria(h_top=1.5, h_bot=0.5, delta=max(delta, 1))
        monkeypatch.setattr(target, "IDENTIFY_OCCUPANCY", float(rng.choice([0.0, 0.25, 0.5])))
        for current in range(30, 40 + n + 15, 3):
            assert identify_target(t3, SPACE, crit, current) == \
                identify_target_dicts(t, SPACE, crit, current)


def timeline_columns(t, frame_tid=None):
    """(frames, X, codes, tids) columns of a FrameTrack and {frame: track id}."""
    frames = t.frames
    return (np.array(frames, dtype=np.int64),
            np.array([t.points[f] for f in frames]).reshape(-1, 3),
            np.array([PROVENANCE.index(t.provenance[f]) for f in frames], dtype=np.uint8),
            np.array([(frame_tid or {}).get(f, 0) for f in frames], dtype=np.int64))


@pytest.mark.parametrize("max_gap", [0, 1, 3, 7])
def test_fill_gaps_equals_dicts(max_gap):
    rng = np.random.default_rng(106 + max_gap)
    maintainer = TargetMaintainer(space=SPACE, criteria=TargetCriteria(1.5, 0.5),
                                  max_gap=max_gap)
    for _ in range(100):
        # Runs apart by gaps of max_gap, max_gap + 1 and others.
        t, frame_tid, f = FrameTrack(), {}, int(rng.integers(0, 20))
        for _ in range(rng.integers(1, 8)):
            for g in range(f, f + int(rng.integers(1, 6))):
                t.points[g] = rng.normal(size=3)
                t.provenance[g] = BRANCHES[rng.integers(2)]
                frame_tid[g] = int(rng.integers(3))
            f = g + 1 + int(rng.choice([max_gap, max_gap + 1, 1, 2, 12]))
        frames, X, codes, tids = maintainer._fill_gaps(*timeline_columns(t, frame_tid))
        fill_gaps_dicts(t, frame_tid, max_gap)
        got = FrameTrack(points=dict(zip(frames.tolist(), X)),
                         provenance={g: PROVENANCE[c] for g, c in zip(frames.tolist(), codes)})
        assert frames.tolist() == t.frames
        assert_frame_tracks_equal(got, t)
        assert dict(zip(frames.tolist(), tids.tolist())) == frame_tid


@pytest.mark.parametrize("window", [1, 3, 5, 9, 21])
def test_smooth_track_equals_dicts(window):
    rng = np.random.default_rng(107 + window)
    for _ in range(100):
        t = random_track(rng, int(rng.integers(0, 30)), int(rng.integers(0, 120)),
                         keep=rng.uniform(0.3, 1.0))
        frames, X, _, _ = timeline_columns(t)
        got = FrameTrack(points=dict(zip(frames.tolist(), smooth_track(frames, X, window))),
                         provenance=dict(t.provenance))
        assert_frame_tracks_equal(got, smooth_track_dicts(t, window))


@pytest.mark.parametrize("max_gap, smooth_window", [(0, 1), (3, 5), (7, 5), (7, 9)])
def test_timeline_equals_dicts(monkeypatch, max_gap, smooth_window):
    rng = np.random.default_rng(108 + max_gap + smooth_window)
    timelines = []
    monkeypatch.setattr(TargetMaintainer, "_emit",
                        lambda self, *arrays: timelines.append(arrays[:4]) or [])
    for _ in range(100):
        # Tracks of a few identities, some overlapping in time, with
        # tenures that end before, at or after a track's last point.
        reg, tracks, tenures = TrackRegistry(), {}, []
        start = 0
        for tid in range(rng.integers(1, 5)):
            start = max(0, start + int(rng.integers(-20, 30)))
            t = random_track(rng, start, int(rng.integers(1, 60)), keep=rng.uniform(0.4, 1.0))
            reg.tracks[tid] = to_record(t, start, 80)
            tracks[tid] = (t, reg.tracks[tid].last_frame)
            end = [None, reg.tracks[tid].last_frame - int(rng.integers(0, 10))]
            tenures.append({"id": tid, "identified_at": start, "end": end[rng.integers(2)]})
            start += int(rng.integers(0, 40))
        maintainer = TargetMaintainer(space=SPACE, criteria=TargetCriteria(1.5, 0.5),
                                      max_gap=max_gap, smooth_window=smooth_window)
        maintainer.tenures = tenures
        timelines.clear()
        maintainer.finalize(reg, RIG)
        want = timeline_dicts(tenures, tracks, max_gap, smooth_window)
        (frames, X, codes, tids), = timelines
        assert frames.tolist() == [f for f, _, _, _ in want]
        assert X.shape == (len(want), 3)
        assert X.tobytes() == np.array([x for _, x, _, _ in want]).tobytes()
        assert codes.tolist() == [PROVENANCE.index(p) for _, _, p, _ in want]
        assert tids.tolist() == [tid for _, _, _, tid in want]
