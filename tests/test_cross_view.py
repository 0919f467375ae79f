import math
import random

import numpy as np
import pytest

from mvtrack.cross_view import (_box_pair_distances, cluster_windows,
                                pair_distance_matrices)
from mvtrack.geometry import CameraRig, project
from mvtrack.simulate import make_rig
from mvtrack.sv_track import Bbox, Segments

from conftest import box_dict, intrinsics, look_at_camera, window_segment


@pytest.fixture(scope="module")
def rig():
    return CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))


def project_box(cam, X, w=40.0, h=100.0):
    x, y = project(cam, [X])[0].tolist()
    return Bbox(x, y, w, h)


def segment(camera, track_id, boxes, start=0):
    return window_segment(camera, boxes, track_id=track_id, start=start)


def box_distance(a, b, cam_a, cam_b, rig):
    return _box_pair_distances(np.array([(a.x, a.y, a.w, a.h)]),
                               np.array([(b.x, b.y, b.w, b.h)]), cam_a, cam_b, rig)[0]


def segment_distance(a, b, rig):
    return pair_distance_matrices(Segments.concat([a, b]), rig)[0][0, 1]


def camera(seg) -> int:
    """The camera of a one-row table."""
    return int(seg.camera[0])


def trajectory(t, offset=(0.0, 0.0)):
    return np.array([0.3 * math.sin(t / 3.0) + offset[0],
                     0.3 * math.cos(t / 4.0) + offset[1],
                     1.2 + 0.05 * t])


def consistent_segments(rig, cameras, frames, offset=(0.0, 0.0), track_id=0):
    segs = []
    for cam_id in cameras:
        boxes = {f: project_box(rig[cam_id], trajectory(f, offset))
                 for f in frames}
        segs.append(segment(cam_id, track_id, boxes))
    return segs


class TestBboxPairDistance:
    def test_symmetric(self, rig):
        a = project_box(rig[0], trajectory(0))
        b = project_box(rig[1], trajectory(0))
        d_ab = box_distance(a, b, 0, 1, rig)
        d_ba = box_distance(b, a, 1, 0, rig)
        assert abs(d_ab - d_ba) <= 1e-12

    def test_consistent_pair_is_zero(self, rig):
        a = project_box(rig[0], trajectory(2))
        b = project_box(rig[1], trajectory(2))
        assert box_distance(a, b, 0, 1, rig) == pytest.approx(0.0, abs=1e-6)

    def test_resolution_invariance(self):
        # Doubling intrinsics, pixels and box sizes leaves the normalized
        # distance unchanged.
        X = np.array([0.3, -0.2, 1.5])
        Y = np.array([0.1, 0.4, 1.0])
        rigs = []
        for scale in (1.0, 2.0):
            K = intrinsics(focal=1000.0 * scale,
                           principal=(960.0 * scale, 540.0 * scale))
            cams = [look_at_camera(0, (6.0, 0.0, 2.0), (0, 0, 1)),
                    look_at_camera(1, (0.0, 6.0, 2.0), (0, 0, 1))]
            cams = [type(c)(id=c.id, K=K, R=c.R, t=c.t) for c in cams]
            rigs.append(CameraRig(cams))
        dists = []
        for scale, r in zip((1.0, 2.0), rigs):
            a = project_box(r[0], X, w=40.0 * scale, h=100.0 * scale)
            b = project_box(r[1], Y, w=40.0 * scale, h=100.0 * scale)
            dists.append(box_distance(a, b, 0, 1, r))
        assert dists[0] == pytest.approx(dists[1], abs=1e-9)


class TestTrackletPairDistance:
    def test_same_camera_overlap_is_infinite(self, rig):
        a, = consistent_segments(rig, [0], range(5))
        b, = consistent_segments(rig, [0], range(3, 8), offset=(1.0, 0.0),
                                 track_id=1)
        assert segment_distance(a, b, rig) == math.inf

    def test_disjoint_frames_is_empty(self, rig):
        a, = consistent_segments(rig, [0], range(0, 4))
        b, = consistent_segments(rig, [1], range(6, 10))
        assert math.isnan(segment_distance(a, b, rig))

    def test_same_camera_disjoint_is_empty(self, rig):
        # No shared frames carries no evidence even within one camera.
        a, = consistent_segments(rig, [0], range(0, 4))
        b, = consistent_segments(rig, [0], range(6, 10), track_id=1)
        assert math.isnan(segment_distance(a, b, rig))

    def test_consistent_cross_view_pair(self, rig):
        a, b = consistent_segments(rig, [0, 1], range(10))
        assert segment_distance(a, b, rig) == pytest.approx(0.0, abs=1e-6)


def reference_pair_distance(a, b, rig):
    """Per-frame sum of the two epipolar terms, divided by the frame count."""
    boxes_a, boxes_b = box_dict(a), box_dict(b)
    common = sorted(set(boxes_a) & set(boxes_b))
    total = 0.0
    for f in common:
        for src, tgt, F in ((boxes_b[f], boxes_a[f], rig.fundamental(camera(b), camera(a))),
                            (boxes_a[f], boxes_b[f], rig.fundamental(camera(a), camera(b)))):
            l = F @ [src.x, src.y, 1.0]
            total += abs(l[0] * tgt.x + l[1] * tgt.y + l[2]) / np.hypot(l[0], l[1]) \
                / (tgt.w + tgt.h)
    return total / len(common)


def noisy_segments(rig, rng):
    """Two people seen by all four cameras over partly overlapping frames,
    with a few pixels of noise."""
    segs = []
    for pid, offset in enumerate([(0.0, 0.0), (1.1, -0.7)]):
        for cam_id in range(4):
            lo = int(rng.integers(0, 4))
            boxes = {}
            for f in range(lo, lo + 7):
                box = project_box(rig[cam_id], trajectory(f, offset))
                dx, dy = rng.normal(0.0, 3.0, size=2)
                boxes[f] = Bbox(box.x + dx, box.y + dy, box.w, box.h)
            segs.append(segment(cam_id, pid, boxes))
    return segs


class TestPairDistanceMatrix:
    def test_matches_per_frame_reference(self, rig):
        rng = np.random.default_rng(53)
        segs = noisy_segments(rig, rng)
        D, = pair_distance_matrices(Segments.concat(segs), rig)
        for i, a in enumerate(segs):
            assert math.isnan(D[i, i])
            for j, b in enumerate(segs):
                if i == j:
                    continue
                assert D[i, j] == D[j, i]
                assert segment_distance(a, b, rig) == D[i, j]
                if camera(a) == camera(b):
                    assert D[i, j] == math.inf
                else:
                    assert abs(D[i, j] - reference_pair_distance(a, b, rig)) <= 1e-12

    def test_bbox_pair_distance_is_one_frame_reference(self, rig):
        a, b = noisy_segments(rig, np.random.default_rng(59))[:2]
        boxes_a, boxes_b = box_dict(a), box_dict(b)
        for f in set(boxes_a) & set(boxes_b):
            one = (segment(camera(a), 0, {f: boxes_a[f]}),
                   segment(camera(b), 1, {f: boxes_b[f]}))
            assert abs(box_distance(boxes_a[f], boxes_b[f], camera(a), camera(b), rig)
                       - reference_pair_distance(*one, rig)) <= 1e-12

    def test_empty_and_infinite_entries(self, rig):
        a, = consistent_segments(rig, [0], range(0, 4))
        b, = consistent_segments(rig, [1], range(6, 10))
        c, = consistent_segments(rig, [0], range(2, 8), track_id=1)
        D, = pair_distance_matrices(Segments.concat([a, b, c]), rig)
        assert math.isnan(D[0, 1]) and math.isnan(D[1, 0])
        assert D[0, 2] == math.inf
        assert abs(D[1, 2] - reference_pair_distance(b, c, rig)) <= 1e-12


def cluster_segments(segs, rig):
    """`cluster_windows` of one window's segments, one-row tables, as the
    rows of a table in the order given; each cluster as its table."""
    table = Segments.concat(segs)
    return [table.take(rows) for rows in cluster_windows(table, rig)]


class TestClusterSegments:
    def test_consistent_pair_clusters(self, rig):
        segs = consistent_segments(rig, [0, 1], range(10))
        clusters = cluster_segments(segs, rig)
        assert len(clusters) == 1
        assert set(clusters[0].camera.tolist()) == {0, 1}

    def test_distant_pair_stays_separate(self, rig):
        a, = consistent_segments(rig, [0], range(10))
        b, = consistent_segments(rig, [1], range(10), offset=(1.5, 1.0))
        clusters = cluster_segments([a, b], rig)
        assert len(clusters) == 2

    def test_multi_person_partition(self, rig):
        segs = []
        for pid, offset in enumerate([(0.0, 0.0), (1.2, -0.8), (-1.0, 1.1)]):
            segs.extend(consistent_segments(rig, [0, 1, 2, 3], range(10),
                                            offset=offset, track_id=pid))
        clusters = cluster_segments(segs, rig)
        assert len(clusters) == 3
        for cluster in clusters:
            # One segment per camera at most.
            cams = cluster.camera.tolist()
            assert len(cams) == len(set(cams))
            # All members belong to one person.
            assert len(set(cluster.track_id.tolist())) == 1

    def test_permutation_robustness(self, rig):
        segs = []
        for pid, offset in enumerate([(0.0, 0.0), (1.2, -0.8)]):
            segs.extend(consistent_segments(rig, [0, 1, 2], range(10),
                                            offset=offset, track_id=pid))
        expected = {frozenset(c.keys()) for c in cluster_segments(segs, rig)}
        shuffled = list(segs)
        random.Random(3).shuffle(shuffled)
        got = {frozenset(c.keys()) for c in cluster_segments(shuffled, rig)}
        assert got == expected
