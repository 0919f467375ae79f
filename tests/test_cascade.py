import dataclasses
import math

import numpy as np
import pytest

from mvtrack import cascade
from mvtrack.cascade import (BOTTOM, CENTER, TOP, Mode, Provenance, Tracklet3D,
                             TrackingSpace, attach_top_bottom_batch, classify_cluster,
                             outlier_gate, plane_candidates,
                             plane_match_and_fuse, process_window,
                             triangulate_clusters)
from mvtrack.cross_view import Cluster, cluster_segments
from mvtrack.geometry import CameraRig, PlaneSpec, project, triangulate_batch
from mvtrack.simulate import make_rig
from mvtrack.sv_track import Bbox

from conftest import box_dict, look_at_camera, window_segment

PLANE = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
SPACE = TrackingSpace(perf=(-2.0, -2.0, 0.0, 2.0, 2.0, 4.0), beta=1.0)


@pytest.fixture(scope="module")
def rig():
    return CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))


def project_box(cam, X, w=40.0, h=100.0, noise=None):
    x, y = project(cam, [X])[0].tolist()
    if noise is None:
        return Bbox(x, y, w, h)
    return Bbox(x + noise[0], y + noise[1], w, h)


def segment(camera, boxes, track_id=0, start=0):
    return window_segment(camera, boxes, track_id=track_id, start=start)


def person_path(frames, lateral=0.5, z0=1.2, x=0.0):
    return {f: np.array([x, lateral * math.sin(f / 4.0), z0 + 0.03 * f])
            for f in frames}


def cluster_for(rig, cameras, path, noise_rng=None, sigma=0.0):
    segs = []
    for cam_id in cameras:
        boxes = {}
        for f, X in path.items():
            noise = noise_rng.normal(0.0, sigma, size=2) if noise_rng is not None else None
            boxes[f] = project_box(rig[cam_id], X, noise=noise)
        segs.append(segment(cam_id, boxes))
    return Cluster(members=tuple(segs))


class TestTrackingSpace:
    def test_track_cuboid_buffers_xy_only(self):
        assert SPACE.track == (-3.0, -3.0, 0.0, 3.0, 3.0, 4.0)

    def test_membership(self):
        assert SPACE.in_perf((0.0, 0.0, 1.0))
        assert not SPACE.in_perf((2.5, 0.0, 1.0))
        assert TrackingSpace._contains(SPACE.track, (2.5, 0.0, 1.0))
        assert not TrackingSpace._contains(SPACE.track, (0.0, 0.0, 5.0))

    def test_rejects_degenerate_cuboid(self):
        with pytest.raises(ValueError):
            TrackingSpace(perf=(1.0, 0.0, 0.0, -1.0, 1.0, 1.0))


def triangulate_one(cluster, rig):
    t3, = triangulate_clusters([cluster], rig)
    return t3


def classify(cluster, rig, **kwargs):
    solved = triangulate_one(cluster, rig) if len(cluster.cameras) >= 2 else None
    return classify_cluster(cluster, rig, triangulated=solved, **kwargs)


class TestClassifyCluster:
    def test_three_views_sufficient(self, rig):
        c = cluster_for(rig, [0, 1, 2], person_path(range(10)))
        assert classify(c, rig) is True

    def test_single_view_insufficient(self, rig):
        c = cluster_for(rig, [0], person_path(range(10)))
        assert classify(c, rig) is False

    def test_opposite_pair_insufficient(self, rig):
        # Cameras 0 and 2 face each other across the rig; rays to a point
        # near the center are close to antiparallel.
        c = cluster_for(rig, [0, 2], person_path(range(10), lateral=0.2))
        assert classify(c, rig) is False

    def test_adjacent_pair_sufficient(self, rig):
        c = cluster_for(rig, [0, 1], person_path(range(10)))
        assert classify(c, rig) is True

    def test_reuses_given_triangulation(self, rig):
        c = cluster_for(rig, [0, 2], person_path(range(10), lateral=0.2))
        t3 = triangulate_one(c, rig)
        assert classify_cluster(c, rig, triangulated=t3) is False
        # With no solved frames there is no angle evidence at all.
        empty = Tracklet3D()
        assert classify_cluster(c, rig, triangulated=empty) is True

    def test_explicit_opposite_pairs_override(self, rig):
        c = cluster_for(rig, [0, 1], person_path(range(10)))
        verdict = classify(c, rig, opposite_pairs=[frozenset({0, 1})])
        assert verdict is False


class TestTriangulateCluster:
    def test_exact_round_trip(self, rig):
        path = person_path(range(10))
        c = cluster_for(rig, [0, 1, 2, 3], path)
        t3 = triangulate_one(c, rig)
        for f, X in path.items():
            assert np.linalg.norm(t3.points[f] - X) <= 1e-6
            assert t3.provenance[f] is Provenance.TRIANGULATED

    def test_three_views_one_px_noise(self, rig):
        rng = np.random.default_rng(31)
        path = person_path(range(100))
        c = cluster_for(rig, [0, 1, 2], path, noise_rng=rng, sigma=1.0)
        t3 = triangulate_one(c, rig)
        errs = [np.linalg.norm(t3.points[f] - path[f]) for f in path]
        assert np.mean(errs) <= 0.02

    def test_two_adjacent_views_two_px_noise(self, rig):
        rng = np.random.default_rng(32)
        path = person_path(range(100))
        c = cluster_for(rig, [0, 1], path, noise_rng=rng, sigma=2.0)
        t3 = triangulate_one(c, rig)
        errs = [np.linalg.norm(t3.points[f] - path[f]) for f in path]
        assert np.mean(errs) <= 0.05

    def test_top_bottom_match_attach_top_bottom(self, rig):
        # Centers only: a cluster's tops and bottoms are left to
        # attach_top_bottom_batch on the track's own frames, which solves
        # the top and bottom centers of the cluster's boxes.
        rng = np.random.default_rng(34)
        path = person_path(range(11))
        c = cluster_for(rig, [0, 1, 3], path, noise_rng=rng, sigma=1.0)
        t3 = triangulate_one(c, rig)
        assert t3.top == {} and t3.bottom == {}
        attach_top_bottom_batch([(t3, list(c.members))], rig)
        for offset, got in ((TOP, t3.top), (BOTTOM, t3.bottom)):
            points, ok = direct_solve(rig, c.members, range(11), offset)
            assert ok.all() and sorted(got) == list(range(11))
            for f in range(11):
                assert np.array_equal(got[f], points[f])

    def test_single_view_frames_skipped(self, rig):
        path = person_path(range(10))
        segs = [segment(0, {f: project_box(rig[0], X) for f, X in path.items()}),
                segment(1, {f: project_box(rig[1], X)
                            for f, X in path.items() if f < 5})]
        t3 = triangulate_one(Cluster(members=tuple(segs)), rig)
        assert sorted(t3.points) == list(range(5))


class TestOutlierGate:
    def make_track(self, points):
        t3 = Tracklet3D()
        for f, X in enumerate(points):
            t3.points[f] = np.asarray(X, dtype=float)
        return t3

    def test_keeps_inlier_track(self):
        t = self.make_track([(0.0, 0.0, 1.0), (0.3, 0.0, 1.0), (0.5, 0.1, 1.2)])
        assert outlier_gate(t, SPACE)

    def test_drops_point_outside_space(self):
        t = self.make_track([(0.0, 0.0, 1.0), (8.0, 0.0, 1.0)])
        assert not outlier_gate(t, SPACE)

    def test_drops_fast_step(self):
        t = self.make_track([(0.0, 0.0, 1.0), (1.2, 0.0, 1.0)])
        assert not outlier_gate(t, SPACE)

    def test_gap_steps_are_not_velocity_checked(self):
        t3 = Tracklet3D()
        t3.points[0] = np.array([0.0, 0.0, 1.0])
        t3.points[5] = np.array([1.5, 0.0, 1.0])
        assert outlier_gate(t3, SPACE)


class TestPlaneCandidates:
    def test_on_plane_exact_round_trip(self, rig):
        path = person_path(range(10), x=0.0)
        seg = segment(0, {f: project_box(rig[0], X) for f, X in path.items()})
        (t3, out_seg), = plane_candidates([[seg]], PLANE, rig)[0]
        assert out_seg is seg
        for f, X in path.items():
            assert np.linalg.norm(t3.points[f] - X) <= 1e-9
            assert t3.provenance[f] is Provenance.PLANE_INTERSECTED

    def test_off_plane_person_adjacent_views_disagree(self):
        cams = CameraRig([look_at_camera(0, (6.0, 0.0, 2.0), (0, 0, 1)),
                          look_at_camera(1, (3.0, 5.2, 2.0), (0, 0, 1))])
        path = person_path(range(10), x=1.0, z0=1.0)
        segs = [segment(c, {f: project_box(cams[c], X) for f, X in path.items()})
                for c in (0, 1)]
        (ta, _), (tb, _) = plane_candidates([segs], PLANE, cams)[0]
        diffs = [np.linalg.norm(ta.points[f] - tb.points[f]) for f in range(10)]
        assert np.mean(diffs) > 0.5

    def test_on_plane_opposite_views_agree(self, rig):
        rng = np.random.default_rng(13)
        path = person_path(range(10), x=0.0)
        segs = []
        for c in (0, 2):
            boxes = {f: project_box(rig[c], X, noise=rng.normal(0, 2.0, size=2))
                     for f, X in path.items()}
            segs.append(segment(c, boxes))
        (ta, _), (tb, _) = plane_candidates([segs], PLANE, rig)[0]
        diffs = [np.linalg.norm(ta.points[f] - tb.points[f]) for f in range(10)]
        assert np.mean(diffs) <= 0.1

    def test_camera_on_plane_yields_no_candidate(self, rig):
        # Camera 1 sits on the plane x = 0: every ray multiplier is zero.
        path = person_path(range(10), x=0.0)
        seg = segment(1, {f: project_box(rig[1], X) for f, X in path.items()})
        assert plane_candidates([[seg]], PLANE, rig) == [[]]


def constant_candidate(camera, value, frames=range(10)):
    t3 = Tracklet3D()
    for f in frames:
        t3.points[f] = np.asarray(value, dtype=float)
        t3.provenance[f] = Provenance.PLANE_INTERSECTED
    seg = segment(camera, {f: Bbox(100.0, 100.0, 10.0, 10.0) for f in frames})
    return t3, seg


def candidate_pair_distance(a, b):
    """D[0, 1] of the distances `plane_match_and_fuse` clusters the
    candidates a and b (in key order) on."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade, "cluster_with_cutoff",
                   lambda D, cutoff: seen.append(D) or [])
        plane_match_and_fuse([a, b])
    return seen[0][0, 1]


class TestCandidatePairDistance:
    def test_disjoint_frames_empty(self):
        a = constant_candidate(0, (0, 0, 1), range(0, 5))
        b = constant_candidate(1, (0, 0, 1), range(5, 10))
        assert math.isnan(candidate_pair_distance(a, b))

    def test_same_camera_infinite(self):
        a = constant_candidate(0, (0, 0, 1))
        b = constant_candidate(0, (0, 0, 1))
        assert candidate_pair_distance(a, b) == math.inf

    def test_mean_euclidean(self):
        a = constant_candidate(0, (0, 0, 1))
        b = constant_candidate(1, (0.3, 0, 1))
        assert candidate_pair_distance(a, b) == pytest.approx(0.3, abs=1e-12)


class TestPlaneMatchAndFuse:
    def test_identical_candidates_fuse_to_same(self):
        cands = [constant_candidate(0, (0.0, 0.5, 1.0)),
                 constant_candidate(2, (0.0, 0.5, 1.0))]
        fused = plane_match_and_fuse(cands)
        assert len(fused) == 1
        t3, segs = fused[0]
        assert {s.camera for s in segs} == {0, 2}
        for f in range(10):
            assert np.allclose(t3.points[f], (0.0, 0.5, 1.0))

    def test_fusion_averages(self):
        cands = [constant_candidate(0, (0.2, 0.0, 1.0)),
                 constant_candidate(2, (0.0, 0.0, 1.0))]
        (t3, _), = plane_match_and_fuse(cands)
        for f in range(10):
            assert np.allclose(t3.points[f], (0.1, 0.0, 1.0), atol=1e-12)

    def test_single_camera_cluster_discarded(self):
        cands = [constant_candidate(0, (0.0, 0.0, 1.0))]
        assert plane_match_and_fuse(cands) == []

    def test_far_candidates_not_fused(self):
        cands = [constant_candidate(0, (0.0, 0.0, 1.0)),
                 constant_candidate(2, (0.0, 0.9, 1.0))]
        assert plane_match_and_fuse(cands) == []

    def test_fusion_commutative(self):
        cands = [constant_candidate(0, (0.2, 0.0, 1.0)),
                 constant_candidate(2, (0.0, 0.0, 1.0))]
        (a, _), = plane_match_and_fuse(cands)
        (b, _), = plane_match_and_fuse(list(reversed(cands)))
        for f in range(10):
            assert np.array_equal(a.points[f], b.points[f])

    def test_fusion_idempotent_for_identical_inputs(self):
        cands = [constant_candidate(0, (0.3, -0.1, 1.4)),
                 constant_candidate(2, (0.3, -0.1, 1.4))]
        (t3, _), = plane_match_and_fuse(cands)
        for f in range(10):
            assert np.array_equal(t3.points[f], cands[0][0].points[f])

    def test_three_persons_opposite_views_only_on_plane_survives(self, rig):
        rng = np.random.default_rng(77)
        frames = range(11)
        paths = {
            "target": person_path(frames, x=0.0, lateral=0.5),
            "walk_a": {f: np.array([2.0, 0.8 * math.sin(f / 5.0), 1.0])
                       for f in frames},
            "walk_b": {f: np.array([-2.0, -0.5 * math.cos(f / 6.0), 1.0])
                       for f in frames},
        }
        segs = []
        for pid, path in enumerate(paths.values()):
            for c in (0, 2):
                boxes = {f: project_box(rig[c], X, noise=rng.normal(0, 2.0, size=2))
                         for f, X in path.items()}
                segs.append(segment(c, boxes, track_id=pid))
        fused = plane_match_and_fuse(plane_candidates([segs], PLANE, rig)[0])
        assert len(fused) == 1
        t3, _ = fused[0]
        errs = [np.linalg.norm(t3.points[f] - paths["target"][f]) for f in frames]
        assert np.mean(errs) <= 0.15


class TestAttachTopBottom:
    def test_vertical_extent_recovered(self, rig):
        # On the rig's central vertical axis the top/bottom pixels share
        # the center's image x exactly, so the round trip is exact.
        center = np.array([0.0, 0.0, 1.2])
        half = 0.85
        segs = []
        for c in range(4):
            (cx, _), (_, ty), (_, by) = project(
                rig[c], [center, center + [0, 0, half], center - [0, 0, half]]).tolist()
            box = Bbox(cx, (ty + by) / 2.0, 40.0, by - ty)
            segs.append(segment(c, {0: box}))
        t3 = Tracklet3D(points={0: center})
        attach_top_bottom_batch([(t3, segs)], rig)
        assert t3.top[0][2] - t3.bottom[0][2] == pytest.approx(1.7, abs=1e-6)

    def test_single_view_frame_omitted(self, rig):
        t3 = Tracklet3D(points={0: np.array([0.0, 0.0, 1.0])})
        segs = [segment(0, {0: Bbox(960.0, 540.0, 40.0, 100.0)})]
        attach_top_bottom_batch([(t3, segs)], rig)
        assert t3.top == {} and t3.bottom == {}


class TestProcessWindow:
    def window_clusters(self, rig, cameras, noise_rng=None, sigma=0.0):
        path = person_path(range(11))
        return [cluster_for(rig, cameras, path, noise_rng, sigma)]

    def test_cascade_equals_triangulation_when_views_plentiful(self, rig):
        rng = np.random.default_rng(41)
        path = person_path(range(11))
        clusters = [cluster_for(rig, [0, 1, 2, 3], path, rng, 1.0)]
        a = process_window(0, clusters, rig, PLANE, SPACE, mode=Mode.CASCADE)
        b = process_window(0, clusters, rig, PLANE, SPACE,
                           mode=Mode.TRIANGULATION_ONLY)
        assert len(a) == len(b) == 1
        assert a[0].tracklet.frames == b[0].tracklet.frames
        for wt in (a[0], b[0]):
            assert wt.rig is rig and wt.tracklet.top == {}
            attach_top_bottom_batch([(wt.tracklet, wt.segments)], wt.rig)
        for f in a[0].tracklet.frames:
            assert np.array_equal(a[0].tracklet.points[f], b[0].tracklet.points[f])
            assert np.array_equal(a[0].tracklet.top[f], b[0].tracklet.top[f])

    def test_opposite_only_cluster_routed_to_plane_path(self, rig):
        path = person_path(range(11), x=0.0, lateral=0.3)
        clusters = [cluster_for(rig, [0, 2], path)]
        tracks = process_window(0, clusters, rig, PLANE, SPACE, mode=Mode.CASCADE)
        assert len(tracks) == 1
        provs = set(tracks[0].tracklet.provenance.values())
        assert provs == {Provenance.PLANE_INTERSECTED}

    def test_plane_only_mode_never_triangulates(self, rig):
        rng = np.random.default_rng(43)
        path = person_path(range(11), x=0.0)
        clusters = [cluster_for(rig, [0, 1, 2, 3], path, rng, 1.0)]
        tracks = process_window(0, clusters, rig, PLANE, SPACE,
                                mode=Mode.PLANE_ONLY)
        for wt in tracks:
            assert set(wt.tracklet.provenance.values()) == \
                {Provenance.PLANE_INTERSECTED}

    def test_gate_applies_to_triangulation_branch(self, rig):
        path = {f: np.array([0.0, 6.0, 1.0]) for f in range(11)}  # outside
        clusters = [cluster_for(rig, [0, 1, 2], path)]
        assert process_window(0, clusters, rig, PLANE, SPACE,
                              mode=Mode.TRIANGULATION_ONLY) == []

    def test_every_cluster_takes_exactly_one_branch(self, rig):
        target = cluster_for(rig, [0, 2], person_path(range(11), x=0.0,
                                                      lateral=0.3))
        walker = cluster_for(rig, [0, 1, 2], person_path(range(11), x=0.5,
                                                         lateral=0.4, z0=1.0))
        tracks = process_window(0, [target, walker], rig, PLANE, SPACE,
                                mode=Mode.CASCADE)
        provs = [set(wt.tracklet.provenance.values()) for wt in tracks]
        assert sorted(map(tuple, (sorted(p.value for p in s) for s in provs))) == \
            [("plane_intersected",), ("triangulated",)]

    def test_window_batch_equals_per_cluster_solves(self, rig, monkeypatch):
        # Two clusters share the camera set (0, 1, 2) and one uses
        # (1, 2, 3): their solves are batched across clusters.  Two
        # on-plane people seen only by the opposed pair (0, 2) become two
        # plane-branch tracks.  Their heights are left to one deferred call.
        rng = np.random.default_rng(47)
        frames = range(11)
        triangulated = [
            cluster_for(rig, [0, 1, 2], person_path(frames, x=0.8, z0=1.0), rng, 1.0),
            cluster_for(rig, [0, 1, 2], person_path(frames, x=-0.8, lateral=0.3), rng, 1.0),
            cluster_for(rig, [1, 2, 3], person_path(frames, x=1.2, lateral=-0.4), rng, 1.0)]
        plane = [cluster_for(rig, [0, 2], person_path(frames, x=0.0, lateral=0.3)),
                 cluster_for(rig, [0, 2], {f: np.array([0.0, 1.0, 1.4]) for f in frames})]
        clusters = []
        for k, c in enumerate(triangulated + plane):
            clusters.append(Cluster(tuple(
                dataclasses.replace(s, track_id=k) for s in c.members)))
        calls = []

        def spy(cams, pixels):
            calls.append(tuple(cam.id for cam in cams))
            return triangulate_batch(cams, pixels)
        monkeypatch.setattr(cascade, "triangulate_batch", spy)
        tracks = process_window(0, clusters, rig, PLANE, SPACE, mode=Mode.CASCADE)
        # One center solve per camera set: (0, 2) only for the two-view
        # verdicts.  The heights of all five tracks take one more call per
        # camera set.
        assert calls == [(0, 1, 2), (1, 2, 3), (0, 2)]
        attach_top_bottom_batch([(wt.tracklet, wt.segments) for wt in tracks], rig)
        assert sorted(calls[3:]) == [(0, 1, 2), (0, 2), (1, 2, 3)]
        monkeypatch.undo()

        expected = {}
        for c in clusters[:3]:
            expected[c.members[0].key] = triangulate_one(c, rig)
            attach_top_bottom_batch([(expected[c.members[0].key], list(c.members))], rig)
        segs = sorted([s for c in clusters[3:] for s in c.members], key=lambda s: s.key)
        for t3, fused_segs in plane_match_and_fuse(plane_candidates([segs], PLANE, rig)[0]):
            attach_top_bottom_batch([(t3, fused_segs)], rig)
            expected[min(s.key for s in fused_segs)] = t3
        assert len(expected) == 5
        assert sorted(min(s.key for s in wt.segments) for wt in tracks) == sorted(expected)
        for wt in tracks:
            want = expected[min(s.key for s in wt.segments)]
            got = wt.tracklet
            assert got.provenance == want.provenance
            for attr in ("points", "top", "bottom"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert sorted(a) == sorted(b) and a
                for f in a:
                    assert np.max(np.abs(a[f] - b[f])) <= 1e-12
        branches = [next(iter(wt.tracklet.provenance.values())) for wt in tracks]
        assert branches.count(Provenance.PLANE_INTERSECTED) == 2


def direct_solve(rig, segs, frames, offset):
    """`triangulate_batch` of the boxes of `segs` at `frames`, one row per
    frame, outside the cascade's batching."""
    boxes = [box_dict(s) for s in segs]
    pixels = [[(b[f].x, b[f].y + offset * b[f].h) for b in boxes] for f in frames]
    return triangulate_batch([rig[s.camera] for s in segs], np.array(pixels))


class TestOverlapSolvedOnce:
    @staticmethod
    def overlapping_windows(rig):
        # Windows [0, 10] and [5, 15]: a walker seen by cameras 0, 1 and 2
        # and an on-plane person seen only by the opposed pair (0, 2).  The
        # segments of both windows hold the same boxes at frames 5..10.
        people = [((0, 1, 2), person_path(range(16), x=0.8, z0=1.0)),
                  ((0, 2), person_path(range(16), x=0.0, lateral=0.3))]
        boxes = [{c: {f: project_box(rig[c], X) for f, X in path.items()} for c in cams}
                 for cams, path in people]
        return [[Cluster(tuple(segment(c, {f: per_cam[c][f] for f in range(s, s + 11)},
                                       track_id=k, start=s) for c in per_cam))
                 for k, per_cam in enumerate(boxes)]
                for s in (0, 5)]

    def test_each_distinct_row_once_per_call(self, rig, monkeypatch):
        calls = []

        def spy(cams, pixels):
            calls.append((tuple(cam.id for cam in cams), pixels))
            return triangulate_batch(cams, pixels)
        monkeypatch.setattr(cascade, "triangulate_batch", spy)
        windows = self.overlapping_windows(rig)
        tracks = cascade.process_windows([0, 5], windows, rig, PLANE, SPACE)
        assert [len(t) for t in tracks] == [2, 2]
        attach_top_bottom_batch([(wt.tracklet, wt.segments)
                                 for window in tracks for wt in window], rig)
        # Centers of 16 frames, then the tops and bottoms of all four tracks'
        # 16 frames per camera set; without the dedupe each is 22 frames.
        assert [(cams, len(p)) for cams, p in calls] == \
            [((0, 1, 2), 16), ((0, 2), 16), ((0, 1, 2), 2 * 16), ((0, 2), 2 * 16)]
        for _, pixels in calls:
            rows = pixels.reshape(len(pixels), -1)
            assert len(np.unique(rows, axis=0)) == len(rows)

    def test_tracks_equal_direct_solves(self, rig):
        windows = self.overlapping_windows(rig)
        tracks = cascade.process_windows([0, 5], windows, rig, PLANE, SPACE)
        attach_top_bottom_batch([(wt.tracklet, wt.segments)
                                 for window in tracks for wt in window], rig)
        for start, window_tracks in zip((0, 5), tracks):
            frames = list(range(start, start + 11))
            for wt in window_tracks:
                t3, segs = wt.tracklet, wt.segments
                assert t3.frames == frames
                solves = [direct_solve(rig, segs, frames, off) for off in (TOP, BOTTOM)]
                if len(segs) == 3:
                    solves.append(direct_solve(rig, segs, frames, CENTER))
                for attr, (points, ok) in zip(("top", "bottom", "points"), solves):
                    assert ok.all()
                    got = getattr(t3, attr)
                    assert sorted(got) == frames
                    for i, f in enumerate(frames):
                        assert np.array_equal(got[f], points[i])

    def test_signed_zeros_stay_two_rows(self, rig, monkeypatch):
        calls = []

        def spy(cams, pixels):
            calls.append(pixels)
            return triangulate_batch(cams, pixels)
        monkeypatch.setattr(cascade, "triangulate_batch", spy)
        box = project_box(rig[1], np.array([0.0, 0.0, 1.0]))
        c = Cluster((segment(0, {0: Bbox(-0.0, 500.0, 40.0, 100.0),
                                 1: Bbox(0.0, 500.0, 40.0, 100.0)}),
                     segment(1, {0: box, 1: box})))
        t3 = triangulate_one(c, rig)
        pixels, = calls
        assert pixels.shape == (2, 2, 2)  # centers only
        assert sorted(np.signbit(pixels[:2, 0, 0])) == [False, True]
        assert sorted(t3.points) == [0, 1]
