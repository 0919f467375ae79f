import dataclasses
import math

import numpy as np
import pytest

from mvtrack import cascade
from mvtrack.cascade import (BOTTOM, CENTER, PROVENANCE, TOP, Mode, Provenance, Tracklet3D,
                             TrackingSpace, attach_top_bottom_batch, classify_clusters,
                             outlier_gate, plane_candidates,
                             plane_match_and_fuse, process_windows,
                             triangulate_clusters)
from mvtrack.clustering import cluster_with_cutoff
from mvtrack.geometry import CameraRig, PlaneSpec, project, triangulate_batch
from mvtrack.simulate import make_rig
from mvtrack.sv_track import Bbox, Segments
from mvtrack.target import TargetCriteria, identify_target

from conftest import (assert_same_rows, box_dict, look_at_camera, sorted_chunk, to_frames,
                      window_segment)

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
    """A cluster as a table of its segments, one per camera."""
    segs = []
    for cam_id in cameras:
        boxes = {}
        for f, X in path.items():
            noise = noise_rng.normal(0.0, sigma, size=2) if noise_rng is not None else None
            boxes[f] = project_box(rig[cam_id], X, noise=noise)
        segs.append(segment(cam_id, boxes))
    return Segments.concat(segs)


def all_rows(cluster):
    """The one cluster of a table holding only it."""
    return [np.arange(len(cluster))]


def cameras(cluster) -> set:
    return set(cluster.camera.tolist())


class TestTrackingSpace:
    def test_track_cuboid_buffers_xy_only(self):
        assert SPACE.track == (-3.0, -3.0, 0.0, 3.0, 3.0, 4.0)

    def test_membership(self):
        # The performance cuboid is the height trigger's, the tracking
        # cuboid the outlier gate's.
        def in_perf(X):
            heights = np.array([[X[0], X[1], 9.0]])
            t3 = Tracklet3D(0, np.array([X], dtype=float), np.zeros(1, np.uint8),
                            heights, heights)
            return identify_target(t3, SPACE, TargetCriteria(h_top=1.0, h_bot=1.0, delta=1), 0)

        def in_track(X):
            kept, = outlier_gate(np.array([[X]], dtype=float), SPACE)
            return kept
        assert in_perf((0.0, 0.0, 1.0))
        assert not in_perf((2.5, 0.0, 1.0))
        assert in_track((2.5, 0.0, 1.0))
        assert not in_track((0.0, 0.0, 5.0))

    def test_rejects_degenerate_cuboid(self):
        with pytest.raises(ValueError):
            TrackingSpace(perf=(1.0, 0.0, 0.0, -1.0, 1.0, 1.0))


def on_grid(center, segs):
    """A track on the segments' window grid with one point, at frame 0."""
    points = np.full((segs.boxes.shape[1], 3), np.nan)
    points[0] = center
    return as_tracklet(points)


def triangulate_one(cluster, rig):
    points, = triangulate_clusters(cluster, all_rows(cluster), rig)
    return points


def solved_frames(points):
    """The frames at which (L+1, 3) window-grid `points` from frame 0 hold
    a point."""
    return np.flatnonzero(~np.isnan(points[:, 0])).tolist()


def as_tracklet(points, branch=Provenance.TRIANGULATED):
    """The `Tracklet3D` of (L+1, 3) window-grid `points` from frame 0."""
    return Tracklet3D(0, points, np.full(len(points), PROVENANCE.index(branch), np.uint8))


def branches(wt) -> set:
    """The provenance of a window track's frames."""
    return set(to_frames(wt.track).provenance.values())


def classify(cluster, rig, **kwargs):
    solved = (triangulate_clusters(cluster, all_rows(cluster), rig)
              if len(cameras(cluster)) >= 2
              else np.full((1, cluster.boxes.shape[1], 3), np.nan))
    verdict, = classify_clusters(cluster, all_rows(cluster), rig, triangulated=solved,
                                 **kwargs).tolist()
    return verdict


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
        points = triangulate_one(c, rig)
        assert classify_clusters(c, all_rows(c), rig,
                                 triangulated=points[None]).tolist() == [False]
        # With no solved frames there is no angle evidence at all.
        empty = np.full_like(points, np.nan)
        assert classify_clusters(c, all_rows(c), rig,
                                 triangulated=empty[None]).tolist() == [True]

    def test_explicit_opposite_pairs_override(self, rig):
        c = cluster_for(rig, [0, 1], person_path(range(10)))
        verdict = classify(c, rig, opposite_pairs=[frozenset({0, 1})])
        assert verdict is False


class TestTriangulateCluster:
    def test_exact_round_trip(self, rig):
        path = person_path(range(10))
        c = cluster_for(rig, [0, 1, 2, 3], path)
        points = triangulate_one(c, rig)
        assert solved_frames(points) == list(path)
        for f, X in path.items():
            assert np.linalg.norm(points[f] - X) <= 1e-6

    def test_three_views_one_px_noise(self, rig):
        rng = np.random.default_rng(31)
        path = person_path(range(100))
        c = cluster_for(rig, [0, 1, 2], path, noise_rng=rng, sigma=1.0)
        points = triangulate_one(c, rig)
        errs = [np.linalg.norm(points[f] - path[f]) for f in path]
        assert np.mean(errs) <= 0.02

    def test_two_adjacent_views_two_px_noise(self, rig):
        rng = np.random.default_rng(32)
        path = person_path(range(100))
        c = cluster_for(rig, [0, 1], path, noise_rng=rng, sigma=2.0)
        points = triangulate_one(c, rig)
        errs = [np.linalg.norm(points[f] - path[f]) for f in path]
        assert np.mean(errs) <= 0.05

    def test_top_bottom_match_attach_top_bottom(self, rig):
        # Centers only: a cluster's tops and bottoms are left to
        # attach_top_bottom_batch on the track's own frames, which solves
        # the top and bottom centers of the cluster's boxes.
        rng = np.random.default_rng(34)
        path = person_path(range(11))
        c = cluster_for(rig, [0, 1, 3], path, noise_rng=rng, sigma=1.0)
        t3 = as_tracklet(triangulate_one(c, rig))
        assert to_frames(t3).top == {} and to_frames(t3).bottom == {}
        attach_top_bottom_batch([(t3, c)], rig)
        for offset, got in ((TOP, to_frames(t3).top), (BOTTOM, to_frames(t3).bottom)):
            points, ok = direct_solve(rig, c, range(11), offset)
            assert ok.all() and sorted(got) == list(range(11))
            for f in range(11):
                assert np.array_equal(got[f], points[f])

    def test_single_view_frames_skipped(self, rig):
        path = person_path(range(10))
        segs = [segment(0, {f: project_box(rig[0], X) for f, X in path.items()}),
                segment(1, {f: project_box(rig[1], X)
                            for f, X in path.items() if f < 5})]
        points = triangulate_one(Segments.concat(segs), rig)
        assert solved_frames(points) == list(range(5))
        assert np.isnan(points[5:]).all()

    def test_nan_exactly_where_unsolvable(self, rig):
        # Frames 0-5 seen by cameras 0 and 1, frames 7-8 by camera 0 alone.
        # At frame 3 both boxes lie on the image of one world direction,
        # so the two rays are parallel and the solve is degenerate.
        path = person_path(range(9))
        boxes = [{f: project_box(rig[c], X) for f, X in path.items()} for c in (0, 1)]
        del boxes[0][6], boxes[1][6]
        for f in (7, 8):
            del boxes[1][f]
        direction = -(rig[0].center + rig[1].center)
        for c in (0, 1):
            x, y, z = rig[c].K @ rig[c].R @ direction
            boxes[c][3] = Bbox(x / z, y / z, 40.0, 100.0)
        points = triangulate_one(Segments.concat([segment(0, boxes[0]), segment(1, boxes[1])]),
                                 rig)
        assert solved_frames(points) == [0, 1, 2, 4, 5]
        assert np.isnan(points[[3, 6, 7, 8, 9, 10]]).all()


class TestOutlierGate:
    def make_track(self, points):
        return np.asarray(points, dtype=float)

    def gate(self, points):
        verdict, = outlier_gate(points[None], SPACE).tolist()
        return verdict

    def test_keeps_inlier_track(self):
        t = self.make_track([(0.0, 0.0, 1.0), (0.3, 0.0, 1.0), (0.5, 0.1, 1.2)])
        assert self.gate(t)

    def test_drops_point_outside_space(self):
        t = self.make_track([(0.0, 0.0, 1.0), (8.0, 0.0, 1.0)])
        assert not self.gate(t)

    def test_drops_fast_step(self):
        t = self.make_track([(0.0, 0.0, 1.0), (1.2, 0.0, 1.0)])
        assert not self.gate(t)

    def test_gap_steps_are_not_velocity_checked(self):
        points = np.full((11, 3), np.nan)
        points[0] = (0.0, 0.0, 1.0)
        points[5] = (1.5, 0.0, 1.0)
        assert self.gate(points)


def reference_outlier_gate(points, space, velocity_limit=cascade.VELOCITY_LIMIT_M):
    """The per-track gate: True to keep the (L+1, 3) track `points`, NaN
    where it has no point."""
    frames = np.flatnonzero(~np.isnan(points[:, 0]))
    pts = points[frames]
    x0, y0, z0, x1, y1, z1 = space.track
    if not len(pts) or not np.all((pts >= (x0, y0, z0)) & (pts <= (x1, y1, z1))):
        return False
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return not np.any((np.diff(frames) == 1) & (steps > velocity_limit))


def reference_classify(cluster, rig, theta_opp_deg=cascade.THETA_OPP_DEG,
                       opposite_pairs=None, *, triangulated):
    """The per-cluster two-view verdict, on the cluster's (L+1, 3) centers;
    the cluster is a table of its segments."""
    cams = sorted(cameras(cluster))
    if len(cams) == 1:
        return False
    if len(cams) != 2:
        return True
    if opposite_pairs and frozenset(cams) in opposite_pairs:
        return False
    common = np.logical_and.reduce(cluster.valid)
    X = triangulated[common & ~np.isnan(triangulated[:, 0])]
    if not len(X):
        return True
    d_a = X - rig[cams[0]].center
    d_b = X - rig[cams[1]].center
    cosang = np.clip(np.einsum("ij,ij->i", d_a, d_b)
                     / (np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)),
                     -1.0, 1.0)
    return not float(np.median(np.degrees(np.arccos(cosang)))) > theta_opp_deg


def used_angles(cluster, rig, points):
    """The per-frame ray angles, in degrees, the verdict of a two-camera
    cluster takes the median of."""
    a, b = sorted(cameras(cluster))
    common = np.logical_and.reduce(cluster.valid)
    X = points[common & ~np.isnan(points[:, 0])]
    d_a, d_b = X - rig[a].center, X - rig[b].center
    return np.degrees(np.arccos(np.clip(
        np.einsum("ij,ij->i", d_a, d_b)
        / (np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)), -1.0, 1.0)))


class TestBatchedGate:
    def random_stack(self, rng, K=60, span=11):
        """Random walks from inside the tracking cuboid, with gaps, rows
        with no point and rows missing only y."""
        start = rng.uniform((-2.5, -2.5, 0.5), (2.5, 2.5, 3.5), size=(K, 1, 3))
        sigma = rng.choice([0.1, 0.5], size=(K, 1, 1))
        points = start + np.cumsum(rng.normal(0.0, 1.0, size=(K, span, 3)) * sigma, axis=1)
        points[rng.random((K, span)) < 0.25] = np.nan
        points[rng.random(K) < 0.1] = np.nan
        points[rng.random((K, span)) < 0.02, 1] = np.nan
        return points

    def test_equals_per_track_gate(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            points = self.random_stack(rng)
            want = [reference_outlier_gate(row, SPACE) for row in points]
            assert outlier_gate(points, SPACE).tolist() == want
            assert 0 < sum(want) < len(want)

    def test_exact_ties_are_kept(self):
        x0, y0, z0, x1, y1, z1 = SPACE.track
        points = np.full((4, 11, 3), np.nan)
        # A step of exactly the velocity limit, then one just above it.
        points[0, :2] = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]
        points[1, :2] = [(0.0, 0.0, 1.0), (np.nextafter(1.0, 2.0), 0.0, 1.0)]
        # Points on the faces of the cuboid, and a gap the limit ignores.
        points[2, [0, 1]] = [(x0, y0, z0), (x0, y0, z0 + 1.0)]
        points[3, [0, 2]] = [(x1, y1, z1), (x1, y1 - 2.5, z1)]
        want = [True, False, True, True]
        assert [reference_outlier_gate(row, SPACE) for row in points] == want
        assert outlier_gate(points, SPACE).tolist() == want

    def test_empty_stack(self):
        assert outlier_gate(np.empty((0, 11, 3)), SPACE).tolist() == []


class TestBatchedVerdict:
    def random_clusters(self, rng, rig, count=40, span=11):
        """Clusters of one to three cameras and up to four members, with
        random gaps, and centers near the rig's middle with NaN frames: the
        clusters as tables, and their (C, span, 3) centers."""
        clusters, rows = [], []
        for k in range(count):
            cams = rng.choice(4, size=int(rng.choice([1, 2, 2, 2, 3])), replace=False)
            n = len(cams) + int(rng.integers(0, 2))
            boxes = np.full((n, span, 4), np.nan)
            boxes[rng.random((n, span)) < 0.85] = (960.0, 540.0, 40.0, 100.0)
            clusters.append(Segments(cams[np.arange(n) % len(cams)].astype(np.int64),
                                     10 * k + np.arange(n), np.zeros(n, np.int64), boxes))
            points = rng.normal(0.0, rng.choice([0.3, 1.5]), size=(span, 3)) + (0.0, 0.0, 1.0)
            points[rng.random(span) < 0.2] = np.nan
            rows.append(points)
        return clusters, np.stack(rows)

    @staticmethod
    def verdicts(clusters, rig, *args, **kwargs):
        """`classify_clusters` of the tables `clusters` as rows of one table."""
        edges = np.cumsum([0] + [len(c) for c in clusters])
        return classify_clusters(Segments.concat(clusters),
                                 [np.arange(lo, hi) for lo, hi in zip(edges, edges[1:])],
                                 rig, *args, **kwargs).tolist()

    def test_equals_per_cluster_verdict(self, rig):
        rng = np.random.default_rng(7)
        parities = set()
        for opposite_pairs in (None, [frozenset({1, 2})]):
            for _ in range(10):
                clusters, points = self.random_clusters(rng, rig)
                want = [reference_classify(c, rig, opposite_pairs=opposite_pairs,
                                           triangulated=p) for c, p in zip(clusters, points)]
                got = self.verdicts(clusters, rig, opposite_pairs=opposite_pairs,
                                    triangulated=points)
                assert got == want
                assert 0 < sum(want) < len(want)
                parities |= {len(used_angles(c, rig, p)) % 2
                             for c, p in zip(clusters, points) if len(cameras(c)) == 2}
        assert parities == {0, 1}

    def test_median_equal_to_threshold_is_sufficient(self, rig):
        # With theta_opp equal to the median, odd and even used-frame
        # counts alike, the cluster is not above it: sufficient.
        rng = np.random.default_rng(11)
        clusters, points = self.random_clusters(rng, rig)
        counts = set()
        for c, p in zip(clusters, points):
            if len(cameras(c)) != 2 or not len(angles := used_angles(c, rig, p)):
                continue
            counts.add(len(angles) % 2)
            median = float(np.median(angles))
            for theta in (median, float(np.nextafter(median, 0.0))):
                want = reference_classify(c, rig, theta, triangulated=p)
                assert want is (theta == median)
                assert self.verdicts([c], rig, theta, triangulated=p[None]) == [want]
        assert counts == {0, 1}

    def test_no_common_frame_is_sufficient(self, rig):
        # Two segments of camera 0 on disjoint frames leave no frame that
        # every member has, however opposed the rays.
        boxes = np.full((3, 11, 4), np.nan)
        boxes[0, :5] = boxes[1, 6:] = boxes[2] = (960.0, 540.0, 40.0, 100.0)
        c = Segments(np.array([0, 0, 2]), np.arange(3), np.zeros(3, np.int64), boxes)
        points = np.zeros((1, 11, 3)) + (0.0, 0.0, 1.0)
        assert reference_classify(c, rig, triangulated=points[0]) is True
        assert classify_clusters(c, all_rows(c), rig, triangulated=points).tolist() == [True]

    def test_nan_angle_is_sufficient(self, rig):
        # An opposed pair, except that at frame 4 the center sits on camera
        # 0, where the angle is 0 / 0: np.median of a NaN is NaN, and NaN is
        # not above theta_opp.
        c = cluster_for(rig, [0, 2], person_path(range(11), lateral=0.2))
        points = triangulate_clusters(c, all_rows(c), rig)
        assert classify_clusters(c, all_rows(c), rig, triangulated=points).tolist() == [False]
        points[0, 4] = rig[0].center
        with np.errstate(invalid="ignore", divide="ignore"):
            assert np.isnan(used_angles(c, rig, points[0])).sum() == 1
            assert reference_classify(c, rig, triangulated=points[0]) is True
            assert classify_clusters(c, all_rows(c), rig,
                                     triangulated=points).tolist() == [True]


class TestPlaneCandidates:
    def test_on_plane_exact_round_trip(self, rig):
        path = person_path(range(10), x=0.0)
        seg = segment(0, {f: project_box(rig[0], X) for f, X in path.items()})
        points, = plane_candidates(seg, PLANE, rig)
        assert solved_frames(points) == list(path)
        for f, X in path.items():
            assert np.linalg.norm(points[f] - X) <= 1e-9

    def test_off_plane_person_adjacent_views_disagree(self):
        cams = CameraRig([look_at_camera(0, (6.0, 0.0, 2.0), (0, 0, 1)),
                          look_at_camera(1, (3.0, 5.2, 2.0), (0, 0, 1))])
        path = person_path(range(10), x=1.0, z0=1.0)
        segs = [segment(c, {f: project_box(cams[c], X) for f, X in path.items()})
                for c in (0, 1)]
        ta, tb = plane_candidates(Segments.concat(segs), PLANE, cams)
        diffs = [np.linalg.norm(ta[f] - tb[f]) for f in range(10)]
        assert np.mean(diffs) > 0.5

    def test_on_plane_opposite_views_agree(self, rig):
        rng = np.random.default_rng(13)
        path = person_path(range(10), x=0.0)
        segs = []
        for c in (0, 2):
            boxes = {f: project_box(rig[c], X, noise=rng.normal(0, 2.0, size=2))
                     for f, X in path.items()}
            segs.append(segment(c, boxes))
        ta, tb = plane_candidates(Segments.concat(segs), PLANE, rig)
        diffs = [np.linalg.norm(ta[f] - tb[f]) for f in range(10)]
        assert np.mean(diffs) <= 0.1

    def test_camera_on_plane_yields_no_candidate(self, rig):
        # Camera 1 sits on the plane x = 0: every ray multiplier is zero.
        path = person_path(range(10), x=0.0)
        seg = segment(1, {f: project_box(rig[1], X) for f, X in path.items()})
        assert np.isnan(plane_candidates(seg, PLANE, rig)).all()


def constant_candidate(camera, value, frames=range(10)):
    points = np.full((11, 3), np.nan)
    points[list(frames)] = value
    seg = segment(camera, {f: Bbox(100.0, 100.0, 10.0, 10.0) for f in frames})
    return points, seg


def fuse(cands):
    """`plane_match_and_fuse` of (points, segment) candidates, as the rows of
    one table sorted as `collect_window_segments` sorts it; each fused
    track with the table of its members."""
    table, rows = sorted_chunk([seg for _, seg in cands])
    points = np.empty((len(table), 11, 3))
    for (p, _), (row,) in zip(cands, rows):
        points[row] = p
    return [(fused, table.take(members))
            for fused, members in plane_match_and_fuse(points, table)]


def candidate_pair_distance(a, b):
    """D[0, 1] of the distances `plane_match_and_fuse` clusters the
    candidates a and b (in key order) on."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade, "cluster_with_cutoff",
                   lambda Ds, cutoff: seen.extend(Ds) or [[] for _ in Ds])
        fuse([a, b])
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
        fused = fuse(cands)
        assert len(fused) == 1
        points, segs = fused[0]
        assert cameras(segs) == {0, 2}
        for f in range(10):
            assert np.allclose(points[f], (0.0, 0.5, 1.0))

    def test_fusion_averages(self):
        cands = [constant_candidate(0, (0.2, 0.0, 1.0)),
                 constant_candidate(2, (0.0, 0.0, 1.0))]
        (points, _), = fuse(cands)
        for f in range(10):
            assert np.allclose(points[f], (0.1, 0.0, 1.0), atol=1e-12)

    def test_single_camera_cluster_discarded(self):
        cands = [constant_candidate(0, (0.0, 0.0, 1.0))]
        assert fuse(cands) == []

    def test_far_candidates_not_fused(self):
        cands = [constant_candidate(0, (0.0, 0.0, 1.0)),
                 constant_candidate(2, (0.0, 0.9, 1.0))]
        assert fuse(cands) == []

    def test_fusion_commutative(self):
        cands = [constant_candidate(0, (0.2, 0.0, 1.0)),
                 constant_candidate(2, (0.0, 0.0, 1.0))]
        (a, _), = fuse(cands)
        (b, _), = fuse(list(reversed(cands)))
        for f in range(10):
            assert np.array_equal(a[f], b[f])

    def test_fusion_idempotent_for_identical_inputs(self):
        cands = [constant_candidate(0, (0.3, -0.1, 1.4)),
                 constant_candidate(2, (0.3, -0.1, 1.4))]
        (points, _), = fuse(cands)
        for f in range(10):
            assert np.array_equal(points[f], cands[0][0][f])

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
        segs = Segments.concat(segs).sorted()
        fused = plane_match_and_fuse(plane_candidates(segs, PLANE, rig), segs)
        assert len(fused) == 1
        points, _ = fused[0]
        errs = [np.linalg.norm(points[f] - paths["target"][f]) for f in frames]
        assert np.mean(errs) <= 0.15

    def test_candidate_without_hit_dropped_before_matching(self, rig, monkeypatch):
        # Camera 1 sits on the plane x = 0, so its candidate has no point:
        # it is left out of the distances and changes no fused track.
        path = person_path(range(11), x=0.0, lateral=0.3)
        segs = Segments.concat([segment(c, {f: project_box(rig[c], X)
                                            for f, X in path.items()}) for c in (0, 1, 2)])
        sizes = []
        monkeypatch.setattr(cascade, "cluster_with_cutoff",
                            lambda Ds, cutoff: sizes.extend(len(D) for D in Ds)
                            or cluster_with_cutoff(Ds, cutoff))
        with_miss = plane_match_and_fuse(plane_candidates(segs, PLANE, rig), segs)
        pair = segs.take([0, 2])
        without = plane_match_and_fuse(plane_candidates(pair, PLANE, rig), pair)
        assert sizes == [2, 2]
        (a, members_a), = with_miss
        (b, members_b), = without
        assert np.array_equal(a, b, equal_nan=True)
        assert_same_rows(segs.take(members_a), pair)
        assert_same_rows(pair.take(members_b), pair)


class TestPlaneMatchAcrossWindows:
    @staticmethod
    def candidate(camera, value, start, frames=range(11), track_id=0):
        """A candidate at the fixed point `value` (or NaN: no hit) at
        `frames` of the window from `start`."""
        points = np.full((11, 3), np.nan)
        points[list(frames)] = value
        seg = segment(camera, {start + f: Bbox(100.0, 100.0, 10.0, 10.0) for f in frames},
                      track_id=track_id, start=start)
        return points, seg

    def windows(self):
        here, near = (0.0, 0.5, 1.0), (0.0, 0.6, 1.0)
        return {
            # Two views of one person and a far single view.
            0: [self.candidate(2, here, 0), self.candidate(0, near, 0),
                self.candidate(1, (0.0, -1.5, 1.0), 0)],
            # Candidates without a hit only.
            5: [self.candidate(0, np.nan, 5), self.candidate(2, np.nan, 5)],
            # One camera only, at the same place as window 0's people: it
            # would fuse with them if windows were matched together.
            10: [self.candidate(0, here, 10, range(5)),
                 self.candidate(0, here, 10, range(6, 11), track_id=1)],
            # Three views of one person, one of them missing a hit.
            15: [self.candidate(3, near, 15), self.candidate(1, here, 15),
                 self.candidate(0, here, 15, range(4)), self.candidate(2, np.nan, 15)],
        }

    def test_chunk_equals_one_window_at_a_time(self):
        windows = self.windows()
        alone = [fused for cands in windows.values() for fused in fuse(cands)]
        assert [sorted(members.camera.tolist()) for _, members in alone] == \
            [[0, 2], [0, 1, 3]]
        # Interleaved across windows and reversed: the table puts each
        # window's candidates in key order, and the windows in start order.
        chunk = [c for k in range(4) for cands in windows.values() for c in cands[k:k + 1]]
        together = fuse(chunk[::-1])
        assert len(together) == len(alone)
        for (a, members_a), (b, members_b) in zip(together, alone):
            assert np.array_equal(a, b, equal_nan=True)
            assert_same_rows(members_a, members_b)

    def test_no_window_with_a_hit_gives_nothing(self):
        assert fuse(self.windows()[5]) == []
        assert fuse(self.windows()[5] + self.windows()[10]) == []


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
        segs = Segments.concat(segs)
        t3 = on_grid(center, segs)
        attach_top_bottom_batch([(t3, segs)], rig)
        assert t3.top[0][2] - t3.bottom[0][2] == pytest.approx(1.7, abs=1e-6)

    def test_single_view_frame_omitted(self, rig):
        segs = segment(0, {0: Bbox(960.0, 540.0, 40.0, 100.0)})
        t3 = on_grid(np.array([0.0, 0.0, 1.0]), segs)
        attach_top_bottom_batch([(t3, segs)], rig)
        assert to_frames(t3).top == {} and to_frames(t3).bottom == {}


def process_window(start, clusters, *args, **kwargs):
    """The tracks `process_windows` gives the window from `start` whose
    clusters are the tables `clusters`, as rows of one sorted table."""
    return process_windows(*sorted_chunk(clusters), *args, **kwargs).get(start, [])


def min_key(segments):
    return min(segments.keys())


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
        assert a[0].track.frames.tolist() == b[0].track.frames.tolist()
        for wt in (a[0], b[0]):
            assert wt.rig is rig and to_frames(wt.track).top == {}
            attach_top_bottom_batch([(wt.track, wt.segments)], wt.rig)
        got, want = to_frames(a[0].track), to_frames(b[0].track)
        for f in got.frames:
            assert np.array_equal(got.points[f], want.points[f])
            assert np.array_equal(got.top[f], want.top[f])

    def test_opposite_only_cluster_routed_to_plane_path(self, rig):
        path = person_path(range(11), x=0.0, lateral=0.3)
        clusters = [cluster_for(rig, [0, 2], path)]
        tracks = process_window(0, clusters, rig, PLANE, SPACE, mode=Mode.CASCADE)
        assert len(tracks) == 1
        provs = branches(tracks[0])
        assert provs == {Provenance.PLANE_INTERSECTED}

    def test_plane_only_mode_never_triangulates(self, rig):
        rng = np.random.default_rng(43)
        path = person_path(range(11), x=0.0)
        clusters = [cluster_for(rig, [0, 1, 2, 3], path, rng, 1.0)]
        tracks = process_window(0, clusters, rig, PLANE, SPACE,
                                mode=Mode.PLANE_ONLY)
        for wt in tracks:
            assert branches(wt) == {Provenance.PLANE_INTERSECTED}

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
        provs = [branches(wt) for wt in tracks]
        assert sorted(map(tuple, (sorted(p.value for p in s) for s in provs))) == \
            [("plane_intersected",), ("triangulated",)]

    def test_window_tracks_in_key_order(self, rig):
        # The plane-branch track holds the window's first row, (0, 0), so it
        # comes first, though the triangulated one is found first.
        target = cluster_for(rig, [0, 2], person_path(range(11), x=0.0, lateral=0.3))
        walker = cluster_for(rig, [1, 2, 3], person_path(range(11), x=0.5, lateral=0.4,
                                                         z0=1.0))
        walker = dataclasses.replace(walker, track_id=np.ones(len(walker), np.int64))
        tracks = process_window(0, [walker, target], rig, PLANE, SPACE, mode=Mode.CASCADE)
        assert [min_key(wt.segments) for wt in tracks] == [(0, 0), (1, 1)]
        assert [branches(wt) for wt in tracks] == [{Provenance.PLANE_INTERSECTED},
                                                   {Provenance.TRIANGULATED}]

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
        clusters = [dataclasses.replace(c, track_id=np.full(len(c), k))
                    for k, c in enumerate(triangulated + plane)]
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
        attach_top_bottom_batch([(wt.track, wt.segments) for wt in tracks], rig)
        assert sorted(calls[3:]) == [(0, 1, 2), (0, 2), (1, 2, 3)]
        monkeypatch.undo()

        expected = {}
        for c in clusters[:3]:
            expected[min_key(c)] = as_tracklet(triangulate_one(c, rig))
            attach_top_bottom_batch([(expected[min_key(c)], c)], rig)
        segs = Segments.concat(clusters[3:]).sorted()
        for points, rows in plane_match_and_fuse(plane_candidates(segs, PLANE, rig), segs):
            t3 = as_tracklet(points, Provenance.PLANE_INTERSECTED)
            attach_top_bottom_batch([(t3, segs.take(rows))], rig)
            expected[min_key(segs.take(rows))] = t3
        assert len(expected) == 5
        assert sorted(min_key(wt.segments) for wt in tracks) == sorted(expected)
        for wt in tracks:
            want = to_frames(expected[min_key(wt.segments)])
            got = to_frames(wt.track)
            assert got.provenance == want.provenance
            for attr in ("points", "top", "bottom"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert sorted(a) == sorted(b) and a
                for f in a:
                    assert np.max(np.abs(a[f] - b[f])) <= 1e-12
        firsts = [next(iter(to_frames(wt.track).provenance.values())) for wt in tracks]
        assert firsts.count(Provenance.PLANE_INTERSECTED) == 2


def direct_solve(rig, segs, frames, offset):
    """`triangulate_batch` of the boxes of the rows of `segs` at `frames`, one
    row per frame, outside the cascade's batching."""
    boxes = [box_dict(segs, k) for k in range(len(segs))]
    pixels = [[(b[f].x, b[f].y + offset * b[f].h) for b in boxes] for f in frames]
    return triangulate_batch([rig[c] for c in segs.camera.tolist()], np.array(pixels))


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
        return sorted_chunk([Segments.concat([
            segment(c, {f: per_cam[c][f] for f in range(s, s + 11)}, track_id=k, start=s)
            for c in per_cam]) for s in (0, 5) for k, per_cam in enumerate(boxes)])

    def test_each_distinct_row_once_per_call(self, rig, monkeypatch):
        calls = []

        def spy(cams, pixels):
            calls.append((tuple(cam.id for cam in cams), pixels))
            return triangulate_batch(cams, pixels)
        monkeypatch.setattr(cascade, "triangulate_batch", spy)
        tracks = process_windows(*self.overlapping_windows(rig), rig, PLANE, SPACE)
        assert [len(t) for t in tracks.values()] == [2, 2]
        attach_top_bottom_batch([(wt.track, wt.segments)
                                 for window in tracks.values() for wt in window], rig)
        # Centers of 16 frames, then the tops and bottoms of all four tracks'
        # 16 frames per camera set; without the dedupe each is 22 frames.
        assert [(cams, len(p)) for cams, p in calls] == \
            [((0, 1, 2), 16), ((0, 2), 16), ((0, 1, 2), 2 * 16), ((0, 2), 2 * 16)]
        for _, pixels in calls:
            rows = pixels.reshape(len(pixels), -1)
            assert len(np.unique(rows, axis=0)) == len(rows)

    def test_tracks_equal_direct_solves(self, rig):
        tracks = process_windows(*self.overlapping_windows(rig), rig, PLANE, SPACE)
        attach_top_bottom_batch([(wt.track, wt.segments)
                                 for window in tracks.values() for wt in window], rig)
        assert list(tracks) == [0, 5]
        for start, window_tracks in tracks.items():
            frames = list(range(start, start + 11))
            for wt in window_tracks:
                t3, segs = to_frames(wt.track), wt.segments
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
        c = Segments.concat([segment(0, {0: Bbox(-0.0, 500.0, 40.0, 100.0),
                                         1: Bbox(0.0, 500.0, 40.0, 100.0)}),
                             segment(1, {0: box, 1: box})])
        points = triangulate_one(c, rig)
        pixels, = calls
        assert pixels.shape == (2, 2, 2)  # centers only
        assert sorted(np.signbit(pixels[:2, 0, 0])) == [False, True]
        assert solved_frames(points) == [0, 1]
