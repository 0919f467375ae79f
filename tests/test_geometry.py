import json

import numpy as np
import pytest

from mvtrack.geometry import (MIN_DEPTH_M, CameraModel, CameraRig, PlaneSpec,
                              epipolar_distance_batch, fundamental_matrix,
                              gauss_newton_step, load_calibration,
                              pixel_ray_world_batch, project,
                              ray_plane_intersect_batch, save_calibration,
                              triangulate_batch)
from mvtrack.simulate import make_rig

from conftest import intrinsics, look_at_camera


def random_cameras(rng, count=4):
    aim = rng.uniform(-0.3, 0.3, size=3) + [0.0, 0.0, 1.0]
    cams = []
    for i in range(count):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(4.0, 8.0)
        center = [radius * np.cos(ang), radius * np.sin(ang),
                  rng.uniform(1.0, 3.0)]
        cams.append(look_at_camera(i, center, aim))
    return cams


class TestCameraModel:
    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraModel(id=0, K=intrinsics(), R=np.eye(3) * 1.1, t=np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="det"):
            CameraModel(id=0, K=intrinsics(), R=R, t=np.zeros(3))

    def test_rejects_bad_intrinsics(self):
        K = intrinsics()
        K[1, 1] = -5.0
        with pytest.raises(ValueError, match="focal"):
            CameraModel(id=0, K=K, R=np.eye(3), t=np.zeros(3))

    @pytest.mark.parametrize("field", ["K", "R", "t"])
    def test_rejects_non_finite_values(self, field):
        values = {"K": intrinsics(), "R": np.eye(3), "t": np.zeros(3)}
        values[field] = values[field].copy()
        values[field].flat[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CameraModel(id=0, **values)

    def test_center_is_minus_rt_t(self):
        cam = look_at_camera(0, (3.0, -4.0, 2.0), (0.0, 0.0, 1.0))
        assert np.allclose(cam.center, (3.0, -4.0, 2.0), atol=1e-12)
        assert np.allclose(cam.P, cam.K @ np.hstack([cam.R, cam.t[:, None]]))


def ray_of(cam, pixel):
    return pixel_ray_world_batch([cam], [[pixel]])[0, 0]


class TestProject:
    def test_principal_axis_point(self, cam_a):
        p = project(cam_a, [[0.0, 0.0, 5.0]])[0]
        assert p[0] == pytest.approx(960.0, abs=1e-9)
        assert p[1] == pytest.approx(540.0, abs=1e-9)

    def test_translated_camera(self, cam_b):
        p = project(cam_b, [[0.0, 0.0, 5.0]])[0]
        assert p[0] == pytest.approx(760.0, abs=1e-9)
        assert p[1] == pytest.approx(540.0, abs=1e-9)

    def test_zero_depth_is_nan(self, cam_a):
        assert np.isnan(project(cam_a, [[0.0, 0.0, 0.0]])).all()

    def test_rows_equal_per_point_product(self):
        # Points in front of the camera, on its principal plane, within
        # MIN_DEPTH_M of it and behind it.
        rng = np.random.default_rng(41)
        cam = random_cameras(rng, count=1)[0]
        X = cam.center + rng.uniform(-3.0, 3.0, size=(200, 3))
        X[:3] = [cam.center + d * cam.R[2] for d in (0.0, MIN_DEPTH_M / 2, -1.0)]
        pixels = project(cam, X)
        depth = (X - cam.center) @ cam.R[2]
        assert np.isnan(pixels[:3]).all()
        assert (depth[3:] > MIN_DEPTH_M).any() and (depth[3:] <= MIN_DEPTH_M).any()
        for x, p, d in zip(X, pixels, depth):
            if d <= MIN_DEPTH_M:
                assert np.isnan(p).all()
            else:
                h = cam.P @ np.append(x, 1.0)
                assert p[0] == h[0] / h[2] and p[1] == h[1] / h[2]


class TestFundamentalMatrix:
    def test_epipolar_constraint(self, cam_a, cam_b):
        F = fundamental_matrix(cam_a, cam_b)
        residual = np.array([760.0, 540.0, 1.0]) @ F @ [960.0, 540.0, 1.0]
        assert abs(residual) <= 1e-6

    def test_transpose_relation(self, cam_a, cam_b):
        F_ab = fundamental_matrix(cam_a, cam_b)
        F_ba = fundamental_matrix(cam_b, cam_a)
        assert np.max(np.abs(F_ba - F_ab.T)) <= 1e-9

    def test_normalization(self, cam_a, cam_b):
        F = fundamental_matrix(cam_a, cam_b)
        assert np.max(np.abs(F)) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_centers(self, cam_a):
        other = CameraModel(id=9, K=intrinsics(), R=np.eye(3), t=np.zeros(3))
        with pytest.raises(ValueError, match="share a center"):
            fundamental_matrix(cam_a, other)

    def test_random_rig_residuals(self):
        rng = np.random.default_rng(5)
        cams = random_cameras(rng)
        for _ in range(20):
            X = rng.uniform(-1.0, 1.0, size=(1, 3)) + [0.0, 0.0, 1.5]
            for i in range(len(cams)):
                for j in range(i + 1, len(cams)):
                    xi = project(cams[i], X)[0]
                    xj = project(cams[j], X)[0]
                    F = fundamental_matrix(cams[i], cams[j])
                    residual = np.array([*xj, 1.0]) @ F @ [*xi, 1.0]
                    assert abs(residual) <= 1e-6


def reference_epipolar_distance(F, source, target, scale):
    l = F @ [source[0], source[1], 1.0]
    return abs(l[0] * target[0] + l[1] * target[1] + l[2]) / np.hypot(l[0], l[1]) / scale


class TestEpipolarDistanceBatch:
    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(29)
        cams = random_cameras(rng, count=2)
        F = fundamental_matrix(cams[0], cams[1])
        source = rng.uniform(0.0, 1900.0, size=(40, 2))
        target = rng.uniform(0.0, 1900.0, size=(40, 2))
        scale = rng.uniform(50.0, 300.0, size=40)
        d = epipolar_distance_batch(F, source, target, scale)
        for k in range(40):
            assert d[k] == pytest.approx(
                reference_epipolar_distance(F, source[k], target[k], scale[k]),
                rel=1e-12, abs=1e-15)

    def test_degenerate_line_is_a_nan_row(self):
        # Forward motion with K = I: the epipole is pixel (0, 0), whose
        # line is all zero.  The other row is scored as if it were alone.
        F = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        source = [[0.0, 0.0], [5.0, 5.0]]
        target = [[1.0, 1.0], [2.0, 3.0]]
        d = epipolar_distance_batch(F, source, target, [10.0, 10.0])
        assert np.isnan(d[0])
        assert d[1] == epipolar_distance_batch(F, source[1:], target[1:], [10.0])[0]
        assert d[1] == pytest.approx(5.0 / np.sqrt(50.0) / 10.0)

    def test_split_batches_match_joint_call(self):
        # A row's distance does not depend on the rows it shares a call
        # with, also in a call of one row.
        rng = np.random.default_rng(47)
        for _ in range(40):
            cams = random_cameras(rng, count=2)
            F = fundamental_matrix(cams[0], cams[1])
            n = int(rng.integers(2, 40))
            source = rng.uniform(0.0, 1900.0, size=(n, 4))[:, :2]
            target = rng.uniform(0.0, 1900.0, size=(n, 2))
            scale = rng.uniform(50.0, 300.0, size=n)
            d = epipolar_distance_batch(F, source, target, scale)
            random_cuts = rng.choice(np.arange(1, n), replace=False,
                                     size=int(rng.integers(1, n)))
            for cuts in (range(1, n), np.sort(random_cuts)):
                parts = [epipolar_distance_batch(F, s, t, w) for s, t, w in
                         zip(*(np.split(a, cuts) for a in (source, target, scale)))]
                assert np.array_equal(np.concatenate(parts), d)

    def test_any_non_positive_scale_raises(self, cam_a, cam_b):
        F = fundamental_matrix(cam_a, cam_b)
        with pytest.raises(ValueError):
            epipolar_distance_batch(F, [[0.0, 0.0], [1.0, 1.0]],
                                    [[0.0, 0.0], [1.0, 1.0]], [10.0, 0.0])


class TestEpipolarPointDistance:
    def test_corresponding_pair_is_zero(self, cam_a, cam_b):
        F = fundamental_matrix(cam_a, cam_b)
        d = epipolar_distance_batch(F, [[960.0, 540.0]], [[760.0, 540.0]], [100.0])
        assert d[0] == pytest.approx(0.0, abs=1e-6)

    def test_perpendicular_shift(self, cam_a, cam_b):
        # For a pure x-translation pair the epipolar lines are horizontal,
        # so a vertical shift is exactly perpendicular.
        F = fundamental_matrix(cam_a, cam_b)
        d = epipolar_distance_batch(F, [[960.0, 540.0]], [[760.0, 550.0]], [100.0])
        assert d[0] == pytest.approx(0.1, abs=1e-6)

    def test_random_rig_shift(self):
        rng = np.random.default_rng(17)
        cams = random_cameras(rng, count=2)
        X = [[0.2, -0.1, 1.4]]
        src = project(cams[0], X)
        tgt = project(cams[1], X)
        F = fundamental_matrix(cams[0], cams[1])
        l = F @ [*src[0], 1.0]
        normal = np.array([l[0], l[1]]) / np.hypot(l[0], l[1])
        d = epipolar_distance_batch(F, src, tgt + 3.0 * normal, [150.0])
        assert d[0] == pytest.approx(3.0 / 150.0, abs=1e-6)

    def test_requires_positive_scale(self, cam_a, cam_b):
        F = fundamental_matrix(cam_a, cam_b)
        with pytest.raises(ValueError):
            epipolar_distance_batch(F, [[0.0, 0.0]], [[0.0, 0.0]], [0.0])


class TestPixelRayWorld:
    def test_principal_point(self, cam_a):
        assert np.allclose(ray_of(cam_a, (960.0, 540.0)),
                           (0.0, 0.0, 1.0), atol=1e-12)

    def test_offset_pixel(self, cam_a):
        v = ray_of(cam_a, (1960.0, 540.0))
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(v, expected, atol=1e-12)

    def test_rotated_camera(self):
        # Principal axis rotated to world +y.
        R = np.array([[1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0],
                      [0.0, 1.0, 0.0]])
        cam = CameraModel(id=0, K=intrinsics(), R=R, t=np.zeros(3))
        v = ray_of(cam, (960.0, 540.0))
        assert np.allclose(v, (0.0, 1.0, 0.0), atol=1e-9)


class TestPlaneSpec:
    def test_normalizes_normal(self):
        plane = PlaneSpec(n=[2.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
        assert np.allclose(plane.n, (1.0, 0.0, 0.0))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            PlaneSpec(n=[0.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])

    def test_warns_on_non_vertical_plane(self):
        with pytest.warns(UserWarning):
            PlaneSpec(n=[0.0, 0.1, 1.0], point=[0.0, 0.0, 0.0])

    def test_signed_distance(self):
        plane = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
        X = np.array([0.7, 3.0, 1.0])
        assert plane.n @ (X - plane.point) == pytest.approx(0.7)


class TestRayPlaneIntersect:
    def test_axis_aligned(self):
        cam = look_at_camera(0, (0.0, -5.0, 0.0), (0.0, 1.0, 0.0))
        plane = PlaneSpec(n=[0.0, 1.0, 0.0], point=[0.0, 0.0, 0.0])
        X, s = ray_plane_intersect_batch(cam, [[960.0, 540.0]], plane)
        assert s[0] > 0
        assert np.allclose(X[0], (0.0, 0.0, 0.0), atol=1e-9)

    def test_parallel_ray(self):
        cam = look_at_camera(0, (0.0, -5.0, 0.0), (0.0, 1.0, 0.0))
        plane = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
        X, s = ray_plane_intersect_batch(cam, [[960.0, 540.0]], plane)
        assert np.isnan(s[0]) and np.isnan(X[0]).all()

    def test_behind_camera(self):
        # Camera looking away from the plane.
        cam = look_at_camera(0, (0.0, -5.0, 0.0), (0.0, -10.0, 0.0))
        plane = PlaneSpec(n=[0.0, 1.0, 0.0], point=[0.0, 0.0, 0.0])
        X, s = ray_plane_intersect_batch(cam, [[960.0, 540.0]], plane)
        assert s[0] <= 0 and np.isnan(X[0]).all()

    def test_on_plane_round_trip(self):
        rng = np.random.default_rng(23)
        plane = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
        for _ in range(50):
            cams = random_cameras(rng, count=1)
            X = np.array([[0.0, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.5)]])
            if abs(cams[0].center[0]) < 0.5:
                continue  # camera too close to the plane, grazing ray
            back, s = ray_plane_intersect_batch(cams[0], project(cams[0], X), plane)
            assert s[0] > 0
            assert np.linalg.norm(back[0] - X[0]) <= 1e-9


class TestRayPlaneIntersectBatch:
    def test_failures_are_per_row(self):
        # Camera at x = 2 looking along +y at the plane x = 0: the left
        # pixel's ray hits it, the principal ray runs parallel to it and
        # the right pixel's ray meets it only behind the camera.
        cam = look_at_camera(0, (2.0, -5.0, 0.0), (2.0, 1.0, 0.0))
        plane = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
        pixels = [[460.0, 540.0], [960.0, 540.0], [1460.0, 540.0]]
        points, s = ray_plane_intersect_batch(cam, pixels, plane)
        assert s[0] > 0 and np.isnan(s[1]) and s[2] <= 0
        assert np.allclose(points[0], (0.0, -1.0, 0.0), atol=1e-9)
        assert np.all(np.isnan(points[1:]))
        # Each row equals the row solved on its own.
        alone = [ray_plane_intersect_batch(cam, [p], plane) for p in pixels]
        assert np.array_equal(points[0], alone[0][0][0])
        assert np.isnan(alone[1][1][0]) and alone[2][1][0] <= 0


def reference_triangulate(cams, pixels):
    """Per-frame DLT plus one Gauss-Newton step; None where degenerate."""
    rays = [ray_of(cam, p) for cam, p in zip(cams, pixels)]
    max_angle = max(np.arccos(np.clip(rays[a] @ rays[b], -1.0, 1.0))
                    for a in range(len(rays)) for b in range(a + 1, len(rays)))
    if max_angle < 1e-6:
        return None
    A = np.empty((2 * len(cams), 4))
    for k, (cam, p) in enumerate(zip(cams, pixels)):
        A[2 * k] = p[0] * cam.P[2] - cam.P[0]
        A[2 * k + 1] = p[1] * cam.P[2] - cam.P[1]
    Xh = np.linalg.svd(A)[2][-1]
    if abs(Xh[3]) < 1e-12:
        return None
    X = Xh[:3] / Xh[3]
    J = np.empty((2 * len(cams), 3))
    r = np.empty(2 * len(cams))
    for k, (cam, p) in enumerate(zip(cams, pixels)):
        h = cam.P @ np.append(X, 1.0)
        if abs(h[2]) < 1e-12:
            return X
        u, v = h[0] / h[2], h[1] / h[2]
        r[2 * k], r[2 * k + 1] = p[0] - u, p[1] - v
        J[2 * k] = (cam.P[0, :3] - u * cam.P[2, :3]) / h[2]
        J[2 * k + 1] = (cam.P[1, :3] - v * cam.P[2, :3]) / h[2]
    delta = np.linalg.lstsq(J, r, rcond=None)[0]
    return X + delta if np.all(np.isfinite(delta)) else X


def vanishing_pixels(cams, direction):
    """Pixels of the point at infinity along `direction` in each camera."""
    h = [cam.P @ np.append(direction, 0.0) for cam in cams]
    return [(v[0] / v[2], v[1] / v[2]) for v in h]


class TestTriangulateBatch:
    def test_matches_per_frame_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            cams = random_cameras(rng, count=int(rng.integers(2, 5)))
            truth = rng.uniform(-1.5, 1.5, size=(12, 3)) + [0.0, 0.0, 1.8]
            pixels = np.stack([project(cam, truth) for cam in cams], axis=1)
            pixels += rng.normal(0.0, 2.0, size=pixels.shape)
            points, ok = triangulate_batch(cams, pixels)
            assert ok.all()
            for k in range(len(truth)):
                expected = reference_triangulate(cams, pixels[k])
                assert np.max(np.abs(points[k] - expected)) <= 1e-9

    def test_degenerate_frames_masked_without_poisoning(self, cam_a, cam_b):
        # Frame 1 has parallel rays (the same pixel in two translated,
        # equally oriented cameras); frame 3 is the image of a point at
        # infinity.  Neither raises, and the other frames are unchanged.
        good = [[(960.0, 540.0), (760.0, 540.0)],
                [(1000.0, 500.0), (800.0, 500.0)],
                [(900.0, 600.0), (700.0, 600.0)]]
        pixels = [good[0], [(960.0, 540.0), (960.0, 540.0)], good[1],
                  vanishing_pixels([cam_a, cam_b], [0.3, -0.2, 1.0]), good[2]]
        points, ok = triangulate_batch([cam_a, cam_b], pixels)
        assert ok.tolist() == [True, False, True, False, True]
        assert np.all(np.isnan(points[~ok]))
        clean, clean_ok = triangulate_batch([cam_a, cam_b], good)
        assert clean_ok.all()
        assert np.array_equal(points[ok], clean)

    def test_point_at_infinity_in_rotated_rig(self):
        rng = np.random.default_rng(37)
        cams = random_cameras(rng, count=3)
        pixels = [vanishing_pixels(cams, [0.5, 0.4, 0.2]),
                  [project(cam, [[0.1, 0.2, 1.5]])[0] for cam in cams]]
        points, ok = triangulate_batch(cams, pixels)
        assert ok.tolist() == [False, True]
        assert np.linalg.norm(points[1] - (0.1, 0.2, 1.5)) <= 1e-6

    def test_single_camera_set_is_not_ok(self, cam_a):
        points, ok = triangulate_batch([cam_a, cam_a],
                                       [[(100.0, 100.0), (101.0, 100.0)]])
        assert not ok.any() and np.all(np.isnan(points))

    def test_matches_reference_with_opposed_cameras(self):
        # Two cameras facing each other across the aim point, 170-180
        # degrees apart as seen from every triangulated point, plus up to
        # two cameras placed at random.
        rng = np.random.default_rng(29)
        for _ in range(30):
            aim = rng.uniform(-0.3, 0.3, size=3) + [0.0, 0.0, 1.0]
            ang = rng.uniform(0.0, 2.0 * np.pi)
            radius = rng.uniform(6.0, 8.0)
            offset = np.array([radius * np.cos(ang), radius * np.sin(ang),
                               rng.uniform(-0.2, 0.2)])
            turn = np.radians(rng.uniform(-4.0, 4.0))
            rot = np.array([[np.cos(turn), -np.sin(turn), 0.0],
                            [np.sin(turn), np.cos(turn), 0.0], [0.0, 0.0, 1.0]])
            cams = [look_at_camera(0, aim + offset, aim),
                    look_at_camera(1, aim - rot @ offset, aim)]
            extra = random_cameras(rng, count=int(rng.integers(0, 3)))
            cams += [CameraModel(id=2 + k, K=c.K, R=c.R, t=c.t)
                     for k, c in enumerate(extra)]
            truth = aim + rng.uniform(-0.15, 0.15, size=(12, 3))
            rays = [truth - cams[k].center for k in (0, 1)]
            cosang = np.einsum("ij,ij->i", *rays) / (
                np.linalg.norm(rays[0], axis=1) * np.linalg.norm(rays[1], axis=1))
            assert np.degrees(np.arccos(cosang)).min() >= 170.0
            pixels = np.stack([project(cam, truth) for cam in cams], axis=1)
            pixels += rng.normal(0.0, 2.0, size=pixels.shape)
            points, ok = triangulate_batch(cams, pixels)
            expected = [reference_triangulate(cams, p) for p in pixels]
            assert ok.tolist() == [e is not None for e in expected]
            for k in np.flatnonzero(ok):
                assert np.max(np.abs(points[k] - expected[k])) <= 1e-9

    def test_split_batches_match_joint_solve(self):
        # The chunked cascade solves the frames of many windows in one
        # call, so a row's result must not depend on the other rows: not in
        # a part of one row, nor in a part whose only solvable row sits next
        # to a point at infinity (numpy's one-row product takes a
        # matrix-vector kernel unless it is routed round it).
        rng = np.random.default_rng(43)
        for count in (2, 3, 4):
            for _ in range(10):
                cams = random_cameras(rng, count=count)
                truth = rng.uniform(-1.5, 1.5, size=(12, 3)) + [0.0, 0.0, 1.8]
                pixels = np.stack([project(cam, truth) for cam in cams], axis=1)
                pixels += rng.normal(0.0, 2.0, size=pixels.shape)
                # A point at infinity keeps a not-ok row in the stack.
                far = int(rng.integers(1, len(truth) - 1))
                pixels[far] = vanishing_pixels(cams, rng.normal(size=3))
                points, ok = triangulate_batch(cams, pixels)
                random_cuts = rng.choice(np.arange(1, len(truth)), replace=False,
                                         size=int(rng.integers(1, 6)))
                for cuts in (range(1, len(truth)), (far - 1, far + 1),
                             (far, far + 2), np.sort(random_cuts)):
                    parts = [triangulate_batch(cams, p)
                             for p in np.split(pixels, [c for c in cuts
                                                        if 0 < c < len(truth)])]
                    assert np.array_equal(np.concatenate([o for _, o in parts]), ok)
                    assert np.array_equal(np.concatenate([p for p, _ in parts]), points,
                                          equal_nan=True)

    def test_common_path_calls_no_svd_or_pinv(self, monkeypatch, cam_a, cam_b):
        # Well-conditioned frames are solved by eigh and the closed-form
        # normal equations alone; a far point, whose rays are 1e-5 rad
        # apart, makes J^T J near singular and takes the pinv fallback.
        rows = {"svd": [], "pinv": []}
        for name in rows:
            real = getattr(np.linalg, name)

            def spy(a, *args, _real=real, _name=name, **kwargs):
                rows[_name].append(len(a))
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        rng = np.random.default_rng(5)
        cams = random_cameras(rng, count=3)
        truth = rng.uniform(-1.0, 1.0, size=(20, 3)) + [0.0, 0.0, 1.5]
        pixels = np.stack([project(cam, truth) for cam in cams], axis=1)
        points, ok = triangulate_batch(cams, pixels + rng.normal(0.0, 1.0, pixels.shape))
        assert ok.all() and rows == {"svd": [], "pinv": []}

        far = np.array([0.0, 0.0, 1e5])
        near = np.array([0.2, -0.1, 4.0])
        pixels = np.stack([project(cam, [near, far]) for cam in (cam_a, cam_b)], axis=1)
        points, ok = triangulate_batch([cam_a, cam_b], pixels)
        assert ok.tolist() == [True, True]
        assert rows == {"svd": [], "pinv": [1]}
        assert np.linalg.norm(points[0] - near) <= 1e-9
        assert np.linalg.norm(points[1] - far) <= 1e-6 * np.linalg.norm(far)


class TestGaussNewtonStep:
    def test_matches_pinv_and_falls_back_on_near_singular_rows(self):
        rng = np.random.default_rng(17)
        J = rng.normal(size=(6, 8, 3)) * [100.0, 50.0, 1.0]
        r = rng.normal(size=(6, 8))
        # Row 1 is near rank deficient (cond(J) about 1e8), where the
        # closed-form normal equations lose most digits; row 4 is exactly
        # rank deficient, where only pinv's minimum-norm step is defined.
        J[1, :, 2] = J[1, :, 0] + 1e-6 * rng.normal(size=8)
        J[4, :, 2] = J[4, :, 0]
        step = gauss_newton_step(J, r)
        for k in range(len(J)):
            expected = np.linalg.pinv(J[k]) @ r[k]
            assert np.allclose(step[k], expected, rtol=1e-9, atol=1e-12)
        assert np.isclose(step[4, 0], step[4, 2], rtol=1e-9)


class TestTriangulate:
    def test_two_view_round_trip(self, cam_a, cam_b):
        X, ok = triangulate_batch([cam_a, cam_b], [[(960.0, 540.0), (760.0, 540.0)]])
        assert ok[0]
        assert np.allclose(X[0], (0.0, 0.0, 5.0), atol=1e-6)

    def test_four_view_round_trip(self):
        rng = np.random.default_rng(3)
        cams = random_cameras(rng)
        truth = np.array([[1.2, 0.3, 2.0]])
        X, ok = triangulate_batch(cams, np.stack([project(cam, truth) for cam in cams],
                                                 axis=1))
        assert ok[0]
        assert np.linalg.norm(X[0] - truth[0]) <= 1e-6

    def test_insufficient_views(self, cam_a):
        for cams, pixels in (([cam_a], [[(100.0, 100.0)]]),
                             ([cam_a, cam_a], [[(100.0, 100.0), (101.0, 100.0)]])):
            X, ok = triangulate_batch(cams, pixels)
            assert not ok[0] and np.isnan(X[0]).all()

    def test_parallel_rays(self, cam_a):
        shifted = CameraModel(id=1, K=intrinsics(), R=np.eye(3),
                              t=np.array([-1.0, 0.0, 0.0]))
        # Identical pixels from two translated cameras give parallel rays.
        X, ok = triangulate_batch([cam_a, shifted], [[(960.0, 540.0), (960.0, 540.0)]])
        assert not ok[0] and np.isnan(X[0]).all()

    def test_near_opposite_anisotropy(self):
        # Two cameras facing each other: the error blows up along the
        # shared line of sight but stays small perpendicular to it.
        cam_n = look_at_camera(0, (0.0, -5.0, 1.0), (0.0, 0.0, 1.0))
        cam_s = look_at_camera(1, (0.0, 5.0, 1.0), (0.0, 0.0, 1.0))
        axis = np.array([0.0, 1.0, 0.0])
        rng = np.random.default_rng(8)
        truth, noise = [], []
        for _ in range(200):
            truth.append([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                          1.0 + rng.uniform(-0.2, 0.2)])
            noise.append([[rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)] for _ in range(2)])
        truth = np.array(truth)
        pixels = np.stack([project(cam, truth) for cam in (cam_n, cam_s)], axis=1) + noise
        X, ok = triangulate_batch([cam_n, cam_s], pixels)
        assert ok.all()
        err = X - truth
        along = np.abs(err @ axis)
        perp = np.linalg.norm(err - (err @ axis)[:, None] * axis, axis=1)
        assert np.mean(along) >= 5.0 * np.mean(perp)


class TestRoundTripProperties:
    def test_triangulation_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cams = random_cameras(rng, count=rng.integers(2, 5))
            truth = rng.uniform(-1.5, 1.5, size=(1, 3)) + [0.0, 0.0, 1.8]
            X, ok = triangulate_batch(
                cams, np.stack([project(cam, truth) for cam in cams], axis=1))
            assert ok[0]
            assert np.linalg.norm(X[0] - truth[0]) <= 1e-6


class TestCalibrationIO:
    def test_round_trip(self, tmp_path):
        rig = make_rig(6.0, 2.0, 1000.0, (1920, 1080))
        path = tmp_path / "calib.json"
        save_calibration(rig, path)
        loaded = load_calibration(path)
        assert [c.id for c in loaded] == [0, 1, 2, 3]
        for a, b in zip(rig, loaded):
            assert np.allclose(a.K, b.K)
            assert np.allclose(a.R, b.R)
            assert np.allclose(a.t, b.t)

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_calibration(path)


class TestCameraRig:
    def test_coincident_pair_raises_at_construction(self):
        a = CameraModel(id=0, K=intrinsics(), R=np.eye(3), t=np.zeros(3))
        twin = CameraModel(id=1, K=intrinsics(), R=np.eye(3), t=np.zeros(3))
        other = CameraModel(id=2, K=intrinsics(), R=np.eye(3),
                            t=np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="cameras 0 and 1 share a center"):
            CameraRig([a, twin, other])
        with pytest.raises(ValueError, match="cameras 1 and 0 share a center"):
            CameraRig([twin, a])
        rig = CameraRig([a, other])
        assert np.array_equal(rig.fundamental(0, 2), fundamental_matrix(a, other))

    def test_lookup_and_cache(self):
        rig = CameraRig(make_rig(6.0, 2.0, 1000.0, (1920, 1080)))
        assert len(rig) == 4
        F1 = rig.fundamental(0, 1)
        F2 = rig.fundamental(0, 1)
        assert F1 is F2
        assert [c.id for c in rig] == [0, 1, 2, 3]
