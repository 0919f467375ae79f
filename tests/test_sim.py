import math

import numpy as np
import pytest

from mvtrack.geometry import PlaneSpec, project, triangulate_batch
from mvtrack.scenarios import CANNED, get_scenario_spec
from mvtrack.simulate import (build_scenario, make_rig, render_detections,
                              synth_trajectory)

PLANE = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])


class TestMakeRig:
    def test_four_valid_cameras(self):
        rig = make_rig(6.0, 2.0, 1000.0, (1920, 1080))
        assert [c.id for c in rig] == [0, 1, 2, 3]
        for cam in rig:
            assert np.allclose(cam.R @ cam.R.T, np.eye(3), atol=1e-12)

    def test_opposite_pairs_near_antiparallel(self):
        rig = make_rig(6.0, 2.0, 1000.0, (1920, 1080))
        origin = np.array([0.0, 0.0, 1.0])
        for a, b in ((0, 2), (1, 3)):
            da = origin - rig[a].center
            db = origin - rig[b].center
            cosang = da @ db / (np.linalg.norm(da) * np.linalg.norm(db))
            assert math.degrees(math.acos(cosang)) > 155.0

    def test_aim_point_projects_inside_image(self):
        rig = make_rig(6.0, 2.0, 1000.0, (1920, 1080))
        for cam in rig:
            (x, y), = project(cam, [[0.0, 0.0, 1.0]])
            assert 0.0 <= x <= 1920.0 and 0.0 <= y <= 1080.0

    def test_round_trip_of_random_points(self):
        rig = make_rig(6.0, 2.0, 1000.0, (1920, 1080))
        rng = np.random.default_rng(9)
        for _ in range(50):
            X = np.array([rng.uniform(-1.5, 1.5, 2).tolist() + [rng.uniform(0.2, 3.0)]])
            got, ok = triangulate_batch(rig, np.stack([project(cam, X) for cam in rig],
                                                      axis=1))
            assert ok[0]
            assert np.linalg.norm(got[0] - X[0]) <= 1e-6

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            make_rig(0.0, 2.0, 1000.0, (1920, 1080))


class TestSynthTrajectory:
    def test_on_plane_inside_intervals(self):
        traj = synth_trajectory("on_plane_jump", 200, seed=4, plane=PLANE,
                                on_plane_intervals=[(0, 199)],
                                off_plane_amplitude=0.2)
        for X in traj.center:
            assert abs(PLANE.n @ (X - PLANE.point)) <= 1e-9

    def test_off_plane_deviation_outside_intervals(self):
        traj = synth_trajectory("on_plane_jump", 300, seed=4, plane=PLANE,
                                on_plane_intervals=[(100, 200)],
                                off_plane_amplitude=0.2)
        inside = [abs(PLANE.n @ (X - PLANE.point)) for X in traj.center[100:201]]
        outside = [abs(PLANE.n @ (X - PLANE.point)) for X in traj.center[:60]]
        assert max(inside) <= 1e-9
        assert max(outside) > 0.05

    def test_velocity_bounded(self):
        for kind in ("on_plane_jump", "off_plane_walk"):
            traj = synth_trajectory(kind, 300, seed=2, plane=PLANE)
            steps = np.linalg.norm(np.diff(traj.center, axis=0), axis=1)
            assert steps.max() <= 1.0

    def test_height_range(self):
        traj = synth_trajectory("on_plane_jump", 600, seed=3, plane=PLANE)
        assert traj.center[:, 2].min() >= 0.0
        assert traj.center[:, 2].max() <= 3.0

    def test_walker_stays_off_plane(self):
        traj = synth_trajectory("off_plane_walk", 300, seed=5, plane=PLANE,
                                offset=1.3)
        dists = [abs(PLANE.n @ (X - PLANE.point)) for X in traj.center]
        assert min(dists) >= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_trajectory("moonwalk", 100, seed=0)


class TestScenarios:
    def test_canned_specs_build(self):
        for name in CANNED:
            scenario = build_scenario(get_scenario_spec(name))
            assert scenario.duration > 0
            assert len(scenario.rig) == 4
            assert sum(p.is_target for p in scenario.persons) == 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_scenario_spec("no-such-scenario")

    def test_specs_are_copies(self):
        a = get_scenario_spec("clean-4cam")
        a["persons"].clear()
        assert get_scenario_spec("clean-4cam")["persons"]

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            build_scenario({"persons": []})  # missing duration


def small_scenario(noise=0.0, dropout=(), seed=11, duration=120):
    spec = get_scenario_spec("opposite-only-episode")
    spec["seed"] = seed
    spec["duration"] = duration
    spec["noise_px"] = noise
    spec["dropout"] = list(dropout)
    return build_scenario(spec)


def same_detections(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in ((a.frame, b.frame),
                                                       (a.camera, b.camera),
                                                       (a.boxes, b.boxes)))


class TestRenderDetections:
    def test_noise_free_matches_truth(self):
        detections, truth = render_detections(small_scenario())
        true_boxes = {}
        for rec in truth:
            for cam, box in rec["boxes"].items():
                true_boxes.setdefault((rec["frame"], int(cam)), []).append(box)
        for det in detections:
            candidates = true_boxes[(det.frame, det.camera)]
            assert any(np.allclose((det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h),
                                   box, atol=1e-9) for box in candidates)

    def test_dropout_removes_views(self):
        scenario = small_scenario(dropout=[{"cameras": [1, 3], "start": 40,
                                            "end": 80}])
        detections, _ = render_detections(scenario)
        episode = {d.camera for d in detections if 40 <= d.frame <= 80}
        assert episode == {0, 2}
        before = {d.camera for d in detections if d.frame < 40}
        assert before == {0, 1, 2, 3}

    def test_truth_unaffected_by_dropout(self):
        _, clean = render_detections(small_scenario())
        _, dropped = render_detections(small_scenario(
            dropout=[{"cameras": [1, 3], "start": 40, "end": 80}]))
        assert clean == dropped

    def test_seeded_determinism(self):
        a, ta = render_detections(small_scenario(noise=2.0))
        b, tb = render_detections(small_scenario(noise=2.0))
        assert same_detections(a, b) and ta == tb

    def test_distinct_seeds_differ(self):
        a, _ = render_detections(small_scenario(noise=2.0, seed=1))
        b, _ = render_detections(small_scenario(noise=2.0, seed=2))
        assert not same_detections(a, b)
        assert np.array_equal(a.frame, b.frame) and np.array_equal(a.camera, b.camera)
