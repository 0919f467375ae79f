import math
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvtrack.geometry import PlaneSpec, project, triangulate_batch
from mvtrack.scenarios import CANNED, get_scenario_spec
from mvtrack.simulate import (BBOX_ASPECT, BBOX_HEIGHT_SLACK, _smooth_gate, build_scenario,
                              make_rig, render_detections, synth_trajectory)

from conftest import columns

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

    def test_bounce_heights_equal_the_per_frame_expression(self):
        # 95 frames hold every one of the 30 phases of a bounce.
        traj = synth_trajectory("on_plane_jump", 95, seed=5)
        heights = np.random.default_rng(np.random.SeedSequence(5)).uniform(
            1.2, 1.9, size=95 // 30 + 1)
        z = [0.9 + heights[f // 30] * (1.0 - (2.0 * ((f % 30) / 30) - 1.0) ** 2)
             for f in np.arange(95)]
        assert traj.center[:, 2].tobytes() == np.array(z).tobytes()

    def test_walker_stays_off_plane(self):
        traj = synth_trajectory("off_plane_walk", 300, seed=5, plane=PLANE,
                                offset=1.3)
        dists = [abs(PLANE.n @ (X - PLANE.point)) for X in traj.center]
        assert min(dists) >= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_trajectory("moonwalk", 100, seed=0)


def gate_by_frame(frames, intervals, ramp=20):
    """The oracle of `_smooth_gate`: each interval applied frame by frame."""
    gate = np.ones(len(frames))
    for start, end in intervals:
        for i, f in enumerate(frames):
            if start <= f <= end:
                gate[i] = 0.0
            elif start - ramp < f < start:
                gate[i] = min(gate[i], 0.5 - 0.5 * math.cos(math.pi * (start - f) / ramp))
            elif end < f < end + ramp:
                gate[i] = min(gate[i], 0.5 - 0.5 * math.cos(math.pi * (f - end) / ramp))
    return gate


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.lists(st.tuples(*[st.one_of(
    st.integers(-40, 340), st.floats(-40.0, 340.0),
    st.sampled_from([-10**30, 10**30, 1e300]))] * 2), max_size=4))
def test_smooth_gate_equals_the_per_frame_loop(duration, intervals):
    frames = np.arange(duration)
    assert _smooth_gate(frames, intervals).tobytes() == \
        gate_by_frame(frames, intervals).tobytes()


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


def box_of_one_frame(cam, traj, frame):
    """The oracle's (x, y, w, h) box of a person in a camera at one frame, or
    None if the person is not seen."""
    pixels = project(cam, [traj.center[frame], traj.top[frame], traj.bottom[frame]])
    if np.isnan(pixels).any():
        return None
    (cx, cy), (_, ty), (_, by) = pixels.tolist()
    h = abs(ty - by) * BBOX_HEIGHT_SLACK
    if h <= 0:
        return None
    return (cx, cy, BBOX_ASPECT * h, h)


def render_by_detection(scenario):
    """The oracle of `render_detections`: a projection, a visibility test and
    a generator per (frame, person, camera), the rows then sorted stably by
    (frame, camera)."""
    rows, truth = [], []
    for frame in range(scenario.duration):
        for pid, traj in enumerate(scenario.persons):
            boxes = {}
            for cam in scenario.rig:
                box = box_of_one_frame(cam, traj, frame)
                if box is None:
                    continue
                boxes[cam.id] = box
                if any(cam.id in episode["cameras"] and
                       episode["start"] <= frame <= episode["end"]
                       for episode in scenario.dropout):
                    continue
                rng = np.random.default_rng(np.random.SeedSequence(
                    scenario.seed, spawn_key=(frame, cam.id, pid)))
                noise = rng.normal(size=4)
                sigma = scenario.noise_px
                x, y, w, h = box
                rows.append((frame, cam.id, x + sigma * noise[0], y + sigma * noise[1],
                             max(w + 0.5 * sigma * noise[2], 1.0),
                             max(h + 0.5 * sigma * noise[3], 1.0)))
            truth.append({
                "frame": frame, "person": pid, "is_target": traj.is_target,
                "X": [float(v) for v in traj.center[frame]],
                "top": [float(v) for v in traj.top[frame]],
                "bottom": [float(v) for v in traj.bottom[frame]],
                "boxes": {str(c): list(b) for c, b in boxes.items()},
            })
    rows.sort(key=itemgetter(0, 1))
    return columns(rows), truth


_BOUND = st.one_of(st.integers(-30, 150), st.floats(-30.0, 150.0))
_PERSON = st.fixed_dictionaries(
    {"kind": st.sampled_from(["on_plane_jump", "off_plane_walk"])},
    optional={"is_target": st.booleans(), "off_plane_amplitude": st.floats(0.0, 0.5),
              "offset": st.floats(-2.5, 2.5),
              "on_plane_intervals": st.lists(
                  st.lists(_BOUND, min_size=2, max_size=2).map(sorted), max_size=3)})
# Ranges end at or after their start: build_scenario refuses the others.
_EPISODE = st.builds(lambda cameras, ends: {"cameras": cameras, "start": min(ends),
                                            "end": max(ends)},
                     st.lists(st.integers(-1, 4), max_size=4),
                     st.tuples(st.integers(-20, 140), st.integers(-20, 140)))
# A focal length of 1e-300 px images every point at the principal point, so
# top and bottom meet and the box height is 0.
_SCENE = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32), "duration": st.integers(0, 120),
    "noise_px": st.floats(0.0, 3.0),
    "rig": st.fixed_dictionaries({"radius": st.floats(1.0, 12.0),
                                  "focal": st.sampled_from([1000.0, 300.0, 1e-300])}),
    "persons": st.lists(_PERSON, max_size=3), "dropout": st.lists(_EPISODE, max_size=3)})


@settings(max_examples=150, deadline=None)
@given(_SCENE)
@example({"seed": 3, "duration": 40, "noise_px": 2.0, "rig": {"radius": 1.0, "focal": 1e-300},
          "persons": [{"kind": "on_plane_jump"}, {"kind": "off_plane_walk"}],
          "dropout": [{"cameras": [0, 2], "start": 5, "end": 30}]})
def test_render_equals_the_per_detection_loop(spec):
    scenario = build_scenario(spec)
    detections, truth = render_detections(scenario)
    want, want_truth = render_by_detection(scenario)
    for name in ("frame", "camera", "boxes"):
        got, expected = getattr(detections, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    assert truth == want_truth


def test_render_branches_are_reached():
    """The scenes of the property test above reach each way a person is
    not seen: a NaN pixel behind a camera, and a box height <= 0."""
    spec = {"seed": 3, "duration": 40, "persons": [{"kind": "off_plane_walk"}],
            "rig": {"radius": 1.0, "focal": 1e-300}}
    scenario = build_scenario(spec)
    behind = degenerate = 0
    for frame in range(scenario.duration):
        for cam in scenario.rig:
            traj = scenario.persons[0]
            pixels = project(cam, [traj.center[frame], traj.top[frame], traj.bottom[frame]])
            if np.isnan(pixels).any():
                behind += 1
            elif box_of_one_frame(cam, traj, frame) is None:
                degenerate += 1
    assert behind > 0 and degenerate > 0
