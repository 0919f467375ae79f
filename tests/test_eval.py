import json
import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dict_evaluator
from mvtrack.cascade import Mode
from mvtrack.metrics import box_failures, evaluate
from mvtrack.pipeline import run_pipeline
from mvtrack.records import write_jsonl
from mvtrack.scenarios import get_scenario_spec
from mvtrack.simulate import build_scenario, load_truth, render_detections
from mvtrack.target import load_target_records, save_target_records

from conftest import simulated


def score(tmp_path, records, truth, window_len=10):
    """evaluate(records, truth rows) with the truth rows written as
    `mvtrack simulate` writes them and read back as `mvtrack evaluate`
    reads them."""
    path = tmp_path / "truth.jsonl"
    write_jsonl(path, truth)
    return evaluate(records, load_truth(path), window_len)


def timeline_records(timeline: dict) -> list[dict]:
    return [{"frame": f, "track_id": tid, "X": [0.0, 0.0, 1.5]} for f, tid in timeline.items()]


def target_rows(frames, X=(0.0, 0.0, 1.5)) -> list[dict]:
    return [{"frame": f, "person": 0, "is_target": True, "X": list(X)} for f in frames]


class TestIdSwitches:
    def test_constant_id(self, tmp_path):
        report = score(tmp_path, timeline_records(dict.fromkeys(range(10), 7)),
                       target_rows(range(10)))
        assert report["id_switches"] == 0

    def test_two_changes(self, tmp_path):
        timeline = dict(enumerate([1, 1, 2, 2, 1]))
        report = score(tmp_path, timeline_records(timeline), target_rows(range(5)))
        assert report["id_switches"] == 2

    def test_missing_frames_skipped(self, tmp_path):
        report = score(tmp_path, timeline_records({0: 1, 5: 1, 9: 1}), target_rows(range(10)))
        assert report["id_switches"] == 0

    def test_empty(self, tmp_path):
        # The fewest records evaluate scores, one, hold no switch.
        assert score(tmp_path, timeline_records({3: 1}), target_rows([3]))["id_switches"] == 0

    def test_estimate_frames_without_truth_count(self, tmp_path):
        # The timeline is the estimate's, whether or not truth holds a frame.
        report = score(tmp_path, timeline_records({0: 1, 1: 2, 2: 1}), target_rows([0, 2]))
        assert report["id_switches"] == 2


class TestAed:
    def test_exact_match(self, tmp_path):
        X = [0.0, 0.0, 1.0]
        report = score(tmp_path, [{"frame": f, "track_id": 0, "X": X} for f in range(5)],
                       target_rows(range(5), X))
        assert report["aed_m"] == 0.0 and report["coverage"] == 1.0

    def test_constant_offset(self, tmp_path):
        records = [{"frame": f, "track_id": 0, "X": [0.0, 0.0, 1.1]} for f in range(5)]
        report = score(tmp_path, records, target_rows(range(5), (0.0, 0.0, 1.0)))
        assert report["aed_m"] == pytest.approx(0.1, abs=1e-12)

    def test_coverage_counts_estimated_truth_frames(self, tmp_path):
        report = score(tmp_path, timeline_records({f: 0 for f in range(4)}), target_rows(range(10)))
        assert report["coverage"] == 0.4

    def test_empty_overlap(self, tmp_path):
        with pytest.raises(ValueError, match="no frames with both"):
            score(tmp_path, timeline_records({0: 0}), target_rows([5]))


class TestBoxFailure:
    @staticmethod
    def fails(buffered, truth) -> bool:
        return bool(box_failures(np.array(buffered), np.array(truth)))

    def test_contained_large_enough(self):
        assert not self.fails((0.0, 0.0, 104.0, 104.0), (0.0, 0.0, 60.0, 60.0))

    def test_too_small(self):
        assert self.fails((0.0, 0.0, 104.0, 104.0), (0.0, 0.0, 40.0, 40.0))

    def test_protruding(self):
        assert self.fails((0.0, 0.0, 104.0, 104.0), (30.0, 0.0, 60.0, 60.0))

    def test_boundary_touch_is_contained(self):
        assert not self.fails((0.0, 0.0, 104.0, 104.0), (22.0, 0.0, 60.0, 60.0))

    def test_half_side_boundary_strict(self):
        # Ground-truth side exactly half the buffer side does not fail.
        assert not self.fails((0.0, 0.0, 104.0, 104.0), (0.0, 0.0, 52.0, 52.0))

    def test_one_mask_over_stacked_boxes(self):
        buffered = np.array([[0.0, 0.0, 104.0, 104.0]] * 3)
        truth = np.array([[0.0, 0.0, 60.0, 60.0], [0.0, 0.0, 40.0, 40.0],
                          [30.0, 0.0, 60.0, 60.0]])
        assert box_failures(buffered, truth).tolist() == [False, True, True]


def buffered_view(camera=0):
    return {"camera": camera, "x": 0.0, "y": 0.0, "w": 104.0, "h": 104.0}


class TestFailureRate:
    def test_only_common_keys_evaluated(self, tmp_path):
        records = [{"frame": f, "track_id": 0, "X": [0.0, 0.0, 1.5], "per_view": [buffered_view()]}
                   for f in (0, 1)]
        truth = target_rows([0, 2])
        truth[0]["boxes"] = {"0": [0.0, 0.0, 40.0, 40.0]}
        truth[1]["boxes"] = {"0": [0.0, 0.0, 60.0, 60.0]}
        report = score(tmp_path, records, truth)
        assert report["evaluated_boxes"] == 1 and report["failure_rate"] == 1.0

    def test_no_common_keys(self, tmp_path):
        truth = target_rows([0])
        truth[0]["boxes"] = {"0": [0.0, 0.0, 1.0, 1.0]}
        report = score(tmp_path, timeline_records({0: 0}), truth)
        assert (report["failure_rate"], report["evaluated_boxes"]) == (0.0, 0)

    def test_cameras_on_one_side_only_are_not_evaluated(self, tmp_path):
        records = [{"frame": 0, "track_id": 0, "X": [0.0, 0.0, 1.5],
                    "per_view": [buffered_view(0), buffered_view(5)]}]
        truth = target_rows([0])
        truth[0]["boxes"] = {"0": [0.0, 0.0, 60.0, 60.0], "-2": [0.0, 0.0, 40.0, 40.0]}
        report = score(tmp_path, records, truth)
        assert (report["failure_rate"], report["evaluated_boxes"]) == (0.0, 1)

    def test_camera_absent_from_truth_keeps_the_cell_before_it(self, tmp_path):
        # Record 0's view in truth's last camera, then record 1's view in a
        # camera truth lacks: record 0's cell is still evaluated.
        records = [{"frame": f, "track_id": 0, "X": [0.0, 0.0, 1.5],
                    "per_view": [buffered_view(camera)]} for f, camera in ((0, 1), (1, 9))]
        truth = target_rows([0, 1])
        for rec in truth:
            rec["boxes"] = {"0": [0.0, 0.0, 60.0, 60.0], "1": [0.0, 0.0, 40.0, 40.0]}
        report = score(tmp_path, records, truth)
        assert (report["failure_rate"], report["evaluated_boxes"]) == (1.0, 1)

    def test_last_view_of_a_camera_wins(self, tmp_path):
        records = [{"frame": 0, "track_id": 0, "X": [0.0, 0.0, 1.5],
                    "per_view": [buffered_view(), dict(buffered_view(), w=10.0, h=10.0)]}]
        truth = target_rows([0])
        truth[0]["boxes"] = {"0": [0.0, 0.0, 60.0, 60.0]}
        report = score(tmp_path, records, truth)
        assert (report["failure_rate"], report["evaluated_boxes"]) == (1.0, 1)


def truth_records(n=20):
    records = []
    for f in range(n):
        records.append({"frame": f, "person": 0, "is_target": True,
                        "X": [0.0, 0.01 * f, 1.5],
                        "boxes": {"0": [100.0, 100.0, 40.0, 80.0]}})
        records.append({"frame": f, "person": 1, "is_target": False,
                        "X": [1.5, 0.0, 1.0], "boxes": {}})
    return records


def target_records(n=20, shift=0.0):
    return [{"frame": f, "track_id": 3, "X": [shift, 0.01 * f, 1.5],
             "per_view": [{"camera": 0, "x": 100.0, "y": 100.0,
                           "w": 104.0, "h": 104.0}]}
            for f in range(n)]


class TestEvaluate:
    def test_perfect_run(self, tmp_path):
        report = score(tmp_path, target_records(), truth_records())
        assert report["id_switches"] == 0
        assert report["aed_m"] == 0.0
        assert report["failure_rate"] == 0.0
        assert report["coverage"] == 1.0
        assert report["evaluated_boxes"] == 20

    def test_shifted_run(self, tmp_path):
        report = score(tmp_path, target_records(shift=0.25), truth_records())
        assert report["aed_m"] == pytest.approx(0.25, abs=1e-12)

    def test_requires_target_truth(self, tmp_path):
        truth = [r for r in truth_records() if not r["is_target"]]
        with pytest.raises(ValueError, match="no target identity"):
            score(tmp_path, target_records(), truth)

    def test_record_order_invariance(self, tmp_path):
        records = target_records()
        truth = truth_records()
        base = score(tmp_path, records, truth)
        shuffled_records = list(records)
        shuffled_truth = list(truth)
        random.Random(1).shuffle(shuffled_records)
        random.Random(2).shuffle(shuffled_truth)
        assert score(tmp_path, shuffled_records, shuffled_truth) == base

    def test_repeated_frame_is_refused(self, tmp_path):
        records = target_records() + target_records()[3:4]
        with pytest.raises(ValueError, match="a second target record for frame 3"):
            score(tmp_path, records, truth_records())

    def test_per_window_breakdown(self, tmp_path):
        report = score(tmp_path, target_records(), truth_records())
        assert [w["start"] for w in report["per_window"]] == [0, 10]
        assert all(w["frames"] == 10 for w in report["per_window"])

    def test_distant_frames_visit_only_their_windows(self, tmp_path):
        frames = (0, 10**12)
        truth = [{"frame": f, "person": 0, "is_target": True, "X": [0.0, 0.0, 1.5]}
                 for f in frames]
        records = [{"frame": f, "track_id": 0, "X": [0.1, 0.0, 1.5]} for f in frames]
        t0 = time.perf_counter()
        report = score(tmp_path, records, truth)
        assert time.perf_counter() - t0 < 1.0
        assert [(w["start"], w["frames"]) for w in report["per_window"]] == \
            [(0, 1), (10**12, 1)]

    @pytest.mark.parametrize("window_len", [2, 10, 30])
    def test_per_window_equals_stepping_every_window(self, tmp_path, window_len):
        rng = random.Random(window_len)
        truth_frames = sorted(rng.sample(range(3, 400), 150))
        estimate_frames = rng.sample(range(0, 420), 200)
        truth = [{"frame": f, "person": 0, "is_target": True,
                  "X": [rng.random(), rng.random(), 1.5]} for f in truth_frames]
        records = [{"frame": f, "track_id": 0, "X": [rng.random(), rng.random(), 1.5]}
                   for f in estimate_frames]
        estimate = {r["frame"]: np.asarray(r["X"]) for r in records}
        gt = {r["frame"]: np.asarray(r["X"]) for r in truth}
        # The loop it replaced: every window from the first truth frame to
        # the last.
        want = []
        start = truth_frames[0] - truth_frames[0] % window_len
        while start <= truth_frames[-1]:
            win = [f for f in range(start, start + window_len) if f in estimate and f in gt]
            if win:
                want.append({"start": start, "frames": len(win), "aed_m": float(np.mean(
                    [np.linalg.norm(estimate[f] - gt[f]) for f in win]))})
            start += window_len
        assert score(tmp_path, records, truth, window_len)["per_window"] == want


def report_or_error(evaluate, *args) -> str:
    """The report as report.json holds it, or the error's message."""
    try:
        return json.dumps(evaluate(*args), sort_keys=True)
    except ValueError as exc:
        return f"ValueError: {exc}"


CAMERAS = (-3, 0, 1, 2, 7)
COORD = st.one_of(st.floats(-300, 300, allow_nan=False), st.integers(-300, 300))
SIDE = st.one_of(st.floats(1e-3, 250), st.integers(1, 250))
BOX = st.tuples(COORD, COORD, SIDE, SIDE).map(list)
# Offsets that put a routine's frames in windows far apart, or beyond int64.
OFFSET = st.sampled_from([0, 0, 0, 10**6, -10**12, 2**70])


@st.composite
def scored_inputs(draw):
    """(target records, truth rows, window_len): frames with gaps on both
    sides, views missing or repeated, cameras on one side only, non-target
    rows, and the lines of each file in any order."""
    offset = draw(OFFSET)
    frames = draw(st.lists(st.integers(0, 60), unique=True, max_size=30))
    truth_frames = draw(st.lists(st.integers(0, 60), unique=True, min_size=1, max_size=30))
    records = [{"frame": offset + f, "track_id": draw(st.integers(0, 2)),
                "X": draw(st.lists(COORD, min_size=3, max_size=3)),
                "per_view": [{"camera": c, **dict(zip("xywh", draw(BOX)))}
                             for c in draw(st.lists(st.sampled_from(CAMERAS), max_size=4))]}
               for f in frames]
    truth = []
    for f in truth_frames:
        for person in range(draw(st.integers(1, 2))):
            truth.append({"frame": offset + f, "person": person, "is_target": person == 0,
                          "X": draw(st.lists(COORD, min_size=3, max_size=3)),
                          "boxes": {str(c): draw(BOX) for c in draw(
                              st.lists(st.sampled_from(CAMERAS), unique=True, max_size=4))}})
    return (draw(st.permutations(records)), draw(st.permutations(truth)),
            draw(st.sampled_from([2, 10, 30])))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(inputs=scored_inputs())
def test_report_equals_dict_evaluator(tmp_path, inputs):
    records, truth, window_len = inputs
    path = tmp_path / "truth.jsonl"
    write_jsonl(path, truth)
    assert report_or_error(evaluate, records, load_truth(path), window_len) == \
        report_or_error(dict_evaluator.evaluate, records, truth, window_len)


@pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
def test_simulated_report_equals_dict_evaluator(tmp_path, mode):
    spec = get_scenario_spec("opposite-only-episode")
    _, truth = render_detections(build_scenario(spec))
    records, _ = run_pipeline(*simulated(spec), mode)
    save_target_records(records, tmp_path / "tracklets.jsonl")
    records = load_target_records(tmp_path / "tracklets.jsonl")
    write_jsonl(tmp_path / "truth.jsonl", truth)
    report = evaluate(records, load_truth(tmp_path / "truth.jsonl"))
    assert report["evaluated_boxes"] > 0
    assert json.dumps(report, sort_keys=True) == \
        json.dumps(dict_evaluator.evaluate(records, truth), sort_keys=True)
