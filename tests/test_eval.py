import random
import time

import numpy as np
import pytest

from mvtrack.metrics import (aed, box_failure, evaluate, failure_rate,
                             id_switches)


class TestIdSwitches:
    def test_constant_id(self):
        assert id_switches({f: 7 for f in range(10)}) == 0

    def test_two_changes(self):
        timeline = dict(enumerate([1, 1, 2, 2, 1]))
        assert id_switches(timeline) == 2

    def test_missing_frames_skipped(self):
        assert id_switches({0: 1, 5: 1, 9: 1}) == 0

    def test_empty(self):
        assert id_switches({}) == 0


class TestAed:
    def test_exact_match(self):
        pts = {f: np.array([0.0, 0.0, 1.0]) for f in range(5)}
        err, coverage = aed(pts, pts)
        assert err == 0.0 and coverage == 1.0

    def test_constant_offset(self):
        truth = {f: np.array([0.0, 0.0, 1.0]) for f in range(5)}
        est = {f: X + [0.0, 0.0, 0.1] for f, X in truth.items()}
        err, _ = aed(est, truth)
        assert err == pytest.approx(0.1, abs=1e-12)

    def test_coverage_counts_estimated_truth_frames(self):
        truth = {f: np.zeros(3) for f in range(10)}
        est = {f: np.zeros(3) for f in range(4)}
        _, coverage = aed(est, truth)
        assert coverage == 0.4

    def test_empty_overlap(self):
        with pytest.raises(ValueError, match="no frames with both"):
            aed({0: np.zeros(3)}, {5: np.zeros(3)})


class TestBoxFailure:
    def test_contained_large_enough(self):
        assert not box_failure((0.0, 0.0, 104.0, 104.0), (0.0, 0.0, 60.0, 60.0))

    def test_too_small(self):
        assert box_failure((0.0, 0.0, 104.0, 104.0), (0.0, 0.0, 40.0, 40.0))

    def test_protruding(self):
        assert box_failure((0.0, 0.0, 104.0, 104.0), (30.0, 0.0, 60.0, 60.0))

    def test_boundary_touch_is_contained(self):
        assert not box_failure((0.0, 0.0, 104.0, 104.0),
                               (22.0, 0.0, 60.0, 60.0))

    def test_half_side_boundary_strict(self):
        # Ground-truth side exactly half the buffer side does not fail.
        assert not box_failure((0.0, 0.0, 104.0, 104.0), (0.0, 0.0, 52.0, 52.0))


class TestFailureRate:
    def test_only_common_keys_evaluated(self):
        buffered = {(0, 0): (0.0, 0.0, 104.0, 104.0),
                    (1, 0): (0.0, 0.0, 104.0, 104.0)}
        gt = {(0, 0): (0.0, 0.0, 40.0, 40.0),
              (2, 0): (0.0, 0.0, 60.0, 60.0)}
        rate, count = failure_rate(buffered, gt)
        assert count == 1 and rate == 1.0

    def test_no_common_keys(self):
        assert failure_rate({}, {(0, 0): (0, 0, 1, 1)}) == (0.0, 0)


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
    def test_perfect_run(self):
        report = evaluate(target_records(), truth_records())
        assert report["id_switches"] == 0
        assert report["aed_m"] == 0.0
        assert report["failure_rate"] == 0.0
        assert report["coverage"] == 1.0
        assert report["evaluated_boxes"] == 20

    def test_shifted_run(self):
        report = evaluate(target_records(shift=0.25), truth_records())
        assert report["aed_m"] == pytest.approx(0.25, abs=1e-12)

    def test_requires_target_truth(self):
        truth = [r for r in truth_records() if not r["is_target"]]
        with pytest.raises(ValueError):
            evaluate(target_records(), truth)

    def test_record_order_invariance(self):
        records = target_records()
        truth = truth_records()
        base = evaluate(records, truth)
        shuffled_records = list(records)
        shuffled_truth = list(truth)
        random.Random(1).shuffle(shuffled_records)
        random.Random(2).shuffle(shuffled_truth)
        assert evaluate(shuffled_records, shuffled_truth) == base

    def test_per_window_breakdown(self):
        report = evaluate(target_records(), truth_records())
        assert [w["start"] for w in report["per_window"]] == [0, 10]
        assert all(w["frames"] == 10 for w in report["per_window"])

    def test_distant_frames_visit_only_their_windows(self):
        frames = (0, 10**12)
        truth = [{"frame": f, "person": 0, "is_target": True, "X": [0.0, 0.0, 1.5]}
                 for f in frames]
        records = [{"frame": f, "track_id": 0, "X": [0.1, 0.0, 1.5]} for f in frames]
        t0 = time.perf_counter()
        report = evaluate(records, truth)
        assert time.perf_counter() - t0 < 1.0
        assert [(w["start"], w["frames"]) for w in report["per_window"]] == \
            [(0, 1), (10**12, 1)]

    @pytest.mark.parametrize("window_len", [2, 10, 30])
    def test_per_window_equals_stepping_every_window(self, window_len):
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
        assert evaluate(records, truth, window_len)["per_window"] == want
