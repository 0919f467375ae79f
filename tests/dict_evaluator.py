"""The dict evaluator that `metrics.evaluate` replaced, kept as its oracle:
the same report from target records and ground-truth rows held as dicts,
computed frame by frame.  pytest does not collect this file."""

from __future__ import annotations

import numpy as np


def id_switches(timeline: dict[int, int]) -> int:
    ids = [timeline[f] for f in sorted(timeline)]
    return sum(1 for a, b in zip(ids, ids[1:]) if a != b)


def aed(estimate: dict, truth: dict) -> tuple[float, float]:
    common = sorted(set(estimate) & set(truth))
    if not common:
        raise ValueError("no frames with both estimate and ground truth")
    err = float(np.mean([
        np.linalg.norm(np.asarray(estimate[f]) - np.asarray(truth[f]))
        for f in common]))
    coverage = len(common) / len(truth) if truth else 0.0
    return err, coverage


def box_failure(buf_box, gt_box) -> bool:
    bx, by, bw, bh = buf_box
    gx, gy, gw, gh = gt_box
    side = max(bw, bh)
    if max(gw, gh) < 0.5 * side:
        return True
    return not (bx - bw / 2 <= gx - gw / 2 and gx + gw / 2 <= bx + bw / 2
                and by - bh / 2 <= gy - gh / 2 and gy + gh / 2 <= by + bh / 2)


def failure_rate(buffered: dict, gt_boxes: dict) -> tuple[float, int]:
    keys = sorted(set(buffered) & set(gt_boxes))
    if not keys:
        return 0.0, 0
    failures = sum(1 for k in keys if box_failure(buffered[k], gt_boxes[k]))
    return failures / len(keys), len(keys)


def evaluate(target_records: list[dict], truth: list[dict], window_len: int = 10) -> dict:
    gt_target = [rec for rec in truth if rec.get("is_target")]
    if not gt_target:
        raise ValueError("ground truth contains no target identity")

    timeline = {rec["frame"]: rec["track_id"] for rec in target_records}
    estimate = {rec["frame"]: np.asarray(rec["X"], dtype=float)
                for rec in target_records}
    gt_points = {rec["frame"]: np.asarray(rec["X"], dtype=float)
                 for rec in gt_target}
    err, coverage = aed(estimate, gt_points)

    buffered = {}
    for rec in target_records:
        for view in rec.get("per_view", []):
            buffered[(rec["frame"], view["camera"])] = (
                view["x"], view["y"], view["w"], view["h"])
    gt_boxes = {}
    for rec in gt_target:
        for cam, box in rec.get("boxes", {}).items():
            gt_boxes[(rec["frame"], int(cam))] = tuple(box)
    rate, evaluated = failure_rate(buffered, gt_boxes)

    by_window: dict[int, list[int]] = {}
    for f in sorted(estimate.keys() & gt_points.keys()):
        by_window.setdefault(f // window_len, []).append(f)
    per_window = [{"start": k * window_len,
                   "aed_m": float(np.mean([np.linalg.norm(estimate[f] - gt_points[f])
                                           for f in win])),
                   "frames": len(win)}
                  for k, win in by_window.items()]

    return {
        "id_switches": id_switches(timeline),
        "aed_m": err,
        "failure_rate": rate,
        "coverage": coverage,
        "evaluated_boxes": evaluated,
        "per_window": per_window,
    }
