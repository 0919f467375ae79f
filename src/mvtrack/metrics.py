"""The three tracking metrics: ID switches, average Euclidean distance of
the 3D centers, and the per-view buffered-box failure rate, each computed
over columns."""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from .records import describe, int_column
from .simulate import Truth


def box_failures(buffered: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Whether each buffered (square) box fails: its ground-truth box is
    smaller than half its side or not fully inside it (boundary inclusive).
    Both are (..., 4) arrays of (x, y, w, h)."""
    bx, by, bw, bh = np.moveaxis(buffered, -1, 0)
    gx, gy, gw, gh = np.moveaxis(truth, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        inside = ((bx - bw / 2 <= gx - gw / 2) & (gx + gw / 2 <= bx + bw / 2)
                  & (by - bh / 2 <= gy - gh / 2) & (gy + gh / 2 <= by + bh / 2))
        return (np.maximum(gw, gh) < 0.5 * np.maximum(bw, bh)) | ~inside


_record_values = itemgetter("frame", "track_id", "X")


def _buffered(target_records: list[dict], cameras: tuple) -> np.ndarray:
    """(records, C, 4): each record's buffered box in each of `cameras`,
    NaN where it has none; a camera's last view in a record wins, as in a
    dict by camera."""
    per_view = [rec.get("per_view", ()) for rec in target_records]
    views = list(chain.from_iterable(per_view))
    slot = {camera: c for c, camera in enumerate(cameras)}
    col = np.array([slot.get(view["camera"], -1) for view in views], dtype=np.int64)
    kept = col >= 0
    cell = (np.repeat(np.arange(len(per_view)), list(map(len, per_view))) * len(cameras)
            + col)[kept]
    box = np.stack([np.fromiter(map(itemgetter(key), views), float, len(views))
                    for key in "xywh"], axis=1)[kept]
    last = len(cell) - 1 - np.unique(cell[::-1], return_index=True)[1]
    out = np.full((len(per_view) * len(cameras), 4), np.nan)
    out[cell[last]] = box[last]
    return out.reshape(len(per_view), len(cameras), 4)


def evaluate(target_records: list[dict], truth: Truth, window_len: int = 10) -> dict:
    """Compute the full report from target output records, one per frame,
    and the ground truth's target rows.

    ID switches count changes of track id between consecutive estimate
    frames.  The AED is the mean 3D error over frames carrying both
    estimate and truth (ValueError when none does), and the coverage the
    fraction of truth frames among them.  The failure rate is over the
    (frame, camera) cells with a box on both sides.  `per_window` breaks
    the AED down by frame // window_len, visiting only windows that hold a
    common frame.
    """
    if not len(truth.frame):
        raise ValueError("ground truth contains no target identity")
    frame, track_id, X = list(zip(*map(_record_values, target_records))) or [()] * 3
    frame, truth_frame = int_column(frame), truth.frame
    if frame.dtype != truth_frame.dtype:
        frame, truth_frame = frame.astype(object), truth_frame.astype(object)
    order = np.argsort(frame, kind="stable")
    frame = frame[order]
    if (repeated := np.flatnonzero(frame[1:] == frame[:-1])).size:
        raise ValueError(f"a second target record for frame "
                         f"{describe(frame[repeated].tolist()[0])}")
    track_id = int_column(track_id)[order]

    # The estimate frames that truth holds, and their truth rows.
    truth_order = np.argsort(truth_frame, kind="stable")
    at = np.minimum(np.searchsorted(truth_frame[truth_order], frame), len(truth_order) - 1)
    common = np.flatnonzero(truth_frame[truth_order[at]] == frame)
    if not common.size:
        raise ValueError("no frames with both estimate and ground truth")
    truth_rows = truth_order[at[common]]
    est_rows = order[common]
    d = np.array(X, dtype=float).reshape(-1, 3)[est_rows] - truth.X[truth_rows]
    # The row dot has the bits of np.linalg.norm of each row alone.
    errors = np.sqrt(d[:, None, :] @ d[:, :, None]).reshape(-1)

    buffered = _buffered(target_records, truth.cameras)[est_rows]
    gt = truth.boxes[:, truth_rows].swapaxes(0, 1)
    both = ~np.isnan(buffered[..., 0]) & ~np.isnan(gt[..., 0])
    evaluated = int(both.sum())
    failures = int((box_failures(buffered, gt) & both).sum())

    window = frame[common] // window_len
    cuts = [0, *(np.flatnonzero(window[1:] != window[:-1]) + 1).tolist(), len(window)]
    per_window = [{"start": k * window_len, "aed_m": float(np.mean(errors[a:b])),
                   "frames": b - a}
                  for k, a, b in zip(window[cuts[:-1]].tolist(), cuts, cuts[1:])]

    return {
        "id_switches": int(np.count_nonzero(track_id[1:] != track_id[:-1])),
        "aed_m": float(np.mean(errors)),
        "failure_rate": failures / evaluated if evaluated else 0.0,
        "coverage": len(common) / len(truth_frame),
        "evaluated_boxes": evaluated,
        "per_window": per_window,
    }
