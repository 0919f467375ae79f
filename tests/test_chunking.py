"""Chunked association: `run_pipeline` clusters and solves a run of windows
at once, then stitches them in order.  A window's tracks must not depend
on the windows it shares a chunk with, so the target records are the same
bytes for every chunk size, and the same whether or not a box tuple that
recurs in a chunk is solved once."""

import numpy as np
import pytest

from mvtrack import cascade, clustering, pipeline, target
from mvtrack.cascade import Mode
from mvtrack.scenarios import get_scenario_spec

from conftest import simulated

SCENARIOS = ("clean-4cam", "opposite-only-episode", "crowded-distractors")


@pytest.fixture(scope="module")
def inputs():
    return {name: simulated(get_scenario_spec(name)) for name in SCENARIOS}


def split_budget(windows, parts=3):
    """A CHUNK_CELLS value that cuts `windows` into `parts` or so chunks,
    each closing mid-clip."""
    return max(1, sum(len(segments) ** 2 for segments in windows.values()) // parts)


@pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_records_do_not_depend_on_chunk_size(inputs, scenario, mode, monkeypatch,
                                             tmp_path):
    detections, rig, cfg = inputs[scenario]
    windows = pipeline.collect_window_segments(detections, rig, cfg)
    n_windows = len(windows)
    chunk_sizes = []
    real = pipeline.cluster_windows

    def spy(windows, *args):
        chunk_sizes.append(len(windows))
        return real(windows, *args)
    monkeypatch.setattr(pipeline, "cluster_windows", spy)

    outputs = []
    budgets = (1, split_budget(windows), pipeline.CHUNK_CELLS, 10**9)
    for budget in budgets:
        monkeypatch.setattr(pipeline, "CHUNK_CELLS", budget)
        chunk_sizes.clear()
        records, _ = pipeline.run_pipeline(detections, rig, cfg, mode)
        assert sum(chunk_sizes) == n_windows
        if budget == 1:
            assert chunk_sizes == [1] * n_windows
        elif budget == budgets[1]:
            assert 2 <= len(chunk_sizes) < n_windows
        elif budget == 10**9:
            assert chunk_sizes == [n_windows]
        path = tmp_path / f"{budget}.jsonl"
        target.save_target_records(records, path)
        outputs.append(path.read_bytes())
    assert outputs[0]
    for output in outputs[1:]:
        assert output == outputs[0]


def test_chunks_take_every_window_once_in_order(monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_CELLS", 50)
    windows = {start: ["segment"] * n
               for start, n in zip(range(0, 100, 10), (3, 4, 8, 1, 2, 5, 5, 6, 0, 1))}
    chunks = list(pipeline._chunks(windows))
    assert [item for chunk in chunks for item in chunk] == list(windows.items())
    assert [[start for start, _ in chunk] for chunk in chunks] == \
        [[0, 10, 20], [30, 40, 50, 60], [70, 80, 90]]
    # Each chunk but the last closes at the first window that reaches the
    # budget: 9 + 16 + 64 = 89, then 1 + 4 + 25 + 25 = 55.
    for chunk in chunks[:-1]:
        cells = [len(segments) ** 2 for _, segments in chunk]
        assert sum(cells) >= 50 > sum(cells[:-1])


def test_window_over_the_budget_is_a_chunk_alone(monkeypatch):
    # A window with n * n at or over the budget closes its chunk, so each
    # of a run of such windows (dense clutter) is a chunk of its own.
    monkeypatch.setattr(pipeline, "CHUNK_CELLS", 100)
    windows = {0: [0] * 11, 1: [0] * 10, 2: [0] * 3, 3: [0] * 12, 4: [0] * 2}
    assert [[start for start, _ in chunk] for chunk in pipeline._chunks(windows)] == \
        [[0], [1], [2, 3], [4]]
    monkeypatch.setattr(pipeline, "CHUNK_CELLS", 1)
    assert [[start for start, _ in chunk] for chunk in pipeline._chunks(windows)] == \
        [[0], [1], [2], [3], [4]]
    assert list(pipeline._chunks({})) == []


@pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_records_do_not_depend_on_row_dedupe(inputs, scenario, mode, monkeypatch,
                                             tmp_path):
    detections, rig, cfg = inputs[scenario]
    outputs = []
    for dedupe in (cascade._distinct_rows, lambda rows: (np.arange(len(rows)),) * 2):
        monkeypatch.setattr(cascade, "_distinct_rows", dedupe)
        records, _ = pipeline.run_pipeline(detections, rig, cfg, mode)
        path = tmp_path / "records.jsonl"
        target.save_target_records(records, path)
        outputs.append(path.read_bytes())
    assert outputs[0]
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_records_do_not_depend_on_cells_per_call(inputs, scenario, monkeypatch, tmp_path):
    # Centers, tops and bottoms are solved in runs of CELLS_PER_CALL cells,
    # each run deduplicated on its own.
    detections, rig, cfg = inputs[scenario]
    rows = []
    real = cascade.triangulate_batch
    monkeypatch.setattr(cascade, "triangulate_batch",
                        lambda cams, pixels: rows.append(len(pixels)) or real(cams, pixels))
    outputs = []
    for cells in (1, 5, cascade.CELLS_PER_CALL, 10**9):
        monkeypatch.setattr(cascade, "CELLS_PER_CALL", cells)
        rows.clear()
        records, registry = pipeline.run_pipeline(detections, rig, cfg)
        # Two offsets (top and bottom) for the height solves.
        assert rows and max(rows) <= 2 * cells
        path = tmp_path / "records.jsonl"
        target.save_target_records(records, path)
        outputs.append((path.read_bytes(), [
            (tid, rec.tracklet.points.tobytes(), rec.tracklet.top.tobytes())
            for tid, rec in sorted(registry.tracks.items())]))
    assert outputs[0][0]
    for output in outputs[1:]:
        assert output == outputs[0]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_call_per_stage_and_chunk(inputs, scenario, monkeypatch):
    # Per chunk: one outlier gate and one plane matcher call, and one
    # linkage per distinct window size (of two or more items) per stage.
    detections, rig, cfg = inputs[scenario]
    # A budget that splits each scenario, so chunk edges are checked too.
    monkeypatch.setattr(pipeline, "CHUNK_CELLS", split_budget(
        pipeline.collect_window_segments(detections, rig, cfg)))
    calls = []

    def spy(module, name, sizes=None):
        """Record each call of module.name, with sizes(*args)."""
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append((name, sizes(*args) if sizes else None))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    def plane_windows(points, segments, *_):
        hits = (~np.isnan(points[..., 0])).any(axis=1).tolist()
        return [seg.start for seg, hit in zip(segments, hits) if hit]

    spy(pipeline, "cluster_windows", lambda windows, *_: [len(w) for w in windows])
    spy(cascade, "plane_match_and_fuse", plane_windows)
    spy(cascade, "outlier_gate")
    spy(clustering, "_link", lambda D, _: D.shape[1])
    pipeline.run_pipeline(detections, rig, cfg)

    chunks = [k for k, (name, _) in enumerate(calls) if name == "cluster_windows"]
    assert len(chunks) > 1
    for lo, hi in zip(chunks, chunks[1:] + [len(calls)]):
        chunk = calls[lo:hi]
        names = [name for name, _ in chunk]
        assert names.count("plane_match_and_fuse") == names.count("outlier_gate") == 1
        plane_at = names.index("plane_match_and_fuse")
        starts = chunk[plane_at][1]
        for stage, sizes in ((chunk[:plane_at], chunk[0][1]),
                             (chunk[plane_at:], [starts.count(s) for s in set(starts)])):
            assert [n for name, n in stage if name == "_link"] == \
                sorted({n for n in sizes if n >= 2})
