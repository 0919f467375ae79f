"""Chunked association: `run_pipeline` sorts every window segment into one
table, then clusters and solves a run of windows, a slice of its rows, at
once, and stitches them in order.  A window's tracks must not depend on the
windows it shares a chunk with, so the target records are the same bytes
for every chunk size, and the same whether or not a box tuple that recurs
in a chunk is solved once.  The table must equal the per-object grouping
it replaced, kept here as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack import cascade, clustering, pipeline, sv_track, target
from mvtrack.cascade import Mode
from mvtrack.scenarios import get_scenario_spec
from mvtrack.sv_track import (Detections, Segments, Tracklet2D, segment_windows,
                              track_camera_stream, run_edges)

from conftest import simulated

SCENARIOS = ("clean-4cam", "opposite-only-episode", "crowded-distractors")


@pytest.fixture(scope="module")
def inputs():
    return {name: simulated(get_scenario_spec(name)) for name in SCENARIOS}


def window_sizes(segments) -> np.ndarray:
    """The segment count of each window of a sorted table."""
    return np.diff(run_edges(segments.start))


def window_starts(segments) -> list[int]:
    return segments.start[run_edges(segments.start)[:-1]].tolist()


def split_budget(segments, parts=3):
    """A CHUNK_CELLS value that cuts the windows of `segments` into `parts`
    or so chunks, each closing mid-clip."""
    return max(1, int((window_sizes(segments) ** 2).sum()) // parts)


def table_of(sizes: dict) -> Segments:
    """A sorted table with sizes[start] rows of one-frame segments at each
    start, the track ids counting the rows."""
    starts = np.repeat(np.array(list(sizes), np.int64), list(sizes.values()))
    return Segments(np.zeros(len(starts), np.int64), np.arange(len(starts)), starts,
                    np.zeros((len(starts), 1, 4)))


@pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_records_do_not_depend_on_chunk_size(inputs, scenario, mode, monkeypatch,
                                             tmp_path):
    detections, rig, cfg = inputs[scenario]
    windows = pipeline.collect_window_segments(detections, rig, cfg)
    n_windows = len(window_sizes(windows))
    chunk_sizes = []
    real = pipeline.cluster_windows

    def spy(segments, *args):
        chunk_sizes.append(len(window_sizes(segments)))
        return real(segments, *args)
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
    # The window from 80 has no segment, so no rows: it is in no chunk.
    segments = table_of(dict(zip(range(0, 100, 10), (3, 4, 8, 1, 2, 5, 5, 6, 0, 1))))
    chunks = list(pipeline._chunks(segments))
    # Every row once, in order, each chunk a copy of a run of the table's
    # rows, so the table need not outlive the chunks.
    assert np.concatenate([c.track_id for c in chunks]).tolist() == \
        segments.track_id.tolist()
    assert not any(np.shares_memory(c.boxes, segments.boxes) for c in chunks)
    assert [window_starts(chunk) for chunk in chunks] == \
        [[0, 10, 20], [30, 40, 50, 60], [70, 90]]
    # Each chunk but the last closes at the first window that reaches the
    # budget: 9 + 16 + 64 = 89, then 1 + 4 + 25 + 25 = 55.
    for chunk in chunks[:-1]:
        cells = (window_sizes(chunk) ** 2).tolist()
        assert sum(cells) >= 50 > sum(cells[:-1])


def test_window_over_the_budget_is_a_chunk_alone(monkeypatch):
    # A window with n * n at or over the budget closes its chunk, so each
    # of a run of such windows (dense clutter) is a chunk of its own.
    monkeypatch.setattr(pipeline, "CHUNK_CELLS", 100)
    windows = table_of({0: 11, 1: 10, 2: 3, 3: 12, 4: 2})
    assert [window_starts(chunk) for chunk in pipeline._chunks(windows)] == \
        [[0], [1], [2, 3], [4]]
    monkeypatch.setattr(pipeline, "CHUNK_CELLS", 1)
    assert [window_starts(chunk) for chunk in pipeline._chunks(windows)] == \
        [[0], [1], [2], [3], [4]]
    assert list(pipeline._chunks(table_of({}))) == []


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
            (tid, rec.points.tobytes(), rec.top.tobytes())
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
        return segments.start[(~np.isnan(points[..., 0])).any(axis=1)].tolist()

    spy(pipeline, "cluster_windows", lambda segments, *_: window_sizes(segments).tolist())
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


def reference_grouping(tracklets, cfg) -> list[tuple]:
    """The per-object grouping the table replaced: each tracklet's window
    segments as (camera, track_id, start, boxes) objects, grouped by start
    and each group sorted by (camera, track_id), the windows in start order."""
    by_window: dict[int, list[tuple]] = {}
    for t in tracklets:
        segs = segment_windows(t, cfg.window_len, min_observed=cfg.min_segment_obs)
        for seg in zip(segs.camera.tolist(), segs.track_id.tolist(), segs.start.tolist(),
                       segs.boxes):
            by_window.setdefault(seg[2], []).append(seg)
    return [seg for _, segs in sorted(by_window.items())
            for seg in sorted(segs, key=lambda s: s[:2])]


def assert_table_equals_grouping(table: Segments, grouping: list[tuple]) -> None:
    """Column for column, the boxes bit for bit (so NaN where NaN)."""
    assert list(zip(table.camera.tolist(), table.track_id.tolist(),
                    table.start.tolist())) == [seg[:3] for seg in grouping]
    assert table.boxes.tobytes() == b"".join(seg[3].tobytes() for seg in grouping)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_segment_table_equals_per_object_grouping(inputs, scenario):
    detections, rig, cfg = inputs[scenario]
    tracklets = [t for camera in sorted(cam.id for cam in rig)
                 for t in track_camera_stream(camera, detections.take(detections.camera == camera),
                                              cfg.iou_threshold, cfg.max_age)]
    table = pipeline.collect_window_segments(detections, rig, cfg)
    assert len(table) > 100
    assert_table_equals_grouping(table, reference_grouping(tracklets, cfg))


@st.composite
def camera_tracklets(draw):
    """Per camera of four, tracklets of distinct ids in random order, with
    random increasing frames and boxes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = {}
    for camera in range(4):
        out[camera] = []
        for tid in draw(st.lists(st.integers(0, 40), unique=True, max_size=5)):
            frames = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=40)))
            out[camera].append(Tracklet2D(camera, tid, np.array(frames, np.int64),
                                          rng.uniform(1.0, 500.0, size=(len(frames), 4))))
    return out


@settings(max_examples=60, deadline=None)
@given(camera_tracklets())
def test_segment_table_equals_per_object_grouping_on_tracklets(inputs, tracklets):
    _, rig, cfg = inputs["clean-4cam"]
    no_detections = Detections(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "track_camera_stream", lambda camera, *_: tracklets[camera])
        table = pipeline.collect_window_segments(no_detections, rig, cfg)
    assert_table_equals_grouping(
        table, reference_grouping([t for camera in range(4) for t in tracklets[camera]], cfg))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_no_stage_builds_segment_rows(inputs, scenario, monkeypatch):
    # `WindowSegment2D` is only the row view of the bench adapters.
    def refuse(*args, **kwargs):
        raise AssertionError("a stage built a WindowSegment2D")
    monkeypatch.setattr(sv_track.WindowSegment2D, "__init__", refuse)
    records, registry = pipeline.run_pipeline(*inputs[scenario])
    assert len(records) and registry.tracks
