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


@pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_records_do_not_depend_on_chunk_size(inputs, scenario, mode, monkeypatch,
                                             tmp_path):
    detections, rig, cfg = inputs[scenario]
    n_windows = len(pipeline.collect_window_segments(detections, rig, cfg))
    chunk_sizes = []
    real = pipeline.cluster_windows

    def spy(windows, *args):
        chunk_sizes.append(len(windows))
        return real(windows, *args)
    monkeypatch.setattr(pipeline, "cluster_windows", spy)

    outputs = []
    for budget in (1, pipeline.CHUNK_SEGMENTS, 10**9):
        monkeypatch.setattr(pipeline, "CHUNK_SEGMENTS", budget)
        chunk_sizes.clear()
        records, _ = pipeline.run_pipeline(detections, rig, cfg, mode)
        assert sum(chunk_sizes) == n_windows
        if budget == 1:
            assert chunk_sizes == [1] * n_windows
        elif budget == 10**9:
            assert chunk_sizes == [n_windows]
        path = tmp_path / f"{budget}.jsonl"
        target.save_target_records(records, path)
        outputs.append(path.read_bytes())
    assert outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


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
def test_one_call_per_stage_and_chunk(inputs, scenario, monkeypatch):
    # Per chunk: one outlier gate and one plane matcher call, and one
    # linkage per distinct window size (of two or more items) per stage.
    detections, rig, cfg = inputs[scenario]
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
