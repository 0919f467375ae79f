"""Chunked association: `run_pipeline` clusters and solves a run of windows
at once, then stitches them in order.  A window's tracks must not depend
on the windows it shares a chunk with, so the target records are the same
bytes for every chunk size, and the same whether or not a box tuple that
recurs in a chunk is solved once."""

import numpy as np
import pytest
from click.testing import CliRunner

from mvtrack import cascade, config, pipeline, target
from mvtrack.cascade import Mode
from mvtrack.cli import main
from mvtrack.geometry import CameraRig, load_calibration
from mvtrack.sv_track import load_detections

SCENARIOS = ("clean-4cam", "opposite-only-episode", "crowded-distractors")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    loaded = {}
    for name in SCENARIOS:
        out = tmp_path_factory.mktemp(name)
        result = CliRunner().invoke(main, ["simulate", name, "--out", str(out)])
        assert result.exit_code == 0, result.output
        loaded[name] = (load_detections(out / "detections.jsonl"),
                        CameraRig(load_calibration(out / "calib.json")),
                        config.load_routine_config(out / "routine.json"))
    return loaded


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
