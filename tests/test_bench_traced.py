"""The benchmark's traced run (`bench/traced.py`) drives the pipeline stage
by stage through the package's public functions.  This guard runs it
against `run_pipeline`, so an API change that breaks the traced run fails
here and not only in the benchmark.  The module is loaded from its file,
read-only."""

import types
from pathlib import Path

from click.testing import CliRunner

from mvtrack import config, pipeline, target
from mvtrack.cli import main
from mvtrack.geometry import CameraRig, load_calibration
from mvtrack.pipeline import run_pipeline
from mvtrack.sv_track import load_detections, run_edges

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def load_traced():
    # Compiled from source, so no bytecode cache is written next to it.
    module = types.ModuleType("bench_traced")
    exec(compile(TRACED.read_text(), str(TRACED), "exec"), module.__dict__)
    return module


def spy_counts(monkeypatch) -> dict:
    """Counts of `run_pipeline`'s table path, filled as it runs: segments,
    windows, clusters and window tracks."""
    counts = dict.fromkeys(("segments", "windows", "clusters", "tracks"), 0)
    collect, cluster, process = (pipeline.collect_window_segments, pipeline.cluster_windows,
                                 pipeline.process_windows)

    def collect_spy(*args):
        segments = collect(*args)
        counts["segments"] += len(segments)
        counts["windows"] += len(run_edges(segments.start)) - 1
        return segments

    def cluster_spy(*args):
        clusters = cluster(*args)
        counts["clusters"] += len(clusters)
        return clusters

    def process_spy(*args, **kwargs):
        tracks = process(*args, **kwargs)
        counts["tracks"] += sum(map(len, tracks.values()))
        return tracks
    monkeypatch.setattr(pipeline, "collect_window_segments", collect_spy)
    monkeypatch.setattr(pipeline, "cluster_windows", cluster_spy)
    monkeypatch.setattr(pipeline, "process_windows", process_spy)
    return counts


def test_traced_run_equals_run_pipeline(tmp_path, monkeypatch):
    result = CliRunner().invoke(main, ["simulate", "opposite-only-episode",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    detections = load_detections(tmp_path / "detections.jsonl")
    rig = CameraRig(load_calibration(tmp_path / "calib.json"))
    cfg = config.load_routine_config(tmp_path / "routine.json")

    counts = spy_counts(monkeypatch)
    records, _registry = run_pipeline(detections, rig, cfg)
    monkeypatch.undo()
    traced_records, layer, window_ms = load_traced().run_traced(detections, rig, cfg)

    target.save_target_records(records, tmp_path / "plain.jsonl")
    target.save_target_records(traced_records, tmp_path / "traced.jsonl")
    assert records
    assert (tmp_path / "traced.jsonl").read_bytes() == \
        (tmp_path / "plain.jsonl").read_bytes()
    assert layer["target.frames"] == len(records)
    # The traced run's adapters count what the table path counts.
    assert counts["segments"] > 0 and counts["clusters"] > 0
    assert (layer["sv_track.segments"], layer["cross_view.windows"],
            layer["cross_view.clusters"], layer["stitch.tracks_total"]) == \
        (counts["segments"], counts["windows"], counts["clusters"], counts["tracks"])
    assert layer["sv_track.track_s"] > 0 and layer["stitch.s"] > 0
    assert window_ms
