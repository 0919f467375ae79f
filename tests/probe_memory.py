"""Memory probe: the traced peak of `run_pipeline` on a long clip, the
size of the target output it returns, and the traced peak and time of
scoring that output.

    PYTHONPATH=src python tests/probe_memory.py
    PYTHONPATH=src python tests/probe_memory.py --frames 1800

Simulates clean-4cam at `--frames` frames (7 200 by default), then runs
`run_pipeline` once under tracemalloc.  Then it writes the output and the
ground truth as `mvtrack track` and `mvtrack simulate` do, and scores
them as `mvtrack evaluate` does (`load_target_records`, `load_truth`,
`evaluate`), once timed and once under tracemalloc.  Prints one JSON
line: the frames of the clip and of the output, the traced peak of the
run in MB, the traced MB that the returned output holds (what is freed
when it is dropped, the registry kept), and the traced peak in MB and the
untraced seconds of scoring.  The simulation and the writes are not
traced.  pytest does not collect this file; compare only runs of this
script.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

from mvtrack import metrics, pipeline, target
from mvtrack.config import PipelineConfig
from mvtrack.geometry import CameraRig
from mvtrack.records import write_jsonl
from mvtrack.scenarios import get_scenario_spec
from mvtrack.simulate import build_scenario, load_truth, render_detections

MB = 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames", type=int, default=7200, help="clip length in frames")
    args = parser.parse_args()

    spec = get_scenario_spec("clean-4cam")
    spec["duration"] = args.frames
    scene = build_scenario(spec)
    tmp = tempfile.TemporaryDirectory()
    tracklets, truth = Path(tmp.name) / "tracklets.jsonl", Path(tmp.name) / "truth.jsonl"
    detections, truth_rows = render_detections(scene)
    write_jsonl(truth, truth_rows)
    del truth_rows
    cfg = PipelineConfig(plane_n=scene.plane.n, plane_point=scene.plane.point,
                         perf_space=scene.space.perf, beta=scene.space.beta)

    tracemalloc.start()
    records, _registry = pipeline.run_pipeline(detections, CameraRig(scene.rig), cfg)
    frames, peak = len(records), tracemalloc.get_traced_memory()[1]
    target.save_target_records(records, tracklets)
    held = tracemalloc.get_traced_memory()[0]
    del records
    output = held - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del detections, _registry

    t0 = time.perf_counter()
    metrics.evaluate(target.load_target_records(tracklets), load_truth(truth))
    score_s = time.perf_counter() - t0
    tracemalloc.start()
    metrics.evaluate(target.load_target_records(tracklets), load_truth(truth))
    score_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tmp.cleanup()
    print(json.dumps({"frames": args.frames, "records": frames,
                      "peak_mb": round(peak / MB, 2), "output_mb": round(output / MB, 3),
                      "score_peak_mb": round(score_peak / MB, 2),
                      "score_s": round(score_s, 3)}))


if __name__ == "__main__":
    main()
