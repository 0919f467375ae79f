"""Memory probe: the traced peak of `run_pipeline` on a long clip, and the
size of the target output it returns.

    PYTHONPATH=src python tests/probe_memory.py
    PYTHONPATH=src python tests/probe_memory.py --frames 1800

Simulates clean-4cam at `--frames` frames (7 200 by default), then runs
`run_pipeline` once under tracemalloc.  Prints one JSON line: the frames
of the clip and of the output, the traced peak of the run in MB, and the
traced MB that the returned output holds (what is freed when it is
dropped, the registry kept).  The simulation is not traced.  pytest does
not collect this file; compare only runs of this script.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc

from mvtrack import pipeline
from mvtrack.config import PipelineConfig
from mvtrack.geometry import CameraRig
from mvtrack.scenarios import get_scenario_spec
from mvtrack.simulate import build_scenario, render_detections

MB = 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames", type=int, default=7200, help="clip length in frames")
    args = parser.parse_args()

    spec = get_scenario_spec("clean-4cam")
    spec["duration"] = args.frames
    scene = build_scenario(spec)
    detections, _ = render_detections(scene)
    cfg = PipelineConfig(plane_n=scene.plane.n, plane_point=scene.plane.point,
                         perf_space=scene.space.perf, beta=scene.space.beta)

    tracemalloc.start()
    records, _registry = pipeline.run_pipeline(detections, CameraRig(scene.rig), cfg)
    frames, (held, peak) = len(records), tracemalloc.get_traced_memory()
    del records
    output = held - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(json.dumps({"frames": args.frames, "records": frames,
                      "peak_mb": round(peak / MB, 2), "output_mb": round(output / MB, 3)}))


if __name__ == "__main__":
    main()
