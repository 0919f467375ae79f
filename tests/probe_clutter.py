"""Dense-clutter probe: association cost when every view holds many boxes.

    PYTHONPATH=src python tests/probe_clutter.py 200
    PYTHONPATH=src python tests/probe_clutter.py 50 --budget 1

Runs `run_pipeline` once on 20 frames of the clean-4cam rig in which every
camera sees, at every frame, `n` static boxes placed uniformly in the image
(w 40-80 px, h 100-200 px) with sigma = 1 px jitter on x and y, under the
default config.  Prints one JSON line: the pipeline's wall seconds, the
process's max RSS in MB, the sha256 of the target records as `mvtrack
track` writes them, and a sha256 of every stitched track's id, first frame,
points and provenance (clutter rarely yields a target, so the records can
be empty).  `--budget` sets `pipeline.CHUNK_CELLS`, so runs at different
budgets must print the same digests.  pytest does not collect this file;
the seconds are for comparing runs of this script on one host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from mvtrack import pipeline
from mvtrack.config import PipelineConfig
from mvtrack.geometry import CameraRig
from mvtrack.scenarios import get_scenario_spec
from mvtrack.simulate import build_scenario
from mvtrack.sv_track import Detections
from mvtrack.target import save_target_records

FRAMES = 20
SEED = 0


def clutter(n: int, rig: CameraRig, width: float, height: float) -> Detections:
    """`n` jittered static boxes per camera and frame, in (frame, camera) order."""
    rng = np.random.default_rng(SEED)
    cameras = sorted(cam.id for cam in rig)
    static = np.stack([rng.uniform(0, width, (len(cameras), n)),
                       rng.uniform(0, height, (len(cameras), n)),
                       rng.uniform(40, 80, (len(cameras), n)),
                       rng.uniform(100, 200, (len(cameras), n))], axis=-1)
    boxes = np.repeat(static[None], FRAMES, axis=0)
    boxes[..., :2] += rng.normal(0.0, 1.0, boxes[..., :2].shape)
    frame, camera, _ = np.meshgrid(np.arange(FRAMES), cameras, np.arange(n), indexing="ij")
    return Detections(frame.ravel(), camera.ravel(), boxes.reshape(-1, 4))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="boxes per camera and frame")
    parser.add_argument("--budget", type=int, default=pipeline.CHUNK_CELLS,
                        help="pipeline.CHUNK_CELLS for this run")
    args = parser.parse_args()

    spec = get_scenario_spec("clean-4cam")
    scene = build_scenario(spec)
    width, height = spec["rig"]["resolution"]
    detections = clutter(args.n, CameraRig(scene.rig), width, height)
    cfg = PipelineConfig(plane_n=scene.plane.n, plane_point=scene.plane.point,
                         perf_space=scene.space.perf, beta=scene.space.beta)
    pipeline.CHUNK_CELLS = args.budget

    t0 = time.perf_counter()
    records, registry = pipeline.run_pipeline(detections, CameraRig(scene.rig), cfg)
    seconds = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracklets.jsonl"
        save_target_records(records, path)
        records_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    tracks = hashlib.sha256()
    for tid, rec in sorted(registry.tracks.items()):
        tracks.update(np.array([tid, rec.first]).tobytes() + rec.points.tobytes()
                      + rec.provenance.tobytes())
    print(json.dumps({"n": args.n, "budget": args.budget, "seconds": round(seconds, 3),
                      "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                          / 1024, 1),
                      "records": len(records), "records_sha256": records_digest,
                      "tracks": len(registry.tracks), "tracks_sha256": tracks.hexdigest()}))


if __name__ == "__main__":
    main()
