"""Seeded benchmark workloads.

Each workload is a scenario spec derived from one of the package's canned
scenes and parameterised only by the seed.  `mvtrack simulate <spec.json>`
renders it into the input files of a `mvtrack track` job.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

# Name -> why the workload is in the benchmark (BENCHMARK.json).
WORKLOADS = {
    "clean-long": "clean-4cam at 600 frames, all four views: only the triangulation "
                  "branch runs, and stitching and segment_windows grow with the clip",
    "crowd": "nine people, up to 36 segments per window on a short clip: O(n^3) "
             "complete-linkage clustering dominates, stitch growth does not",
    "dropout-cycle": "radius-10 rig, cameras 1 and 3 dark 100 of every 200 frames: "
                     "about half the window tracks come from the ray-plane branch",
}
INPUT_FILES = ("calib.json", "detections.jsonl", "routine.json", "truth.jsonl")

# Not used while the benchmark was tuned; confirm gain claims on it.
HELD_OUT_SEED = 90210

CLEAN_LONG_FRAMES = 600
CROWD_FRAMES = 120
CROWD_WALKER_OFFSETS = (1.2, -1.3, 1.6, -1.7, 2.0, -2.1, 2.4, -2.5)
DROPOUT_FRAMES = 600
DROPOUT_PERIOD = 200


def workload_spec(name: str, seed: int) -> dict:
    """Scenario spec of workload `name` for `seed`."""
    from mvtrack.scenarios import get_scenario_spec

    if name == "clean-long":
        spec = get_scenario_spec("clean-4cam")
        spec["duration"] = CLEAN_LONG_FRAMES
    elif name == "crowd":
        spec = get_scenario_spec("crowded-distractors")
        spec["duration"] = CROWD_FRAMES
        spec["persons"] = spec["persons"][:1] + [
            {"kind": "off_plane_walk", "is_target": False, "offset": off}
            for off in CROWD_WALKER_OFFSETS]
    elif name == "dropout-cycle":
        spec = get_scenario_spec("opposite-only-episode")
        spec["duration"] = DROPOUT_FRAMES
        starts = range(DROPOUT_PERIOD // 2, DROPOUT_FRAMES, DROPOUT_PERIOD)
        half = DROPOUT_PERIOD // 2
        spec["dropout"] = [{"cameras": [1, 3], "start": s, "end": s + half - 1}
                           for s in starts]
        spec["persons"][0]["on_plane_intervals"] = [
            [s - 10, s + half + 10] for s in starts]
    else:
        raise KeyError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")
    spec["seed"] = seed
    return spec


def inputs_digest(directory: Path) -> str:
    """SHA-256 over the generated input files, in a fixed order."""
    h = hashlib.sha256()
    for name in INPUT_FILES:
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()
