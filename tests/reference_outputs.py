"""The regression reference: the target output of every run on a fixed grid
of inputs, checked by `test_reference_outputs.py`.

    PYTHONPATH=src python tests/reference_outputs.py

rewrites `reference_outputs.json` from the current code.  A change that
moves an output on purpose reruns it and says which entries changed.

The grid: the benchmark workloads at two seeds (specs read from
`bench/workloads.py`, compiled from its source so nothing is written
there), the canned scenarios, and three scenes where every camera goes
dark so the target is lost and found again; each run in every mode.

Each entry holds the sha256 of `tracklets.jsonl` and of the tenures, which
the test compares only on the numpy version and platform that wrote them,
and a platform-tolerant form it always compares: the frames, track ids,
provenance, per-view cameras and tenures exactly, and exactly rounded sums
of X and of the per-view box values within SUM_TOL.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np

from mvtrack import pipeline, target
from mvtrack.cascade import Mode
from mvtrack.scenarios import get_scenario_spec

from conftest import simulated

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference_outputs.json")
SUM_TOL = 1e-9
SEEDS = (1, 90210)
ALL_DARK = [0, 1, 2, 3]


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _dark(name: str, intervals, duration: int | None = None) -> dict:
    spec = get_scenario_spec(name)
    if duration is not None:
        spec["duration"] = duration
    spec["dropout"] += [{"cameras": ALL_DARK, "start": a, "end": b} for a, b in intervals]
    return spec


def specs() -> dict[str, dict]:
    """Scenario spec of every input on the grid, by name."""
    workloads = _workloads()
    out = {f"{name}-seed{seed}": workloads.workload_spec(name, seed)
           for name in workloads.WORKLOADS for seed in SEEDS}
    out.update((name, get_scenario_spec(name))
               for name in ("clean-4cam", "opposite-only-episode", "crowded-distractors"))
    out["loss-opposite-only-episode"] = _dark("opposite-only-episode", [(60, 90), (150, 175)])
    out["loss-clean-4cam"] = _dark("clean-4cam", [(300, 340)], duration=600)
    out["loss-crowded-distractors"] = _dark("crowded-distractors", [(200, 240)])
    return out


def run(spec: dict, mode: Mode) -> tuple[bytes, list[dict]]:
    """(tracklets.jsonl bytes, tenures) of one run."""
    maintainers = []

    class Recording(target.TargetMaintainer):
        def finalize(self, registry, rig):
            maintainers.append(self)
            return super().finalize(registry, rig)

    with mock.patch.object(pipeline, "TargetMaintainer", Recording):
        records, _ = pipeline.run_pipeline(*simulated(spec), mode)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracklets.jsonl"
        target.save_target_records(records, path)
        return path.read_bytes(), maintainers[0].tenures


def _runs(values) -> list[list]:
    """Run-length form: [value, count] for each run of equal values."""
    out: list[list] = []
    for v in values:
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def summary(tracklets: bytes, tenures: list[dict]) -> dict:
    """The reference entry of one run's output."""
    recs = [json.loads(line) for line in tracklets.decode().splitlines()]
    views = [v for r in recs for v in r["per_view"]]
    spans: list[list[int]] = []
    for r in recs:
        if spans and r["frame"] == spans[-1][1] + 1:
            spans[-1][1] = r["frame"]
        else:
            spans.append([r["frame"], r["frame"]])
    return {
        "tracklets_sha256": hashlib.sha256(tracklets).hexdigest(),
        "tenures_sha256": hashlib.sha256(
            json.dumps(tenures, sort_keys=True).encode()).hexdigest(),
        "tolerant": {
            "frames": spans,
            "track_ids": _runs(r["track_id"] for r in recs),
            "provenance": _runs(r["provenance"] for r in recs),
            "cameras": _runs([v["camera"] for v in r["per_view"]] for r in recs),
            "tenures": tenures,
            "x_sums": [math.fsum(r["X"][k] for r in recs) for k in range(3)],
            "box_sums": [math.fsum(v[key] for v in views) for key in "xywh"],
        },
    }


def entries() -> list[tuple[str, dict, Mode]]:
    """(entry name, spec, mode) for every run on the grid."""
    return [(f"{name}/{mode.value}", spec, mode)
            for name, spec in specs().items() for mode in Mode]


def environment() -> dict:
    """What the sha256 values depend on beyond the code."""
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def main() -> None:
    reference = {"environment": environment(),
                 "entries": {name: summary(*run(spec, mode))
                             for name, spec, mode in entries()}}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference['entries'])} entries to {REFERENCE}")


if __name__ == "__main__":
    main()
