"""Heights are solved only where the height trigger reads them.

The cascade solves centers only.  A registry track keeps the window tracks
merged into it pending while they can reach the identification buffer, and
`TargetMaintainer.observe` solves and folds their tops and bottoms only
while no target is held.  These tests run the pipeline end to end against
the eager rule it replaced, kept here as the oracle: every window track's
tops and bottoms solved when it is merged, and averaged into its registry
track at once with the merge's old loop.
"""

from collections import defaultdict

import numpy as np
import pytest

from mvtrack import cascade, pipeline, target
from mvtrack.cascade import BOTTOM, CENTER, TOP, Mode
from mvtrack.geometry import triangulate_batch
from mvtrack.pipeline import run_pipeline
from mvtrack.scenarios import get_scenario_spec
from mvtrack.stitch import TrackRecord, TrackRegistry
from mvtrack.sv_track import Bbox
from mvtrack.target import TargetMaintainer

from conftest import simulated, to_frames

# opposite-only-episode, keeping its own dropout of cameras 1 and 3, with
# every camera dark twice: the target is lost and found again twice.
LOSS = ("opposite-only-episode", ((60, 90), (150, 175)))
CLEAN = ("clean-4cam", ())


def scene_inputs(name, dark):
    spec = get_scenario_spec(name)
    spec["dropout"] += [{"cameras": [0, 1, 2, 3], "start": a, "end": b} for a, b in dark]
    return simulated(spec)


def run_observed(monkeypatch, scene, mode=Mode.CASCADE):
    """run_pipeline on the scene; returns its registry and maintainer."""
    maintainers = []
    observe = TargetMaintainer.observe

    def spy(self, window_start, window_len, registry):
        if not any(m is self for m in maintainers):
            maintainers.append(self)
        observe(self, window_start, window_len, registry)
    monkeypatch.setattr(TargetMaintainer, "observe", spy)
    _, registry = run_pipeline(*scene_inputs(*scene), mode=mode)
    maintainer, = maintainers
    return registry, maintainer


def eager_heights(wt):
    """The window track's tops and bottoms at its own frames, solved one
    frame at a time: a top where it solves, a bottom where both do."""
    top, bottom = {}, {}
    cameras = [cam.id for cam in wt.rig]
    for f in wt.frames.tolist():
        segs = [(camera, Bbox(*boxes[f - wt.first].tolist()))
                for camera, boxes in zip(cameras, wt.links)
                if not np.isnan(boxes[f - wt.first, 0])]
        if len(segs) < 2:
            continue
        pixels = np.array([[(b.x, b.y + off * b.h) for _, b in segs]
                           for off in (TOP, BOTTOM)])
        points, ok = triangulate_batch([wt.rig[camera] for camera, _ in segs], pixels)
        if ok[0]:
            top[f] = points[0]
            if ok[1]:
                bottom[f] = points[1]
    return top, bottom


def test_reidentification_after_two_losses(monkeypatch):
    _, maintainer = run_observed(monkeypatch, LOSS)
    assert maintainer.tenures == [{"id": 0, "identified_at": 20, "end": 60},
                                  {"id": 3, "identified_at": 110, "end": 150},
                                  {"id": 8, "identified_at": 200, "end": None}]


def test_window_tracks_are_read_only(monkeypatch):
    # Heights are solved after each of the scene's losses, returned to the
    # stitched tracks; no window track is written after the cascade.
    returned, solved = [], set()
    process, solve = pipeline.process_windows, target.solve_heights

    def snapshot(wt):
        return (wt.first, wt.points.tobytes(), wt.provenance.tobytes(), wt.links.tobytes(),
                (hasattr(wt, "top"), hasattr(wt, "bottom")))

    def process_spy(*args, **kwargs):
        tracks = process(*args, **kwargs)
        returned.extend((wt, snapshot(wt)) for window in tracks.values() for wt in window)
        return tracks

    def solve_spy(window_tracks):
        solved.update(map(id, window_tracks))
        return solve(window_tracks)
    monkeypatch.setattr(pipeline, "process_windows", process_spy)
    monkeypatch.setattr(target, "solve_heights", solve_spy)
    _, maintainer = run_observed(monkeypatch, LOSS)
    assert len(maintainer.tenures) == 3
    assert any(id(wt) in solved for wt, _ in returned)
    for wt, before in returned:
        assert snapshot(wt) == before
        assert before[-1] == (False, False)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("scene", [CLEAN, LOSS], ids=["clean-4cam", "loss"])
def test_trigger_reads_the_eager_heights(monkeypatch, scene, mode):
    merged, solved = defaultdict(list), {}
    merge, identify = TrackRecord.merge, target.identify_target

    def merge_spy(self, track_id, wt):
        merged[id(self)].append(wt)
        merge(self, track_id, wt)

    def eager(t3):
        """The heights the eager rule gives the track: each merged window
        track's solve averaged in at its merge.  A solve depends on the
        window track alone, so each is computed once, when first needed."""
        heights = ({}, {})
        for wt in merged[id(t3)]:
            if id(wt) not in solved:
                solved[id(wt)] = eager_heights(wt)
            for a, b_solved in zip(heights, solved[id(wt)]):
                for f, b in b_solved.items():
                    a[f] = (a[f] + b) / 2.0 if f in a else b
        return heights

    reads = []

    def identify_spy(t3, space, crit, current_frame):
        first = current_frame - crit.delta
        heights = to_frames(t3)
        for got, want in zip((heights.top, heights.bottom), eager(t3)):
            got, want = ({f: v for f, v in d.items() if first <= f <= current_frame}
                         for d in (got, want))
            assert got.keys() == want.keys()
            for f in got:
                assert np.array_equal(got[f], want[f]), (current_frame, f)
        reads.append((current_frame, len(got)))
        return identify(t3, space, crit, current_frame)

    monkeypatch.setattr(TrackRecord, "merge", merge_spy)
    monkeypatch.setattr(target, "identify_target", identify_spy)
    _, maintainer = run_observed(monkeypatch, scene, mode)
    assert any(n for _, n in reads)
    if scene is LOSS:
        # Heights read after a loss include windows merged under a target.
        assert len(maintainer.tenures) == 3
        assert any(frame > 150 and n for frame, n in reads)


def test_work_bound(monkeypatch):
    _, _, cfg = scene_inputs(*CLEAN)
    bound = cfg.identify_delta // (cfg.window_len // 2) + 2
    state = {"clusters": False, "offsets": None, "held": False, "most": 0}
    solves, rows = [], []
    boxes, batch, clusters, observe, advance = (
        cascade._triangulate_boxes, cascade.triangulate_batch,
        cascade.triangulate_clusters, TargetMaintainer.observe, TrackRegistry.advance)

    def clusters_spy(*args):
        state["clusters"] = True
        try:
            return clusters(*args)
        finally:
            state["clusters"] = False

    def boxes_spy(linked, camera, clusters, rig, offsets):
        solves.append((state["clusters"], offsets))
        state["offsets"] = offsets
        return boxes(linked, camera, clusters, rig, offsets)

    def batch_spy(cams, pixels):
        rows.append((state["offsets"], state["held"], len(pixels)))
        return batch(cams, pixels)

    def advance_spy(self, window_start, window_tracks):
        advance(self, window_start, window_tracks)
        for rec in self.tracks.values():
            assert len(rec.pending) <= bound

    def observe_spy(self, window_start, window_len, registry):
        observe(self, window_start, window_len, registry)
        for rec in registry.tracks.values():
            assert len(rec.pending) <= bound
            state["most"] = max(state["most"], len(rec.pending))
            if rec.last_frame < window_start:  # ended
                assert rec.pending == []
        state["held"] = state["held"] or bool(self.tenures)

    monkeypatch.setattr(cascade, "triangulate_clusters", clusters_spy)
    monkeypatch.setattr(cascade, "_triangulate_boxes", boxes_spy)
    monkeypatch.setattr(cascade, "triangulate_batch", batch_spy)
    monkeypatch.setattr(TrackRegistry, "advance", advance_spy)
    monkeypatch.setattr(TargetMaintainer, "observe", observe_spy)
    run_pipeline(*scene_inputs(*CLEAN))

    assert {offsets for in_clusters, offsets in solves if in_clusters} == {(CENTER,)}
    assert {offsets for in_clusters, offsets in solves if not in_clusters} == {(TOP, BOTTOM)}
    assert state["held"] and state["most"] > 1
    assert any(n for offsets, held, n in rows if offsets == (TOP, BOTTOM))
    assert not any(n for offsets, held, n in rows if offsets == (TOP, BOTTOM) and held)
    assert any(n for offsets, held, n in rows if offsets == (CENTER,) and held)
