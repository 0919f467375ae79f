"""Traced copy of `mvtrack.pipeline.run_pipeline` (serial path).

It drives the same stages through their public functions and times each
call from outside the package, collecting per-layer times and counts.
The benchmark fails a traced run whose target records differ from
`run_pipeline`'s, so this copy cannot drift from `pipeline.py` unseen.
"""

from __future__ import annotations

import time
from statistics import mean

from mvtrack.cascade import Provenance, process_window
from mvtrack.cross_view import cluster_segments
from mvtrack.stitch import TrackRegistry
from mvtrack.sv_track import segment_windows, track_camera_stream
from mvtrack.target import TargetCriteria, TargetMaintainer


def _timed(spans: dict[str, float], name: str, fn, *args, **kwargs):
    """Call fn(*args, **kwargs), adding its wall seconds to spans[name]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    dt = time.perf_counter() - t0
    spans[name] = spans.get(name, 0.0) + dt
    return out, dt


def run_traced(detections, rig, cfg) -> tuple[list, dict, list[float]]:
    """Run the pipeline stage by stage.

    Returns (target records, per-layer metrics, per-window milliseconds).
    """
    spans: dict[str, float] = {}
    plane, space = cfg.plane(), cfg.space()
    opposite = cfg.opposite_pair_sets()

    per_camera = {cam.id: [] for cam in rig}
    for det in detections:
        if det.camera not in per_camera:
            raise ValueError(f"detection references unknown camera {det.camera}")
        per_camera[det.camera].append(det)
    n_tracklets = 0
    by_window: dict[int, list] = {}
    for camera in sorted(per_camera):
        tracklets, _ = _timed(spans, "sv_track.track_s", track_camera_stream,
                              camera, per_camera[camera], cfg.iou_threshold,
                              cfg.max_age)
        n_tracklets += len(tracklets)
        for t in tracklets:
            segments, _ = _timed(spans, "sv_track.segment_s", segment_windows,
                                 t, cfg.window_len,
                                 min_observed=cfg.min_segment_obs)
            for seg in segments:
                by_window.setdefault(seg.start, []).append(seg)

    window_ms: dict[int, float] = {}
    window_results = []
    n_segments = seg_max = pairs = n_clusters = 0
    for start in sorted(by_window):
        segments = sorted(by_window[start], key=lambda s: s.key)
        n = len(segments)
        n_segments += n
        seg_max = max(seg_max, n)
        pairs += n * (n - 1) // 2
        clusters, dt_c = _timed(spans, "cross_view.s", cluster_segments,
                                segments, rig, cfg.lambda_2d)
        n_clusters += len(clusters)
        tracks, dt_p = _timed(
            spans, "cascade.s", process_window, start, clusters, rig, plane,
            space, theta_opp_deg=cfg.theta_opp, tau_plane=cfg.tau,
            velocity_limit=cfg.nu, opposite_pairs=opposite)
        window_ms[start] = 1e3 * (dt_c + dt_p)
        window_results.append((start, tracks))

    registry = TrackRegistry(unmatched_threshold=cfg.stitch_threshold)
    maintainer = TargetMaintainer(
        space=space,
        criteria=TargetCriteria(h_top=cfg.h_top, h_bot=cfg.h_bot,
                                delta=cfg.identify_delta),
        max_gap=cfg.max_gap_fill, buffer_scale=cfg.buffer_scale)
    advance_s: list[float] = []
    live_counts: list[int] = []
    for start, tracks in window_results:
        live_counts.append(len(registry.live_tracks(start)))
        _, dt_s = _timed(spans, "stitch.s", registry.advance, start, tracks)
        advance_s.append(dt_s)
        _, dt_o = _timed(spans, "target.observe_s", maintainer.observe,
                         start, cfg.window_len, registry)
        window_ms[start] += 1e3 * (dt_s + dt_o)
    records, _ = _timed(spans, "target.finalize_s", maintainer.finalize,
                        registry, rig)

    window_tracks = [wt for _, tracks in window_results for wt in tracks]
    by_branch = {p: [wt for wt in window_tracks
                     if _branch(wt.tracklet) is p]
                 for p in (Provenance.TRIANGULATED, Provenance.PLANE_INTERSECTED)}
    quarter = max(1, len(advance_s) // 4)
    layer: dict[str, float] = dict(spans)
    layer.update({
        "sv_track.tracklets": n_tracklets,
        "sv_track.segments": n_segments,
        "cross_view.windows": len(by_window),
        "cross_view.segments_per_window_max": seg_max,
        "cross_view.pair_distances": pairs,
        "cross_view.clusters": n_clusters,
        "cascade.tracks_triangulated": len(by_branch[Provenance.TRIANGULATED]),
        "cascade.tracks_plane": len(by_branch[Provenance.PLANE_INTERSECTED]),
        "cascade.triangulated_frames": sum(
            len(wt.tracklet.points) for wt in by_branch[Provenance.TRIANGULATED]),
        "cascade.plane_frames": sum(
            len(wt.tracklet.points) for wt in by_branch[Provenance.PLANE_INTERSECTED]),
        "cascade.tracks_per_cluster": len(window_tracks) / max(1, n_clusters),
        "stitch.live_tracks_mean": mean(live_counts) if live_counts else 0.0,
        "stitch.new_ids": len(registry.tracks),
        "stitch.tracks_total": len(window_tracks),
        "stitch.growth_ratio": (mean(advance_s[-quarter:]) / mean(advance_s[:quarter])
                                if advance_s else 1.0),
        "target.frames": len(records),
        "target.tenures": len(maintainer.tenures),
    })
    return records, layer, [window_ms[s] for s in sorted(window_ms)]


def _branch(tracklet) -> Provenance:
    """The cascade branch a window track came from; every frame of a
    window track carries the provenance of its branch."""
    return tracklet.provenance[tracklet.frames[0]]
