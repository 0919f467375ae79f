"""End-to-end tracking pipeline: single-view tracking, per-window
cross-view clustering, the triangulation / ray-plane cascade, cross-window
stitching and target maintenance.

Per-camera tracking and per-window association can fan out to a worker
pool; stitching and target maintenance stay sequential.  Stage outputs
are immutable batches passed forward, so the result is independent of the
thread count.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor

from .cascade import Mode, process_window
from .config import PipelineConfig
from .cross_view import cluster_segments
from .geometry import CameraRig
from .stitch import TrackRegistry
from .sv_track import (Detection, WindowSegment2D, segment_windows,
                       track_camera_stream)
from .target import TargetCriteria, TargetMaintainer, TargetRecord

logger = logging.getLogger(__name__)


def collect_window_segments(detections: list[Detection], rig: CameraRig,
                            cfg: PipelineConfig,
                            threads: int = 1) -> dict[int, list[WindowSegment2D]]:
    """Single-view tracking plus segmentation, grouped by window start."""
    per_camera: dict[int, list[Detection]] = {cam.id: [] for cam in rig}
    for det in detections:
        if det.camera not in per_camera:
            raise ValueError(f"detection references unknown camera {det.camera}")
        per_camera[det.camera].append(det)

    def run(camera: int):
        tracklets = track_camera_stream(camera, per_camera[camera],
                                        cfg.iou_threshold, cfg.max_age)
        segments = []
        for t in tracklets:
            segments.extend(segment_windows(t, cfg.window_len,
                                            min_observed=cfg.min_segment_obs))
        return segments

    camera_ids = sorted(per_camera)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, camera_ids))
    else:
        results = [run(c) for c in camera_ids]

    by_window: dict[int, list[WindowSegment2D]] = {}
    for segments in results:
        for seg in segments:
            by_window.setdefault(seg.start, []).append(seg)
    return {start: sorted(segs, key=lambda s: s.key)
            for start, segs in sorted(by_window.items())}


def run_pipeline(detections: list[Detection], rig: CameraRig,
                 cfg: PipelineConfig, mode: Mode = Mode.CASCADE,
                 threads: int = 1) -> tuple[list[TargetRecord], TrackRegistry]:
    """Run the full pipeline and return the per-frame target records plus
    the final track registry (all identities)."""
    plane = cfg.plane()
    space = cfg.space()
    by_window = collect_window_segments(detections, rig, cfg, threads)

    def associate(item):
        start, segments = item
        clusters = cluster_segments(segments, rig, cfg.lambda_2d)
        return start, process_window(
            start, clusters, rig, plane, space, mode=mode,
            theta_opp_deg=cfg.theta_opp, tau_plane=cfg.tau,
            velocity_limit=cfg.nu, opposite_pairs=cfg.opposite_pair_sets())

    items = sorted(by_window.items())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            window_results = list(pool.map(associate, items))
    else:
        window_results = [associate(item) for item in items]

    registry = TrackRegistry(unmatched_threshold=cfg.stitch_threshold)
    maintainer = TargetMaintainer(
        space=space,
        criteria=TargetCriteria(h_top=cfg.h_top, h_bot=cfg.h_bot,
                                delta=cfg.identify_delta),
        max_gap=cfg.max_gap_fill, buffer_scale=cfg.buffer_scale,
        smooth_window=cfg.smooth_window)
    for start, window_tracks in window_results:
        registry.advance(start, window_tracks)
        maintainer.observe(start, cfg.window_len, registry)

    records = maintainer.finalize(registry, rig)
    logger.info("pipeline: %d tracks, %d target frames",
                len(registry.tracks), len(records))
    return records, registry
