"""End-to-end tracking pipeline: single-view tracking, per-window
cross-view clustering, the triangulation / ray-plane cascade, cross-window
stitching and target maintenance, run in one thread.

The per-frame numpy work is small and holds the interpreter lock, so a
thread pool over cameras or windows made every run slower; parallelism
would have to come from processes, sharded by window.
"""

from __future__ import annotations

import logging

from .cascade import Mode, process_window
from .config import PipelineConfig
from .cross_view import cluster_segments
from .geometry import CameraRig
from .stitch import TrackRegistry
from .sv_track import (Detection, WindowSegment2D, segment_windows,
                       track_camera_stream)
from .target import TargetMaintainer, TargetRecord

logger = logging.getLogger(__name__)


def collect_window_segments(detections: list[Detection], rig: CameraRig,
                            cfg: PipelineConfig) -> dict[int, list[WindowSegment2D]]:
    """Single-view tracking plus segmentation, grouped by window start."""
    per_camera: dict[int, list[Detection]] = {cam.id: [] for cam in rig}
    for det in detections:
        if det.camera not in per_camera:
            raise ValueError(f"detection references unknown camera {det.camera}")
        per_camera[det.camera].append(det)

    by_window: dict[int, list[WindowSegment2D]] = {}
    for camera in sorted(per_camera):
        for t in track_camera_stream(camera, per_camera[camera],
                                     cfg.iou_threshold, cfg.max_age):
            for seg in segment_windows(t, cfg.window_len,
                                       min_observed=cfg.min_segment_obs):
                by_window.setdefault(seg.start, []).append(seg)
    return {start: sorted(segs, key=lambda s: s.key)
            for start, segs in sorted(by_window.items())}


def run_pipeline(detections: list[Detection], rig: CameraRig,
                 cfg: PipelineConfig,
                 mode: Mode = Mode.CASCADE) -> tuple[list[TargetRecord], TrackRegistry]:
    """Run the full pipeline and return the per-frame target records plus
    the final track registry (all identities)."""
    plane = cfg.plane()
    space = cfg.space()
    opposite_pairs = cfg.opposite_pair_sets()
    registry = TrackRegistry(unmatched_threshold=cfg.stitch_threshold)
    maintainer = TargetMaintainer(
        space=space, criteria=cfg.criteria(), max_gap=cfg.max_gap_fill,
        buffer_scale=cfg.buffer_scale, smooth_window=cfg.smooth_window)
    for start, segments in collect_window_segments(detections, rig, cfg).items():
        clusters = cluster_segments(segments, rig, cfg.lambda_2d)
        window_tracks = process_window(
            start, clusters, rig, plane, space, mode=mode,
            theta_opp_deg=cfg.theta_opp, tau_plane=cfg.tau,
            velocity_limit=cfg.nu, opposite_pairs=opposite_pairs)
        registry.advance(start, window_tracks)
        maintainer.observe(start, cfg.window_len, registry)

    records = maintainer.finalize(registry, rig)
    logger.info("pipeline: %d tracks, %d target frames",
                len(registry.tracks), len(records))
    return records, registry
