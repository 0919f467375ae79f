"""End-to-end tracking pipeline: single-view tracking, per-window
cross-view clustering, the triangulation / ray-plane cascade, cross-window
stitching and target maintenance, run in one thread.

Windows are associated in chunks: consecutive windows are buffered, in
order, until they hold at least CHUNK_SEGMENTS segments; the chunk is
clustered (`cluster_windows`) and solved (`process_windows`) at once, and
only then is each of its windows stitched and observed, in window order.
This is safe because association reads only a window's own segments,
never the track registry, and every batched solve is row-independent, so
a window's tracks are the same in any chunk.  Budgeting in segments rather
than windows bounds the stacked temporaries on crowded clips.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator

import numpy as np

from .cascade import Mode, process_windows
from .config import PipelineConfig
from .cross_view import cluster_windows
from .geometry import CameraRig
from .stitch import TrackRegistry
from .sv_track import Detections, WindowSegment2D, segment_windows, track_camera_stream
from .target import TargetMaintainer, TargetRecord

logger = logging.getLogger(__name__)

CHUNK_SEGMENTS = 128


def collect_window_segments(detections: Detections, rig: CameraRig,
                            cfg: PipelineConfig) -> dict[int, list[WindowSegment2D]]:
    """Single-view tracking plus segmentation, grouped by window start."""
    cameras = sorted(cam.id for cam in rig)
    unknown = ~np.isin(detections.camera, cameras)
    if unknown.any():
        raise ValueError(f"detection references unknown camera "
                         f"{detections.camera[unknown][0]}")

    by_window: dict[int, list[WindowSegment2D]] = {}
    for camera in cameras:
        for t in track_camera_stream(camera, detections.take(detections.camera == camera),
                                     cfg.iou_threshold, cfg.max_age):
            for seg in segment_windows(t, cfg.window_len,
                                       min_observed=cfg.min_segment_obs):
                by_window.setdefault(seg.start, []).append(seg)
    return {start: sorted(segs, key=lambda s: s.key)
            for start, segs in sorted(by_window.items())}


def _chunks(windows: dict[int, list[WindowSegment2D]]
            ) -> Iterator[list[tuple[int, list[WindowSegment2D]]]]:
    """Consecutive (start, segments) runs of `windows`, in order, each
    closed once it holds at least CHUNK_SEGMENTS segments."""
    chunk: list[tuple[int, list[WindowSegment2D]]] = []
    size = 0
    for start, segments in windows.items():
        chunk.append((start, segments))
        size += len(segments)
        if size >= CHUNK_SEGMENTS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def run_pipeline(detections: Detections, rig: CameraRig,
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
    for chunk in _chunks(collect_window_segments(detections, rig, cfg)):
        starts = [start for start, _ in chunk]
        clusters = cluster_windows([segments for _, segments in chunk], rig, cfg.lambda_2d)
        tracks = process_windows(
            starts, clusters, rig, plane, space, mode=mode,
            theta_opp_deg=cfg.theta_opp, tau_plane=cfg.tau,
            velocity_limit=cfg.nu, opposite_pairs=opposite_pairs)
        for start, window_tracks in zip(starts, tracks):
            registry.advance(start, window_tracks)
            maintainer.observe(start, cfg.window_len, registry)

    records = maintainer.finalize(registry, rig)
    logger.info("pipeline: %d tracks, %d target frames",
                len(registry.tracks), len(records))
    return records, registry
