"""End-to-end tracking pipeline: single-view tracking, per-window
cross-view clustering, the triangulation / ray-plane cascade, cross-window
stitching and target maintenance, run in one thread.

Every window segment is a row of one `Segments` table, sorted once, and
windows are associated in chunks, runs of its rows: consecutive windows
are taken, in order, until the sum of n * n over their segment counts n
reaches CHUNK_CELLS; the chunk is clustered (`cluster_windows`) and solved
(`process_windows`) with one call per stage, and then each window is
stitched and observed, in order.  This is safe because association reads
only a window's own segments, never the track registry, and every batched
solve is row-independent, so a window's tracks are the same in any chunk.
The budget is in distance cells because a chunk's largest temporaries are
its windows' (n, n) distance arrays and their pairs.  It bounds the
segment count too (n <= n * n): in dense clutter, where each window's
n * n exceeds the budget, every window is a chunk of its own, while a
600-frame clip of a few people is associated in one chunk.
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
from .sv_track import (Detections, Segments, run_edges, segment_windows,
                       track_camera_stream)
from .target import TargetMaintainer, TargetRecords

logger = logging.getLogger(__name__)

CHUNK_CELLS = 32768


def collect_window_segments(detections: Detections, rig: CameraRig,
                            cfg: PipelineConfig) -> Segments:
    """Single-view tracking plus segmentation: every window segment of the
    run, one table sorted by (start, camera, track_id)."""
    unknown = ~np.isin(detections.camera, rig.ids)
    if unknown.any():
        raise ValueError(f"detection references unknown camera "
                         f"{detections.camera[unknown][0]}")
    return Segments.concat([
        segment_windows(t, cfg.window_len, min_observed=cfg.min_segment_obs)
        for camera in rig.ids.tolist()
        for t in track_camera_stream(camera, detections.take(detections.camera == camera),
                                     cfg.iou_threshold, cfg.max_age)],
        cfg.window_len + 1).sorted()


def _chunks(segments: Segments) -> Iterator[Segments]:
    """Consecutive runs of whole windows of `segments`, in order, each
    closed once the sum of its windows' squared segment counts reaches
    CHUNK_CELLS.  Each is a copy of its rows, taken before the first is
    yielded, so the table is freed, and so is each chunk once it is done."""
    edges, chunks, lo, size = run_edges(segments.start), [], 0, 0
    for start, end in zip(edges, edges[1:]):
        size += (end - start) ** 2
        if size >= CHUNK_CELLS or end == len(segments):
            chunks.append(segments.take(np.arange(lo, end)))
            lo, size = end, 0
    del segments
    while chunks:
        yield chunks.pop(0)


def run_pipeline(detections: Detections, rig: CameraRig,
                 cfg: PipelineConfig,
                 mode: Mode = Mode.CASCADE) -> tuple[TargetRecords, TrackRegistry]:
    """Run the full pipeline and return the target output as columns plus
    the final track registry (all identities)."""
    plane, space, opposite_pairs = cfg.plane(), cfg.space(), cfg.opposite_pair_sets()
    registry = TrackRegistry(unmatched_threshold=cfg.stitch_threshold)
    maintainer = TargetMaintainer(
        space=space, criteria=cfg.criteria(), max_gap=cfg.max_gap_fill,
        buffer_scale=cfg.buffer_scale, smooth_window=cfg.smooth_window)
    # Each window's tracks, in order, a chunk at a time.
    windows = (window for chunk in _chunks(collect_window_segments(detections, rig, cfg))
               for window in process_windows(
                   chunk, cluster_windows(chunk, rig, cfg.lambda_2d), rig, plane, space,
                   mode=mode, theta_opp_deg=cfg.theta_opp, tau_plane=cfg.tau,
                   velocity_limit=cfg.nu, opposite_pairs=opposite_pairs).items())
    for start, window_tracks in windows:
        registry.advance(start, window_tracks)
        maintainer.observe(start, cfg.window_len, registry)

    records = maintainer.finalize(registry, rig)
    logger.info("pipeline: %d tracks, %d target frames",
                len(registry.tracks), len(records))
    return records, registry
