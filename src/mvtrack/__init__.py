"""Multi-camera multi-object 3D tracking with cascaded triangulation and
ray-plane intersection, plus a synthetic rig simulator and evaluator."""

from .cascade import Mode, Provenance, Tracklet3D, TrackingSpace
from .config import PipelineConfig, load_routine_config
from .geometry import CameraModel, CameraRig, PlaneSpec, load_calibration
from .pipeline import run_pipeline
from .sv_track import Bbox, Detection, Tracklet2D, WindowSegment2D

__all__ = [
    "Bbox", "CameraModel", "CameraRig", "Detection", "Mode", "PipelineConfig",
    "PlaneSpec", "Provenance", "Tracklet2D", "Tracklet3D",
    "TrackingSpace", "WindowSegment2D", "load_calibration",
    "load_routine_config", "run_pipeline",
]
