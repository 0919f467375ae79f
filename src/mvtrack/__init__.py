"""Multi-camera multi-object 3D tracking with cascaded triangulation and
ray-plane intersection, plus a synthetic rig simulator and evaluator."""

from .cascade import Mode, Provenance, Tracklet3D, TrackingSpace
from .config import PipelineConfig, load_routine_config
from .geometry import CameraModel, CameraRig, PlaneSpec, load_calibration
from .pipeline import run_pipeline
from .sv_track import Bbox, Detection, Detections, Segments, Tracklet2D, load_detections

__all__ = [
    "Bbox", "CameraModel", "CameraRig", "Detection", "Detections", "Mode",
    "PipelineConfig", "PlaneSpec", "Provenance", "Segments", "Tracklet2D", "Tracklet3D",
    "TrackingSpace", "load_calibration", "load_detections",
    "load_routine_config", "run_pipeline",
]
