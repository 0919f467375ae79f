"""Pipeline configuration: every threshold in one place, loadable from the
routine JSON file and echoed into the evaluation report for provenance."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cascade import (BETA_M, TAU_PLANE_M, THETA_OPP_DEG, TrackingSpace,
                      VELOCITY_LIMIT_M)
from .cross_view import LAMBDA_2D
from .geometry import PlaneSpec
from .stitch import STITCH_THRESHOLD_M
from .sv_track import IOU_THRESHOLD, MAX_AGE, MIN_SEGMENT_OBS, WINDOW_LEN
from .target import (BUFFER_SCALE, IDENTIFY_WINDOW, MAX_GAP_FILL, SMOOTH_WINDOW,
                     TargetCriteria)

FLOAT_FIELDS = ("beta", "nu", "tau", "theta_opp", "lambda_2d", "stitch_threshold",
                "h_top", "h_bot", "iou_threshold", "buffer_scale")
INT_FIELDS = ("window_len", "min_segment_obs", "max_age", "identify_delta",
              "max_gap_fill", "smooth_window")


@dataclass
class PipelineConfig:
    plane_n: tuple[float, float, float] = (1.0, 0.0, 0.0)
    plane_point: tuple[float, float, float] = (0.0, 0.0, 0.0)
    perf_space: tuple[float, ...] = (-2.0, -2.0, 0.0, 2.0, 2.0, 4.0)
    beta: float = BETA_M
    nu: float = VELOCITY_LIMIT_M
    tau: float = TAU_PLANE_M
    theta_opp: float = THETA_OPP_DEG
    opposite_pairs: list[list[int]] | None = None
    lambda_2d: float = LAMBDA_2D
    stitch_threshold: float = STITCH_THRESHOLD_M
    window_len: int = WINDOW_LEN
    min_segment_obs: int = MIN_SEGMENT_OBS
    iou_threshold: float = IOU_THRESHOLD
    max_age: int = MAX_AGE
    identify_delta: int = IDENTIFY_WINDOW
    h_top: float = 1.5
    h_bot: float = 0.5
    max_gap_fill: int = MAX_GAP_FILL
    buffer_scale: float = BUFFER_SCALE
    smooth_window: int = SMOOTH_WINDOW

    def plane(self) -> PlaneSpec:
        return PlaneSpec(n=self.plane_n, point=self.plane_point)

    def space(self) -> TrackingSpace:
        return TrackingSpace(perf=tuple(self.perf_space), beta=self.beta)

    def criteria(self) -> TargetCriteria:
        return TargetCriteria(h_top=self.h_top, h_bot=self.h_bot,
                              delta=self.identify_delta)

    def opposite_pair_sets(self) -> list[frozenset[int]] | None:
        if self.opposite_pairs is None:
            return None
        return [frozenset(p) for p in self.opposite_pairs]

    def as_dict(self) -> dict:
        return asdict(self)


def load_routine_config(path) -> PipelineConfig:
    """Read the routine JSON: {plane: {n, point}, perf_space, beta, nu, tau,
    theta_opp, opposite_pairs?, ...overrides}.  Every key must name a
    PipelineConfig field, with `plane` standing for plane_n and
    plane_point."""
    with open(path) as fh:
        raw = json.load(fh)
    try:
        if not isinstance(raw, dict):
            raise ValueError("the routine must be a JSON object")
        known = {f.name for f in fields(PipelineConfig)} - {"plane_n", "plane_point"} | {"plane"}
        if raw.keys() - known:
            raise ValueError(f"unknown keys {sorted(raw.keys() - known)}")
        cfg = PipelineConfig()
        if "plane" in raw:
            cfg.plane_n = tuple(float(v) for v in raw["plane"]["n"])
            cfg.plane_point = tuple(float(v) for v in raw["plane"]["point"])
        if "perf_space" in raw:
            space = tuple(float(v) for v in raw["perf_space"])
            if len(space) != 6:
                raise ValueError("perf_space must have 6 numbers")
            cfg.perf_space = space
        for key in FLOAT_FIELDS:
            if key in raw:
                setattr(cfg, key, float(raw[key]))
        for key in INT_FIELDS:
            if key in raw:
                if type(raw[key]) is not int:
                    raise ValueError(f"{key} must be an integer, got {raw[key]!r}")
                setattr(cfg, key, raw[key])
        if "opposite_pairs" in raw and raw["opposite_pairs"] is not None:
            cfg.opposite_pairs = [[int(c) for c in p] for p in raw["opposite_pairs"]]
            for pair in cfg.opposite_pairs:
                if len(pair) != 2 or pair[0] == pair[1]:
                    raise ValueError(f"opposite_pairs entry {pair} must be two "
                                     "distinct camera ids")
        if cfg.window_len < 2 or cfg.window_len % 2 != 0:
            raise ValueError(f"window_len must be even and >= 2, got {cfg.window_len}")
        if cfg.smooth_window < 1 or cfg.smooth_window % 2 != 1:
            raise ValueError(f"smooth_window must be odd and >= 1, got {cfg.smooth_window}")
        for key in ("max_age", "max_gap_fill"):
            if getattr(cfg, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(cfg, key)}")
        if not 1 <= cfg.min_segment_obs <= cfg.window_len + 1:
            raise ValueError(f"min_segment_obs must be in [1, window_len + 1], "
                             f"got {cfg.min_segment_obs}")
        # Validate derived structures eagerly.
        cfg.plane()
        cfg.space()
        cfg.criteria()
        for key in FLOAT_FIELDS + ("plane_n", "plane_point", "perf_space"):
            if not np.isfinite(getattr(cfg, key)).all():
                raise ValueError(f"{key} must be finite, got {getattr(cfg, key)}")
        for key in ("nu", "tau", "lambda_2d", "stitch_threshold", "buffer_scale"):
            if getattr(cfg, key) <= 0:
                raise ValueError(f"{key} must be > 0, got {getattr(cfg, key)}")
        for key, upper in (("iou_threshold", 1.0), ("theta_opp", 180.0)):
            if not 0 < getattr(cfg, key) <= upper:
                raise ValueError(f"{key} must be in (0, {upper}], got {getattr(cfg, key)}")
        return cfg
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid routine config {path}: {exc}") from exc


def save_routine_config(cfg: PipelineConfig, path) -> None:
    raw = cfg.as_dict()
    raw["plane"] = {"n": list(raw.pop("plane_n")), "point": list(raw.pop("plane_point"))}
    raw["perf_space"] = list(raw["perf_space"])
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
