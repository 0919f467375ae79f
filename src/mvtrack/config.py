"""Pipeline configuration: every threshold in one place, loadable from the
routine JSON file and echoed into the evaluation report for provenance."""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass

import numpy as np

from .cascade import (BETA_M, TAU_PLANE_M, THETA_OPP_DEG, TrackingSpace,
                      VELOCITY_LIMIT_M)
from .cross_view import LAMBDA_2D
from .geometry import PlaneSpec
from .records import FLOAT, INT, read_json, require, write_json
from .stitch import STITCH_THRESHOLD_M
from .sv_track import IOU_THRESHOLD, MAX_AGE, MIN_SEGMENT_OBS, WINDOW_LEN
from .target import (BUFFER_SCALE, IDENTIFY_WINDOW, MAX_GAP_FILL, SMOOTH_WINDOW,
                     TargetCriteria)


@dataclass
class PipelineConfig:
    """Every pipeline threshold.  Construction turns the float fields into
    floats and applies the range rules, raising ValueError; a field's JSON
    kind in a routine file comes from its annotation."""

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

    def __post_init__(self):
        if len(self.perf_space) != 6:
            raise ValueError("perf_space must have 6 numbers")
        for pair in self.opposite_pairs or ():
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(f"opposite_pairs entry {pair} must be two "
                                 "distinct camera ids")
        if self.window_len < 2 or self.window_len % 2 != 0:
            raise ValueError(f"window_len must be even and >= 2, got {self.window_len}")
        if self.smooth_window < 1 or self.smooth_window % 2 != 1:
            raise ValueError(f"smooth_window must be odd and >= 1, got {self.smooth_window}")
        for key in ("max_age", "max_gap_fill"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not 1 <= self.min_segment_obs <= self.window_len + 1:
            raise ValueError(f"min_segment_obs must be in [1, window_len + 1], "
                             f"got {self.min_segment_obs}")
        self.plane()
        self.space()
        self.criteria()
        for key, kind in _KINDS.items():
            if kind in (FLOAT, [FLOAT]):
                value = getattr(self, key)
                value = float(value) if kind == FLOAT else tuple(map(float, value))
                if not np.isfinite(value).all():
                    raise ValueError(f"{key} must be finite, got {value}")
                setattr(self, key, value)
        for key in ("nu", "tau", "lambda_2d", "stitch_threshold", "buffer_scale"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        for key, upper in (("iou_threshold", 1.0), ("theta_opp", 180.0)):
            if not 0 < getattr(self, key) <= upper:
                raise ValueError(f"{key} must be in (0, {upper}], got {getattr(self, key)}")

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


def _kind(hint):
    """The records kind of a PipelineConfig annotation."""
    args = [arg for arg in typing.get_args(hint) if arg not in (type(None), Ellipsis)]
    if typing.get_origin(hint) in (tuple, list):
        return [_kind(args[0])]
    return _kind(args[0]) if args else {int: INT, float: FLOAT}[hint]


_HINTS = typing.get_type_hints(PipelineConfig)
_KINDS = {name: _kind(hint) for name, hint in _HINTS.items()}
_LABELS = {"plane_n": "plane.n", "plane_point": "plane.point"}


def _known_keys(obj, known, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if obj.keys() - known:
        raise ValueError(f"unknown keys {sorted(obj.keys() - known)} in {what}")


def load_routine_config(path) -> PipelineConfig:
    """Read the routine JSON: {plane: {n, point}, perf_space, beta, nu, tau,
    theta_opp, opposite_pairs?, ...overrides}.  Every key must name a
    PipelineConfig field, with `plane` standing for plane_n and
    plane_point, and hold a value of that field's kind (null only where
    the field may be None); PipelineConfig then applies the range rules."""
    raw = read_json(path, "routine")
    try:
        _known_keys(raw, _KINDS.keys() - _LABELS.keys() | {"plane"}, "the routine")
        values = dict(raw)
        if "plane" in values:
            plane = values.pop("plane")
            _known_keys(plane, {"n", "point"}, "plane")
            values["plane_n"], values["plane_point"] = plane["n"], plane["point"]
        for key, value in values.items():
            if value is not None or type(None) not in typing.get_args(_HINTS[key]):
                require(value, _KINDS[key], _LABELS.get(key, key))
        return PipelineConfig(**values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid routine config {path}: {exc}") from exc


def save_routine_config(cfg: PipelineConfig, path) -> None:
    raw = asdict(cfg)
    raw["plane"] = {"n": raw.pop("plane_n"), "point": raw.pop("plane_point")}
    write_json(path, raw)
