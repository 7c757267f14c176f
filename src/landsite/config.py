"""Pipeline configuration with named profiles.

Field names carry explicit units (_m, _px, _deg) because unit slips are
the dominant failure mode in this kind of geometry code. Two profiles
ship: "sim" for clean rendered depth and "real" for noisy stereo depth;
they differ in the fusion weights, the decision threshold and the
cluster height tolerance.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .errors import ConfigError
from .formats import read_json


# Accepted Python types per field annotation; bool is rejected everywhere.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}

WEIGHT_SUM_TOL = 1e-6

# The largest dedup radius or cluster threshold, in metres. Its square, and
# so the square of every separation it accepts, is finite, and a squared
# separation that overflows to inf exceeds it.
MAX_DISTANCE_M = 1e150


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline parameter, checked once on construction.

    The four ``weight_*`` fields are the convex fusion weights: each lies
    in [0, 1] and they sum to 1 within ``WEIGHT_SUM_TOL``.
    """

    profile: str
    weight_depth_confidence: float
    weight_flatness: float
    weight_steepness: float
    weight_energy: float
    decision_threshold: float
    slope_tolerance_deg: float
    canny_low_m: float
    canny_high_m: float
    smoothing_window_px: int
    uav_radius_m: float
    safety_factor: float
    dedup_radius_m: float
    cluster_dist_m: float
    cluster_z_m: float
    cluster_metric: str
    d_min_m: float
    d_max_m: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float":
                # Stored as a float: an int such as 10**200 + 1 would square
                # exactly into an int that no float comparison accepts.
                try:
                    as_float = float(value)
                except OverflowError:
                    raise ConfigError(f"{f.name} is too large for a float") \
                        from None
                if not math.isfinite(as_float):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
                object.__setattr__(self, f.name, as_float)
        weights = (self.weight_depth_confidence, self.weight_flatness,
                   self.weight_steepness, self.weight_energy)
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise ConfigError(f"weights {weights} must each lie in [0, 1]")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights sum to {sum(weights)}, expected 1")
        if not (0 < self.canny_low_m <= self.canny_high_m):
            raise ConfigError("need 0 < canny_low_m <= canny_high_m")
        if self.smoothing_window_px < 1 or self.smoothing_window_px % 2 == 0:
            raise ConfigError("smoothing_window_px must be odd and >= 1")
        for name in ("slope_tolerance_deg", "uav_radius_m", "safety_factor",
                     "dedup_radius_m", "cluster_dist_m", "cluster_z_m",
                     "d_min_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("dedup_radius_m", "cluster_dist_m", "cluster_z_m"):
            if not getattr(self, name) <= MAX_DISTANCE_M:
                raise ConfigError(f"{name} must be at most {MAX_DISTANCE_M:g}")
        _check_slope_tolerance(math.radians(self.slope_tolerance_deg))
        if not self.d_min_m < self.d_max_m:
            raise ConfigError("need d_min_m < d_max_m")
        if self.cluster_metric not in ("xy", "xyz"):
            raise ConfigError("cluster_metric must be 'xy' or 'xyz'")

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PipelineConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = names - set(obj)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**obj)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return read_json(path, cls.from_json_obj, "config", error=ConfigError)


def _check_slope_tolerance(tol: float) -> None:
    """ConfigError unless 2 tol^2 (tol in radians) reaches DBL_MIN, the bound
    ``steepness_map`` needs: theta^2 / (2 tol^2) <= (pi/2)^2 / DBL_MIN stays
    finite, while below it theta = 0 gives 0 / 0."""
    if not (tol > 0 and 2.0 * tol * tol >= sys.float_info.min):
        raise ConfigError("slope tolerance must be positive and large enough "
                          "that 2 tol^2 does not underflow")


_COMMON = dict(
    slope_tolerance_deg=15.0,
    canny_low_m=0.05,
    canny_high_m=0.20,
    smoothing_window_px=3,
    uav_radius_m=0.13,
    safety_factor=1.0,
    dedup_radius_m=0.5,
    cluster_dist_m=0.5,
    cluster_metric="xy",
    d_min_m=0.05,
    d_max_m=20.0,
)

PROFILES: dict[str, PipelineConfig] = {
    "sim": PipelineConfig(
        profile="sim",
        weight_depth_confidence=0.05,
        weight_flatness=0.4,
        weight_steepness=0.4,
        weight_energy=0.15,
        decision_threshold=0.72,
        cluster_z_m=0.01,
        **_COMMON,
    ),
    "real": PipelineConfig(
        profile="real",
        weight_depth_confidence=0.15,
        weight_flatness=0.35,
        weight_steepness=0.4,
        weight_energy=0.1,
        decision_threshold=0.7,
        cluster_z_m=0.05,
        **_COMMON,
    ),
}


def get_profile(name: str) -> PipelineConfig:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown profile {name!r}; choose from "
                          f"{sorted(PROFILES)}") from None
