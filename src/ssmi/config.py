"""Run configuration: YAML schema, validation, and stable hashing.

A config file fully determines a run together with the seed; the resolved
form (defaults filled in) is printed before every command and embedded as a
hash comment in CSV outputs so any artifact can be traced back to the exact
settings that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import yaml

from .logodds import MAX_CLASSES, SensorParams
from .planner import PlannerConfig


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _require_positive(value, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class EnvConfig:
    profile: str = "random"  # random | structured | corridor
    dims: tuple[int, ...] = (32, 32)
    num_classes: int = 3
    resolution: float = 1.0
    target_occupancy: float = 0.2

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if self.profile not in ("random", "structured", "corridor"):
            raise ConfigError(f"unknown env profile {self.profile!r}")
        if type(self.num_classes) is not int or not 1 <= self.num_classes <= MAX_CLASSES:
            raise ConfigError(f"env.num_classes must be an integer in 1..{MAX_CLASSES}, "
                              f"got {self.num_classes!r}")
        _require_positive(self.resolution, "env.resolution")


@dataclass
class SensorConfig:
    num_beams: int = 48
    fov_deg: float = 360.0
    r_max: float = 10.0
    range_sigma: float = 0.1
    misclass_prob: float = 0.35

    def __post_init__(self):
        if self.num_beams < 1:
            raise ConfigError("sensor.num_beams must be >= 1")
        if not 0.0 <= self.misclass_prob < 1.0:
            raise ConfigError("sensor.misclass_prob must be in [0, 1)")
        _require_positive(self.fov_deg, "sensor.fov_deg")
        _require_positive(self.r_max, "sensor.r_max")
        if not (math.isfinite(self.range_sigma) and self.range_sigma >= 0.0):
            raise ConfigError(
                f"sensor.range_sigma must be finite and >= 0, got {self.range_sigma!r}")


@dataclass
class MapperConfig:
    type: str = "grid"  # grid | octree
    clamp_limit: float = 6.0
    true_positive_rate: float = 0.65
    free_odds: float = -1.39
    hit_odds: float = 0.41
    alpha: float = 0.5

    def __post_init__(self):
        if self.type not in ("grid", "octree"):
            raise ConfigError(f"unknown mapper type {self.type!r}")
        _require_positive(self.clamp_limit, "mapper.clamp_limit")

    def sensor_params(self, num_classes: int) -> SensorParams:
        return SensorParams.default(
            num_classes,
            true_positive_rate=self.true_positive_rate,
            free_odds=self.free_odds,
            hit_odds=self.hit_odds,
            clamp_limit=self.clamp_limit,
            alpha=self.alpha,
        )


@dataclass
class RunConfig:
    max_steps: int = 60
    explored_stop: float = 0.995


@dataclass
class SweepConfig:
    resolutions: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    iterations: int = 5
    beams: int = 9

    def __post_init__(self):
        self.resolutions = tuple(float(r) for r in self.resolutions)
        for r in self.resolutions:
            _require_positive(r, "sweep.resolutions")
        if self.iterations < 1 or self.beams < 1:
            raise ConfigError("sweep.iterations and sweep.beams must be >= 1")


@dataclass
class SimConfig:
    seed: int = 0
    env: EnvConfig = field(default_factory=EnvConfig)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    mapper: MapperConfig = field(default_factory=MapperConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    run: RunConfig = field(default_factory=RunConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def resolved_dict(self) -> dict:
        d = asdict(self)
        d["planner"]["fov"] = float(self.planner.fov)
        return d

    def resolved_yaml(self) -> str:
        return yaml.safe_dump(_plainify(self.resolved_dict()), sort_keys=True)

    def config_hash(self) -> str:
        blob = json.dumps(_plainify(self.resolved_dict()), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _plainify(obj):
    if isinstance(obj, dict):
        return {k: _plainify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plainify(v) for v in obj]
    return obj


_SECTIONS = {
    "env": EnvConfig,
    "sensor": SensorConfig,
    "mapper": MapperConfig,
    "planner": PlannerConfig,
    "run": RunConfig,
    "sweep": SweepConfig,
}


def config_from_dict(data: dict) -> SimConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {"seed": int(data.get("seed", 0))}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        if name == "planner" and "fov_deg" in section:
            section = dict(section)
            section["fov"] = math.radians(float(section.pop("fov_deg")))
        try:
            kwargs[name] = cls(**section)
        except TypeError as exc:
            raise ConfigError(f"bad keys in section {name!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return SimConfig(**kwargs)


def load_config(path) -> SimConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_dict(data or {})
