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


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _require_real(value, name: str, ok, what: str) -> None:
    """ConfigError naming the field unless ``value`` is an int or a float
    (not a bool) that ``ok`` accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _require_positive(value, name: str) -> None:
    _require_real(value, name, lambda v: math.isfinite(v) and v > 0.0, "positive and finite")


def _require_int(value, name: str, least: int) -> None:
    if type(value) is not int or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_fraction(value, name: str) -> None:
    _require_real(value, name, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


@dataclass
class EnvConfig:
    profile: str = "random"  # random | structured | corridor
    dims: tuple[int, ...] = (32, 32)
    num_classes: int = 3
    resolution: float = 1.0
    target_occupancy: float = 0.2

    def __post_init__(self):
        given = self.dims
        # each extent an int, not a bool, as _require_int reads them: int()
        # would take 32.7 or "32" as 32, and true as 1
        if (not isinstance(given, (list, tuple)) or len(given) not in (2, 3)
                or not all(type(d) is int and d >= 1 for d in given)):
            raise ConfigError(f"env.dims must be 2 or 3 positive integer extents, got {given!r}")
        self.dims = tuple(given)
        _require_fraction(self.target_occupancy, "env.target_occupancy")
        if self.profile not in ("random", "structured", "corridor"):
            raise ConfigError(f"unknown env profile {self.profile!r}")
        if self.profile != "corridor" and len(self.dims) == 3 and self.dims[2] > 1:
            # the planar generators build one layer: this would run a 2-D world
            raise ConfigError(f"env.dims {given!r}: profile {self.profile!r} makes planar "
                              f"worlds, so a third extent must be 1")
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
        _require_int(self.num_beams, "sensor.num_beams", 1)
        _require_real(self.misclass_prob, "sensor.misclass_prob", lambda v: 0 <= v < 1, "in [0, 1)")
        _require_positive(self.fov_deg, "sensor.fov_deg")
        _require_positive(self.r_max, "sensor.r_max")
        _require_real(self.range_sigma, "sensor.range_sigma",
                      lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")


@dataclass
class PlannerConfig:
    selector: str = "ssmi"  # ssmi | frontier | fsmi-binary
    stride: int = 3
    min_frontier_size: int = 3
    num_beams: int = 16
    beam_range: float = 10.0
    fov: float = 2.0 * math.pi
    band: tuple[int, int] | None = None

    def __post_init__(self):
        if self.selector not in ("ssmi", "frontier", "fsmi-binary"):
            raise ConfigError(f"unknown selector {self.selector!r}")
        for name in ("num_beams", "stride", "min_frontier_size"):
            _require_int(getattr(self, name), f"planner.{name}", 1)
        for name in ("fov", "beam_range"):
            _require_positive(getattr(self, name), f"planner.{name}")
        if self.band is not None and not (
                isinstance(self.band, (list, tuple)) and len(self.band) == 2
                and all(type(z) is int for z in self.band) and 0 <= self.band[0] < self.band[1]):
            raise ConfigError(f"planner.band must be [z0, z1] with 0 <= z0 < z1, got {self.band!r}")


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
        for name in ("free_odds", "hit_odds"):
            _require_real(getattr(self, name), f"mapper.{name}", math.isfinite, "finite")
        for name in ("true_positive_rate", "alpha"):
            _require_real(getattr(self, name), f"mapper.{name}", lambda v: 0 < v < 1, "in (0, 1)")

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

    def __post_init__(self):
        _require_int(self.max_steps, "run.max_steps", 1)
        _require_fraction(self.explored_stop, "run.explored_stop")


@dataclass
class SweepConfig:
    resolutions: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    iterations: int = 5
    beams: int = 9

    def __post_init__(self):
        for r in self.resolutions:
            _require_positive(r, "sweep.resolutions")
        self.resolutions = tuple(float(r) for r in self.resolutions)
        _require_int(self.iterations, "sweep.iterations", 1)
        _require_int(self.beams, "sweep.beams", 1)


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
    kwargs = {"seed": data.get("seed", 0)}
    _require_int(kwargs["seed"], "seed", 0)
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        if name == "planner" and "fov_deg" in section:
            if "fov" in section:
                raise ConfigError("planner.fov and planner.fov_deg are both given; give one")
            section = dict(section)
            _require_positive(section["fov_deg"], "planner.fov_deg")
            section["fov"] = math.radians(section.pop("fov_deg"))
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
