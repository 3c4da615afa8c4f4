import math

import numpy as np
import pytest

from ssmi.config import config_from_dict
from ssmi.grid import BeamMeasurement
from ssmi.logodds import SensorParams
from ssmi.mi import FanCast, fan_angles
from ssmi.sim import run_episode

# stacked first, it gives any list of cast cells, even none, shape (M, 3)
_NO_CELLS = np.empty((0, 3), dtype=np.int32)


@pytest.fixture
def params3() -> SensorParams:
    return SensorParams.default(3)


@pytest.fixture
def params1() -> SensorParams:
    return SensorParams.default(1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def a7_octree_tree():
    """The octree that a world-0 episode of the A7 acceptance config (the
    defaults, stopping at 90% explored) ends with, mapped by the octree and
    planned by the information selector. Tests must only read it."""
    config = config_from_dict(
        {"seed": 0, "mapper": {"type": "octree"}, "run": {"explored_stop": 0.9}}
    )
    return run_episode(config).mapper


def random_logodds(rng, n, k, scale=6.0):
    h = np.zeros((n, k + 1))
    h[:, 1:] = rng.uniform(-scale, scale, (n, k))
    return h


def stacked_casts(traces):
    """The cells past each ``RayTrace``'s sensor cell, stacked in trace order
    as the traces hold them, and each trace's count of them: the arguments
    of ``encode_traces`` built from full traces."""
    cells = np.concatenate([np.empty((0, 3), dtype=np.int64)] + [t.cells[1:] for t in traces])
    return cells, [len(t) - 1 for t in traces]


def cast_fan(mapper, beams: list[BeamMeasurement]) -> FanCast:
    """Cast each beam with ``mapper.cast_ray`` (a GridMap or a semantic
    octree) and keep the compact form. Out-of-bounds beams propagate. The
    reference ``FanCast.from_pose`` is held to, byte for byte."""
    cells = [mapper.cast_ray(beam).cells[1:] for beam in beams]
    return FanCast(np.concatenate([_NO_CELLS] + cells).astype(np.int32),
                   tuple(len(c) for c in cells))


def fan_beams(
    center: np.ndarray,
    num_beams: int,
    max_range: float,
    heading: float = 0.0,
    fov: float = 2.0 * math.pi,
) -> list[BeamMeasurement]:
    """Planar candidate beams around ``heading`` at the ``mi.fan_angles``,
    reaching ``max_range`` with no hit: the beams of the fan that
    ``FanCast.from_pose`` casts from the same pose."""
    origin = np.array(center, dtype=np.float64)  # read-only once a beam holds it
    return [
        BeamMeasurement(
            origin=origin,
            direction=np.array([math.cos(angle), math.sin(angle), 0.0]),
            range=max_range,
            category=None,
            max_range=max_range,
        )
        for angle in fan_angles(num_beams, heading, fov)
    ]
