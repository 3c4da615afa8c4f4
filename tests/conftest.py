import numpy as np
import pytest

from ssmi.config import config_from_dict
from ssmi.logodds import SensorParams
from ssmi.sim import run_episode


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
