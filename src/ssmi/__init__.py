"""Multi-class occupancy mapping, beam mutual information, and exploration.

The package splits into belief arithmetic (:mod:`ssmi.logodds`), the dense
grid map (:mod:`ssmi.grid`), the pruning semantic octree (:mod:`ssmi.octree`),
closed-form beam information with its brute-force oracles (:mod:`ssmi.mi`),
frontier planning (:mod:`ssmi.planner`), and a headless simulator
(:mod:`ssmi.sim`) driven by the ``ssmi`` command line tool.
"""

from .errors import (
    AllUnreachable,
    BadDims,
    DegeneratePivot,
    EmptyRay,
    InvalidClass,
    NoFrontiers,
    OriginOutOfBounds,
    PoseInObstacle,
    ScaleExceeded,
    SsmiError,
    Unreachable,
)
from .grid import BeamMeasurement, GridMap, RayTrace, Scan, load_grid, save_grid
from .logodds import (
    CellRelation,
    SensorParams,
    clamp,
    entropy,
    f_logratio,
    inverse_observation,
    logodds_from_pmf,
    posterior_update,
    softmax_pmf,
)
from .mi import (
    BeamMI,
    FanCast,
    SrleRay,
    beam_mi_dense,
    beam_mi_oracle,
    beam_mi_srle,
    encode_runs,
    select_nonoverlapping,
    trajectories_mi,
)
from .octree import SemanticOctree, TruncatedSemantics, load_octree, save_octree

__version__ = "0.1.0"
