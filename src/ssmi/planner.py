"""Frontier detection, grid path planning, and information-per-cost plan choice.

Planning always happens on a 2-D occupancy view. A dense 2-D map projects
trivially; 3-D maps (grid or octree) project onto the ground plane, where a
column is traversable only if every voxel in the robot-height band is
observed free. Both maps answer the same ``labels_observed`` call, so one
projection serves both. Candidate plans drive to frontier centers; the
score of a candidate is the information of the observations collected
along its path divided by the path length.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import mi as mi_mod
from .errors import AllUnreachable, NoFrontiers, Unreachable
from .logodds import SensorParams

log = logging.getLogger(__name__)

EIGHT_NEIGHBOURS = [
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]


@dataclass(frozen=True)
class PlanView:
    """2-D traversability snapshot: free, unknown, or blocked per column."""

    free: np.ndarray
    unknown: np.ndarray
    resolution: float
    origin: np.ndarray
    z_center: float

    def cell_center(self, cell) -> np.ndarray:
        return np.array(
            [
                self.origin[0] + (cell[0] + 0.5) * self.resolution,
                self.origin[1] + (cell[1] + 0.5) * self.resolution,
                self.z_center,
            ]
        )


def view_from_grid(mapper, region_dims=None, band: tuple[int, int] | None = None) -> PlanView:
    """Project a map (a ``GridMap`` or a ``SemanticOctree``) onto the 2-D
    planning grid over the box of ``region_dims`` cells at its origin, which
    defaults to the map's dims (an octree's cube is usually larger than the
    world).

    A column is free when every cell of the half-open z ``band`` (default:
    the region's full depth) is observed and most likely free, and unknown
    when none of them is observed.
    """
    nx, ny, nz = mapper.dims if region_dims is None else region_dims
    z0, z1 = band if band is not None else (0, nz)
    labels, observed = mapper.labels_observed(((0, 0, z0), (nx, ny, z1)))
    free = np.all(observed & (labels == 0), axis=-1)
    unknown = np.all(~observed, axis=-1)
    z_center = mapper.origin[2] + (z0 + z1) / 2.0 * mapper.resolution
    return PlanView(
        free=free, unknown=unknown, resolution=mapper.resolution,
        origin=mapper.origin[:2].copy(), z_center=z_center,
    )


@dataclass(frozen=True)
class Frontier:
    """Connected cluster of free cells bordering unknown space."""

    cells: np.ndarray  # (M, 2) int
    centroid: tuple[int, int]

    @property
    def size(self) -> int:
        return int(self.cells.shape[0])


def find_frontiers(view: PlanView, min_size: int = 3) -> list[Frontier]:
    """All frontier clusters, largest first (ties by lowest cell index).

    A frontier cell is free-labeled and 4-adjacent to at least one unknown
    cell; clusters are 8-connected components. Raises NoFrontiers when the
    boundary is empty, which signals that exploration is complete.
    """
    unk = view.unknown
    near_unknown = np.zeros_like(unk)
    near_unknown[1:, :] |= unk[:-1, :]
    near_unknown[:-1, :] |= unk[1:, :]
    near_unknown[:, 1:] |= unk[:, :-1]
    near_unknown[:, :-1] |= unk[:, 1:]
    boundary = view.free & near_unknown
    labels, count = ndimage.label(boundary, structure=np.ones((3, 3), dtype=int))
    ny = boundary.shape[1]
    frontiers = []
    for lab in range(1, count + 1):
        cells = np.argwhere(labels == lab)
        if cells.shape[0] < min_size:
            continue
        mean = cells.mean(axis=0)
        d2 = np.sum((cells - mean) ** 2, axis=1)
        flat = cells[:, 0] * ny + cells[:, 1]
        pick = np.lexsort((flat, d2))[0]
        frontiers.append(Frontier(cells=cells, centroid=(int(cells[pick, 0]), int(cells[pick, 1]))))
    if not frontiers:
        raise NoFrontiers("no free/unknown boundary left")
    frontiers.sort(key=lambda f: (-f.size, f.cells[0, 0] * ny + f.cells[0, 1]))
    return frontiers


def plan_path(view: PlanView, start: tuple[int, int], goal: tuple[int, int]):
    """Shortest 8-connected path through free cells (A*, Euclidean weights).

    Diagonal moves may not cut corners: both orthogonal neighbours must be
    free too. Returns (path, cost_meters); a zero-length path costs one
    resolution unit so information-per-cost ratios stay finite.

    Cells are flat ids into the view padded with a one-cell blocked
    border, so a move needs no bounds check. Moves are tried in
    ``EIGHT_NEIGHBOURS`` order and the heap holds ``(f, counter, id)``, so
    the search pushes and pops as one on ``(x, y)`` cells does.
    """
    ny = view.free.shape[1]
    if not view.free[start[0], start[1]]:
        raise Unreachable(f"start {start} is not free-labeled")
    if not view.free[goal[0], goal[1]]:
        raise Unreachable(f"goal {goal} is not free-labeled")
    if start == goal:
        return [start], view.resolution

    res = view.resolution
    width = ny + 2
    free = np.pad(view.free, 1).ravel().tolist()
    moves = []
    for dx, dy in EIGHT_NEIGHBOURS:
        diagonal = dx != 0 and dy != 0
        step = res * (math.sqrt(2.0) if diagonal else 1.0)
        # a diagonal move needs both orthogonal neighbours free; 0: no check
        moves.append((dx * width + dy, step, dx * width if diagonal else 0, dy))
    source = (int(start[0]) + 1) * width + int(start[1]) + 1
    target = (int(goal[0]) + 1) * width + int(goal[1]) + 1
    gx, gy = divmod(target, width)
    hypot = math.hypot

    g_cost = [math.inf] * len(free)
    g_cost[source] = 0.0
    parent = {source: None}
    counter = 0
    heap = [(hypot(start[0] - goal[0], start[1] - goal[1]) * res, counter, source)]
    closed = bytearray(len(free))
    while heap:
        _, _, cur = heapq.heappop(heap)
        if closed[cur]:
            continue
        if cur == target:
            path = []
            while cur is not None:
                x, y = divmod(cur, width)
                path.append((x - 1, y - 1))
                cur = parent[cur]
            path.reverse()
            return path, g_cost[target]
        closed[cur] = 1
        g_cur = g_cost[cur]
        for offset, step, corner_x, corner_y in moves:
            nxt = cur + offset
            if not free[nxt]:
                continue
            if corner_x and not (free[cur + corner_x] and free[cur + corner_y]):
                continue
            cand = g_cur + step
            if cand < g_cost[nxt] - 1e-12:
                g_cost[nxt] = cand
                parent[nxt] = cur
                counter += 1
                x, y = divmod(nxt, width)
                heapq.heappush(heap, (cand + hypot(x - gx, y - gy) * res, counter, nxt))
    raise Unreachable(f"no free path from {start} to {goal}")


def sensing_poses(path: list[tuple[int, int]], stride: int) -> list[tuple[tuple[int, int], float]]:
    """(cell, heading) every ``stride`` waypoints plus the path end; heading
    follows the local path tangent."""
    idxs = list(range(0, len(path), max(1, stride)))
    if idxs[-1] != len(path) - 1:
        idxs.append(len(path) - 1)
    poses = []
    for i in idxs:
        if len(path) == 1:
            heading = 0.0
        elif i + 1 < len(path):
            heading = math.atan2(path[i + 1][1] - path[i][1], path[i + 1][0] - path[i][0])
        else:
            heading = math.atan2(path[i][1] - path[i - 1][1], path[i][0] - path[i - 1][0])
        poses.append((path[i], heading))
    return poses


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
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.num_beams < 1:
            raise ValueError(f"planner.num_beams must be >= 1, got {self.num_beams!r}")
        if self.stride < 1:
            raise ValueError(f"planner.stride must be >= 1, got {self.stride!r}")
        if not (math.isfinite(self.fov) and self.fov > 0.0):
            raise ValueError(f"planner.fov must be positive and finite, got {self.fov!r}")
        if not (math.isfinite(self.beam_range) and self.beam_range > 0.0):
            raise ValueError(
                f"planner.beam_range must be positive and finite, got {self.beam_range!r}")
        if self.band is not None and not (
                isinstance(self.band, (list, tuple)) and len(self.band) == 2
                and all(type(z) is int for z in self.band) and 0 <= self.band[0] < self.band[1]):
            raise ValueError(f"planner.band must be [z0, z1] with 0 <= z0 < z1, got {self.band!r}")


@dataclass
class CandidatePlan:
    frontier_index: int
    path: list[tuple[int, int]]
    cost: float
    mi: float
    score: float


def evaluate_candidates(
    mapper,
    view: PlanView,
    start: tuple[int, int],
    params: SensorParams,
    config: PlannerConfig,
    casts: dict,
) -> list[CandidatePlan]:
    """Path and information score for every reachable frontier.

    The ``frontier`` selector scores by cluster size alone; ``ssmi`` uses
    ``params`` on the full multi-class map; ``fsmi-binary`` uses the
    one-class profile ``SensorParams.default(1)``, under which
    :func:`ssmi.mi.trajectories_mi` evaluates the occupancy-only collapse of
    either map. All candidates are evaluated in one ``trajectories_mi`` call.

    ``casts`` is the cast cache: a :class:`ssmi.mi.FanCast` per sensing pose,
    keyed by ``(cell, heading)``. A pose missing from it is cast with
    ``FanCast.from_pose`` and added; a pose found in it, from this call or
    an earlier one, is not cast again. The cache is exact: a cast is a pure
    function of the pose, ``config`` and the map's fixed geometry (origin,
    cell or element size, dims), while beliefs are read fresh at encode
    time in every call. So one cache serves one map geometry and one
    ``config``; ``sim.run_episode`` owns one per episode. Its keys are
    planning cells times the 8 path-tangent headings, so it needs no bound:
    over A7 worlds 0-9 the largest held 556 fans in 1.23 MB of cells. A
    call on its own passes an empty dict.
    """
    frontiers = find_frontiers(view, config.min_frontier_size)
    if config.selector == "fsmi-binary":
        params = SensorParams.default(1)

    planned = []
    for idx, frontier in enumerate(frontiers):
        try:
            path, cost = plan_path(view, start, frontier.centroid)
        except Unreachable:
            continue
        planned.append((idx, frontier, path, cost))
    if not planned:
        raise AllUnreachable("every frontier failed path planning")
    if config.selector == "frontier":
        return [
            CandidatePlan(idx, path, cost, mi=0.0, score=float(frontier.size))
            for idx, frontier, path, cost in planned
        ]

    held = len(casts)
    trajectories = []
    for _, _, path, _ in planned:
        poses = sensing_poses(path, config.stride)
        for cell, heading in poses:
            if (cell, heading) not in casts:
                casts[cell, heading] = mi_mod.FanCast.from_pose(
                    mapper, view.cell_center(cell), config.num_beams, config.beam_range,
                    heading, config.fov)
        trajectories.append(poses)
    batch = mi_mod.trajectories_mi(mapper, casts, trajectories, params)
    distinct = len({pose for poses in trajectories for pose in poses})
    cast = len(casts) - held
    log.debug(
        "%d candidates, %d sensing poses (%d distinct), %d beams cast, "
        "%d kept over candidates, %d distinct kept beams evaluated; "
        "cast cache: %d fans served, %d fans cast, %d fans held",
        len(planned), sum(map(len, trajectories)), distinct, cast * config.num_beams,
        sum(r.beams_kept for r in batch.trajectories), batch.beams_evaluated,
        distinct - cast, cast, len(casts),
    )
    return [
        CandidatePlan(idx, path, cost, mi=res.value, score=res.value / cost)
        for (idx, _, path, cost), res in zip(planned, batch.trajectories)
    ]


def select_best(candidates: list[CandidatePlan]) -> CandidatePlan:
    """Argmax score; exact ties fall back to shorter cost, then lower index."""
    return min(candidates, key=lambda c: (-c.score, c.cost, c.frontier_index))
