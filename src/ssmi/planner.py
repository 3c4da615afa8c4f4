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
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

from . import mi as mi_mod
from .config import PlannerConfig
from .errors import AllUnreachable, NoFrontiers, Unreachable
from .logodds import SensorParams

log = logging.getLogger(__name__)

EIGHT_NEIGHBOURS = [
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]


@dataclass(frozen=True)
class PlanView:
    """2-D traversability snapshot: free, unknown, or blocked per column,
    of the map whose ``origin`` (three floats) it holds."""

    free: np.ndarray
    unknown: np.ndarray
    resolution: float
    origin: tuple[float, float, float]
    z_center: float

    @cached_property
    def move_table(self) -> list[int]:
        """The legal moves of every cell of ``free`` padded with a one-cell
        blocked border, as one flat row-major list of 8-bit masks: bit m is
        set when the m-th move of ``EIGHT_NEIGHBOURS`` lands on a free cell
        and, for a diagonal, both orthogonal neighbours are free too (no
        corner cutting). Border cells have no moves. Built once per view,
        in one numpy pass, for all of its searches (``plan_path``); a view
        is a snapshot: ``free`` is not written after the first search."""
        nx, ny = self.free.shape
        padded = np.pad(self.free, 1)

        def shifted(dx, dy):  # free[x + dx, y + dy] for every cell (x, y) of free
            return padded[1 + dx:1 + dx + nx, 1 + dy:1 + dy + ny]

        table = np.zeros((nx + 2, ny + 2), dtype=np.uint8)
        inner = table[1:-1, 1:-1]
        for bit, (dx, dy) in enumerate(EIGHT_NEIGHBOURS):
            legal = shifted(dx, dy)
            if dx and dy:
                legal = legal & shifted(dx, 0) & shifted(0, dy)
            inner |= legal.astype(np.uint8) << bit
        return table.ravel().tolist()

    def cell_center(self, cell) -> tuple[float, float, float]:
        return (self.origin[0] + (cell[0] + 0.5) * self.resolution,
                self.origin[1] + (cell[1] + 0.5) * self.resolution, self.z_center)


def view_from_grid(mapper, band: tuple[int, int] | None = None) -> PlanView:
    """Project a map (a ``GridMap`` or a ``SemanticOctree``) over its dims
    onto the 2-D planning grid.

    A column is free when every cell of the half-open z ``band`` (default:
    the map's full depth) is observed and most likely free, and unknown
    when none of them is observed.
    """
    nx, ny, nz = mapper.dims
    z0, z1 = band if band is not None else (0, nz)
    labels, observed = mapper.labels_observed(((0, 0, z0), (nx, ny, z1)))
    free = np.all(observed & (labels == 0), axis=-1)
    unknown = np.all(~observed, axis=-1)
    z_center = mapper.origin[2] + (z0 + z1) / 2.0 * mapper.resolution
    return PlanView(
        free=free, unknown=unknown, resolution=mapper.resolution,
        origin=mapper.origin, z_center=z_center,
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
    border, and each cell's legal moves are read from the view's move table
    (``PlanView.move_table``), so a move needs no bounds, free or corner
    check. Moves are tried in ``EIGHT_NEIGHBOURS`` order and the heap holds
    ``(f, counter, id)``, with the heuristic's integer arguments those of
    the ``(x, y)`` cells, so the search pushes and pops as one on ``(x, y)``
    cells does.
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
    table = view.move_table
    moves_of = _moves_by_mask(width, res)
    source = (int(start[0]) + 1) * width + int(start[1]) + 1
    target = (int(goal[0]) + 1) * width + int(goal[1]) + 1
    gx, gy = divmod(target, width)
    hypot = math.hypot

    g_cost = [math.inf] * len(table)
    g_cost[source] = 0.0
    parent = {source: None}
    counter = 0
    heap = [(hypot(start[0] - goal[0], start[1] - goal[1]) * res, counter, source)]
    closed = bytearray(len(table))
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
        cx, cy = divmod(cur, width)
        ex, ey = cx - gx, cy - gy
        for offset, step, dx, dy in moves_of[table[cur]]:
            nxt = cur + offset
            cand = g_cur + step
            if cand < g_cost[nxt] - 1e-12:
                g_cost[nxt] = cand
                parent[nxt] = cur
                counter += 1
                heapq.heappush(heap, (cand + hypot(ex + dx, ey + dy) * res, counter, nxt))
    raise Unreachable(f"no free path from {start} to {goal}")


@lru_cache(maxsize=16)
def _moves_by_mask(width: int, res: float) -> tuple[tuple[tuple[int, float, int, int], ...], ...]:
    """For each 8-bit move mask of ``PlanView.move_table``, the moves it
    allows as ``(flat offset, step cost, dx, dy)`` in ``EIGHT_NEIGHBOURS``
    order, on a padded view ``width`` cells wide with cells ``res`` wide."""
    moves = [(dx * width + dy, res * (math.sqrt(2.0) if dx and dy else 1.0), dx, dy)
             for dx, dy in EIGHT_NEIGHBOURS]
    return tuple(tuple(move for bit, move in enumerate(moves) if mask >> bit & 1)
                 for mask in range(256))


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
    an earlier one, is not cast again. A pose that is cast walks no ray
    either: ``grid.walk_fan`` shifts the memoized walks of the fan from
    the pose's sub-cell part, which the poses, all cell centers, largely
    share (on a map of 1 m cells from the origin, all of them do). The
    cache is exact: a cast is a pure
    function of the pose, ``config`` and the map's fixed geometry (origin,
    cell or element size, dims), while beliefs are read fresh at encode
    time in every call. So one cache serves one map geometry and one
    ``config``; ``sim.run_episode`` owns one per episode. Its keys are
    planning cells times the 8 path-tangent headings, so it needs no bound:
    over A7 worlds 0-9 (both maps, ``ssmi`` and ``fsmi-binary``) the
    largest held 556 fans in 1.23 MB of cells plus 1.08 MB of the beam
    masks the overlap filter built on them (``FanCast.masks``: 0.97 MB of
    ints, 0.10 MB of lists). A call on its own passes an empty dict.
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
