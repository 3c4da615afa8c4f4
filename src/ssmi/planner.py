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
    of the map whose ``origin`` (three floats) it holds. Its first search
    (``plan_path``) builds the view's search context, which its later
    searches share and which lives and dies with the view."""

    free: np.ndarray
    unknown: np.ndarray
    resolution: float
    origin: tuple[float, float, float]
    z_center: float

    @cached_property
    def move_table(self) -> list[int]:
        """The legal moves of every cell of ``free`` laid out with a blocked
        border, as one flat row-major list of 8-bit masks: bit m is set when
        the m-th move of ``EIGHT_NEIGHBOURS`` lands on a free cell and, for a
        diagonal, both orthogonal neighbours are free too (no corner
        cutting). Cell (x, y) has flat id ``(x + 1) * width + y + 1`` with
        ``width = _row_stride(ny)``: one blocked row above and below, one
        blocked column before each row and at least one after it. Blocked
        cells have no moves. Built once per view, in one numpy pass, for all
        of its searches (``plan_path``); a view is a snapshot: ``free`` is not
        written after the first search."""
        nx, ny = self.free.shape
        padded = np.pad(self.free, 1)

        def shifted(dx, dy):  # free[x + dx, y + dy] for every cell (x, y) of free
            return padded[1 + dx:1 + dx + nx, 1 + dy:1 + dy + ny]

        table = np.zeros((nx + 2, _row_stride(ny)), dtype=np.uint8)
        inner = table[1:-1, 1:ny + 1]
        for bit, (dx, dy) in enumerate(EIGHT_NEIGHBOURS):
            legal = shifted(dx, dy)
            if dx and dy:
                legal = legal & shifted(dx, 0) & shifted(0, dy)
            inner |= legal.astype(np.uint8) << bit
        return table.ravel().tolist()

    @cached_property
    def search_context(self) -> tuple[list[int], np.ndarray, tuple, tuple[float, ...], list[int]]:
        """What every search on this view shares, built on its first search:
        the move table, the 4-connected component label of each cell of
        ``free`` (``label``, 0 for a blocked cell), the memoized moves of each
        move mask, the memoized heuristic table for the view's shape and
        resolution (``_moves_by_mask``, ``_heuristic_table``) and one parent
        list over the move table. Under the no-corner-cutting rule a diagonal
        move needs both orthogonal cells free, so two free cells are joined
        by a path exactly when they share a label. The searches share the
        parent list unreset: a search reads a cell's parent only on its
        path back from the goal, and it wrote every one of those itself."""
        nx, ny = self.free.shape
        table = self.move_table
        return (table, label(self.free),
                _moves_by_mask(_row_stride(ny), self.resolution),
                _heuristic_table(nx, ny, self.resolution), [0] * len(table))

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
    cell; clusters are 8-connected components (``label`` with
    ``diagonal``). Raises NoFrontiers when the boundary is empty, which
    signals that exploration is complete.

    Every cluster comes out of one pass over the labelled cells: one
    stable sort by label gives each cluster's ``cells`` as ``np.intp`` rows
    in row-major order, each cluster's centroid, its cell nearest to the
    mean of its cells (ties by lowest cell index), is picked for all
    clusters at once, and one stable sort by size puts the kept clusters in
    the order their ``Frontier`` objects are built in: ``label`` numbers
    the clusters in the order of their first cells, so clusters of one size
    stay in that order.
    """
    unk = view.unknown
    near_unknown = np.zeros_like(unk)
    near_unknown[1:, :] |= unk[:-1, :]
    near_unknown[:-1, :] |= unk[1:, :]
    near_unknown[:, 1:] |= unk[:, :-1]
    near_unknown[:, :-1] |= unk[:, 1:]
    boundary = view.free & near_unknown
    ny = boundary.shape[1]
    labels = label(boundary, diagonal=True).ravel()
    members = np.flatnonzero(labels)  # row-major
    members = members[np.argsort(labels[members], kind="stable")]
    cluster = labels[members]
    sizes = np.bincount(cluster)[1:]
    kept = np.flatnonzero(sizes >= min_size)
    if not kept.size:
        raise NoFrontiers("no free/unknown boundary left")
    starts = sizes.cumsum() - sizes
    cells = np.stack(np.divmod(members, ny), axis=1)
    mean = np.add.reduceat(cells, starts, axis=0) / sizes[:, None]
    d2 = np.sum((cells - np.repeat(mean, sizes, axis=0)) ** 2, axis=1)
    picks = np.lexsort((members, d2, cluster))[starts]
    kept = kept[np.argsort(-sizes[kept], kind="stable")]
    return [
        Frontier(cells=cells[start:start + size], centroid=(int(cells[pick, 0]), int(cells[pick, 1])))
        for start, size, pick in zip(starts[kept].tolist(), sizes[kept].tolist(), picks[kept].tolist())
    ]


def label(mask: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """The connected components of a 2-D boolean ``mask``, numbered 1, 2, ...
    in the row-major order of their first cells, 0 off the mask, as
    ``int32``: the array of ``ndimage.label``, which the tests hold it to.
    Cells join through their 4 edge neighbours, and with ``diagonal``
    through all 8.

    Union-find over the mask's row runs, numbered in row-major order. A run
    joins the runs of the row above whose columns overlap its own (with
    ``diagonal``, also those that touch it at a corner): one contiguous
    range of runs, found by two binary searches over the runs' first and
    stop keys ``row * width + column``, rows ``width`` apart with a blank
    column at each end. A union keeps the smaller root, so each
    component's root is its first run, and numbering the roots in order
    numbers the components."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny = mask.shape
    width = ny + 2
    padded = np.zeros((nx, width), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    edges = (flat[1:] != flat[:-1]).nonzero()[0] + 1
    first, stop = edges[0::2], edges[1::2]
    touch = 1 if diagonal else 0
    above = zip(stop.searchsorted(first - width - touch, "right").tolist(),
                first.searchsorted(stop - width + touch, "left").tolist())
    root = list(range(first.size))
    for run, (lo, hi) in enumerate(above):
        r = run  # the root of this run's set so far
        for a in range(lo, hi):
            while root[a] != a:
                a = root[a]
            if a < r:
                root[r] = a
                r = a
            elif a > r:
                root[a] = r
    number, count = [], 0  # root[i] <= i is a run of the same set, numbered already
    for i, r in enumerate(root):
        if r == i:
            count += 1
            number.append(count)
        else:
            number.append(number[r])
    out = np.zeros(mask.shape, dtype=np.int32)
    out[mask] = np.array(number, dtype=np.int32).repeat(stop - first)
    return out


def plan_path(view: PlanView, start: tuple[int, int], goal: tuple[int, int]):
    """Shortest 8-connected path through free cells (A*, Euclidean weights).

    Diagonal moves may not cut corners: both orthogonal neighbours must be
    free too. Returns (path, cost_meters); a zero-length path costs one
    resolution unit so information-per-cost ratios stay finite. A start or
    goal outside the view raises ValueError; one that is not free, or a
    goal in another 4-connected component of ``free`` than the start,
    raises Unreachable, the latter before any search.

    Cells are flat ids into the view's move table (``PlanView.move_table``),
    so a move needs no bounds, free or corner check, and the search reads
    everything else it needs from the view's search context
    (``PlanView.search_context``). Moves are tried in ``EIGHT_NEIGHBOURS``
    order and the heap holds ``(f, counter, id)``. The heuristic of a cell
    is read from the table at the cell's id minus the goal's: the rows of
    the move table are wide enough that this difference names the cell's
    offset from the goal, and the table holds ``math.hypot`` of that offset
    times the resolution, so the search pushes and pops as one on ``(x, y)``
    cells does.
    """
    nx, ny = view.free.shape
    for name, cell in (("start", start), ("goal", goal)):
        if not (0 <= cell[0] < nx and 0 <= cell[1] < ny):
            raise ValueError(f"{name} {cell} is outside the view's {nx}x{ny} cells")
    if not view.free[start[0], start[1]]:
        raise Unreachable(f"start {start} is not free-labeled")
    if not view.free[goal[0], goal[1]]:
        raise Unreachable(f"goal {goal} is not free-labeled")
    if start == goal:
        return [start], view.resolution
    table, components, moves_of, heuristic, parent = view.search_context
    if components[start[0], start[1]] != components[goal[0], goal[1]]:
        raise Unreachable(f"no free path from {start} to {goal}")

    width = _row_stride(ny)
    source = (int(start[0]) + 1) * width + int(start[1]) + 1
    target = (int(goal[0]) + 1) * width + int(goal[1]) + 1
    shift = len(heuristic) // 2 - target  # heuristic[id + shift] is cell id's

    g_cost = [math.inf] * len(table)
    g_cost[source] = 0.0
    counter = 0
    heap = [(heuristic[source + shift], counter, source)]
    closed = bytearray(len(table))
    while heap:
        _, _, cur = heapq.heappop(heap)
        if closed[cur]:
            continue
        if cur == target:
            path = []
            while True:
                x, y = divmod(cur, width)
                path.append((x - 1, y - 1))
                if cur == source:
                    break
                cur = parent[cur]
            path.reverse()
            return path, g_cost[target]
        closed[cur] = 1
        g_cur = g_cost[cur]
        for offset, step in moves_of[table[cur]]:
            nxt = cur + offset
            cand = g_cur + step
            if cand < g_cost[nxt] - 1e-12:
                g_cost[nxt] = cand
                parent[nxt] = cur
                counter += 1
                heapq.heappush(heap, (cand + heuristic[nxt + shift], counter, nxt))
    raise Unreachable(f"no free path from {start} to {goal}")


def _row_stride(ny: int) -> int:
    """Row width of a view's move table for rows of ``ny`` cells: a blocked
    cell before each row and ``ny + 1`` after it. The column offset j of
    two cells takes one of the ``2 * ny - 1`` values -(ny - 1)..ny - 1, so
    on rows this wide their id difference ``i * width + j`` names (i, j)."""
    return 2 * ny + 1


@lru_cache(maxsize=16)
def _moves_by_mask(width: int, res: float) -> tuple[tuple[tuple[int, float], ...], ...]:
    """For each 8-bit move mask of ``PlanView.move_table``, the moves it
    allows as ``(flat offset, step cost)`` in ``EIGHT_NEIGHBOURS`` order, on
    a table ``width`` cells wide with cells ``res`` wide."""
    moves = [(dx * width + dy, res * (math.sqrt(2.0) if dx and dy else 1.0))
             for dx, dy in EIGHT_NEIGHBOURS]
    return tuple(tuple(move for bit, move in enumerate(moves) if mask >> bit & 1)
                 for mask in range(256))


@lru_cache(maxsize=16)
def _heuristic_table(nx: int, ny: int, res: float) -> tuple[float, ...]:
    """A* heuristic for an ``nx`` x ``ny`` view with cells ``res`` wide, by
    id difference: entry ``d + C``, with ``C`` half the table's length, is
    ``math.hypot(i, j) * res`` for the cell offset (i, j) whose move-table
    id difference ``i * width + j`` is ``d``. The gaps between rows, which
    no two cells of the view are apart by, hold inf."""
    width = _row_stride(ny)
    gap = [math.inf] * (width - (2 * ny - 1))
    table = []
    for i in range(-(nx - 1), nx):
        table += [math.hypot(i, j) * res for j in range(-(ny - 1), ny)]
        table += gap
    return tuple(table[:len(table) - len(gap)])


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
    largest held 556 fans in 1.23 MB of cells plus 0.93 MB of the cell
    keys the overlap filter built on them (``FanCast.keys``, one array per
    fan), which grow with the beams' cells, not with the map. A call on
    its own passes an empty dict.
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
