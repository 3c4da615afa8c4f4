import heapq
import math

import numpy as np
import pytest

from ssmi import logodds
from ssmi.config import config_from_dict
from ssmi.errors import BadDims, EmptyRay, PoseInObstacle, Unreachable
from ssmi.grid import BeamMeasurement, SrleRay, voxel_walk
from ssmi.logodds import SensorParams
from ssmi.mi import FanCast, fan_angles
from ssmi.octree import LeafTable, _exact_key, element_update, morton
from ssmi.planner import EIGHT_NEIGHBOURS
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


def beam_mi_dense_direct(h_t: np.ndarray, h_0: np.ndarray, params: SensorParams) -> float:
    """Direct O(K N^2) evaluation with every prefix rebuilt from scratch.

    Exists to validate the forward recursion; shares the f kernel but no
    prefix bookkeeping with :func:`beam_mi_dense`.
    """
    h_t = np.atleast_2d(np.asarray(h_t, dtype=np.float64))
    h_0 = np.broadcast_to(np.asarray(h_0, dtype=np.float64), h_t.shape)
    n_cells = h_t.shape[0]
    if n_cells == 0:
        raise EmptyRay("dense information query over zero cells")
    k_classes = params.num_classes
    pmf = logodds.softmax_pmf(h_t)
    total = 0.0
    for k in range(1, k_classes + 1):
        for n in range(n_cells):
            p = pmf[n, k]
            c = logodds.f_logratio(params.models[k] - h_0[n], h_t[n])
            for i in range(n):
                p *= pmf[i, 0]
                c += logodds.f_logratio(params.phi_minus - h_0[i], h_t[i])
            total += p * c
    p_pass = float(np.prod(pmf[:, 0]))
    c_pass = sum(
        logodds.f_logratio(params.phi_minus - h_0[i], h_t[i]) for i in range(n_cells)
    )
    return total + p_pass * c_pass


def beam_mi_srle_direct(ray: SrleRay, params: SensorParams) -> float:
    """Direct run-by-run evaluation with explicit geometric summation loops.

    Rebuilds rho and beta from scratch per run and sums the in-run series
    term by term; independent of both the closed forms and the recursion.
    """
    if ray.num_runs == 0:
        raise EmptyRay("run-length information query over zero runs")
    pmf = logodds.softmax_pmf(ray.chi_t)
    k_classes = params.num_classes
    total = 0.0
    for k in range(1, k_classes + 1):
        for q in range(ray.num_runs):
            rho = pmf[q, k]
            beta = logodds.f_logratio(params.models[k] - ray.chi_0[q], ray.chi_t[q])
            for j in range(q):
                rho *= pmf[j, 0] ** int(ray.widths[j])
                beta += int(ray.widths[j]) * logodds.f_logratio(
                    params.phi_minus - ray.chi_0[j], ray.chi_t[j]
                )
            ffq = logodds.f_logratio(params.phi_minus - ray.chi_0[q], ray.chi_t[q])
            s0 = sum(pmf[q, 0] ** j for j in range(int(ray.widths[q])))
            s1 = sum(j * pmf[q, 0] ** j for j in range(int(ray.widths[q])))
            total += rho * (beta * s0 + ffq * s1)
    p_pass = float(np.prod([pmf[q, 0] ** int(ray.widths[q]) for q in range(ray.num_runs)]))
    c_pass = sum(
        int(ray.widths[q])
        * logodds.f_logratio(params.phi_minus - ray.chi_0[q], ray.chi_t[q])
        for q in range(ray.num_runs)
    )
    return total + p_pass * c_pass


def insert_scan_reference(tree, beams: list[BeamMeasurement], params: SensorParams):
    """``SemanticOctree.insert_scan`` with one update per element and no
    memo: each traversed element gets the free update of its belief and
    each hit element the hit update, written in beam order, then the paths
    to the changed elements are pruned. The reference the memoized scan is
    held to, bit for bit."""
    if params.num_classes != tree.num_classes:
        raise ValueError("sensor parameters and tree disagree on K")
    update = element_update(params, tree.prior)
    free = update(None)
    changed = set()
    for beam in beams:
        trace = tree.cast_ray(beam)
        cells = trace.cells.tolist()
        end = trace.hit_index if trace.hit_index is not None else len(cells)
        for cell in cells[:end]:
            if tree._write_element(cell, free):
                changed.add(tuple(cell))
        if trace.hit_index is not None and tree._write_element(cells[end], update(beam.category)):
            changed.add(tuple(cells[end]))
    tree.prune(changed)
    return tree


def leaf_table_reference(tree) -> LeafTable:
    """The leaf table of a tree by one walk over all its leaves: beliefs
    numbered bit for bit (``_exact_key``) by their first leaf in preorder,
    ``same`` the first number equal under ``==``, and every row computed
    from the belief. The full build a patched table is held to."""
    by_key, by_value, beliefs, same = {}, {}, [], []
    corners, sizes, ids = [], [], []
    for sem, corner, size in tree.iter_leaves():
        key = _exact_key(sem)
        i = by_key.get(key)
        if i is None:
            i = by_key[key] = len(beliefs)
            beliefs.append(sem)
            same.append(by_value.setdefault(sem, i))
        corners.extend(corner)
        sizes.append(size)
        ids.append(i)
    corners = np.array(corners, dtype=np.int64).reshape(-1, 3)
    return LeafTable(
        starts=morton(*corners.T),
        corners=corners,
        sizes=np.array(sizes, dtype=np.int64),
        ids=np.array(ids, dtype=np.intp),
        full=np.array([sem.to_full(tree.num_classes) for sem in beliefs]),
        same=np.array(same, dtype=np.intp),
        entropy=np.array([sem.entropy() for sem in beliefs]),
        observed=np.array([sem != tree.prior_semantics for sem in beliefs], dtype=bool),
    )


def spawn_cells_reference(grid: np.ndarray) -> list[tuple[int, int, int]]:
    """``sim._spawn_cells`` one cell at a time: free cells whose 3x3
    in-plane neighbourhood is free, in (i, j, k) order."""
    nx, ny, nz = grid.shape
    spawns = []
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            for k in range(nz):
                if np.all(grid[i - 1 : i + 2, j - 1 : j + 2, k] == 0):
                    spawns.append((i, j, k))
    return spawns


def gen_random_reference(rng: np.random.Generator, dims, num_classes: int,
                         target: float) -> np.ndarray:
    """``sim._gen_random`` with one scalar ``rng.integers`` call per draw,
    counting the occupied cells of the grid before every attempt. The
    batched generator is held to its grids byte for byte."""
    nx, ny = dims[0], dims[1]
    grid = np.zeros((nx, ny, 1), dtype=np.int16)
    margin, gap = 2, 2
    target_cells = target * nx * ny
    attempts = 0
    while np.count_nonzero(grid) < target_cells and attempts < 4000:
        attempts += 1
        wx = int(rng.integers(2, 4))
        wy = int(rng.integers(2, 4))
        if nx - margin - wx <= margin or ny - margin - wy <= margin:
            raise BadDims("environment too small for obstacle blocks")
        x0 = int(rng.integers(margin, nx - margin - wx + 1))
        y0 = int(rng.integers(margin, ny - margin - wy + 1))
        cls = int(rng.integers(1, num_classes + 1))
        # keep a 2-cell free moat around each block so free space stays connected
        xlo, xhi = max(0, x0 - gap), min(nx, x0 + wx + gap)
        ylo, yhi = max(0, y0 - gap), min(ny, y0 + wy + gap)
        if np.any(grid[xlo:xhi, ylo:yhi, 0] != 0):
            continue
        grid[x0 : x0 + wx, y0 : y0 + wy, 0] = cls
    return grid


def integrate_reference(gmap, beam: BeamMeasurement, params: SensorParams):
    """One beam fused on its own: traversed cells get the free update, the
    endpoint cell the hit update for the observed class, each as one
    indexed write of ``clamp(h + (l - h0))`` over the rows of its cells.
    The per-beam loop that ``GridMap.insert_scan``'s rounds are held to,
    bit for bit."""
    if params.num_classes != gmap.num_classes:
        raise ValueError("sensor parameters and map disagree on K")
    trace = gmap.cast_ray(beam)
    end = trace.hit_index if trace.hit_index is not None else len(trace)
    free = tuple(trace.cells[:end].T)
    gmap.cells[free] = logodds.clamp(gmap.cells[free] + (params.phi_minus - gmap.prior), params)
    gmap.observed[free] = True
    if trace.hit_index is not None:
        hit = tuple(trace.cells[end])
        l = params.hit_logodds(beam.category)
        gmap.cells[hit] = logodds.clamp(gmap.cells[hit] + (l - gmap.prior), params)
        gmap.observed[hit] = True
    return gmap


def first_hit_reference(env, origin, direction, max_range):
    """The first non-free ground-truth cell along one ray, read by numpy
    scalar indexing of ``env.grid`` along ``voxel_walk``: (range, class),
    or None."""
    g = (np.asarray(origin, dtype=np.float64) / env.resolution).tolist()
    coords, entries = voxel_walk(g, direction.tolist(), max_range / env.resolution, env.dims)
    truth = env.grid
    for n in range(len(entries) - 1):
        cls = truth[coords[3 * n], coords[3 * n + 1], coords[3 * n + 2]]
        if cls != 0:
            return entries[n] * env.resolution, int(cls)
    return None


def sense_reference(env, position, heading, spec, rng) -> list[BeamMeasurement]:
    """``sim.sense`` one beam at a time: a first-hit search per beam
    (``first_hit_reference``), then that beam's noise draws. The scan
    ``sense`` is held to, beam for beam and draw for draw."""
    position = np.asarray(position, dtype=np.float64)
    g = position / env.resolution
    dims = np.array(env.dims)
    cell = tuple(np.floor(g).astype(int))
    if np.any(g < 0) or np.any(g >= dims):
        raise PoseInObstacle(f"pose {position} outside the environment")
    if env.grid[cell] != 0:
        raise PoseInObstacle(f"pose {position} lies in a class-{env.grid[cell]} cell")

    beams = []
    for angle in fan_angles(spec.num_beams, heading, spec.fov):
        direction = np.array([math.cos(angle), math.sin(angle), 0.0])
        hit = first_hit_reference(env, position, direction, spec.r_max)
        if hit is None:
            beams.append(
                BeamMeasurement(position, direction, spec.r_max, None, spec.r_max)
            )
            continue
        true_range, true_class = hit
        reported = true_range
        if spec.range_sigma > 0.0:
            reported += rng.normal(0.0, spec.range_sigma)
        reported = min(max(reported, 0.0), spec.r_max)
        if reported >= spec.r_max:
            beams.append(
                BeamMeasurement(position, direction, spec.r_max, None, spec.r_max)
            )
            continue
        label = true_class
        if env.num_classes > 1 and spec.misclass_prob > 0.0:
            if rng.random() < spec.misclass_prob:
                others = [c for c in range(1, env.num_classes + 1) if c != true_class]
                label = int(others[rng.integers(len(others))])
        beams.append(BeamMeasurement(position, direction, reported, label, spec.r_max))
    return beams


def plan_path_reference(view, start: tuple[int, int], goal: tuple[int, int]):
    """A* on ``(x, y)`` cells over nested lists, with a bounds check per
    move. The search ``planner.plan_path`` is held to: the same path, cost
    bits and ``Unreachable`` messages."""
    nx, ny = view.free.shape
    free = view.free.tolist()  # nested lists index faster than numpy here
    if not free[start[0]][start[1]]:
        raise Unreachable(f"start {start} is not free-labeled")
    if not free[goal[0]][goal[1]]:
        raise Unreachable(f"goal {goal} is not free-labeled")
    if start == goal:
        return [start], view.resolution

    res = view.resolution

    def heuristic(c):
        return math.hypot(c[0] - goal[0], c[1] - goal[1]) * res

    g_cost = {start: 0.0}
    parent = {start: None}
    counter = 0
    heap = [(heuristic(start), counter, start)]
    closed = set()
    while heap:
        f_val, _, cur = heapq.heappop(heap)
        if cur in closed:
            continue
        if cur == goal:
            path = []
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            path.reverse()
            return path, g_cost[goal]
        closed.add(cur)
        cx, cy = cur
        for dx, dy in EIGHT_NEIGHBOURS:
            nxt = (cx + dx, cy + dy)
            if not (0 <= nxt[0] < nx and 0 <= nxt[1] < ny) or not free[nxt[0]][nxt[1]]:
                continue
            if dx != 0 and dy != 0:
                if not (free[cx + dx][cy] and free[cx][cy + dy]):
                    continue
            step = res * (math.sqrt(2.0) if dx != 0 and dy != 0 else 1.0)
            cand = g_cost[cur] + step
            if cand < g_cost.get(nxt, math.inf) - 1e-12:
                g_cost[nxt] = cand
                parent[nxt] = cur
                counter += 1
                heapq.heappush(heap, (cand + heuristic(nxt), counter, nxt))
    raise Unreachable(f"no free path from {start} to {goal}")
