import math

import numpy as np
import pytest

from ssmi import logodds
from ssmi.config import config_from_dict
from ssmi.errors import BadDims, EmptyRay
from ssmi.grid import BeamMeasurement, SrleRay
from ssmi.logodds import SensorParams
from ssmi.mi import FanCast, fan_angles
from ssmi.octree import LeafTable, _exact_key, element_update, morton
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
    changed = set()
    for beam in beams:
        trace = tree.cast_ray(beam)
        cells = trace.cells.tolist()
        end = trace.hit_index if trace.hit_index is not None else len(cells)
        for cell in cells[:end]:
            if tree._write_element(cell, update(None)):
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
