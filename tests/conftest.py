import functools
import heapq
import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from ssmi import logodds
from ssmi import mi as mi_mod
from ssmi.config import config_from_dict
from ssmi.errors import BadDims, EmptyRay, InvalidClass, NoFrontiers, PoseInObstacle, Unreachable
from ssmi.grid import BeamMeasurement, GridMap, Scan, SrleRay
from ssmi.logodds import SensorParams
from ssmi.mi import FanCast, fan_angles
from ssmi.octree import NEG_INF, LeafTable, TruncatedSemantics, _lumped_row, morton
from ssmi.planner import EIGHT_NEIGHBOURS, Frontier
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


def planar_beam(xy, angle: float, rng: float, category: int | None, max_range: float,
                z: float = 0.5) -> BeamMeasurement:
    """A beam in the z-plane of a depth-one map (z defaults to the cell
    center), at ``angle`` from the x axis."""
    return BeamMeasurement((xy[0], xy[1], z), (math.cos(angle), math.sin(angle), 0.0), rng,
                           category, max_range)


def scan_beams(scan: Scan) -> list[BeamMeasurement]:
    """A scan record's beams, each a ``BeamMeasurement`` from its origin."""
    return [BeamMeasurement(scan.origin, d, r, y, scan.max_range)
            for d, r, y in zip(scan.directions, scan.ranges, scan.labels)]


def sorted_pairs(pairs) -> tuple[tuple[int, float], ...]:
    """(class, log-odds) pairs in a belief's order: descending log-odds,
    the class breaking ties."""
    return tuple(sorted(pairs, key=lambda cv: (-cv[1], cv[0])))


def from_full(h) -> TruncatedSemantics:
    """The belief of a full K+1 log-odds vector, one vector at a time: the
    top three classes by (-value, class), and with K > 3 the rest lumped
    by ``logodds.logsumexp`` in that order; the pivot is not read. The
    reference for the stored rows the octree makes of full rows
    (``octree._lumped_rows``)."""
    h = np.asarray(h, dtype=np.float64)
    pairs = sorted_pairs(enumerate(h[1:].tolist(), 1))
    if h.shape[0] <= 4:
        return TruncatedSemantics(data=pairs, others=NEG_INF)
    return TruncatedSemantics(data=pairs[:3],
                              others=logodds.logsumexp(np.array([v for _, v in pairs[3:]])))


def to_full(sem: TruncatedSemantics, num_classes: int) -> np.ndarray:
    """A belief's full K+1 vector, one belief at a time: exact when all
    classes are tracked; untracked classes split the lump evenly. The
    reference for the store's ``full`` rows (``_Beliefs.ids``)."""
    h = np.full(num_classes + 1, sem.others - math.log(max(num_classes - len(sem.data), 1)))
    h[0] = 0.0
    for c, v in sem.data:
        h[c] = v
    return h


def tree_leaves(tree) -> list:
    """(belief, low corner, edge in elements) of every leaf of a tree, read
    from its derived leaves, in preorder, which is Morton order; each id's
    belief is built once from its stored row, and each corner is its
    start's bits taken apart one by one."""
    table = tree.leaf_table()
    ids = table.ids.tolist()
    beliefs = {i: tree._beliefs.semantics(i) for i in set(ids)}
    return [(beliefs[i], tuple(sum((start >> 3 * b + 2 - axis & 1) << b
                                   for b in range(tree.max_depth)) for axis in range(3)), size)
            for start, size, i in zip(table.starts.tolist(), table.sizes.tolist(), ids)]


def belief_ids(tree, beliefs) -> np.ndarray:
    """The store's id of each belief, interned by its stored row
    (``_lumped_row``)."""
    return tree._beliefs.ids(np.array([_lumped_row(sem) for sem in beliefs]).reshape(-1, 7))


def write_beliefs(tree, cells, sem) -> None:
    """Give every element of ``cells`` the belief ``sem`` (any belief, also
    one ``set_element`` cannot make from a full vector) in one write."""
    codes = np.unique(morton(*np.array(cells, dtype=np.int64).reshape(-1, 3).T))
    tree._write(codes, tree._held(codes), np.repeat(belief_ids(tree, [sem]), codes.shape[0]))


def f_logratio_rows(phi: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-wise ``logodds.f_logratio`` for (N, K+1) stacks. The reference for
    the beam kernels' fused row terms (``mi._row_terms``), which give these
    values bit for bit while sharing one log-sum-exp of ``h`` and one
    softmax pass over the free and hit models."""
    phi = np.asarray(phi, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    phi, h = np.broadcast_arrays(phi, h)
    shifted = phi + h
    z1 = logodds.logsumexp(h, axis=-1)
    z2 = logodds.logsumexp(shifted, axis=-1)
    return z1 - z2 + np.sum(phi * logodds.softmax_pmf(shifted), axis=-1)


def random_logodds(rng, n, k, scale=6.0):
    h = np.zeros((n, k + 1))
    h[:, 1:] = rng.uniform(-scale, scale, (n, k))
    return h


def stacked_casts(traces):
    """The cells past each ``RayTrace``'s sensor cell, stacked in trace order
    as the traces hold them, and each trace's count of them: the arguments
    of ``encode_traces`` built from full traces."""
    cells = np.concatenate([np.empty((0, 3), dtype=np.int64)] + [t.cells[1:] for t in traces])
    return cells, [len(t.cells) - 1 for t in traces]


def cast_fan(mapper, beams: list[BeamMeasurement]) -> FanCast:
    """Cast each beam with ``mapper.cast_ray`` (a GridMap or a semantic
    octree) and keep the compact form. Out-of-bounds beams propagate. The
    reference ``FanCast.from_pose`` is held to, byte for byte."""
    cells = [mapper.cast_ray(beam).cells[1:] for beam in beams]
    return FanCast(np.concatenate([_NO_CELLS] + cells).astype(np.int32),
                   tuple(len(c) for c in cells), mapper.dims)


def select_nonoverlapping_reference(cells, counts) -> list[int]:
    """The greedy overlap filter over sets of cell tuples: beam b claims its
    ``counts[b]`` cells of the stacked ``cells`` and is kept when none of
    them is claimed by a beam kept before it, in input order. The key
    filter ``mi.select_nonoverlapping`` is held to it."""
    chosen, used = [], set()
    end = 0
    for idx, count in enumerate(counts):
        start, end = end, end + count
        claimed = {tuple(c) for c in np.asarray(cells)[start:end].tolist()}
        if claimed.isdisjoint(used):
            chosen.append(idx)
            used |= claimed
    return chosen


def trajectories_mi_reference(mapper, fans, trajectories, params):
    """``mi.trajectories_mi`` with the overlap filter on cell sets: each
    trajectory's casts joined into one stack of cells and counts, the set
    greedy run on it, and the kept beams' cells sliced at the cumulative
    counts of their fans, recomputed per call; the union of kept beams is
    evaluated in one kernel call and each trajectory adds its kept beams'
    values in keep order. Returns each trajectory's kept list and the
    ``BatchMI``."""
    slots, kept, totals, keeps = {}, [], [], []
    for traj in trajectories:
        casts = [fans[f] for f in traj]
        pairs = [(f, b) for f, cast in zip(traj, casts) for b in range(len(cast))]
        keep = select_nonoverlapping_reference(
            np.concatenate([_NO_CELLS] + [c.cells for c in casts]),
            [n for c in casts for n in c.counts])
        keeps.append(keep)
        kept.append([(i, slots.setdefault(pairs[i], len(slots))) for i in keep])
        totals.append(len(pairs))
    pieces = []
    for f, b in slots:
        starts = np.cumsum((0,) + fans[f].counts)
        pieces.append(fans[f].cells[starts[b]:starts[b + 1]])
    evaluated = mi_mod._traces_mi(mapper, np.concatenate([_NO_CELLS] + pieces),
                                  [len(p) for p in pieces], params)
    results = []
    for picks, beams_total in zip(kept, totals):
        beams = [(i, evaluated[pos]) for i, pos in picks if evaluated[pos] is not None]
        total = 0.0
        for _, value in beams:
            total += value
        results.append(mi_mod.TrajectoryMI(value=total, beams_total=beams_total,
                                           beams_kept=len(picks), beams=beams))
    return keeps, mi_mod.BatchMI(trajectories=results, beams_evaluated=len(slots))


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


def element_beliefs(tree) -> np.ndarray:
    """The belief of every element of a tree's cube, a dense object array
    indexed by (x, y, z), filled block by block from its leaves."""
    n = tree.size_elements
    beliefs = np.empty((n, n, n), dtype=object)
    for sem, (x, y, z), size in tree_leaves(tree):
        beliefs[x:x + size, y:y + size, z:z + size] = sem
    return beliefs


def numpy_update(params: SensorParams, prior: np.ndarray):
    """The K <= 3 element update on numpy rows, one belief at a time: a
    function from hit class (None for a traversed element) to the update
    of one belief, ``clamp(posterior_update(h, l, h0))`` on its full row
    and then its truncation (``from_full``)."""
    def update(y):
        l = params.phi_minus if y is None else params.hit_logodds(y)
        return lambda sem: from_full(logodds.clamp(
            logodds.posterior_update(to_full(sem, params.num_classes), l, prior), params))

    return update


def _uniform_scalar(vec: np.ndarray, name: str) -> float:
    if not np.all(vec[1:] == vec[1]):
        raise ValueError(f"{name} must be class-uniform when classes are lumped (K > 3)")
    return float(vec[1])


def element_update(params: SensorParams, prior: np.ndarray):
    """The lumped (K > 3) element update, one belief at a time: a function
    from hit class (None for a traversed element, InvalidClass outside
    1..K) to the update of one belief. The reference the octree's update
    of lumped rows (``SemanticOctree.insert_scan``) is held to.

    The parameters must be class-uniform (ValueError here otherwise), and
    a hit on an untracked class splits an alpha fraction off the lump for
    the new class, updates, keeps the three largest values, folds the rest
    back into the lump, and clamps with its own ``min``/``max``.
    """
    k = params.num_classes
    # parameters must treat occupied classes interchangeably
    phi_m = _uniform_scalar(params.phi_minus, "phi_minus")
    phi_p = _uniform_scalar(params.phi_plus, "phi_plus")
    psi_p = _uniform_scalar(params.psi_plus, "psi_plus")
    lo = _uniform_scalar(params.clamp_lo, "clamp_lo")
    hi = _uniform_scalar(params.clamp_hi, "clamp_hi")
    prior_occ = _uniform_scalar(np.asarray(prior), "prior")
    free_shift = phi_m - prior_occ
    hit_shift = phi_p - prior_occ
    log_alpha = math.log(params.alpha)
    log_rest = math.log1p(-params.alpha)

    def clip(v: float) -> float:
        return min(max(v, lo), hi)

    def free(sem: TruncatedSemantics) -> TruncatedSemantics:
        data = sorted_pairs((c, clip(v + free_shift)) for c, v in sem.data)
        return TruncatedSemantics(data=data, others=clip(sem.others + free_shift))

    def hit(y: int, sem: TruncatedSemantics) -> TruncatedSemantics:
        if any(c == y for c, _ in sem.data):
            data = sorted_pairs(
                (c, clip(v + hit_shift + (psi_p if c == y else 0.0))) for c, v in sem.data
            )
            return TruncatedSemantics(data=data, others=clip(sem.others + hit_shift))
        # alpha fraction of the lump becomes the newly tracked class; the kept
        # classes are chosen before the clamp and re-sorted after it, since two
        # of them can clamp to the same value
        rest = sem.others + phi_p - prior_occ + log_rest
        candidates = [(c, v + hit_shift) for c, v in sem.data]
        candidates.append((y, sem.others + log_alpha + hit_shift + psi_p))
        candidates = sorted_pairs(candidates)
        dropped = [v for _, v in candidates[3:]]
        lump = logodds.logsumexp(np.array(dropped + [rest]))
        return TruncatedSemantics(
            data=sorted_pairs((c, clip(v)) for c, v in candidates[:3]),
            others=clip(float(lump)),
        )

    def update(y):
        if y is None:
            return free
        if not 1 <= y <= k:
            raise InvalidClass(f"hit class must be in 1..{k}, got {y}")
        return functools.partial(hit, y)

    return update


def scan_reference(tree, beliefs: np.ndarray, beams: Scan | list[BeamMeasurement],
                   params: SensorParams) -> np.ndarray:
    """A scan on a dense belief array of ``tree``'s cube, in place, one
    element update at a time in scan order: on a scan record's beams
    (``scan_beams``) or a list of beams, each element ``tree.cast_ray``
    traverses gets the free update of its belief and each hit element the
    hit update, beam by beam; the update is ``numpy_update`` with K <= 3
    and the lumped ``element_update`` with K > 3. No memo, no grouping and
    no interning."""
    if params.num_classes != tree.num_classes:
        raise ValueError("sensor parameters and tree disagree on K")
    update = (numpy_update if tree.num_classes <= 3 else element_update)(params, tree.prior)
    for beam in scan_beams(beams) if isinstance(beams, Scan) else beams:
        trace = tree.cast_ray(beam)
        cells = [tuple(cell) for cell in trace.cells.tolist()]
        end = trace.hit_index if trace.hit_index is not None else len(cells)
        for cell in cells[:end]:
            beliefs[cell] = update(None)(beliefs[cell])
        if trace.hit_index is not None:
            beliefs[cells[end]] = update(beam.category)(beliefs[cells[end]])
    return beliefs


def exact_key(sem: TruncatedSemantics):
    """A dict key that tells beliefs apart bit for bit: the belief itself,
    paired with the signs of its zeros when it holds any (``0.0 == -0.0``).
    The reference ``TruncatedSemantics.record`` is held to."""
    zeros = [math.copysign(1.0, v) for _, v in sem.data if v == 0.0]
    if sem.others == 0.0:
        zeros.append(math.copysign(1.0, sem.others))
    return (sem, tuple(zeros)) if zeros else sem


def pruned_leaves_reference(beliefs: np.ndarray) -> list:
    """The unique pruned leaves of a dense cube of beliefs, in preorder:
    (belief, low corner, edge) for each aligned block whose elements all
    hold one belief bit for bit (one ``record``, which is ``exact_key``)
    while its parent's do not, the belief being the block's first
    element's. Found by recursion over the eight children of every block
    that is not uniform, in slot order."""
    index: dict = {}
    keys = np.array([index.setdefault(sem.record, len(index)) for sem in beliefs.ravel()])
    keys = keys.reshape(beliefs.shape)
    leaves = []

    def visit(x, y, z, size):
        block = keys[x:x + size, y:y + size, z:z + size]
        if (block == block[0, 0, 0]).all():
            leaves.append((beliefs[x, y, z], (x, y, z), size))
            return
        half = size // 2
        for slot in range(8):
            visit(x + (slot >> 2) * half, y + (slot >> 1 & 1) * half, z + (slot & 1) * half, half)

    visit(0, 0, 0, beliefs.shape[0])
    return leaves


def leaf_bits(leaves) -> list:
    """Leaves (belief, corner, edge) with each belief as its bits (its
    record)."""
    return [(sem.record, corner, size) for sem, corner, size in leaves]


def insert_scan_reference(tree, beams: Scan | list[BeamMeasurement], params: SensorParams):
    """``SemanticOctree.insert_scan`` on the dense references: the tree's
    element beliefs (``element_beliefs``) take one update per element
    update in scan order (``scan_reference``), and the tree is set to
    their pruned leaves (``pruned_leaves_reference``), beliefs interned.
    The reference the grouped, memoized scan and its write, a splice of
    runs, are held to, bit for bit."""
    leaves = pruned_leaves_reference(scan_reference(tree, element_beliefs(tree), beams, params))
    ids = belief_ids(tree, [sem for sem, _, _ in leaves])
    tree._set_leaves(morton(*np.array([corner for _, corner, _ in leaves]).T), ids)
    return tree


def leaves_of_runs_reference(starts, ids, max_depth: int):
    """The leaves of runs of belief ids in Morton order (``starts``
    ascending from 0, a run ending where the next begins, the last at the
    cube's end), one run at a time in Python: from the run's start, the
    largest aligned block that begins there and fits in the run, then on
    from its end. Starts, sizes and ids in preorder, as ``octree._leaves``
    gives them."""
    ends = [*np.asarray(starts).tolist()[1:], 8 ** max_depth]
    leaves = []
    for start, end, i in zip(np.asarray(starts).tolist(), ends, np.asarray(ids).tolist()):
        while start < end:
            level = 0
            while (level < max_depth and start % 8 ** (level + 1) == 0
                   and start + 8 ** (level + 1) <= end):
                level += 1
            leaves.append((start, 1 << level, i))
            start += 8 ** level
    return tuple(np.array(column, dtype=np.int64) for column in zip(*leaves))


def off_prior(tree, sem) -> bool:
    """Whether a belief's bits differ from the tree's prior: what the
    octree's observed flag reads."""
    return exact_key(sem) != exact_key(from_full(tree.prior))


def belief_entropy(sem: TruncatedSemantics) -> float:
    """Entropy in nats of a truncated belief's pivot, tracked values and
    lump (when finite) as one log-odds vector, on that vector alone: the
    reference for the entropy ``map_state`` takes of each stored row."""
    values = [0.0] + [v for _, v in sem.data]
    if math.isfinite(sem.others):
        values.append(sem.others)
    h = np.array(values)
    logp = h - logodds.logsumexp(h)
    p = np.exp(logp)
    return float(-np.sum(np.where(p > 0.0, p * logp, 0.0)))


def leaf_table_reference(tree) -> LeafTable:
    """The tree's leaf table with the rows of every id of its belief store
    computed afresh from the belief, one belief at a time: ``rows`` by
    ``_lumped_row`` and ``full`` by ``to_full``, each belief built from its
    stored row. The reference for the rows the store makes when it interns
    a row (``_Beliefs.ids``)."""
    table = tree.leaf_table()
    beliefs = [tree._beliefs.semantics(i) for i in range(len(tree._beliefs))]
    return LeafTable(
        starts=table.starts,
        sizes=table.sizes,
        ids=table.ids,
        rows=np.array([_lumped_row(sem) for sem in beliefs]),
        full=np.array([to_full(sem, tree.num_classes) for sem in beliefs]),
    )


def set_cell(gmap: GridMap, cell, h, observed: bool = True) -> None:
    """Write one grid cell's belief directly, for scene construction: ``h``
    must have length K+1 and a zero pivot (ValueError otherwise)."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (gmap.num_classes + 1,) or h[0] != 0.0:
        raise ValueError("cell log-odds must have length K+1 with zero pivot")
    gmap.cells[tuple(cell)] = h
    gmap.observed[tuple(cell)] = observed


def signed_zero_grid() -> GridMap:
    """A 4x4x4 grid (K = 3, the all-zero uniform prior) whose 2x2x2 corner
    alternates +0.0 and -0.0 in class 2, and whose cell (3, 3, 3) holds
    the prior with -0.0 in class 1: beliefs ``==`` cannot tell apart.
    Observed where a cell's bits are not the prior's, as the octree reads
    it."""
    gmap = GridMap((4, 4, 4), 1.0, 3)
    for cell in itertools.product(range(2), repeat=3):
        set_cell(gmap, cell, [0.0, 1.5, 0.0 if sum(cell) % 2 else -0.0, -2.0])
    set_cell(gmap, (3, 3, 3), [0.0, -0.0, 0.0, 0.0])
    return gmap


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
    end = trace.hit_index if trace.hit_index is not None else len(trace.cells)
    free = tuple(trace.cells[:end].T)
    gmap.cells[free] = logodds.clamp(gmap.cells[free] + (params.phi_minus - gmap.prior), params)
    gmap.observed[free] = True
    if trace.hit_index is not None:
        hit = tuple(trace.cells[end])
        l = params.hit_logodds(beam.category)
        gmap.cells[hit] = logodds.clamp(gmap.cells[hit] + (l - gmap.prior), params)
        gmap.observed[hit] = True
    return gmap


def traverse_reference(origin_g, direction, s_max, dims):
    """Numpy parametric voxel walk in grid units: the loop the scalar caster
    (``grid.voxel_walk``) replaced, kept as its bit-for-bit reference. Tied
    axes step together."""
    origin_g = np.asarray(origin_g, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    cell = np.floor(origin_g).astype(np.int64)
    step = np.sign(direction).astype(np.int64)
    t_next = np.full(3, np.inf)
    t_delta = np.full(3, np.inf)
    with np.errstate(over="ignore"):  # subnormal components step at infinity
        for i in range(3):
            if direction[i] > 0.0:
                t_next[i] = (cell[i] + 1.0 - origin_g[i]) / direction[i]
                t_delta[i] = 1.0 / direction[i]
            elif direction[i] < 0.0:
                t_next[i] = (cell[i] - origin_g[i]) / direction[i]
                t_delta[i] = -1.0 / direction[i]

    cells = []
    entries = []
    t = 0.0
    while True:
        cells.append(cell.copy())
        entries.append(t)
        t_exit = float(np.min(t_next))
        if t_exit >= s_max:
            entries.append(s_max)
            break
        advance = t_next == t_exit
        cell = cell + np.where(advance, step, 0)
        with np.errstate(over="ignore"):  # so do their later boundaries
            t_next = np.where(advance, t_next + t_delta, t_next)
        t = t_exit
        if np.any(cell < 0) or np.any(cell >= dims):
            entries.append(t)  # close the last interval at the boundary
            break
    return cells, entries


def first_hit_reference(env, origin, direction, max_range):
    """The first non-free ground-truth cell along one ray, read by numpy
    scalar indexing of ``env.grid`` along the numpy reference walk
    (``traverse_reference``): (range, class), or None. The origin and the
    direction are any three reals (a beam's float tuples, lists, arrays)."""
    cells, entries = traverse_reference(np.asarray(origin, dtype=np.float64) / env.resolution,
                                        direction, max_range / env.resolution,
                                        np.array(env.dims))
    for n, cell in enumerate(cells):
        cls = env.grid[tuple(cell)]
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
    bits and ``Unreachable`` messages, and the same ``ValueError`` for a
    cell outside the view."""
    nx, ny = view.free.shape
    for name, cell in (("start", start), ("goal", goal)):
        if not (0 <= cell[0] < nx and 0 <= cell[1] < ny):
            raise ValueError(f"{name} {cell} is outside the view's {nx}x{ny} cells")
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


def find_frontiers_reference(view, min_size: int = 3) -> list:
    """Frontier clusters with one ``labels == lab`` scan per cluster: the
    clusters ``planner.find_frontiers`` is held to, with the same cells,
    centroids, order and ``NoFrontiers`` message."""
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
