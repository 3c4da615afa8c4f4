"""Adaptive-resolution multi-class map: an octree whose leaves hold truncated
categorical beliefs.

Every node has 0 or 8 children. Leaves store at most the 3 most likely class
log-odds plus a single "others" lump for the rest; with K <= 3 all classes are
tracked, the lump stays empty, and element updates reproduce the dense grid
arithmetic bit for bit. After each scan, sibling leaves that ended up with
identical beliefs are pruned into their parent, which is what makes ray casts
over this structure short: a ray meets a handful of homogeneous runs instead
of hundreds of elements.

Queries, ray casts, aggregates and files all read leaves only, so an inner
node holds no belief: the tree is its structure plus the leaf beliefs, and
``save_octree`` writes exactly that (as OctoMap's compact ``.bt`` files do).
"""

from __future__ import annotations

import functools
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import CorruptMap, InvalidClass
from .grid import GRID_MAGIC, BeamMeasurement, GridMap, RayTrace, SrleRay, cast
from .logodds import SensorParams

OCTREE_MAGIC = b"SSMIOCT2"
OCTREE_MAGIC_V1 = b"SSMIOCT1"  # read only

NEG_INF = float("-inf")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TruncatedSemantics:
    """Up to three (class, log-odds) pairs plus one lump for everything else.

    ``data`` is sorted by descending log-odds with class index breaking ties,
    and ``others`` is the log-odds of the aggregate probability of all
    untracked classes (-inf when nothing is untracked).
    """

    data: tuple[tuple[int, float], ...]
    others: float

    def __post_init__(self):
        if len(self.data) > 3:
            raise ValueError("at most 3 tracked classes")
        classes = [c for c, _ in self.data]
        if len(set(classes)) != len(classes) or any(c < 1 for c in classes):
            raise ValueError("tracked classes must be distinct ids >= 1")

    @staticmethod
    def _sorted(pairs) -> tuple[tuple[int, float], ...]:
        return tuple(sorted(pairs, key=lambda cv: (-cv[1], cv[0])))

    @classmethod
    def from_full(cls, h: np.ndarray) -> "TruncatedSemantics":
        """Build from a full K+1 log-odds vector, lumping beyond the top 3."""
        h = np.asarray(h, dtype=np.float64)
        k = h.shape[0] - 1
        pairs = cls._sorted((c, float(h[c])) for c in range(1, k + 1))
        if k <= 3:
            return cls(data=pairs, others=NEG_INF)
        kept = pairs[:3]
        lump = logodds.logsumexp(np.array([v for _, v in pairs[3:]]))
        return cls(data=kept, others=float(lump))

    def to_full(self, num_classes: int) -> np.ndarray:
        """Full K+1 vector. Exact when all classes are tracked; untracked
        classes split the lump evenly (the stored belief has no finer
        information about them)."""
        h = np.empty(num_classes + 1, dtype=np.float64)
        h[0] = 0.0
        tracked = dict(self.data)
        untracked = [c for c in range(1, num_classes + 1) if c not in tracked]
        for c, v in self.data:
            h[c] = v
        if untracked:
            share = self.others - math.log(len(untracked))
            for c in untracked:
                h[c] = share
        return h

    def pseudo_logodds(self) -> np.ndarray:
        """Pivot + tracked values + lump as one log-odds vector for entropy."""
        vals = [0.0] + [v for _, v in self.data]
        if np.isfinite(self.others):
            vals.append(self.others)
        return np.array(vals, dtype=np.float64)

    def entropy(self) -> float:
        return logodds.entropy(self.pseudo_logodds())


class SemanticNode:
    """Tree node: a leaf holds a belief and no children; an inner node holds
    exactly eight children and no belief (``semantics`` is None)."""

    __slots__ = ("semantics", "children")

    def __init__(self, semantics: TruncatedSemantics | None, children=None):
        self.semantics = semantics
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _uniform_scalar(vec: np.ndarray, name: str) -> float:
    if not np.all(vec[1:] == vec[1]):
        raise ValueError(f"{name} must be class-uniform when classes are lumped (K > 3)")
    return float(vec[1])


def _tracked_update(
    sem: TruncatedSemantics, delta, lo, hi, num_classes: int
) -> TruncatedSemantics:
    """K <= 3 update on Python floats: per class ``h + (l - h0)`` clamped to
    ``[lo, hi]``, where ``delta`` holds ``l - h0`` and all three are indexed
    by class. IEEE-identical to ``clamp(posterior_update(h, l, h0))`` followed
    by ``from_full``: the adds round alike, and a value equal to a bound takes
    the bound, as ``np.maximum``/``np.minimum`` return their second argument
    on ties (which decides the sign of a zero)."""
    h = dict(sem.data) if len(sem.data) == num_classes else sem.to_full(num_classes).tolist()
    pairs = []
    for c in range(1, num_classes + 1):
        v = h[c] + delta[c]
        if v <= lo[c]:
            v = lo[c]
        elif v >= hi[c]:
            v = hi[c]
        pairs.append((c, v))
    return TruncatedSemantics(data=TruncatedSemantics._sorted(pairs), others=NEG_INF)


def element_update(params: SensorParams, prior: np.ndarray):
    """The octree's element update, built once per scan: a function from hit
    class (None for a traversed element, InvalidClass outside 1..K) to the
    update of one belief.

    With K <= 3 it is the dense grid's ``clamp(h + (l - h0))`` on Python
    floats (``_tracked_update``). With more classes the parameters must be
    class-uniform (ValueError here otherwise), and a hit on an untracked
    class splits an alpha fraction off the lump for the new class, updates,
    keeps the three largest values, folds the rest back into the lump, and
    clamps.
    """
    k = params.num_classes
    if k <= 3:
        lo, hi = params.clamp_lo.tolist(), params.clamp_hi.tolist()
        made = {}

        def update(y):
            if y not in made:
                l = params.phi_minus if y is None else params.hit_logodds(y)
                delta = (l - prior).tolist()
                made[y] = lambda sem: _tracked_update(sem, delta, lo, hi, k)
            return made[y]

        return update

    # lumped path: parameters must treat occupied classes interchangeably
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
        data = TruncatedSemantics._sorted((c, clip(v + free_shift)) for c, v in sem.data)
        return TruncatedSemantics(data=data, others=clip(sem.others + free_shift))

    def hit(y: int, sem: TruncatedSemantics) -> TruncatedSemantics:
        if any(c == y for c, _ in sem.data):
            data = TruncatedSemantics._sorted(
                (c, clip(v + hit_shift + (psi_p if c == y else 0.0))) for c, v in sem.data
            )
            return TruncatedSemantics(data=data, others=clip(sem.others + hit_shift))
        # alpha fraction of the lump becomes the newly tracked class; the kept
        # classes are chosen before the clamp and re-sorted after it, since two
        # of them can clamp to the same value
        rest = sem.others + phi_p - prior_occ + log_rest
        candidates = [(c, v + hit_shift) for c, v in sem.data]
        candidates.append((y, sem.others + log_alpha + hit_shift + psi_p))
        candidates = TruncatedSemantics._sorted(candidates)
        dropped = [v for _, v in candidates[3:]]
        lump = logodds.logsumexp(np.array(dropped + [rest]))
        return TruncatedSemantics(
            data=TruncatedSemantics._sorted((c, clip(v)) for c, v in candidates[:3]),
            others=clip(float(lump)),
        )

    def update(y):
        if y is None:
            return free
        if not 1 <= y <= k:
            raise InvalidClass(f"hit class must be in 1..{k}, got {y}")
        return functools.partial(hit, y)

    return update


class SemanticOctree:
    """Cube-shaped multi-class map of side ``element_size * 2**max_depth``."""

    def __init__(
        self,
        element_size: float,
        max_depth: int,
        num_classes: int,
        prior: np.ndarray | None = None,
        origin=(0.0, 0.0, 0.0),
    ):
        if max_depth < 1 or max_depth > 16:
            raise ValueError("max_depth must be in 1..16")
        self.element_size = float(element_size)
        self.max_depth = int(max_depth)
        self.num_classes = int(num_classes)
        self.origin = np.asarray(origin, dtype=np.float64)
        if prior is None:
            prior = logodds.uniform_prior(num_classes)
        prior = np.ascontiguousarray(prior, dtype=np.float64)
        if prior.shape != (num_classes + 1,) or prior[0] != 0.0:
            raise ValueError("prior must be a K+1 log-odds vector with zero pivot")
        prior.flags.writeable = False
        self.prior = prior
        self.prior_semantics = TruncatedSemantics.from_full(prior)
        self.root = SemanticNode(self.prior_semantics)
        # belief -> (entropy, observed flag), filled by map_state
        self._belief_stats: dict[TruncatedSemantics, tuple[float, bool]] = {}

    @property
    def size_elements(self) -> int:
        return 1 << self.max_depth

    @property
    def dims(self) -> tuple[int, int, int]:
        n = self.size_elements
        return (n, n, n)

    @property
    def resolution(self) -> float:
        """Element edge length (the grid's name for its cell size)."""
        return self.element_size

    # -- addressing ----------------------------------------------------------

    def leaf_at(self, cell) -> tuple[TruncatedSemantics, tuple[int, int, int], int]:
        """Leaf value covering an element, with the leaf's low corner and edge
        length in elements (used for run caching along rays)."""
        x, y, z = cell
        node = self.root
        bit = self.max_depth - 1
        while node.children is not None:
            node = node.children[((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)]
            bit -= 1
        size = 1 << (bit + 1)
        mask = ~(size - 1)
        return node.semantics, (x & mask, y & mask, z & mask), size

    def query_element(self, cell) -> TruncatedSemantics:
        return self.leaf_at(cell)[0]

    def _box(self, region):
        """A half-open element box ((lo), (hi)) inside the cube, or the whole
        cube for None; ValueError for a box that is not inside it."""
        if region is None:
            return (0, 0, 0), self.dims
        if not all(0 <= lo <= hi <= self.size_elements for lo, hi in zip(region[0], region[1])):
            raise ValueError(f"box {region} is not inside the cube")
        return region

    # -- updates ---------------------------------------------------------------

    def _write_element(self, cell, update) -> bool:
        """The one element writer: a single root-to-leaf descent finds the
        leaf covering the element, and when ``update(belief)`` differs from
        that leaf's belief, the leaf is expanded down to element resolution
        and the new value stored, so saturated space stays pruned. Returns
        whether the element changed."""
        x, y, z = cell
        node = self.root
        bit = self.max_depth - 1
        while node.children is not None:
            node = node.children[((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)]
            bit -= 1
        current = node.semantics
        new = update(current)
        if new == current:
            return False
        while bit >= 0:
            node.children = [SemanticNode(current) for _ in range(8)]
            node.semantics = None
            node = node.children[((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)]
            bit -= 1
        node.semantics = new
        return True

    def set_element(self, cell, h: np.ndarray) -> None:
        """Write an element belief directly (scene construction, conversion)."""
        new = TruncatedSemantics.from_full(np.asarray(h, dtype=np.float64))
        self._write_element(cell, lambda _: new)

    def insert_scan(self, beams: list[BeamMeasurement], params: SensorParams) -> "SemanticOctree":
        """Integrate beams in order (same cell arithmetic as the dense grid),
        then prune bottom-up, visiting only the paths to the elements the
        scan changed: a tree that was pruned before the scan is pruned after
        it."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and tree disagree on K")
        update = element_update(params, self.prior)
        free = update(None)
        write = self._write_element
        changed = set()
        debug = log.isEnabledFor(logging.DEBUG)
        visited = 0
        for beam in beams:
            trace = self.cast_ray(beam)
            cells = trace.cells.tolist()
            end = trace.hit_index if trace.hit_index is not None else len(cells)
            for cell in cells[:end]:
                if write(cell, free):
                    changed.add(tuple(cell))
            if trace.hit_index is not None:
                cell = cells[end]
                if write(cell, update(beam.category)):
                    changed.add(tuple(cell))
            if debug:
                visited += end + (trace.hit_index is not None)
        collapsed = self.prune(changed)
        if debug:
            log.debug(
                "insert_scan: %d beams, %d elements visited, %d changed, %d nodes collapsed",
                len(beams), visited, len(changed), collapsed,
            )
        return self

    def prune(self, cells=None) -> int:
        """Bottom-up: collapse inner nodes whose 8 children are identical
        leaves. Point queries are unaffected. Without ``cells`` the whole tree
        is visited (trees built by hand or loaded from a file); with them,
        only the inner nodes on the root paths of those elements, which is
        enough when the tree was pruned before they were written. Returns
        the number of nodes collapsed."""
        collapsed = 0

        def visit(node: SemanticNode, bit: int, cells) -> None:
            nonlocal collapsed
            if node.children is None:
                return
            if cells is None:
                for child in node.children:
                    visit(child, bit - 1, None)
            else:
                groups: dict[int, list] = {}
                for x, y, z in cells:
                    slot = ((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)
                    groups.setdefault(slot, []).append((x, y, z))
                for slot, group in groups.items():
                    visit(node.children[slot], bit - 1, group)
            first = node.children[0]
            if first.children is None and all(
                c.children is None and c.semantics == first.semantics
                for c in node.children[1:]
            ):
                node.semantics = first.semantics
                node.children = None
                collapsed += 1

        visit(self.root, self.max_depth - 1, cells)
        return collapsed

    # -- ray casting -------------------------------------------------------------

    def cast_ray(self, beam: BeamMeasurement) -> RayTrace:
        """Element-resolution trace through the cube: the dense grid's caster
        with the element size and cube extent, so grid and tree agree on
        what a beam touches."""
        return cast(beam, self.origin.tolist(), self.element_size, self.dims)

    def encode_trace(self, trace: RayTrace, skip_first_cell: bool = False) -> SrleRay | None:
        """Run-length encode leaf beliefs along a trace.

        Consecutive elements with equal beliefs merge into one run even when
        they belong to distinct leaves, so expanding the result reproduces the
        per-element sequence exactly and the widths sum to the element count.
        """
        cells = trace.cells[1:] if skip_first_cell else trace.cells
        if cells.shape[0] == 0:
            return None
        widths: list[int] = []
        values: list[TruncatedSemantics] = []
        sem = None
        lx = ly = lz = size = 0  # the cached leaf's cube, empty at first
        for x, y, z in cells.tolist():
            if not (lx <= x < lx + size and ly <= y < ly + size and lz <= z < lz + size):
                sem, (lx, ly, lz), size = self.leaf_at((x, y, z))
            if values and values[-1] == sem:
                widths[-1] += 1
            else:
                values.append(sem)
                widths.append(1)
        chi_t = np.stack([v.to_full(self.num_classes) for v in values])
        chi_0 = np.broadcast_to(self.prior, chi_t.shape).copy()
        return SrleRay(widths=np.asarray(widths, dtype=np.int64), chi_t=chi_t, chi_0=chi_0)

    def encode_traces(self, traces: list[RayTrace]) -> tuple[SrleRay | None, list[int]]:
        """The runs past each trace's sensor cell (``encode_trace`` with
        ``skip_first_cell``), stacked in trace order, and each trace's run
        count; the runs are None when no trace has a cell past its sensor
        cell."""
        rays = [self.encode_trace(trace, skip_first_cell=True) for trace in traces]
        counts = [0 if ray is None else ray.num_runs for ray in rays]
        rays = [ray for ray in rays if ray is not None]
        if not rays:
            return None, counts
        return SrleRay(
            widths=np.concatenate([ray.widths for ray in rays]),
            chi_t=np.concatenate([ray.chi_t for ray in rays]),
            chi_0=np.concatenate([ray.chi_0 for ray in rays]),
        ), counts

    def raycast_srle(self, beam: BeamMeasurement) -> SrleRay:
        """Cast a beam and return its run-length encoded belief sequence."""
        return self.encode_trace(self.cast_ray(beam), skip_first_cell=False)

    # -- aggregates ----------------------------------------------------------------

    def iter_leaves(self, box=None):
        """Yield (semantics, low_corner, size_elements) over all leaves in
        preorder, or over those overlapping a box (element coordinates,
        ((lo),(hi)) half-open); subtrees outside the box are skipped."""
        (bx, by, bz), (ex, ey, ez) = box if box is not None else ((0, 0, 0), self.dims)
        stack = [(self.root, 0, 0, 0, self.size_elements)]
        while stack:
            node, x, y, z, size = stack.pop()
            if x >= ex or y >= ey or z >= ez or x + size <= bx or y + size <= by or z + size <= bz:
                continue
            if node.children is None:
                yield node.semantics, (x, y, z), size
                continue
            h = size // 2
            c = node.children
            # pushed from slot 7 down, so children pop in slot order
            stack.extend((
                (c[7], x + h, y + h, z + h, h), (c[6], x + h, y + h, z, h),
                (c[5], x + h, y, z + h, h), (c[4], x + h, y, z, h),
                (c[3], x, y + h, z + h, h), (c[2], x, y + h, z, h),
                (c[1], x, y, z + h, h), (c[0], x, y, z, h),
            ))

    def num_leaves(self) -> int:
        return sum(1 for _ in self.iter_leaves())

    def leaf_index(self, box) -> tuple[list[TruncatedSemantics], np.ndarray]:
        """The distinct beliefs of the leaves overlapping a box (element
        coordinates, ((lo),(hi)) half-open, inside the cube) and an int array
        over the box holding each element's position in that list."""
        (bx, by, bz), (ex, ey, ez) = box = self._box(box)
        index = np.empty((ex - bx, ey - by, ez - bz), dtype=np.intp)
        ids: dict[TruncatedSemantics, int] = {}
        units, unit_ids = [], []
        for sem, (x, y, z), size in self.iter_leaves(box):
            i = ids.setdefault(sem, len(ids))
            if size == 1:  # most leaves: filled together below
                units.append((x - bx, y - by, z - bz))
                unit_ids.append(i)
            else:  # slice stops past the box end are clipped by numpy
                index[max(x, bx) - bx:x + size - bx,
                      max(y, by) - by:y + size - by,
                      max(z, bz) - bz:z + size - bz] = i
        if units:
            index[tuple(np.array(units).T)] = unit_ids
        return list(ids), index

    def labels_observed(self, box) -> tuple[np.ndarray, np.ndarray]:
        """Most likely class (the argmax of the full belief, ties to the
        lowest class) and observed flag (belief off the prior) of every
        element in a half-open box ((lo), (hi)) inside the cube."""
        values, index = self.leaf_index(box)
        labels = np.array([np.argmax(v.to_full(self.num_classes)) for v in values], dtype=np.int64)
        observed = np.array([v != self.prior_semantics for v in values], dtype=bool)
        return labels[index], observed[index]

    def map_state(self, region=None) -> tuple[float, float]:
        """``(map_entropy(region), observed_fraction(region))`` from one
        leaf pass. Each belief's entropy and observed flag are cached on the
        tree across calls, keyed by the belief value: both are pure
        functions of it, so an entry is never stale. A pass keeps the
        entries of the beliefs it met and drops the rest. A box not inside
        the cube raises ValueError, as on the grid."""
        (bx, by, bz), (ex, ey, ez) = box = self._box(region)
        cache, kept = self._belief_stats, {}
        entropy = 0.0
        total = seen = 0
        # the walk yields only leaves whose overlap with the box is >= 0 on
        # every axis, so the product is the overlap's element count
        for sem, (x, y, z), size in self.iter_leaves(box):
            n = (
                (min(x + size, ex) - max(x, bx))
                * (min(y + size, ey) - max(y, by))
                * (min(z + size, ez) - max(z, bz))
            )
            stats = kept.get(sem)
            if stats is None:
                stats = cache.get(sem)
                if stats is None:
                    stats = (sem.entropy(), sem != self.prior_semantics)
                kept[sem] = stats
            entropy += n * stats[0]
            total += n
            if stats[1]:
                seen += n
        self._belief_stats = kept
        return entropy, (seen / total if total else 0.0)

    def map_entropy(self, region=None) -> float:
        """Total entropy in nats over a region box (element coordinates,
        ((lo),(hi)) half-open) or the full cube."""
        return self.map_state(region)[0]

    def observed_fraction(self, region=None) -> float:
        """Fraction of elements in the region whose belief moved off the prior."""
        return self.map_state(region)[1]


# -- grid conversion --------------------------------------------------------------


def octree_from_grid(gmap: GridMap) -> SemanticOctree:
    """Copy a dense map into a fresh octree at the grid resolution and prune.
    The cube edge is the next power of two covering the largest extent."""
    depth = max(1, math.ceil(math.log2(max(gmap.dims))))
    tree = SemanticOctree(
        element_size=gmap.resolution,
        max_depth=depth,
        num_classes=gmap.num_classes,
        prior=gmap.prior,
        origin=gmap.origin,
    )
    for i in range(gmap.dims[0]):
        for j in range(gmap.dims[1]):
            for k in range(gmap.dims[2]):
                tree.set_element((i, j, k), gmap.cells[i, j, k])
    tree.prune()
    return tree


def grid_from_octree(tree: SemanticOctree, dims=None) -> GridMap:
    """Sample every element of a region into a dense map. Lumped beliefs
    (K > 3) expand with the untracked classes sharing the lump evenly."""
    dims = tuple(dims) if dims is not None else tree.dims
    gmap = GridMap(dims, tree.element_size, tree.num_classes, tree.prior, tree.origin)
    values, index = tree.leaf_index(((0, 0, 0), gmap.dims))
    full = np.array([v.to_full(tree.num_classes) for v in values])
    np.take(full, index, axis=0, out=gmap.cells)
    np.take([v != tree.prior_semantics for v in values], index, out=gmap.observed)
    return gmap


# -- serialization -----------------------------------------------------------------

# after the magic: element size, max depth, K, origin (v1 has one more u8 before the
# origin, the flag of the rule its inner-node summaries were made with)
_HEADER = struct.Struct("<dBH3d")
_HEADER_V1 = struct.Struct("<dBHB3d")
# a v2 leaf record by tracked count: child mask 0, count, (class, log-odds) pairs, lump
_LEAF = [struct.Struct("<BB" + "Hd" * n + "d") for n in range(4)]


def save_octree(tree: SemanticOctree, path) -> None:
    """Write a ``.ssmioct`` version 2 file: the header, then every node in
    preorder, an inner node as its child mask and a leaf as its mask plus
    its belief in f64. Only reads the tree; the bytes depend on it alone."""
    parts = [
        OCTREE_MAGIC,
        _HEADER.pack(tree.element_size, tree.max_depth, tree.num_classes, *tree.origin),
        tree.prior.astype("<f8").tobytes(),
    ]
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.children is not None:
            parts.append(b"\xff")
            stack.extend(reversed(node.children))
            continue
        sem = node.semantics
        n = len(sem.data)
        parts.append(_LEAF[n].pack(0, n, *[x for cv in sem.data for x in cv], sem.others))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_octree(path) -> SemanticOctree:
    """Read a ``.ssmioct`` file of version 2, or of version 1, whose f32
    inner-node summaries are checked and skipped. Raises CorruptMap when the
    file is truncated, has trailing bytes, or holds a header or node record
    the format does not allow."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(fmt: str) -> tuple:
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(buf):
            raise CorruptMap(f"{path}: truncated at byte {len(buf)}")
        values = struct.unpack_from(fmt, buf, pos)
        pos += size
        return values

    magic = buf[:8]
    if magic not in (OCTREE_MAGIC, OCTREE_MAGIC_V1):
        kind = "grid map" if magic == GRID_MAGIC else f"unknown (magic {magic!r})"
        raise CorruptMap(f"not an octree file: {kind}")
    v1 = magic == OCTREE_MAGIC_V1
    real = "f" if v1 else "d"
    pos = 8
    if v1:
        element_size, max_depth, num_classes, summary_flag, *origin = take(_HEADER_V1.format)
    else:
        element_size, max_depth, num_classes, *origin = take(_HEADER.format)
    if not (math.isfinite(element_size) and element_size > 0.0):
        raise CorruptMap(f"{path}: element size {element_size!r} is not positive")
    if not all(math.isfinite(o) for o in origin):
        raise CorruptMap(f"{path}: origin {origin} is not finite")
    if not 1 <= max_depth <= 16:
        raise CorruptMap(f"{path}: max_depth {max_depth} outside 1..16")
    if num_classes < 1:
        raise CorruptMap(f"{path}: no occupied classes")
    if v1 and summary_flag not in (0, 1):
        raise CorruptMap(f"{path}: unknown summary flag {summary_flag}")
    prior = np.array(take(f"<{num_classes + 1}{real}"), dtype=np.float64)
    if v1:
        prior[0] = 0.0
    elif prior[0] != 0.0:
        raise CorruptMap(f"{path}: prior pivot {float(prior[0])!r} is not 0")
    tree = SemanticOctree(element_size, max_depth, num_classes, prior, origin)

    def read_belief() -> TruncatedSemantics:
        (count,) = take("<B")
        if count > 3:
            raise CorruptMap(f"{path}: {count} tracked classes (at most 3)")
        data = [take(f"<H{real}") for _ in range(count)]
        classes = {c for c, _ in data}
        if len(classes) != count or not all(1 <= c <= num_classes for c in classes):
            raise CorruptMap(
                f"{path}: tracked classes {[c for c, _ in data]} are not distinct ids "
                f"in 1..{num_classes}"
            )
        (others,) = take(f"<{real}")
        # a stable sort on the value alone keeps tied classes in the order they
        # were saved: an f64 tie can be stored out of class order (the clamp
        # after a lumped update), and f64 values an ulp apart can tie in f32
        return TruncatedSemantics(
            data=tuple(sorted(((c, float(v)) for c, v in data), key=lambda cv: -cv[1])),
            others=float(others),
        )

    def read_node(depth: int) -> SemanticNode:
        start = pos
        (mask,) = take("<B")
        if v1:
            take("<f")  # occupancy, derived from the belief
        if mask not in (0, 0xFF):
            raise CorruptMap(f"{path}: bad child mask {mask:#x} at byte {start}")
        if mask and depth == max_depth:
            raise CorruptMap(f"{path}: tree deeper than max_depth {max_depth}")
        if not mask:
            return SemanticNode(read_belief())
        if v1:
            read_belief()  # the inner-node summary
        return SemanticNode(None, [read_node(depth + 1) for _ in range(8)])

    tree.root = read_node(0)
    if pos != len(buf):
        raise CorruptMap(f"{path}: {len(buf) - pos} trailing bytes")
    return tree
