"""Adaptive-resolution multi-class map: an octree whose leaves hold truncated
categorical beliefs.

Every node has 0 or 8 children. Leaves store at most the 3 most likely class
log-odds plus a single "others" lump for the rest; with K <= 3 all classes are
tracked, the lump stays empty, and element updates are the dense grid's float
form of the cell update (``grid._clamped_add``), so they reproduce the grid
bit for bit. Every write keeps the tree pruned: eight sibling leaves that
come to hold one belief collapse into their parent, which is what makes ray
casts over this structure short: a ray meets a handful of homogeneous runs
instead of hundreds of elements.

Queries, ray casts, aggregates and files all read leaves only, so an inner
node holds no belief: the tree is its structure plus the leaf beliefs, and
``save_octree`` writes exactly that (as OctoMap's compact ``.bt`` files do).

The cube of ``2**max_depth`` elements a side is the tree's storage only. The
map covers a world box of ``dims`` elements at the cube's low corner, as a
``GridMap`` of the same dims does: scans, ray casts, pose fans and the
default box of every aggregate end at the world's faces, so both maps share
one geometry.

A child's slot is ``x<<2 | y<<1 | z``, so a preorder walk meets the leaves in
Morton order and each leaf covers one contiguous interval of Morton codes.
The batch reads of a planning cycle (``encode_traces``, ``labels_observed``,
``map_state``) look elements up in one such leaf table; single-ray reads
(``encode_trace``, ``raycast_srle``) descend the tree per element, and are
the reference the table path is tested against. They stay off the table
because a scan between two reads forces a table patch, whose leaf walk
costs more than the descents: serving ``raycast_srle`` from the table gave
the same runs byte for byte on 1,600 probes of the benchmark's ``scan3d``
workload, but its median read time went from 4.70-4.81 to 6.65-6.87 ms
and its median episode from 0.127-0.138 to 0.173-0.179 s (4 runs each,
2-core machine).

Upkeep follows what a scan changes, not the size of the tree. Every belief
the tree stores is interned bit for bit, so equal values share one object
and beliefs compare by identity (``0.0`` and ``-0.0`` stay apart), and
``insert_scan`` memoizes each update by hit class and belief object for the
scan: a write that changes nothing costs a lookup. The store keeps every
belief it interned for the tree's life, so a belief's id and its table rows
never change. Each write records the highest node whose leaves it changed;
the next read walks only the highest recorded nodes and splices their
leaves into the table over the same Morton intervals, ordered with the kept
leaves by one sort on their Morton starts. A tree with no table yet (a new
tree, a new root, a loaded file) records nothing: its first read patches an
empty table over the whole cube, which walks every leaf.
"""

from __future__ import annotations

import functools
import logging
import math
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import CorruptMap, InvalidClass
from .grid import GRID_MAGIC, BeamMeasurement, GridMap, RayTrace, Scan, SrleRay, cast
from .grid import _box_corners, _check_header, _clamped_add, _prior_vector, point3, scan_updates
from .logodds import SensorParams

OCTREE_MAGIC = b"SSMIOCT3"
OCTREE_MAGIC_V2 = b"SSMIOCT2"  # read only: no extent, the world is the cube
OCTREE_MAGIC_V1 = b"SSMIOCT1"  # read only
OCTREE_VERSIONS = {OCTREE_MAGIC_V1: 1, OCTREE_MAGIC_V2: 2, OCTREE_MAGIC: 3}

NEG_INF = float("-inf")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TruncatedSemantics:
    """Up to three (class, log-odds) pairs plus one lump for everything else.

    ``data`` is sorted by descending log-odds with class index breaking ties,
    and ``others`` is the log-odds of the aggregate probability of all
    untracked classes (-inf when nothing is untracked). The hash is the one
    the dataclass would compute, ``hash((data, others))``, made once here
    rather than on every dict lookup.
    """

    data: tuple[tuple[int, float], ...]
    others: float

    def __post_init__(self):
        if len(self.data) > 3:
            raise ValueError("at most 3 tracked classes")
        classes = [c for c, _ in self.data]
        if len(set(classes)) != len(classes) or any(c < 1 for c in classes):
            raise ValueError("tracked classes must be distinct ids >= 1")
        object.__setattr__(self, "_hash", hash((self.data, self.others)))

    def __hash__(self) -> int:
        return self._hash

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

    def entropy(self) -> float:
        """Entropy in nats of the pivot, the tracked values and the lump
        (when finite) as one log-odds vector."""
        vals = [0.0] + [v for _, v in self.data]
        if np.isfinite(self.others):
            vals.append(self.others)
        return logodds.entropy(np.array(vals, dtype=np.float64))


class SemanticNode:
    """Tree node: a leaf holds a belief and no children; an inner node holds
    exactly eight children and no belief (``semantics`` is None)."""

    __slots__ = ("semantics", "children")

    def __init__(self, semantics: TruncatedSemantics | None, children=None):
        self.semantics = semantics
        self.children = children


# bit b of each byte value moved to bit 3b, for interleaving three coordinates
_SPREAD = sum(((np.arange(256, dtype=np.int64) >> b) & 1) << 3 * b for b in range(8))


def _spread(v: np.ndarray) -> np.ndarray:
    """Each bit b of 16-bit coordinates at bit 3b."""
    return _SPREAD[v & 255] | _SPREAD[v >> 8] << 24


def morton(x, y, z) -> np.ndarray:
    """Morton codes of element coordinates (integer arrays that broadcast
    together), ordered as the tree's child slots: x above y above z at every
    level."""
    return _spread(x) << 2 | _spread(y) << 1 | _spread(z)


def _exact_key(sem: "TruncatedSemantics"):
    """A dict key that tells beliefs apart bit for bit: the belief itself,
    paired with the signs of its zeros when it holds any (``0.0 == -0.0``)."""
    zeros = [math.copysign(1.0, v) for _, v in sem.data if v == 0.0]
    if sem.others == 0.0:
        zeros.append(math.copysign(1.0, sem.others))
    return (sem, tuple(zeros)) if zeros else sem


class _Beliefs:
    """The beliefs of one tree, interned bit for bit (``_exact_key``): equal
    values share one object, so beliefs compare by identity. The store is
    append-only: each object keeps its id and stays stored for the tree's
    life, so ``by_object`` may key them by ``id``. The prior is id 0, so a
    belief bit-equal to it is always ``prior_semantics``. Per id: ``full``
    (the ``to_full`` row), ``entropy`` and ``observed`` (not the prior),
    computed once, when a leaf table first holds the id (``fill``): a scan
    interns many beliefs that it overwrites before any table sees them."""

    def __init__(self, prior_semantics: "TruncatedSemantics", num_classes: int):
        self.prior_semantics = prior_semantics
        self.num_classes = num_classes
        self.objects: list[TruncatedSemantics] = []
        self.by_key: dict = {}
        self.by_object: dict[int, int] = {}
        self._allocate(64)
        self.fill(np.array([self.id_of(prior_semantics)]))

    def __len__(self) -> int:
        return len(self.objects)

    def _allocate(self, capacity: int) -> None:
        """Fresh arrays of ``capacity`` rows holding the rows so far; tables
        built earlier keep views of the old arrays, whose rows never change."""
        n = len(self.objects)
        rows = [np.zeros((capacity, self.num_classes + 1)), np.zeros(capacity),
                np.zeros(capacity, dtype=bool), np.zeros(capacity, dtype=bool)]
        if n:
            for new, old in zip(rows, (self.full, self.entropy, self.observed, self.ready)):
                new[:n] = old[:n]
        self.full, self.entropy, self.observed, self.ready = rows

    def intern(self, sem: "TruncatedSemantics") -> "TruncatedSemantics":
        """The stored object bit-equal to ``sem``, which is ``sem`` itself
        when no such object was stored before."""
        return self.objects[self.id_of(sem)]

    def id_of(self, sem: "TruncatedSemantics") -> int:
        i = self.by_object.get(id(sem))
        if i is None:
            key = _exact_key(sem)
            i = self.by_key.get(key)
        if i is None:
            i = self.by_key[key] = len(self.objects)
            if i == self.ready.shape[0]:
                self._allocate(2 * i)
            self.objects.append(sem)
            self.by_object[id(sem)] = i
        return i

    def fill(self, ids: np.ndarray) -> None:
        """Compute the rows of those ``ids`` that have none yet. The rows of
        an id never change once computed."""
        for i in np.unique(ids[~self.ready[ids]]).tolist():
            sem = self.objects[i]
            self.full[i] = sem.to_full(self.num_classes)
            self.entropy[i] = sem.entropy()
            self.observed[i] = sem is not self.prior_semantics
            self.ready[i] = True

    def table(self, starts, corners, sizes, ids) -> "LeafTable":
        """A leaf table over these leaves, with the rows of every id so far."""
        n = len(self.objects)
        return LeafTable(starts=starts, corners=corners, sizes=sizes, ids=ids,
                         full=self.full[:n], entropy=self.entropy[:n],
                         observed=self.observed[:n])


@dataclass(frozen=True)
class LeafTable:
    """The leaves of one tree revision in preorder, which is Morton order.

    Per leaf: ``starts`` (the Morton code of its low corner, ascending),
    ``corners`` and ``sizes`` (in elements), and ``ids``, the id of its
    belief in the tree's interned beliefs, so equal ids are equal bits. Per
    belief id, the rows of those (``_Beliefs``): ``full``, ``entropy`` and
    ``observed``; ids that no leaf holds any more keep their rows, and a
    later table gives every id the rows and the belief it had here. The leaf
    holding element ``c`` is ``searchsorted(starts, morton(c), "right") - 1``."""

    starts: np.ndarray
    corners: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray
    full: np.ndarray
    entropy: np.ndarray
    observed: np.ndarray

    def element_ids(self, codes: np.ndarray) -> np.ndarray:
        """Belief id of the element at each Morton code."""
        return self.ids[np.searchsorted(self.starts, codes, side="right") - 1]


# the starts, corners, sizes and ids of a table with no leaves, which a tree's
# first read patches
_NO_LEAVES = (np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64),
              np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp))


def _uniform_scalar(vec: np.ndarray, name: str) -> float:
    if not np.all(vec[1:] == vec[1]):
        raise ValueError(f"{name} must be class-uniform when classes are lumped (K > 3)")
    return float(vec[1])


def _tracked_update(
    sem: TruncatedSemantics, delta, lo, hi, num_classes: int
) -> TruncatedSemantics:
    """K <= 3 update: ``grid._clamped_add`` on the class values 1..K, with
    ``delta`` (``l - h0``), ``lo`` and ``hi`` listed from class 1, so bit
    for bit ``clamp(posterior_update(h, l, h0))`` followed by ``from_full``."""
    full = len(sem.data) == num_classes
    h = [v for _, v in sorted(sem.data)] if full else sem.to_full(num_classes).tolist()[1:]
    row = _clamped_add(h, delta, lo, hi)
    return TruncatedSemantics(data=TruncatedSemantics._sorted(enumerate(row, 1)), others=NEG_INF)


def element_update(params: SensorParams, prior: np.ndarray):
    """The octree's element update, built once per scan: a function from hit
    class (None for a traversed element, InvalidClass outside 1..K) to the
    update of one belief.

    With K <= 3 it is the dense grid's ``clamp(h + (l - h0))`` on Python
    floats (``_tracked_update``, through ``grid._clamped_add``). With more
    classes the parameters must be class-uniform (ValueError here
    otherwise), and a hit on an untracked class splits an alpha fraction
    off the lump for the new class, updates, keeps the three largest
    values, folds the rest back into the lump, and clamps with its own
    ``min``/``max``.
    """
    k = params.num_classes
    if k <= 3:
        lo, hi = params.clamp_lo[1:].tolist(), params.clamp_hi[1:].tolist()

        def update(y):
            l = params.phi_minus if y is None else params.hit_logodds(y)
            delta = (l - prior)[1:].tolist()
            return lambda sem: _tracked_update(sem, delta, lo, hi, k)

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


def _chain(steps, sem: TruncatedSemantics) -> TruncatedSemantics:
    """``sem`` after each of ``steps`` (belief updates) in turn."""
    for step in steps:
        sem = step(sem)
    return sem


def cube_depth(dims) -> int:
    """The least tree depth (at least 1) whose cube holds ``dims`` elements
    along every axis."""
    return max(1, math.ceil(math.log2(max(dims))))


class SemanticOctree:
    """Multi-class map of a world of ``dims`` elements (x, y, z) of edge
    ``element_size``, stored in a cube of ``2**max_depth`` elements a side;
    ``dims`` defaults to the whole cube and must fit inside it. ``origin``,
    the low corner of element (0, 0, 0), is three floats."""

    def __init__(
        self,
        element_size: float,
        max_depth: int,
        num_classes: int,
        prior: np.ndarray | None = None,
        origin=(0.0, 0.0, 0.0),
        dims=None,
    ):
        if max_depth < 1 or max_depth > 16:
            raise ValueError("max_depth must be in 1..16")
        self.element_size = float(element_size)
        self.max_depth = int(max_depth)
        n = self.size_elements
        self.dims = (n, n, n) if dims is None else tuple(int(d) for d in dims)
        if len(self.dims) != 3 or not all(1 <= d <= n for d in self.dims):
            raise ValueError(f"dims {self.dims} are not three extents in 1..{n}")
        self.num_classes = int(num_classes)
        self.origin = point3(origin)
        self.prior = prior = _prior_vector(prior, self.num_classes)
        self._beliefs = _Beliefs(TruncatedSemantics.from_full(prior), num_classes)
        self.prior_semantics = self._beliefs.prior_semantics
        # reads may run concurrently, and one of them brings the table up to date
        self._upkeep = threading.Lock()
        self.root = SemanticNode(self.prior_semantics)

    @property
    def root(self) -> SemanticNode:
        return self._root

    @root.setter
    def root(self, node: SemanticNode) -> None:
        """Installing a root (a new tree, a loaded file) drops the leaf table."""
        self._root = node
        self._table: LeafTable | None = None
        # (corner..., size) of each node whose leaves changed since the table
        # was made, recorded only while there is a table to patch
        self._dirty: set[tuple[int, int, int, int]] = set()

    @property
    def size_elements(self) -> int:
        return 1 << self.max_depth

    @property
    def resolution(self) -> float:
        """Element edge length (the grid's name for its cell size)."""
        return self.element_size

    # -- addressing ----------------------------------------------------------

    def _descend(self, x: int, y: int, z: int, size: int = 1) -> tuple[SemanticNode, int]:
        """The one root-to-node descent: the node of edge ``size`` (a power
        of two, in elements) holding element (x, y, z), or the leaf above it,
        and the bit of the level below that node, whose edge is therefore
        ``1 << bit + 1``."""
        node = self._root  # per element, so the attribute rather than the property
        bit = self.max_depth - 1
        stop = size.bit_length() - 2  # the bit below a node of edge size
        while node.children is not None and bit > stop:
            node = node.children[((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)]
            bit -= 1
        return node, bit

    def leaf_at(self, cell) -> tuple[TruncatedSemantics, tuple[int, int, int], int]:
        """Leaf value covering an element, with the leaf's low corner and edge
        length in elements (used for run caching along rays)."""
        x, y, z = cell
        node, bit = self._descend(x, y, z)
        size = 1 << bit + 1
        return node.semantics, (x & -size, y & -size, z & -size), size

    def query_element(self, cell) -> TruncatedSemantics:
        return self.leaf_at(cell)[0]

    def _box(self, region):
        """A half-open element box ((lo), (hi)) inside the world, or the whole
        world for None; ValueError for a box that is not inside it, as on the
        grid (``grid._box_corners``)."""
        return _box_corners(region, self.dims)

    # -- updates ---------------------------------------------------------------

    def _write_element(self, cell, update) -> int | None:
        """The one element writer: it finds the leaf covering the element and
        interns ``update(belief)``. Unless that is the leaf's belief (then it
        returns None), it expands a larger leaf down to the element, whose 7
        new siblings keep the old belief, or writes an element-level leaf and
        collapses each parent whose 8 children now hold one belief, up to the
        first that does not (``_collapse``). It records the highest node whose
        leaves changed for the leaf table and returns how many nodes collapsed."""
        x, y, z = cell
        node, bit = self._descend(x, y, z, 2)
        if node.children is not None:  # the node of edge 2 over an element leaf
            parent, node, bit = node, node.children[(x & 1) << 2 | (y & 1) << 1 | (z & 1)], -1
        current = node.semantics
        new = self._beliefs.intern(update(current))
        if new is current:
            return None
        size = 1 << bit + 1  # the changed leaf's edge
        collapsed = 0
        if bit < 0:
            node.semantics = new
            while self._collapse(parent):
                collapsed += 1
                size <<= 1
                if size == self.size_elements:
                    break
                parent = self._descend(x, y, z, size << 1)[0]
        else:
            while bit >= 0:
                node.children = [SemanticNode(current) for _ in range(8)]
                node.semantics = None
                node = node.children[((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)]
                bit -= 1
            node.semantics = new
        if self._table is not None:
            self._dirty.add((x & -size, y & -size, z & -size, size))
        return collapsed

    @staticmethod
    def _collapse(node: SemanticNode) -> bool:
        """Make an inner node a leaf when its 8 children are leaves holding
        one belief object (an inner node holds None); returns whether it
        did. The one collapse test, of the writer and of ``prune``."""
        sem = node.children[0].semantics
        if sem is None or any(child.semantics is not sem for child in node.children):
            return False
        node.semantics, node.children = sem, None
        return True

    def set_element(self, cell, h: np.ndarray) -> None:
        """Write an element belief directly (scene construction, conversion)."""
        new = TruncatedSemantics.from_full(np.asarray(h, dtype=np.float64))
        self._write_element(cell, lambda _: new)

    def insert_scan(self, beams: Scan | list[BeamMeasurement],
                    params: SensorParams) -> "SemanticOctree":
        """Integrate a scan's beams in order, a sensed ``Scan`` or a list of
        beams (same cell arithmetic as the dense grid); each write keeps the
        tree pruned. The element updates are the grid's, from
        ``scan_updates``, which finds and checks every update first (cut
        from the fan's memoized walks for a ``Scan``, walked beam by beam
        for a list): a scan that raises leaves the tree as it was.

        The update is a pure function of the hit class and the belief's
        bits, and equal beliefs share one interned object, so each class
        memoizes it by belief object for the scan: a belief meets each
        update once, and a write that changes nothing gets back the object
        it holds.

        Only the order of updates within one element matters, so the
        updates are grouped by element, in scan order within each, and
        each element is written once with its chain of steps: one descent
        per distinct element rather than per update. An element whose chain
        ends at the belief it held is not written; a write per update would
        have expanded its leaf and collapsed it again."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and tree disagree on K")
        update = element_update(params, self.prior)
        intern = self._beliefs.intern
        memos: list[dict] = []

        def memoized(step):
            memo = {}
            memos.append(memo)

            def memo_step(sem):
                new = memo.get(id(sem))
                if new is None:
                    new = memo[id(sem)] = intern(step(sem))
                return new

            return memo_step

        cells, rows = scan_updates(beams, self.origin, self.element_size, self.dims,
                                   self.num_classes)
        steps = {0: memoized(update(None))}  # by model row: 0 free, y a class-y hit
        chains: dict[tuple[int, int, int], list] = {}
        for cell, row in zip(zip(*cells.T.tolist()), rows.tolist()):
            step = steps.get(row)
            if step is None:
                step = steps[row] = memoized(update(row))
            chains.setdefault(cell, []).append(step)
        write = self._write_element
        written = [write(cell, chain[0] if len(chain) == 1 else functools.partial(_chain, chain))
                   for cell, chain in chains.items()]
        changed = [n for n in written if n is not None]  # nodes each changing write collapsed
        visited = len(rows)
        log.debug(
            "insert_scan: %d beams, %d elements visited, %d changed, %d nodes collapsed, "
            "%d memo hits, %d no-op writes",
            len(beams), visited, len(changed), sum(changed),
            visited - sum(map(len, memos)), len(chains) - len(changed),
        )
        return self

    def prune(self) -> int:
        """Bottom-up over the whole tree, intern each leaf's belief and
        collapse every inner node whose 8 children hold one (``_collapse``):
        for trees built by hand, since writes keep a pruned tree pruned.
        Each collapsed node is recorded for the leaf table. Returns the
        number of nodes collapsed."""
        collapsed = []

        def visit(node: SemanticNode, bit: int, x: int, y: int, z: int) -> None:
            if node.children is None:
                node.semantics = self._beliefs.intern(node.semantics)
                return
            half = 1 << bit
            for slot, child in enumerate(node.children):
                visit(child, bit - 1, x | (slot >> 2) * half, y | (slot >> 1 & 1) * half,
                      z | (slot & 1) * half)
            if self._collapse(node):
                collapsed.append((x, y, z, 2 * half))

        visit(self._root, self.max_depth - 1, 0, 0, 0)
        if self._table is not None:  # the leaves changed, though no element did
            self._dirty.update(collapsed)
        return len(collapsed)

    # -- ray casting -------------------------------------------------------------

    def cast_ray(self, beam: BeamMeasurement) -> RayTrace:
        """Element-resolution trace through the world: the dense grid's
        caster with the element size and the world's extent, so grid and
        tree agree on what a beam touches."""
        return cast(beam, self.origin, self.element_size, self.dims)

    def encode_trace(self, cells: np.ndarray) -> SrleRay | None:
        """Run-length encode leaf beliefs along a sequence of elements, an
        (M, 3) integer array such as ``RayTrace.cells``; None when it is
        empty.

        Consecutive elements with equal beliefs merge into one run even when
        they belong to distinct leaves, so expanding the result reproduces the
        per-element sequence exactly and the widths sum to the element count.
        """
        if cells.shape[0] == 0:
            return None
        widths: list[int] = []
        values: list[TruncatedSemantics] = []
        sem = None
        lx = ly = lz = size = 0  # the cached leaf's cube, empty at first
        for x, y, z in cells.tolist():
            if not (lx <= x < lx + size and ly <= y < ly + size and lz <= z < lz + size):
                sem, (lx, ly, lz), size = self.leaf_at((x, y, z))
            if values and values[-1] is sem:
                widths[-1] += 1
            else:
                values.append(sem)
                widths.append(1)
        chi_t = np.stack([v.to_full(self.num_classes) for v in values])
        chi_0 = np.broadcast_to(self.prior, chi_t.shape).copy()
        return SrleRay(widths=np.asarray(widths, dtype=np.int64), chi_t=chi_t, chi_0=chi_0)

    def encode_traces(self, cells: np.ndarray, counts) -> tuple[SrleRay | None, list[int]]:
        """The runs over a compact cast (``mi.FanCast``: ``cells`` stacks each
        beam's elements past its sensor element in beam order, ``counts[b]``
        of them for beam b), as ``encode_trace`` gives them per beam,
        stacked, and each beam's run count; the runs are
        None when there is no element. All elements are looked up in the
        leaf table at once; a run starts at each beam's first element and
        wherever the belief id changes (ids are interned bits), and takes
        its first element's belief."""
        lengths = np.array(counts, dtype=np.int64)
        if not cells.shape[0]:
            return None, lengths.tolist()
        table = self.leaf_table()
        ids = table.element_ids(morton(*cells.T))
        new = np.empty(ids.shape[0], dtype=bool)
        new[0] = True
        np.not_equal(ids[1:], ids[:-1], out=new[1:])
        new[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
        starts = np.flatnonzero(new)
        chi_t = table.full[ids[starts]]
        owner = np.repeat(np.arange(lengths.shape[0]), lengths)
        return SrleRay(
            widths=np.diff(starts, append=ids.shape[0]),
            chi_t=chi_t,
            chi_0=np.broadcast_to(self.prior, chi_t.shape),
        ), np.bincount(owner[starts], minlength=lengths.shape[0]).tolist()

    def raycast_srle(self, beam: BeamMeasurement) -> SrleRay:
        """Cast a beam and return its run-length encoded belief sequence."""
        return self.encode_trace(self.cast_ray(beam).cells)

    # -- leaf table and aggregates ----------------------------------------------------

    @staticmethod
    def _leaves(node: SemanticNode, corner, size: int):
        """Yield (semantics, low corner, edge in elements) over the leaves
        under one node, at ``corner`` with edge ``size``, in preorder, which
        is Morton order."""
        stack = [(node, *corner, size)]
        while stack:
            node, x, y, z, size = stack.pop()
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
        return len(self.leaf_table().ids)

    def leaf_table(self) -> LeafTable:
        """The leaf table of the tree as it is now: after element writes and
        pruning collapses, only the subtrees of the highest nodes they
        touched are walked again and spliced in (``_patch_leaf_table``). A
        tree with no table yet patches an empty one over the whole cube."""
        with self._upkeep:
            if self._table is None:
                self._table = self._beliefs.table(*_NO_LEAVES)
                self._dirty.add((0, 0, 0, self.size_elements))
            if self._dirty:
                self._table = self._patch_leaf_table()
            return self._table

    def _walk(self, tops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The leaves under each ``(node, x, y, z, size)`` in turn, in
        preorder: their low corners, sizes and belief ids (with rows)."""
        corners, sizes, beliefs = [], [], []
        for node, x, y, z, size in tops:
            for sem, corner, edge in self._leaves(node, (x, y, z), size):
                corners += corner
                sizes.append(edge)
                beliefs.append(sem)
        ids = np.array(list(map(self._beliefs.id_of, beliefs)), dtype=np.intp)
        self._beliefs.fill(ids)
        return (np.array(corners, dtype=np.int64).reshape(-1, 3),
                np.array(sizes, dtype=np.int64), ids)

    def _patch_leaf_table(self) -> LeafTable:
        """Walk again only the highest recorded nodes and splice their leaves
        into the table in place of the old leaves in their Morton intervals.
        Leaves are aligned octree nodes, so each recorded interval is the
        union of whole old leaves and of whole new ones."""
        t0 = time.perf_counter()
        old = self._table
        boxes = np.array(list(self._dirty), dtype=np.int64)
        self._dirty.clear()
        lows = morton(*boxes[:, :3].T)
        highs = lows + boxes[:, 3] ** 3
        order = np.lexsort((-highs, lows))
        lows, highs, boxes = lows[order], highs[order], boxes[order]
        top = np.ones(len(lows), dtype=bool)
        top[1:] = lows[1:] >= np.maximum.accumulate(highs)[:-1]  # not inside an earlier one
        lows, highs = lows[top], highs[top]
        tops = [(self._descend(x, y, z, size)[0], x, y, z, size)
                for x, y, z, size in boxes[top].tolist()]
        corners, sizes, ids = self._walk(tops)
        starts = morton(*corners.T)
        # an old leaf stays unless it starts inside the interval with the
        # last low at or before its start; the kept and the new leaves all
        # start at distinct codes, so ordering them by start is preorder
        at = np.searchsorted(lows, old.starts, side="right") - 1
        keep = (at < 0) | (old.starts >= highs[at])
        order = np.argsort(np.concatenate((old.starts[keep], starts)))
        parts = [np.concatenate((was[keep], now))[order]
                 for was, now in ((old.starts, starts), (old.corners, corners),
                                  (old.sizes, sizes), (old.ids, ids))]
        table = self._beliefs.table(*parts)
        log.debug(
            "leaf table: %d leaves, %d beliefs, %d leaves walked, %.3f ms",
            len(table.ids), len(table.full), starts.shape[0], (time.perf_counter() - t0) * 1e3,
        )
        return table

    def _box_ids(self, box) -> tuple[LeafTable, np.ndarray]:
        """The leaf table and an int array over a half-open element box
        ((lo), (hi)) inside the world, or the whole world for None, holding
        each element's belief id."""
        lo, hi = self._box(box)
        table = self.leaf_table()
        return table, table.element_ids(morton(*np.ix_(*map(range, lo, hi))))

    def labels_observed(self, box=None) -> tuple[np.ndarray, np.ndarray]:
        """Most likely class (the argmax of the full belief, ties to the
        lowest class) and observed flag (belief off the prior) of every
        element in a half-open box ((lo), (hi)) inside the world, or of the
        whole world."""
        table, ids = self._box_ids(box)
        return np.argmax(table.full, axis=1)[ids], table.observed[ids]

    def map_state(self, region=None) -> tuple[float, float]:
        """Total entropy in nats, and the fraction of elements whose belief
        moved off the prior, over a half-open element box ((lo), (hi)) from
        the leaf table: each leaf's element count inside the box times its
        belief's entropy, added leaf by leaf in preorder. The box defaults to
        the world; one not inside it raises ValueError, as on the grid, and
        an empty one gives ``(0.0, 0.0)``."""
        lo, hi = self._box(region)
        table = self.leaf_table()
        ends = table.corners + table.sizes[:, None]
        n = np.prod(np.maximum(np.minimum(ends, hi) - np.maximum(table.corners, lo), 0), axis=1)
        # a running sum from 0.0, as a loop over the leaves adds; numpy's
        # pairwise sum would round differently
        terms = np.concatenate(([0.0], n * table.entropy[table.ids]))
        total = int(n.sum())
        seen = int(n[table.observed[table.ids]].sum())
        return float(np.cumsum(terms)[-1]), (seen / total if total else 0.0)


# -- grid conversion --------------------------------------------------------------


def octree_from_grid(gmap: GridMap) -> SemanticOctree:
    """Copy a dense map into a fresh octree of the grid's extent, at its
    resolution, in the least cube that holds it; the writes keep it
    pruned."""
    tree = SemanticOctree(
        element_size=gmap.resolution,
        max_depth=cube_depth(gmap.dims),
        num_classes=gmap.num_classes,
        prior=gmap.prior,
        origin=gmap.origin,
        dims=gmap.dims,
    )
    for cell in np.ndindex(gmap.dims):
        tree.set_element(cell, gmap.cells[cell])
    return tree


def grid_from_octree(tree: SemanticOctree) -> GridMap:
    """Sample every element of the tree's world into a dense map. Lumped
    beliefs (K > 3) expand with the untracked classes sharing the lump
    evenly."""
    gmap = GridMap(tree.dims, tree.element_size, tree.num_classes, tree.prior, tree.origin)
    table, ids = tree._box_ids(None)
    np.take(table.full, ids, axis=0, out=gmap.cells)
    np.take(table.observed, ids, out=gmap.observed)
    return gmap


# -- serialization -----------------------------------------------------------------

# after the magic: element size, max depth, K, origin, the world's extent in elements
# (v2 ends at the origin; v1 also has one more u8 before the origin, the flag of
# the rule its inner-node summaries were made with)
_HEADER = struct.Struct("<dBH3d3I")
_HEADER_V2 = struct.Struct("<dBH3d")
_HEADER_V1 = struct.Struct("<dBHB3d")
# a v2/v3 leaf record by tracked count: child mask 0, count, (class, log-odds) pairs, lump
_LEAF = [struct.Struct("<BB" + "Hd" * n + "d") for n in range(4)]


def save_octree(tree: SemanticOctree, path) -> None:
    """Write a ``.ssmioct`` version 3 file: the header, then every node in
    preorder, an inner node as its child mask and a leaf as its mask plus
    its belief in f64. Only reads the tree; the bytes depend on it alone."""
    parts = [
        OCTREE_MAGIC,
        _HEADER.pack(tree.element_size, tree.max_depth, tree.num_classes, *tree.origin,
                     *tree.dims),
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
    """Read a ``.ssmioct`` file of version 3, or of version 2 or 1, whose
    world is the whole cube (version 1's f32 inner-node summaries are
    checked and skipped). Raises CorruptMap when the file is truncated, has
    trailing bytes, or holds a header or node record the format does not
    allow (no class or more than ``MAX_CLASSES`` among them, an extent that
    is zero or larger than the cube), a NaN or infinite prior or tracked
    value, or a NaN or +inf lump."""
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
    version = OCTREE_VERSIONS.get(magic)
    if version is None:
        kind = "grid map" if magic == GRID_MAGIC else f"unknown (magic {magic!r})"
        raise CorruptMap(f"not an octree file: {kind}")
    v1 = version == 1
    real = "f" if v1 else "d"
    pos = 8
    dims = None
    if v1:
        element_size, max_depth, num_classes, summary_flag, *origin = take(_HEADER_V1.format)
    elif version == 2:
        element_size, max_depth, num_classes, *origin = take(_HEADER_V2.format)
    else:
        element_size, max_depth, num_classes, *origin = take(_HEADER.format)
        origin, dims = origin[:3], origin[3:]
    _check_header(path, "element size", element_size, origin, num_classes)
    if not 1 <= max_depth <= 16:
        raise CorruptMap(f"{path}: max_depth {max_depth} outside 1..16")
    if dims is not None and not all(1 <= d <= 1 << max_depth for d in dims):
        raise CorruptMap(f"{path}: extent {tuple(dims)} is zero or larger than the cube "
                         f"of {1 << max_depth} elements a side")
    if v1 and summary_flag not in (0, 1):
        raise CorruptMap(f"{path}: unknown summary flag {summary_flag}")
    prior = np.array(take(f"<{num_classes + 1}{real}"), dtype=np.float64)
    if not v1 and prior[0] != 0.0:
        raise CorruptMap(f"{path}: prior pivot {float(prior[0])!r} is not 0")
    if not np.isfinite(prior).all():
        raise CorruptMap(f"{path}: non-finite prior {prior.tolist()}")
    prior[0] = 0.0  # a version-1 pivot is read but not required to be 0
    tree = SemanticOctree(element_size, max_depth, num_classes, prior, origin, dims)

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
        # the lump is -inf when no class is untracked; nothing else may be non-finite
        if not all(math.isfinite(v) for _, v in data) or math.isnan(others) or others == math.inf:
            raise CorruptMap(f"{path}: non-finite belief {data} lump {others!r} before byte {pos}")
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
            return SemanticNode(tree._beliefs.intern(read_belief()))
        if v1:
            read_belief()  # the inner-node summary
        return SemanticNode(None, [read_node(depth + 1) for _ in range(8)])

    tree.root = read_node(0)
    if pos != len(buf):
        raise CorruptMap(f"{path}: {len(buf) - pos} trailing bytes")
    return tree
