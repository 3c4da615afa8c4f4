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
the tree stores is interned bit for bit when it is written, so equal values
share one object, and ``insert_scan`` memoizes each update by hit class and
belief object for the scan: a write that changes nothing costs a lookup.
Writes that expand a leaf and prunes that collapse a node record that node;
the next read walks only the highest recorded nodes and splices their leaves
into the table over the same Morton intervals, ordered with the kept
leaves by one sort on their Morton starts. A new root (a new tree, a
loaded file) gets a full walk.
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
from .grid import GRID_MAGIC, BeamMeasurement, GridMap, RayTrace, SrleRay, cast, scan_updates
from .logodds import MAX_CLASSES, SensorParams

OCTREE_MAGIC = b"SSMIOCT2"
OCTREE_MAGIC_V1 = b"SSMIOCT1"  # read only

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
    values share one object, and each object has an append-only id. Per id:
    ``same`` (the first id equal to it under ``==``, which differs only for
    signed zeros), set when it is interned, and ``full`` (the ``to_full``
    row), ``entropy`` and ``observed`` (off the prior), computed once, when
    a leaf table first holds the id (``fill``): a scan interns many
    beliefs that it overwrites before any table sees them. The store keeps
    its objects alive, so ``by_object`` may key them by ``id``."""

    def __init__(self, prior_semantics: "TruncatedSemantics", num_classes: int):
        self.prior_semantics = prior_semantics
        self.num_classes = num_classes
        self.objects: list[TruncatedSemantics] = []
        self.by_key: dict = {}
        self.by_object: dict[int, int] = {}
        self.by_value: dict[TruncatedSemantics, int] = {}
        self._allocate(64)

    def __len__(self) -> int:
        return len(self.objects)

    def _allocate(self, capacity: int) -> None:
        """Fresh arrays of ``capacity`` rows holding the rows so far; tables
        built earlier keep views of the old arrays, whose rows never change."""
        n = len(self.objects)
        rows = [np.zeros((capacity, self.num_classes + 1)), np.zeros(capacity, dtype=np.intp),
                np.zeros(capacity), np.zeros(capacity, dtype=bool), np.zeros(capacity, dtype=bool)]
        if n:
            for new, old in zip(rows, (self.full, self.same, self.entropy, self.observed,
                                       self.ready)):
                new[:n] = old[:n]
        self.full, self.same, self.entropy, self.observed, self.ready = rows

    def intern(self, sem: "TruncatedSemantics") -> "TruncatedSemantics":
        """The stored object bit-equal to ``sem``, which is ``sem`` itself
        when no such object was stored before."""
        if id(sem) in self.by_object:
            return sem
        return self.objects[self._key_id(sem)]

    def id_of(self, sem: "TruncatedSemantics") -> int:
        i = self.by_object.get(id(sem))
        return self._key_id(sem) if i is None else i

    def _key_id(self, sem: "TruncatedSemantics") -> int:
        key = _exact_key(sem)
        i = self.by_key.get(key)
        if i is not None:
            return i
        i = self.by_key[key] = len(self.objects)
        if i == self.same.shape[0]:
            self._allocate(2 * i)
        self.objects.append(sem)
        self.by_object[id(sem)] = i
        self.same[i] = self.by_value.setdefault(sem, i)
        return i

    def fill(self, ids: np.ndarray) -> None:
        """Compute the rows of those ``ids`` that have none yet. The rows of
        an id never change once computed."""
        for i in np.unique(ids[~self.ready[ids]]).tolist():
            sem = self.objects[i]
            self.full[i] = sem.to_full(self.num_classes)
            self.entropy[i] = sem.entropy()
            self.observed[i] = sem != self.prior_semantics
            self.ready[i] = True

    def compacted(self, live: np.ndarray) -> "_Beliefs":
        """A store of the ``live`` ids alone, numbered in that order, with
        the rows they have."""
        new = _Beliefs(self.prior_semantics, self.num_classes)
        for i in live.tolist():
            new.id_of(self.objects[i])
        m = live.shape[0]
        for mine, theirs in ((new.full, self.full), (new.entropy, self.entropy),
                             (new.observed, self.observed), (new.ready, self.ready)):
            mine[:m] = theirs[live]
        return new

    def table(self, starts, corners, sizes, ids) -> "LeafTable":
        """A leaf table over these leaves, with the rows of every id so far."""
        n = len(self.objects)
        return LeafTable(starts=starts, corners=corners, sizes=sizes, ids=ids,
                         full=self.full[:n], same=self.same[:n],
                         entropy=self.entropy[:n], observed=self.observed[:n])


@dataclass(frozen=True)
class LeafTable:
    """The leaves of one tree revision in preorder, which is Morton order.

    Per leaf: ``starts`` (the Morton code of its low corner, ascending),
    ``corners`` and ``sizes`` (in elements), and ``ids``, the id of its
    belief in the tree's interned beliefs. Per belief id, the rows of those
    (``_Beliefs``): ``full``, ``same``, ``entropy`` and ``observed``; ids
    that no leaf holds any more keep their rows. The leaf holding element
    ``c`` is ``searchsorted(starts, morton(c), "right") - 1``."""

    starts: np.ndarray
    corners: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray
    full: np.ndarray
    same: np.ndarray
    entropy: np.ndarray
    observed: np.ndarray

    def element_ids(self, codes: np.ndarray) -> np.ndarray:
        """Belief id of the element at each Morton code."""
        return self.ids[np.searchsorted(self.starts, codes, side="right") - 1]


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

        def update(y):
            l = params.phi_minus if y is None else params.hit_logodds(y)
            delta = (l - prior).tolist()
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
        prior_semantics = TruncatedSemantics.from_full(prior)
        self._beliefs = _Beliefs(prior_semantics, num_classes)
        self.prior_semantics = self._beliefs.intern(prior_semantics)
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
        node = self._root  # per element, so the attribute rather than the property
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
        and the new value, interned, stored, so saturated space stays
        pruned. The leaf's node is recorded for the leaf table. Returns
        whether the element changed."""
        x, y, z = cell
        node = self._root
        bit = self.max_depth - 1
        while node.children is not None:
            node = node.children[((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)]
            bit -= 1
        current = node.semantics
        new = update(current)
        if new is current or new == current:
            return False
        new = self._beliefs.intern(new)
        if self._table is not None:
            size = 1 << bit + 1
            self._dirty.add((x & -size, y & -size, z & -size, size))
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
        it. The element updates are the grid's, from ``scan_updates``, which
        walks and checks every beam first: a scan that raises leaves the
        tree as it was.

        The update is a pure function of the hit class and the belief's
        bits, and equal beliefs share one interned object, so each class
        memoizes it by belief object for the scan: a belief meets each
        update once, and a write that changes nothing gets back the object
        it holds."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and tree disagree on K")
        update = element_update(params, self.prior)
        intern = self._beliefs.intern
        memos: list[dict] = []
        held = []  # the memos' keys stay alive, so no other belief takes their id

        def memoized(step):
            memo = {}
            memos.append(memo)

            def memo_step(sem):
                new = memo.get(id(sem))
                if new is None:
                    new = step(sem)
                    new = memo[id(sem)] = sem if new == sem else intern(new)
                    held.append(sem)
                return new

            return memo_step

        coords, rows = scan_updates(beams, self.origin.tolist(), self.element_size, self.dims,
                                    self.num_classes)
        steps = {0: memoized(update(None))}  # by model row: 0 free, y a class-y hit
        write = self._write_element
        changed = set()
        writes = 0
        cells = iter(coords)
        for cell, row in zip(zip(cells, cells, cells), rows):
            step = steps.get(row)
            if step is None:
                step = steps[row] = memoized(update(row))
            if write(cell, step):
                changed.add(cell)
                writes += 1
        visited = len(rows)
        collapsed = self.prune(changed)
        log.debug(
            "insert_scan: %d beams, %d elements visited, %d changed, %d nodes collapsed, "
            "%d memo hits, %d no-op writes",
            len(beams), visited, len(changed), collapsed,
            visited - sum(map(len, memos)), visited - writes,
        )
        return self

    def prune(self, cells=None) -> int:
        """Bottom-up: collapse inner nodes whose 8 children are identical
        leaves. Point queries are unaffected. Without ``cells`` the whole tree
        is visited (trees built by hand or loaded from a file); with them,
        only the inner nodes on the root paths of those elements, which is
        enough when the tree was pruned before they were written. Each
        collapsed node is recorded for the leaf table. Returns the number of
        nodes collapsed."""
        collapsed = []

        def visit(node: SemanticNode, bit: int, x: int, y: int, z: int, cells) -> None:
            if node.children is None:
                return
            if cells is None:
                groups = dict.fromkeys(range(8))
            else:
                groups: dict[int, list] = {}
                for cell in cells:
                    cx, cy, cz = cell
                    slot = ((cx >> bit) & 1) << 2 | ((cy >> bit) & 1) << 1 | ((cz >> bit) & 1)
                    groups.setdefault(slot, []).append(cell)
            half = 1 << bit
            for slot, group in groups.items():
                visit(node.children[slot], bit - 1, x | (slot >> 2) * half,
                      y | (slot >> 1 & 1) * half, z | (slot & 1) * half, group)
            first = node.children[0]
            if first.children is None and all(
                c.children is None and c.semantics == first.semantics
                for c in node.children[1:]
            ):
                node.semantics = first.semantics
                node.children = None
                collapsed.append((x, y, z, 2 * half))

        visit(self.root, self.max_depth - 1, 0, 0, 0, cells)
        if self._table is not None:  # the leaves changed, though no element did
            self._dirty.update(collapsed)
        return len(collapsed)

    # -- ray casting -------------------------------------------------------------

    def cast_ray(self, beam: BeamMeasurement) -> RayTrace:
        """Element-resolution trace through the cube: the dense grid's caster
        with the element size and cube extent, so grid and tree agree on
        what a beam touches."""
        return cast(beam, self.origin.tolist(), self.element_size, self.dims)

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
            if values and values[-1] == sem:
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
        wherever the belief changes under ``==``, and takes its first
        element's belief."""
        lengths = np.array(counts, dtype=np.int64)
        if not cells.shape[0]:
            return None, lengths.tolist()
        table = self.leaf_table()
        ids = table.element_ids(morton(*cells.T))
        same = table.same[ids]
        new = np.empty(ids.shape[0], dtype=bool)
        new[0] = True
        np.not_equal(same[1:], same[:-1], out=new[1:])
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

    def iter_leaves(self):
        """Yield (semantics, low_corner, size_elements) over all leaves in
        preorder, which is Morton order."""
        return self._leaves(self._root, (0, 0, 0), self.size_elements)

    @staticmethod
    def _leaves(node: SemanticNode, corner, size: int):
        """``iter_leaves`` under one node, at ``corner`` with edge ``size``."""
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
        """The leaf table of the tree as it is now. A new root (a new tree, a
        loaded file) gets a full build; after element writes and pruning
        collapses, only the subtrees of the highest nodes they touched are
        walked again and spliced in (``_patch_leaf_table``)."""
        with self._upkeep:
            if self._table is None:
                self._table = self._build_leaf_table()
            elif self._dirty:
                self._table = self._patch_leaf_table()
            return self._table

    def _compacted(self, starts, corners, sizes, ids) -> LeafTable:
        """The table with the interned beliefs cut down to those its leaves
        hold, renumbered by first leaf in preorder; ids and ``same`` are then
        those a walk that interns from nothing assigns."""
        live, first = np.unique(ids, return_index=True)
        live = live[np.argsort(first)]
        renumber = np.empty(len(self._beliefs), dtype=np.intp)
        renumber[live] = np.arange(live.shape[0])
        self._beliefs = self._beliefs.compacted(live)
        return self._beliefs.table(starts, corners, sizes, renumber[ids])

    def _build_leaf_table(self) -> LeafTable:
        """One walk over every leaf, then a compaction."""
        t0 = time.perf_counter()
        self._dirty.clear()
        corners, sizes, ids = self._walk([(self._root, 0, 0, 0, self.size_elements)])
        table = self._compacted(morton(*corners.T), corners, sizes, ids)
        self._log_table(table, "full", ids.shape[0], t0)
        return table

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
        union of whole old leaves and of whole new ones. Once ids that no
        leaf holds outnumber the held ones, the patched table is compacted."""
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
        tops = []
        for x, y, z, size in boxes[top].tolist():
            node, bit = self._root, self.max_depth - 1
            while 1 << bit + 1 > size:
                slot = ((x >> bit) & 1) << 2 | ((y >> bit) & 1) << 1 | ((z >> bit) & 1)
                node = node.children[slot]
                bit -= 1
            tops.append((node, x, y, z, size))
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
        held = np.count_nonzero(np.bincount(parts[3], minlength=len(self._beliefs)))
        if 2 * held < len(self._beliefs):
            table, how = self._compacted(*parts), "patched and compacted"
        else:
            table, how = self._beliefs.table(*parts), "patched"
        self._log_table(table, how, starts.shape[0], t0)
        return table

    def _log_table(self, table: LeafTable, how: str, walked: int, t0: float) -> None:
        log.debug(
            "leaf table: %d leaves, %d beliefs, %s, %d leaves walked, %.3f ms",
            len(table.ids), len(table.full), how, walked, (time.perf_counter() - t0) * 1e3,
        )

    def _box_ids(self, box) -> tuple[LeafTable, np.ndarray]:
        """The leaf table and an int array over a half-open element box
        ((lo), (hi)) inside the cube holding each element's belief id."""
        lo, hi = self._box(box)
        table = self.leaf_table()
        return table, table.element_ids(morton(*np.ix_(*map(range, lo, hi))))

    def labels_observed(self, box) -> tuple[np.ndarray, np.ndarray]:
        """Most likely class (the argmax of the full belief, ties to the
        lowest class) and observed flag (belief off the prior) of every
        element in a half-open box ((lo), (hi)) inside the cube."""
        table, ids = self._box_ids(box)
        return np.argmax(table.full, axis=1)[ids], table.observed[ids]

    def map_state(self, region=None) -> tuple[float, float]:
        """``(map_entropy(region), observed_fraction(region))`` from the leaf
        table: each leaf's element count inside the box times its belief's
        entropy, added leaf by leaf in preorder. A box not inside the cube
        raises ValueError, as on the grid."""
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
    table, ids = tree._box_ids(((0, 0, 0), gmap.dims))
    np.take(table.full, ids, axis=0, out=gmap.cells)
    np.take(table.observed, ids, out=gmap.observed)
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
    the format does not allow (no class or more than ``MAX_CLASSES``
    among them), a NaN or infinite prior or tracked value, or a NaN or +inf
    lump."""
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
    if num_classes > MAX_CLASSES:
        raise CorruptMap(f"{path}: {num_classes} classes (at most {MAX_CLASSES})")
    if v1 and summary_flag not in (0, 1):
        raise CorruptMap(f"{path}: unknown summary flag {summary_flag}")
    prior = np.array(take(f"<{num_classes + 1}{real}"), dtype=np.float64)
    if not v1 and prior[0] != 0.0:
        raise CorruptMap(f"{path}: prior pivot {float(prior[0])!r} is not 0")
    if not np.isfinite(prior).all():
        raise CorruptMap(f"{path}: non-finite prior {prior.tolist()}")
    prior[0] = 0.0  # a version-1 pivot is read but not required to be 0
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
