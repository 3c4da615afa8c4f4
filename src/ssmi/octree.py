"""Adaptive-resolution multi-class map: a linear octree whose leaves hold
truncated categorical beliefs.

Leaves store at most the 3 most likely class log-odds plus a single "others"
lump for the rest. A scan updates the elements' rows in the dense grid's
rounds: with K <= 3 a belief is its full row and the update the grid's
(``grid._apply_rounds``), so the tree reproduces the grid bit for bit; with
K > 3 it is a lumped row and the update the lumped one (``_lumped_rounds``).

The tree is its runs: the maximal runs of elements of one belief in
Morton order, held as two arrays, ``starts`` (the code where each run
begins, ascending, the first 0) and ``ids`` (the id of its belief in the
tree's interned store, no two neighbours equal). A child's slot is
``x<<2 | y<<1 | z``, so preorder is Morton order and each octree node is
one aligned interval of Morton codes (a linear octree: Gargantini, "An
effective way to represent quadtrees", CACM 1982). The belief of element
``c`` is ``ids[searchsorted(starts, morton(c), "right") - 1]``: every
element read, one element or a batch, is that lookup, and no node is
stored.

The tree's leaves are derived from the runs when a reader needs them
(``_leaves``), and they are the pruned ones, OctoMap's rule (Hornung et
al. 2013) stated on intervals: an aligned interval of ``8**L`` codes whose
elements all hold one belief is one leaf. A block is such a leaf exactly
when it lies inside one run and its parent does not, so the pruned leaves
are the maximal aligned blocks of the runs, and a write that keeps its
runs maximal keeps the tree pruned with no pruning code. The leaves are
what makes ray casts over this structure short, a ray meeting a handful of
homogeneous runs instead of hundreds of elements, and ``save_octree``
writes them as a preorder node stream (as OctoMap's compact ``.bt`` files
do).

The cube of ``2**max_depth`` elements a side is the tree's storage only. The
map covers a world box of ``dims`` elements at the cube's low corner, as a
``GridMap`` of the same dims does: scans, ray casts, pose fans and the
default box of every aggregate end at the world's faces, so both maps share
one geometry.

A belief is its row for every K (``_lumped_row``: three classes, their values, the lump),
whose bytes stand one to one for its ``.ssmioct`` leaf record. The tree's
store interns every row by its bytes, so equal values share one id
(``0.0`` and ``-0.0`` stay apart); ``insert_scan`` interns each distinct
new row once and skips the elements whose row bits it leaves as they
were. The store holds the beliefs writes put on leaves, for the tree's
life, so a belief's id and its rows never change: per id its stored row
and its full K+1 row, both made when the row is interned. What a reader
derives from a belief is made by the read that uses it: ``map_state``
takes the entropy of the stored rows, ``labels_observed`` the argmax of
the full rows. A ``TruncatedSemantics`` is built from a row only for a
reader (``query_element``, ``save_octree``) and by ``load_octree``, which
checks each belief it reads through one.
"""

from __future__ import annotations

import logging
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import logodds
from .errors import CorruptMap
from .grid import GRID_MAGIC, BeamMeasurement, GridMap, RayTrace, Scan, SrleRay, cast
from .grid import _apply_rounds, _box_corners, _check_header, _frame, _integers, _prior_vector
from .grid import _rounds, scan_updates
from .logodds import SensorParams

OCTREE_MAGIC = b"SSMIOCT3"
OCTREE_MAGIC_V2 = b"SSMIOCT2"  # read only: no extent, the world is the cube
OCTREE_MAGIC_V1 = b"SSMIOCT1"  # read only
OCTREE_VERSIONS = {OCTREE_MAGIC_V1: 1, OCTREE_MAGIC_V2: 2, OCTREE_MAGIC: 3}

NEG_INF = float("-inf")

log = logging.getLogger(__name__)


# a v2/v3 leaf record by tracked count: child mask 0, count, (class, log-odds) pairs, lump
_LEAF = [struct.Struct("<BB" + "Hd" * n + "d") for n in range(4)]


@dataclass(frozen=True)
class TruncatedSemantics:
    """Up to three (class, log-odds) pairs plus one lump for everything else.

    ``data`` is sorted by descending log-odds with class index breaking ties,
    and ``others`` is the log-odds of the aggregate probability of all
    untracked classes (-inf when nothing is untracked). ``record`` is the
    belief's leaf record in a ``.ssmioct`` file (``_LEAF``), made once: two
    beliefs have one record exactly when they are equal bit for bit
    (``0.0`` and ``-0.0`` apart), and so exactly when they have one stored
    row (``_lumped_row``), the tree's key for the belief.
    """

    data: tuple[tuple[int, float], ...]
    others: float
    record: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.data)
        if n > 3:
            raise ValueError("at most 3 tracked classes")
        classes = {c for c, _ in self.data}
        if len(classes) != n or not all(1 <= c <= logodds.MAX_CLASSES for c in classes):
            raise ValueError(f"tracked classes must be distinct ids in 1..{logodds.MAX_CLASSES}")
        # a file's rule: only the lump may be -inf (nothing untracked)
        if not all(math.isfinite(v) for _, v in self.data) or not self.others < math.inf:
            raise ValueError(f"non-finite belief {self.data} lump {self.others!r}")
        object.__setattr__(self, "record", _LEAF[n].pack(
            0, n, *[x for cv in self.data for x in cv], self.others))


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


# per 12-bit chunk of a Morton code (four levels), its x, y and z bits
# compacted to four bits each, at bits 0, 16 and 32
_COMPACT = sum((np.arange(4096, dtype=np.int64) >> 3 * b + 2 - a & 1) << b + 16 * a
               for a in range(3) for b in range(4))


def _corners(codes: np.ndarray, max_depth: int) -> np.ndarray:
    """The element coordinates of Morton codes of a tree of ``max_depth``,
    an (N, 3) array: the inverse of ``morton``."""
    packed = np.zeros_like(codes)
    for shift in range(0, 3 * max_depth, 12):
        packed |= _COMPACT[codes >> shift & 4095] << shift // 3
    return np.stack((packed & 0xFFFF, packed >> 16 & 0xFFFF, packed >> 32), axis=1)


class _Beliefs:
    """The beliefs that writes put on the leaves of one tree: one stored
    row per id (``rows``, ``_lumped_row`` for every K) and one index by the
    row's bytes, so beliefs equal bit for bit share one id (two beliefs
    have one row exactly when they have one record). Per id also its
    ``full`` row, the full K+1 log-odds with untracked classes splitting
    the lump evenly, made with the stored row when the row is interned.
    The store is append-only: each id keeps its rows for the tree's life,
    and each append makes new arrays, so a table made earlier keeps the
    old ones. The prior is id 0, so an element is observed when its id is
    not 0."""

    def __init__(self, prior_row: np.ndarray, num_classes: int):
        self.num_classes = num_classes
        self.index: dict[bytes, int] = {}
        self.rows = np.zeros((0, 7))
        self.full = np.zeros((0, num_classes + 1))
        # the log of the number of untracked classes sharing the lump, by tracked count
        self.share = np.array([math.log(max(num_classes - n, 1)) for n in range(4)])
        self.ids(prior_row)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def ids(self, rows: np.ndarray) -> np.ndarray:
        """The id of each stored row of ``rows``, (N, 7), interning the rows
        the index has not seen in their order with their full rows (the
        tracked values, and the lump's even share in every other class)."""
        index, size = self.index, len(self.index)
        keys = np.ascontiguousarray(rows).view(np.dtype((np.void, 7 * 8)))[:, 0].tolist()
        ids = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
        if len(index) > size:
            _, first = np.unique(ids, return_index=True)
            new = rows[first[size - len(index):]]
            tracked = new[:, :3] != _EMPTY
            lump = new[:, 6] - self.share[np.count_nonzero(tracked, axis=1)]
            full = np.repeat(lump[:, None], self.num_classes + 1, axis=1)
            full[:, 0] = 0.0
            at, slot = np.nonzero(tracked)
            full[at, new[at, slot].astype(np.intp)] = new[at, slot + 3]
            self.rows = np.concatenate((self.rows, new))
            self.full = np.concatenate((self.full, full))
        return ids

    def semantics(self, i: int) -> TruncatedSemantics:
        """The belief of id ``i``, built from its row."""
        r = self.rows[i].tolist()
        return TruncatedSemantics(tuple((int(c), v) for c, v in zip(r[:3], r[3:6])
                                        if c != _EMPTY), r[6])


@dataclass(frozen=True)
class LeafTable:
    """One revision of a tree for a reader: its pruned leaves in preorder,
    which is Morton order, derived from its runs (``_leaves``), and the
    rows of their beliefs.

    Per leaf: ``starts`` (the Morton code of its low corner, ascending),
    ``sizes`` (its edge in elements), and ``ids``, the id of its belief in
    the tree's interned beliefs, so equal ids are equal bits, and id 0 is
    the prior. Per belief id, the store's ``rows`` and ``full`` rows
    (``_Beliefs``) as they were when the table was made; ids that no leaf
    holds any more keep their rows, and a later table gives every id the
    rows it had here. A write replaces the tree's runs and never changes
    them in place, so a table stays as it was made."""

    starts: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray
    rows: np.ndarray
    full: np.ndarray


def _leaves(starts: np.ndarray, ids: np.ndarray,
            max_depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pruned leaves of the runs ``starts``, ``ids`` of a tree of
    ``max_depth``: their starts, sizes and ids in preorder. The leaves of a
    run ``[L, R)`` are its maximal aligned blocks. With ``a_j = ceil(L /
    8**j)`` and ``b_j = floor(R / 8**j)``, its level-j blocks are ``[a_j,
    b_j)``, and those inside a level-(j+1) block are ``[8 a_(j+1), 8
    b_(j+1))``; so its level-j leaves are ``[a_j, 8 a_(j+1))`` and ``[8
    b_(j+1), b_j)`` when ``a_(j+1) < b_(j+1)``, and ``[a_j, b_j)`` when
    not. Each level reads the runs that hold a whole block of it."""
    lo, hi = starts, np.append(starts[1:], 1 << 3 * max_depth)
    firsts, lasts = lo, hi  # the run's level-j blocks: [a_j, b_j)
    parts = []
    for j in range(max_depth + 1):
        up_lo, up_hi = -(-lo >> 3 * (j + 1)), hi >> 3 * (j + 1)
        whole = up_lo < up_hi
        # [a_j, cut_lo) and [cut_hi, b_j): an empty second part unless whole
        cut_lo, cut_hi = np.where(whole, up_lo << 3, lasts), np.where(whole, up_hi << 3, lasts)
        first, count = np.concatenate((firsts, cut_hi)), np.concatenate((cut_lo - firsts,
                                                                         lasts - cut_hi))
        blocks = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        parts.append((blocks << 3 * j, np.full(blocks.shape[0], 1 << j),
                      np.repeat(np.concatenate((ids, ids)), count)))
        if not whole.any():
            break
        lo, hi, ids, firsts, lasts = lo[whole], hi[whole], ids[whole], up_lo[whole], up_hi[whole]
    starts, sizes, ids = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(starts)
    return starts[order], sizes[order], ids[order]


def _levels(sizes: np.ndarray) -> np.ndarray:
    """The level of each leaf of edge ``sizes`` (a power of two): an
    element leaf is level 0, and a level-L leaf covers ``8**L`` codes."""
    return np.frexp(sizes)[1].astype(np.int64) - 1


# an empty slot's class in a lumped row: after every class a belief tracks
_EMPTY = 1 << 16


def _lumped_row(sem: TruncatedSemantics) -> list[float]:
    """A belief as a lumped row: classes, values, lump (an empty slot: ``_EMPTY``, -inf)."""
    pad = 3 - len(sem.data)
    return [*(c for c, _ in sem.data), *[_EMPTY] * pad, *(v for _, v in sem.data),
            *[NEG_INF] * pad, sem.others]


def _lumped_rows(full: np.ndarray) -> np.ndarray:
    """The lumped rows of full K+1 log-odds rows, (N, K+1), in one pass:
    the classes sorted by (-value, class), the top three tracked and, with
    K > 3, the rest lumped, one ``logodds.logsumexp`` per row in that
    order; the pivot is not read. ValueError for a row whose belief a file
    cannot hold: a NaN or infinite tracked value, or a NaN or +inf lump."""
    order = np.argsort(-full[:, 1:], axis=1, kind="stable")  # ties keep class order
    values = np.take_along_axis(full[:, 1:], order, axis=1)
    t = min(values.shape[1], 3)
    rows = np.full((full.shape[0], 7), NEG_INF)
    rows[:, :3] = _EMPTY
    rows[:, :t], rows[:, 3:3 + t] = order[:, :t] + 1, values[:, :t]
    if values.shape[1] > 3:
        rows[:, 6] = logodds.logsumexp(values[:, 3:])
    if not (np.isfinite(rows[:, 3:3 + t]).all() and (rows[:, 6] < math.inf).all()):
        raise ValueError(f"non-finite belief in the log-odds rows {full.tolist()}")
    return rows


def _lumped_rounds(table: np.ndarray, keys: np.ndarray, rows: np.ndarray, bounds,
                   params: SensorParams, prior: np.ndarray) -> None:
    """``grid._apply_rounds`` on lumped rows (K > 3, ``_lumped_row``), for
    class-uniform parameters (ValueError otherwise). A free update adds and
    clamps; a hit on a tracked class also adds ``psi`` to it. A hit on an
    untracked class splits an alpha share off the lump as its candidate,
    drops the last of the four candidates in (-value, class) order and
    folds it and the rest of the lump into the lump (``logodds.logsumexp``).
    Clamps are ``min(max(v, lo), hi)`` on Python floats and skip empty
    slots, so each row ends bit for bit as the per-belief update leaves it.
    A slot keeps its class until a hit drops it, so rows are sorted once,
    after the rounds. After a free round that changes no row, every later
    row is a fixed point of free updates: on to the next round with a hit."""
    vecs = np.array([params.phi_minus, params.phi_plus, params.psi_plus, params.clamp_lo,
                     params.clamp_hi, prior])[:, 1:]
    if (vecs != vecs[:, :1]).any():
        raise ValueError("sensor parameters and prior must be class-uniform when K > 3")
    phi_m, phi_p, psi, lo, hi, prior_occ = vecs[:, 0].tolist()
    free_shift, hit_shift = phi_m - prior_occ, phi_p - prior_occ
    # an untracked hit's split and rest of the lump, term by term (x - c is x + -c)
    terms = np.array([[math.log(params.alpha), phi_p], [hit_shift, -prior_occ],
                      [psi, math.log1p(-params.alpha)]])
    hit = rows != 0
    shifts = np.where(hit, hit_shift, free_shift)[:, None]
    empty = (table[:, :3] == _EMPTY).any()  # an update never empties a slot
    hits_before = np.concatenate(([0], np.cumsum(hit))).tolist()
    starts = [0, *bounds[:-1]]
    r = 0
    while r < len(bounds):
        a, b = starts[r], bounds[r]
        r += 1
        sel = keys[a:b]
        row = table[sel]
        classes, values = row[:, :3], row[:, 3:]  # the lump is the last value
        before = row.tobytes() if hits_before[b] == hits_before[a] else None
        if before is None:
            y = rows[a:b]
            mine = classes == y[:, None]
            tracked = mine.any(axis=1)
            new = np.flatnonzero(hit[a:b] > tracked)
            lump = row[new, 6]  # before the shift
            values += shifts[a:b]
            # as in the per-belief update, a tracked hit then adds psi to its
            # class and 0.0 to the others; other rows add -0.0, which is no change
            values[:, :3] += np.where(mine, psi, np.where(tracked, 0.0, -0.0)[:, None])
            if new.shape[0]:
                fold = lump[:, None] + terms[0] + terms[1] + terms[2]  # the split, the rest
                candidates, owners = values[new], np.concatenate((classes[new], y[new, None]), 1)
                candidates[:, 3] = fold[:, 0]
                last, at = np.lexsort((owners, -candidates), axis=1)[:, 3], np.arange(new.shape[0])
                fold[:, 0] = candidates[at, last]
                # the hit class takes the dropped candidate's slot
                candidates[at, last], owners[at, last] = candidates[:, 3], owners[:, 3]
                candidates[:, 3] = logodds.logsumexp(fold)
                values[new], classes[new] = candidates, owners[:, :3]
        else:
            values += free_shift
        np.minimum(hi, np.maximum(lo, values, out=values), out=values)
        if empty:
            values[:, :3][classes == _EMPTY] = NEG_INF
        if row.tobytes() == before:
            # every row of a later round is one of these: on to one with a hit
            while r < len(bounds) and hits_before[bounds[r]] == hits_before[starts[r]]:
                r += 1
            continue
        table[sel] = row
    order = np.lexsort((table[:, :3], -table[:, 3:6]), axis=-1)
    at = np.arange(table.shape[0])[:, None]
    table[:, :3], table[:, 3:6] = table[at, order], table[at, order + 3]


def cube_depth(dims) -> int:
    """The least tree depth (at least 1) whose cube holds ``dims`` elements
    along every axis."""
    return max(1, math.ceil(math.log2(max(dims))))


class SemanticOctree:
    """Multi-class map of a world of ``dims`` elements (x, y, z) of edge
    ``element_size``, stored in a cube of ``2**max_depth`` elements a side;
    ``dims`` defaults to the whole cube and must fit inside it. ``origin``,
    the low corner of element (0, 0, 0), is three floats. The extents, the
    depth (1..16) and K are integers, numpy's too; ValueError otherwise.

    The tree is its runs (module docstring): one pair of arrays, the runs'
    ``starts`` and ``ids``, that a write replaces in one assignment and
    never changes in place, so a reader that took the pair keeps the tree
    it read. ``leaf_table()`` derives the leaves from it."""

    def __init__(
        self,
        element_size: float,
        max_depth: int,
        num_classes: int,
        prior: np.ndarray | None = None,
        origin=(0.0, 0.0, 0.0),
        dims=None,
    ):
        (self.max_depth,) = _integers((max_depth,), "max_depth")
        if not 1 <= self.max_depth <= 16:
            raise ValueError("max_depth must be in 1..16")
        self.element_size, self.origin = _frame("element size", element_size, origin)
        n = self.size_elements
        self.dims = (n, n, n) if dims is None else _integers(dims, "dims")
        if len(self.dims) != 3 or not all(1 <= d <= n for d in self.dims):
            raise ValueError(f"dims {self.dims} are not three extents in 1..{n}")
        (self.num_classes,) = _integers((num_classes,), "num_classes")
        self.prior = prior = _prior_vector(prior, self.num_classes)
        self._beliefs = _Beliefs(_lumped_rows(prior[None]), self.num_classes)
        self._set_leaves(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp))

    def _set_leaves(self, starts, ids) -> None:
        """Make the tree the intervals of Morton codes that begin at
        ``starts`` (ascending, the first 0) and hold the belief ids ``ids``,
        such as a tree's leaves: its runs are these intervals with equal
        neighbours joined."""
        keep = np.ones(ids.shape[0], dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=keep[1:])
        self._runs = (starts[keep], ids[keep])

    @property
    def size_elements(self) -> int:
        return 1 << self.max_depth

    @property
    def resolution(self) -> float:
        """Element edge length (the grid's name for its cell size)."""
        return self.element_size

    def _held(self, codes):
        """The belief id of the element at each Morton code."""
        starts, ids = self._runs
        return ids[np.searchsorted(starts, codes, side="right") - 1]

    def _code(self, cell) -> int:
        """The Morton code of an element of the world, given as three
        integers (numpy's too); ValueError for a cell outside it or a
        coordinate that is not an integer."""
        cell = _integers(cell, "element")
        if len(cell) != 3 or not all(0 <= c < d for c, d in zip(cell, self.dims)):
            raise ValueError(f"element {cell} is outside the world {self.dims}")
        return int(morton(*cell))

    def query_element(self, cell) -> TruncatedSemantics:
        """The belief of an element; ValueError for a cell outside the
        world."""
        return self._beliefs.semantics(self._held(self._code(cell)))

    # -- updates ---------------------------------------------------------------

    def _write(self, codes, old, new) -> None:
        """The one writer: give the elements at the ascending, distinct
        Morton ``codes``, which hold the belief ids ``old``, the ids
        ``new``.

        Elements that keep their id are dropped. Each changed element ``c``
        begins a run of its new id, and the run of the id held at ``c + 1``
        begins again there (inside the cube). These entries and the current
        runs, stable-sorted by start with the changed elements last, keep
        the last entry per start; an entry whose id is its predecessor's
        then joins it (``_set_leaves``), so the runs stay maximal and the
        tree pruned. One DEBUG line reports the runs, the store size and
        the changed elements."""
        t0 = time.perf_counter()
        changed = new != old
        if changed.any():
            codes, new = codes[changed], new[changed]
            after = codes + 1
            after = after[after < 1 << 3 * self.max_depth]
            starts, ids = self._runs
            entries = np.concatenate((starts, after, codes))
            order = np.argsort(entries, kind="stable")
            entries = entries[order]
            last = np.ones(entries.shape[0], dtype=bool)
            np.not_equal(entries[1:], entries[:-1], out=last[:-1])
            held = np.concatenate((ids, self._held(after), new))[order]
            self._set_leaves(entries[last], held[last])
        log.debug("octree write: %d runs, %d beliefs, %d changed, %.3f ms",
                  self._runs[0].shape[0], len(self._beliefs), np.count_nonzero(changed),
                  (time.perf_counter() - t0) * 1e3)

    def set_element(self, cell, h: np.ndarray) -> None:
        """Write an element belief directly (scene construction): a
        one-element write of K+1 log-odds with a zero pivot. ValueError,
        before the tree changes, for a cell outside the world or any other
        vector, a non-finite one included (``_lumped_rows``)."""
        codes = np.array([self._code(cell)], dtype=np.int64)
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.num_classes + 1,) or h[0] != 0.0:
            raise ValueError(f"element log-odds must be K+1 = {self.num_classes + 1} values "
                             f"with zero pivot, got {h.tolist()}")
        self._write(codes, self._held(codes), self._beliefs.ids(_lumped_rows(h[None])))

    def insert_scan(self, beams: Scan | list[BeamMeasurement],
                    params: SensorParams) -> "SemanticOctree":
        """Integrate a scan's beams in order, a sensed ``Scan`` or a list of
        beams (same cell arithmetic as the dense grid), in one write, a
        splice of the changed elements into the runs (``_write``). The
        element updates are the grid's, from ``scan_updates``, which finds
        and checks every update first (cut from the fan's memoized walks
        for a ``Scan``, walked beam by beam for a list): a scan that raises
        leaves the tree as it was.

        The updates are grouped in rounds by element (``grid._rounds``, a
        stable sort of their Morton codes), so each element meets its
        updates in scan order, and the ids the elements hold are found by
        one ``searchsorted`` of the run starts for all of them. The
        elements' rows take the update in those rounds, the one step that
        depends on K: full rows (``_Beliefs.full``) and the grid's own
        update with K <= 3 (``grid._apply_rounds``), lumped rows
        (``_Beliefs.rows``) and the lumped update with K > 3
        (``_lumped_rounds``). Each distinct row that changed (in its bits,
        or with K <= 3 from a belief tracking fewer than K classes, which
        only a file holds) takes its id from the store as a lumped row
        (``_Beliefs.ids``; ``_lumped_rows`` of it with K <= 3). An element
        that ends where it began is not written."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and tree disagree on K")
        cells, rows = scan_updates(beams, self.origin, self.element_size, self.dims,
                                   self.num_classes)
        codes = morton(*cells.T)
        order, first, by_round, bounds = _rounds(codes)
        codes = codes[order][first]
        held = self._held(codes)
        # each update's element (an index into codes) and model row, by round
        keys, rows = (np.cumsum(first) - 1)[by_round], rows[order[by_round]]
        store = self._beliefs
        size = len(store)
        lumped = self.num_classes > 3
        was = (store.rows if lumped else store.full)[held]
        table = was.copy()
        (_lumped_rounds if lumped else _apply_rounds)(table, keys, rows, bounds, params,
                                                      self.prior)
        # each row as one value of its bytes, so that 0.0 and -0.0 differ
        row_bytes = np.dtype((np.void, table.itemsize * table.shape[1]))
        fresh = table.view(row_bytes)[:, 0]
        changed = fresh != was.view(row_bytes)[:, 0]
        if not lumped:
            changed |= store.rows[held, self.num_classes - 1] == _EMPTY
        (changed,) = np.nonzero(changed)
        _, at, distinct = np.unique(fresh[changed], return_index=True, return_inverse=True)
        at = changed[at]
        new = held.copy()
        new[changed] = store.ids(table[at] if lumped else _lumped_rows(table[at]))[distinct]
        log.debug("insert_scan: %d beams, %d updates of %d elements, %d changed, "
                  "%d beliefs added", len(beams), len(rows), len(held),
                  np.count_nonzero(new != held), len(store) - size)
        self._write(codes, held, new)
        return self

    # -- ray casting -------------------------------------------------------------

    def cast_ray(self, beam: BeamMeasurement) -> RayTrace:
        """Element-resolution trace through the world: the dense grid's
        caster with the element size and the world's extent, so grid and
        tree agree on what a beam touches."""
        return cast(beam, self.origin, self.element_size, self.dims)

    def _ray_runs(self, cells: np.ndarray, firsts) -> tuple[SrleRay, np.ndarray]:
        """The runs over stacked elements (at least one) whose beams start
        at the indices ``firsts``, and the index of each run's first
        element. All elements are looked up in the tree's runs at once; a
        run starts at each beam's first element and wherever the belief id
        changes (ids are interned bits), and takes its first element's
        belief."""
        ids = self._held(morton(*cells.T))
        n = ids.shape[0]
        new = np.ones(n + 1, dtype=bool)  # where runs start, and n, where the last ends
        np.not_equal(ids[1:], ids[:-1], out=new[1:n])
        new[firsts] = True
        bounds = np.flatnonzero(new)
        starts = bounds[:-1]
        chi_t = self._beliefs.full[ids[starts]]
        return SrleRay(widths=np.diff(bounds), chi_t=chi_t,
                       chi_0=np.broadcast_to(self.prior, chi_t.shape)), starts

    def encode_trace(self, cells: np.ndarray) -> SrleRay | None:
        """Run-length encode leaf beliefs along a sequence of elements, an
        (M, 3) integer array such as ``RayTrace.cells``; None when it is
        empty.

        Consecutive elements with equal beliefs merge into one run even when
        they belong to distinct leaves, so expanding the result reproduces the
        per-element sequence exactly and the widths sum to the element count.
        """
        return self._ray_runs(cells, 0)[0] if cells.shape[0] else None

    def encode_traces(self, cells: np.ndarray, counts) -> tuple[SrleRay | None, list[int]]:
        """The runs over a compact cast (``mi.FanCast``: ``cells`` stacks each
        beam's elements past its sensor element in beam order, ``counts[b]``
        of them for beam b), as ``encode_trace`` gives them per beam,
        stacked, and each beam's run count; the runs are None when there is
        no element."""
        ends = np.cumsum(counts, dtype=np.int64)
        if not cells.shape[0]:
            return None, [0] * ends.shape[0]
        runs, starts = self._ray_runs(cells, ends[:-1][ends[:-1] < cells.shape[0]])
        return runs, np.diff(np.searchsorted(starts, ends), prepend=0).tolist()

    def raycast_srle(self, beam: BeamMeasurement) -> SrleRay:
        """Cast a beam and return its run-length encoded belief sequence."""
        return self.encode_trace(self.cast_ray(beam).cells)

    # -- leaf table and aggregates ----------------------------------------------------

    def num_leaves(self) -> int:
        return self.leaf_table().ids.shape[0]

    def leaf_table(self) -> LeafTable:
        """The tree's pruned leaves as they are now (``_leaves``), with the
        rows of the beliefs they hold."""
        store = self._beliefs
        return LeafTable(*_leaves(*self._runs, self.max_depth), store.rows, store.full)

    def _box_ids(self, box) -> np.ndarray:
        """An int array over a half-open element box ((lo), (hi)) inside
        the world, or the whole world for None, holding each element's
        belief id."""
        lo, hi = _box_corners(box, self.dims)
        return self._held(morton(*np.ix_(*map(range, lo, hi))))

    def labels_observed(self, box=None) -> tuple[np.ndarray, np.ndarray]:
        """Most likely class (the argmax of the full belief, ties to the
        lowest class) and observed flag (belief off the prior) of every
        element in a half-open box ((lo), (hi)) inside the world, or of the
        whole world."""
        ids = self._box_ids(box)
        return np.argmax(self._beliefs.full, axis=-1)[ids], ids != 0

    def map_state(self, region=None) -> tuple[float, float]:
        """Total entropy in nats, and the fraction of elements whose belief
        moved off the prior, over a half-open element box ((lo), (hi)) from
        the pruned leaves (``leaf_table()``): each leaf's element count
        inside the box times its belief's entropy, added leaf by leaf in
        preorder. A belief's entropy
        is that of its stored row's pivot, values and lump as one log-odds
        vector, where an empty slot's -inf, as a -inf lump, adds 0. The box
        defaults to the world; one not inside it raises ValueError, as on
        the grid, and an empty one gives ``(0.0, 0.0)``."""
        lo, hi = _box_corners(region, self.dims)
        table = self.leaf_table()
        corners = _corners(table.starts, self.max_depth)
        ends = corners + table.sizes[:, None]
        n = np.prod(np.maximum(np.minimum(ends, hi) - np.maximum(corners, lo), 0), axis=1)
        rows = table.rows
        padded = np.concatenate((np.zeros((rows.shape[0], 1)), rows[:, 3:]), axis=1)
        entropy = -np.sum(logodds.entropy_terms(padded), axis=-1)
        # a running sum from 0.0, as a loop over the leaves adds; numpy's
        # pairwise sum would round differently
        terms = np.concatenate(([0.0], n * entropy[table.ids]))
        total = int(n.sum())
        seen = int(n[table.ids != 0].sum())
        return float(np.cumsum(terms)[-1]), (seen / total if total else 0.0)


# -- grid conversion --------------------------------------------------------------


def octree_from_grid(gmap: GridMap) -> SemanticOctree:
    """Copy a dense map into a fresh octree of the grid's extent, at its
    resolution, in the least cube that holds it, in one write of every
    element."""
    tree = SemanticOctree(
        element_size=gmap.resolution,
        max_depth=cube_depth(gmap.dims),
        num_classes=gmap.num_classes,
        prior=gmap.prior,
        origin=gmap.origin,
        dims=gmap.dims,
    )
    codes = morton(*np.indices(gmap.dims).reshape(3, -1))
    order = np.argsort(codes)
    new = tree._beliefs.ids(_lumped_rows(gmap.cells.reshape(-1, gmap.num_classes + 1)[order]))
    tree._write(codes[order], tree._held(codes[order]), new)
    return tree


def grid_from_octree(tree: SemanticOctree) -> GridMap:
    """Sample every element of the tree's world into a dense map. Lumped
    beliefs (K > 3) expand with the untracked classes sharing the lump
    evenly."""
    gmap = GridMap(tree.dims, tree.element_size, tree.num_classes, tree.prior, tree.origin)
    ids = tree._box_ids(None)
    np.take(tree._beliefs.full, ids, axis=0, out=gmap.cells)
    np.not_equal(ids, 0, out=gmap.observed)
    return gmap


# -- serialization -----------------------------------------------------------------

# after the magic: element size, max depth, K, origin, the world's extent in elements
# (v2 ends at the origin; v1 also has one more u8 before the origin, the flag of
# the rule its inner-node summaries were made with)
_HEADER = struct.Struct("<dBH3d3I")
_HEADER_V2 = struct.Struct("<dBH3d")
_HEADER_V1 = struct.Struct("<dBHB3d")


def save_octree(tree: SemanticOctree, path) -> None:
    """Write a ``.ssmioct`` version 3 file: the header, then every node in
    preorder, an inner node as its child mask and a leaf as its belief's
    record (``TruncatedSemantics.record``: its mask, then the belief in
    f64), built once per id from its row. The leaves are the tree's pruned
    leaves, derived from its runs (``leaf_table()``). The inner nodes are
    those a leaf opens: one for each level above the leaf at which its
    start's trailing octal digits are zero (the root counts for the leaf at
    code 0). Only reads the tree; the bytes depend on its element beliefs
    alone."""
    parts = [
        OCTREE_MAGIC,
        _HEADER.pack(tree.element_size, tree.max_depth, tree.num_classes, *tree.origin,
                     *tree.dims),
        tree.prior.astype("<f8").tobytes(),
    ]
    leaves = tree.leaf_table()
    starts = leaves.starts
    aligned = _levels(np.where(starts > 0, starts & -starts, 1 << 3 * tree.max_depth)) // 3
    opened = (aligned - _levels(leaves.sizes)).tolist()
    ids = leaves.ids.tolist()
    records = {i: tree._beliefs.semantics(i).record for i in set(ids)}
    parts += [b"\xff" * n + records[i] for n, i in zip(opened, ids)]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_octree(path) -> SemanticOctree:
    """Read a ``.ssmioct`` file of version 3, or of version 2 or 1, whose
    world is the whole cube (version 1's f32 inner-node summaries are
    checked and skipped). Raises CorruptMap when the file is truncated, has
    trailing bytes, or holds a header or node record the format does not
    allow (no class or more than ``MAX_CLASSES`` among them, an extent that
    is zero or larger than the cube), a NaN or infinite prior or tracked
    value, or a NaN or +inf lump. The tree is the pruned tree of the
    element beliefs the file holds: its leaves, with equal neighbours
    joined into runs (``_set_leaves``)."""
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
        # a stable sort on the value alone keeps tied classes in the order they
        # were saved: an f64 tie can be stored out of class order (the clamp
        # after a lumped update), and f64 values an ulp apart can tie in f32
        try:  # a belief refuses a non-finite value, and a NaN or +inf lump
            return TruncatedSemantics(
                data=tuple(sorted(((c, float(v)) for c, v in data), key=lambda cv: -cv[1])),
                others=float(others),
            )
        except ValueError as err:
            raise CorruptMap(f"{path}: {err} before byte {pos}") from None

    starts, rows = [], []
    code = 0  # the start of the next leaf

    def read_node(depth: int) -> None:
        """Read a node at ``depth`` and the nodes under it, appending its
        leaves in preorder."""
        nonlocal code
        start = pos
        (mask,) = take("<B")
        if v1:
            take("<f")  # occupancy, derived from the belief
        if mask not in (0, 0xFF):
            raise CorruptMap(f"{path}: bad child mask {mask:#x} at byte {start}")
        if mask and depth == max_depth:
            raise CorruptMap(f"{path}: tree deeper than max_depth {max_depth}")
        if not mask:
            starts.append(code)
            rows.append(_lumped_row(read_belief()))
            code += 1 << 3 * (max_depth - depth)
            return
        if v1:
            read_belief()  # the inner-node summary
        for _ in range(8):
            read_node(depth + 1)

    read_node(0)
    if pos != len(buf):
        raise CorruptMap(f"{path}: {len(buf) - pos} trailing bytes")
    tree._set_leaves(np.array(starts, dtype=np.int64), tree._beliefs.ids(np.array(rows)))
    return tree
