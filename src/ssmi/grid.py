"""Dense multi-class occupancy grid with ray casting and beam integration.

Maps are always stored as 3-D arrays; a 2-D map is a 3-D map of depth one so
every downstream consumer (information evaluation, octrees, planning) sees a
single code path. Both maps take a scan's cell updates, in scan order, from
``scan_updates``: a sensed scan (``Scan``, one origin and a fan of
directions) is cut from the memoized walks of its fan (``_fan_template``),
which planning's fans (``walk_fan``) and the truth's first-hit search
(``sim.first_hits``) shift too, and a list of beams is walked beam by beam
(``_walk_beam``). Both apply them with ``_apply_rounds``: the update
``clamp(h + (l - h0))`` in rounds of one gather, add, clip and scatter
over distinct rows, on the grid's cells and, with K <= 3, on the octree
elements' rows, so the maps agree bit for bit (A4). Its one-row tail runs
on Python floats (``_clamped_add``), which a hypothesis test in
``tests/test_grid.py`` pins to numpy bit for bit. The maps also share
their box check (``_box_corners``), class count and prior check
(``_prior_vector``), cell size and origin (``_frame``) and files' header
checks (``_check_header``).
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import CorruptMap, InvalidClass, OriginOutOfBounds
from .logodds import MAX_CLASSES, SensorParams

GRID_MAGIC = b"SSMIGRID"
GRID_VERSION = 1

log = logging.getLogger(__name__)


def point3(v) -> tuple[float, float, float]:
    """``v``, any three reals (a tuple, a list, an ndarray), as a tuple of
    three floats, the one form of a point or a direction; ValueError else."""
    if isinstance(v, np.ndarray):
        # the rows of a 2-D array become lists, which float() rejects on
        # every NumPy (before 2.4 it takes a one-element array as its item)
        v = v.tolist()
    try:
        if isinstance(v, (str, bytes)):  # iterable, and its characters may parse
            raise TypeError
        x, y, z = map(float, v)
    except (TypeError, ValueError):
        raise ValueError("origin and direction must be 3-vectors") from None
    return x, y, z


def unit_direction(d: tuple[float, float, float]) -> tuple[float, float, float]:
    """``d`` (three floats) itself when its norm is within 1e-9 of one, else
    ``d`` over its norm; raises ValueError for a zero vector and for a norm
    that is NaN or infinite. Every beam direction passes here: a
    ``BeamMeasurement``'s, and each direction of a fan cast from its pose
    (``mi.FanCast.from_pose``)."""
    x, y, z = d
    # |d.d - 1| <= 1e-10 implies |norm - 1| < 1e-9, so the exact norm is only
    # needed outside that margin, where a NaN or infinite d.d lands too
    if not abs(x * x + y * y + z * z - 1.0) <= 1e-10:
        norm = float(np.linalg.norm(d))
        if not math.isfinite(norm):
            raise ValueError(f"direction {d} has no finite norm")
        if abs(norm - 1.0) > 1e-9:
            if norm == 0.0:
                raise ValueError("direction must be nonzero")
            return x / norm, y / norm, z / norm
    return d


@dataclass(frozen=True)
class BeamMeasurement:
    """One range-category return along a ray from ``origin``.

    ``origin`` and ``direction`` are given as any three reals and held as
    tuples of three floats (``point3``), the direction of unit norm
    (``unit_direction``); so beams compare and hash by value.
    ``category`` is the observed class in 1..K for a genuine hit and None
    when the beam reached ``max_range`` without hitting anything.
    """

    origin: tuple[float, float, float]
    direction: tuple[float, float, float]
    range: float
    category: int | None
    max_range: float

    def __post_init__(self):
        object.__setattr__(self, "origin", point3(self.origin))
        object.__setattr__(self, "direction", unit_direction(point3(self.direction)))
        if not 0.0 <= self.range <= self.max_range:
            raise ValueError("need 0 <= range <= max_range")
        if self.hits and (self.category is None or self.category < 1):
            raise InvalidClass("a hit beam must carry a class id >= 1")

    @property
    def hits(self) -> bool:
        return self.range < self.max_range


@functools.lru_cache(maxsize=64)
def _unit_directions(directions: tuple) -> tuple[tuple[float, float, float], ...]:
    """``directions`` (3-tuples) as float 3-tuples of unit norm
    (``unit_direction``), memoized by the fan: a scan's fan directions are
    the memoized ``mi._fan_directions`` tuple, checked there already."""
    return tuple(unit_direction(point3(d)) for d in directions)


@dataclass(frozen=True)
class Scan:
    """One sensed scan, a fan of range-category returns from one ``origin``:
    beam b runs along ``directions[b]`` and reports ``ranges[b]`` and
    ``labels[b]``, all up to one ``max_range``; ``sim.sense`` returns it.

    It is checked once per scan, as a ``BeamMeasurement`` checks one beam:
    ``origin`` is held as three floats (``point3``), the directions as float
    3-tuples of unit norm (``unit_direction``, memoized per fan), the ranges
    as floats with ``0 <= range <= max_range`` (ValueError), and every hit
    (a range below ``max_range``) carries a class id >= 1 (InvalidClass).
    Both maps' ``insert_scan`` take it whole (``scan_updates``).
    """

    origin: tuple[float, float, float]
    directions: tuple[tuple[float, float, float], ...]
    ranges: tuple[float, ...]
    labels: tuple[int | None, ...]
    max_range: float

    def __post_init__(self):
        directions = tuple(self.directions)
        if not all(type(d) is tuple for d in directions):  # lists, arrays: not hashable
            directions = tuple(map(point3, directions))
        ranges, labels = tuple(map(float, self.ranges)), tuple(self.labels)
        if not len(directions) == len(ranges) == len(labels):
            raise ValueError("a scan needs one range and one label per direction")
        max_range = float(self.max_range)
        object.__setattr__(self, "origin", point3(self.origin))
        object.__setattr__(self, "directions", _unit_directions(directions))
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "max_range", max_range)
        if not all(0.0 <= r <= max_range for r in ranges):
            raise ValueError("need 0 <= range <= max_range")
        if not all(r >= max_range or (y is not None and y >= 1) for r, y in zip(ranges, labels)):
            raise InvalidClass("a hit beam must carry a class id >= 1")

    def __len__(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class RayTrace:
    """Ordered cells a beam traverses up to max range.

    ``cells`` is (M, 3) integer cell coordinates; ``hit_index`` is the
    position of the cell containing the beam endpoint, absent when the beam
    reached max range or exited the map. The entry parameters of the walk
    stay in ``_walk_beam``, which finds the hit among them.
    """

    cells: np.ndarray
    hit_index: int | None


@dataclass(frozen=True)
class SrleRay:
    """Run-length encoded beam: consecutive cells sharing one belief.

    ``widths[q]`` counts smallest-resolution elements in run q, ``chi_t`` the
    current log-odds of the run and ``chi_0`` its prior.
    """

    widths: np.ndarray
    chi_t: np.ndarray
    chi_0: np.ndarray

    def __post_init__(self):
        widths = np.ascontiguousarray(self.widths, dtype=np.int64)
        chi_t = np.ascontiguousarray(self.chi_t, dtype=np.float64)
        chi_0 = np.ascontiguousarray(self.chi_0, dtype=np.float64)
        if widths.ndim != 1 or np.any(widths < 1):
            raise ValueError("run widths must be positive")
        if chi_t.ndim != 2 or chi_t.shape[0] != widths.shape[0] or chi_0.shape != chi_t.shape:
            raise ValueError("chi_t/chi_0 must be (Q, K+1) and share shape")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "chi_t", chi_t)
        object.__setattr__(self, "chi_0", chi_0)

    @property
    def num_runs(self) -> int:
        return int(self.widths.shape[0])

    @property
    def num_elements(self) -> int:
        return int(self.widths.sum())

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element (current, prior) log-odds; inverse of encode_runs."""
        h_t = np.repeat(self.chi_t, self.widths, axis=0)
        h_0 = np.repeat(self.chi_0, self.widths, axis=0)
        return h_t, h_0


def voxel_walk(g, d, s_max: float, dims) -> tuple[list[int], list[float]]:
    """Amanatides-Woo voxel walk in cell units with scalar floats.

    ``g`` is the origin and ``d`` the unit direction, each three floats;
    ``s_max`` is the ray length in cells. Returns the visited cells as a flat
    coordinate list (i0, j0, k0, i1, ...) and their entry parameters, closed
    by one more value where the walk stops: ``s_max``, or the parameter at
    which the ray leaves the ``dims`` box.

    Visits every cell the segment passes through with positive chord length.
    When the segment crosses a cell corner or edge exactly, all tied axes
    step together, so zero-chord corner neighbours are skipped.

    ``dims=None`` walks with no box: the walk stops at ``s_max`` only.

    Walks of one ray are prefixes of each other. The walk's state (cell,
    next boundary per axis) never reads ``s_max`` or ``dims``; only the
    stop tests do. So a walk cut at a smaller ``s_max`` lists the first
    cells and entries of the longer walk (Amanatides & Woo's traversal is
    incremental in the ray parameter). Each axis steps one way only, so a
    walk in a box lists the cells of the walk with no box up to the first
    cell outside the box.

    The walk is translation invariant: with no box, the walk from ``g``
    lists the cells of the walk from ``f = g - floor(g)`` shifted by
    ``floor(g)``, with the same entries. ``fx = gx - i`` is exact for ``i = floor(gx)``, so
    ``i + 1.0 - gx`` and ``i - gx`` round to the same floats as
    ``1.0 - fx`` and ``-fx``, and the state and stop tests are those of the
    walk from ``f``. ``walk_fan`` casts its fans from such shifted walks.
    """
    gx, gy, gz = g
    dx, dy, dz = d
    if dims is None:  # no coordinate leaves a box that is not there
        nx = ny = nz = low = None
    else:
        (nx, ny, nz), low = dims, -1
    i, j, k = math.floor(gx), math.floor(gy), math.floor(gz)
    # per axis: step, parameter of the next boundary, parameter per cell, and
    # the coordinate at which the walk has left the box (None: never leaves)
    inf = math.inf
    if dx > 0.0:
        si, ti, di, ei = 1, (i + 1.0 - gx) / dx, 1.0 / dx, nx
    elif dx < 0.0:
        si, ti, di, ei = -1, (i - gx) / dx, -1.0 / dx, low
    else:
        si, ti, di, ei = 0, inf, inf, None
    if dy > 0.0:
        sj, tj, dj, ej = 1, (j + 1.0 - gy) / dy, 1.0 / dy, ny
    elif dy < 0.0:
        sj, tj, dj, ej = -1, (j - gy) / dy, -1.0 / dy, low
    else:
        sj, tj, dj, ej = 0, inf, inf, None
    if dz > 0.0:
        sk, tk, dk, ek = 1, (k + 1.0 - gz) / dz, 1.0 / dz, nz
    elif dz < 0.0:
        sk, tk, dk, ek = -1, (k - gz) / dz, -1.0 / dz, low
    else:
        sk, tk, dk, ek = 0, inf, inf, None

    coords = [i, j, k]
    entries = [0.0]
    while True:
        t = ti if ti < tj else tj
        if tk < t:
            t = tk
        if t >= s_max:
            entries.append(s_max)
            return coords, entries
        entries.append(t)  # entry of the next cell, or the boundary exit
        if ti == t:
            i += si
            if i == ei:
                return coords, entries
            ti += di
        if tj == t:
            j += sj
            if j == ej:
                return coords, entries
            tj += dj
        if tk == t:
            k += sk
            if k == ek:
                return coords, entries
            tk += dk
        coords += (i, j, k)


def _cell_point(point, origin, cell_size: float, dims) -> tuple[float, float, float]:
    """``point`` (three floats) in cell units of the box of ``dims`` cells of
    edge ``cell_size`` whose low corner sits at ``origin``; raises
    OriginOutOfBounds when it is not inside the box."""
    # unrolled over the three axes: this runs once per cast beam or fan
    (px, py, pz), (ox, oy, oz), (nx, ny, nz) = point, origin, dims
    g = ((px - ox) / cell_size, (py - oy) / cell_size, (pz - oz) / cell_size)
    if not (0.0 <= g[0] < nx and 0.0 <= g[1] < ny and 0.0 <= g[2] < nz):
        raise OriginOutOfBounds(f"beam origin {point} outside the map")
    return g


def _walk_beam(beam: BeamMeasurement, g, cell_size: float, dims,
               to_hit: bool = False) -> tuple[list[int], list[float], int | None]:
    """The voxel walk of ``beam`` from ``g``, its origin in cell units of
    the box of :func:`cast` (``_cell_point``): its flat cell coordinates and
    entry parameters (``voxel_walk``), and the index of the cell holding the
    beam endpoint, None when the beam reached max range or its endpoint lies
    past the walk.

    With ``to_hit``, a hit beam is walked only to ``min(s_max,
    nextafter(s_hit, inf))``, in cells, which ends the walk at the first
    boundary past ``s_hit``. That walk is a prefix of the full one
    (``voxel_walk``), holding every entry ``<= s_hit`` and closed by a
    value ``> s_hit`` unless the ray left the box at or before ``s_hit``,
    where both walks are the same. So ``s_hit < entries[-1]`` and the
    ``bisect`` over the entries decide alike on both walks, and the hit
    cell is the cut walk's last. ``s_hit`` can round to ``s_max`` though
    the beam hits: then the cut is ``s_max``, and the test finds no hit."""
    s_max = beam.max_range / cell_size
    s_hit = beam.range / cell_size
    if to_hit and beam.hits:
        s_max = min(s_max, math.nextafter(s_hit, math.inf))
    coords, entries = voxel_walk(g, beam.direction, s_max, dims)
    hit_index = None
    if beam.hits and s_hit < entries[-1]:
        hit_index = bisect.bisect_right(entries, s_hit, 1) - 1
    return coords, entries, hit_index


def cast(beam: BeamMeasurement, origin, cell_size: float, dims) -> RayTrace:
    """Trace ``beam`` through the box of ``dims`` cells of edge ``cell_size``
    whose low corner sits at ``origin`` (three floats); the one caster behind
    ``cast_ray`` on both maps, ``GridMap`` and ``SemanticOctree``.

    Cells beyond the hit cell are still listed (the information formulas
    need the full sequence to max range); the trace is truncated where the
    ray leaves the box, which counts as reaching max range.
    """
    g = _cell_point(beam.origin, origin, cell_size, dims)
    coords, _, hit_index = _walk_beam(beam, g, cell_size, dims)
    return RayTrace(cells=np.array(coords, dtype=np.int64).reshape(-1, 3), hit_index=hit_index)


def scan_updates(beams, origin, cell_size: float, dims,
                 num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cell update of a scan, in scan order: the updated cells as one
    (n, 3) integer array and each update's model row
    (``SensorParams.models``), 0 for a traversed cell and y for the hit
    cell of a class-y return. Per beam these are the cells :func:`cast`
    lists up to its hit index, from a prefix of the same walk (a hit beam
    is walked only just past its endpoint, see ``_walk_beam``), so both
    maps' ``insert_scan`` write what a beam-by-beam loop over ``cast_ray``
    wrote.

    A ``Scan`` is not walked: its updates are cut from the memoized walks
    of its fan (``_scan_cut``). A list of beams is walked beam by beam, so
    a lone beam costs one cut walk; its origin check runs once per run of
    beams with equal origins.

    The origin and every hit class are checked before this returns, so a
    scan with an origin outside the box (OriginOutOfBounds) or a hit class
    outside 1..``num_classes`` (InvalidClass) raises before its caller
    writes."""
    if isinstance(beams, Scan):
        return _scan_cut(beams, origin, cell_size, dims, num_classes)
    coords: list[int] = []
    hits: list[tuple[int, int]] = []  # each hit update's index and class
    checked = g = None
    for beam in beams:
        if beam.origin != checked:
            checked = beam.origin
            g = _cell_point(checked, origin, cell_size, dims)
        walk, _, hit_index = _walk_beam(beam, g, cell_size, dims, to_hit=True)
        coords += walk
        if hit_index is None:
            continue
        y = beam.category
        if not 1 <= y <= num_classes:
            raise InvalidClass(f"hit class must be in 1..{num_classes}, got {y}")
        hits.append((len(coords) // 3 - 1, y))  # the hit cell is the cut walk's last
    cells = np.array(coords, dtype=np.intp).reshape(-1, 3)
    rows = np.zeros(len(cells), dtype=np.intp)
    for at, y in hits:
        rows[at] = y
    return cells, rows


@functools.lru_cache(maxsize=128)
def _fan_template(f, directions, s_max: float) -> tuple[np.ndarray, ...]:
    """The walks of a fan from ``f``, a point of cell (0, 0, 0), along
    ``directions`` to ``s_max`` cells with no box (``voxel_walk`` with
    ``dims=None``), as read-only arrays: each ray's cells from its first,
    in ray order, as (M, 3) int32 cell offsets, each offset's entry
    parameter, each offset's ray index, and where each ray's offsets
    start. The walks are pure geometry, so a template serves every fan
    whose center has the sub-cell part ``f`` (``_fan_in_box``). Sensing
    and planning share the memo, which holds the 128 most recently used:
    A7 worlds 0-2 ask for 16 distinct fans at 1 m cells and 90 at 0.3 m,
    where sub-cell parts differ between poses."""
    coords: list[int] = []
    entries: list[float] = []
    rays: list[int] = []
    starts: list[int] = []
    for ray, d in enumerate(directions):
        cells, walk = voxel_walk(f, d, s_max, None)
        starts.append(len(entries))
        coords += cells
        entries += walk[:-1]
        rays += [ray] * (len(walk) - 1)
    template = (np.array(coords, dtype=np.int32).reshape(-1, 3), np.array(entries),
                np.array(rays, dtype=np.intp), np.array(starts, dtype=np.intp))
    for a in template:
        a.flags.writeable = False
    return template


def _fan_in_box(g, directions, s_max: float, dims):
    """The walks of a fan from ``g`` (in cell units, inside the box of
    ``dims`` cells) along ``directions`` to ``s_max`` cells: the memoized
    ``_fan_template`` of the sub-cell part ``g - floor(g)``, shifted by
    ``floor(g)``. Returns the cells, which may leave the box, with their
    entries, ray indices and ray starts (the template's), each cell's
    in-box flag, and the template's range.

    ``voxel_walk`` is translation invariant, so each ray's shifted cells
    and entries are those of its walk from ``g`` with no box; its cells in
    the box come first (each axis steps one way only), and they and their
    entries are the walk in the box. A ray leaves the box before its
    parameter exceeds the sum of the box's extents, which bounds the
    template's range (a NaN ``s_max`` walks to that bound, as a walk in
    the box does), so a range far past the box walks no further than the
    box needs."""
    base = [math.floor(v) for v in g]
    f = tuple(v - i for v, i in zip(g, base))
    s_max = min(float(sum(dims)), s_max)
    offsets, entries, ray_of, starts = _fan_template(f, directions, s_max)
    cells = offsets + np.array(base, dtype=np.int32)
    unsigned = cells.view(np.uint32)  # a coordinate below 0 reads as one past any extent
    nx, ny, nz = dims
    inside = (unsigned[:, 0] < nx) & (unsigned[:, 1] < ny) & (unsigned[:, 2] < nz)
    return cells, entries, ray_of, starts, inside, s_max


def _scan_cut(scan: Scan, origin, cell_size: float, dims,
              num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """``scan_updates`` of a ``Scan``, cut from the walks of its fan in the
    box (``_fan_in_box``) where ``_walk_beam(..., to_hit=True)`` cuts each
    beam, in one numpy pass.

    A beam with no hit keeps its cells in the box. A hit beam, at ``s_hit
    = range / cell_size``, keeps those with entry ``<= s_hit``, that is
    below ``nextafter(s_hit, inf)``: the cut walk's cells. That walk finds
    its hit in its last cell unless the ray leaves the box at or before
    ``s_hit``, or ``s_hit`` is not below the template's range (``s_max``,
    or the box's bound past which no ray stays inside); then the beam
    writes its cells in the box as traversed."""
    g = _cell_point(scan.origin, origin, cell_size, dims)
    n = len(scan)
    cells, entries, ray_of, _, inside, s_max = _fan_in_box(
        g, scan.directions, scan.max_range / cell_size, dims)
    ranges = np.array(scan.ranges)
    s_hit = ranges / cell_size
    hits = ranges < scan.max_range
    walked = entries <= np.where(hits, s_hit, math.inf)[ray_of]
    kept = walked & inside
    counts = np.bincount(ray_of.compress(kept), minlength=n)
    found = hits & (s_hit < s_max) & (np.bincount(ray_of.compress(walked), minlength=n) == counts)
    rows = np.zeros(int(counts.sum()), dtype=np.intp)
    (hit_rays,) = np.nonzero(found)
    if len(hit_rays):
        labels = [scan.labels[b] for b in hit_rays.tolist()]
        for y in labels:
            if not 1 <= y <= num_classes:
                raise InvalidClass(f"hit class must be in 1..{num_classes}, got {y}")
        rows[counts.cumsum()[hit_rays] - 1] = labels  # the hit cell is the cut's last
    return cells.compress(kept, axis=0), rows


def walk_fan(center, directions, max_range: float, origin, cell_size: float,
             dims) -> tuple[np.ndarray, list[int]]:
    """The cells of a fan of full-length rays from one ``center`` (a 3-tuple
    of floats) along ``directions`` (a tuple of unit 3-tuples of floats), in
    the box of :func:`cast`: each ray's cells past its sensor cell, in ray
    order, as one (M, 3) int32 array, and each ray's count of them. They
    are the cells after the first that ``cast`` lists for the beam of that
    origin, direction and ``max_range``, byte for byte. The range check
    (``ValueError`` for a negative or NaN range) and the origin check
    (``OriginOutOfBounds``) run first, in the order a beam runs them.

    The walks are not run per fan: they are the memoized walks of the fan
    from the center's sub-cell part, shifted and cut to the box
    (``_fan_in_box``)."""
    if not 0.0 <= max_range:
        raise ValueError("need 0 <= range <= max_range")
    g = _cell_point(center, origin, cell_size, dims)
    cells, _, ray_of, starts, inside, _ = _fan_in_box(g, directions, max_range / cell_size, dims)
    inside[starts] = False  # each ray's sensor cell
    counts = np.bincount(ray_of.compress(inside), minlength=len(directions))
    return cells.compress(inside, axis=0), counts.tolist()


def _rounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Group updates into rounds. ``keys`` holds each update's cell, in
    update order; an update's round is the number of earlier updates to
    its cell. Returns the updates' stable sort by key (``order``, so each
    cell's updates keep update order), the flag of each cell's first
    update in that order, the positions in that order grouped by round
    (stably, so each round keeps key order), and where each round ends."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    positions = np.arange(n)
    rank = positions - np.maximum.accumulate(np.where(first, positions, 0))
    return order, first, np.argsort(rank, kind="stable"), np.bincount(rank).cumsum().tolist()


def _apply_rounds(table: np.ndarray, keys: np.ndarray, rows: np.ndarray, bounds,
                  params: SensorParams, prior: np.ndarray) -> None:
    """Apply a scan's updates in place to ``table``, (K+1)-rows: update u
    is ``clamp(h + (l - h0))`` on row ``keys[u]``, ``l`` the model row
    ``rows[u]`` of ``SensorParams.models`` and ``h0`` the ``prior``. Round
    r ends at ``bounds[r]`` (``_rounds``) and holds each row's r-th update
    at most, as one gather, add, clip and scatter, so every row ends bit
    for bit as one update at a time leaves it. Rounds never grow, and a
    row of round r + 1 is in round r, so from the first round of one row
    on every update left is that row's (in a planar scan, the sensor
    cell's): that tail runs on Python floats (``_clamped_tail``)."""
    steps = params.models - prior
    deltas = steps[rows]
    lo, hi = params.clamp_lo, params.clamp_hi
    a = 0
    for b in bounds:
        if b - a == 1:  # this and every later round hold one row
            key = int(keys[a])
            table[key] = _clamped_tail(table[key].tolist(), steps.tolist(), rows[a:].tolist(),
                                       lo.tolist(), hi.tolist())
            return
        sel = keys[a:b]
        table[sel] = np.minimum(np.maximum(table.take(sel, 0) + deltas[a:b], lo), hi)
        a = b


def _clamped_add(h, delta, lo, hi) -> list[float]:
    """``np.minimum(np.maximum(h + delta, lo), hi)`` on Python floats, bit
    for bit: the adds round alike, and a value equal to a bound takes the
    bound, as ``np.maximum`` and ``np.minimum`` return their second argument
    on ties (which decides the sign of a zero, as at element 0, whose bounds
    are both zero). A NaN passes through both, as in numpy. The float form
    of the cell update, which the one-row tail of a scan's rounds
    (``_clamped_tail``) chains over its updates."""
    row = []
    for v, d, l, u in zip(h, delta, lo, hi):
        v += d
        if v <= l:
            v = l
        if v >= u:
            v = u
        row.append(v)
    return row


def _clamped_tail(h, steps, rows, lo, hi) -> list[float]:
    """``_clamped_add`` of ``steps[r]`` for each index ``r`` of ``rows`` in
    turn, from the row ``h``: the one-row tail of a scan's rounds
    (``_apply_rounds``).
    It stops at the first step that leaves the row bit for bit unchanged
    (``_same_bits``) when every later index is that step's: each of those
    steps adds the same row to the same row, so it would change nothing
    either. Once a cell saturates, that cuts its tail short."""
    last = len(rows) - 1
    run = last  # rows[run:] all name the last step's row
    while run and rows[run - 1] == rows[last]:
        run -= 1
    for i, r in enumerate(rows):
        row = _clamped_add(h, steps[r], lo, hi)
        if i >= run and _same_bits(row, h):
            break
        h = row
    return h


def _same_bits(a, b) -> bool:
    """Whether two rows of floats are equal bit for bit: equal values with
    equal zero signs. A NaN never counts as equal."""
    return all(x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
               for x, y in zip(a, b))


def _box_corners(region, dims) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The low and high corners of a half-open cell box ((lo), (hi)) inside
    ``dims``, or of the whole of ``dims`` for None; ValueError for a box
    that is not inside or not two corners of integers, one per axis. Both
    maps' ``_box`` check their boxes here."""
    if region is None:
        return (0, 0, 0), tuple(dims)
    try:
        lo, hi = region
    except (TypeError, ValueError):
        raise ValueError(f"box {region!r} is not two corners") from None
    lo, hi = _integers(lo, "box corner"), _integers(hi, "box corner")
    if not (len(lo) == len(hi) == len(dims)
            and all(0 <= a <= b <= n for a, b, n in zip(lo, hi, dims))):
        raise ValueError(f"box {region} is not inside the map")
    return lo, hi


def _integers(values, what: str) -> tuple[int, ...]:
    """Integers, such as coordinates or extents, as Python ints (numpy
    integers too, ``operator.index``); ValueError naming ``what`` for one
    that is not an integer."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} {values!r}: not integer values") from None


def _prior_vector(prior, num_classes: int) -> np.ndarray:
    """A map's read-only prior: a float64 copy of ``prior``, so the caller's
    array stays writable and later edits of it miss the map, as a finite
    log-odds vector of length K+1 with a zero pivot, or the uniform prior
    for None. ValueError for such a prior or for K outside
    1..``MAX_CLASSES``, what the map files hold. Both maps' constructors
    take their class count and prior here."""
    if not 1 <= num_classes <= MAX_CLASSES:
        raise ValueError(f"num_classes {num_classes} is not in 1..{MAX_CLASSES}")
    if prior is None:
        prior = logodds.uniform_prior(num_classes)
    prior = np.array(prior, dtype=np.float64)
    if prior.shape != (num_classes + 1,) or prior[0] != 0.0:
        raise ValueError("prior must be a K+1 log-odds vector with zero pivot")
    if not np.isfinite(prior).all():
        raise ValueError(f"prior {prior.tolist()} is not finite")
    prior.flags.writeable = False
    return prior


def _frame(size_name: str, size, origin) -> tuple[float, tuple[float, float, float]]:
    """A map's cell size, named ``size_name`` in messages, as a float and
    its origin as three floats (``point3``); ValueError unless the size is
    finite and positive and the origin finite. Both maps take them here."""
    size = float(size)
    if not (math.isfinite(size) and size > 0.0):
        raise ValueError(f"{size_name} {size!r} is not positive")
    origin = point3(origin)
    if not all(map(math.isfinite, origin)):
        raise ValueError(f"origin {origin} is not finite")
    return size, origin


class GridMap:
    """Regular-grid categorical map over K+1 classes.

    Cells hold float64 log-odds vectors with element 0 pinned to zero; cells
    never written stay at the shared prior and are flagged unobserved.
    ``origin``, the low corner of cell (0, 0, 0), is three floats. The
    extents and K are integers, numpy's too; ValueError otherwise.
    """

    def __init__(
        self,
        dims,
        resolution: float,
        num_classes: int,
        prior: np.ndarray | None = None,
        origin=(0.0, 0.0, 0.0),
    ):
        dims = _integers(dims, "dims")
        if len(dims) == 2:
            dims = dims + (1,)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("dims must be 2 or 3 positive extents")
        self.dims = dims
        self.resolution, self.origin = _frame("resolution", resolution, origin)
        (self.num_classes,) = _integers((num_classes,), "num_classes")
        self.prior = prior = _prior_vector(prior, self.num_classes)
        self.cells = np.tile(prior, dims + (1,)).reshape(dims + (self.num_classes + 1,))
        self.observed = np.zeros(dims, dtype=bool)

    # -- geometry ----------------------------------------------------------

    def cell_center(self, cell) -> tuple[float, float, float]:
        return tuple(o + (c + 0.5) * self.resolution for o, c in zip(self.origin, cell))

    def _box(self, region) -> tuple[slice, slice, slice]:
        """Slices of a half-open cell box ((lo), (hi)) inside the map, or of
        the whole map for None (``_box_corners``)."""
        return tuple(map(slice, *_box_corners(region, self.dims)))

    # -- ray casting -------------------------------------------------------

    def cast_ray(self, beam: BeamMeasurement) -> RayTrace:
        """All cells the beam's full-length ray traverses, in order (see
        :func:`cast`)."""
        return cast(beam, self.origin, self.resolution, self.dims)

    def encode_traces(self, cells: np.ndarray, counts) -> tuple[SrleRay | None, list[int]]:
        """Runs for the run-length kernel over a compact cast (``mi.FanCast``):
        ``cells`` stacks each beam's cells past its sensor cell in beam order,
        ``counts[b]`` of them for beam b. Returns the runs, None when there
        is no cell, and each beam's run count. Every run is one cell (width
        1), on which the kernel performs exactly the per-cell recursion of
        ``mi.beam_mi_dense``."""
        counts = list(counts)
        if not cells.shape[0]:
            return None, counts
        h_t = self.cells[tuple(cells.T)]
        widths = np.ones(h_t.shape[0], dtype=np.int64)
        return SrleRay(widths, h_t, np.broadcast_to(self.prior, h_t.shape)), counts

    # -- updates -----------------------------------------------------------

    def integrate(self, beam: BeamMeasurement, params: SensorParams) -> "GridMap":
        """Fuse one beam: ``insert_scan([beam], params)``. A ray visits every
        cell once, so this is one round of the scan update."""
        return self.insert_scan([beam], params)

    def insert_scan(self, beams: Scan | list[BeamMeasurement],
                    params: SensorParams) -> "GridMap":
        """Fuse a scan's beams in order, a sensed ``Scan`` or a list of
        beams: traversed cells get the free update, each endpoint cell the
        hit update for the observed class, and cells past an endpoint are
        untouched. Every update is ``clamp(h + (l - h0))`` on the cell's
        row, with ``l`` the model row of ``SensorParams.models`` that
        ``scan_updates`` names (cut from the fan's memoized walks for a
        ``Scan``, walked beam by beam for a list).

        The updates run in rounds over the cells (``_rounds``,
        ``_apply_rounds``), so the cells end bit for bit as a beam-by-beam,
        cell-by-cell loop leaves them. A lone beam's updates are one round,
        since a ray visits a cell once. A scan that raises
        (``scan_updates``) leaves the map as it was."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and map disagree on K")
        cells, rows = scan_updates(beams, self.origin, self.resolution, self.dims,
                                   self.num_classes)
        n = len(rows)
        distinct = rounds = 0
        if n:
            _, ny, nz = self.dims
            flat = cells @ (ny * nz, nz, 1)
            if len(beams) > 1:
                order, first, by_round, bounds = _rounds(flat)
                picks = order[by_round]
                flat, rows, distinct = flat[picks], rows[picks], int(np.count_nonzero(first))
            else:  # a ray visits a cell once
                bounds, distinct = [n], n
            rounds = len(bounds)
            # views, unless an array is not C-ordered: then copies, written back
            table = self.cells.reshape(-1, self.num_classes + 1)
            mask = self.observed.reshape(-1)
            _apply_rounds(table, flat, rows, bounds, params, self.prior)
            mask[flat] = True
            if not np.may_share_memory(table, self.cells):
                self.cells[...] = table.reshape(self.cells.shape)
            if not np.may_share_memory(mask, self.observed):
                self.observed[...] = mask.reshape(self.observed.shape)
        log.debug("insert_scan: %d beams, %d cells written, %d distinct, %d rounds",
                  len(beams), n, distinct, rounds)
        return self

    # -- queries -----------------------------------------------------------

    def ray_logodds(self, trace: RayTrace) -> tuple[np.ndarray, np.ndarray]:
        """(current, prior) log-odds stacked per traced cell, shape (N, K+1).
        Planning reads cells through ``encode_traces``; this whole-trace read
        is what the benchmark's 3-D probes (``perfbench/workloads.py``) feed
        to ``mi.beam_mi_dense``."""
        idx = tuple(trace.cells.T)
        h_t = self.cells[idx]
        h_0 = np.broadcast_to(self.prior, h_t.shape)
        return h_t, h_0

    def labels_observed(self, box=None) -> tuple[np.ndarray, np.ndarray]:
        """Most likely class and observed flag of every cell in a half-open
        box ((lo), (hi)) or the whole map; ties resolve to the lowest class
        index."""
        sl = self._box(box)
        return np.argmax(self.cells[sl], axis=-1), self.observed[sl].copy()

    def map_state(self, region=None) -> tuple[float, float]:
        """Total Shannon entropy in nats, and the fraction of cells that a
        beam has written, over a half-open cell box ((lo), (hi)) or the
        whole map; ``(0.0, 0.0)`` for an empty box."""
        sl = self._box(region)
        observed = self.observed[sl]
        if not observed.size:
            return 0.0, 0.0
        h = self.cells[sl].reshape(-1, self.num_classes + 1)
        return logodds.entropy(h), float(np.mean(observed))


# -- serialization ----------------------------------------------------------


def save_grid(gmap: GridMap, path) -> None:
    """Little-endian binary dump: header then row-major f32 log-odds."""
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<H", GRID_VERSION))
        fh.write(struct.pack("<3I", *gmap.dims))
        fh.write(struct.pack("<d", gmap.resolution))
        fh.write(struct.pack("<H", gmap.num_classes))
        fh.write(struct.pack("<3d", *gmap.origin))
        fh.write(gmap.prior.astype("<f4").tobytes())
        fh.write(gmap.cells.astype("<f4").tobytes())
        fh.write(gmap.observed.astype(np.uint8).tobytes())


def _check_header(path, size_name: str, size: float, origin, num_classes: int) -> None:
    """The header checks both map files share (``load_grid`` and
    ``octree.load_octree``): CorruptMap unless the cell or element size,
    read as ``size_name``, is finite and positive, the origin is finite
    (``_frame``) and the class count is in 1..``MAX_CLASSES``."""
    try:
        _frame(size_name, size, origin)
    except ValueError as exc:
        raise CorruptMap(f"{path}: {exc}") from None
    if num_classes < 1:
        raise CorruptMap(f"{path}: no occupied classes")
    if num_classes > MAX_CLASSES:
        raise CorruptMap(f"{path}: {num_classes} classes (at most {MAX_CLASSES})")


GRID_HEADER = struct.Struct("<8sH3IdH3d")  # magic, version, dims, resolution, K, origin


def load_grid(path) -> GridMap:
    """Read a ``save_grid`` file. Raises CorruptMap when the file is not a
    grid map of this version, is truncated, has trailing bytes, holds a
    header the format does not allow (a zero extent, no class or more than
    ``MAX_CLASSES``, a resolution that is not positive, a NaN or infinite
    origin), holds a NaN or infinite log-odds or a pivot other than 0 (or
    -0.0), or an observed mask byte other than 0 and 1."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != GRID_MAGIC:
        raise CorruptMap(f"not a grid map file (magic {buf[:8]!r})")
    if len(buf) < GRID_HEADER.size:
        raise CorruptMap(f"{path}: truncated header ({len(buf)} of {GRID_HEADER.size} bytes)")
    _, version, nx, ny, nz, resolution, num_classes, *origin = GRID_HEADER.unpack_from(buf)
    if version != GRID_VERSION:
        raise CorruptMap(f"{path}: unsupported grid version {version}")
    dims = (nx, ny, nz)
    if min(dims) < 1:
        raise CorruptMap(f"{path}: zero extent in dims {dims}")
    _check_header(path, "resolution", resolution, origin, num_classes)
    width = num_classes + 1
    count = nx * ny * nz
    cells_at = GRID_HEADER.size + 4 * width
    mask_at = cells_at + 4 * count * width
    end = mask_at + count
    for name, stop in (("prior", cells_at), ("cells", mask_at), ("observed mask", end)):
        if stop > len(buf):
            raise CorruptMap(f"{path}: truncated {name} (file ends at byte {len(buf)})")
    if end != len(buf):
        raise CorruptMap(f"{path}: {len(buf) - end} trailing bytes")
    prior = np.frombuffer(buf, "<f4", width, GRID_HEADER.size).astype(np.float64)
    cells = np.frombuffer(buf, "<f4", count * width, cells_at).astype(np.float64)
    for name, values in (("prior", prior), ("cells", cells)):
        if not np.isfinite(values).all():
            raise CorruptMap(f"{path}: non-finite log-odds in the {name}")
        if (values[::width] != 0.0).any():
            raise CorruptMap(f"{path}: a pivot in the {name} is not 0")
    mask = np.frombuffer(buf, np.uint8, count, mask_at)
    if (mask > 1).any():
        raise CorruptMap(f"{path}: observed mask bytes other than 0 and 1")
    prior[0] = 0.0  # a -0.0 pivot reads as 0.0
    gmap = GridMap(dims, resolution, num_classes, prior, origin)
    gmap.cells = cells.reshape(dims + (width,))
    gmap.cells[..., 0] = 0.0
    gmap.observed = mask.astype(bool).reshape(dims)
    return gmap
