"""Dense multi-class occupancy grid with ray casting and beam integration.

Maps are always stored as 3-D arrays; a 2-D map is a 3-D map of depth one so
every downstream consumer (information evaluation, octrees, planning) sees a
single code path. Both maps take a scan's cell updates, in scan order, from
one walk (``scan_updates``). The cell update ``clamp(h + (l - h0))`` runs
here on numpy rows, in rounds of one gather, add, clip and scatter over
distinct cells in ``GridMap.insert_scan``; the octree runs the same
arithmetic on Python floats in ``octree.element_update``. A4 and the
float-vs-numpy hypothesis test in ``tests/test_octree.py`` pin the two forms
equal bit for bit, so both maps agree under the same observations.
"""

from __future__ import annotations

import bisect
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import CorruptMap, InvalidClass, OriginOutOfBounds
from .logodds import MAX_CLASSES, SensorParams

GRID_MAGIC = b"SSMIGRID"
GRID_VERSION = 1

log = logging.getLogger(__name__)


def unit_direction(d: list[float]) -> list[float]:
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
            return [x / norm, y / norm, z / norm]
    return d


@dataclass(frozen=True)
class BeamMeasurement:
    """One range-category return along a ray from ``origin``.

    ``category`` is the observed class in 1..K for a genuine hit and None
    when the beam reached ``max_range`` without hitting anything.
    """

    origin: np.ndarray
    direction: np.ndarray
    range: float
    category: int | None
    max_range: float

    def __post_init__(self):
        origin = np.ascontiguousarray(self.origin, dtype=np.float64)
        direction = np.ascontiguousarray(self.direction, dtype=np.float64)
        if origin.shape != (3,) or direction.shape != (3,):
            raise ValueError("origin and direction must be 3-vectors")
        d = direction.tolist()
        unit = unit_direction(d)
        if unit is not d:
            direction = np.array(unit)
        origin.flags.writeable = False
        direction.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction)
        if not 0.0 <= self.range <= self.max_range:
            raise ValueError("need 0 <= range <= max_range")
        if self.hits and (self.category is None or self.category < 1):
            raise InvalidClass("a hit beam must carry a class id >= 1")

    @property
    def hits(self) -> bool:
        return self.range < self.max_range

    @classmethod
    def planar(
        cls,
        xy: tuple[float, float],
        angle: float,
        rng: float,
        category: int | None,
        max_range: float,
        z: float = 0.5,
    ) -> "BeamMeasurement":
        """Beam in the z-plane of a depth-one map (z defaults to the cell center)."""
        return cls(
            origin=np.array([xy[0], xy[1], z]),
            direction=np.array([np.cos(angle), np.sin(angle), 0.0]),
            range=rng,
            category=category,
            max_range=max_range,
        )


@dataclass(frozen=True)
class RayTrace:
    """Ordered cells a beam traverses up to max range.

    ``cells`` is (M, 3) integer cell coordinates; ``hit_index`` is the
    position of the cell containing the beam endpoint, absent when the beam
    reached max range or exited the map. ``entries`` holds the M + 1 ray
    parameters, in cells, at which the beam enters each traced cell and
    finally stops (at max range or at the map boundary). ``chords``, the
    in-cell path lengths in meters, cancel out of every information formula
    and are derived on demand for inspection only.
    """

    cells: np.ndarray
    hit_index: int | None
    entries: list[float]
    cell_size: float

    def __len__(self) -> int:
        return self.cells.shape[0]

    @property
    def chords(self) -> np.ndarray:
        return np.diff(self.entries) * self.cell_size


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
    """
    gx, gy, gz = g
    dx, dy, dz = d
    nx, ny, nz = dims
    i, j, k = math.floor(gx), math.floor(gy), math.floor(gz)
    # per axis: step, parameter of the next boundary, parameter per cell, and
    # the coordinate at which the walk has left the box (None: never steps)
    inf = math.inf
    if dx > 0.0:
        si, ti, di, ei = 1, (i + 1.0 - gx) / dx, 1.0 / dx, nx
    elif dx < 0.0:
        si, ti, di, ei = -1, (i - gx) / dx, -1.0 / dx, -1
    else:
        si, ti, di, ei = 0, inf, inf, None
    if dy > 0.0:
        sj, tj, dj, ej = 1, (j + 1.0 - gy) / dy, 1.0 / dy, ny
    elif dy < 0.0:
        sj, tj, dj, ej = -1, (j - gy) / dy, -1.0 / dy, -1
    else:
        sj, tj, dj, ej = 0, inf, inf, None
    if dz > 0.0:
        sk, tk, dk, ek = 1, (k + 1.0 - gz) / dz, 1.0 / dz, nz
    elif dz < 0.0:
        sk, tk, dk, ek = -1, (k - gz) / dz, -1.0 / dz, -1
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
        raise OriginOutOfBounds(f"beam origin {np.array(point)} outside the map")
    return g


def _walk_beam(beam: BeamMeasurement, origin, cell_size: float,
               dims) -> tuple[list[int], list[float], int | None]:
    """The voxel walk of ``beam`` through the box of :func:`cast`: its flat
    cell coordinates and entry parameters (``voxel_walk``), and the index
    of the cell holding the beam endpoint, None when the beam reached max
    range or its endpoint lies past the walk."""
    g = _cell_point(beam.origin.tolist(), origin, cell_size, dims)
    coords, entries = voxel_walk(g, beam.direction.tolist(), beam.max_range / cell_size, dims)
    hit_index = None
    if beam.hits:
        s_hit = beam.range / cell_size
        if s_hit < entries[-1]:
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
    coords, entries, hit_index = _walk_beam(beam, origin, cell_size, dims)
    cells = np.array(coords, dtype=np.int64).reshape(-1, 3)
    return RayTrace(cells=cells, hit_index=hit_index, entries=entries, cell_size=cell_size)


def scan_updates(beams, origin, cell_size: float, dims,
                 num_classes: int) -> tuple[list[int], list[int]]:
    """Every cell update of a scan, in scan order: the updated cells as one
    flat coordinate list (i0, j0, k0, i1, ...) and each update's model row
    (``SensorParams.models``), 0 for a traversed cell and y for the hit
    cell of a class-y return. Per beam these are the cells :func:`cast`
    lists up to its hit index, from the same walk, so both maps'
    ``insert_scan`` write what a beam-by-beam loop over ``cast_ray`` wrote.

    Every beam is walked and checked before this returns, so a scan with an
    origin outside the box (OriginOutOfBounds) or a hit class outside
    1..``num_classes`` (InvalidClass) raises before its caller writes."""
    coords: list[int] = []
    rows: list[int] = []
    for beam in beams:
        walk, entries, hit_index = _walk_beam(beam, origin, cell_size, dims)
        if hit_index is None:
            coords += walk
            rows += [0] * (len(entries) - 1)
            continue
        y = beam.category
        if not 1 <= y <= num_classes:
            raise InvalidClass(f"hit class must be in 1..{num_classes}, got {y}")
        coords += walk[: 3 * hit_index + 3]
        rows += [0] * hit_index
        rows.append(y)
    return coords, rows


def walk_fan(center, directions, max_range: float, origin, cell_size: float,
             dims) -> tuple[list[int], list[int]]:
    """The cells of a fan of full-length rays from one ``center`` (three
    floats) along ``directions`` (unit 3-vectors of floats), in the box of
    :func:`cast`: each ray's cells past its sensor cell, in ray order, as
    one flat coordinate list (i0, j0, k0, i1, ...), and each ray's count of
    them. They are the cells after the first that ``cast`` lists for the
    beam of that origin, direction and ``max_range``: the same origin check
    and ``voxel_walk`` on the same floats. No entries, hit index or array
    are built, since planning reads cells only."""
    g = _cell_point(center, origin, cell_size, dims)
    s_max = max_range / cell_size
    coords: list[int] = []
    counts: list[int] = []
    for d in directions:
        cells = voxel_walk(g, d, s_max, dims)[0]
        coords += cells[3:]
        counts.append(len(cells) // 3 - 1)
    return coords, counts


def _rounds(keys: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    """Group updates into rounds. ``keys`` holds each update's cell, in
    update order; an update's round is the number of earlier updates to
    its cell. Returns the update indices ordered by round (stably, so each
    round keeps update order), where each round ends in that order, and
    the number of distinct cells."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    positions = np.arange(n)
    rank = positions - np.maximum.accumulate(np.where(first, positions, 0))
    picks = order[np.argsort(rank, kind="stable")]
    return picks, np.bincount(rank).cumsum().tolist(), int(np.count_nonzero(first))


class GridMap:
    """Regular-grid categorical map over K+1 classes.

    Cells hold float64 log-odds vectors with element 0 pinned to zero; cells
    never written stay at the shared prior and are flagged unobserved.
    """

    def __init__(
        self,
        dims,
        resolution: float,
        num_classes: int,
        prior: np.ndarray | None = None,
        origin=(0.0, 0.0, 0.0),
    ):
        dims = tuple(int(d) for d in dims)
        if len(dims) == 2:
            dims = dims + (1,)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("dims must be 2 or 3 positive extents")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.dims = dims
        self.resolution = float(resolution)
        self.num_classes = int(num_classes)
        self.origin = np.asarray(origin, dtype=np.float64)
        if prior is None:
            prior = logodds.uniform_prior(num_classes)
        prior = np.ascontiguousarray(prior, dtype=np.float64)
        if prior.shape != (num_classes + 1,) or prior[0] != 0.0:
            raise ValueError("prior must be a valid log-odds vector of length K+1")
        prior.flags.writeable = False
        self.prior = prior
        self.cells = np.tile(prior, dims + (1,)).reshape(dims + (num_classes + 1,))
        self.observed = np.zeros(dims, dtype=bool)

    # -- geometry ----------------------------------------------------------

    def cell_center(self, cell) -> np.ndarray:
        return self.origin + (np.asarray(cell, dtype=np.float64) + 0.5) * self.resolution

    def _box(self, region) -> tuple[slice, slice, slice]:
        """Slices of a half-open cell box ((lo), (hi)) inside the map, or of
        the whole map for None."""
        if region is None:
            return (slice(None),) * 3
        if not all(0 <= lo <= hi <= n for lo, hi, n in zip(region[0], region[1], self.dims)):
            raise ValueError(f"box {region} is not inside the map")
        return tuple(slice(lo, hi) for lo, hi in zip(region[0], region[1]))

    # -- ray casting -------------------------------------------------------

    def cast_ray(self, beam: BeamMeasurement) -> RayTrace:
        """All cells the beam's full-length ray traverses, in order (see
        :func:`cast`)."""
        return cast(beam, self.origin.tolist(), self.resolution, self.dims)

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

    def insert_scan(self, beams: list[BeamMeasurement], params: SensorParams) -> "GridMap":
        """Fuse a scan's beams in order: traversed cells get the free update,
        each endpoint cell the hit update for the observed class, and cells
        past an endpoint are untouched. Every update is
        ``clamp(h + (l - h0))`` on the cell's row, with ``l`` the model row
        of ``SensorParams.models`` that ``scan_updates`` names.

        The updates run in rounds: round r applies every cell's r-th update
        of the scan as one gather, add, clip and scatter. A cell occurs at
        most once per round and meets its updates in scan order, so the
        cells end bit for bit as a beam-by-beam, cell-by-cell loop leaves
        them. A beam that raises (``scan_updates``) leaves the map as it
        was."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and map disagree on K")
        coords, rows = scan_updates(beams, self.origin.tolist(), self.resolution, self.dims,
                                    self.num_classes)
        n = len(rows)
        distinct = rounds = 0
        if n:
            _, ny, nz = self.dims
            flat = np.array(coords, dtype=np.intp).reshape(-1, 3) @ (ny * nz, nz, 1)
            deltas = (params.models - self.prior)[rows]
            if len(beams) > 1:
                picks, bounds, distinct = _rounds(flat)
                flat, deltas = flat[picks], deltas[picks]
            else:  # a ray visits a cell once
                bounds, distinct = [n], n
            rounds = len(bounds)
            lo, hi = params.clamp_lo, params.clamp_hi
            # views, unless an array is not C-ordered: then copies, written back
            table = self.cells.reshape(-1, self.num_classes + 1)
            mask = self.observed.reshape(-1)
            a = 0
            for b in bounds:
                sel = flat[a:b]
                table[sel] = np.minimum(np.maximum(table.take(sel, 0) + deltas[a:b], lo), hi)
                a = b
            mask[flat] = True
            if not np.may_share_memory(table, self.cells):
                self.cells[...] = table.reshape(self.cells.shape)
            if not np.may_share_memory(mask, self.observed):
                self.observed[...] = mask.reshape(self.observed.shape)
        log.debug("insert_scan: %d beams, %d cells written, %d distinct, %d rounds",
                  len(beams), n, distinct, rounds)
        return self

    def set_cell(self, cell, h: np.ndarray, observed: bool = True) -> None:
        """Write a cell belief directly (scene construction and tests)."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.num_classes + 1,) or h[0] != 0.0:
            raise ValueError("cell log-odds must have length K+1 with zero pivot")
        self.cells[tuple(cell)] = h
        self.observed[tuple(cell)] = observed

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

    def most_likely(self) -> np.ndarray:
        """Per-cell argmax class; ties resolve to the lowest class index."""
        return np.argmax(self.cells, axis=-1)

    def labels_observed(self, box) -> tuple[np.ndarray, np.ndarray]:
        """Most likely class and observed flag of every cell in a half-open
        box ((lo), (hi)); ties resolve to the lowest class index."""
        sl = self._box(box)
        return np.argmax(self.cells[sl], axis=-1), self.observed[sl].copy()

    def map_entropy(self, region=None) -> float:
        """Total Shannon entropy in nats over a half-open cell box
        ((lo), (hi)) or the whole map; an empty box contributes zero."""
        h = self.cells[self._box(region)].reshape(-1, self.num_classes + 1)
        return logodds.entropy(h) if h.size else 0.0

    def observed_fraction(self, region=None) -> float:
        """Fraction of cells in a half-open box (or the whole map) that a
        beam has written."""
        observed = self.observed[self._box(region)]
        return float(np.mean(observed)) if observed.size else 0.0

    def map_state(self, region=None) -> tuple[float, float]:
        """``(map_entropy(region), observed_fraction(region))``."""
        return self.map_entropy(region), self.observed_fraction(region)

    def copy(self) -> "GridMap":
        out = GridMap(self.dims, self.resolution, self.num_classes, self.prior, self.origin)
        out.cells = self.cells.copy()
        out.observed = self.observed.copy()
        return out


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


GRID_HEADER = struct.Struct("<8sH3IdH3d")  # magic, version, dims, resolution, K, origin


def load_grid(path) -> GridMap:
    """Read a ``save_grid`` file. Raises CorruptMap when the file is not a
    grid map of this version, is truncated, has trailing bytes, holds a
    header the format does not allow (a zero extent, no class or more than
    ``MAX_CLASSES``, a resolution that is not positive, a NaN or infinite
    origin), or holds a NaN or infinite log-odds."""
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
    if num_classes < 1:
        raise CorruptMap(f"{path}: no occupied classes")
    if num_classes > MAX_CLASSES:
        raise CorruptMap(f"{path}: {num_classes} classes (at most {MAX_CLASSES})")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise CorruptMap(f"{path}: resolution {resolution!r} is not positive")
    if not all(math.isfinite(o) for o in origin):
        raise CorruptMap(f"{path}: origin {origin} is not finite")
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
    prior[0] = 0.0
    gmap = GridMap(dims, resolution, num_classes, prior, origin)
    gmap.cells = cells.reshape(dims + (width,))
    gmap.cells[..., 0] = 0.0
    gmap.observed = np.frombuffer(buf, np.uint8, count, mask_at).astype(bool).reshape(dims)
    return gmap
