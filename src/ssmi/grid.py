"""Dense multi-class occupancy grid with ray casting and beam integration.

Maps are always stored as 3-D arrays; a 2-D map is a 3-D map of depth one so
every downstream consumer (information evaluation, octrees, planning) sees a
single code path. The cell update ``clamp(h + (l - h0))`` runs here on numpy
rows, one indexed write per beam in ``GridMap.integrate``; the octree runs
the same arithmetic on Python floats in ``octree.element_update``. A4 and
the float-vs-numpy hypothesis test in ``tests/test_octree.py`` pin the two
forms equal bit for bit, so both maps agree under the same observations.
"""

from __future__ import annotations

import bisect
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import CorruptMap, IndexOutOfRange, InvalidClass, OriginOutOfBounds
from .logodds import SensorParams

GRID_MAGIC = b"SSMIGRID"
GRID_VERSION = 1


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
        # |x.x - 1| <= 1e-10 implies |norm - 1| < 1e-9, so the exact norm is
        # only needed outside that margin
        x, y, z = direction.tolist()
        if abs(x * x + y * y + z * z - 1.0) > 1e-10:
            norm = float(np.linalg.norm(direction))
            if abs(norm - 1.0) > 1e-9:
                if norm == 0.0:
                    raise ValueError("direction must be nonzero")
                direction = direction / norm
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


def cast(beam: BeamMeasurement, origin, cell_size: float, dims) -> RayTrace:
    """Trace ``beam`` through the box of ``dims`` cells of edge ``cell_size``
    whose low corner sits at ``origin`` (three floats); the one caster behind
    ``cast_ray`` on both maps, ``GridMap`` and ``SemanticOctree``.

    Cells beyond the hit cell are still listed (the information formulas
    need the full sequence to max range); the trace is truncated where the
    ray leaves the box, which counts as reaching max range.
    """
    g = [(p - q) / cell_size for p, q in zip(beam.origin.tolist(), origin)]
    if not all(0.0 <= v < n for v, n in zip(g, dims)):
        raise OriginOutOfBounds(f"beam origin {beam.origin} outside the map")
    coords, entries = voxel_walk(g, beam.direction.tolist(), beam.max_range / cell_size, dims)
    hit_index = None
    if beam.hits:
        s_hit = beam.range / cell_size
        if s_hit < entries[-1]:
            hit_index = bisect.bisect_right(entries, s_hit, 1) - 1
    cells = np.array(coords, dtype=np.int64).reshape(-1, 3)
    return RayTrace(cells=cells, hit_index=hit_index, entries=entries, cell_size=cell_size)


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

    def encode_traces(self, traces: list[RayTrace]) -> tuple[SrleRay | None, list[int]]:
        """The cells past each trace's sensor cell as runs for the run-length
        kernel, stacked in trace order, and each trace's run count; the runs
        are None when no trace has such a cell. Every run is one cell (width
        1), on which the kernel performs exactly the per-cell recursion of
        ``mi.beam_mi_dense``."""
        counts = [len(trace) - 1 for trace in traces]
        if not any(counts):
            return None, counts
        h_t = self.cells[tuple(np.concatenate([trace.cells[1:] for trace in traces]).T)]
        widths = np.ones(h_t.shape[0], dtype=np.int64)
        return SrleRay(widths, h_t, np.broadcast_to(self.prior, h_t.shape)), counts

    # -- updates -----------------------------------------------------------

    def integrate(self, beam: BeamMeasurement, params: SensorParams) -> "GridMap":
        """Fuse one beam: traversed cells get the free update, the endpoint
        cell gets the hit update for the observed class, and everything past
        the endpoint is untouched. Each is one indexed write of
        ``clamp(h + (l - h0))`` over the rows of its cells, which equals a
        cell-by-cell loop because a ray visits every cell once."""
        if params.num_classes != self.num_classes:
            raise ValueError("sensor parameters and map disagree on K")
        trace = self.cast_ray(beam)
        end = trace.hit_index if trace.hit_index is not None else len(trace)
        free = tuple(trace.cells[:end].T)
        self.cells[free] = logodds.clamp(self.cells[free] + (params.phi_minus - self.prior), params)
        self.observed[free] = True
        if trace.hit_index is not None:
            hit = tuple(trace.cells[end])
            l = params.hit_logodds(beam.category)
            self.cells[hit] = logodds.clamp(self.cells[hit] + (l - self.prior), params)
            self.observed[hit] = True
        return self

    def insert_scan(self, beams: list[BeamMeasurement], params: SensorParams) -> "GridMap":
        """Integrate a scan's beams in order."""
        for beam in beams:
            self.integrate(beam, params)
        return self

    def set_cell(self, cell, h: np.ndarray, observed: bool = True) -> None:
        """Write a cell belief directly (scene construction and tests)."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.num_classes + 1,) or h[0] != 0.0:
            raise ValueError("cell log-odds must have length K+1 with zero pivot")
        self.cells[tuple(cell)] = h
        self.observed[tuple(cell)] = observed

    # -- queries -----------------------------------------------------------

    def beam_likelihood(self, trace: RayTrace, n: int, y: int) -> float:
        """Probability that the n-th traced cell (1-based) is the hit cell
        with class y while every earlier cell is free."""
        if not 1 <= n <= len(trace):
            raise IndexOutOfRange(f"n must be in 1..{len(trace)}")
        if not 1 <= y <= self.num_classes:
            raise InvalidClass(f"class must be in 1..{self.num_classes}")
        idx = tuple(trace.cells[:n].T)
        pmfs = logodds.softmax_pmf(self.cells[idx])
        return float(pmfs[-1, y] * np.prod(pmfs[:-1, 0]))

    def ray_logodds(self, trace: RayTrace) -> tuple[np.ndarray, np.ndarray]:
        """(current, prior) log-odds stacked per traced cell, shape (N, K+1)."""
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
    grid map of this version, is truncated, has trailing bytes, or holds a
    header the format does not allow."""
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
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise CorruptMap(f"{path}: resolution {resolution!r} is not positive")
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
    prior[0] = 0.0
    gmap = GridMap(dims, resolution, num_classes, prior, origin)
    cells = np.frombuffer(buf, "<f4", count * width, cells_at).astype(np.float64)
    gmap.cells = cells.reshape(dims + (width,))
    gmap.cells[..., 0] = 0.0
    gmap.observed = np.frombuffer(buf, np.uint8, count, mask_at).astype(bool).reshape(dims)
    return gmap


def grid_to_text(gmap: GridMap) -> str:
    """Lossless text form (hex floats); intended for small maps in tests."""
    out = io.StringIO()
    out.write(f"ssmigrid-text dims={gmap.dims[0]},{gmap.dims[1]},{gmap.dims[2]} ")
    out.write(f"resolution={gmap.resolution.hex()} K={gmap.num_classes} ")
    out.write("origin=" + ",".join(v.hex() for v in gmap.origin) + "\n")
    out.write("prior " + " ".join(v.hex() for v in gmap.prior) + "\n")
    for i in range(gmap.dims[0]):
        for j in range(gmap.dims[1]):
            for k in range(gmap.dims[2]):
                flag = "1" if gmap.observed[i, j, k] else "0"
                vals = " ".join(v.hex() for v in gmap.cells[i, j, k])
                out.write(f"{i} {j} {k} {flag} {vals}\n")
    return out.getvalue()


def grid_from_text(text: str) -> GridMap:
    lines = text.strip().splitlines()
    head = dict(part.split("=", 1) for part in lines[0].split()[1:])
    dims = tuple(int(v) for v in head["dims"].split(","))
    resolution = float.fromhex(head["resolution"])
    num_classes = int(head["K"])
    origin = [float.fromhex(v) for v in head["origin"].split(",")]
    prior = np.array([float.fromhex(v) for v in lines[1].split()[1:]])
    gmap = GridMap(dims, resolution, num_classes, prior, origin)
    for line in lines[2:]:
        parts = line.split()
        i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        gmap.observed[i, j, k] = parts[3] == "1"
        gmap.cells[i, j, k] = [float.fromhex(v) for v in parts[4:]]
    return gmap
