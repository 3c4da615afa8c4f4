"""Dense grid map: ray casting against a geometric reference, integration,
beam event probabilities, entropy, and serialization."""

import logging
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmi import logodds as lo
from conftest import integrate_reference, sense_reference
from ssmi.errors import CorruptMap, InvalidClass, OriginOutOfBounds
from ssmi.grid import (
    BeamMeasurement,
    GridMap,
    cast,
    load_grid,
    save_grid,
    unit_direction,
)
from ssmi.logodds import SensorParams
from ssmi.mi import beam_mi_dense
from ssmi.octree import SemanticOctree, save_octree
from ssmi.sim import SensorSpec, generate_env, sense, srle_study

LN3 = math.log(3.0)


def clip_trace_reference(origin, direction, length, dims, resolution):
    """Cells whose open box the segment crosses with positive chord, ordered
    by entry parameter. Independent slab-clipping reference for the caster."""
    hits = []
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                t_lo, t_hi = 0.0, length
                ok = True
                for axis, c in enumerate((i, j, k)):
                    lo_w = c * resolution
                    hi_w = (c + 1) * resolution
                    o, d = origin[axis], direction[axis]
                    if d == 0.0:
                        if not (lo_w <= o < hi_w):
                            ok = False
                            break
                        continue
                    t0 = (lo_w - o) / d
                    t1 = (hi_w - o) / d
                    if t0 > t1:
                        t0, t1 = t1, t0
                    t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
                if ok and t_hi - t_lo > 0.0:
                    hits.append((t_lo, (i, j, k)))
    hits.sort()
    return [c for _, c in hits]


def traverse_reference(origin_g, direction, s_max, dims):
    """Numpy parametric voxel walk in grid units: the loop the scalar caster
    replaced, kept as its bit-for-bit reference. Tied axes step together."""
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
        t_next = np.where(advance, t_next + t_delta, t_next)
        t = t_exit
        if np.any(cell < 0) or np.any(cell >= dims):
            entries.append(t)  # close the last interval at the boundary
            break
    return cells, entries


def cast_reference(beam, origin, cell_size, dims):
    """(cells, entries, hit_index) the way the numpy-walk caster computed them."""
    g = (beam.origin - np.asarray(origin, dtype=np.float64)) / cell_size
    cells, entries = traverse_reference(g, beam.direction, beam.max_range / cell_size,
                                        np.array(dims))
    hit_index = None
    if beam.hits:
        s_hit = beam.range / cell_size
        if s_hit < entries[-1]:
            hit_index = int(np.searchsorted(np.asarray(entries[1:]), s_hit, side="right"))
    return [tuple(int(v) for v in c) for c in cells], entries, hit_index


def first_hit_reference(env, origin, direction, max_range):
    """First non-free ground-truth cell along a ray, via the reference walk."""
    cells, entries = traverse_reference(np.asarray(origin) / env.resolution, direction,
                                        max_range / env.resolution, np.array(env.dims))
    for idx, c in enumerate(cells):
        cls = env.grid[tuple(c)]
        if cls != 0:
            return entries[idx] * env.resolution, int(cls)
    return None


def planar_beam(gmap, xy, angle, rng, max_range):
    return BeamMeasurement.planar(xy, angle, rng, None if rng >= max_range else 1, max_range)


# -- casting -------------------------------------------------------------------


def test_axis_aligned_five_cells():
    gmap = GridMap((8, 8), 1.0, 1)
    # from the low cell face, a 5 m beam covers exactly 5 unit cells
    beam = planar_beam(gmap, (0.0, 3.5), 0.0, 5.0, 5.0)
    trace = gmap.cast_ray(beam)
    np.testing.assert_array_equal(trace.cells[:, 0], [0, 1, 2, 3, 4])
    np.testing.assert_array_equal(trace.cells[:, 1], 3)
    assert trace.hit_index is None


def test_diagonal_corner_to_corner_is_three_cells():
    gmap = GridMap((3, 3), 1.0, 1)
    d = 1.0 / math.sqrt(2.0)
    beam = BeamMeasurement(
        origin=np.array([0.5, 0.5, 0.5]),
        direction=np.array([d, d, 0.0]),
        range=2.0 * math.sqrt(2.0),
        category=None,
        max_range=2.0 * math.sqrt(2.0),
    )
    trace = gmap.cast_ray(beam)
    np.testing.assert_array_equal(trace.cells[:, :2], [[0, 0], [1, 1], [2, 2]])


@pytest.mark.parametrize("octant", range(8))
def test_cast_matches_clip_reference_all_octants(octant, rng):
    gmap = GridMap((9, 9), 0.5, 1)
    sx = 1.0 if octant & 1 else -1.0
    sy = 1.0 if octant & 2 else -1.0
    swap = bool(octant & 4)
    for _ in range(40):
        origin = np.array([rng.uniform(1.0, 3.5), rng.uniform(1.0, 3.5), 0.25])
        ang = rng.uniform(0.05, math.pi / 2 - 0.05)
        dx, dy = math.cos(ang), math.sin(ang)
        if swap:
            dx, dy = dy, dx
        direction = np.array([sx * dx, sy * dy, 0.0])
        length = rng.uniform(0.5, 6.0)
        beam = BeamMeasurement(origin, direction, length, None, length)
        got = [tuple(c) for c in gmap.cast_ray(beam).cells]
        want = clip_trace_reference(origin, direction, length, gmap.dims, gmap.resolution)
        assert got == want


def test_hit_index_present_iff_hit():
    gmap = GridMap((8, 8), 1.0, 2)
    hit = BeamMeasurement.planar((0.5, 0.5), 0.0, 3.2, 2, 6.0)
    t = gmap.cast_ray(hit)
    assert t.hit_index is not None
    assert tuple(t.cells[t.hit_index][:2]) == (3, 0)
    missed = BeamMeasurement.planar((0.5, 0.5), 0.0, 6.0, None, 6.0)
    assert gmap.cast_ray(missed).hit_index is None


def test_trace_geometry_independent_of_return():
    gmap = GridMap((10, 10), 1.0, 1)
    short = BeamMeasurement.planar((1.5, 2.5), 0.7, 3.0, 1, 8.0)
    full = BeamMeasurement.planar((1.5, 2.5), 0.7, 8.0, None, 8.0)
    np.testing.assert_array_equal(gmap.cast_ray(short).cells, gmap.cast_ray(full).cells)


def test_origin_out_of_bounds():
    gmap = GridMap((4, 4), 1.0, 1)
    beam = BeamMeasurement.planar((-1.0, 0.5), 0.0, 1.0, 1, 2.0)
    with pytest.raises(OriginOutOfBounds):
        gmap.cast_ray(beam)


def test_boundary_exit_truncates_without_hit():
    gmap = GridMap((4, 4), 1.0, 1)
    # endpoint far outside the map: truncation counts as max range reached
    beam = BeamMeasurement.planar((3.5, 3.5), 0.0, 7.9, 1, 8.0)
    trace = gmap.cast_ray(beam)
    assert trace.hit_index is None
    assert np.all(trace.cells[:, 0] <= 3)


def test_chords_sum_to_in_map_length():
    gmap = GridMap((16, 16), 0.5, 1)
    beam = BeamMeasurement.planar((1.1, 1.7), 0.4, 4.0, None, 4.0, z=0.25)
    trace = gmap.cast_ray(beam)
    assert trace.chords.sum() == pytest.approx(4.0, abs=1e-9)


# -- edge geometry: the scalar caster against the numpy reference --------------

DIMS = st.one_of(
    st.just((32, 32, 32)),
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(1)),  # depth one
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
)


@st.composite
def origin_coord(draw, n):
    """One origin coordinate in cells: on a cell face (several such axes make
    an edge or a corner), at a cell centre, or anywhere."""
    kind = draw(st.sampled_from(("face", "centre", "any")))
    if kind == "face":
        return float(draw(st.integers(0, n - 1)))
    if kind == "centre":
        return draw(st.integers(0, n - 1)) + 0.5
    return draw(st.floats(0.0, float(n), exclude_max=True))


@st.composite
def direction(draw, dims):
    """Axis-parallel, exact 45-degree diagonals (components in {-1, 0, 1}),
    or generic with some components forced to zero."""
    kind = draw(st.sampled_from(("lattice", "generic")))
    if kind == "lattice":
        comps = draw(st.tuples(*[st.sampled_from((-1.0, 0.0, 1.0))] * 3))
    else:
        comps = draw(st.tuples(*[st.one_of(st.just(0.0), st.floats(-1.0, 1.0))] * 3))
    if dims[2] == 1 and draw(st.booleans()):
        comps = (comps[0], comps[1], 0.0)  # planar beam in a depth-one map
    norm = math.sqrt(sum(c * c for c in comps))
    assume(norm > 1e-3)
    return tuple(c / norm for c in comps)


@st.composite
def edge_rays(draw):
    dims = draw(DIMS)
    cell_size = draw(st.sampled_from((1.0, 0.25, 0.3)))
    map_origin = draw(st.sampled_from(((0.0, 0.0, 0.0), (-1.5, 2.0, 0.75))))
    g = [draw(origin_coord(n)) for n in dims]
    origin = np.array([o + v * cell_size for o, v in zip(map_origin, g)])
    d = np.array(draw(direction(dims)))
    # up to well past the far corner, so many rays leave the map before s_max
    max_range = draw(st.floats(0.0, 2.0 * math.hypot(*dims))) * cell_size
    rng = draw(st.floats(0.0, max_range))
    beam = BeamMeasurement(origin, d, rng, 1 if rng < max_range else None, max_range)
    return beam, map_origin, cell_size, dims


@given(edge_rays())
@settings(max_examples=1500, deadline=None)
def test_cast_equals_numpy_reference_on_edge_geometry(case):
    beam, map_origin, cell_size, dims = case
    g = (beam.origin - np.asarray(map_origin)) / cell_size
    if np.any(g < 0.0) or np.any(g >= np.array(dims, dtype=np.float64)):
        with pytest.raises(OriginOutOfBounds):
            cast(beam, map_origin, cell_size, dims)
        return
    want_cells, want_entries, want_hit = cast_reference(beam, map_origin, cell_size, dims)
    trace = cast(beam, map_origin, cell_size, dims)
    assert [tuple(c) for c in trace.cells.tolist()] == want_cells
    assert trace.entries == want_entries
    assert trace.hit_index == want_hit
    assert trace.cells.dtype == np.int64
    assert np.array_equal(trace.chords, np.diff(want_entries) * cell_size)


def test_exact_corner_crossings_skip_zero_chord_neighbours():
    # a 3-D diagonal from a cell corner passes only through corners: one
    # cell per unit step, never the face or edge neighbours
    d = 1.0 / math.sqrt(3.0)
    beam = BeamMeasurement(np.zeros(3), np.array([d, d, d]), 10.0, None, 10.0)
    trace = cast(beam, (0.0, 0.0, 0.0), 1.0, (4, 4, 4))
    assert trace.cells.tolist() == [[n, n, n] for n in range(4)]
    # the ray leaves the map at the far corner, before max range
    assert trace.entries[-1] == pytest.approx(4.0 * math.sqrt(3.0))
    assert trace.entries[-1] < 10.0
    assert trace.hit_index is None


def test_octree_and_grid_cast_same_geometry(rng):
    gmap = GridMap((8, 8, 8), 0.5, 3, origin=(1.0, -1.0, 0.0))
    tree = SemanticOctree(0.5, 3, 3, origin=(1.0, -1.0, 0.0))
    for _ in range(200):
        origin = np.array([1.0, -1.0, 0.0]) + rng.uniform(0.0, 4.0, 3)
        d = rng.normal(size=3)
        r_max = float(rng.uniform(0.1, 8.0))
        beam = BeamMeasurement(origin, d / np.linalg.norm(d), r_max / 2, 1, r_max)
        a, b = gmap.cast_ray(beam), tree.cast_ray(beam)
        np.testing.assert_array_equal(a.cells, b.cells)
        assert a.entries == b.entries
        assert a.hit_index == b.hit_index


def test_sense_ranges_match_reference_walk():
    env = generate_env(7, "random", (32, 32), 3)
    spec = SensorSpec(num_beams=48, fov=2.0 * math.pi, r_max=12.0, range_sigma=0.0,
                      misclass_prob=0.0)
    rng = np.random.default_rng(0)
    hits = 0
    for spawn in env.spawns[:4]:
        position = (np.asarray(spawn, dtype=np.float64) + 0.5) * env.resolution
        for heading in (0.0, 0.3):
            for beam in sense(env, position, heading, spec, rng):
                want = first_hit_reference(env, position, beam.direction, spec.r_max)
                if want is None:
                    assert (beam.range, beam.category) == (spec.r_max, None)
                else:
                    assert (beam.range, beam.category) == want
                    hits += 1
    assert hits > 0


def test_srle_study_ranges_match_reference_walk(monkeypatch):
    from ssmi.config import config_from_dict

    config = config_from_dict({
        "seed": 5,
        "env": {"profile": "corridor", "dims": [16, 16, 16], "num_classes": 2},
        "mapper": {"type": "octree"},
        "sweep": {"resolutions": [1.0, 2.0], "iterations": 1, "beams": 9},
    })
    env = generate_env(config.seed, "corridor", (16, 16, 16), 2, 1.0)
    seen = []
    insert_scan = SemanticOctree.insert_scan

    def recording(self, beams, params):
        seen.extend(beams)
        return insert_scan(self, beams, params)

    monkeypatch.setattr(SemanticOctree, "insert_scan", recording)
    srle_study(config, env)
    assert len(seen) == 2 * 9
    for beam in seen:
        want = first_hit_reference(env, beam.origin, beam.direction, beam.max_range)
        if want is None:
            assert (beam.range, beam.category) == (beam.max_range, None)
        else:
            assert (beam.range, beam.category) == want


# -- integration ----------------------------------------------------------------


def test_integrate_max_range_updates_all_traversed(params3):
    gmap = GridMap((8, 1), 1.0, 3)
    beam = BeamMeasurement.planar((0.5, 0.5), 0.0, 8.0, None, 8.0)
    gmap.integrate(beam, params3)
    want = lo.clamp(gmap.prior + (params3.phi_minus - gmap.prior), params3)
    for i in range(8):
        np.testing.assert_array_equal(gmap.cells[i, 0, 0], want)
        assert gmap.observed[i, 0, 0]


def test_integrate_twice_is_additive(params3):
    gmap = GridMap((8, 1), 1.0, 3)
    beam = BeamMeasurement.planar((0.5, 0.5), 0.0, 8.0, None, 8.0)
    gmap.integrate(beam, params3).integrate(beam, params3)
    want = gmap.prior + 2 * (params3.phi_minus - gmap.prior)
    np.testing.assert_allclose(gmap.cells[3, 0, 0], want, atol=1e-12)


def test_integrate_symmetric_hits_tie(params3):
    gmap = GridMap((4, 1), 1.0, 3)
    b2 = BeamMeasurement.planar((0.5, 0.5), 0.0, 2.5, 2, 8.0)
    b1 = BeamMeasurement.planar((0.5, 0.5), 0.0, 2.5, 1, 8.0)
    gmap.integrate(b2, params3).integrate(b1, params3)
    pmf = lo.softmax_pmf(gmap.cells[2, 0, 0])
    assert pmf[1] == pytest.approx(pmf[2], abs=1e-14)


def test_integrate_touches_only_traced_cells(params3):
    gmap = GridMap((8, 8), 1.0, 3)
    before = gmap.cells.copy()
    beam = BeamMeasurement.planar((0.5, 2.5), 0.0, 5.0, 1, 6.0)
    trace = gmap.cast_ray(beam)
    gmap.integrate(beam, params3)
    touched = {tuple(c) for c in trace.cells[: trace.hit_index + 1]}
    for i in range(8):
        for j in range(8):
            if (i, j, 0) not in touched:
                np.testing.assert_array_equal(gmap.cells[i, j, 0], before[i, j, 0])


def test_integrate_beyond_endpoint_untouched(params3):
    gmap = GridMap((8, 1), 1.0, 3)
    beam = BeamMeasurement.planar((0.5, 0.5), 0.0, 3.2, 1, 8.0)
    gmap.integrate(beam, params3)
    for i in range(4, 8):
        np.testing.assert_array_equal(gmap.cells[i, 0, 0], gmap.prior)
        assert not gmap.observed[i, 0, 0]


def test_insert_scan_logs_beams_and_cells_written(params3, caplog):
    """One DEBUG line per scan: its beam count, the cells its beams wrote,
    counting each write (a cell two beams cross counts twice), the distinct
    cells among them, and the rounds the writes took (the most writes to
    one cell)."""
    gmap = GridMap((10, 10), 1.0, 3)
    scans = [
        [BeamMeasurement.planar((0.5, 0.5), 0.0, 3.2, 1, 8.0),  # 3 free + 1 hit
         BeamMeasurement.planar((0.5, 0.5), 0.0, 8.0, None, 8.0)],  # 9 free, to x = 8.5
        [],
        [BeamMeasurement.planar((5.5, 5.5), math.pi / 2, 20.0, None, 20.0)],  # 5 to the edge
    ]
    with caplog.at_level(logging.DEBUG, logger="ssmi.grid"):
        for scan in scans:
            gmap.insert_scan(scan, params3)
    assert [r.getMessage() for r in caplog.records] == [
        "insert_scan: 2 beams, 13 cells written, 9 distinct, 2 rounds",
        "insert_scan: 0 beams, 0 cells written, 0 distinct, 0 rounds",
        "insert_scan: 1 beams, 5 cells written, 5 distinct, 1 rounds",
    ]


def reference_integrate(gmap, beam, params):
    """The per-cell form of ``GridMap.integrate``: one posterior update and
    clamp per traversed cell, then one for the hit cell."""
    trace = gmap.cast_ray(beam)
    end = trace.hit_index if trace.hit_index is not None else len(trace)
    updates = [(cell, params.phi_minus) for cell in trace.cells[:end]]
    if trace.hit_index is not None:
        updates.append((trace.cells[end], params.hit_logodds(beam.category)))
    for cell, l in updates:
        i, j, k = cell
        h = gmap.cells[i, j, k]
        gmap.cells[i, j, k] = lo.clamp(lo.posterior_update(h, l, gmap.prior), params)
        gmap.observed[i, j, k] = True


INTEGRATE_VALUES = st.sampled_from([0.0, -0.0, 6.0, -6.0, 0.41, -1.39, 2.5, -2.5])
INTEGRATE_LOGODDS = INTEGRATE_VALUES | st.floats(-9.0, 9.0, allow_nan=False)


@st.composite
def integrate_case(draw):
    """Parameters, prior and starting beliefs drawn around shared edge
    values, so sums land on and past the clamp bounds and on both signed
    zeros, and a few random 3-D beams through a small box."""
    k = draw(st.integers(1, 4))

    def vec(values=INTEGRATE_LOGODDS):
        return np.array([0.0] + [draw(values) for _ in range(k)])

    bounds = [sorted((draw(INTEGRATE_LOGODDS), draw(INTEGRATE_LOGODDS))) for _ in range(k)]
    assume(all(a < b for a, b in bounds))
    params = SensorParams(
        phi_plus=vec(), phi_minus=vec(), psi_plus=vec(),
        clamp_lo=np.array([0.0] + [a for a, _ in bounds]),
        clamp_hi=np.array([0.0] + [b for _, b in bounds]),
    )
    gmap = GridMap((5, 4, 3), 1.0, k, vec())
    near = INTEGRATE_LOGODDS | st.sampled_from([v for ab in bounds for v in ab])
    palette = np.array([vec(near) for _ in range(3)] + [gmap.prior])
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 4, gmap.dims)
    gmap.cells = palette[pick]
    beams = []
    for _ in range(draw(st.integers(1, 6))):
        origin = np.array([draw(st.floats(0.0, n - 1e-6)) for n in gmap.dims])
        d = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
        assume(np.linalg.norm(d) > 0.1)
        r_max = draw(st.floats(0.5, 8.0))
        r = draw(st.floats(0.0, r_max))
        category = draw(st.integers(1, k)) if r < r_max else None
        beams.append(BeamMeasurement(origin, d / np.linalg.norm(d), r, category, r_max))
    return gmap, beams, params


@given(case=integrate_case())
@settings(max_examples=300, deadline=None)
def test_integrate_is_the_per_cell_update_bit_for_bit(case):
    gmap, beams, params = case
    want = gmap.copy()
    for beam in beams:
        gmap.integrate(beam, params)
        reference_integrate(want, beam, params)
    assert gmap.cells.tobytes() == want.cells.tobytes()
    assert np.array_equal(gmap.observed, want.observed)


@st.composite
def scan_case(draw):
    """Parameters, prior and starting beliefs drawn as in ``integrate_case``
    at K = 1, 2, 3 or 5, and one scan of 2-48 3-D beams through a small
    box from one to three shared origins (every beam of a sensor pose
    starts in its cell), with axis-aligned, diagonal and random direction
    components, and ranges of 0, inside the beam, and max range."""
    k = draw(st.sampled_from([1, 2, 3, 5]))

    def vec(values=INTEGRATE_LOGODDS):
        return np.array([0.0] + [draw(values) for _ in range(k)])

    bounds = [sorted((draw(INTEGRATE_LOGODDS), draw(INTEGRATE_LOGODDS))) for _ in range(k)]
    assume(all(a < b for a, b in bounds))
    params = SensorParams(
        phi_plus=vec(), phi_minus=vec(), psi_plus=vec(),
        clamp_lo=np.array([0.0] + [a for a, _ in bounds]),
        clamp_hi=np.array([0.0] + [b for _, b in bounds]),
    )
    gmap = GridMap((5, 4, 3), 1.0, k, vec())
    near = INTEGRATE_LOGODDS | st.sampled_from([v for ab in bounds for v in ab])
    palette = np.array([vec(near) for _ in range(3)] + [gmap.prior])
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 4, gmap.dims)
    gmap.cells = palette[pick]
    origins = [np.array([draw(st.floats(0.0, n, exclude_max=True)) for n in gmap.dims])
               for _ in range(draw(st.integers(1, 3)))]
    component = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    beams = []
    for _ in range(draw(st.integers(2, 48))):
        d = np.array([draw(component) for _ in range(3)])
        assume(np.linalg.norm(d) > 1e-3)
        r_max = draw(st.floats(0.5, 8.0))
        r = draw(st.just(0.0) | st.floats(0.0, r_max) | st.just(r_max))
        category = draw(st.integers(1, k)) if r < r_max else None
        beams.append(BeamMeasurement(draw(st.sampled_from(origins)), d / np.linalg.norm(d), r,
                                     category, r_max))
    return gmap, beams, params


@given(case=scan_case())
@settings(max_examples=300, deadline=None)
def test_insert_scan_is_the_per_beam_loop_bit_for_bit(case):
    """A whole scan, applied in rounds, against the beams fused one at a
    time by ``integrate_reference``: the same cell bits, signed zeros and
    values at the clamp bounds included, and the same observed flags."""
    gmap, beams, params = case
    want = gmap.copy()
    gmap.insert_scan(beams, params)
    for beam in beams:
        integrate_reference(want, beam, params)
    assert gmap.cells.tobytes() == want.cells.tobytes()
    assert np.array_equal(gmap.observed, want.observed)


def test_insert_scan_writes_through_to_arrays_in_any_order(params3, rng):
    """Cells and observed flags held in Fortran order, which the rounds
    cannot view flat, still receive every write, in the arrays the map
    holds."""
    gmap = GridMap((6, 5, 4), 1.0, 3)
    want = gmap.copy()
    gmap.cells = np.asfortranarray(gmap.cells)
    gmap.observed = np.asfortranarray(gmap.observed)
    cells, observed = gmap.cells, gmap.observed
    origin = np.array([2.5, 2.5, 1.5])
    scan = []
    for _ in range(12):
        d = rng.normal(size=3)
        scan.append(BeamMeasurement(origin, d / np.linalg.norm(d), 2.2, 2, 4.0))
    gmap.insert_scan(scan, params3)
    for beam in scan:
        integrate_reference(want, beam, params3)
    assert gmap.cells is cells and gmap.observed is observed
    assert gmap.cells.tobytes() == want.cells.tobytes()  # in C order, whatever the layout
    assert np.array_equal(gmap.observed, want.observed)


def raising_scans():
    """Scans at K = 3 whose last, first or middle beam raises: a hit of
    class 4, or an origin outside either map. ``good`` beams write."""
    good = [BeamMeasurement.planar((2.5, 2.5), a, 4.5, 1 + i % 3, 8.0)
            for i, a in enumerate(np.linspace(0.1, 6.0, 6))]
    bad_class = BeamMeasurement.planar((2.5, 2.5), 0.0, 3.2, 4, 8.0)
    bad_origin = BeamMeasurement.planar((-0.5, 2.5), 0.0, 3.2, 1, 8.0)
    for bad, error in ((bad_class, InvalidClass), (bad_origin, OriginOutOfBounds)):
        for at in (len(good), 0, 3):
            yield good[:at] + [bad] + good[at:], error


def test_a_scan_that_raises_leaves_either_map_unchanged(params3, tmp_path):
    """Every beam is walked and checked before the first write, so a scan
    that raises writes nothing: the grid's cells and observed flags and the
    octree's saved bytes are those from before it."""
    warm = [BeamMeasurement.planar((5.5, 5.5), a, 3.5, 2, 6.0) for a in (0.3, 2.0, 4.1)]
    for scan, error in raising_scans():
        gmap = GridMap((10, 10), 1.0, 3).insert_scan(warm, params3)
        tree = SemanticOctree(1.0, 4, 3).insert_scan(warm, params3)
        cells, observed = gmap.cells.tobytes(), gmap.observed.copy()
        save_octree(tree, tmp_path / "before.ssmioct")
        with pytest.raises(error):
            gmap.insert_scan(scan, params3)
        with pytest.raises(error):
            tree.insert_scan(scan, params3)
        assert gmap.cells.tobytes() == cells
        assert np.array_equal(gmap.observed, observed)
        save_octree(tree, tmp_path / "after.ssmioct")
        assert (tmp_path / "after.ssmioct").read_bytes() == (tmp_path / "before.ssmioct").read_bytes()


def test_sense_is_the_per_beam_loop(rng):
    """The fan walk of ``sense`` against the per-beam search and numpy truth
    reads it replaced, with noise on: the same beams (origin and direction
    bits, range, class, max range), and the sensor Generator left in the
    same state. Planar worlds at K = 1 and 3, and a 3-D corridor world."""
    spec = SensorSpec(num_beams=48, fov=2.0 * math.pi, r_max=10.0, range_sigma=0.1,
                      misclass_prob=0.35)
    narrow = SensorSpec(num_beams=7, fov=1.3, r_max=25.0, range_sigma=2.0, misclass_prob=0.9)
    worlds = [generate_env(3, "random", (32, 32), 3), generate_env(4, "random", (24, 20), 1),
              generate_env(0, "corridor", (20, 16, 6), 2)]
    for env in worlds:
        for _ in range(6):
            spawn = env.spawns[rng.integers(len(env.spawns))]
            position = (np.asarray(spawn, dtype=np.float64) + rng.uniform(0.05, 0.95, 3))
            heading = float(rng.uniform(-math.pi, math.pi))
            for s in (spec, narrow):
                seed = int(rng.integers(2**32))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sense(env, position.copy(), heading, s, got_rng)
                want = sense_reference(env, position.copy(), heading, s, want_rng)
                assert [(b.origin.tobytes(), b.direction.tobytes(), b.range, b.category,
                         b.max_range) for b in got] == [
                    (b.origin.tobytes(), b.direction.tobytes(), b.range, b.category,
                     b.max_range) for b in want]
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sense_sees_edits_of_the_truth():
    """``sense`` reads the world as it is at the call: a block painted into
    ``env.grid`` after one scan shows in the next, as in the reference."""
    env = generate_env(0, "structured", (32, 32), 3)
    spec = SensorSpec(num_beams=16, fov=2.0 * math.pi, r_max=10.0, range_sigma=0.0,
                      misclass_prob=0.0)
    position = (np.asarray(env.spawns[0], dtype=np.float64) + 0.5) * env.resolution
    before = [b.range for b in sense(env, position, 0.0, spec, np.random.default_rng(0))]
    x, y, _ = env.spawns[0]
    env.grid[x + 2 : x + 4, y - 1 : y + 2, 0] = 3
    after = sense(env, position, 0.0, spec, np.random.default_rng(0))
    want = sense_reference(env, position, 0.0, spec, np.random.default_rng(0))
    assert [(b.range, b.category) for b in after] == [(b.range, b.category) for b in want]
    assert [b.range for b in after] != before


# -- beam event probabilities ------------------------------------------------------


def test_beam_event_probabilities_total_one(params3, rng):
    gmap = GridMap((10, 1), 1.0, 3)
    for i in range(10):
        h = np.zeros(4)
        h[1:] = rng.uniform(-4, 4, 3)
        gmap.set_cell((i, 0, 0), h)
    # the dense pass's (n, y) event probabilities, "cells before n free and
    # cell n of class y", plus the all-free outcome
    h_t, h_0 = gmap.ray_logodds(gmap.cast_ray(
        BeamMeasurement.planar((0.5, 0.5), 0.0, 10.0, None, 10.0)))
    total = float(beam_mi_dense(h_t, h_0, params3).p_detail.sum())
    pmfs = lo.softmax_pmf(gmap.cells[:, 0, 0, :])
    total += float(np.prod(pmfs[:, 0]))
    assert total == pytest.approx(1.0, abs=1e-12)


# -- entropy ------------------------------------------------------------------------


def test_fresh_map_entropy():
    gmap = GridMap((10, 1), 1.0, 2)
    assert gmap.map_entropy() == pytest.approx(10 * LN3, abs=1e-10)


def test_saturated_map_entropy_positive(params3):
    gmap = GridMap((10, 1), 1.0, 3)
    sat = lo.clamp(np.array([0.0, -99.0, -99.0, -99.0]), params3)
    for i in range(10):
        gmap.set_cell((i, 0, 0), sat)
    assert 0.0 < gmap.map_entropy() < 10 * lo.entropy(sat) + 1e-12
    assert gmap.map_entropy() == pytest.approx(10 * lo.entropy(sat), abs=1e-10)


def test_empty_region_entropy_zero():
    gmap = GridMap((4, 4), 1.0, 2)
    assert gmap.map_entropy(region=((0, 0, 0), (0, 4, 1))) == 0.0


def test_region_mask_entropy():
    gmap = GridMap((4, 4), 1.0, 2)
    assert gmap.map_entropy(region=((0, 0, 0), (1, 1, 1))) == pytest.approx(LN3, abs=1e-12)


# -- serialization --------------------------------------------------------------------


def test_binary_roundtrip(tmp_path, params3, rng):
    gmap = GridMap((6, 5, 2), 0.25, 3, origin=(1.0, -2.0, 0.5))
    for _ in range(30):
        cell = (rng.integers(6), rng.integers(5), rng.integers(2))
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        gmap.set_cell(cell, h)
    path = tmp_path / "map.ssmigrid"
    save_grid(gmap, path)
    back = load_grid(path)
    assert back.dims == gmap.dims
    assert back.resolution == gmap.resolution
    assert back.num_classes == 3
    np.testing.assert_array_equal(back.observed, gmap.observed)
    np.testing.assert_allclose(back.cells, gmap.cells, atol=1e-6)  # f32 storage
    np.testing.assert_array_equal(
        back.cells.astype(np.float32), gmap.cells.astype(np.float32)
    )


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMAP!" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_grid(path)


@pytest.fixture(scope="module")
def saved_grid_bytes(tmp_path_factory):
    rng = np.random.default_rng(3)
    gmap = GridMap((5, 4, 2), 0.5, 3, origin=(1.0, -2.0, 0.5))
    for _ in range(12):
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        gmap.set_cell((rng.integers(5), rng.integers(4), rng.integers(2)), h)
    path = tmp_path_factory.mktemp("grid") / "g.ssmigrid"
    save_grid(gmap, path)
    return path.read_bytes()


GRID_HEADER = 8 + 2 + 12 + 8 + 2 + 24  # magic .. origin
GRID_PRIOR = GRID_HEADER + 4 * 4  # K=3
GRID_MASK = GRID_PRIOR + 4 * 40 * 4  # 5x4x2 cells


def patch_u32(b, at, value):
    return b[:at] + value.to_bytes(4, "little") + b[at + 4:]


@pytest.mark.parametrize(
    "patch,match",
    [
        (lambda b: b[:GRID_HEADER - 5], "truncated header"),
        (lambda b: b[:GRID_PRIOR - 1], "truncated prior"),
        (lambda b: b[:GRID_MASK - 4], "truncated cells"),
        (lambda b: b[:-1], "truncated observed mask"),
        (lambda b: b + b"\0\0", "2 trailing bytes"),
        (lambda b: patch_u32(b, 14, 0), "zero extent"),
        (lambda b: b[:30] + (0).to_bytes(2, "little") + b[32:], "no occupied classes"),
        (lambda b: b[:22] + struct.pack("<d", -0.5) + b[30:], "not positive"),
        (lambda b: b[:8] + (2).to_bytes(2, "little") + b[10:], "unsupported grid version"),
        (lambda b: b"SSMIOCT1" + b[8:], "not a grid map file"),
    ],
)
def test_grid_loader_rejects_malformed_file(tmp_path, saved_grid_bytes, patch, match):
    path = tmp_path / "bad.ssmigrid"
    path.write_bytes(patch(saved_grid_bytes))
    with pytest.raises(CorruptMap, match=match):
        load_grid(path)


@pytest.mark.parametrize("offset", [GRID_HEADER + 4, GRID_PRIOR, GRID_PRIOR + 4 * (4 * 17 + 2)],
                         ids=["prior", "cell pivot", "cell class"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grid_loader_rejects_non_finite_log_odds(tmp_path, saved_grid_bytes, offset, value):
    path = tmp_path / "bad.ssmigrid"
    path.write_bytes(saved_grid_bytes[:offset] + struct.pack("<f", value)
                     + saved_grid_bytes[offset + 4:])
    with pytest.raises(CorruptMap, match="non-finite"):
        load_grid(path)


def test_grid_loader_huge_dims_rejected_before_allocating(tmp_path, saved_grid_bytes):
    path = tmp_path / "huge.ssmigrid"
    path.write_bytes(patch_u32(patch_u32(saved_grid_bytes, 10, 2**31), 14, 2**31))
    with pytest.raises(CorruptMap, match="truncated cells"):
        load_grid(path)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_grid_loader_fuzz_truncation_and_bit_flips(tmp_path_factory, saved_grid_bytes, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.ssmigrid"
    cut = data.draw(st.integers(0, len(saved_grid_bytes) - 1), label="cut")
    path.write_bytes(saved_grid_bytes[:cut])
    with pytest.raises(CorruptMap):
        load_grid(path)
    flipped = bytearray(saved_grid_bytes)
    bits = data.draw(st.lists(st.integers(0, 8 * len(flipped) - 1), min_size=1, max_size=3))
    for bit in bits:
        flipped[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(flipped))
    try:
        gmap = load_grid(path)
    except CorruptMap:
        return
    assert gmap.cells.shape == gmap.dims + (gmap.num_classes + 1,)
    assert gmap.observed.shape == gmap.dims


# -- beam construction ------------------------------------------------------------------


def normalised_reference(direction):
    """Stored direction under the exact-norm rule: normalise when the norm is
    more than 1e-9 away from one."""
    direction = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(direction))
    return direction / norm if abs(norm - 1.0) > 1e-9 else direction


@pytest.mark.parametrize("direction", [[math.nan, math.nan, 0.0], [math.inf, 0.0, 0.0],
                                       [1.0, -math.inf, 0.0], [0.0, 0.0, math.nan]])
def test_direction_without_finite_norm_raises(direction):
    # a NaN direction would walk its origin cell only, and an infinite one
    # would normalise to NaN
    with pytest.raises(ValueError, match="no finite norm"):
        unit_direction(direction)
    with pytest.raises(ValueError, match="no finite norm"):
        BeamMeasurement(np.full(3, 0.5), np.array(direction), 1.0, None, 1.0)


@given(
    angles=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-1.5, 1.5)),
    scale_exp=st.integers(-16, -1),
    sign=st.sampled_from([-1.0, 0.0, 1.0]),
    zero_axis=st.sampled_from([None, 0, 1, 2]),
)
@settings(max_examples=500, deadline=None)
def test_beam_direction_bits_match_exact_norm_rule(angles, scale_exp, sign, zero_axis):
    # lengths 1 + sign * 10^e straddle both margins (1e-10 and 1e-9)
    yaw, pitch = angles
    d = np.array([math.cos(yaw) * math.cos(pitch), math.sin(yaw) * math.cos(pitch),
                  math.sin(pitch)])
    if zero_axis is not None:
        d[zero_axis] = 0.0
    assume(np.linalg.norm(d) > 0.5)
    d = d * (1.0 + sign * 10.0 ** scale_exp)
    want = normalised_reference(d)
    got = BeamMeasurement(np.zeros(3), d.copy(), 1.0, None, 1.0).direction
    assert got.tobytes() == want.tobytes()
