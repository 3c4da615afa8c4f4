"""Semantic octree: element updates against the dense grid, truncated-belief
bookkeeping, pruning, run-length ray casts, grid conversion, and both
versions of the file format."""

import itertools
import json
import logging
import math
import re
import struct
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssmi import logodds as lo
from ssmi.config import config_from_dict
from ssmi.errors import CorruptMap, InvalidClass, OriginOutOfBounds
from ssmi.grid import BeamMeasurement, GridMap
from ssmi.logodds import SensorParams
from ssmi.octree import (
    NEG_INF,
    OCTREE_MAGIC,
    OCTREE_MAGIC_V1,
    SemanticNode,
    SemanticOctree,
    TruncatedSemantics,
    _exact_key,
    element_update,
    grid_from_octree,
    load_octree,
    octree_from_grid,
    save_octree,
)
from ssmi.sim import run_episode
from ssmi.mi import FanCast
from conftest import (
    cast_fan,
    fan_beams,
    insert_scan_reference,
    leaf_table_reference,
    stacked_casts,
)


def random_beam(rng, lo_pt=1.0, hi_pt=31.0, r_max=20.0, k=3):
    origin = rng.uniform(lo_pt, hi_pt, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    r = float(rng.uniform(0, r_max)) if rng.random() < 0.8 else r_max
    cat = int(rng.integers(1, k + 1)) if r < r_max else None
    return BeamMeasurement(origin, d, r, cat, r_max)


# -- element update = grid update (K <= 3) ---------------------------------------


def test_update_matches_full_vector_path(params3, rng):
    tree = SemanticOctree(1.0, 3, 3)
    update = element_update(params3, tree.prior)
    for _ in range(50):
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        sem = TruncatedSemantics.from_full(h)
        y = int(rng.integers(1, 4))
        got = update(y)(sem)
        want = lo.clamp(
            lo.posterior_update(h, params3.hit_logodds(y), tree.prior), params3
        )
        np.testing.assert_array_equal(got.to_full(3), want)
        got_free = update(None)(sem)
        want_free = lo.clamp(lo.posterior_update(h, params3.phi_minus, tree.prior), params3)
        np.testing.assert_array_equal(got_free.to_full(3), want_free)


def reference_update(sem, y, params, prior):
    """The full-vector K <= 3 update: numpy posterior update and clamp, then
    truncation. ``y`` is None for a traversed element."""
    l = params.phi_minus if y is None else params.hit_logodds(y)
    h = lo.posterior_update(sem.to_full(params.num_classes), l, prior)
    return TruncatedSemantics.from_full(lo.clamp(h, params))


def bits(sem):
    """A belief with each float as hex, so -0.0 and 0.0 differ."""
    return tuple((c, v.hex()) for c, v in sem.data), sem.others.hex()


EDGE_VALUES = st.sampled_from([0.0, -0.0, 6.0, -6.0, 0.41, -1.39, 2.5, -2.5])
LOGODDS = EDGE_VALUES | st.floats(-9.0, 9.0, allow_nan=False)


@st.composite
def k3_update_case(draw):
    """K <= 3 parameters, prior and belief drawn around shared edge values,
    so sums land on and past the clamp bounds, on the prior, and on both
    signed zeros."""
    k = draw(st.integers(1, 3))

    def vec():
        return np.array([0.0] + [draw(LOGODDS) for _ in range(k)])

    bounds = [sorted((draw(LOGODDS), draw(LOGODDS))) for _ in range(k)]
    assume(all(a < b for a, b in bounds))
    params = SensorParams(
        phi_plus=vec(), phi_minus=vec(), psi_plus=vec(),
        clamp_lo=np.array([0.0] + [a for a, _ in bounds]),
        clamp_hi=np.array([0.0] + [b for _, b in bounds]),
    )
    prior = vec()
    near = LOGODDS | st.sampled_from([v for ab in bounds for v in ab])
    kind = draw(st.sampled_from(["full", "prior", "lumped"]))
    if kind == "prior":
        sem = TruncatedSemantics.from_full(prior)
    else:
        pairs = [(c, draw(near)) for c in range(1, k + 1)]
        others = NEG_INF
        if kind == "lumped":  # fewer tracked classes, as a file may hold
            pairs = pairs[:draw(st.integers(0, k - 1))]
            others = draw(near)
        sem = TruncatedSemantics(data=TruncatedSemantics._sorted(pairs), others=others)
    y = draw(st.none() | st.integers(1, k))
    return sem, y, params, prior


@given(case=k3_update_case())
@settings(max_examples=400, deadline=None)
def test_float_update_is_the_numpy_update_bit_for_bit(case):
    sem, y, params, prior = case
    want = bits(reference_update(sem, y, params, prior))
    assert bits(element_update(params, prior)(y)(sem)) == want


def test_untracked_hit_splits_lump_with_alpha():
    k = 5
    params = SensorParams.default(k, clamp_limit=30.0, alpha=0.5)
    prior = lo.uniform_prior(k)
    tree_prior = TruncatedSemantics.from_full(prior)
    assert tree_prior.others == pytest.approx(math.log(2.0))  # classes 4,5 at 0
    untracked = 5
    new = element_update(params, prior)(untracked)(tree_prior)
    h_aux = tree_prior.others + math.log(0.5)
    expect_y = h_aux + params.phi_plus[untracked] + params.psi_plus[untracked]
    assert dict(new.data).get(untracked) == pytest.approx(expect_y, abs=1e-12)
    # one previously tracked class was evicted into the lump alongside the
    # remaining (1 - alpha) share
    rest = tree_prior.others + params.phi_plus[1] + math.log(0.5)
    evicted = 0.0 + params.phi_plus[1]
    assert new.others == pytest.approx(
        float(np.logaddexp(rest, evicted)), abs=1e-12
    )


def test_lump_tracks_logsumexp_of_members():
    # side-by-side per-class ledger adopting the same alpha-split rule: the
    # stored lump must always equal log-sum-exp of its member classes. The
    # script never evicts the same class twice, so every member keeps an
    # identifiable value.
    k = 5
    params = SensorParams.default(k, clamp_limit=80.0, alpha=0.5)
    prior = lo.uniform_prior(k)
    sem = TruncatedSemantics.from_full(prior)
    members = {4: 0.0, 5: 0.0}
    shift_free = params.phi_minus[1]
    shift_hit = params.phi_plus[1]
    update = element_update(params, prior)

    def lse(d):
        return float(np.logaddexp.reduce(list(d.values()))) if d else -np.inf

    script = ["free", ("hit", 1), ("hit", 4), "free", ("hit", 2), ("hit", 1)]
    for action in script:
        tracked_before = dict(sem.data)
        if action == "free":
            sem = update(None)(sem)
            members = {c: v + shift_free for c, v in members.items()}
            assert sem.others == pytest.approx(lse(members), abs=1e-10)
            continue
        y = action[1]
        sem = update(y)(sem)
        if y in tracked_before:
            members = {c: v + shift_hit for c, v in members.items()}
        else:
            # alpha share leaves as class y; the rest of the lump keeps the
            # (1 - alpha) share, rescaled uniformly across remaining members
            lump_before = lse(members)
            y_val = lump_before + math.log(params.alpha) + shift_hit + params.psi_plus[y]
            rest = {c: v for c, v in members.items() if c != y}
            if rest:
                delta = (lump_before + math.log1p(-params.alpha)) - lse(rest)
                rest = {c: v + delta + shift_hit for c, v in rest.items()}
            members = rest
            members[y] = y_val
        # whatever fell out of the top 3 joins the ledger at its exact value
        for c, v in tracked_before.items():
            if c not in dict(sem.data):
                members[c] = v + shift_hit + (params.psi_plus[c] if c == y else 0.0)
        members = {c: v for c, v in members.items() if c not in dict(sem.data)}
        assert sem.others == pytest.approx(lse(members), abs=1e-10)


def test_lumped_hit_orders_classes_tied_at_the_clamp():
    """A hit on an untracked class pushes two tracked classes past the
    clamp: both keep their place among the top three, and the tie at the
    bound is broken by class id, as for every other belief."""
    k = 5
    params = SensorParams.default(k, clamp_limit=4.0)
    prior = lo.uniform_prior(k)
    sem = TruncatedSemantics(data=((5, 3.9), (3, 3.8), (1, 2.0)), others=-3.0)
    new = element_update(params, prior)(2)(sem)
    assert [c for c, _ in new.data] == [3, 5, 1]
    assert new.data[0][1] == new.data[1][1] == 4.0
    assert new.data == TruncatedSemantics._sorted(new.data)


def reference_lumped_update(sem, y, params, prior):
    """The K > 3 update of one element as it was written before the update
    was built once per scan: every class-uniform scalar is read from the
    parameters on each call. ``y`` is None for a traversed element."""
    phi_m, phi_p, psi_p, lo_, hi_ = (
        float(getattr(params, f)[1])
        for f in ("phi_minus", "phi_plus", "psi_plus", "clamp_lo", "clamp_hi")
    )
    prior_occ = float(prior[1])

    def clip(v):
        return min(max(v, lo_), hi_)

    if y is None:
        shift = phi_m - prior_occ
        data = TruncatedSemantics._sorted((c, clip(v + shift)) for c, v in sem.data)
        return TruncatedSemantics(data=data, others=clip(sem.others + shift))
    tracked = dict(sem.data)
    if y in tracked:
        shift = phi_p - prior_occ
        data = TruncatedSemantics._sorted(
            (c, clip(v + shift + (psi_p if c == y else 0.0))) for c, v in sem.data
        )
        return TruncatedSemantics(data=data, others=clip(sem.others + shift))
    h_aux = sem.others + math.log(params.alpha)
    rest = sem.others + phi_p - prior_occ + math.log1p(-params.alpha)
    shift = phi_p - prior_occ
    candidates = [(c, v + shift) for c, v in sem.data]
    candidates.append((y, h_aux + shift + psi_p))
    candidates = TruncatedSemantics._sorted(candidates)
    kept = candidates[:3]
    dropped = [v for _, v in candidates[3:]]
    lump = lo.logsumexp(np.array(dropped + [rest]))
    return TruncatedSemantics(
        data=TruncatedSemantics._sorted((c, clip(v)) for c, v in kept), others=clip(float(lump))
    )


@st.composite
def lumped_update_case(draw):
    """Class-uniform K > 3 parameters, prior and belief drawn around shared
    edge values, so sums land on the clamp bounds (where classes tie) and on
    both signed zeros; the hit class is None, tracked or untracked."""
    k = draw(st.integers(4, 6))
    lo_, hi_ = sorted((draw(LOGODDS), draw(LOGODDS)))
    assume(lo_ < hi_)

    def uniform(v):
        return np.array([0.0] + [v] * k)

    params = SensorParams(
        phi_plus=uniform(draw(LOGODDS)), phi_minus=uniform(draw(LOGODDS)),
        psi_plus=uniform(draw(LOGODDS)), clamp_lo=uniform(lo_), clamp_hi=uniform(hi_),
        alpha=draw(st.sampled_from([0.5, 0.25, 0.9]) | st.floats(0.01, 0.99)),
    )
    prior = uniform(draw(LOGODDS))
    near = LOGODDS | st.sampled_from([lo_, hi_])
    classes = draw(st.permutations(range(1, k + 1)))[:draw(st.integers(0, 3))]
    others = draw(near | st.just(NEG_INF))
    sem = TruncatedSemantics(
        data=TruncatedSemantics._sorted((c, draw(near)) for c in classes), others=others
    )
    y = draw(st.none() | st.integers(1, k))
    return sem, y, params, prior


def _signed_zero_case():
    """A tracked hit whose other tracked class sums to -0.0 before the
    ``+ 0.0`` that the class-y boost leaves for it."""
    params = replace(SensorParams.default(4), phi_plus=np.array([0.0, -0.0, -0.0, -0.0, -0.0]))
    sem = TruncatedSemantics(data=((2, 1.0), (1, -0.0)), others=-1.0)
    return sem, 2, params, lo.uniform_prior(4)


@given(case=lumped_update_case())
@example(case=_signed_zero_case())
@settings(max_examples=400, deadline=None)
def test_lumped_builder_is_the_per_element_update_bit_for_bit(case):
    sem, y, params, prior = case
    want = bits(reference_lumped_update(sem, y, params, prior))
    assert bits(element_update(params, prior)(y)(sem)) == want


def test_belief_hash_is_the_field_tuple_hash():
    """The cached hash is the dataclass's own, so dict and set order stay;
    beliefs equal under ``0.0 == -0.0`` hash equal, as equal keys must."""
    for sem in (TruncatedSemantics(data=((5, 3.9), (3, 3.8), (1, 2.0)), others=-3.0),
                TruncatedSemantics(data=(), others=NEG_INF),
                TruncatedSemantics.from_full(np.array([0.0, 1.0, -2.0, 0.5, 0.25]))):
        assert hash(sem) == hash((sem.data, sem.others))
        assert hash(replace(sem, others=1.5)) == hash((sem.data, 1.5))
    pos = TruncatedSemantics(data=((2, 1.0), (1, 0.0)), others=0.0)
    neg = TruncatedSemantics(data=((2, 1.0), (1, -0.0)), others=-0.0)
    assert pos == neg and hash(pos) == hash(neg)
    assert len({pos, neg}) == 1


@pytest.mark.parametrize("k", [3, 5])
def test_insert_scan_rejects_hit_class_beyond_k(k):
    tree = SemanticOctree(1.0, 3, k)
    beam = BeamMeasurement.planar((0.5, 0.5), 0.0, 3.5, k + 1, 8.0)
    with pytest.raises(InvalidClass):
        tree.insert_scan([beam], SensorParams.default(k))


@pytest.mark.parametrize(
    "name", ["phi_plus", "phi_minus", "psi_plus", "clamp_lo", "clamp_hi", "prior"]
)
@pytest.mark.parametrize("beams", [0, 1])
def test_lumped_scan_rejects_class_dependent_parameters(name, beams):
    params = SensorParams.default(5)
    fields = {f: getattr(params, f).copy()
              for f in ("phi_plus", "phi_minus", "psi_plus", "clamp_lo", "clamp_hi")}
    prior = lo.uniform_prior(5)
    vec = prior if name == "prior" else fields[name]
    vec[3] += 0.5
    tree = SemanticOctree(1.0, 3, 5, prior)
    scan = [BeamMeasurement.planar((0.5, 0.5), 0.0, 3.5, 2, 8.0)][:beams]
    with pytest.raises(ValueError, match="class-uniform"):
        tree.insert_scan(scan, SensorParams(**fields, alpha=params.alpha))


def test_lumped_episode_leaves_are_canonical():
    config = config_from_dict({
        "seed": 0,
        "env": {"profile": "random", "dims": [16, 16], "num_classes": 5},
        "sensor": {"num_beams": 24, "r_max": 8.0},
        "planner": {"num_beams": 8, "beam_range": 8.0},
        "mapper": {"type": "octree", "clamp_limit": 4.0},
        "run": {"max_steps": 6},
    })
    tree = run_episode(config).mapper
    beliefs = {sem for sem, _, _ in tree.iter_leaves()}
    assert any(len(sem.data) == 3 for sem in beliefs)
    assert all(sem.data == TruncatedSemantics._sorted(sem.data) for sem in beliefs)


# -- insertion and pruning --------------------------------------------------------


def test_single_beam_fresh_tree(params3):
    tree = SemanticOctree(1.0, 4, 3)
    beam = BeamMeasurement.planar((0.0, 3.5), 0.0, 16.0, None, 16.0)
    tree.insert_scan([beam], params3)
    want = lo.clamp(tree.prior + (params3.phi_minus - tree.prior), params3)
    for x in range(16):
        np.testing.assert_array_equal(tree.query_element((x, 3, 0)).to_full(3), want)
    # octants the beam never touched stay single prior leaves
    assert tree.query_element((3, 3, 12)) == tree.prior_semantics
    upper = tree.root.children[1]  # octant z >= 8, x < 8, y < 8
    assert upper.children is None


def test_empty_scan_is_noop(params3):
    tree = SemanticOctree(1.0, 3, 3)
    tree.insert_scan([], params3)
    assert tree.root.children is None
    assert tree.num_leaves() == 1


def minimal_leaf_count(values):
    """Canonical octree size of a dense value cube (independent merge rule)."""
    n = values.shape[0]

    def rec(x, y, z, size):
        block = values[x : x + size, y : y + size, z : z + size]
        if np.all(block == block[0, 0, 0]):
            return 1
        half = size // 2
        return sum(
            rec(x + dx * half, y + dy * half, z + dz * half, half)
            for dx in (0, 1)
            for dy in (0, 1)
            for dz in (0, 1)
        )

    return rec(0, 0, 0, n)


def test_saturated_beam_prunes_to_minimal_blocks(params3):
    tree = SemanticOctree(1.0, 3, 3)
    gmap = GridMap((8, 8, 8), 1.0, 3)
    beam = BeamMeasurement(
        origin=np.array([0.0, 3.5, 3.5]),
        direction=np.array([1.0, 0.0, 0.0]),
        range=5.5,
        category=2,
        max_range=8.0,
    )
    for _ in range(10):  # clamp saturation makes repeated values identical
        tree.insert_scan([beam], params3)
        gmap.integrate(beam, params3)
    key = np.zeros(gmap.dims, dtype=np.int64)
    uniq = {}
    for i in range(8):
        for j in range(8):
            for k in range(8):
                t = tuple(gmap.cells[i, j, k])
                key[i, j, k] = uniq.setdefault(t, len(uniq))
    assert tree.num_leaves() == minimal_leaf_count(key)


def test_prune_uniform_tree_to_root():
    tree = SemanticOctree(1.0, 3, 3)
    sem = tree.prior_semantics
    tree.root.children = [type(tree.root)(sem) for _ in range(8)]
    tree.prune()
    assert tree.root.children is None


def test_prune_requires_all_eight_identical():
    tree = SemanticOctree(1.0, 1, 3)
    sem = tree.prior_semantics
    other = TruncatedSemantics.from_full(np.array([0.0, 1.0, 0.0, 0.0]))
    tree.root.children = [type(tree.root)(sem) for _ in range(7)] + [type(tree.root)(other)]
    tree.prune()
    assert tree.root.children is not None


def test_prune_idempotent_and_query_transparent(params3, rng):
    tree = SemanticOctree(1.0, 5, 3)
    for _ in range(30):
        tree.insert_scan([random_beam(rng)], params3)
    points = [tuple(rng.integers(0, 32, 3)) for _ in range(500)]
    before = [tree.query_element(p) for p in points]
    tree.prune()
    after = [tree.query_element(p) for p in points]
    assert before == after
    leaves = tree.num_leaves()
    tree.prune()
    assert tree.num_leaves() == leaves


@pytest.mark.parametrize("k,clamp_limit", [(3, 6.0), (5, 4.0)])
def test_insert_scan_leaves_the_tree_pruned(tmp_path, k, clamp_limit):
    """insert_scan prunes only the paths to the elements it changed; a
    whole-tree prune afterwards finds nothing left to collapse."""
    params = SensorParams.default(k, clamp_limit=clamp_limit)
    tree = SemanticOctree(1.0, 5, k)
    rng = np.random.default_rng(7 + k)
    for _ in range(25):
        tree.insert_scan([random_beam(rng, k=k) for _ in range(int(rng.integers(1, 9)))], params)
        before = saved_bytes(tree, tmp_path)
        assert tree.prune() == 0
        assert saved_bytes(tree, tmp_path) == before
    assert tree.num_leaves() > 8


# -- run-length ray casts -----------------------------------------------------------


def test_fresh_tree_single_run(params3):
    tree = SemanticOctree(1.0, 4, 3)
    beam = BeamMeasurement.planar((0.0, 7.5), 0.0, 16.0, None, 16.0)
    ray = tree.raycast_srle(beam)
    np.testing.assert_array_equal(ray.widths, [16])
    np.testing.assert_array_equal(ray.chi_t[0], tree.prior)


def test_three_region_run_widths(params3):
    tree = SemanticOctree(1.0, 4, 3)
    hit = BeamMeasurement.planar((0.0, 7.5), 0.0, 6.0, 2, 16.0)
    for _ in range(8):  # saturate so the free run is uniform
        tree.insert_scan([hit], params3)
    full = BeamMeasurement.planar((0.0, 7.5), 0.0, 16.0, None, 16.0)
    ray = tree.raycast_srle(full)
    np.testing.assert_array_equal(ray.widths, [6, 1, 9])
    assert ray.num_elements == 16


def test_srle_expansion_matches_element_queries(params3, rng):
    tree = SemanticOctree(1.0, 5, 3)
    for _ in range(25):
        tree.insert_scan([random_beam(rng)], params3)
    for _ in range(10):
        beam = random_beam(rng, r_max=25.0)
        trace = tree.cast_ray(beam)
        ray = tree.encode_trace(trace.cells)
        assert ray.num_elements == len(trace)
        expanded, _ = ray.expand()
        for idx, cell in enumerate(trace.cells):
            want = tree.query_element(tuple(cell)).to_full(3)
            np.testing.assert_array_equal(expanded[idx], want)


def test_doubling_depth_keeps_fresh_q_one():
    for depth in (3, 4, 5):
        tree = SemanticOctree(1.0, depth, 2)
        edge = float(tree.size_elements)
        beam = BeamMeasurement.planar((0.0, edge / 2 + 0.5), 0.0, edge, None, edge)
        assert tree.raycast_srle(beam).num_runs == 1


# -- the leaf table ------------------------------------------------------------------

SIGNED = st.sampled_from([0.0, -0.0, 1.5, -2.0])


def paint(tree, blocks):
    """Write each (corner, size, belief) block element by element, the block
    sharing one fresh copy of the belief (equal to the palette entry, not
    the same object), then prune the whole tree."""
    for corner, size, sem in blocks:
        copy = TruncatedSemantics(sem.data, sem.others)
        for cell in itertools.product(*(range(c, c + size) for c in corner)):
            tree._write_element(cell, lambda _: copy)
    tree.prune()
    return tree


@st.composite
def leaf_table_case(draw):
    """A pruned tree of depth 2-4, K = 3 (all tracked) or K = 5 (three
    tracked and a lump), painted in blocks from a palette whose values
    include both signed zeros, so beliefs equal under ``==`` can differ in
    bits; 3-D rays from inside the cube, and boxes, some empty and some
    cutting through large leaves."""
    k = draw(st.sampled_from([3, 5]), label="k")
    depth = draw(st.integers(2, 4), label="depth")
    tree = SemanticOctree(1.0, depth, k)
    n = tree.size_elements

    def belief():
        classes = draw(st.permutations(range(1, k + 1)))[:3]
        others = draw(SIGNED) if k > 3 else NEG_INF
        return TruncatedSemantics(TruncatedSemantics._sorted((c, draw(SIGNED)) for c in classes),
                                  others)

    palette = [belief() for _ in range(draw(st.integers(1, 4)))]
    blocks = []
    for _ in range(draw(st.integers(0, 10))):
        size = 1 << draw(st.integers(0, depth - 1))
        corner = [draw(st.integers(0, n // size - 1)) * size for _ in range(3)]
        blocks.append((corner, size, draw(st.sampled_from(palette))))
    paint(tree, blocks)
    coord = st.integers(0, n - 1) | st.floats(0.0, n, exclude_max=True)
    component = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    beams = []
    for _ in range(draw(st.integers(0, 5))):
        d = [draw(component) for _ in range(3)]
        assume(any(abs(v) > 1e-3 for v in d))
        r = draw(st.floats(0.5, 2.0 * n))
        beams.append(BeamMeasurement(np.array([draw(coord) for _ in range(3)], dtype=float),
                                     np.array(d), r, None, r))
    boxes = []
    for _ in range(3):
        ends = [sorted((draw(st.integers(0, n)), draw(st.integers(0, n)))) for _ in range(3)]
        boxes.append(tuple(zip(*ends)))
    return tree, beams, boxes


def _signed_zero_leaf_case():
    """A ray in -x meets an element holding -0.0 first; the preorder walk
    meets the equal +0.0 belief first (at x = 0)."""
    tree = SemanticOctree(1.0, 2, 3)
    plus = TruncatedSemantics(((1, 1.5), (2, 0.0), (3, -2.0)), NEG_INF)
    minus = TruncatedSemantics(((1, 1.5), (2, -0.0), (3, -2.0)), NEG_INF)
    paint(tree, [((0, 1, 1), 1, plus), ((1, 1, 1), 1, minus), ((2, 1, 1), 1, minus)])
    beam = BeamMeasurement(np.array([3.5, 1.5, 1.5]), np.array([-1.0, 0.0, 0.0]), 4.0, None, 4.0)
    return tree, [beam], [((0, 0, 0), (4, 2, 3)), ((1, 1, 1), (1, 4, 4)), ((0, 0, 0), (4, 4, 4))]


@given(case=leaf_table_case())
@example(case=_signed_zero_leaf_case())
@settings(max_examples=150, deadline=None)
def test_leaf_table_reads_equal_the_element_loop(case):
    """The batch reads served from the leaf table against one root descent
    per element: ``encode_traces`` against the stacked ``encode_trace`` runs
    (widths, and chi bytes, so signed zeros count), ``labels_observed``
    against each element's belief, ``map_state`` against ``leaf_sums`` bit
    for bit."""
    tree, beams, boxes = case
    k = tree.num_classes
    traces = [tree.cast_ray(beam) for beam in beams]
    runs, counts = tree.encode_traces(*stacked_casts(traces))
    want = [tree.encode_trace(trace.cells[1:]) for trace in traces]
    assert counts == [0 if ray is None else ray.num_runs for ray in want]
    want = [ray for ray in want if ray is not None]
    if not want:
        assert runs is None
    else:
        assert runs.widths.tolist() == np.concatenate([ray.widths for ray in want]).tolist()
        assert runs.chi_t.tobytes() == np.concatenate([ray.chi_t for ray in want]).tobytes()
        assert runs.chi_0.tobytes() == np.concatenate([ray.chi_0 for ray in want]).tobytes()
    for box in boxes:
        labels, observed = tree.labels_observed(box)
        assert labels.shape == observed.shape == tuple(hi - lo for lo, hi in zip(*box))
        for rel in np.ndindex(labels.shape):
            sem = tree.query_element(tuple(lo + r for lo, r in zip(box[0], rel)))
            assert labels[rel] == np.argmax(sem.to_full(k))
            assert observed[rel] == (sem != tree.prior_semantics)
        assert tree.map_state(box) == leaf_sums(tree, box)
    assert tree.map_state() == leaf_sums(tree, ((0, 0, 0), tree.dims))


def test_signed_zero_case_keeps_the_first_elements_bits():
    tree, beams, _ = _signed_zero_leaf_case()
    first = next(sem for sem, _, _ in tree.iter_leaves() if sem.data[0] == (1, 1.5))
    assert math.copysign(1.0, first.data[1][1]) == 1.0  # the walk meets +0.0 first
    runs, counts = tree.encode_traces(*stacked_casts([tree.cast_ray(beams[0])]))
    assert counts == [1] and runs.widths.tolist() == [3]  # x = 2, 1, 0 under ==
    assert math.copysign(1.0, runs.chi_t[0, 2]) == -1.0  # x = 2 holds -0.0


@given(case=leaf_table_case())
@example(case=_signed_zero_leaf_case())
@settings(max_examples=100, deadline=None)
def test_compact_fan_cast_encodes_as_the_stacked_ray_traces(case):
    """The reference ``cast_fan`` keeps the cells past each beam's sensor cell as one
    int32 array and per-beam counts; on the tree and on its dense grid
    (``grid_from_octree``), ``encode_traces`` on that compact form gives the
    widths, chi bytes and counts it gives on the stacked ``RayTrace`` s.
    Every case holds a beam whose trace is only its sensor cell; the random
    3-D rays often leave the cube."""
    tree, beams, _ = case
    beams = beams + [BeamMeasurement(np.array([0.5, 0.5, 0.5]), np.array([-1.0, 0.0, 0.0]),
                                     4.0, None, 4.0)]
    for mapper in (tree, grid_from_octree(tree)):
        fan = cast_fan(mapper, beams)
        cells, counts = stacked_casts([mapper.cast_ray(beam) for beam in beams])
        assert fan.cells.dtype == np.int32 and fan.counts[-1] == 0
        assert fan.counts == tuple(counts) and np.array_equal(fan.cells, cells)
        got, got_counts = mapper.encode_traces(fan.cells, fan.counts)
        want, want_counts = mapper.encode_traces(cells, counts)
        assert got_counts == want_counts
        if want is None:
            assert got is None
            continue
        assert got.widths.tolist() == want.widths.tolist()
        assert got.chi_t.tobytes() == want.chi_t.tobytes()
        assert got.chi_0.tobytes() == want.chi_0.tobytes()


def _pose_fan_case(dims, size, origin, center, num_beams, max_range, heading, fov):
    """A world of ``dims`` cells of edge ``size`` at ``origin``, as a grid and
    as an octree whose cube (16 elements a side) is larger than the world,
    and a planar fan; ``center`` is in cell units of the world."""
    grid = GridMap(dims, size, 3, origin=origin)
    tree = SemanticOctree(size, 4, 3, origin=origin)
    center = [o + c * size for o, c in zip(origin, center)]
    return (grid, tree), (center, num_beams, max_range, heading, fov)


@st.composite
def pose_fan_case(draw):
    """Centers on cell faces, edges and corners (integer and half-integer
    cell coordinates) or anywhere; along x up to one cell past the world on
    either side, so some lie outside the grid, the cube, or both; headings on the axes
    and diagonals or anywhere; 1 to 32 beams over a fov in (0, 2 pi];
    ranges from zero to under one cell, or past both maps."""
    size = draw(st.sampled_from([1.0, 0.5, 0.3]), label="cell size")
    origin = [draw(st.sampled_from([0.0, -1.5, 2.25])) for _ in range(3)]
    dims = (draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    center = [draw(st.integers(2 * lo, 2 * n + 2 * lo).map(lambda h: h / 2.0)
                   | st.floats(lo, n + lo, exclude_max=True))
              for lo, n in zip((-1, 0, 0), (dims[0] + 2, dims[1], dims[2]))]
    heading = draw(st.integers(-8, 8).map(lambda k: k * math.pi / 4.0) | st.floats(-7.0, 7.0))
    fov = draw(st.just(2.0 * math.pi) | st.floats(0.0, 2.0 * math.pi, exclude_min=True))
    max_range = draw(st.floats(0.0, 0.99 * size) | st.floats(size, 40.0 * size))
    return _pose_fan_case(dims, size, origin, center, draw(st.integers(1, 32)), max_range,
                          heading, fov)


@given(case=pose_fan_case())
# every beam leaves the grid from its sensor cell (counts all 0), and in the
# tree's cube crosses into a second element only past the grid's edge
@example(case=_pose_fan_case((4, 4, 1), 1.0, [0.0] * 3, [0.0, 0.0, 0.5], 8, 0.5, math.pi,
                             math.pi / 2.0))
# outside the grid and the cube: below the low corner
@example(case=_pose_fan_case((4, 4, 1), 0.5, [-1.5] * 3, [-0.5, 2.0, 0.5], 4, 3.0, 0.0, 1.0))
# outside the grid on its far face, inside the cube
@example(case=_pose_fan_case((4, 3, 1), 1.0, [0.0] * 3, [4.0, 1.5, 0.5], 16, 20.0,
                             math.pi / 4.0, 2.0 * math.pi))
@settings(max_examples=300, deadline=None)
def test_fan_cast_from_a_pose_equals_casting_its_beams(case):
    """``FanCast.from_pose`` gives the bytes of ``cast_fan`` over
    ``fan_beams`` (cells, dtype, shape and counts) on a grid and on an
    octree larger than it, and raises ``OriginOutOfBounds`` with the same
    message where casting the beams does."""
    mappers, fan = case
    for mapper in mappers:
        try:
            want = cast_fan(mapper, fan_beams(*fan))
        except OriginOutOfBounds as exc:
            with pytest.raises(OriginOutOfBounds, match=re.escape(str(exc))):
                FanCast.from_pose(mapper, *fan)
            continue
        got = FanCast.from_pose(mapper, *fan)
        assert got.counts == want.counts
        assert got.cells.dtype == want.cells.dtype == np.int32
        assert got.cells.shape == want.cells.shape
        assert got.cells.tobytes() == want.cells.tobytes()


def test_fan_cast_from_a_pose_checks_what_its_beams_check():
    """The examples above do reach their edge cases, and a pose fan refuses
    what a beam refuses: a negative or NaN range, a center that is not a
    3-vector."""
    (grid, tree), fan = _pose_fan_case((4, 4, 1), 1.0, [0.0] * 3, [0.0, 0.0, 0.5], 8, 0.5,
                                       math.pi, math.pi / 2.0)
    assert FanCast.from_pose(grid, *fan).counts == (0,) * 8
    assert FanCast.from_pose(tree, *fan).counts == (0,) * 8
    below, fan = _pose_fan_case((4, 4, 1), 0.5, [-1.5] * 3, [-0.5, 2.0, 0.5], 4, 3.0, 0.0, 1.0)
    for mapper in below:
        with pytest.raises(OriginOutOfBounds):
            FanCast.from_pose(mapper, *fan)
    (far_grid, far_tree), fan = _pose_fan_case((4, 3, 1), 1.0, [0.0] * 3, [4.0, 1.5, 0.5], 16,
                                               20.0, 0.0, 1.0)
    with pytest.raises(OriginOutOfBounds):
        FanCast.from_pose(far_grid, *fan)
    assert len(FanCast.from_pose(far_tree, *fan)) == 16
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="range"):
            FanCast.from_pose(grid, [1.5, 1.5, 0.5], 4, bad)
    with pytest.raises(ValueError, match="3-vectors"):
        FanCast.from_pose(grid, [1.5, 1.5], 4, 2.0)


def table_builds(caplog, tree):
    """The leaf table builds logged so far; each line's leaf count is
    checked against the tree as it is now, so call after every read."""
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("leaf table")]
    for line in lines:
        assert re.fullmatch(r"leaf table: \d+ leaves, \d+ beliefs, "
                            r"(full|patched|patched and compacted), "
                            r"\d+ leaves walked, \d+\.\d{3} ms", line)
    if lines:
        assert lines[-1].split()[2] == str(tree.num_leaves())
    return len(lines)


def read_all(tree, beam):
    """The three batch reads of a planning cycle."""
    tree.labels_observed(((0, 0, 0), tree.dims))
    tree.map_state()
    tree.encode_traces(*stacked_casts([tree.cast_ray(beam)]))


def test_leaf_table_is_rebuilt_only_after_the_tree_changes(params3, caplog, tmp_path):
    """One build serves every read until an element write, a collapsing
    prune or a new root; a scan that changes no element keeps the table."""
    tree = SemanticOctree(1.0, 3, 3)
    beam = BeamMeasurement.planar((0.0, 3.5), 0.0, 5.5, 2, 8.0, z=3.5)
    with caplog.at_level(logging.DEBUG, logger="ssmi.octree"):
        read_all(tree, beam)
        read_all(tree, beam)
        assert table_builds(caplog, tree) == 1
        tree.insert_scan([beam], params3)
        read_all(tree, beam)
        assert table_builds(caplog, tree) == 2
        for _ in range(40):  # until the clamp stops every element changing
            caplog.clear()
            tree.insert_scan([beam], params3)
            read_all(tree, beam)
            if ", 0 changed," in caplog.records[0].getMessage():
                break
        assert table_builds(caplog, tree) == 0
        caplog.clear()
        tree.set_element((6, 6, 6), tree.prior)  # the value it holds
        read_all(tree, beam)
        assert table_builds(caplog, tree) == 0
        h = np.array([0.0, 2.0, -1.0, -1.0])
        for cell in itertools.product((6, 7), repeat=3):
            tree.set_element(cell, h)
            read_all(tree, beam)
        assert table_builds(caplog, tree) == 8
        leaves = tree.num_leaves()
        assert tree.prune() == 1
        read_all(tree, beam)
        assert table_builds(caplog, tree) == 9
        assert tree.num_leaves() == leaves - 7
        assert tree.prune() == 0
        read_all(tree, beam)
        assert table_builds(caplog, tree) == 9
        save_octree(tree, tmp_path / "t.ssmioct")
        back = load_octree(tmp_path / "t.ssmioct")
        read_all(back, beam)
        assert table_builds(caplog, back) == 10
        tree.root = SemanticNode(tree.prior_semantics)
        read_all(tree, beam)
        assert table_builds(caplog, tree) == 11
        assert tree.map_state() == leaf_sums(tree, ((0, 0, 0), tree.dims))


def assert_table_is_the_reference(tree):
    """The tree's leaf table against a walk over all its leaves: the same
    leaves (starts, corners, sizes), each leaf's row bit for bit, and the
    same ``==`` classes, whichever ids stand for them."""
    got, want = tree.leaf_table(), leaf_table_reference(tree)
    for name in ("starts", "corners", "sizes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("full", "entropy", "observed"):
        assert (getattr(got, name)[got.ids].tobytes()
                == getattr(want, name)[want.ids].tobytes()), name

    def classes(table):  # per leaf, the first leaf holding a belief == to its own
        _, first, inverse = np.unique(table.same[table.ids], return_index=True,
                                      return_inverse=True)
        return first[inverse]

    assert classes(got).tolist() == classes(want).tolist()


def scan_beam(draw, n, k):
    """A 3-D beam from anywhere in a cube of edge ``n``, most of them hits."""
    component = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    d = [draw(component) for _ in range(3)]
    assume(any(abs(v) > 1e-3 for v in d))
    r_max = float(n)
    r = draw(st.floats(0.0, r_max) | st.just(r_max))
    cat = draw(st.integers(1, k)) if r < r_max else None
    origin = [draw(st.floats(0.0, n, exclude_max=True)) for _ in range(3)]
    return BeamMeasurement(np.array(origin), np.array(d), r, cat, r_max)


@st.composite
def table_history(draw):
    """A tree of depth 2-4 at K = 3 or 5 and the changes made to it, each
    followed or not by a table read: scans (a low clamp saturates cells, so
    paths prune), ``set_element`` and block writes of beliefs holding both
    signed zeros, whole-tree prunes, a new root, a save and load."""
    k = draw(st.sampled_from([3, 5]), label="k")
    depth = draw(st.integers(2, 4), label="depth")
    n = 1 << depth
    params = SensorParams.default(k, clamp_limit=draw(st.sampled_from([1.0, 2.5, 6.0])))
    cell = st.tuples(*[st.integers(0, n - 1)] * 3)
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["scan", "scan", "set", "block", "prune", "root", "load"]))
        if kind == "scan":
            arg = [scan_beam(draw, n, k) for _ in range(draw(st.integers(1, 6)))]
        elif kind == "set":
            arg = (draw(cell), np.array([0.0] + [draw(SIGNED) for _ in range(k)]))
        elif kind == "block":
            size = 1 << draw(st.integers(0, depth - 1))
            classes = draw(st.permutations(range(1, k + 1)))[:3]
            sem = TruncatedSemantics(TruncatedSemantics._sorted((c, draw(SIGNED)) for c in classes),
                                     draw(SIGNED) if k > 3 else NEG_INF)
            arg = ([draw(st.integers(0, n // size - 1)) * size for _ in range(3)], size, sem)
        else:
            arg = None
        steps.append((kind, arg, draw(st.booleans())))
    return SemanticOctree(1.0, depth, k), params, steps


@given(case=table_history())
@settings(max_examples=120, deadline=None)
def test_patched_leaf_table_equals_a_full_build(case, tmp_path_factory):
    """Reads after element writes and pruning collapses patch the table;
    after every read, and at the end, it equals a walk over all the leaves."""
    tree, params, steps = case
    for kind, arg, read in steps:
        if kind == "scan":
            tree.insert_scan(arg, params)
        elif kind == "set":
            tree.set_element(*arg)
        elif kind == "block":
            corner, size, sem = arg
            for cell in itertools.product(*(range(c, c + size) for c in corner)):
                tree._write_element(cell, lambda _: sem)
        elif kind == "prune":
            tree.prune()
        elif kind == "root":
            tree.root = SemanticNode(tree.prior_semantics)
        else:
            path = tmp_path_factory.mktemp("load") / "t.ssmioct"
            save_octree(tree, path)
            tree = load_octree(path)
        if read:
            assert_table_is_the_reference(tree)
    assert_table_is_the_reference(tree)


def test_full_and_compacted_tables_are_the_reference_down_to_ids(caplog, tmp_path):
    """Scans intern beliefs that later scans overwrite; once those outnumber
    the beliefs the leaves hold, a patch compacts them. A compacted table,
    like a full build after a load, is the reference walk itself: the same
    ids and ``same``, not only the same classes."""
    # far bounds, and beams that cross most of a small cube: every scan moves
    # many elements to beliefs no element held before
    params = SensorParams.default(3, clamp_limit=40.0)
    rng = np.random.default_rng(11)
    tree = SemanticOctree(1.0, 2, 3)
    hows = []

    def assert_exact(tree):
        got, want = tree.leaf_table(), leaf_table_reference(tree)
        for name in ("ids", "full", "same", "entropy", "observed"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    with caplog.at_level(logging.DEBUG, logger="ssmi.octree"):
        for _ in range(30):
            caplog.clear()
            tree.insert_scan([random_beam(rng, 0.5, 3.5, r_max=6.0) for _ in range(6)], params)
            assert_table_is_the_reference(tree)
            (line,) = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("leaf table")]
            hows.append(line.split(", ")[2])
            if hows[-1] != "patched":
                assert_exact(tree)
        save_octree(tree, tmp_path / "t.ssmioct")
        assert_exact(load_octree(tmp_path / "t.ssmioct"))
    assert hows[0] == "full" and {"patched", "patched and compacted"} <= set(hows[1:])


@st.composite
def memo_scan_case(draw):
    """Parameters at K = 1, 2, 3 (any per class) or 5 (class-uniform) drawn
    around shared edge values, so updates land on and past the clamp bounds
    and on both signed zeros; a tree of depth 2-3 painted with beliefs near
    those values; and scans of 3-D beams, most of them hits."""
    k = draw(st.sampled_from([1, 2, 3, 5]), label="k")
    lumped = k > 3
    if lumped:
        lo_, hi_ = sorted((draw(LOGODDS), draw(LOGODDS)))
        assume(lo_ < hi_)
        bounds = [(lo_, hi_)] * k

        def vec():
            return np.array([0.0] + [draw(LOGODDS)] * k)
    else:
        bounds = [sorted((draw(LOGODDS), draw(LOGODDS))) for _ in range(k)]
        assume(all(a < b for a, b in bounds))

        def vec():
            return np.array([0.0] + [draw(LOGODDS) for _ in range(k)])
    params = SensorParams(
        phi_plus=vec(), phi_minus=vec(), psi_plus=vec(),
        clamp_lo=np.array([0.0] + [a for a, _ in bounds]),
        clamp_hi=np.array([0.0] + [b for _, b in bounds]),
    )
    prior = vec()
    near = LOGODDS | st.sampled_from([v for ab in bounds for v in ab])
    depth = draw(st.integers(2, 3), label="depth")
    n = 1 << depth
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        classes = draw(st.permutations(range(1, k + 1)))[:3]
        sem = TruncatedSemantics(TruncatedSemantics._sorted((c, draw(near)) for c in classes),
                                 draw(near) if lumped else NEG_INF)
        size = 1 << draw(st.integers(0, depth - 1))
        blocks.append(([draw(st.integers(0, n // size - 1)) * size for _ in range(3)], size, sem))
    scans = [[scan_beam(draw, n, k) for _ in range(draw(st.integers(1, 6)))]
             for _ in range(draw(st.integers(1, 4)))]
    return k, depth, prior, blocks, params, scans


@given(case=memo_scan_case())
@settings(max_examples=200, deadline=None)
def test_memoized_scan_is_the_per_element_loop_bit_for_bit(case, tmp_path_factory):
    """``insert_scan`` against ``insert_scan_reference`` on two copies of a
    painted tree: after every scan the saved bytes are equal, and so every
    element's bits, signed zeros and ties at a bound included."""
    k, depth, prior, blocks, params, scans = case
    trees = [SemanticOctree(1.0, depth, k, prior=prior) for _ in range(2)]
    for tree in trees:
        paint(tree, blocks)
    path = tmp_path_factory.mktemp("memo")
    for scan in scans:
        trees[0].insert_scan(scan, params)
        insert_scan_reference(trees[1], scan, params)
        assert saved_bytes(trees[0], path) == saved_bytes(trees[1], path)


def assert_one_object_per_value(tree):
    objects: dict = {}
    for sem, _, _ in tree.iter_leaves():
        objects.setdefault(_exact_key(sem), set()).add(id(sem))
    assert all(len(ids) == 1 for ids in objects.values())
    return len(objects)


def test_tree_holds_one_object_per_exact_belief(a7_octree_tree, params3, rng, tmp_path):
    """Writes, prunes and loads intern what they store: leaves equal bit for
    bit are one object, while the two signed zeros stay two."""
    assert assert_one_object_per_value(a7_octree_tree) > 1
    tree = SemanticOctree(1.0, 4, 3)
    for _ in range(20):
        tree.insert_scan([random_beam(rng, 1.0, 15.0, r_max=10.0) for _ in range(5)], params3)
    plus, minus = np.array([0.0, 1.5, 0.0, -2.0]), np.array([0.0, 1.5, -0.0, -2.0])
    for cell in itertools.product(range(2), repeat=3):
        tree.set_element(cell, plus if sum(cell) % 2 else minus)
    tree.set_element((8, 8, 8), plus)
    assert assert_one_object_per_value(tree) > 2
    assert tree.query_element((0, 0, 1)) is tree.query_element((8, 8, 8))
    assert tree.query_element((0, 0, 0)) is not tree.query_element((0, 0, 1))
    save_octree(tree, tmp_path / "t.ssmioct")
    assert_one_object_per_value(load_octree(tmp_path / "t.ssmioct"))


def test_concurrent_reads_after_a_scan_all_see_the_scanned_tree(params3):
    """Readers racing to bring the table up to date after a scan, more of
    them than cores and switching often, each read the scanned tree."""
    rng = np.random.default_rng(5)
    tree = SemanticOctree(1.0, 4, 3)
    tree.leaf_table()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            tree.insert_scan([random_beam(rng, 1.0, 15.0, r_max=10.0) for _ in range(8)], params3)
            results = []
            readers = [threading.Thread(target=lambda: results.append(tree.map_state()))
                       for _ in range(16)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
            assert not any(reader.is_alive() for reader in readers)
            assert results == [leaf_sums(tree, ((0, 0, 0), tree.dims))] * len(readers)
    finally:
        sys.setswitchinterval(interval)


def test_a7_octree_episode_is_byte_identical_on_the_references(tmp_path, monkeypatch):
    """World 0 of the A7 config on the octree writes the same bytes with the
    per-element scan and a leaf table walked in full on every read."""
    from ssmi import cli

    config = tmp_path / "a7.json"
    config.write_text(json.dumps({"mapper": {"type": "octree"}, "run": {"explored_stop": 0.9}}))

    def explore(out):
        assert cli.main(["explore", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
        return {name: (out / name).read_bytes() for name in (
            "metrics.csv", "plans.txt", "summary.json", "final_map.ssmioct", "env_truth.ssmigrid")}

    fast = explore(tmp_path / "fast")
    monkeypatch.setattr(SemanticOctree, "insert_scan", insert_scan_reference)
    monkeypatch.setattr(SemanticOctree, "leaf_table", leaf_table_reference)
    assert explore(tmp_path / "reference") == fast


# -- grid agreement at scale ---------------------------------------------------------


def test_grid_octree_bit_agreement(params3, rng):
    gmap = GridMap((16, 16, 16), 1.0, 3)
    tree = SemanticOctree(1.0, 4, 3)
    for _ in range(60):
        beam = random_beam(rng, 1.0, 15.0, r_max=12.0)
        gmap.integrate(beam, params3)
        tree.insert_scan([beam], params3)
    for i in range(16):
        for j in range(16):
            for k in range(16):
                np.testing.assert_array_equal(
                    tree.query_element((i, j, k)).to_full(3), gmap.cells[i, j, k]
                )


def leaf_sums(tree, box):
    """Entropy and observed fraction over a box, summed leaf by leaf in
    preorder with each belief's entropy computed afresh."""
    entropy = 0.0
    seen = total = 0
    for sem, low, size in tree.iter_leaves():
        n = 1
        for i in range(3):
            n *= max(0, min(low[i] + size, box[1][i]) - max(low[i], box[0][i]))
        if n:
            entropy += n * sem.entropy()
            total += n
            seen += n if sem != tree.prior_semantics else 0
    return entropy, (seen / total if total else 0.0)


def test_map_entropy_and_observed_fraction_match_leaf_sums(params3, rng):
    tree = SemanticOctree(1.0, 5, 3)
    for _ in range(30):
        tree.insert_scan([random_beam(rng)], params3)
    for box in (((0, 0, 0), (32, 32, 32)), ((3, 0, 5), (29, 17, 6)), ((4, 4, 4), (4, 9, 9))):
        entropy, fraction = leaf_sums(tree, box)
        assert tree.map_entropy(box) == entropy  # same summation order, bit for bit
        assert tree.observed_fraction(box) == fraction
        labels, observed = tree.labels_observed(box)
        assert labels.shape == observed.shape == tuple(hi - lo for lo, hi in zip(*box))
        for rel in np.ndindex(labels.shape):
            sem = tree.query_element(tuple(lo + r for lo, r in zip(box[0], rel)))
            assert labels[rel] == np.argmax(sem.to_full(3))
            assert observed[rel] == (sem != tree.prior_semantics)
    with pytest.raises(ValueError):
        tree.labels_observed(((0, 0, 0), (33, 1, 1)))


def test_map_state_is_both_aggregates_on_either_map(params3, rng):
    gmap = GridMap((20, 18, 6), 1.0, 3)
    tree = SemanticOctree(1.0, 5, 3)
    boxes = (None, ((0, 0, 0), (20, 18, 6)), ((3, 2, 1), (17, 9, 4)), ((4, 4, 4), (4, 9, 6)))
    for _ in range(6):
        scan = [random_beam(rng, 1.0, 5.0) for _ in range(8)]
        gmap.insert_scan(scan, params3)
        tree.insert_scan(scan, params3)
        for _ in range(2):  # the second pass reads the octree's belief cache
            for box in boxes:
                for m in (gmap, tree):
                    assert m.map_state(box) == (m.map_entropy(box), m.observed_fraction(box))
                assert tree.map_state(box) == leaf_sums(tree, box or ((0, 0, 0), tree.dims))
    assert 0.0 < tree.observed_fraction() < 1.0


@pytest.mark.parametrize("kind", ["grid", "octree"])
def test_aggregates_reject_boxes_outside_the_map(kind, params3):
    m = GridMap((8, 8, 8), 1.0, 3) if kind == "grid" else SemanticOctree(1.0, 3, 3)
    m.insert_scan([BeamMeasurement.planar((0.5, 3.5), 0.0, 6.5, 2, 9.0, z=3.5)], params3)
    inverted = ((4, 0, 0), (2, 8, 8))
    past_extent = ((0, 0, 0), (12, 12, 12))
    negative_corner = ((-2, 0, 0), (4, 4, 4))
    for box in (inverted, past_extent, negative_corner):
        for query in (m.map_state, m.map_entropy, m.observed_fraction):
            with pytest.raises(ValueError):
                query(box)
    assert m.map_state(((2, 2, 2), (2, 5, 5))) == (0.0, 0.0)


def test_grid_and_octree_answer_the_shared_calls_alike(params3):
    """The same A4-style scans into a grid and a K=3 octree whose cube is
    larger than the grid, both through ``insert_scan``: after every scan the
    world box and a z band agree on labels and observed flags (exactly), on
    the observed fraction (exactly) and on entropy (the summation orders
    differ). Beams leaving the grid go on through the cube, but the world
    box sees the same cell sequence in both."""
    rng = np.random.default_rng(405)
    dims = (24, 20, 12)
    gmap = GridMap(dims, 1.0, 3)
    tree = SemanticOctree(1.0, 5, 3)
    boxes = (((0, 0, 0), dims), ((0, 0, 4), (24, 20, 8)))
    for _ in range(20):
        scan = []
        for _ in range(10):
            origin = rng.uniform(1.0, np.array(dims) - 1.0)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            r = float(rng.uniform(0.5, 16.0)) if rng.random() < 0.8 else 16.0
            cat = int(rng.integers(1, 4)) if r < 16.0 else None
            scan.append(BeamMeasurement(origin, d, r, cat, 16.0))
        assert gmap.insert_scan(scan, params3) is gmap
        tree.insert_scan(scan, params3)
        for box in boxes:
            g_labels, g_observed = gmap.labels_observed(box)
            t_labels, t_observed = tree.labels_observed(box)
            assert (g_labels == t_labels).all() and (g_observed == t_observed).all()
            assert gmap.observed_fraction(box) == tree.observed_fraction(box)
            assert gmap.map_entropy(box) == pytest.approx(tree.map_entropy(box), rel=1e-10)
    assert 0.05 < gmap.observed_fraction() < 0.95
    assert len(np.unique(gmap.labels_observed(boxes[0])[0])) == 4


# -- serialization and conversion ------------------------------------------------------

DATA = Path(__file__).parent / "data"


def saved_bytes(tree, tmp_path, name="t.ssmioct"):
    path = tmp_path / name
    save_octree(tree, path)
    return path.read_bytes()


def leaves(tree):
    return list(tree.iter_leaves())


def test_octree_serialization_roundtrip(tmp_path, params3, rng):
    tree = SemanticOctree(0.5, 4, 3)  # cube spans [0, 8) meters
    for _ in range(20):
        beam = random_beam(rng, 1.5, 6.5, r_max=6.0)
        tree.insert_scan([beam], params3)
    path = tmp_path / "tree.ssmioct"
    save_octree(tree, path)
    first = path.read_bytes()
    save_octree(tree, path)
    assert path.read_bytes() == first  # byte-stable
    back = load_octree(path)
    assert back.max_depth == tree.max_depth
    assert back.element_size == tree.element_size
    assert back.num_leaves() == tree.num_leaves()
    assert leaves(back) == leaves(tree)
    save_octree(back, tmp_path / "again.ssmioct")
    assert (tmp_path / "again.ssmioct").read_bytes() == first


def test_grid_octree_conversion(params3, rng):
    gmap = GridMap((8, 8, 8), 1.0, 3)
    for _ in range(15):
        gmap.integrate(random_beam(rng, 1.0, 7.0, r_max=6.0), params3)
    tree = octree_from_grid(gmap)
    for _ in range(100):
        cell = tuple(rng.integers(0, 8, 3))
        np.testing.assert_array_equal(
            tree.query_element(cell).to_full(3), gmap.cells[cell]
        )
    back = grid_from_octree(tree)
    np.testing.assert_array_equal(back.cells, gmap.cells)


def test_tied_pairs_keep_their_saved_order(tmp_path):
    """Files written while a lumped update clamped after it sorted can hold
    two tracked classes tied at the clamp out of class order; a load keeps
    that order, so the loaded belief still equals the saved one."""
    tree = SemanticOctree(1.0, 2, 5)
    tied = TruncatedSemantics(data=((5, 4.0), (3, 4.0), (1, 2.87)), others=3.5)
    assert TruncatedSemantics._sorted(tied.data) != tied.data
    tree._write_element((1, 2, 3), lambda _: tied)
    path = tmp_path / "t.ssmioct"
    save_octree(tree, path)
    assert load_octree(path).query_element((1, 2, 3)) == tied


def test_save_octree_leaves_tree_unchanged(params3, rng, tmp_path):
    """Saving only reads the tree; an inner node holds no belief before or
    after."""

    def structure(node):
        kids = node.children
        return node.semantics, None if kids is None else tuple(structure(c) for c in kids)

    tree = SemanticOctree(1.0, 4, 3)
    tree.insert_scan([random_beam(rng, 1.0, 15.0, r_max=10.0) for _ in range(10)], params3)
    assert tree.root.children is not None and tree.root.semantics is None
    before = structure(tree.root)
    save_octree(tree, tmp_path / "t.ssmioct")
    assert structure(tree.root) == before


def scanned_tree(k, clamp_limit, scans=12):
    """Scans that alternate between two origins into a fresh tree, so cells
    are revisited often enough to saturate."""
    params = SensorParams.default(k, clamp_limit=clamp_limit)
    rng = np.random.default_rng(0)
    origins = [rng.uniform(3.0, 13.0, 3) for _ in range(2)]
    tree = SemanticOctree(1.0, 4, k)
    for i in range(scans):
        origin = origins[i % 2]
        beams = [random_beam(rng, r_max=10.0, k=k) for _ in range(10)]
        tree.insert_scan([
            BeamMeasurement(origin, b.direction, b.range, b.category, b.max_range) for b in beams
        ], params)
    return tree, params


@pytest.mark.parametrize("k,clamp_limit", [(3, 12.0), (5, 4.0)])
def test_loaded_tree_scans_like_original(tmp_path, k, clamp_limit):
    """A saved and reloaded tree takes further scans to the same leaves and
    the same file as the tree kept in memory."""
    tree, params = scanned_tree(k, clamp_limit)
    path = tmp_path / "t.ssmioct"
    save_octree(tree, path)
    back = load_octree(path)
    rng = np.random.default_rng(99)
    beams = [random_beam(rng, 3.0, 13.0, r_max=10.0, k=k) for _ in range(10)]
    tree.insert_scan(beams, params)
    back.insert_scan(beams, params)
    assert leaves(back) == leaves(tree)
    assert saved_bytes(back, tmp_path, "back.ssmioct") == saved_bytes(tree, tmp_path)


@pytest.mark.parametrize("k,clamp_limit", [(5, 4.0), (3, 12.0)])
def test_episode_tree_save_load_save_is_byte_stable(tmp_path, k, clamp_limit):
    config = config_from_dict({
        "seed": 3,
        "env": {"profile": "random", "dims": [16, 16], "num_classes": k},
        "sensor": {"num_beams": 24, "r_max": 8.0},
        "planner": {"num_beams": 8, "beam_range": 8.0},
        "mapper": {"type": "octree", "clamp_limit": clamp_limit},
        "run": {"max_steps": 4},
    })
    tree = run_episode(config).mapper
    first = saved_bytes(tree, tmp_path)
    back = load_octree(tmp_path / "t.ssmioct")
    assert leaves(back) == leaves(tree)
    assert saved_bytes(back, tmp_path, "again.ssmioct") == first


def test_a7_episode_tree_file_is_lossless(tmp_path, a7_octree_tree):
    first = saved_bytes(a7_octree_tree, tmp_path)
    back = load_octree(tmp_path / "t.ssmioct")
    assert leaves(back) == leaves(a7_octree_tree)
    assert saved_bytes(back, tmp_path, "again.ssmioct") == first


@pytest.mark.parametrize("name", ["v1_k3_fold", "v1_k5_mean"])
def test_v1_file_loads_to_the_leaves_it_held(tmp_path, name):
    """Version 1 files (f32 beliefs plus fused inner-node summaries, here one
    K=3 tree fused by the pairwise fold and one K=5 tree fused by the mean)
    written by the last version-1 writer. Each loads to the leaves that
    writer's own loader returned, stored beside it as hex floats, and
    re-saves as a lossless version 2 file."""
    want = json.loads((DATA / f"{name}.leaves.json").read_text())
    tree = load_octree(DATA / f"{name}.ssmioct")
    assert tree.element_size == want["element_size"]
    assert tree.max_depth == want["max_depth"]
    assert tree.num_classes == want["num_classes"]
    assert tree.origin.tolist() == want["origin"]
    assert [float(v).hex() for v in tree.prior] == want["prior"]
    got = [
        [list(low), size, [[c, v.hex()] for c, v in sem.data], sem.others.hex()]
        for sem, low, size in tree.iter_leaves()
    ]
    assert got == want["leaves"]
    assert saved_bytes(tree, tmp_path)[:8] == OCTREE_MAGIC
    assert leaves(load_octree(tmp_path / "t.ssmioct")) == leaves(tree)


def grid_from_octree_reference(tree, dims):
    """One root descent per element."""
    gmap = GridMap(dims, tree.element_size, tree.num_classes, tree.prior, tree.origin)
    for i, j, k in np.ndindex(gmap.dims):
        sem = tree.query_element((i, j, k))
        gmap.cells[i, j, k] = sem.to_full(tree.num_classes)
        gmap.observed[i, j, k] = sem != tree.prior_semantics
    return gmap


@pytest.mark.parametrize("k", [3, 5])
def test_grid_from_octree_matches_element_loop(k):
    tree, _ = scanned_tree(k, 6.0, scans=4)
    for dims in (None, (13, 9), (16, 5, 11)):
        got = grid_from_octree(tree, dims)
        want = grid_from_octree_reference(tree, dims if dims is not None else tree.dims)
        assert got.dims == want.dims
        assert got.cells.tobytes() == want.cells.tobytes()
        assert (got.observed == want.observed).all()
    assert 0.0 < want.observed.mean() < 1.0


# -- malformed files -----------------------------------------------------------------


def layout(b: bytes) -> dict:
    """Byte offsets in a K=3 file of either version: ``origin`` is where the
    origin starts, ``header`` where the root's record starts, and ``count``
    the tracked count of the first record holding a belief (v1: the root's
    summary; v2: the first leaf)."""
    v1 = b[:8] == OCTREE_MAGIC_V1
    origin = 8 + (12 if v1 else 11)
    header = origin + 24 + (4 if v1 else 8) * 4
    count = header + 5 if v1 else b.index(0, header) + 1
    return {"origin": origin, "header": header, "count": count}


@pytest.fixture(scope="module")
def saved_tree_bytes(tmp_path_factory):
    """Depth-3, K=3 trees as file bytes: version 2 written here, version 1
    from a committed fixture."""
    params = SensorParams.default(3)
    rng = np.random.default_rng(7)
    tree = SemanticOctree(1.0, 3, 3)
    tree.insert_scan([random_beam(rng, 1.0, 7.0, r_max=6.0) for _ in range(6)], params)
    path = tmp_path_factory.mktemp("oct") / "t.ssmioct"
    save_octree(tree, path)
    return {"v2": path.read_bytes(), "v1": (DATA / "v1_k3_fold.ssmioct").read_bytes()}


def element_size(value: float):
    return lambda b, at: b[:8] + struct.pack("<d", value) + b[16:]


@pytest.mark.parametrize(
    "patch,match",
    [
        (lambda b, at: b[:-1], "truncated"),
        (lambda b, at: b[:at["header"] - 3], "truncated"),
        (lambda b, at: b + b"\0", "trailing"),
        (lambda b, at: b[:16] + bytes([2]) + b[17:], "deeper than max_depth"),
        (lambda b, at: b[:16] + bytes([17]) + b[17:], "max_depth"),
        (lambda b, at: b[:at["count"]] + bytes([4]) + b[at["count"] + 1:], "at most 3"),
        (
            lambda b, at: b[:at["count"] + 1] + (9).to_bytes(2, "little") + b[at["count"] + 3:],
            "1..3",
        ),
        (lambda b, at: b[:at["header"]] + bytes([0x0F]) + b[at["header"] + 1:], "child mask"),
        (lambda b, at: b"SSMIGRD1" + b[8:], "not an octree file"),
        (element_size(0.0), "size 0.0 is not positive"),
        (element_size(-1.0), "size -1.0 is not positive"),
        (element_size(math.nan), "size nan is not positive"),
        (element_size(math.inf), "size inf is not positive"),
        (lambda b, at: b[:at["origin"]] + struct.pack("<d", math.nan) + b[at["origin"] + 8:],
         "origin"),
    ],
)
def test_loader_rejects_malformed_file(tmp_path, saved_tree_bytes, patch, match):
    path = tmp_path / "bad.ssmioct"
    for good in saved_tree_bytes.values():
        path.write_bytes(patch(good, layout(good)))
        with pytest.raises(CorruptMap, match=match):
            load_octree(path)


@pytest.mark.parametrize(
    "version,offset,value,match",
    [
        ("v1", 19, bytes([2]), "unknown summary flag 2"),  # after size, depth and K
        ("v2", 43, struct.pack("<d", 1.0), "pivot 1.0 is not 0"),  # prior[0]
        ("v2", 43, struct.pack("<d", math.nan), "pivot nan is not 0"),
    ],
    ids=["v1 summary flag", "v2 pivot 1", "v2 pivot nan"],
)
def test_loader_rejects_malformed_version_field(tmp_path, saved_tree_bytes, version, offset,
                                                value, match):
    good = saved_tree_bytes[version]
    path = tmp_path / "bad.ssmioct"
    path.write_bytes(good[:offset] + value + good[offset + len(value):])
    with pytest.raises(CorruptMap, match=match):
        load_octree(path)


@pytest.mark.parametrize("where", ["prior", "tracked", "lump"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_loader_rejects_non_finite_beliefs(tmp_path, saved_tree_bytes, where, value):
    path = tmp_path / "bad.ssmioct"
    for good in saved_tree_bytes.values():
        at = layout(good)
        fmt = "<f" if good[:8] == OCTREE_MAGIC_V1 else "<d"
        size = struct.calcsize(fmt)
        assert good[at["count"]] == 3  # K = 3: every class tracked, the lump is -inf
        offset = {
            "prior": at["origin"] + 24 + size,  # class 1
            "tracked": at["count"] + 3,  # the first pair's value, after its class id
            "lump": at["count"] + 1 + 3 * (2 + size),
        }[where]
        path.write_bytes(good[:offset] + struct.pack(fmt, value) + good[offset + size:])
        if where == "lump" and value == -math.inf:
            assert load_octree(path).num_leaves() > 1  # nothing is untracked
        else:
            with pytest.raises(CorruptMap, match="non-finite"):
                load_octree(path)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_loader_fuzz_truncation_and_bit_flips(tmp_path_factory, saved_tree_bytes, data):
    good = saved_tree_bytes[data.draw(st.sampled_from(["v1", "v2"]), label="version")]
    path = tmp_path_factory.mktemp("fuzz") / "f.ssmioct"
    cut = data.draw(st.integers(0, len(good) - 1), label="cut")
    path.write_bytes(good[:cut])
    with pytest.raises(CorruptMap):
        load_octree(path)
    flipped = bytearray(good)
    bits = data.draw(st.lists(st.integers(0, 8 * len(flipped) - 1), min_size=1, max_size=3))
    for bit in bits:
        flipped[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(flipped))
    try:
        tree = load_octree(path)
    except CorruptMap:
        return
    assert isinstance(tree.root, SemanticNode)
