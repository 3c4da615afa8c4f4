"""Semantic octree: element updates against the dense grid, truncated-belief
bookkeeping, the derived leaves against the pruned leaves of dense element
beliefs, run-length ray casts, grid conversion, and every version of the
file format."""

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
from ssmi import octree
from ssmi.config import config_from_dict
from ssmi.errors import CorruptMap, InvalidClass, OriginOutOfBounds
from ssmi.grid import BeamMeasurement, GridMap, Scan, SrleRay, load_grid, save_grid
from ssmi.logodds import SensorParams
from ssmi.octree import (
    NEG_INF,
    OCTREE_MAGIC,
    OCTREE_MAGIC_V1,
    OCTREE_MAGIC_V2,
    SemanticOctree,
    TruncatedSemantics,
    _Beliefs,
    _LEAF,
    _leaves,
    _lumped_row,
    _lumped_rows,
    grid_from_octree,
    load_octree,
    morton,
    octree_from_grid,
    save_octree,
)
from ssmi.sim import run_episode
from ssmi.mi import FanCast
from conftest import (
    belief_entropy,
    cast_fan,
    element_beliefs,
    element_update,
    exact_key,
    fan_beams,
    from_full,
    insert_scan_reference,
    leaf_bits,
    leaves_of_runs_reference,
    numpy_update,
    off_prior,
    planar_beam,
    pruned_leaves_by_recursion,
    pruned_leaves_reference,
    scan_beams,
    scan_reference,
    signed_zero_grid,
    sorted_pairs,
    stacked_casts,
    store_rows_reference,
    to_full,
    tree_leaves,
    write_beliefs,
)


def random_beam(rng, lo_pt=1.0, hi_pt=31.0, r_max=20.0, k=3):
    origin = rng.uniform(lo_pt, hi_pt, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    r = float(rng.uniform(0, r_max)) if rng.random() < 0.8 else r_max
    cat = int(rng.integers(1, k + 1)) if r < r_max else None
    return BeamMeasurement(origin, d, r, cat, r_max)


# -- element update = grid update (K <= 3) ---------------------------------------


def scanned_element(sem, y, params, prior):
    """``sem`` in the one element of a one-element world, after a scan of
    one beam that ends in it: a class-``y`` hit, or a traversal for None."""
    tree = SemanticOctree(1.0, 1, params.num_classes, prior=prior, dims=(1, 1, 1))
    write_beliefs(tree, [(0, 0, 0)], sem)
    beam = BeamMeasurement((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 1.0 if y is None else 0.25, y, 1.0)
    tree.insert_scan([beam], params)
    return tree.query_element((0, 0, 0))


def test_update_matches_full_vector_path(params3, rng):
    prior = lo.uniform_prior(3)
    for _ in range(50):
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        sem = from_full(h)
        y = int(rng.integers(1, 4))
        got = scanned_element(sem, y, params3, prior)
        want = lo.clamp(lo.posterior_update(h, params3.hit_logodds(y), prior), params3)
        np.testing.assert_array_equal(to_full(got, 3), want)
        got_free = scanned_element(sem, None, params3, prior)
        want_free = lo.clamp(lo.posterior_update(h, params3.phi_minus, prior), params3)
        np.testing.assert_array_equal(to_full(got_free, 3), want_free)


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
        sem = from_full(prior)
    else:
        pairs = [(c, draw(near)) for c in range(1, k + 1)]
        others = NEG_INF
        if kind == "lumped":  # fewer tracked classes, as a file may hold
            pairs = pairs[:draw(st.integers(0, k - 1))]
            others = draw(near)
        sem = TruncatedSemantics(data=sorted_pairs(pairs), others=others)
    y = draw(st.none() | st.integers(1, k))
    return sem, y, params, prior


@given(case=k3_update_case())
@settings(max_examples=400, deadline=None)
def test_float_update_is_the_numpy_update_bit_for_bit(case):
    """The drawn belief, written into one element and scanned by one beam,
    ends as the numpy update of one row leaves it (``numpy_update``),
    float hex for float hex: signed zeros, sums on a bound and partly
    tracked beliefs included."""
    sem, y, params, prior = case
    want = bits(numpy_update(params, prior)(y)(sem))
    assert bits(scanned_element(sem, y, params, prior)) == want


def test_untracked_hit_splits_lump_with_alpha():
    k = 5
    params = SensorParams.default(k, clamp_limit=30.0, alpha=0.5)
    prior = lo.uniform_prior(k)
    tree_prior = from_full(prior)
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
    sem = from_full(prior)
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
    assert new.data == sorted_pairs(new.data)


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
        data = sorted_pairs((c, clip(v + shift)) for c, v in sem.data)
        return TruncatedSemantics(data=data, others=clip(sem.others + shift))
    tracked = dict(sem.data)
    if y in tracked:
        shift = phi_p - prior_occ
        data = sorted_pairs(
            (c, clip(v + shift + (psi_p if c == y else 0.0))) for c, v in sem.data
        )
        return TruncatedSemantics(data=data, others=clip(sem.others + shift))
    h_aux = sem.others + math.log(params.alpha)
    rest = sem.others + phi_p - prior_occ + math.log1p(-params.alpha)
    shift = phi_p - prior_occ
    candidates = [(c, v + shift) for c, v in sem.data]
    candidates.append((y, h_aux + shift + psi_p))
    candidates = sorted_pairs(candidates)
    kept = candidates[:3]
    dropped = [v for _, v in candidates[3:]]
    lump = lo.logsumexp(np.array(dropped + [rest]))
    return TruncatedSemantics(
        data=sorted_pairs((c, clip(v)) for c, v in kept), others=clip(float(lump))
    )


@st.composite
def lumped_params(draw, k):
    """Class-uniform parameters and prior of K = ``k`` classes drawn around
    shared edge values, and the values a belief is drawn from: those and
    the clamp bounds, so sums land on the bounds (where classes tie) and on
    both signed zeros."""
    lo_, hi_ = sorted((draw(LOGODDS), draw(LOGODDS)))
    assume(lo_ < hi_)

    def uniform(v):
        return np.array([0.0] + [v] * k)

    params = SensorParams(
        phi_plus=uniform(draw(LOGODDS)), phi_minus=uniform(draw(LOGODDS)),
        psi_plus=uniform(draw(LOGODDS)), clamp_lo=uniform(lo_), clamp_hi=uniform(hi_),
        alpha=draw(st.sampled_from([0.5, 0.25, 0.9]) | st.floats(0.01, 0.99)),
    )
    return params, uniform(draw(LOGODDS)), LOGODDS | st.sampled_from([lo_, hi_])


@st.composite
def lumped_belief(draw, k, near):
    """A belief of 0-3 tracked classes out of ``k`` with values from
    ``near``, and a lump from ``near`` or -inf."""
    classes = draw(st.permutations(range(1, k + 1)))[:draw(st.integers(0, 3))]
    others = draw(near | st.just(NEG_INF))
    return TruncatedSemantics(
        data=sorted_pairs((c, draw(near)) for c in classes), others=others
    )


@st.composite
def lumped_update_case(draw):
    """Class-uniform K > 3 parameters, prior and belief drawn around shared
    edge values (``lumped_params``); the hit class is None, tracked or
    untracked."""
    k = draw(st.integers(4, 6))
    params, prior, near = draw(lumped_params(k))
    sem = draw(lumped_belief(k, near))
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


@st.composite
def lumped_chain_case(draw):
    """A row of 1-4 elements along x, each holding a belief drawn as in
    ``lumped_update_case`` (K in 4..8), and 1-20 beams along the row: a
    beam (origin element, direction, hit element or None, class) starts at
    its origin element's center and either runs to the world's face,
    traversing every element on its way, or traverses the elements before
    its hit element and hits that one with its class. So each element meets
    a chain of up to 20 free, tracked and untracked updates, and a scan's
    rounds hold one element or several."""
    k = draw(st.integers(4, 8))
    params, prior, near = draw(lumped_params(k))
    n = draw(st.integers(1, 4))
    beliefs = [draw(lumped_belief(k, near)) for _ in range(n)]
    beams = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1]),
                                    st.none() | st.integers(0, n - 1), st.integers(1, k)),
                          min_size=1, max_size=20))
    return params, prior, beliefs, beams


def _chain_beams(n, beams):
    """The beams of a ``lumped_chain_case`` and each element's chain of hit
    classes (None for a traversal), in scan order."""
    chains = [[] for _ in range(n)]
    measured = []
    for i, d, j, y in beams:
        if j is None:
            for e in (range(i, n) if d > 0 else range(i, -1, -1)):
                chains[e].append(None)
            measured.append(BeamMeasurement((i + 0.5, 0.5, 0.5), (d, 0.0, 0.0), n + 1.0, None,
                                            n + 1.0))
            continue
        d = d if j == i else (1 if j > i else -1)
        for e in range(i, j, d):
            chains[e].append(None)
        chains[j].append(y)
        measured.append(BeamMeasurement((i + 0.5, 0.5, 0.5), (d, 0.0, 0.0), abs(j - i) + 0.25, y,
                                        n + 1.0))
    return measured, chains


def _empty_lump_case(beams):
    """Two tracked classes and an empty (-inf) lump, K = 5, as a file may
    hold: a hit on untracked class 4 makes a -inf candidate, which must
    take the third slot ahead of the empty one."""
    return (SensorParams.default(5), lo.uniform_prior(5),
            [TruncatedSemantics(((1, 1.0), (2, 0.5)), NEG_INF)] * 2, beams)


@given(case=lumped_chain_case())
@example(case=_empty_lump_case([(0, 1, 0, 4)]))
@example(case=_empty_lump_case([(0, 1, None, 1), (1, -1, 1, 4), (1, 1, 1, 4)]))
@example(case=(replace(SensorParams.default(4), phi_plus=np.array([0.0, -0.0, -0.0, -0.0, -0.0])),
               lo.uniform_prior(4), [TruncatedSemantics(((2, 1.0), (1, -0.0)), -1.0)],
               [(0, 1, 0, 2)]))
@settings(max_examples=300, deadline=None)
def test_lumped_scan_is_the_per_element_chain_bit_for_bit(case):
    """A K > 3 scan (``insert_scan``, on lumped rows in rounds) leaves each
    element as its chain of per-element updates does, float hex for float
    hex, with both references (``element_update`` and
    ``reference_lumped_update``): ties at both clamp bounds, signed zeros,
    hits on untracked classes, partly tracked beliefs and empty lumps
    included. An element no beam touches keeps its belief."""
    params, prior, beliefs, beams = case
    n = len(beliefs)
    tree = SemanticOctree(1.0, 2, params.num_classes, prior=prior, dims=(n, 1, 1))
    for e, sem in enumerate(beliefs):
        write_beliefs(tree, [(e, 0, 0)], sem)
    measured, chains = _chain_beams(n, beams)
    tree.insert_scan(measured, params)
    update = element_update(params, prior)
    for e, (sem, chain) in enumerate(zip(beliefs, chains)):
        by_builder = by_reference = sem
        for y in chain:
            by_builder = update(y)(by_builder)
            by_reference = reference_lumped_update(by_reference, y, params, prior)
        got = bits(tree.query_element((e, 0, 0)))
        assert got == bits(by_builder) == bits(by_reference), (e, chain)


@given(x=LOGODDS | st.just(NEG_INF))
def test_an_empty_slot_adds_nothing_to_the_lump_sum(x):
    """``logodds.logsumexp`` over an empty (-inf) slot and a value is the
    log-sum-exp of the value alone, bit for bit: the slot's term is exactly
    0.0, first in the sum, as a dropped candidate is."""
    assert lo.logsumexp(np.array([NEG_INF, x])).hex() == lo.logsumexp(np.array([x])).hex()
    assert (lo.logsumexp(np.array([[NEG_INF, x]] * 3), axis=-1)[1].hex()
            == lo.logsumexp(np.array([x])).hex())


def test_belief_hash_is_the_field_tuple_hash():
    """The dataclass's own hash, of the field tuple, so dict and set order
    stay; beliefs equal under ``0.0 == -0.0`` hash equal, as equal keys
    must, while their records tell them apart."""
    for sem in (TruncatedSemantics(data=((5, 3.9), (3, 3.8), (1, 2.0)), others=-3.0),
                TruncatedSemantics(data=(), others=NEG_INF),
                from_full(np.array([0.0, 1.0, -2.0, 0.5, 0.25]))):
        assert hash(sem) == hash((sem.data, sem.others))
        assert hash(replace(sem, others=1.5)) == hash((sem.data, 1.5))
    pos = TruncatedSemantics(data=((2, 1.0), (1, 0.0)), others=0.0)
    neg = TruncatedSemantics(data=((2, 1.0), (1, -0.0)), others=-0.0)
    assert pos == neg and hash(pos) == hash(neg)
    assert len({pos, neg}) == 1
    assert pos.record != neg.record


# few values, so that drawn beliefs are often equal: zeros of both signs,
# the default clamp bounds, ties among them, and one value inside
_RECORD_VALUES = st.sampled_from([0.0, -0.0, -6.0, 6.0, 1.5])
_NON_FINITE = st.sampled_from([math.nan, math.inf, NEG_INF])


@st.composite
def refused_fields(draw):
    """The fields of a belief that a file cannot hold: 0-3 tracked classes
    as in ``record_beliefs``, with a NaN or infinite tracked value or a NaN
    or +inf lump (a -inf lump is an empty one, which files hold)."""
    n = draw(st.integers(0, 3))
    values = draw(st.lists(_RECORD_VALUES | _NON_FINITE, min_size=n, max_size=n))
    others = draw(st.one_of(st.just(NEG_INF), _RECORD_VALUES, _NON_FINITE))
    assume(not all(math.isfinite(v) for v in values) or math.isnan(others) or others == math.inf)
    return tuple(zip((1, 2, lo.MAX_CLASSES), values)), others


@st.composite
def record_beliefs(draw):
    """A belief of 0-3 tracked classes (the first, second, third or last
    class a file holds) with values from ``_RECORD_VALUES`` in any order,
    and a lump of -inf or one of those values."""
    n = draw(st.integers(0, 3))
    classes = draw(st.lists(st.sampled_from([1, 2, 3, lo.MAX_CLASSES]), min_size=n,
                            max_size=n, unique=True))
    values = draw(st.lists(_RECORD_VALUES, min_size=n, max_size=n))
    others = draw(st.one_of(st.just(NEG_INF), _RECORD_VALUES))
    return TruncatedSemantics(data=tuple(zip(classes, values)), others=others)


@given(beliefs=st.lists(record_beliefs(), min_size=2, max_size=6), refused=refused_fields())
@example(beliefs=[TruncatedSemantics(((2, 6.0), (1, 0.0)), -0.0),
                  TruncatedSemantics(((2, 6.0), (1, -0.0)), -0.0),
                  TruncatedSemantics(((2, 6.0), (1, 0.0)), 0.0),
                  TruncatedSemantics(((1, 6.0), (2, 6.0)), NEG_INF),
                  TruncatedSemantics(((2, 6.0), (1, 6.0)), NEG_INF)],
         refused=(((1, 6.0), (2, math.nan)), NEG_INF))
@settings(max_examples=300, deadline=None)
def test_a_belief_record_is_its_bits(beliefs, refused):
    """Two beliefs share a record exactly when they are equal bit for bit
    (``exact_key``: equal values, equal zero signs, pairs in one order),
    and exactly when a tree's store gives their stored rows one id; a
    belief's record, and that of the belief built back from its id, is
    the v3 leaf record of its fields. A belief whose fields no file holds
    (``refused_fields``) raises ValueError, as ``load_octree`` refuses its
    record."""
    with pytest.raises(ValueError, match="non-finite"):
        TruncatedSemantics(*refused)
    store = _Beliefs(_lumped_rows(np.zeros((1, lo.MAX_CLASSES + 1))), lo.MAX_CLASSES)
    ids = store.ids(np.array([_lumped_row(sem) for sem in beliefs])).tolist()
    for (a, i), (b, j) in itertools.product(zip(beliefs, ids), repeat=2):
        assert (a.record == b.record) == (exact_key(a) == exact_key(b)) == (i == j)
    for sem, i in zip(beliefs, ids):
        n = len(sem.data)
        assert sem.record == _LEAF[n].pack(0, n, *itertools.chain(*sem.data), sem.others)
        assert store.semantics(i).record == sem.record


@pytest.mark.parametrize("c", [0, lo.MAX_CLASSES + 1, 1 << 16])
def test_a_belief_refuses_a_class_a_file_cannot_hold(c):
    """A tracked class outside 1..MAX_CLASSES raises ValueError when the
    belief is made, before its record is packed."""
    with pytest.raises(ValueError, match=rf"distinct ids in 1\.\.{lo.MAX_CLASSES}$") as info:
        TruncatedSemantics(data=((c, 1.0),), others=NEG_INF)
    assert type(info.value) is ValueError


def test_set_element_refuses_a_nan_value():
    """A full vector with a NaN class raises ValueError before the write,
    so the tree stays the prior's and no file it saves holds the NaN."""
    tree = SemanticOctree(1.0, 2, 3)
    with pytest.raises(ValueError, match="non-finite"):
        tree.set_element((0, 0, 0), np.array([0.0, math.nan, 0.0, 0.0]))
    assert tree.num_leaves() == 1 and len(tree._beliefs) == 1
    assert tree.map_state() == SemanticOctree(1.0, 2, 3).map_state()


@pytest.mark.parametrize("k,h", [
    (3, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),  # a K = 5 row on a K = 3 tree
    (5, [0.0, 1.0, 2.0]),  # a K = 2 row on a K = 5 tree
    (3, [0.5, 1.0, 0.0, 0.0]),  # a pivot that is not 0
    (3, [math.nan, 1.0, 0.0, 0.0]),
    (3, [[0.0, 1.0, 0.0, 0.0]]),  # not one row
])
def test_set_element_refuses_a_malformed_row_before_the_store(k, h):
    """A row that is not K+1 values with a zero pivot raises ValueError
    before the store takes it: the tree's arrays and the store's rows are
    as before, and the tree still takes element writes and scans. A -0.0
    pivot is a zero pivot, as ``load_grid`` reads it."""
    tree = SemanticOctree(1.0, 2, k)
    tree.set_element((1, 1, 1), [0.0] + [1.0] * k)

    def state():
        table, store = tree.leaf_table(), tree._beliefs
        return [a.tobytes() for a in (table.starts, table.sizes, table.ids, store.rows,
                                      store.full,
                                      *tree.labels_observed(), np.array(tree.map_state()))]

    before = state()
    with pytest.raises(ValueError, match=r"K\+1"):
        tree.set_element((0, 0, 0), h)
    assert state() == before
    tree.set_element((0, 0, 0), [-0.0] + [2.0] * k)
    assert bits(tree.query_element((0, 0, 0))) == bits(from_full([0.0] + [2.0] * k))
    tree.insert_scan([planar_beam((0.5, 0.5), 0.0, 2.2, 1, 8.0)], SensorParams.default(k))
    assert len(tree._beliefs) > 3
    assert_store_is_the_reference(tree)


@pytest.mark.parametrize("k", [3, 5])
def test_insert_scan_rejects_hit_class_beyond_k(k):
    tree = SemanticOctree(1.0, 3, k)
    beam = planar_beam((0.5, 0.5), 0.0, 3.5, k + 1, 8.0)
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
    scan = [planar_beam((0.5, 0.5), 0.0, 3.5, 2, 8.0)][:beams]
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
    beliefs = {sem for sem, _, _ in tree_leaves(tree)}
    assert any(len(sem.data) == 3 for sem in beliefs)
    assert all(sem.data == sorted_pairs(sem.data) for sem in beliefs)


def test_lumped_labels_are_the_argmax_of_each_elements_full_belief():
    """K = 5: the labels of ``labels_observed`` are, per element, the argmax
    of its belief's ``to_full`` row, ties to the lowest class (the pivot,
    class 0, included), on an episode's tree with elements written so that
    classes tie, tracked with tracked and with the lump's even shares."""
    config = config_from_dict({
        "seed": 1,
        "env": {"profile": "random", "dims": [16, 16], "num_classes": 5},
        "sensor": {"num_beams": 24, "r_max": 8.0},
        "planner": {"num_beams": 8, "beam_range": 8.0},
        "mapper": {"type": "octree"},
        "run": {"max_steps": 6},
    })
    tree = run_episode(config).mapper
    ties = {(0, 0, 0): [0.0, 1.0, 1.0, -3.0, -3.0, -3.0],
            (1, 0, 0): [0.0, -1.0, -1.0, 2.5, 2.5, -4.0],
            (2, 0, 0): [0.0, 0.0, -1.0, 0.0, -1.0, -1.0],
            (3, 0, 0): [0.0, -1.0, -2.0, -3.0, 4.0, 4.0],
            (4, 0, 0): [0.0, 3.0, -2.0, -2.0, 3.0, 3.0]}
    for cell, h in ties.items():
        tree.set_element(cell, h)
    beliefs = element_beliefs(tree)
    labels, _ = tree.labels_observed()
    want = np.vectorize(lambda sem: int(np.argmax(to_full(sem, 5))))(beliefs[:16, :16, :1])
    assert labels.tolist() == want.tolist()
    assert [labels[cell] for cell in ties] == [1, 3, 0, 4, 1]
    assert len(np.unique(labels)) == 6


# -- insertion and pruning --------------------------------------------------------


def assert_pruned(tree):
    """The tree's runs are canonical (the first starts at 0, the starts
    ascend, and no two neighbours hold one id), and its leaves are the
    unique pruned leaves of its element beliefs, bit for bit."""
    starts, ids = tree._runs
    assert starts[0] == 0 and (starts[1:] > starts[:-1]).all() and (ids[1:] != ids[:-1]).all()
    leaves = tree_leaves(tree)
    pruned = pruned_leaves_reference(element_beliefs(tree, leaves))
    assert leaf_bits(leaves) == leaf_bits(pruned)


def test_single_beam_fresh_tree(params3):
    tree = SemanticOctree(1.0, 4, 3)
    beam = planar_beam((0.0, 3.5), 0.0, 16.0, None, 16.0)
    tree.insert_scan([beam], params3)
    want = lo.clamp(tree.prior + (params3.phi_minus - tree.prior), params3)
    for x in range(16):
        np.testing.assert_array_equal(to_full(tree.query_element((x, 3, 0)), 3), want)
    # octants the beam never touched stay single prior leaves
    assert tree.query_element((3, 3, 12)) == from_full(tree.prior)
    # the leaf of octant z >= 8, x < 8, y < 8
    upper = int(np.searchsorted(tree.leaf_table().starts, morton(0, 0, 8), "right")) - 1
    assert tree_leaves(tree)[upper][1:] == ((0, 0, 8), 8)


def test_empty_scan_is_noop(params3):
    tree = SemanticOctree(1.0, 3, 3)
    tree.insert_scan([], params3)
    assert tree.num_leaves() == 1


def test_a_scan_that_updates_one_element_again_and_again_interns_one_belief(params3):
    """Five beams that each end in the sensor element update it five times
    in one scan: the store grows by the one belief the element ends with,
    not by one per update."""
    tree = SemanticOctree(1.0, 3, 3)
    before = len(tree._beliefs)
    beam = planar_beam((0.5, 0.5), 0.0, 0.25, None, 0.25)
    tree.insert_scan([beam] * 5, params3)
    want = np.array([0.0, -6.0, -6.0, -6.0])  # five free updates of -1.39 from 0, clamped
    np.testing.assert_array_equal(to_full(tree.query_element((0, 0, 0)), 3), want)
    assert len(tree._beliefs) == before + 1


def test_prune_uniform_tree_to_root():
    """Eight octants written one by one to one belief split the root and
    then merge back into it: the write that makes the eighth equal to the
    other seven leaves the whole cube one leaf."""
    tree = SemanticOctree(1.0, 3, 3)
    sem = from_full(np.array([0.0, 1.0, 0.0, 0.0]))
    for slot in range(8):
        corner = [(slot >> 2) * 4, (slot >> 1 & 1) * 4, (slot & 1) * 4]
        write_beliefs(tree, block_cells(corner, 4), sem)
        assert tree.num_leaves() == (8 if slot < 7 else 1)
    assert tree_leaves(tree) == [(tree.query_element((0, 0, 0)), (0, 0, 0), 8)]
    assert exact_key(tree.query_element((0, 0, 0))) == exact_key(sem)


def test_prune_requires_all_eight_identical():
    """Seven equal siblings and one other stay eight leaves; once the
    eighth takes the seven's belief they merge."""
    tree = SemanticOctree(1.0, 1, 3)
    sem, other = [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]
    cells = list(itertools.product(range(2), repeat=3))
    for cell in cells[:7]:
        tree.set_element(cell, sem)
    tree.set_element(cells[7], other)
    assert tree.num_leaves() == 8
    assert tree.leaf_table().sizes.tolist() == [1] * 8
    tree.set_element(cells[7], sem)
    assert tree.num_leaves() == 1


def test_prune_idempotent_and_query_transparent(params3, rng):
    """Merging changes no element's belief: after 30 scans every query
    reads the belief of the dense reference, which never merges. Writing
    elements the beliefs they hold changes nothing."""
    tree = SemanticOctree(1.0, 5, 3)
    beliefs = element_beliefs(tree)
    for _ in range(30):
        beam = random_beam(rng)
        tree.insert_scan([beam], params3)
        scan_reference(tree, beliefs, [beam], params3)
    points = [tuple(rng.integers(0, 32, 3)) for _ in range(500)]
    assert [exact_key(tree.query_element(p)) for p in points] == \
        [exact_key(beliefs[p]) for p in points]
    before = leaf_bits(tree_leaves(tree))
    for p in points:
        write_beliefs(tree, [p], tree.query_element(p))
    assert leaf_bits(tree_leaves(tree)) == before
    assert tree.num_leaves() == len(before)


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


@pytest.mark.parametrize("k,clamp_limit", [(3, 6.0), (5, 4.0)])
def test_insert_scan_leaves_the_tree_pruned(k, clamp_limit):
    """Each write of insert_scan merges what it completes: after every scan
    the leaves are the pruned leaves of the element beliefs."""
    params = SensorParams.default(k, clamp_limit=clamp_limit)
    tree = SemanticOctree(1.0, 5, k)
    rng = np.random.default_rng(7 + k)
    for _ in range(25):
        tree.insert_scan([random_beam(rng, k=k) for _ in range(int(rng.integers(1, 9)))], params)
        assert_pruned(tree)
    assert tree.num_leaves() > 8


@st.composite
def runs_case(draw):
    """Runs of a tree of depth 1..16 (at 16 a level-16 block is 2**48
    codes, and the blocks above it reach 2**51): the first at 0, the others
    at codes drawn on an aligned boundary of a random level or an element
    past or before one, and one id per run."""
    depth = draw(st.integers(1, 16), label="depth")
    cuts = set()
    for _ in range(draw(st.integers(0, 12))):
        level = draw(st.integers(0, depth))
        code = (draw(st.integers(0, 8 ** (depth - level))) << 3 * level) + draw(
            st.sampled_from([0, 0, 1, -1]))
        if 0 < code < 8 ** depth:
            cuts.add(code)
    starts = np.array([0, *sorted(cuts)], dtype=np.int64)
    return starts, np.arange(starts.shape[0], dtype=np.intp), depth


@given(case=runs_case())
@settings(max_examples=300, deadline=None)
def test_the_leaves_of_runs_are_their_largest_aligned_blocks(case):
    """``octree._leaves``, level by level over every run at once, gives the
    leaves that ``leaves_of_runs_reference`` takes one block at a time:
    the same starts, sizes and ids in preorder."""
    starts, ids, depth = case
    got, want = _leaves(starts, ids, depth), leaves_of_runs_reference(starts, ids, depth)
    for name, a, b in zip(("starts", "sizes", "ids"), got, want):
        assert a.tolist() == b.tolist(), name


# -- run-length ray casts -----------------------------------------------------------


def test_fresh_tree_single_run(params3):
    tree = SemanticOctree(1.0, 4, 3)
    beam = planar_beam((0.0, 7.5), 0.0, 16.0, None, 16.0)
    ray = tree.raycast_srle(beam)
    np.testing.assert_array_equal(ray.widths, [16])
    np.testing.assert_array_equal(ray.chi_t[0], tree.prior)


def test_three_region_run_widths(params3):
    tree = SemanticOctree(1.0, 4, 3)
    hit = planar_beam((0.0, 7.5), 0.0, 6.0, 2, 16.0)
    for _ in range(8):  # saturate so the free run is uniform
        tree.insert_scan([hit], params3)
    full = planar_beam((0.0, 7.5), 0.0, 16.0, None, 16.0)
    ray = tree.raycast_srle(full)
    np.testing.assert_array_equal(ray.widths, [6, 1, 9])
    assert ray.num_elements == 16


def test_srle_expansion_matches_element_queries(params3, rng):
    tree = SemanticOctree(1.0, 5, 3)
    for _ in range(25):
        tree.insert_scan([random_beam(rng)], params3)
    beliefs = element_beliefs(tree)
    for _ in range(10):
        beam = random_beam(rng, r_max=25.0)
        trace = tree.cast_ray(beam)
        ray = tree.encode_trace(trace.cells)
        assert ray.num_elements == len(trace.cells)
        expanded, _ = ray.expand()
        for idx, cell in enumerate(trace.cells):
            assert bits(tree.query_element(tuple(cell))) == bits(beliefs[tuple(cell)])
            np.testing.assert_array_equal(expanded[idx], to_full(beliefs[tuple(cell)], 3))


def test_doubling_depth_keeps_fresh_q_one():
    for depth in (3, 4, 5):
        tree = SemanticOctree(1.0, depth, 2)
        edge = float(tree.size_elements)
        beam = planar_beam((0.0, edge / 2 + 0.5), 0.0, edge, None, edge)
        assert tree.raycast_srle(beam).num_runs == 1


# -- the leaf table ------------------------------------------------------------------

SIGNED = st.sampled_from([0.0, -0.0, 1.5, -2.0])


def block_cells(corner, size):
    return list(itertools.product(*(range(c, c + size) for c in corner)))


def paint(tree, blocks):
    """Write each (corner, size, belief) block, cut to the tree's world, in
    one write, of a fresh copy of the belief (equal to the palette entry,
    not the same object)."""
    for corner, size, sem in blocks:
        cells = [cell for cell in block_cells(corner, size)
                 if all(c < d for c, d in zip(cell, tree.dims))]
        write_beliefs(tree, cells, TruncatedSemantics(sem.data, sem.others))
    return tree


@st.composite
def leaf_table_case(draw):
    """A pruned tree of depth 2-4, K = 1, 2 or 3 (all tracked) or K = 5 or
    8 (three tracked and a lump, which a read splits over two or five
    classes), over a world of the whole cube, of a planar ``[n, m, 1]``
    box or of any box at the cube's low corner, painted in blocks cut to
    the world from a palette whose values include both signed zeros, so
    beliefs equal under ``==`` can differ in bits; the elements outside
    the world keep the prior, so leaves straddle the world's faces, as in
    an episode. 3-D rays from inside the world, and boxes inside it, some
    empty and some cutting through large leaves."""
    k = draw(st.sampled_from([1, 2, 3, 5, 8]), label="k")
    depth = draw(st.integers(2, 4), label="depth")
    n = 1 << depth
    shape = draw(st.sampled_from(["cube", "planar", "box"]), label="shape")
    dims = [n] * 3 if shape == "cube" else [draw(st.integers(1, n)) for _ in range(3)]
    if shape == "planar":
        dims[2] = 1
    tree = SemanticOctree(1.0, depth, k, dims=dims)

    def belief():
        classes = draw(st.permutations(range(1, k + 1)))[:3]
        others = draw(SIGNED) if k > 3 else NEG_INF
        return TruncatedSemantics(sorted_pairs((c, draw(SIGNED)) for c in classes),
                                  others)

    palette = [belief() for _ in range(draw(st.integers(1, 4)))]
    blocks = []
    for _ in range(draw(st.integers(0, 10))):
        size = 1 << draw(st.integers(0, depth - 1))
        corner = [draw(st.integers(0, (d - 1) // size)) * size for d in dims]
        blocks.append((corner, size, draw(st.sampled_from(palette))))
    paint(tree, blocks)
    component = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    beams = []
    for _ in range(draw(st.integers(0, 5))):
        d = [draw(component) for _ in range(3)]
        assume(any(abs(v) > 1e-3 for v in d))
        r = draw(st.floats(0.5, 2.0 * n))
        origin = [draw(st.integers(0, e - 1) | st.floats(0.0, e, exclude_max=True)) for e in dims]
        beams.append(BeamMeasurement(np.array(origin, dtype=float), np.array(d), r, None, r))
    boxes = []
    for _ in range(3):
        ends = [sorted((draw(st.integers(0, e)), draw(st.integers(0, e)))) for e in dims]
        boxes.append(tuple(zip(*ends)))
    return tree, beams, boxes


def _signed_zero_leaf_case():
    """A ray in -x meets an element holding -0.0 first; preorder meets the
    equal +0.0 belief first (at x = 0)."""
    tree = SemanticOctree(1.0, 2, 3)
    plus = TruncatedSemantics(((1, 1.5), (2, 0.0), (3, -2.0)), NEG_INF)
    minus = TruncatedSemantics(((1, 1.5), (2, -0.0), (3, -2.0)), NEG_INF)
    paint(tree, [((0, 1, 1), 1, plus), ((1, 1, 1), 1, minus), ((2, 1, 1), 1, minus)])
    beam = BeamMeasurement(np.array([3.5, 1.5, 1.5]), np.array([-1.0, 0.0, 0.0]), 4.0, None, 4.0)
    return tree, [beam], [((0, 0, 0), (4, 2, 3)), ((1, 1, 1), (1, 4, 4)), ((0, 0, 0), (4, 4, 4))]


def runs_reference(beliefs, cells, prior):
    """The runs along ``cells`` by a loop over their elements' beliefs (a
    dense array, ``element_beliefs``): one per stretch of bit-equal beliefs,
    holding its first element's; None for no cell."""
    widths, values = [], []
    for cell in cells.tolist():
        sem = beliefs[tuple(cell)]
        if values and exact_key(values[-1]) == exact_key(sem):
            widths[-1] += 1
        else:
            values.append(sem)
            widths.append(1)
    if not values:
        return None
    chi_t = np.stack([to_full(v, prior.shape[0] - 1) for v in values])
    return SrleRay(widths=np.array(widths), chi_t=chi_t, chi_0=np.broadcast_to(prior, chi_t.shape))


@given(case=leaf_table_case())
@example(case=_signed_zero_leaf_case())
@settings(max_examples=150, deadline=None)
def test_leaf_table_reads_equal_the_element_loop(case):
    """The reads served from the tree's runs against a loop over the
    elements' beliefs, filled block by block from the leaves:
    ``encode_traces`` and each beam's ``encode_trace`` against the stacked
    ``runs_reference`` (widths, and chi bytes, so signed zeros count),
    ``query_element`` and ``labels_observed`` against each element's
    belief, ``map_state`` against ``leaf_sums`` bit for bit (``same_sums``)."""
    tree, beams, boxes = case
    k = tree.num_classes
    beliefs = element_beliefs(tree)
    traces = [tree.cast_ray(beam) for beam in beams]
    runs, counts = tree.encode_traces(*stacked_casts(traces))
    want = [runs_reference(beliefs, trace.cells[1:], tree.prior) for trace in traces]
    for trace, ray in zip(traces, want):
        got = tree.encode_trace(trace.cells[1:])
        assert (got is None) == (ray is None)
        if ray is not None:
            assert got.widths.tolist() == ray.widths.tolist()
            assert got.chi_t.tobytes() == ray.chi_t.tobytes()
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
            cell = tuple(lo + r for lo, r in zip(box[0], rel))
            sem = beliefs[cell]
            assert bits(tree.query_element(cell)) == bits(sem)
            assert labels[rel] == np.argmax(to_full(sem, k))
            assert observed[rel] == off_prior(tree, sem)
        assert same_sums(tree.map_state(box), leaf_sums(tree, box))
    assert same_sums(tree.map_state(), leaf_sums(tree, ((0, 0, 0), tree.dims)))


def test_signed_zero_case_keeps_the_first_elements_bits():
    """Beliefs equal under ``==`` but not in their bits make two runs, and
    every element keeps its own bits: x = 2 and 1 hold -0.0, x = 0 +0.0."""
    tree, beams, _ = _signed_zero_leaf_case()
    first = next(sem for sem, _, _ in tree_leaves(tree) if sem.data[0] == (1, 1.5))
    assert math.copysign(1.0, first.data[1][1]) == 1.0  # preorder meets +0.0 first
    runs, counts = tree.encode_traces(*stacked_casts([tree.cast_ray(beams[0])]))
    assert counts == [2] and runs.widths.tolist() == [2, 1]
    assert [math.copysign(1.0, v) for v in runs.chi_t[:, 2]] == [-1.0, 1.0]


@given(case=leaf_table_case())
@settings(max_examples=100, deadline=None)
def test_num_leaves_counts_the_leaf_table(case):
    """``num_leaves`` counts the leaves level by level without making
    them: as many as the leaf table holds."""
    tree = case[0]
    assert tree.num_leaves() == len(tree.leaf_table().ids)


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
    ``fan_beams`` (cells, dtype, shape and counts) on a grid, on an octree
    over its whole cube, larger than the grid, and on an octree of the
    grid's dims in that cube, and raises ``OriginOutOfBounds`` with the same
    message where casting the beams does. The octree of the grid's dims
    casts what the grid casts."""
    (grid, tree), fan = case
    world = SemanticOctree(grid.resolution, 4, 3, origin=grid.origin, dims=grid.dims)
    casts = []
    for mapper in (grid, tree, world):
        try:
            want = cast_fan(mapper, fan_beams(*fan))
        except OriginOutOfBounds as exc:
            with pytest.raises(OriginOutOfBounds, match=re.escape(str(exc))):
                FanCast.from_pose(mapper, *fan)
            casts.append(None)
            continue
        got = FanCast.from_pose(mapper, *fan)
        assert got.counts == want.counts
        assert got.cells.dtype == want.cells.dtype == np.int32
        assert got.cells.shape == want.cells.shape
        assert got.cells.tobytes() == want.cells.tobytes()
        casts.append((got.counts, got.cells.tobytes()))
    assert casts[2] == casts[0]


class _FloatRowsArray(np.ndarray):
    """An ndarray whose one-element arrays convert with float(), as they do
    before NumPy 2.4."""

    def __float__(self):
        return float(self.reshape(-1)[0])


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
    # a center or a beam's origin or direction that is not three reals
    for bad in ([1.5, 1.5], [1.5, 1.5, 0.5, 0.5], "123", np.full((3, 1), 0.5), None,
                [1.5, 1.5, 0.5j], np.full((3, 1), 0.5).view(_FloatRowsArray)):
        with pytest.raises(ValueError, match="3-vectors"):
            FanCast.from_pose(grid, bad, 4, 2.0)
        with pytest.raises(ValueError, match="3-vectors"):
            BeamMeasurement(bad, [1.0, 0.0, 0.0], 1.0, None, 1.0)
        with pytest.raises(ValueError, match="3-vectors"):
            BeamMeasurement([1.5, 1.5, 0.5], bad, 1.0, None, 1.0)


def read_all(tree, beam):
    """The three batch reads of a planning cycle."""
    tree.labels_observed(((0, 0, 0), tree.dims))
    tree.map_state()
    tree.encode_traces(*stacked_casts([tree.cast_ray(beam)]))


def test_leaf_table_is_made_again_only_after_the_tree_changes(params3, caplog, tmp_path):
    """One pair of run arrays serves every read until a write changes an
    element; a scan that changes no element, or a ``set_element`` of the
    value held, keeps it, and the write that completes a block merges it.
    Every write logs one line with the runs it leaves, the beliefs stored
    and the elements it changed."""
    tree = SemanticOctree(1.0, 3, 3)
    beam = planar_beam((0.0, 3.5), 0.0, 5.5, 2, 8.0, z=3.5)

    def revision():
        """The run pair of every read since the last call, after checking
        the last write's line against the tree."""
        table = tree._runs
        read_all(tree, beam)
        assert tree._runs is table
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("octree write")]
        if lines:
            assert re.fullmatch(r"octree write: \d+ runs, \d+ beliefs, \d+ changed, "
                                r"\d+\.\d{3} ms", lines[-1])
            assert lines[-1].split()[2:5:2] == [str(tree._runs[0].shape[0]),
                                                str(len(tree._beliefs))]
        return table

    with caplog.at_level(logging.DEBUG, logger="ssmi.octree"):
        table = revision()
        tree.insert_scan([beam], params3)
        assert revision() is not table
        for _ in range(40):  # until the clamp stops every element changing
            table = revision()
            tree.insert_scan([beam], params3)
            if revision() is table:
                break
        assert ", 0 changed," in caplog.records[-2].getMessage()
        tree.set_element((6, 6, 6), tree.prior)  # the value it holds
        assert revision() is table
        h = np.array([0.0, 2.0, -1.0, -1.0])
        for cell in itertools.product((6, 7), repeat=3):
            tree.set_element(cell, h)
            assert revision() is not table
            table = revision()
        assert caplog.records[-1].getMessage().split(", ")[2] == "1 changed"
        merged = int(np.searchsorted(tree.leaf_table().starts, morton(6, 6, 6), "right")) - 1
        assert tree_leaves(tree)[merged][1:] == ((6, 6, 6), 2)
        assert_pruned(tree)
        save_octree(tree, tmp_path / "t.ssmioct")
        back = load_octree(tmp_path / "t.ssmioct")
        for name in ("starts", "sizes"):
            assert (getattr(back.leaf_table(), name).tobytes()
                    == getattr(tree.leaf_table(), name).tobytes())
        assert back.map_state() == tree.map_state() == leaf_sums(tree, ((0, 0, 0), tree.dims))


def assert_store_is_the_reference(tree):
    """The rows of the tree's belief store against rows computed afresh
    from each id's belief, bit for bit; what the reads derive from them,
    the labels of every element and the entropy of the world summed leaf
    by leaf, against each leaf's belief; and one id for each class of
    bit-equal beliefs on the leaves."""
    store, (rows, full) = tree._beliefs, store_rows_reference(tree)
    assert store.rows.tobytes() == rows.tobytes()
    assert store.full.tobytes() == full.tobytes()
    labels = np.array([np.argmax(row) for row in full], dtype=np.intp)
    ids = tree._held(tree._box_codes(None))
    assert tree.labels_observed()[0].tobytes() == labels[ids].tobytes()
    assert tree.map_state() == leaf_sums(tree, ((0, 0, 0), tree.dims))
    assert_one_id_per_value(tree)


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
def write_history(draw):
    """A tree of depth 2-4 at K = 3 or 5 and the writes made to it, each
    followed or not by a table read: scans (a low clamp saturates cells, so
    blocks merge), ``set_element`` and block writes (one write of many
    elements) of beliefs holding both signed zeros, and save and load."""
    k = draw(st.sampled_from([3, 5]), label="k")
    depth = draw(st.integers(2, 4), label="depth")
    n = 1 << depth
    params = SensorParams.default(k, clamp_limit=draw(st.sampled_from([1.0, 2.5, 6.0])))
    cell = st.tuples(*[st.integers(0, n - 1)] * 3)
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["scan", "scan", "set", "block", "load"]))
        if kind == "scan":
            arg = [scan_beam(draw, n, k) for _ in range(draw(st.integers(1, 6)))]
        elif kind == "set":
            arg = (draw(cell), np.array([0.0] + [draw(SIGNED) for _ in range(k)]))
        elif kind == "block":
            size = 1 << draw(st.integers(0, depth))
            classes = draw(st.permutations(range(1, k + 1)))[:3]
            sem = TruncatedSemantics(sorted_pairs((c, draw(SIGNED)) for c in classes),
                                     draw(SIGNED) if k > 3 else NEG_INF)
            arg = ([draw(st.integers(0, n // size - 1)) * size for _ in range(3)], size, sem)
        else:
            arg = None
        steps.append((kind, arg, draw(st.booleans())))
    return SemanticOctree(1.0, depth, k), params, steps


@given(case=write_history())
@settings(max_examples=150, deadline=None)
def test_the_arrays_are_the_pruned_leaves_of_the_element_beliefs(case, tmp_path_factory):
    """Beside a dense array of element beliefs that takes one update per
    element update in scan order (``scan_reference``) and every element
    write, after every write and every load the tree's arrays are the
    array's pruned leaves (``pruned_leaves_reference``) bit for bit, each
    starting at the Morton code of its corner; after every read, and at
    the end, the table's rows are those computed afresh."""
    tree, params, steps = case
    beliefs = element_beliefs(tree)
    for kind, arg, read in steps:
        if kind == "scan":
            tree.insert_scan(arg, params)
            scan_reference(tree, beliefs, arg, params)
        elif kind == "set":
            tree.set_element(*arg)
            beliefs[arg[0]] = from_full(arg[1])
        elif kind == "block":
            corner, size, sem = arg
            write_beliefs(tree, block_cells(corner, size), sem)
            beliefs[tuple(slice(c, c + size) for c in corner)] = sem
        else:
            path = tmp_path_factory.mktemp("load") / "t.ssmioct"
            save_octree(tree, path)
            tree = load_octree(path)
        assert leaf_bits(tree_leaves(tree)) == leaf_bits(pruned_leaves_reference(beliefs))
        if read:
            assert_store_is_the_reference(tree)
    assert_store_is_the_reference(tree)


def test_pruned_leaves_reference_is_the_recursion(params3, rng):
    """The pruned leaves of a dense array of beliefs found level by level
    (``pruned_leaves_reference``) are those the recursion over the eight
    children of every block that is not uniform finds
    (``pruned_leaves_by_recursion``), in order and bit for bit, on fixed
    arrays: the signed-zero case's beliefs, one uniform cube, a scanned
    tree's, and those with every element a fresh copy of its belief (one
    object per element, equal records)."""
    scanned = SemanticOctree(1.0, 4, 3)
    for _ in range(12):
        scanned.insert_scan([random_beam(rng, 1.0, 15.0, 10.0)], params3)
    copy = np.frompyfunc(lambda sem: TruncatedSemantics(sem.data, sem.others), 1, 1)
    arrays = [element_beliefs(_signed_zero_leaf_case()[0]), element_beliefs(scanned),
              element_beliefs(SemanticOctree(1.0, 2, 5))]
    arrays.append(copy(arrays[1]))
    for beliefs in arrays:
        want = pruned_leaves_by_recursion(beliefs)
        assert leaf_bits(pruned_leaves_reference(beliefs)) == leaf_bits(want)
    assert len(want) > 100


@st.composite
def element_write_history(draw):
    """A fresh tree of depth 2-3 at K = 3 or 5 and a mix of scans (a low
    clamp saturates cells) and ``set_element`` writes, of one element or of
    every element of an aligned block in turn, from a palette of beliefs
    holding both signed zeros."""
    k = draw(st.sampled_from([3, 5]), label="k")
    depth = draw(st.integers(2, 3), label="depth")
    n = 1 << depth
    params = SensorParams.default(k, clamp_limit=draw(st.sampled_from([1.0, 2.5, 6.0])))
    palette = [np.array([0.0] + [draw(SIGNED) for _ in range(k)])
               for _ in range(draw(st.integers(1, 3)))]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            steps.append([scan_beam(draw, n, k) for _ in range(draw(st.integers(1, 6)))])
        else:
            size = 1 << draw(st.integers(0, depth))
            corner = [draw(st.integers(0, n // size - 1)) * size for _ in range(3)]
            steps.append((corner, size, draw(st.sampled_from(palette))))
    return SemanticOctree(1.0, depth, k), params, steps


@given(case=element_write_history())
@settings(max_examples=100, deadline=None)
def test_writes_keep_a_pruned_tree_pruned(case):
    """After every scan and after each one-element ``set_element`` write of
    a block, element by element, the leaves are the pruned leaves of the
    element beliefs."""
    tree, params, steps = case
    for step in steps:
        if isinstance(step, list):
            tree.insert_scan(step, params)
            assert_pruned(tree)
        else:
            corner, size, h = step
            for cell in block_cells(corner, size):
                tree.set_element(cell, h)
                assert_pruned(tree)


def test_element_writes_and_reads_refuse_a_cell_outside_the_world():
    """A cell outside the world (past the cube, or inside the cube but past
    the world's extent, or not three coordinates) or with a coordinate that
    is not an integer is refused by ``set_element`` and ``query_element``
    alike, and the refused write leaves the tree as it was; a read past the
    cube does not wrap to the element at the cube's corner. Numpy integers
    name the cell their values name."""
    h = [0.0, 1.0, 0.0, 0.0]
    for dims, inside, outside in (
        ((8, 8, 4), (7, 7, 3), ((8, 0, 0), (0, 0, 4), (-1, 0, 0), (0, 0))),
        (None, (3, 3, 3), ((4, 3, 3), (3, 3, 7), (-1, 3, 3))),
    ):
        tree = SemanticOctree(1.0, 3 if dims else 2, 3, dims=dims)
        tree.set_element(inside, h)
        for cell in outside:
            with pytest.raises(ValueError, match="outside the world"):
                tree.set_element(cell, [0.0, 2.0, 0.0, 0.0])
            with pytest.raises(ValueError, match="outside the world"):
                tree.query_element(cell)
        for cell in ((1.5, 0, 0), (0, 0, 1.0), (0, "1", 0)):
            with pytest.raises(ValueError, match="not integer"):
                tree.set_element(cell, [0.0, 2.0, 0.0, 0.0])
            with pytest.raises(ValueError, match="not integer"):
                tree.query_element(cell)
        assert tree.num_leaves() == 1 + 7 * tree.max_depth
        assert tree.query_element(inside).data[0] == (1, 1.0)
        assert tree.query_element(np.array(inside)) == tree.query_element(inside)


def test_the_prior_is_id_0_of_the_store_for_the_trees_life():
    """The prior is id 0 however many beliefs the tree stored and its
    leaves dropped since: a belief with the prior's bits written after
    that takes id 0, so its element reads unobserved."""
    tree = SemanticOctree(1.0, 1, 3)
    for cell in itertools.product(range(2), repeat=3):
        tree.set_element(cell, [0.0, 1.0, 0.0, 0.0])
    assert tree.leaf_table().ids.tolist() == [1]  # one leaf, and it does not hold the prior
    tree.set_element((0, 0, 0), tree.prior.copy())
    assert bits(tree.query_element((0, 0, 0))) == bits(from_full(tree.prior))
    assert tree.leaf_table().ids.tolist() == [0] + [1] * 7
    assert tree.labels_observed()[1].sum() == 7
    assert tree.map_state()[1] == 7 / 8


def overwriting_scans(tree, rng, scans: int):
    """Scans of 6 beams across a depth-2 tree (far bounds, 3 classes), each
    followed by a table read: every scan moves many elements to beliefs no
    element held before and leaves others no element holds any more."""
    params = SensorParams.default(3, clamp_limit=40.0)
    for _ in range(scans):
        tree.insert_scan([random_beam(rng, 0.5, 3.5, r_max=6.0) for _ in range(6)], params)
        yield tree.leaf_table()


def test_a_beliefs_id_and_rows_stay_through_later_scans_and_reads():
    """The store keeps every belief it interned: through later scans and
    reads, each id a table gave a leaf stands for that leaf's belief, and
    the store gives the id the rows it had when a table first held it.
    Most of those beliefs end up held by no leaf; written back, each gets
    its old id again."""
    tree = SemanticOctree(1.0, 2, 3)
    first = {}  # per id, the belief and its rows when a table first held it

    def rows(i):
        return tuple(a[i : i + 1].tobytes() for a in (tree._beliefs.rows, tree._beliefs.full))

    for table in overwriting_scans(tree, np.random.default_rng(11), 30):
        for (sem, _, _), i in zip(tree_leaves(tree), table.ids.tolist()):
            assert bits(first.setdefault(i, (sem, rows(i)))[0]) == bits(sem)
        assert all(rows(i) == want for i, (_, want) in first.items())
    held = set(tree.leaf_table().ids.tolist())
    dropped = sorted(set(first) - held)
    assert len(dropped) > len(held)
    origin = morton(*np.zeros((3, 1), dtype=np.int64))
    for i in dropped[:20]:
        tree.set_element((0, 0, 0), to_full(first[i][0], tree.num_classes))
        assert tree._held(origin).tolist() == [i] and rows(i) == first[i][1]


def test_every_stored_belief_was_put_on_a_leaf_by_a_lumped_scan():
    """K = 5 scans whose beams cross the same elements many times intern
    only each element's last belief, not the steps of its chain of
    updates: every id of the store was held by a leaf after some write."""
    tree = SemanticOctree(1.0, 2, 5)
    params = SensorParams.default(5, clamp_limit=40.0)
    rng = np.random.default_rng(5)
    held = {0}
    for _ in range(20):
        tree.insert_scan([random_beam(rng, 0.5, 3.5, r_max=6.0, k=5) for _ in range(8)], params)
        held.update(tree.leaf_table().ids.tolist())
    assert len(tree._beliefs) > 100
    assert held == set(range(len(tree._beliefs)))
    assert_store_is_the_reference(tree)


@st.composite
def lumped_beliefs(draw, k):
    """A belief of K classes: up to min(K, 3) tracked classes (most often
    all of them) whose values are any, signed zeros, on a clamp or tiny,
    and a lump that is -inf or finite."""
    n = draw(st.sampled_from([min(k, 3)] * 3 + list(range(min(k, 3) + 1))))
    classes = draw(st.permutations(range(1, k + 1)))[:n]
    value = (st.floats(-800.0, 800.0) | st.sampled_from([0.0, -0.0, 6.0, -6.0])
             | st.floats(-1e-300, 1e-300))
    pairs = sorted_pairs((c, draw(value)) for c in classes)
    others = draw(st.just(-math.inf) | st.floats(-800.0, 40.0) | st.sampled_from([0.0, -0.0]))
    return TruncatedSemantics(data=pairs, others=others)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_batched_entropy_of_new_beliefs_is_the_reference_bit_for_bit(data):
    """The store makes the rows of a write's new beliefs in one batch as it
    interns them, and ``map_state`` takes the entropy of every stored row
    in one batch, on values padded with -inf. Each belief written to an
    element of its own in one write: ``map_state`` over that element reads
    ``belief_entropy`` of the belief (added to the 0.0 its running sum
    starts from) in float hex, the stored and full rows are its
    ``_lumped_row`` and ``to_full`` rows, ``labels_observed`` reads the
    argmax of that full row, and the belief built back from its id has its
    record, for K in 1..8, partly tracked beliefs, signed zeros, values on
    the clamp, and -inf and finite lumps."""
    k = data.draw(st.integers(1, 8), label="k")
    beliefs = data.draw(st.lists(lumped_beliefs(k), min_size=1, max_size=30), label="beliefs")
    tree = SemanticOctree(1.0, 2, k)
    cells = np.array(list(itertools.product(range(4), repeat=3))[:len(beliefs)])
    codes = morton(*cells.T)
    order = np.argsort(codes)
    store = tree._beliefs
    tree._write(codes[order], np.array([_lumped_row(sem) for sem in beliefs])[order])
    for cell, i, sem in zip(cells.tolist(), tree._held(codes).tolist(), beliefs):
        box = (cell, [c + 1 for c in cell])
        assert tree.map_state(box)[0].hex() == (0.0 + belief_entropy(sem)).hex()
        assert store.rows[i].tobytes() == np.array(_lumped_row(sem)).tobytes()
        assert store.full[i].tobytes() == to_full(sem, k).tobytes()
        assert tree.labels_observed(box)[0].item() == np.argmax(to_full(sem, k))
        assert store.semantics(i).record == sem.record


# what a full row holds: ties, both signed zeros, the default clamp bounds,
# values tiny, subnormal or large
_FULL_VALUES = (st.sampled_from([0.0, -0.0, 6.0, -6.0, 1.5, 5e-324, -5e-324])
                | st.floats(-1e-300, 1e-300) | st.floats(-800.0, 800.0))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_stored_rows_of_full_rows_are_their_truncations_bit_for_bit(data):
    """One numpy pass makes the stored rows of full rows (``_lumped_rows``):
    for K in 1..8 and values tied, signed zeros, on the clamp, tiny or
    large, each row is ``_lumped_row`` of the vector's truncation
    (``from_full``: the top three classes by (-value, class), and with
    K > 3 the rest lumped by one ``logodds.logsumexp`` each) in float hex.
    With a NaN or infinite value the pass raises ValueError exactly when
    some vector's belief refuses it: a -inf value of K > 3 that the lump
    takes is no error, since files hold -inf lumps."""
    k = data.draw(st.integers(1, 8), label="k")
    n = data.draw(st.integers(1, 12), label="n")
    full = np.array([[data.draw(st.sampled_from([0.0, -0.0]))]
                     + data.draw(st.lists(_FULL_VALUES, min_size=k, max_size=k))
                     for _ in range(n)])
    for _ in range(data.draw(st.integers(0, 2), label="non-finite values")):
        at = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, k))
        full[at] = data.draw(st.sampled_from([math.nan, math.inf, NEG_INF]))
    want = []
    for h in full:
        try:
            want.append([float(v).hex() for v in _lumped_row(from_full(h))])
        except ValueError:
            with pytest.raises(ValueError, match="non-finite"):
                _lumped_rows(full)
            return
    assert [[v.hex() for v in row] for row in _lumped_rows(full).tolist()] == want


def test_k3_scans_intern_only_rows_the_store_has_not_seen():
    """A K <= 3 scan takes each changed row's id from the store's index by
    the bytes of its stored row: through scans that keep overwriting
    beliefs, the index is the rows' bytes, one id per bit pattern, the
    store only appends, and each scan appends the new bit patterns its
    write put on leaves, each once. A twin tree whose store is rebuilt
    from its rows before every scan keeps the same leaves and the
    same store, id for id."""
    indexed, fresh = SemanticOctree(1.0, 2, 3), SemanticOctree(1.0, 2, 3)
    params = SensorParams.default(3, clamp_limit=40.0)
    rng = np.random.default_rng(11)
    for _ in range(30):
        beams = [random_beam(rng, 0.5, 3.5, r_max=6.0) for _ in range(6)]
        store, table = fresh._beliefs, fresh.leaf_table()
        fresh._beliefs = _Beliefs(store.rows[:1], 3)
        fresh._beliefs.ids(store.rows[1:])
        fresh._set_leaves(table.starts, table.ids)
        assert fresh._beliefs.index == store.index
        before = [row.tobytes() for row in indexed._beliefs.rows]
        for tree in (indexed, fresh):
            tree.insert_scan(beams, params)
        after = [row.tobytes() for row in indexed._beliefs.rows]
        assert indexed._beliefs.index == {key: i for i, key in enumerate(after)}
        assert after[:len(before)] == before
        held = {after[i] for i in indexed.leaf_table().ids.tolist()}
        assert set(after[len(before):]) == held - set(before)
    a, b = indexed.leaf_table(), fresh.leaf_table()
    for name in ("starts", "sizes", "ids"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert indexed._beliefs.rows.tobytes() == fresh._beliefs.rows.tobytes()


def test_loaded_and_scanned_tables_are_the_reference(tmp_path):
    """A loaded tree's first table and the tables of a tree whose scans keep
    overwriting the beliefs they store have the rows computed afresh,
    classes of bit-equal beliefs included."""
    tree = SemanticOctree(1.0, 2, 3)
    for _ in overwriting_scans(tree, np.random.default_rng(11), 30):
        assert_store_is_the_reference(tree)
    save_octree(tree, tmp_path / "t.ssmioct")
    assert_store_is_the_reference(load_octree(tmp_path / "t.ssmioct"))


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
        sem = TruncatedSemantics(sorted_pairs((c, draw(near)) for c in classes),
                                 draw(near) if lumped else NEG_INF)
        size = 1 << draw(st.integers(0, depth - 1))
        blocks.append(([draw(st.integers(0, n // size - 1)) * size for _ in range(3)], size, sem))
    scans = [[scan_beam(draw, n, k) for _ in range(draw(st.integers(1, 6)))]
             for _ in range(draw(st.integers(1, 4)))]
    return k, depth, prior, blocks, params, scans


@given(case=memo_scan_case())
@settings(max_examples=200, deadline=None)
def test_memoized_scan_is_the_per_element_loop_bit_for_bit(case, tmp_path_factory):
    """``insert_scan`` against ``insert_scan_reference`` (one update per
    element update on dense beliefs, then their pruned leaves) on two
    copies of a painted tree: after every scan the saved bytes are equal,
    and so every element's bits, signed zeros and ties at a bound
    included."""
    k, depth, prior, blocks, params, scans = case
    trees = [SemanticOctree(1.0, depth, k, prior=prior) for _ in range(2)]
    for tree in trees:
        paint(tree, blocks)
    path = tmp_path_factory.mktemp("memo")
    for scan in scans:
        trees[0].insert_scan(scan, params)
        insert_scan_reference(trees[1], scan, params)
        assert saved_bytes(trees[0], path) == saved_bytes(trees[1], path)


@st.composite
def sensor_scan_case(draw):
    """The parameters and painted tree of ``memo_scan_case``, and scans as a
    sensor makes them: 2-16 beams from one or two origins, some beams
    repeated, so most elements near an origin get several updates in one
    scan, hits and traversals mixed, and some chains end at the belief the
    element held."""
    k, depth, prior, blocks, params, _ = draw(memo_scan_case())
    n = 1 << depth
    scans = []
    for _ in range(draw(st.integers(1, 3))):
        origins = [[draw(st.floats(0.0, n, exclude_max=True)) for _ in range(3)]
                   for _ in range(draw(st.integers(1, 2)))]
        beams = []
        for _ in range(draw(st.integers(2, 16))):
            beam = scan_beam(draw, n, k)
            beam = BeamMeasurement(np.array(draw(st.sampled_from(origins))), beam.direction,
                                   beam.range, beam.category, beam.max_range)
            beams += [beam] * draw(st.integers(1, 2))
        scans.append(beams)
    return k, depth, prior, blocks, params, scans


@given(case=sensor_scan_case())
@settings(max_examples=100, deadline=None)
def test_grouped_scan_is_the_per_update_writer_bit_for_bit(case, tmp_path_factory):
    """``insert_scan``, one chain per element with its updates in scan order
    and one write, against ``insert_scan_reference``, one update at a time,
    on sensor-like scans: after every scan the saved bytes are equal, and
    the leaf table's rows are those computed afresh."""
    k, depth, prior, blocks, params, scans = case
    trees = [SemanticOctree(1.0, depth, k, prior=prior) for _ in range(2)]
    for tree in trees:
        paint(tree, blocks)
    path = tmp_path_factory.mktemp("grouped")
    for scan in scans:
        trees[0].insert_scan(scan, params)
        insert_scan_reference(trees[1], scan, params)
        assert saved_bytes(trees[0], path) == saved_bytes(trees[1], path)
        assert_store_is_the_reference(trees[0])


@given(case=sensor_scan_case())
@settings(max_examples=60, deadline=None)
def test_a_sensed_scan_record_is_the_per_update_writer_bit_for_bit(case, tmp_path_factory):
    """Each scan of ``sensor_scan_case`` as the scan record ``sim.sense``
    makes, all its beams from its first beam's origin, cut from the fan's
    memoized walks, against its beams written one update at a time by
    ``insert_scan_reference``: after every scan the saved bytes are equal."""
    k, depth, prior, blocks, params, scans = case
    trees = [SemanticOctree(1.0, depth, k, prior=prior) for _ in range(2)]
    for tree in trees:
        paint(tree, blocks)
    path = tmp_path_factory.mktemp("record")
    for beams in scans:
        scan = Scan(beams[0].origin, tuple(b.direction for b in beams),
                    [b.range for b in beams], [b.category for b in beams], beams[0].max_range)
        trees[0].insert_scan(scan, params)
        insert_scan_reference(trees[1], scan, params)
        assert saved_bytes(trees[0], path) == saved_bytes(trees[1], path)


def test_an_element_whose_chain_ends_where_it_began_is_not_written(params3, caplog):
    """A saturated free element that one beam of a scan hits and two later
    beams cross ends the scan as it began: the grouped scan leaves it
    alone (no write, no split), and the tree is the one the per-update
    reference gives."""
    trees = [SemanticOctree(1.0, 3, 3) for _ in range(2)]
    free = [planar_beam((0.5, 0.5), 0.0, 8.0, None, 8.0)]
    for tree in trees:
        for _ in range(5):
            tree.insert_scan(free, params3)
    saturated = trees[0].query_element((3, 0, 0))
    assert saturated.data == ((1, -6.0), (2, -6.0), (3, -6.0))
    scan = [planar_beam((0.5, 0.5), 0.0, 3.2, 1, 8.0)] + free * 2
    with caplog.at_level(logging.DEBUG, logger="ssmi.octree"):
        trees[0].insert_scan(scan, params3)
    insert_scan_reference(trees[1], scan, params3)
    assert bits(trees[0].query_element((3, 0, 0))) == bits(saturated)
    assert leaves(trees[0]) == leaves(trees[1])
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("insert_scan")]
    assert line == "insert_scan: 3 beams, 20 updates of 8 elements, 0 changed, 0 beliefs added"


@pytest.mark.parametrize("k,lump", [(3, NEG_INF), (5, 6.0)])
def test_a_scan_stores_a_files_tied_belief_in_class_order(k, lump, tmp_path):
    """A file can hold a belief whose tied values are out of class order
    (a version-1 file or one written by hand), and the load keeps that
    order. A saturated hit leaves its values as they were, and the scan
    stores it in class order, as the per-update reference does: also with
    K <= 3, where the element's full row ends as it began."""
    tied = TruncatedSemantics(((3, 6.0), (1, 6.0), (2, 6.0)), lump)
    tree = SemanticOctree(1.0, 3, k)
    write_beliefs(tree, [(3, 0, 0)], tied)
    save_octree(tree, tmp_path / "tied.ssmioct")
    trees = [load_octree(tmp_path / "tied.ssmioct") for _ in range(2)]
    assert bits(trees[0].query_element((3, 0, 0))) == bits(tied)
    scan, params = [planar_beam((0.5, 0.5), 0.0, 3.2, 1, 8.0)], SensorParams.default(k)
    trees[0].insert_scan(scan, params)
    insert_scan_reference(trees[1], scan, params)
    assert trees[0].query_element((3, 0, 0)).data == ((1, 6.0), (2, 6.0), (3, 6.0))
    assert leaves(trees[0]) == leaves(trees[1])


def assert_one_id_per_value(tree):
    """Leaves equal bit for bit hold one id, and leaves holding one id are
    equal bit for bit; so does the whole store, id for id."""
    ids: dict = {}
    for (sem, _, _), i in zip(tree_leaves(tree), tree.leaf_table().ids.tolist()):
        ids.setdefault(exact_key(sem), set()).add(i)
    assert all(len(held) == 1 for held in ids.values())
    assert len(set().union(*ids.values())) == len(ids)
    keys = [exact_key(tree._beliefs.semantics(i)) for i in range(len(tree._beliefs))]
    assert len(set(keys)) == len(keys)
    return len(ids)


def element_id(tree, cell) -> int:
    return int(tree._held(tree._code(cell)))


def test_tree_holds_one_id_per_exact_belief(a7_octree_tree, params3, rng, tmp_path):
    """Writes and loads intern what they store: leaves equal bit for bit
    hold one id, while the two signed zeros stay two."""
    assert assert_one_id_per_value(a7_octree_tree) > 1
    tree = SemanticOctree(1.0, 4, 3)
    for _ in range(20):
        tree.insert_scan([random_beam(rng, 1.0, 15.0, r_max=10.0) for _ in range(5)], params3)
    plus, minus = np.array([0.0, 1.5, 0.0, -2.0]), np.array([0.0, 1.5, -0.0, -2.0])
    for cell in itertools.product(range(2), repeat=3):
        tree.set_element(cell, plus if sum(cell) % 2 else minus)
    tree.set_element((8, 8, 8), plus)
    assert assert_one_id_per_value(tree) > 2
    assert element_id(tree, (0, 0, 1)) == element_id(tree, (8, 8, 8))
    assert element_id(tree, (0, 0, 0)) != element_id(tree, (0, 0, 1))
    save_octree(tree, tmp_path / "t.ssmioct")
    assert_one_id_per_value(load_octree(tmp_path / "t.ssmioct"))


def test_concurrent_reads_after_a_scan_all_see_the_scanned_tree(params3):
    """Readers of a scan's revision, more of them than cores and switching
    often, each read the scanned tree."""
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
    dense per-update scan (``insert_scan_reference``), the leaves of every
    read derived one run at a time (``leaves_of_runs_reference``), and the
    rows of every stored belief computed afresh whenever the store interns
    a row."""
    from ssmi import cli

    config = tmp_path / "a7.json"
    config.write_text(json.dumps({"mapper": {"type": "octree"}, "run": {"explored_stop": 0.9}}))

    def explore(out):
        assert cli.main(["explore", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
        return {name: (out / name).read_bytes() for name in (
            "metrics.csv", "plans.txt", "summary.json", "final_map.ssmioct", "env_truth.ssmigrid")}

    fast = explore(tmp_path / "fast")
    intern = _Beliefs.ids

    def ids_reference(store, rows):
        ids = intern(store, rows)
        beliefs = [store.semantics(i) for i in range(len(store))]
        store.rows = np.array([_lumped_row(sem) for sem in beliefs])
        store.full = np.array([to_full(sem, store.num_classes) for sem in beliefs])
        return ids

    monkeypatch.setattr(SemanticOctree, "insert_scan", insert_scan_reference)
    monkeypatch.setattr(octree, "_leaves", leaves_of_runs_reference)
    monkeypatch.setattr(_Beliefs, "ids", ids_reference)
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
                    to_full(tree.query_element((i, j, k)), 3), gmap.cells[i, j, k]
                )


def leaf_sums(tree, box):
    """Entropy and observed fraction over a box, summed leaf by leaf in
    preorder with each belief's entropy computed afresh, once per belief
    bits (its record)."""
    entropy = 0.0
    seen = total = 0
    known = {}  # per record, the belief's entropy and whether it is off the prior
    for sem, low, size in tree_leaves(tree):
        n = 1
        for i in range(3):
            n *= max(0, min(low[i] + size, box[1][i]) - max(low[i], box[0][i]))
        if n:
            if sem.record not in known:
                known[sem.record] = belief_entropy(sem), off_prior(tree, sem)
            h, off = known[sem.record]
            entropy += n * h
            total += n
            seen += n if off else 0
    return entropy, (seen / total if total else 0.0)


def same_sums(got, want) -> bool:
    """Two (entropy, observed fraction) pairs are one pair of bits, by
    ``float.hex`` (tuple ``==`` takes -0.0 for 0.0), and ``got`` holds
    Python floats, as ``metrics.csv`` writes them."""
    return (all(type(v) is float for v in got)
            and [float.hex(v) for v in got] == [float.hex(v) for v in want])


def test_map_entropy_and_observed_fraction_match_leaf_sums(params3, rng):
    tree = SemanticOctree(1.0, 5, 3)
    for _ in range(30):
        tree.insert_scan([random_beam(rng)], params3)
    for box in (((0, 0, 0), (32, 32, 32)), ((3, 0, 5), (29, 17, 6)), ((4, 4, 4), (4, 9, 9))):
        # same summation order, bit for bit
        assert same_sums(tree.map_state(box), leaf_sums(tree, box))
        labels, observed = tree.labels_observed(box)
        assert labels.shape == observed.shape == tuple(hi - lo for lo, hi in zip(*box))
        for rel in np.ndindex(labels.shape):
            sem = tree.query_element(tuple(lo + r for lo, r in zip(box[0], rel)))
            assert labels[rel] == np.argmax(to_full(sem, 3))
            assert observed[rel] == off_prior(tree, sem)
    with pytest.raises(ValueError):
        tree.labels_observed(((0, 0, 0), (33, 1, 1)))


def grid_sums(gmap, box):
    """The grid's aggregates over a half-open box (None: the whole map) by
    hand: the entropy of the stacked rows and the mean observed flag,
    ``(0.0, 0.0)`` for an empty box."""
    sl = (slice(None),) * 3 if box is None else tuple(map(slice, *box))
    observed = gmap.observed[sl]
    if not observed.size:
        return 0.0, 0.0
    return lo.entropy(gmap.cells[sl].reshape(-1, gmap.num_classes + 1)), float(np.mean(observed))


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
                want = grid_sums(gmap, box)
                assert np.array(gmap.map_state(box)).tobytes() == np.array(want).tobytes()
                want = leaf_sums(tree, box or ((0, 0, 0), tree.dims))
                assert same_sums(tree.map_state(box), want)
    assert 0.0 < tree.map_state()[1] < 1.0
    assert gmap.map_state(boxes[3]) == tree.map_state(boxes[3]) == (0.0, 0.0)


@pytest.mark.parametrize("kind", ["grid", "octree"])
def test_aggregates_reject_boxes_outside_the_map(kind, params3):
    m = GridMap((8, 8, 8), 1.0, 3) if kind == "grid" else SemanticOctree(1.0, 3, 3)
    m.insert_scan([planar_beam((0.5, 3.5), 0.0, 6.5, 2, 9.0, z=3.5)], params3)
    inverted = ((4, 0, 0), (2, 8, 8))
    past_extent = ((0, 0, 0), (12, 12, 12))
    negative_corner = ((-2, 0, 0), (4, 4, 4))
    fractional = ((0, 0, 0), (1.5, 2, 2))  # the octree once counted 6 elements in it
    whole_float = ((0, 0, 0.0), (2, 2, 2))
    planar = ((0, 0), (2, 2))  # the grid once read it as the whole z extent
    for box in (inverted, past_extent, negative_corner, fractional, whole_float, planar, 5):
        for query in (m.map_state, m.labels_observed):
            with pytest.raises(ValueError):
                query(box)
    assert m.map_state(((2, 2, 2), (2, 5, 5))) == (0.0, 0.0)
    box = ((1, 2, 3), (4, 6, 8))
    assert m.map_state(np.array(box)) == m.map_state(box)


@pytest.mark.parametrize("what, bad", [
    ("box", ((4, 0, 0), (2, 8, 8))),
    ("box", ((0, 0, 0), (12, 12, 12))),
    ("box", ((-2, 0, 0), (4, 4, 4))),
    ("prior", [0.0, 1.0, 2.0]),
    ("prior", [0.5, 0.0, 0.0, 0.0]),
    ("prior", [[0.0, 0.0, 0.0, 0.0]]),
    ("prior", [0.0, math.nan, 0.0, 0.0]),
    ("prior", [0.0, math.inf, 0.0, 0.0]),
    ("prior", [0.0, 0.0, 0.0, -math.inf]),
    ("classes", 0),
    ("classes", lo.MAX_CLASSES + 1),
    ("classes", 300),
])
def test_both_maps_reject_a_bad_box_or_prior_with_one_message(what, bad):
    """A box outside the map, a prior that is not a finite K+1 log-odds
    vector with a zero pivot, or a class count outside 1..MAX_CLASSES (what
    the map files hold) raises ValueError with one message on both maps."""
    def message(call) -> str:
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)

    if what == "box":
        maps = (GridMap((8, 8, 8), 1.0, 3), SemanticOctree(1.0, 3, 3))
        texts = {message(lambda: query(bad)) for m in maps
                 for query in (m.map_state, m.labels_observed)}
    elif what == "prior":
        texts = {message(lambda: GridMap((8, 8, 8), 1.0, 3, prior=bad)),
                 message(lambda: SemanticOctree(1.0, 3, 3, prior=bad))}
    else:
        texts = {message(lambda: GridMap((8, 8, 8), 1.0, bad)),
                 message(lambda: SemanticOctree(1.0, 3, bad))}
    assert len(texts) == 1


def test_both_maps_round_trip_their_files_at_the_most_classes(tmp_path):
    """At K = MAX_CLASSES, the most a map file holds, a grid and an octree
    scanned with hits on the first and the last class load from their files
    to the maps they were (the grid's cells in f32) and save again to the
    same bytes."""
    k = lo.MAX_CLASSES
    params = SensorParams.default(k)
    beams = [planar_beam((0.5, 0.5), 0.0, 3.5, k, 8.0),
             planar_beam((0.5, 1.5), 0.0, 2.5, 1, 8.0)]
    gmap = GridMap((8, 8), 1.0, k).insert_scan(beams, params)
    save_grid(gmap, tmp_path / "m.ssmigrid")
    back = load_grid(tmp_path / "m.ssmigrid")
    assert back.num_classes == k and (back.observed == gmap.observed).all()
    assert back.cells.tobytes() == gmap.cells.astype(np.float32).astype(np.float64).tobytes()
    save_grid(back, tmp_path / "again.ssmigrid")
    assert (tmp_path / "again.ssmigrid").read_bytes() == (tmp_path / "m.ssmigrid").read_bytes()
    tree = SemanticOctree(1.0, 3, k).insert_scan(beams, params)
    assert {c for sem, _, _ in tree_leaves(tree) for c, _ in sem.data} >= {1, k}
    first = saved_bytes(tree, tmp_path)
    back = load_octree(tmp_path / "t.ssmioct")
    assert back.num_classes == k and leaves(back) == leaves(tree)
    assert saved_bytes(back, tmp_path, "again.ssmioct") == first


@pytest.mark.parametrize("size, origin", [
    (0.0, (0.0, 0.0, 0.0)),
    (-1.0, (0.0, 0.0, 0.0)),
    (math.nan, (0.0, 0.0, 0.0)),
    (math.inf, (0.0, 0.0, 0.0)),
    (1.0, (math.nan, 0.0, 0.0)),
    (1.0, (0.0, math.inf, 0.0)),
    (1.0, (0.0, 0.0, -math.inf)),
])
def test_both_maps_refuse_a_cell_size_or_origin_that_is_not_finite(size, origin):
    """A cell size that is not positive and finite, or an origin that is
    not finite, raises ValueError when either map is made, not at its
    first scan (where a size of 0 divided by zero, and a size of -1 or NaN
    read as an origin outside the map)."""
    for make in (lambda: GridMap((8, 8, 8), size, 3, origin=origin),
                 lambda: SemanticOctree(size, 3, 3, origin=origin)):
        with pytest.raises(ValueError, match=r"is not (positive|finite)$") as info:
            make()
        assert type(info.value) is ValueError


def test_maps_and_sensor_params_freeze_their_own_copies():
    """Both maps and ``SensorParams`` hold read-only copies of the arrays
    they are given: the caller's array stays writable, and a later edit of
    it reaches neither the map's prior nor the parameters."""
    p = np.zeros(4)
    maps = (GridMap((2, 2), 1.0, 3, prior=p), SemanticOctree(1.0, 1, 3, prior=p))
    p[1] = 1.0
    for m in maps:
        assert m.prior.tolist() == [0.0] * 4
        assert not m.prior.flags.writeable
    names = ("phi_plus", "phi_minus", "psi_plus", "clamp_lo", "clamp_hi")
    given = {name: getattr(SensorParams.default(3), name).copy() for name in names}
    params = SensorParams(**given)
    for name, v in given.items():
        held = v.tolist()
        v[1] += 1.0
        assert getattr(params, name).tolist() == held
        assert not getattr(params, name).flags.writeable


def test_a_converted_maps_origin_is_its_own_and_immutable():
    """A map's origin is three floats that cannot change in place, so a map
    converted from another (``octree_from_grid``, ``grid_from_octree``)
    shares no mutable geometry with its source, on which fan casts cached
    for either map would silently depend."""
    gmap = GridMap((4, 4, 2), 0.5, 3, origin=np.array([1.0, -2.0, 0.5]))
    tree = octree_from_grid(gmap)
    back = grid_from_octree(tree)
    for m in (gmap, tree, back):
        with pytest.raises(TypeError):
            m.origin[0] = 5.0
        assert m.origin == (1.0, -2.0, 0.5)
        assert all(type(v) is float for v in m.origin)


def test_grid_and_octree_answer_the_shared_calls_alike(params3):
    """The same A4-style scans into a grid and a K=3 octree of the grid's
    dims in a larger cube, both through ``insert_scan``: after every scan
    the whole map and a z band agree on labels and observed flags
    (exactly), on the observed fraction (exactly) and on entropy (the
    summation orders differ). Beams end at the world's faces on both."""
    rng = np.random.default_rng(405)
    dims = (24, 20, 12)
    gmap = GridMap(dims, 1.0, 3)
    tree = SemanticOctree(1.0, 5, 3, dims=dims)
    boxes = (None, ((0, 0, 4), (24, 20, 8)))
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
            g_entropy, g_fraction = gmap.map_state(box)
            t_entropy, t_fraction = tree.map_state(box)
            assert g_fraction == t_fraction
            assert g_entropy == pytest.approx(t_entropy, rel=1e-10)
    assert 0.05 < gmap.map_state()[1] < 0.95
    assert len(np.unique(gmap.labels_observed(boxes[0])[0])) == 4


# -- serialization and conversion ------------------------------------------------------

DATA = Path(__file__).parent / "data"


def saved_bytes(tree, tmp_path, name="t.ssmioct"):
    path = tmp_path / name
    save_octree(tree, path)
    return path.read_bytes()


def leaves(tree):
    return leaf_bits(tree_leaves(tree))


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
            to_full(tree.query_element(cell), 3), gmap.cells[cell]
        )
    back = grid_from_octree(tree)
    np.testing.assert_array_equal(back.cells, gmap.cells)


def test_signed_zero_grid_round_trip_keeps_every_cells_bits():
    """The corner's +0.0 and -0.0 beliefs stay eight leaves and the -0.0
    copy of the prior stays observed: converted to an octree and back, the
    grid has the same cell bytes and observed mask."""
    gmap = signed_zero_grid()
    tree = octree_from_grid(gmap)
    back = grid_from_octree(tree)
    assert back.cells.tobytes() == gmap.cells.tobytes()
    assert back.observed.tobytes() == gmap.observed.tobytes()
    assert_pruned(tree)


def test_tied_pairs_keep_their_saved_order(tmp_path):
    """Files written while a lumped update clamped after it sorted can hold
    two tracked classes tied at the clamp out of class order; a load keeps
    that order, so the loaded belief still equals the saved one."""
    tree = SemanticOctree(1.0, 2, 5)
    tied = TruncatedSemantics(data=((5, 4.0), (3, 4.0), (1, 2.87)), others=3.5)
    assert sorted_pairs(tied.data) != tied.data
    write_beliefs(tree, [(1, 2, 3)], tied)
    path = tmp_path / "t.ssmioct"
    save_octree(tree, path)
    assert load_octree(path).query_element((1, 2, 3)) == tied


def test_save_octree_leaves_tree_unchanged(params3, rng, tmp_path):
    """Saving only reads the tree: its arrays and beliefs are as before."""

    def state(tree):
        table = tree.leaf_table()
        return ([a.tobytes() for a in (table.starts, table.sizes, table.ids)],
                tree._beliefs.rows.tobytes())

    tree = SemanticOctree(1.0, 4, 3)
    tree.insert_scan([random_beam(rng, 1.0, 15.0, r_max=10.0) for _ in range(10)], params3)
    assert tree.num_leaves() > 1
    before = state(tree)
    save_octree(tree, tmp_path / "t.ssmioct")
    assert state(tree) == before


def test_a_file_of_unpruned_leaves_loads_to_its_pruned_tree(tmp_path):
    """A hand-made v3 file whose root holds eight element leaves of one
    belief, the prior's, loads to a one-leaf tree of those element beliefs
    and saves again as a fresh tree's bytes."""
    fresh = SemanticOctree(1.0, 1, 3)
    path = tmp_path / "t.ssmioct"
    save_octree(fresh, path)
    want = path.read_bytes()
    record = fresh._beliefs.semantics(0).record
    assert want.endswith(record)
    path.write_bytes(want[:-len(record)] + b"\xff" + record * 8)
    tree = load_octree(path)
    assert tree.num_leaves() == 1 and tree.leaf_table().sizes.tolist() == [2]
    assert all(tree.query_element(cell).record == record
               for cell in itertools.product(range(2), repeat=3))
    save_octree(tree, path)
    assert path.read_bytes() == want


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
    writer's own loader returned, stored beside it as hex floats, over its
    whole cube, and re-saves as a lossless version 3 file."""
    want = json.loads((DATA / f"{name}.leaves.json").read_text())
    tree = load_octree(DATA / f"{name}.ssmioct")
    assert tree.element_size == want["element_size"]
    assert tree.max_depth == want["max_depth"]
    assert tree.num_classes == want["num_classes"]
    assert list(tree.origin) == want["origin"]
    assert tree.dims == (tree.size_elements,) * 3
    assert [float(v).hex() for v in tree.prior] == want["prior"]
    got = [
        [list(low), size, [[c, v.hex()] for c, v in sem.data], sem.others.hex()]
        for sem, low, size in tree_leaves(tree)
    ]
    assert got == want["leaves"]
    assert saved_bytes(tree, tmp_path)[:8] == OCTREE_MAGIC
    assert leaves(load_octree(tmp_path / "t.ssmioct")) == leaves(tree)


def grid_from_octree_reference(tree):
    """Each element of the tree's world from its dense element beliefs."""
    gmap = GridMap(tree.dims, tree.element_size, tree.num_classes, tree.prior, tree.origin)
    beliefs = element_beliefs(tree)
    for i, j, k in np.ndindex(gmap.dims):
        sem = beliefs[i, j, k]
        gmap.cells[i, j, k] = to_full(sem, tree.num_classes)
        gmap.observed[i, j, k] = off_prior(tree, sem)
    return gmap


def with_dims(tree, dims):
    """A tree over the leaves and beliefs of ``tree`` whose world is ``dims``
    elements."""
    out = SemanticOctree(tree.element_size, tree.max_depth, tree.num_classes, tree.prior,
                         tree.origin, dims)
    out._beliefs = tree._beliefs
    table = tree.leaf_table()
    out._set_leaves(table.starts, table.ids)
    return out


@pytest.mark.parametrize("k", [3, 5])
def test_grid_from_octree_matches_element_loop(k):
    tree, _ = scanned_tree(k, 6.0, scans=4)
    for dims in (None, (13, 9, 1), (16, 5, 11)):
        world = tree if dims is None else with_dims(tree, dims)
        got = grid_from_octree(world)
        want = grid_from_octree_reference(world)
        assert got.dims == want.dims == world.dims
        assert got.cells.tobytes() == want.cells.tobytes()
        assert (got.observed == want.observed).all()
    assert 0.0 < want.observed.mean() < 1.0


# -- malformed files -----------------------------------------------------------------


def layout(b: bytes) -> dict:
    """Byte offsets in a K=3 file of any version: ``origin`` is where the
    origin starts, ``prior`` where the prior starts (v3: after the extent),
    ``header`` where the root's record starts, and ``count`` the tracked
    count of the first record holding a belief (v1: the root's summary;
    v2 and v3: the first leaf)."""
    v1 = b[:8] == OCTREE_MAGIC_V1
    origin = 8 + (12 if v1 else 11)
    prior = origin + 24 + (12 if b[:8] == OCTREE_MAGIC else 0)
    header = prior + (4 if v1 else 8) * 4
    count = header + 5 if v1 else b.index(0, header) + 1
    return {"origin": origin, "prior": prior, "header": header, "count": count}


def scanned_depth3_tree(dims=None):
    """A depth-3, K=3 tree after one scan of six 3-D beams."""
    params = SensorParams.default(3)
    rng = np.random.default_rng(7)
    tree = SemanticOctree(1.0, 3, 3, dims=dims)
    tree.insert_scan([random_beam(rng, 1.0, 7.0, r_max=6.0) for _ in range(6)], params)
    return tree


@pytest.fixture(scope="module")
def saved_tree_bytes(tmp_path_factory):
    """Depth-3, K=3 trees as file bytes: version 3 written here, versions 2
    and 1 from committed fixtures (version 2: the tree written here, saved
    by the last version-2 writer)."""
    path = tmp_path_factory.mktemp("oct") / "t.ssmioct"
    save_octree(scanned_depth3_tree(), path)
    return {"v3": path.read_bytes(), "v2": (DATA / "v2_k3.ssmioct").read_bytes(),
            "v1": (DATA / "v1_k3_fold.ssmioct").read_bytes()}


def test_v2_file_loads_as_a_tree_over_its_cube(saved_tree_bytes, tmp_path):
    """A version-2 file holds no extent, so its world is the cube; saved
    again, it differs from the version-2 bytes only in the magic and the
    extent after the origin."""
    path = tmp_path / "v2.ssmioct"
    path.write_bytes(saved_tree_bytes["v2"])
    tree = load_octree(path)
    assert tree.dims == (8, 8, 8)
    assert leaves(tree) == leaves(scanned_depth3_tree())
    v2, v3 = saved_tree_bytes["v2"], saved_bytes(tree, tmp_path)
    assert v3 == saved_tree_bytes["v3"]
    at = layout(v3)["origin"] + 24
    assert v2[:8] == OCTREE_MAGIC_V2 and v3[:8] == OCTREE_MAGIC
    assert v3[at:at + 12] == struct.pack("<3I", 8, 8, 8)
    assert v3[8:at] + v3[at + 12:] == v2[8:]


@pytest.mark.parametrize("dims", [(8, 8, 8), (7, 5, 1), (1, 1, 1), (3, 8, 2)])
def test_tree_file_keeps_its_world(tmp_path, dims):
    """A version-3 file stores the world's extent: the loaded tree has the
    saved one's dims, leaves and aggregates over its world."""
    tree = with_dims(scanned_depth3_tree(), dims)
    save_octree(tree, tmp_path / "t.ssmioct")
    back = load_octree(tmp_path / "t.ssmioct")
    assert back.dims == tree.dims == dims
    assert leaves(back) == leaves(tree)
    assert back.map_state() == tree.map_state()


def test_tree_world_must_fit_its_cube():
    for dims in ((9, 8, 8), (8, 8, 9), (0, 4, 4), (4, 4, 4, 4), (4, 4), (2.7, 4, 4)):
        with pytest.raises(ValueError, match="dims"):
            SemanticOctree(1.0, 3, 3, dims=dims)


@pytest.mark.parametrize("make, match", [
    (lambda: GridMap((8, 8, 8), 1.0, 3.7), "num_classes"),
    (lambda: GridMap((8, 8, 8), 1.0, "3"), "num_classes"),
    (lambda: SemanticOctree(1.0, 3, 3.7), "num_classes"),
    (lambda: GridMap((2.7, 2), 1.0, 3), "dims"),
    (lambda: GridMap((8, "8", 8), 1.0, 3), "dims"),
    (lambda: SemanticOctree(1.0, 0, 3), "max_depth"),
    (lambda: SemanticOctree(1.0, 17, 3), "max_depth"),
    (lambda: SemanticOctree(1.0, 2.5, 3), "max_depth"),
    (lambda: SemanticOctree(1.0, "2", 3), "max_depth"),
])
def test_map_constructors_refuse_extents_depths_and_k_that_are_not_integers(make, match):
    """Both maps read their extents, depth and K as integers: one that is
    not an integer, or out of range, raises ValueError naming it, where a
    float was once cut (2.7 extents made 2, depth 2.5 made 2) or raised
    TypeError; numpy integers are integers."""
    with pytest.raises(ValueError, match=match) as info:
        make()
    assert type(info.value) is ValueError
    grid = GridMap(np.array([4, 3]), 1.0, np.int64(3))
    assert (grid.dims, grid.num_classes) == ((4, 3, 1), 3)
    tree = SemanticOctree(1.0, np.uint8(2), np.int16(3), dims=np.array([4, 3, 2]))
    assert (tree.max_depth, tree.num_classes, tree.dims) == (2, 3, (4, 3, 2))
    assert all(type(v) is int for v in (*grid.dims, *tree.dims, tree.max_depth, tree.num_classes))


def element_size(value: float):
    return lambda b, at: b[:8] + struct.pack("<d", value) + b[16:]


def with_depth(b: bytes, at: dict, depth: int) -> bytes:
    """``b`` with max depth ``depth``, and a v3 extent cut to one element,
    which fits every cube."""
    b = b[:16] + bytes([depth]) + b[17:]
    extent = at["origin"] + 24
    return b[:extent] + struct.pack("<3I", 1, 1, 1) * (at["prior"] > extent) + b[at["prior"]:]


@pytest.mark.parametrize(
    "patch,match",
    [
        (lambda b, at: b[:-1], "truncated"),
        (lambda b, at: b[:at["header"] - 3], "truncated"),
        (lambda b, at: b + b"\0", "trailing"),
        (lambda b, at: with_depth(b, at, 2), "deeper than max_depth"),
        (lambda b, at: with_depth(b, at, 17), "max_depth"),
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
        ("v3", 55, struct.pack("<d", 1.0), "pivot 1.0 is not 0"),  # prior[0], past the extent
        ("v3", 55, struct.pack("<d", math.nan), "pivot nan is not 0"),
        ("v3", 43, struct.pack("<I", 0), r"extent \(0, 8, 8\) is zero or larger"),
        ("v3", 51, struct.pack("<I", 0), r"extent \(8, 8, 0\) is zero or larger"),
        ("v3", 47, struct.pack("<I", 9), r"extent \(8, 9, 8\) is zero or larger than the cube "
                                         "of 8 elements"),
        ("v3", 43, struct.pack("<I", 2**32 - 1), "is zero or larger"),
    ],
    ids=["v1 summary flag", "v2 pivot 1", "v2 pivot nan", "v3 pivot 1", "v3 pivot nan",
         "v3 zero extent x", "v3 zero extent z", "v3 extent past the cube",
         "v3 extent 2**32-1"],
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
            "prior": at["prior"] + size,  # class 1
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
    good = saved_tree_bytes[data.draw(st.sampled_from(["v1", "v2", "v3"]), label="version")]
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
    # the leaves tile the cube in Morton order
    table = tree.leaf_table()
    ends = np.append(table.starts[1:], 8 ** tree.max_depth)
    assert table.starts[0] == 0 and (ends - table.starts == table.sizes ** 3).all()
