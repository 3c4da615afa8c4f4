"""Beam information: fast paths against brute-force oracles, run-length
exactness, beam selection, and trajectory sums."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmi import check, logodds as lo
from ssmi import mi as mi_mod
from ssmi.config import config_from_dict
from ssmi.errors import EmptyRay, OriginOutOfBounds, ScaleExceeded
from ssmi.grid import BeamMeasurement, GridMap, _fan_template
from ssmi.logodds import SensorParams
from ssmi.octree import SemanticOctree
from ssmi.sim import run_episode
from ssmi.mi import (
    SrleRay,
    beam_mi_dense,
    beam_mi_oracle,
    beam_mi_srle,
    beam_mi_srle_batch,
    collapse_to_binary,
    FanCast,
    encode_runs,
    select_nonoverlapping,
    trajectories_mi,
)
from conftest import (
    beam_mi_dense_direct,
    beam_mi_srle_direct,
    cast_fan,
    f_logratio_rows,
    fan_beams,
    planar_beam,
    random_logodds,
    select_nonoverlapping_reference,
    set_cell,
    stacked_casts,
    trajectories_mi_reference,
)


# -- dense path ----------------------------------------------------------------


def test_dense_matches_oracle_randomized():
    result = check.run_dense_suite(trials=300, seed=11)
    assert result.passed, result.failures[:1]
    assert result.max_rel_err < 1e-10


def test_single_cell_two_outcome_value():
    # frozen by hand: 0.5*KL(sigma([0,1.2])||[.5,.5]) + 0.5*KL(sigma([0,-1.2])||[.5,.5])
    params = SensorParams(
        phi_plus=np.array([0.0, 1.2]),
        phi_minus=np.array([0.0, -1.2]),
        psi_plus=np.array([0.0, 0.0]),
        clamp_lo=np.array([0.0, -6.0]),
        clamp_hi=np.array([0.0, 6.0]),
    )
    got = beam_mi_dense(np.zeros((1, 2)), np.zeros((1, 2)), params).value
    assert got == pytest.approx(0.15209445342073516, abs=1e-14)
    assert beam_mi_oracle(np.zeros((1, 2)), np.zeros((1, 2)), params) == pytest.approx(
        got, abs=1e-14
    )


def test_zero_information_params():
    k = 3
    params = SensorParams(
        phi_plus=np.zeros(k + 1),
        phi_minus=np.zeros(k + 1),
        psi_plus=np.zeros(k + 1),
        clamp_lo=np.concatenate([[0.0], -6 * np.ones(k)]),
        clamp_hi=np.concatenate([[0.0], 6 * np.ones(k)]),
    )
    h_t = random_logodds(np.random.default_rng(5), 6, k)
    assert beam_mi_dense(h_t, np.zeros((6, k + 1)), params).value == 0.0
    assert beam_mi_oracle(h_t, np.zeros((6, k + 1)), params) == 0.0


def test_saturated_free_map_residual_is_clamp_leakage(params3):
    # belief pinned at the clamp floor: only the saturation gap leaks
    # information, about 1e-3 nats per occupied class per cell, far below a
    # fresh-map beam
    n = 20
    sat = np.array([0.0, -6.0, -6.0, -6.0])
    h_t = np.tile(sat, (n, 1))
    h_0 = np.zeros((n, 4))
    residual = beam_mi_dense(h_t, h_0, params3).value
    fresh = beam_mi_dense(np.zeros((n, 4)), h_0, params3).value
    assert residual / n < 1.1e-3 * params3.num_classes
    assert residual < 0.15 * fresh


def test_dense_empty_ray():
    with pytest.raises(EmptyRay):
        beam_mi_dense(np.zeros((0, 2)), np.zeros((0, 2)), SensorParams.default(1))


def test_recursion_vs_direct_dense(params3, rng):
    for _ in range(25):
        h_t = random_logodds(rng, 20, 3)
        h_0 = random_logodds(rng, 20, 3, scale=2.0)
        a = beam_mi_dense(h_t, h_0, params3).value
        b = beam_mi_dense_direct(h_t, h_0, params3)
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_mi_nonnegative(rng, params3):
    for _ in range(200):
        h_t = random_logodds(rng, int(rng.integers(1, 12)), 3)
        assert beam_mi_dense(h_t, np.zeros_like(h_t), params3).value >= -1e-12


# -- run-length path ---------------------------------------------------------------


def test_srle_matches_dense_randomized():
    result = check.run_srle_suite(trials=300, seed=13)
    assert result.passed, result.failures[:1]
    assert result.max_rel_err < 1e-10


def test_single_run_equals_repeated_cells(params3, rng):
    chi = random_logodds(rng, 1, 3)
    ray = SrleRay(widths=np.array([9]), chi_t=chi, chi_0=np.zeros((1, 4)))
    a = beam_mi_srle(ray, params3).value
    b = beam_mi_dense(np.tile(chi, (9, 1)), np.zeros((9, 4)), params3).value
    assert a == pytest.approx(b, rel=1e-10)


def test_saturated_free_run_limit_branch(params3):
    # pi0 -> 1 exercises the analytic limit of the geometric sums
    hk = math.log(1e-13 / (1 - 1e-13) / 3)
    chi = np.array([[0.0, hk, hk, hk]])
    ray = SrleRay(widths=np.array([12]), chi_t=chi, chi_0=np.zeros((1, 4)))
    a = beam_mi_srle(ray, params3).value
    h_t, h_0 = ray.expand()
    b = beam_mi_dense(h_t, h_0, params3).value
    assert a == pytest.approx(b, rel=1e-9)


def test_recursion_vs_direct_srle(params3, rng):
    for _ in range(25):
        q = int(rng.integers(1, 7))
        ray = SrleRay(
            widths=rng.integers(1, 17, q),
            chi_t=random_logodds(rng, q, 3),
            chi_0=random_logodds(rng, q, 3, scale=2.0),
        )
        a = beam_mi_srle(ray, params3).value
        b = beam_mi_srle_direct(ray, params3)
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_encode_expand_roundtrip(rng):
    h = np.zeros((10, 3))
    h[:, 1] = [1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0, 3.0]
    ray = encode_runs(h, np.zeros((10, 3)))
    np.testing.assert_array_equal(ray.widths, [3, 2, 2, 3])
    back_t, back_0 = ray.expand()
    np.testing.assert_array_equal(back_t, h)
    assert ray.num_elements == 10


def test_oracle_scale_guard():
    params = SensorParams.default(3)
    with pytest.raises(ScaleExceeded):
        beam_mi_oracle(np.zeros((9, 4)), np.zeros((9, 4)), params)


# -- semantic discrimination (two-wall scene) -----------------------------------


def wall_scene_cells(wall_pmf, n_free=4):
    """Free cells ending at one wall cell with the given class PMF."""
    free = np.array([0.0, -6.0, -6.0])
    wall = lo.logodds_from_pmf(np.array(wall_pmf))
    h_t = np.vstack([np.tile(free, (n_free, 1)), wall])
    h_0 = np.zeros_like(h_t)
    return h_t, h_0


def test_uncertain_wall_carries_more_information():
    params = SensorParams.default(2)
    red_t, red_0 = wall_scene_cells([0.1, 0.8, 0.1])
    green_t, green_0 = wall_scene_cells([0.1, 0.45, 0.45])
    red = beam_mi_oracle(red_t, red_0, params)
    green = beam_mi_oracle(green_t, green_0, params)
    assert green > red
    assert beam_mi_dense(green_t, green_0, params).value == pytest.approx(green, rel=1e-10)


def test_binary_collapse_blind_to_class_split():
    binary_params = SensorParams.default(1)
    red_t, red_0 = wall_scene_cells([0.1, 0.8, 0.1])
    green_t, green_0 = wall_scene_cells([0.1, 0.45, 0.45])
    red = beam_mi_dense(collapse_to_binary(red_t), collapse_to_binary(red_0), binary_params)
    green = beam_mi_dense(collapse_to_binary(green_t), collapse_to_binary(green_0), binary_params)
    assert red.value == pytest.approx(green.value, abs=1e-12)


# -- batch kernels against the single-beam formulas ---------------------------------


def hit_rows(params):
    """The K hit-update log-odds vectors, (K, K+1), made from ``phi_plus``
    and ``psi_plus`` here, apart from ``SensorParams.models``."""
    k = params.num_classes
    rows = np.tile(params.phi_plus, (k, 1))
    rows[np.arange(k), np.arange(1, k + 1)] += params.psi_plus[1:]
    return rows


def beam_mi_dense_reference(h_t, h_0, params):
    """The single-beam dense pass as written before the batch kernel."""
    h_t = np.atleast_2d(np.asarray(h_t, dtype=np.float64))
    h_0 = np.broadcast_to(np.asarray(h_0, dtype=np.float64), h_t.shape)
    lse = lo.logsumexp(h_t, axis=-1)
    log_p0 = -np.asarray(lse)
    pmf = lo.softmax_pmf(h_t)
    f_free = f_logratio_rows(params.phi_minus - h_0, h_t)
    hit = hit_rows(params)
    f_hit = f_logratio_rows(hit[None, :, :] - h_0[:, None, :], h_t[:, None, :])
    before_log_p0 = np.concatenate([[0.0], np.cumsum(log_p0)[:-1]])
    before_f_free = np.concatenate([[0.0], np.cumsum(f_free)[:-1]])
    p_nk = pmf[:, 1:] * np.exp(before_log_p0)[:, None]
    c_nk = f_hit + before_f_free[:, None]
    terms = p_nk * c_nk
    hit_term = float(terms.sum())
    free_term = float(math.exp(np.sum(log_p0)) * np.sum(f_free))
    return mi_mod.BeamMI(hit_term + free_term, hit_term, free_term, terms, p_nk, c_nk)


def beam_mi_srle_reference(ray, params):
    """The single-beam run-length pass as written before the batch kernel."""
    chi_t, chi_0, w = ray.chi_t, ray.chi_0, ray.widths.astype(np.float64)
    lse = np.asarray(lo.logsumexp(chi_t, axis=-1), dtype=np.float64).reshape(-1)
    log_p0 = -lse
    pmf = lo.softmax_pmf(chi_t)
    f_free = f_logratio_rows(params.phi_minus - chi_0, chi_t)
    hit = hit_rows(params)
    f_hit = f_logratio_rows(hit[None, :, :] - chi_0[:, None, :], chi_t[:, None, :])
    run_log_p0 = w * log_p0
    before_log_p0 = np.concatenate([[0.0], np.cumsum(run_log_p0)[:-1]])
    before_f_free = np.concatenate([[0.0], np.cumsum(w * f_free)[:-1]])
    rho = pmf[:, 1:] * np.exp(before_log_p0)[:, None]
    beta = f_hit + before_f_free[:, None]
    s0, s1 = mi_mod._geometric_sums(log_p0, ray.widths)
    theta = beta * s0[:, None] + (f_free * s1)[:, None]
    terms = rho * theta
    hit_term = float(terms.sum())
    free_term = float(math.exp(np.sum(run_log_p0)) * np.sum(w * f_free))
    return mi_mod.BeamMI(hit_term + free_term, hit_term, free_term, terms, rho, theta)


def assert_same_result(got, ref):
    assert (got.value, got.hit_term, got.free_term) == (ref.value, ref.hit_term, ref.free_term)
    for a, b in ((got.terms, ref.terms), (got.p_detail, ref.p_detail),
                 (got.c_detail, ref.c_detail)):
        assert a.shape == b.shape and np.array_equal(a, b)


def cell_rows(rng, kinds, k, clamp):
    """One log-odds row per kind: 0 uniform, 1 saturated at the clamp,
    2 rounded to 0.5, 3 free with p_free within 1e-13 of 1 (the LIMIT_EPS
    branch of the geometric sums), 4 the uniform prior, 5 signed zeros (the
    first class -0.0, the others -0.0 or 0.0)."""
    near_free = math.log(1e-13 / (1.0 - 1e-13) / k)
    rows = np.zeros((len(kinds), k + 1))
    for r, kind in enumerate(kinds):
        if kind == 0:
            rows[r, 1:] = rng.uniform(-clamp, clamp, k)
        elif kind == 1:
            rows[r, 1:] = rng.choice([-clamp, clamp], k)
        elif kind == 2:
            rows[r, 1:] = np.round(rng.uniform(-clamp, clamp, k) * 2.0) / 2.0
        elif kind == 3:
            rows[r, 1:] = near_free
        elif kind == 5:
            rows[r, 1:] = rng.choice([-0.0, 0.0], k)
            rows[r, 1] = -0.0
    return rows


NUM_KINDS = 6
row_kinds = st.lists(st.integers(0, NUM_KINDS - 1), min_size=1, max_size=9)
beam_kinds = st.lists(row_kinds, min_size=1, max_size=7)


def beam_rows(rng, beams, k, clamp):
    """(current, prior) log-odds rows of each beam's cells, one ``cell_rows``
    kind per cell; half the beams share one prior row, as on a map."""
    out = []
    for kinds in beams:
        h_t = cell_rows(rng, kinds, k, clamp)
        if rng.random() < 0.5:
            h_0 = np.broadcast_to(cell_rows(rng, [int(rng.integers(NUM_KINDS))], k, clamp)[0],
                                  h_t.shape)
        else:
            h_0 = cell_rows(rng, rng.integers(0, NUM_KINDS, len(h_t)), k, clamp)
        out.append((h_t, h_0))
    return out


def assert_same_bits(got, want):
    """Values and term sums equal as floats, signed zeros included; the term
    breakdowns equal element for element."""
    assert ([v.hex() for v in (got.value, got.hit_term, got.free_term)]
            == [v.hex() for v in (want.value, want.hit_term, want.free_term)])
    for a, b in ((got.terms, want.terms), (got.p_detail, want.p_detail),
                 (got.c_detail, want.c_detail)):
        assert a.shape == b.shape and np.array_equal(a, b)


@given(k=st.integers(1, 5), beams=beam_kinds, clamp=st.sampled_from([4.0, 6.0, 12.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_dense_equals_single_beam_reference(k, beams, clamp, seed):
    rng = np.random.default_rng(seed)
    params = SensorParams.default(k, clamp_limit=clamp)
    for h_t, h_0 in beam_rows(rng, beams, k, clamp):
        ref = beam_mi_dense_reference(h_t, h_0, params)
        assert_same_result(beam_mi_dense(h_t, h_0, params), ref)


@given(k=st.integers(1, 3), beams=beam_kinds, clamp=st.sampled_from([4.0, 6.0, 12.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_unit_width_runs_degenerate_to_dense(k, beams, clamp, seed):
    """On runs of width 1 the run-length kernel is the dense recursion bit
    for bit (s0 = 1, s1 = 0): the one-beam kernel with its breakdown, and
    the beams stacked in one batch call by value."""
    rng = np.random.default_rng(seed)
    params = SensorParams.default(k, clamp_limit=clamp)
    rows = beam_rows(rng, beams, k, clamp)
    h_t = np.concatenate([t for t, _ in rows])
    runs = SrleRay(widths=np.ones(len(h_t), dtype=np.int64), chi_t=h_t,
                   chi_0=np.concatenate([z for _, z in rows]))
    offsets = np.cumsum([0] + [len(t) for t, _ in rows]).tolist()
    batch = beam_mi_srle_batch(runs, offsets, params)
    for got, (t, z) in zip(batch.tolist(), rows, strict=True):
        want = beam_mi_dense(t, z, params)
        ray = SrleRay(widths=np.ones(len(t), dtype=np.int64), chi_t=t, chi_0=z)
        assert_same_bits(beam_mi_srle(ray, params), want)
        assert got.hex() == want.value.hex()


@given(k=st.integers(1, 5), beams=beam_kinds, clamp=st.sampled_from([4.0, 6.0, 12.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_srle_batch_equals_single_beam_reference(k, beams, clamp, seed):
    rng = np.random.default_rng(seed)
    params = SensorParams.default(k, clamp_limit=clamp)
    rays = []
    for kinds in beams:
        widths = rng.integers(1, 40, len(kinds))
        widths[rng.random(len(kinds)) < 0.3] = 1
        prior = cell_rows(rng, [int(rng.integers(NUM_KINDS))], k, clamp)
        rays.append(SrleRay(widths=widths, chi_t=cell_rows(rng, kinds, k, clamp),
                            chi_0=np.repeat(prior, len(kinds), axis=0)))
    runs = SrleRay(
        widths=np.concatenate([r.widths for r in rays]),
        chi_t=np.concatenate([r.chi_t for r in rays]),
        chi_0=np.concatenate([r.chi_0 for r in rays]),
    )
    offsets = np.cumsum([0] + [r.num_runs for r in rays]).tolist()
    batch = beam_mi_srle_batch(runs, offsets, params)
    assert batch.shape == (len(beams),)
    for b, ray in enumerate(rays):
        ref = beam_mi_srle_reference(ray, params)
        assert float(batch[b]).hex() == ref.value.hex()
        assert_same_result(beam_mi_srle(ray, params), ref)


def test_limit_branch_reached_by_near_free_runs():
    # guards cell_rows kind 3: it must land inside LIMIT_EPS
    rng = np.random.default_rng(0)
    for k in range(1, 6):
        log_p0 = -lo.logsumexp(cell_rows(rng, [3], k, 6.0), axis=-1)
        assert -np.expm1(log_p0[0]) < mi_mod.LIMIT_EPS


def assert_same_rows(got, want):
    """Equal arrays, element for element and bit for bit, signed zeros too."""
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


@given(k=st.integers(1, 5), kinds=row_kinds, clamp=st.sampled_from([4.0, 6.0, 12.0]),
       seed=st.integers(0, 2**32 - 1), neg_inf=st.sampled_from([0.0, 0.3, 1.0]),
       binary=st.booleans())
@settings(max_examples=300, deadline=None)
def test_row_terms_are_the_logodds_reference_bit_for_bit(k, kinds, clamp, seed, neg_inf,
                                                         binary):
    """The fused row terms of the kernels against ``logodds``: every
    ``cell_rows`` kind, class entries set to -inf at random (all of them at
    ``neg_inf = 1``), and, with ``binary``, the K = 1 rows that
    ``collapse_to_binary`` makes of them."""
    rng = np.random.default_rng(seed)
    params = SensorParams.default(1 if binary else k, clamp_limit=clamp)
    h_t = cell_rows(rng, kinds, k, clamp)
    h_t[:, 1:][rng.random((len(kinds), k)) < neg_inf] = -np.inf
    h_0 = cell_rows(rng, rng.integers(0, NUM_KINDS, len(kinds)), k, clamp)
    if binary:
        h_t, h_0 = collapse_to_binary(h_t), collapse_to_binary(h_0)
    hit = hit_rows(params)
    want = (
        -lo.logsumexp(h_t, axis=-1),
        lo.softmax_pmf(h_t),
        f_logratio_rows(params.phi_minus - h_0, h_t),
        f_logratio_rows(hit[None, :, :] - h_0[:, None, :], h_t[:, None, :]),
    )
    got = mi_mod._row_terms(h_t, h_0, params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_rows(g, w)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kernels_reject_rows_without_a_finite_max(bad, params3):
    h_t = np.zeros((3, 4))
    h_t[1, 2] = bad
    runs = SrleRay(widths=np.ones(3, dtype=np.int64), chi_t=h_t, chi_0=np.zeros((3, 4)))
    with pytest.raises(ValueError, match="NaN"):
        beam_mi_dense(h_t, np.zeros(4), params3)
    with pytest.raises(ValueError, match="NaN"):
        beam_mi_srle(runs, params3)
    with pytest.raises(ValueError, match="NaN"):
        beam_mi_srle_batch(runs, [0, 1, 3], params3)


def test_kernels_keep_the_reference_bits_on_minus_inf_classes(params3):
    h_t = np.array([[0.0, -np.inf, 1.5, -2.0],
                    [0.0, -np.inf, -np.inf, -np.inf],
                    [0.0, 3.0, -np.inf, -0.0]])
    h_0 = np.zeros((3, 4))
    runs = SrleRay(widths=np.array([1, 4, 2]), chi_t=h_t, chi_0=h_0)
    assert_same_bits(beam_mi_dense(h_t, h_0, params3),
                     beam_mi_dense_reference(h_t, h_0, params3))
    want = beam_mi_srle_reference(runs, params3)
    assert_same_bits(beam_mi_srle(runs, params3), want)
    assert float(beam_mi_srle_batch(runs, [0, 3], params3)[0]).hex() == want.value.hex()


def test_batch_rejects_empty_segment(params3):
    h = np.zeros((3, 4))
    runs = SrleRay(widths=np.ones(3, dtype=np.int64), chi_t=h, chi_0=h)
    with pytest.raises(EmptyRay):
        beam_mi_srle_batch(runs, [0, 2, 2, 3], params3)
    with pytest.raises(EmptyRay):
        beam_mi_srle(SrleRay(widths=np.ones(0, dtype=np.int64), chi_t=h[:0], chi_0=h[:0]),
                     params3)


def flip_zeros(rows):
    """``rows`` with the sign of every zero entry flipped."""
    return np.where(rows == 0.0, -rows, rows)


# run counts per beam in numpy's pairwise-sum bands: up to the 8-element
# unrolled block, up to the 128-element block, and past it
RUN_COUNT_BANDS = [(1, 8), (9, 128), (129, 180)]


@given(k=st.integers(1, 4), binary=st.booleans(), unit=st.booleans(),
       bands=st.lists(st.sampled_from(RUN_COUNT_BANDS), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batch_values_equal_one_beam_kernels(k, binary, unit, bands, seed):
    """The batch kernel's value of each beam is the value the one-beam
    kernels give it alone, in float hex. Each drawn band adds one to three
    run counts in it with two to six beams each, interleaved in the batch;
    runs draw their (current, prior) rows from a small pool that holds each
    row and its copy with the signs of its zeros flipped, so rows repeat
    and rows that differ only in a zero's sign meet in one batch. With
    ``binary`` the runs are the one-class collapse of the rows under the
    one-class profile; with ``unit`` every run is one cell, and the dense
    kernel gives the same value and breakdown as the run-length one."""
    rng = np.random.default_rng(seed)
    clamp = 6.0
    pool_t = cell_rows(rng, rng.integers(0, NUM_KINDS, 4), k, clamp)
    pool_0 = cell_rows(rng, [4, 5], k, clamp)
    pool_t, pool_0 = (np.concatenate([p, flip_zeros(p)]) for p in (pool_t, pool_0))
    params = SensorParams.default(1 if binary else k, clamp_limit=clamp)
    counts = [int(rng.integers(lo_, hi_ + 1)) for lo_, hi_ in bands
              for _ in range(int(rng.integers(1, 4)))]
    counts = [n for n in counts for _ in range(int(rng.integers(2, 7)))]
    rays = []
    for n in rng.permutation(counts).tolist():
        chi_t = pool_t[rng.integers(0, len(pool_t), n)]
        chi_0 = pool_0[rng.integers(0, len(pool_0), n)]
        if binary:
            chi_t, chi_0 = collapse_to_binary(chi_t), collapse_to_binary(chi_0)
        widths = np.ones(n, dtype=np.int64) if unit else rng.integers(1, 30, n)
        rays.append(SrleRay(widths=widths, chi_t=chi_t, chi_0=chi_0))
    runs = SrleRay(widths=np.concatenate([r.widths for r in rays]),
                   chi_t=np.concatenate([r.chi_t for r in rays]),
                   chi_0=np.concatenate([r.chi_0 for r in rays]))
    offsets = np.cumsum([0] + [r.num_runs for r in rays]).tolist()
    values = beam_mi_srle_batch(runs, offsets, params).tolist()
    assert len(values) == len(rays)
    for value, ray in zip(values, rays):
        one = beam_mi_srle(ray, params)
        assert value.hex() == one.value.hex()
        if unit:
            assert_same_bits(one, beam_mi_dense(ray.chi_t, ray.chi_0, params))


def test_batch_evaluates_each_distinct_row_once(params3, monkeypatch):
    """The batch kernel evaluates the row terms once per distinct
    (current, prior) row by bytes: rows equal but for the sign of a zero,
    in the current or the prior part, are evaluated apart; a NaN or +inf
    row still raises, however often it repeats."""
    real = mi_mod._row_terms
    evaluated = []

    def counted(h_t, h_0, params):
        evaluated.append(h_t.shape[0])
        return real(h_t, h_0, params)

    monkeypatch.setattr(mi_mod, "_row_terms", counted)
    row = np.array([0.0, 0.0, -1.5, 2.0])
    prior = np.zeros(4)
    chi_t = np.array([row, flip_zeros(row), row, row, flip_zeros(row), row])
    chi_0 = np.array([prior, prior, prior, flip_zeros(prior), prior, prior])
    runs = SrleRay(widths=np.arange(1, 7), chi_t=chi_t, chi_0=chi_0)
    offsets = [0, 2, 5, 6]
    values = beam_mi_srle_batch(runs, offsets, params3).tolist()
    assert evaluated == [3]
    for value, start, end in zip(values, offsets, offsets[1:]):
        ray = SrleRay(widths=runs.widths[start:end], chi_t=chi_t[start:end],
                      chi_0=chi_0[start:end])
        assert value.hex() == beam_mi_srle(ray, params3).value.hex()
    for bad in (math.nan, math.inf):
        spoilt = chi_t.copy()
        spoilt[[1, 4], 2] = bad
        with pytest.raises(ValueError, match="NaN"):
            beam_mi_srle_batch(SrleRay(runs.widths, spoilt, chi_0), offsets, params3)


# -- beam selection -----------------------------------------------------------------


def test_parallel_beams_all_selected():
    gmap = GridMap((10, 10), 1.0, 1)
    beams = [planar_beam((0.5, y + 0.5), 0.0, 10.0, None, 10.0) for y in range(5)]
    assert select_nonoverlapping(cast_fan(gmap, beams).beam_keys()) == [0, 1, 2, 3, 4]


def test_identical_beams_one_selected():
    gmap = GridMap((10, 10), 1.0, 1)
    beam = planar_beam((0.5, 0.5), 0.3, 10.0, None, 10.0)
    assert select_nonoverlapping(cast_fan(gmap, [beam, beam]).beam_keys()) == [0]


def test_fan_selection_is_pairwise_disjoint():
    gmap = GridMap((17, 17), 1.0, 1)
    fan = fan_beams(np.array([8.5, 8.5, 0.5]), 8, 7.0)
    traces = [gmap.cast_ray(b) for b in fan]
    keep = select_nonoverlapping(cast_fan(gmap, fan).beam_keys())
    assert len(keep) >= 2
    sets = [{tuple(c) for c in traces[i].cells[1:]} for i in keep]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            assert not sets[a] & sets[b]


def claimed_keys(fan: FanCast) -> list[set[int]]:
    """Each beam's cells of ``fan`` as flat row-major keys of its box."""
    _, ny, nz = fan.dims
    out, end = [], 0
    for count in fan.counts:
        start, end = end, end + count
        out.append({(i * ny + j) * nz + k for i, j, k in fan.cells[start:end].tolist()})
    return out


@pytest.mark.parametrize("dims", [(12, 9, 1), (7, 11, 5), (1, 1, 6), (32, 32, 1), (9, 1, 1)])
def test_flat_key_selection_matches_tuple_sets(dims, rng):
    """The key greedy keeps what the greedy on cell-tuple sets keeps, in
    2-D and 3-D boxes: random beams, beams that leave the map from their
    sensor cell (they claim no cell), repeats of earlier beams, and whole
    traces (sensor cell included). Each beam's keys are exactly its flat
    cell keys, in its cell order."""
    gmap = GridMap(dims, 0.5, 1)
    extent = np.array(dims) * 0.5
    outward = BeamMeasurement(np.array([0.1, 0.2, 0.2]), np.array([-1.0, 0.0, 0.0]),
                              4.0, None, 4.0)
    assert select_nonoverlapping(cast_fan(gmap, []).beam_keys()) == []
    for _ in range(20):
        beams = []
        for _ in range(int(rng.integers(1, 24))):
            draw = rng.random()
            if draw < 0.1:
                beams.append(outward)
            elif draw < 0.25 and beams:
                beams.append(beams[int(rng.integers(len(beams)))])
            else:
                d = rng.normal(size=3)
                if dims[2] == 1:
                    d[2] = 0.0
                beams.append(BeamMeasurement(rng.uniform(0.0, 1.0, 3) * extent,
                                             d / np.linalg.norm(d), 4.0, None, 4.0))
        traces = [gmap.cast_ray(b) for b in beams]
        whole = FanCast(np.concatenate([t.cells for t in traces]),
                        tuple(len(t.cells) for t in traces), gmap.dims)
        for fan in (cast_fan(gmap, beams), whole):
            assert [set(keys) for keys in fan.beam_keys()] == claimed_keys(fan)
            assert [len(keys) for keys in fan.beam_keys()] == list(fan.counts)
            assert (select_nonoverlapping(fan.beam_keys())
                    == select_nonoverlapping_reference(fan.cells, fan.counts))


@pytest.mark.parametrize("dims", [(32, 32, 1), (32, 32, 16), (128, 128, 64)])
def test_key_filter_on_three_box_sizes(dims, rng):
    """On a 32x32 map and in 32x32x16 and 128x128x64 boxes, the key filter
    keeps what the set greedy keeps, on 16-beam fans from poses around the
    middle and anywhere in the box, alone and joined three at a time. A
    fan's keys take at most twice its cells' bytes: from the middle, 1,872
    B for 2,496 B of cells at 10 m in every box, where bit masks with one
    bit per box cell up to each beam's largest key took 1.9 KB, 21.9 KB and
    1.18 MB. Only the box's geometry is read, so no map is made."""
    box = SimpleNamespace(origin=(0.0, 0.0, 0.0), resolution=1.0, dims=dims)
    middle = np.array([d // 2 + 0.5 for d in dims])
    fans = [FanCast.from_pose(box, middle, 16, r) for r in (10.0, 20.0)]
    for _ in range(4):
        for center in (middle + rng.uniform(-4.0, 4.0, 3) * [1, 1, 0],
                       rng.uniform(0.0, 1.0, 3) * dims):
            fans.append(FanCast.from_pose(box, center, 16, float(rng.uniform(2.0, 20.0)),
                                          float(rng.uniform(-math.pi, math.pi))))
    for fan in fans:
        assert sys.getsizeof(fan.keys) <= 2 * fan.cells.nbytes
        assert (select_nonoverlapping(fan.beam_keys())
                == select_nonoverlapping_reference(fan.cells, fan.counts))
    for joined in zip(fans, fans[1:], fans[2:]):
        keep = select_nonoverlapping([keys for fan in joined for keys in fan.beam_keys()])
        assert len(keep) < 48
        assert keep == select_nonoverlapping_reference(
            np.concatenate([fan.cells for fan in joined]),
            [count for fan in joined for count in fan.counts])


@pytest.mark.parametrize("mapper_type", ["grid", "octree"])
def test_trajectories_mi_equals_the_set_greedy_reference(monkeypatch, mapper_type):
    """Every ``trajectories_mi`` call of a short A7-config episode (world 0)
    keeps, per trajectory, the beams the set greedy keeps on the joined
    casts, and gives the values, per trajectory and per kept beam, of the
    reference that slices the kept beams at recomputed cumulative counts,
    bit for bit."""
    real = mi_mod.trajectories_mi
    calls = []

    def rows(batch):
        return batch.beams_evaluated, [
            (t.value.hex(), t.beams_total, t.beams_kept,
             [(i, value.hex()) for i, value in t.beams]) for t in batch.trajectories]

    def checked(mapper, fans, trajectories, params):
        got = real(mapper, fans, trajectories, params)
        keeps, want = trajectories_mi_reference(mapper, fans, trajectories, params)
        for traj, keep in zip(trajectories, keeps):
            assert select_nonoverlapping([k for f in traj for k in fans[f].beam_keys()]) == keep
        assert rows(got) == rows(want)
        calls.append(len(trajectories))
        return got

    monkeypatch.setattr(mi_mod, "trajectories_mi", checked)
    run_episode(config_from_dict(
        {"seed": 0, "mapper": {"type": mapper_type}, "run": {"max_steps": 8}}))
    assert len(calls) >= 6 and sum(calls) > len(calls)


# -- trajectory ------------------------------------------------------------------------


def dense_results_reference(gmap, traces, params):
    """Planning's grid evaluation before it went through the run-length
    kernel: each trace's cells past the sensor cell gathered with one index,
    then the dense pass per beam (which equalled the dense batch kernel per
    beam bit for bit); None for a trace without such cells."""
    cells = [trace.cells[1:] for trace in traces]
    used = [i for i, c in enumerate(cells) if c.shape[0]]
    out = [None] * len(traces)
    if not used:
        return out
    h_t = gmap.cells[tuple(np.concatenate([cells[i] for i in used]).T)]
    h_0 = np.broadcast_to(gmap.prior, h_t.shape)
    offsets = np.cumsum([0] + [cells[i].shape[0] for i in used]).tolist()
    for i, start, end in zip(used, offsets[:-1], offsets[1:]):
        out[i] = beam_mi_dense(h_t[start:end], h_0[start:end], params)
    return out


@given(k=st.integers(1, 5), clamp=st.sampled_from([4.0, 6.0, 12.0]),
       seed=st.integers(0, 2**32 - 1), num_beams=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_trajectories_mi_on_grid_matches_dense_reference(k, clamp, seed, num_beams):
    rng = np.random.default_rng(seed)
    params = SensorParams.default(k, clamp_limit=clamp)
    dims = (9, 7, 4)
    prior = cell_rows(rng, [int(rng.choice([0, 2, 4]))], k, clamp)[0]
    gmap = GridMap(dims, 0.5, k, prior=prior)
    gmap.cells = cell_rows(rng, rng.integers(0, 5, math.prod(dims)), k, clamp).reshape(
        dims + (k + 1,))
    extent = np.array(dims) * 0.5
    # the first beam leaves the map from its sensor cell: no cell past it
    beams = [BeamMeasurement(np.array([0.25, 1.0, 1.0]), np.array([-1.0, 0.0, 0.0]), 3.0, None, 3.0)]
    for _ in range(num_beams):
        d = rng.normal(size=3)
        beams.append(BeamMeasurement(rng.uniform(0.0, 1.0, 3) * extent, d / np.linalg.norm(d),
                                     4.0, None, 4.0))
    want = dense_results_reference(gmap, [gmap.cast_ray(b) for b in beams], params)
    assert want[0] is None
    # one trajectory per beam, then all beams in one trajectory
    fans = [cast_fan(gmap, [b]) for b in beams]
    trajectories = [[i] for i in range(len(beams))] + [list(range(len(beams)))]
    got = trajectories_mi(gmap, fans, trajectories, params).trajectories
    for traj, ref, fan in zip(got, want, fans):
        if ref is None:
            assert traj.beams == [] and traj.value == 0.0
            with pytest.raises(EmptyRay):
                mi_mod.beam_mi(gmap, fan.cells, params)
        else:
            assert [i for i, _ in traj.beams] == [0]
            assert traj.beams[0][1].hex() == ref.value.hex()
            assert_same_bits(mi_mod.beam_mi(gmap, fan.cells, params), ref)
            assert traj.value.hex() == (0.0 + ref.value).hex()
    total = 0.0
    for i, value in got[-1].beams:
        assert value.hex() == want[i].value.hex()
        total += want[i].value
    assert got[-1].value.hex() == total.hex()


@pytest.mark.parametrize("kind", ["grid", "octree"])
def test_no_cell_past_the_sensor_cells_calls_no_kernel(kind, params3, monkeypatch):
    mapper = GridMap((8, 8, 8), 1.0, 3) if kind == "grid" else SemanticOctree(1.0, 3, 3)
    outward = BeamMeasurement(np.array([0.5, 3.5, 3.5]), np.array([-1.0, 0.0, 0.0]),
                              2.0, None, 2.0)
    assert mapper.encode_traces(*stacked_casts([mapper.cast_ray(outward)] * 2)) == (None, [0, 0])

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel called without runs")

    monkeypatch.setattr(mi_mod, "beam_mi_srle_batch", no_kernel)
    fans = [cast_fan(mapper, [outward, outward]), cast_fan(mapper, [])]
    got = trajectories_mi(mapper, fans, [[0], [1], [], [1, 0, 1]], params3)
    assert [(t.value, t.beams_total, t.beams_kept, t.beams) for t in got.trajectories] == [
        (0.0, 2, 2, []), (0.0, 0, 0, []), (0.0, 0, 0, []), (0.0, 2, 2, [])]
    assert got.beams_evaluated == 2


def trajectory_value(mapper, beams_per_pose, params):
    """The :class:`TrajectoryMI` of one trajectory that observes each pose's
    beams in turn, cast with the reference ``cast_fan``."""
    fans = [cast_fan(mapper, beams) for beams in beams_per_pose]
    return trajectories_mi(mapper, fans, [list(range(len(fans)))], params).trajectories[0]


def test_trajectory_single_beam_equals_beam_mi(params1):
    gmap = GridMap((12, 12), 1.0, 1)
    beam = planar_beam((0.5, 5.5), 0.0, 8.0, None, 8.0)
    total = trajectory_value(gmap, [[beam]], params1).value
    trace = gmap.cast_ray(beam)
    h_t = gmap.cells[tuple(trace.cells[1:].T)]
    expect = beam_mi_dense(h_t, np.broadcast_to(gmap.prior, h_t.shape), params1).value
    assert total == pytest.approx(expect, rel=1e-12)


def test_trajectory_disjoint_beams_add(params1):
    gmap = GridMap((12, 12), 1.0, 1)
    b1 = planar_beam((0.5, 2.5), 0.0, 6.0, None, 6.0)
    b2 = planar_beam((0.5, 9.5), 0.0, 6.0, None, 6.0)
    total = trajectory_value(gmap, [[b1], [b2]], params1).value
    parts = (trajectory_value(gmap, [[b1]], params1).value
             + trajectory_value(gmap, [[b2]], params1).value)
    assert total == pytest.approx(parts, rel=1e-12)


def test_filtered_leq_naive_sum(params3, rng):
    gmap = GridMap((20, 20), 1.0, 3)
    for _ in range(40):
        cell = (int(rng.integers(20)), int(rng.integers(20)), 0)
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        set_cell(gmap, cell, h)
    fan = fan_beams(np.array([10.5, 10.5, 0.5]), 12, 8.0)
    traj = trajectory_value(gmap, [fan], params3)
    naive = 0.0
    for beam in fan:
        trace = gmap.cast_ray(beam)
        h_t = gmap.cells[tuple(trace.cells[1:].T)]
        naive += beam_mi_dense(h_t, np.broadcast_to(gmap.prior, h_t.shape), params3).value
    assert traj.value <= naive + 1e-12
    assert traj.beams_kept <= traj.beams_total


@pytest.mark.parametrize("kind", ["grid", "octree"])
def test_profile_must_match_the_map_or_have_one_class(kind, params1, params3):
    mapper = GridMap((8, 8, 8), 1.0, 2) if kind == "grid" else SemanticOctree(1.0, 3, 2)
    inward = fan_beams(np.array([3.5, 3.5, 3.5]), 4, 3.0)
    outward = BeamMeasurement(np.array([0.5, 3.5, 3.5]), np.array([-1.0, 0.0, 0.0]),
                              2.0, None, 2.0)
    for beams in ([inward], [[outward]]):  # with and without runs to evaluate
        with pytest.raises(ValueError, match="^sensor profile and map disagree on K$"):
            trajectory_value(mapper, beams, params3)
    assert trajectory_value(mapper, [inward], params1).value > 0.0


# -- surfaces -----------------------------------------------------------------------


def test_mi_surface_interior_translation_symmetry(params1):
    gmap = GridMap((20, 20), 1.0, 1)
    surface = mi_mod.mi_surface(gmap, params1, num_beams=8, max_range=4.0)
    interior = surface[5:15, 5:15]
    assert np.ptp(interior) < 1e-9
    assert np.all(interior > 0)


def test_mi_surface_k1_equals_binary_path():
    # on a one-class map the one-class profile evaluates the map as it is,
    # which is what the per-beam occupancy collapse gives there
    gmap = GridMap((16, 16), 1.0, 1)
    params = SensorParams.default(1)
    plain = mi_mod.mi_surface(gmap, params, num_beams=6, max_range=4.0)
    binary = mi_surface_reference(gmap, params, 6, 4.0, binary=True)
    np.testing.assert_allclose(plain, binary, rtol=0, atol=1e-12)


def mi_surface_reference(gmap, params, num_beams, max_range, binary=False):
    """The per-beam surface loop with the single-beam reference formula."""
    binary_params = SensorParams.default(1)
    labels = gmap.labels_observed()[0][:, :, 0]
    out = np.zeros(gmap.dims[:2])
    for i in range(gmap.dims[0]):
        for j in range(gmap.dims[1]):
            if labels[i, j] != 0:
                continue
            total = 0.0
            for beam in fan_beams(gmap.cell_center((i, j, 0)), num_beams, max_range):
                cells = gmap.cast_ray(beam).cells[1:]
                if cells.shape[0] == 0:
                    continue
                h_t = gmap.cells[tuple(cells.T)]
                h_0 = np.broadcast_to(gmap.prior, h_t.shape)
                if binary:
                    total += beam_mi_dense_reference(
                        collapse_to_binary(h_t), collapse_to_binary(h_0), binary_params).value
                else:
                    total += beam_mi_dense_reference(h_t, h_0, params).value
            out[i, j] = total
    return out


def two_wall_scene():
    """The A6 arena: saturated free space with a class-certain and a
    class-uncertain wall segment."""
    gmap = GridMap((24, 16), 1.0, 2)
    gmap.cells[..., :] = np.array([0.0, -6.0, -6.0])
    gmap.observed[:] = True
    for y in range(5, 11):
        set_cell(gmap, (5, y, 0), lo.logodds_from_pmf(np.array([0.1, 0.8, 0.1])))
        set_cell(gmap, (18, y, 0), lo.logodds_from_pmf(np.array([0.1, 0.45, 0.45])))
    return gmap


@pytest.mark.parametrize("binary", [False, True])
def test_mi_surface_equals_per_beam_reference(binary):
    gmap = two_wall_scene()
    params = SensorParams.default(2)
    profile = SensorParams.default(1) if binary else params
    got = mi_mod.mi_surface(gmap, profile, num_beams=16, max_range=6.0)
    want = mi_surface_reference(gmap, params, 16, 6.0, binary=binary)
    assert np.array_equal(got, want)
    assert np.count_nonzero(got) == 24 * 16 - 12


# -- the pose fan memo ---------------------------------------------------------------


def clear_fan_memos():
    _fan_template.cache_clear()
    mi_mod._fan_directions.cache_clear()


def assert_same_fan(got, want):
    assert got.counts == want.counts and got.dims == want.dims
    assert got.cells.dtype == want.cells.dtype == np.int32
    assert got.cells.shape == want.cells.shape
    assert got.cells.tobytes() == want.cells.tobytes()


@pytest.mark.parametrize("resolution, origin", [(1.0, (0.0, 0.0, 0.0)), (0.3, (0.1, -0.2, 0.0))])
def test_a_fan_served_from_the_memo_is_the_fan_cast_afresh(resolution, origin):
    """A fan shifted from a memoized walk (a pose whose sub-cell part an
    earlier pose shares) has the bytes of the same fan cast with an empty
    memo, and of casting its beams; poses near the walls cut the walks to
    the box."""
    gmap = GridMap((12, 9), resolution, 3, origin=origin)
    cells = [(0, 0), (5, 4), (11, 8), (1, 7), (10, 2), (6, 0)]
    for heading in (0.0, 0.7, math.pi):
        for first, second in zip(cells, cells[1:]):
            fan = (gmap.cell_center(second + (0,)), 16, 7 * resolution, heading, 1.5 * math.pi)
            clear_fan_memos()
            miss = FanCast.from_pose(gmap, *fan)
            assert _fan_template.cache_info().misses == 1
            clear_fan_memos()
            FanCast.from_pose(gmap, gmap.cell_center(first + (0,)), *fan[1:])
            before = _fan_template.cache_info()
            served = FanCast.from_pose(gmap, *fan)
            after = _fan_template.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + 1
            if resolution == 1.0:  # every cell center has the sub-cell part (0.5, 0.5, 0.5)
                assert after.hits == before.hits + 1
            assert_same_fan(served, miss)
            assert_same_fan(served, cast_fan(gmap, fan_beams(*fan)))


def test_a_memoized_sub_cell_origin_still_checks_the_pose():
    """With the memo holding the walks of a fan whose sub-cell part the
    next poses share, a NaN heading, a negative or NaN range and a center
    outside the map (at either side) still raise, each time, and serve
    nothing from the memo."""
    gmap = GridMap((8, 8), 1.0, 3)
    clear_fan_memos()
    FanCast.from_pose(gmap, [2.5, 2.5, 0.5], 16, 5.0)
    assert _fan_template.cache_info().currsize == 1
    hits = _fan_template.cache_info().hits
    for _ in range(2):
        with pytest.raises(ValueError, match="finite norm"):
            FanCast.from_pose(gmap, [3.5, 3.5, 0.5], 16, 5.0, math.nan)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="range"):
                FanCast.from_pose(gmap, [3.5, 3.5, 0.5], 16, bad)
        for center in ([8.5, 2.5, 0.5], [-0.5, 2.5, 0.5], [2.5, 2.5, 1.5]):
            with pytest.raises(OriginOutOfBounds):
                FanCast.from_pose(gmap, center, 16, 5.0)
    assert _fan_template.cache_info().hits == hits


def test_a_range_far_past_the_box_walks_only_the_box():
    """A range far past the map casts what casting its beams gives, and
    the memo's walks stop at the sum of the box's extents (12 cells here),
    past which no ray stays in the box."""
    gmap = GridMap((6, 5), 1.0, 3)
    clear_fan_memos()
    center = gmap.cell_center((1, 3, 0))
    far = FanCast.from_pose(gmap, center, 16, 1e12)
    assert_same_fan(far, cast_fan(gmap, fan_beams(center, 16, 1e12)))
    assert_same_fan(far, FanCast.from_pose(gmap, center, 16, 12.0))
    info = _fan_template.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    directions = mi_mod._fan_directions(16, 0.0, 2.0 * math.pi)
    offsets = _fan_template((0.5, 0.5, 0.5), directions, 12.0)[0]
    assert _fan_template.cache_info().hits == 2
    assert np.abs(offsets).max() <= 12


def test_the_fan_memo_stays_within_its_bound_over_surfaces(params3):
    """``mi_surface`` on a 0.3 m map casts from every cell, from sub-cell
    origins that differ between cells; over eight fan shapes that is more
    keys than the memo holds, and it holds no more than its bound."""
    gmap = GridMap((16, 16), 0.3, 3, origin=(0.1, 0.2, 0.0))
    clear_fan_memos()
    for num_beams in range(4, 20, 2):
        mi_mod.mi_surface(gmap, params3, num_beams=num_beams, max_range=2.0)
    info = _fan_template.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize
    assert mi_mod._fan_directions.cache_info().currsize == 8


# -- failing-instance replay ----------------------------------------------------------


def test_instance_serialization_roundtrip(rng):
    h_t, h_0, params = check.sample_dense_instance(rng)
    text = check.instance_to_json("dense", check._dense_payload(h_t, h_0), params)
    kind, (bt, b0, bp) = check.instance_from_json(text)
    assert kind == "dense"
    np.testing.assert_array_equal(bt, h_t)
    np.testing.assert_array_equal(b0, h_0)
    np.testing.assert_array_equal(bp.phi_plus, params.phi_plus)
    k2, fast, ref, rel = check.replay_instance(text)
    assert rel < 1e-10
