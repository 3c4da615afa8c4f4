"""Beam information: fast paths against brute-force oracles, run-length
exactness, beam selection, and trajectory sums."""

import math

import numpy as np
import pytest

from ssmi import check, logodds as lo
from ssmi import mi as mi_mod
from ssmi.errors import EmptyRay, ScaleExceeded
from ssmi.grid import BeamMeasurement, GridMap
from ssmi.logodds import SensorParams
from ssmi.mi import (
    SrleRay,
    beam_mi_dense,
    beam_mi_dense_direct,
    beam_mi_oracle,
    beam_mi_srle,
    beam_mi_srle_direct,
    collapse_to_binary,
    encode_runs,
    fan_beams,
    select_nonoverlapping,
    trajectory_mi,
)
from conftest import random_logodds


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


def test_unit_width_runs_degenerate_to_dense(params3, rng):
    chi_t = random_logodds(rng, 6, 3)
    chi_0 = random_logodds(rng, 6, 3, scale=2.0)
    ray = SrleRay(widths=np.ones(6, dtype=int), chi_t=chi_t, chi_0=chi_0)
    srle = beam_mi_srle(ray, params3, return_detail=True)
    dense = beam_mi_dense(chi_t, chi_0, params3, return_detail=True)
    assert srle.value == pytest.approx(dense.value, rel=1e-12)
    np.testing.assert_allclose(srle.terms, dense.terms, rtol=1e-12, atol=1e-300)


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


# -- beam selection -----------------------------------------------------------------


def test_parallel_beams_all_selected():
    gmap = GridMap((10, 10), 1.0, 1)
    beams = [BeamMeasurement.planar((0.5, y + 0.5), 0.0, 10.0, None, 10.0) for y in range(5)]
    traces = [gmap.cast_ray(b) for b in beams]
    assert select_nonoverlapping(traces) == [0, 1, 2, 3, 4]


def test_identical_beams_one_selected():
    gmap = GridMap((10, 10), 1.0, 1)
    beam = BeamMeasurement.planar((0.5, 0.5), 0.3, 10.0, None, 10.0)
    traces = [gmap.cast_ray(beam), gmap.cast_ray(beam)]
    assert select_nonoverlapping(traces) == [0]


def test_fan_selection_is_pairwise_disjoint():
    gmap = GridMap((17, 17), 1.0, 1)
    fan = fan_beams(np.array([8.5, 8.5, 0.5]), 8, 7.0)
    traces = [gmap.cast_ray(b) for b in fan]
    keep = select_nonoverlapping(traces)
    assert len(keep) >= 2
    sets = [{tuple(c) for c in traces[i].cells[1:]} for i in keep]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            assert not sets[a] & sets[b]


def select_nonoverlapping_reference(traces, skip_first_cell=True):
    """Greedy filter over sets of cell tuples, as the flat-key filter was
    written before."""
    chosen, used = [], set()
    for idx, trace in enumerate(traces):
        cells = trace.cells[1:] if skip_first_cell else trace.cells
        cell_set = {tuple(c) for c in cells}
        if not cell_set & used:
            chosen.append(idx)
            used |= cell_set
    return chosen


@pytest.mark.parametrize("dims", [(12, 9, 1), (7, 11, 5), (1, 1, 6)])
def test_flat_key_selection_matches_tuple_sets(dims, rng):
    gmap = GridMap(dims, 0.5, 1)
    extent = np.array(dims) * 0.5
    assert select_nonoverlapping([]) == []
    for _ in range(20):
        beams = []
        for _ in range(int(rng.integers(1, 24))):
            d = rng.normal(size=3)
            if dims[2] == 1:
                d[2] = 0.0
            beams.append(BeamMeasurement(rng.uniform(0.0, 1.0, 3) * extent, d / np.linalg.norm(d),
                                         4.0, None, 4.0))
        traces = [gmap.cast_ray(b) for b in beams]
        for skip in (True, False):
            assert (select_nonoverlapping(traces, skip_first_cell=skip)
                    == select_nonoverlapping_reference(traces, skip_first_cell=skip))


# -- trajectory ------------------------------------------------------------------------


def test_trajectory_single_beam_equals_beam_mi(params1):
    gmap = GridMap((12, 12), 1.0, 1)
    beam = BeamMeasurement.planar((0.5, 5.5), 0.0, 8.0, None, 8.0)
    total = trajectory_mi(gmap, [[beam]], params1)
    trace = gmap.cast_ray(beam)
    h_t = gmap.cells[tuple(trace.cells[1:].T)]
    expect = beam_mi_dense(h_t, np.broadcast_to(gmap.prior, h_t.shape), params1).value
    assert total == pytest.approx(expect, rel=1e-12)


def test_trajectory_disjoint_beams_add(params1):
    gmap = GridMap((12, 12), 1.0, 1)
    b1 = BeamMeasurement.planar((0.5, 2.5), 0.0, 6.0, None, 6.0)
    b2 = BeamMeasurement.planar((0.5, 9.5), 0.0, 6.0, None, 6.0)
    total = trajectory_mi(gmap, [[b1], [b2]], params1)
    parts = trajectory_mi(gmap, [[b1]], params1) + trajectory_mi(gmap, [[b2]], params1)
    assert total == pytest.approx(parts, rel=1e-12)


def test_filtered_leq_naive_sum(params3, rng):
    gmap = GridMap((20, 20), 1.0, 3)
    for _ in range(40):
        cell = (int(rng.integers(20)), int(rng.integers(20)), 0)
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        gmap.set_cell(cell, h)
    fan = fan_beams(np.array([10.5, 10.5, 0.5]), 12, 8.0)
    detail = trajectory_mi(gmap, [fan], params3, return_detail=True)
    naive = 0.0
    for beam in fan:
        trace = gmap.cast_ray(beam)
        h_t = gmap.cells[tuple(trace.cells[1:].T)]
        naive += beam_mi_dense(h_t, np.broadcast_to(gmap.prior, h_t.shape), params3).value
    assert detail.value <= naive + 1e-12
    assert detail.beams_kept <= detail.beams_total


# -- surfaces -----------------------------------------------------------------------


def test_mi_surface_interior_translation_symmetry(params1):
    gmap = GridMap((20, 20), 1.0, 1)
    surface = mi_mod.mi_surface(gmap, params1, num_beams=8, max_range=4.0)
    interior = surface[5:15, 5:15]
    assert np.ptp(interior) < 1e-9
    assert np.all(interior > 0)


def test_mi_surface_k1_equals_binary_path():
    gmap = GridMap((16, 16), 1.0, 1)
    params = SensorParams.default(1)
    plain = mi_mod.mi_surface(gmap, params, num_beams=6, max_range=4.0)
    binary = mi_mod.mi_surface(gmap, params, num_beams=6, max_range=4.0, binary=True)
    np.testing.assert_allclose(plain, binary, rtol=0, atol=1e-12)


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
