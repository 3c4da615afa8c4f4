"""Acceptance criteria A1-A8, one test per criterion at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion (or ``-s`` to see the printed summaries).
"""

import time

import numpy as np
import pytest

from ssmi import check, logodds as lo
from ssmi.config import config_from_dict
from ssmi.grid import BeamMeasurement, GridMap
from ssmi.logodds import SensorParams
from ssmi.mi import SrleRay, beam_mi_dense, beam_mi_srle, mi_surface
from ssmi.octree import SemanticOctree
from ssmi.sim import run_episode, srle_study
from conftest import (
    beam_mi_dense_direct,
    beam_mi_srle_direct,
    element_beliefs,
    leaf_bits,
    pruned_leaves_reference,
    set_cell,
    to_full,
    tree_leaves,
)


def report(name: str, detail: str) -> None:
    print(f"{name} PASS: {detail}")


def test_a1_dense_matches_outcome_tree_oracle():
    """A1: 1000 random small instances, dense vs enumeration, 1e-10 relative."""
    t0 = time.monotonic()
    result = check.run_dense_suite(trials=1000, seed=101)
    elapsed = time.monotonic() - t0
    assert result.passed, f"{len(result.failures)} instances above tolerance"
    assert result.max_rel_err < 1e-10
    assert elapsed < 30.0
    report("A1", f"max rel err {result.max_rel_err:.2e} over 1000 trials in {elapsed:.1f}s")


def test_a2_srle_equals_dense_including_singular_branch():
    """A2: 1000 random run-length rays vs dense expansion, 1e-10 relative,
    with saturated-free runs exercising the geometric-sum limits."""
    t0 = time.monotonic()
    result = check.run_srle_suite(trials=1000, seed=202)
    assert result.passed, f"{len(result.failures)} instances above tolerance"
    assert result.max_rel_err < 1e-10

    # pinned singular-branch instances: pi0 = 0.5 and pi0 = 1 - 1e-13
    params = SensorParams.default(3)
    for pi0 in (0.5, 1.0 - 1e-13):
        chi = check._chi_for_pi0(pi0, 3)
        ray = SrleRay(
            widths=np.array([16, 3, 16]),
            chi_t=np.vstack([chi, check._chi_for_pi0(0.3, 3), chi]),
            chi_0=np.zeros((3, 4)),
        )
        fast = beam_mi_srle(ray, params).value
        h_t, h_0 = ray.expand()
        dense = beam_mi_dense(h_t, h_0, params).value
        assert fast == pytest.approx(dense, rel=1e-10)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("A2", f"max rel err {result.max_rel_err:.2e} over 1000 trials in {elapsed:.1f}s")


def test_a3_recursions_agree_and_dense_cost_is_linear():
    """A3: forward passes match direct sums at 1e-12 on 200 rays each; the
    dense evaluation time scales linearly in the cell count."""
    rng = np.random.default_rng(303)
    params = SensorParams.default(3)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        h_t = np.zeros((n, 4))
        h_t[:, 1:] = rng.uniform(-6, 6, (n, 3))
        h_0 = np.zeros((n, 4))
        h_0[:, 1:] = rng.uniform(-2, 2, (n, 3))
        a = beam_mi_dense(h_t, h_0, params).value
        b = beam_mi_dense_direct(h_t, h_0, params)
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)
    for _ in range(200):
        q = int(rng.integers(1, 7))
        ray = SrleRay(
            widths=rng.integers(1, 17, q),
            chi_t=np.concatenate(
                [np.zeros((q, 1)), rng.uniform(-6, 6, (q, 3))], axis=1
            ),
            chi_0=np.concatenate(
                [np.zeros((q, 1)), rng.uniform(-2, 2, (q, 3))], axis=1
            ),
        )
        a = beam_mi_srle(ray, params).value
        b = beam_mi_srle_direct(ray, params)
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)

    def inputs(n_cells: int) -> tuple[np.ndarray, np.ndarray]:
        h_t = np.zeros((n_cells, 4))
        h_t[:, 1:] = rng.uniform(-6, 6, (n_cells, 3))
        return h_t, np.zeros((n_cells, 4))

    # the two sizes alternate call by call, so drift in host speed hits both
    sizes = {4096: inputs(4096), 8192: inputs(8192)}
    times = {n: [] for n in sizes}
    for _ in range(100):
        for n, (h_t, h_0) in sizes.items():
            t0 = time.perf_counter()
            beam_mi_dense(h_t, h_0, params)
            times[n].append(time.perf_counter() - t0)
    ratio = float(np.median(times[8192]) / np.median(times[4096]))
    assert 1.5 <= ratio <= 2.6, f"time ratio {ratio:.2f} outside [1.5, 2.6]"
    report("A3", f"recursions exact; 2N/N time ratio {ratio:.2f}")


def test_a4_octree_equals_grid_bit_for_bit():
    """A4: 200 random beams into a 32^3 scene; every element equals the dense
    cell exactly, and the tree's leaves are the pruned leaves of its
    element beliefs, so pruning is invisible to queries."""
    rng = np.random.default_rng(404)
    params = SensorParams.default(3)
    gmap = GridMap((32, 32, 32), 1.0, 3)
    tree = SemanticOctree(1.0, 5, 3)
    for _ in range(200):
        origin = rng.uniform(1.0, 31.0, 3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r_max = 24.0
        r = float(rng.uniform(0.5, r_max)) if rng.random() < 0.8 else r_max
        cat = int(rng.integers(1, 4)) if r < r_max else None
        beam = BeamMeasurement(origin, d, r, cat, r_max)
        gmap.integrate(beam, params)
        tree.insert_scan([beam], params)
    for i in range(32):
        for j in range(32):
            for k in range(32):
                got = to_full(tree.query_element((i, j, k)), 3)
                want = gmap.cells[i, j, k]
                assert np.array_equal(got, want), (i, j, k, got, want)
    pruned = pruned_leaves_reference(element_beliefs(tree))
    assert leaf_bits(tree_leaves(tree)) == leaf_bits(pruned)
    report("A4", f"32^3 elements bit-identical; {tree.num_leaves()} leaves, pruned")


def test_a5_run_count_flat_while_element_count_grows():
    """A5: corridor sweep over resolutions 1,2,4,8 per meter: mean runs per
    ray stay at most 4 while the element count grows at least 3.5x."""
    config = config_from_dict(
        {
            "seed": 505,
            "env": {"profile": "corridor", "dims": [16, 16, 16], "num_classes": 2},
            "mapper": {"type": "octree"},
            "sweep": {"resolutions": [1.0, 2.0, 4.0, 8.0], "iterations": 5, "beams": 9},
        }
    )
    rows = srle_study(config)
    for row in rows:
        assert row.mean_q <= 4.0, f"mean Q {row.mean_q} at {row.resolution}/m"
        assert row.mean_q <= row.mean_n
    growth = rows[-1].mean_n / rows[0].mean_n
    assert growth >= 3.5
    report(
        "A5",
        "mean Q " + ", ".join(f"{r.mean_q:.2f}" for r in rows) + f"; N growth {growth:.1f}x",
    )


def test_a6_semantic_walls_distinguished_binary_blind():
    """A6: in the two-wall scene the class-uncertain wall has strictly larger
    multi-class fan information nearby, while the occupancy-collapsed values
    of the two regions agree within 1e-9."""
    free_sat = np.array([0.0, -6.0, -6.0])
    gmap = GridMap((24, 16), 1.0, 2)
    gmap.cells[..., :] = free_sat
    gmap.observed[:] = True
    red = lo.logodds_from_pmf(np.array([0.1, 0.8, 0.1]))
    green = lo.logodds_from_pmf(np.array([0.1, 0.45, 0.45]))
    red_x, green_x = 5, 18  # mirror images about the arena center
    for y in range(5, 11):
        set_cell(gmap, (red_x, y, 0), red)
        set_cell(gmap, (green_x, y, 0), green)
    params = SensorParams.default(2)
    multi = mi_surface(gmap, params, num_beams=16, max_range=6.0)
    binary = mi_surface(gmap, SensorParams.default(1), num_beams=16, max_range=6.0)

    def region_max(surface, wall_x):
        best = 0.0
        for i in range(max(0, wall_x - 3), min(24, wall_x + 4)):
            for j in range(2, 14):
                best = max(best, surface[i, j])
        return best

    m_red, m_green = region_max(multi, red_x), region_max(multi, green_x)
    b_red, b_green = region_max(binary, red_x), region_max(binary, green_x)
    assert m_green > m_red
    assert b_red == pytest.approx(b_green, abs=1e-9)
    report(
        "A6",
        f"multi-class {m_green:.3f} > {m_red:.3f}; binary |diff| {abs(b_red - b_green):.1e}",
    )


def _ab_config(seed: int, selector: str):
    return config_from_dict(
        {
            "seed": seed,
            "env": {"profile": "random", "dims": [32, 32], "num_classes": 3},
            "sensor": {
                "num_beams": 48,
                "r_max": 10.0,
                "range_sigma": 0.1,
                "misclass_prob": 0.35,
            },
            "planner": {
                "selector": selector,
                "num_beams": 16,
                "beam_range": 10.0,
                "stride": 3,
            },
            "run": {"max_steps": 60, "explored_stop": 0.9},
        }
    )


def test_a7_information_selector_beats_largest_frontier():
    """A7: over 10 seeded random worlds, the information-per-cost selector
    reaches 90% explored with no more travel than the largest-frontier
    baseline on at least 7 seeds, and both always reach 90%."""
    t0 = time.monotonic()
    wins = 0
    distances = []
    for seed in range(10):
        d_ssmi = run_episode(_ab_config(seed, "ssmi")).distance_at_explored(0.9)
        d_front = run_episode(_ab_config(seed, "frontier")).distance_at_explored(0.9)
        assert d_ssmi is not None, f"seed {seed}: ssmi never reached 90% explored"
        assert d_front is not None, f"seed {seed}: frontier never reached 90% explored"
        wins += d_ssmi <= d_front
        distances.append((d_ssmi, d_front))
    elapsed = time.monotonic() - t0
    assert wins >= 7, f"information selector won only {wins}/10 seeds: {distances}"
    assert elapsed < 300.0
    report("A7", f"won {wins}/10 seeds in {elapsed:.0f}s")


def test_a8_explore_is_byte_deterministic(tmp_path):
    """A8: the explore command with a fixed seed/config writes byte-identical
    metrics across two runs."""
    import yaml

    from ssmi.cli import main

    cfg = {
        "seed": 88,
        "env": {"profile": "random", "dims": [20, 20], "num_classes": 3},
        "sensor": {"num_beams": 24, "r_max": 8.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "planner": {"num_beams": 12, "beam_range": 8.0},
        "run": {"max_steps": 4},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["explore", "--config", str(path), "--out", str(tmp_path / "one")]) == 0
    assert main(["explore", "--config", str(path), "--out", str(tmp_path / "two")]) == 0
    a = (tmp_path / "one/metrics.csv").read_bytes()
    b = (tmp_path / "two/metrics.csv").read_bytes()
    assert a == b
    assert len(a) > 0
    report("A8", f"metrics.csv identical across runs ({len(a)} bytes)")
