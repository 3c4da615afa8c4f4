"""Environments, the noisy sensor, episode determinism, and the run-length
compression study."""

import logging
import math
import re

import numpy as np
import pytest

from conftest import gen_random_reference, spawn_cells_reference
from ssmi.config import config_from_dict
from ssmi.errors import BadDims, OriginOutOfBounds, PoseInObstacle
from ssmi.grid import unit_direction
from ssmi.mi import fan_angles
from ssmi.sim import (
    GEN_ATTEMPTS,
    Environment,
    SensorSpec,
    _bounded,
    _gen_random,
    _gen_corridor,
    _spawn_cells,
    first_hits,
    generate_env,
    run_episode,
    sense,
    srle_study,
)


def make_config(**overrides):
    base = {
        "seed": 5,
        "env": {"profile": "random", "dims": [24, 24], "num_classes": 3},
        "sensor": {"num_beams": 24, "r_max": 8.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "planner": {"num_beams": 16, "beam_range": 8.0, "stride": 3},
        "run": {"max_steps": 6},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            base.setdefault(key, {}).update(val)
        else:
            base[key] = val
    return config_from_dict(base)


# -- environment generation ------------------------------------------------------


def test_same_seed_same_env():
    a = generate_env(7, "random", (32, 32), 3)
    b = generate_env(7, "random", (32, 32), 3)
    np.testing.assert_array_equal(a.grid, b.grid)
    assert a.spawns == b.spawns


def test_different_seed_different_env():
    a = generate_env(1, "random", (32, 32), 3)
    b = generate_env(2, "random", (32, 32), 3)
    assert not np.array_equal(a.grid, b.grid)


def test_binary_env():
    env = generate_env(3, "random", (24, 24), 1)
    assert set(np.unique(env.grid)) <= {0, 1}


def test_spawns_have_free_neighbourhood():
    env = generate_env(11, "random", (32, 32), 3)
    assert env.spawns
    for (i, j, k) in env.spawns:
        assert np.all(env.grid[i - 1 : i + 2, j - 1 : j + 2, k] == 0)


def test_occupancy_near_target():
    env = generate_env(5, "random", (48, 48), 3, target_occupancy=0.2)
    assert 0.1 <= env.occupancy_fraction() <= 0.3


def test_structured_env_layout():
    env = generate_env(0, "structured", (32, 32), 3)
    assert np.all(env.grid[0, :, 0] != 0)  # outer wall
    mid = 16
    assert np.any(env.grid[:, mid, 0] == 0)  # doorways through the divider
    assert env.spawns


def test_bad_dims_rejected():
    with pytest.raises(BadDims):
        generate_env(0, "random", (8, 8), 3)


def assert_same_world(seed, dims, num_classes, target):
    """``_gen_random`` and ``_spawn_cells`` give the reference's grid (bytes,
    dtype and shape) and spawn list, or raise where it raises."""
    try:
        want = gen_random_reference(np.random.default_rng(seed), dims, num_classes, target)
    except BadDims:
        with pytest.raises(BadDims):
            _gen_random(np.random.default_rng(seed), dims, num_classes, target)
        return None
    grid, attempts = _gen_random(np.random.default_rng(seed), dims, num_classes, target)
    assert (grid.dtype, grid.shape) == (want.dtype, want.shape)
    assert grid.tobytes() == want.tobytes()
    assert _spawn_cells(grid) == spawn_cells_reference(want)
    return attempts


@pytest.mark.parametrize("num_classes", [1, 2, 3, 5])  # K = 1 draws no class
@pytest.mark.parametrize("dims", [(16, 16), (24, 40), (64, 64)])
def test_batched_worlds_are_the_scalar_draws_worlds(dims, num_classes):
    seeds = [num_classes, np.random.SeedSequence(100 + num_classes).spawn(3)[0]]
    for target, seed in zip([0.05, 0.2, 0.5], seeds + seeds):
        attempts = assert_same_world(seed, dims, num_classes, target)
        if target == 0.05:  # stops at the target, well before the cap
            assert attempts < GEN_ATTEMPTS
        if target == 0.5:
            assert attempts == GEN_ATTEMPTS


def test_rejected_bounded_draw_shifts_every_later_draw():
    """World 121 with K = 32513 makes numpy reject the 800th raw value (the
    class of attempt 160), so every later draw takes the next raw value."""
    raw = np.random.default_rng(121).integers(0, 2**32, size=800, dtype=np.uint32)
    assert _bounded(raw[799:], 32513)[1].tolist() == [True]
    assert assert_same_world(121, (64, 64), 32513, 0.5) == GEN_ATTEMPTS


@pytest.mark.parametrize("dims", [(5, 40), (6, 20), (7, 30), (40, 7), (7, 40)])
def test_too_small_for_blocks_raises_where_the_scalar_draws_do(dims):
    # (7, n): only a 3-cell block side is too wide, so the draws decide
    # whether, and after how many blocks, it raises
    outcomes = {assert_same_world(seed, dims, 3, 0.02) is None for seed in range(8)}
    assert outcomes == ({True} if min(dims) < 7 else {True, False})


@pytest.mark.parametrize("dims", [(16, 16, 8), (24, 40, 3), (32, 32, 8)])
def test_spawn_cells_of_3d_grids_are_the_per_cell_loops(dims):
    corridor = _gen_corridor(dims, 3)
    assert _spawn_cells(corridor) == spawn_cells_reference(corridor)
    rng = np.random.default_rng(sum(dims))
    for p in (0.02, 0.1):
        grid = (rng.random(dims) < p).astype(np.int16)
        assert _spawn_cells(grid) == spawn_cells_reference(grid)
    for thin in ((2, 9, 1), (9, 2, 2), (1, 1, 1)):
        assert _spawn_cells(np.zeros(thin, dtype=np.int16)) == []


# content hashes of the worlds the scalar-draw generator built: a faster
# generator must give back every one of them
A7_WORLD_HASHES = [
    "ea30f0453e0482ca", "0d70dac741ca795f", "b26526df3f31fac3", "86cc068b668c4885",
    "1e64ad07a2cd6dec", "d8eabc7e79c44756", "00c123a35e19c246", "f701aa44e71743bf",
    "a751e8680bf1873e", "d0e98a36472ef96b",
]


def test_worlds_keep_their_content_hashes():
    a7 = [generate_env(np.random.SeedSequence(s).spawn(3)[0], "random", (32, 32), 3)
          for s in range(10)]
    assert [env.content_hash() for env in a7] == A7_WORLD_HASHES
    assert generate_env(0, "structured", (32, 32), 3).content_hash() == "fbee43af1b52afc2"
    assert generate_env(0, "corridor", (32, 32, 8), 3).content_hash() == "17f865b71ea27fb0"


def test_generate_env_logs_one_world_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="ssmi.sim"):
        env = generate_env(np.random.SeedSequence(0).spawn(3)[0], "random", (32, 32), 3)
        generate_env(0, "structured", (32, 32), 3)
    random_line, structured_line = [r.getMessage() for r in caplog.records]
    occupied = int(np.count_nonzero(env.grid))
    assert re.fullmatch(
        rf"world random \(32, 32, 1\): 4000/4000 attempts, target 205 cells, "
        rf"{occupied} cells occupied, {len(env.spawns)} spawns, \d+\.\d{{3}} ms", random_line)
    assert re.fullmatch(r"world structured \(32, 32, 1\): \d+ cells occupied, \d+ spawns, "
                        r"\d+\.\d{3} ms", structured_line)


# -- sensing -----------------------------------------------------------------------


def wall_env():
    grid = np.zeros((16, 16, 1), dtype=np.int16)
    grid[12, :, 0] = 2
    return Environment(grid=grid, num_classes=3, resolution=1.0, spawns=[(2, 8, 0)])


def test_noise_free_ranges_exact():
    env = wall_env()
    spec = SensorSpec(num_beams=1, fov=0.0, r_max=14.0, range_sigma=0.0, misclass_prob=0.0)
    rng = np.random.default_rng(0)
    beams = sense(env, np.array([2.5, 8.5, 0.5]), 0.0, spec, rng)
    assert len(beams) == 1
    assert beams[0].range == pytest.approx(9.5)  # wall face at x = 12
    assert beams[0].category == 2


def test_open_space_beam_reports_no_hit():
    env = wall_env()
    spec = SensorSpec(num_beams=1, fov=0.0, r_max=6.0, range_sigma=0.0, misclass_prob=0.0)
    beams = sense(env, np.array([2.5, 8.5, 0.5]), math.pi, spec, np.random.default_rng(0))
    assert beams[0].range == 6.0
    assert beams[0].category is None
    assert not beams[0].hits


def test_sense_casts_its_beams_at_the_fan_angles():
    env = wall_env()
    spec = SensorSpec(num_beams=7, fov=2.5, r_max=12.0, range_sigma=0.0, misclass_prob=0.0)
    beams = sense(env, np.array([2.5, 8.5, 0.5]), 0.3, spec, np.random.default_rng(0))
    want = [unit_direction([math.cos(a), math.sin(a), 0.0]) for a in fan_angles(7, 0.3, 2.5)]
    assert [b.direction.tolist() for b in beams] == want
    assert any(b.hits for b in beams) and not all(b.hits for b in beams)


@pytest.mark.parametrize("origin", [[-3.5, 8.5, 0.5], [40.5, 8.5, 0.5], [2.5, -0.25, 0.5],
                                    [2.5, 16.0, 0.5], [2.5, 8.5, 1.0], [math.nan, 8.5, 0.5]])
def test_first_hits_rejects_an_origin_outside_the_world(origin):
    # the truth is read at flat indices, so an origin outside the world would
    # read wrapped or missing cells
    env = wall_env()
    assert first_hits(env, [([2.5, 8.5, 0.5], [1.0, 0.0, 0.0])], 14.0) == [(9.5, 2)]
    with pytest.raises(OriginOutOfBounds):
        first_hits(env, [([2.5, 8.5, 0.5], [1.0, 0.0, 0.0]), (origin, [1.0, 0.0, 0.0])], 14.0)


def test_pose_in_obstacle_rejected():
    env = wall_env()
    spec = SensorSpec(1, 0.0, 5.0, 0.0, 0.0)
    with pytest.raises(PoseInObstacle):
        sense(env, np.array([12.5, 8.5, 0.5]), 0.0, spec, np.random.default_rng(0))


def test_misclassification_rate_matches_epsilon():
    env = wall_env()
    # sensor right in front of the wall: every beam hits after a short walk
    spec = SensorSpec(num_beams=100, fov=0.6, r_max=14.0, range_sigma=0.0, misclass_prob=0.35)
    rng = np.random.default_rng(42)
    wrong = hits = 0
    for _ in range(1000):
        for beam in sense(env, np.array([10.5, 8.5, 0.5]), 0.0, spec, rng):
            if beam.hits:
                hits += 1
                if beam.category != 2:
                    wrong += 1
    assert hits >= 100_000
    assert wrong / hits == pytest.approx(0.35, abs=0.01)


def test_wrong_labels_uniform_over_other_classes():
    env = wall_env()
    spec = SensorSpec(num_beams=50, fov=0.5, r_max=14.0, range_sigma=0.0, misclass_prob=0.5)
    rng = np.random.default_rng(7)
    counts = {1: 0, 3: 0}
    for _ in range(400):
        for beam in sense(env, np.array([10.5, 8.5, 0.5]), 0.0, spec, rng):
            if beam.hits and beam.category != 2:
                counts[beam.category] += 1
    total = sum(counts.values())
    assert counts[1] / total == pytest.approx(0.5, abs=0.03)


def test_range_noise_statistics():
    env = wall_env()
    spec = SensorSpec(num_beams=64, fov=0.4, r_max=14.0, range_sigma=0.1, misclass_prob=0.0)
    rng = np.random.default_rng(3)
    deltas = []
    for _ in range(100):
        for beam in sense(env, np.array([2.5, 8.5, 0.5]), 0.0, spec, rng):
            if beam.hits:
                deltas.append(beam.range - 9.5 / math.cos(math.atan2(beam.direction[1], beam.direction[0])))
    deltas = np.array(deltas)
    assert abs(deltas.mean()) < 0.01
    assert deltas.std() == pytest.approx(0.1, abs=0.02)


# -- episodes ----------------------------------------------------------------------


def test_step_cap_zero_gives_header_only():
    metrics = run_episode(make_config(run={"max_steps": 0}))
    assert metrics.rows == []
    csv = metrics.metrics_csv()
    assert csv.splitlines()[2] == "step,distance_m,entropy_nats,explored_fraction,plan_mi_nats"
    assert len(csv.splitlines()) == 3


def test_episode_deterministic():
    a = run_episode(make_config())
    b = run_episode(make_config())
    assert a.metrics_csv() == b.metrics_csv()
    assert a.env_hash == b.env_hash


def test_selector_changes_plans_not_env():
    a = run_episode(make_config())
    b = run_episode(make_config(planner={"selector": "frontier"}))
    assert a.env_hash == b.env_hash


def test_monotone_metrics_and_entropy_decrease_noise_free():
    config = make_config(
        sensor={"range_sigma": 0.0, "misclass_prob": 0.0, "num_beams": 32, "r_max": 8.0},
        run={"max_steps": 6},
    )
    metrics = run_episode(config)
    assert metrics.rows
    fresh_entropy = None
    prev = None
    for row in metrics.rows:
        if prev is not None:
            assert row.distance >= prev.distance
            assert row.explored >= prev.explored - 1e-12
            assert row.entropy <= prev.entropy + 1e-9
        prev = row


@pytest.mark.parametrize("mapper", ["grid", "octree"])
def test_fsmi_binary_selector_runs(mapper):
    metrics = run_episode(make_config(planner={"selector": "fsmi-binary"}, mapper={"type": mapper},
                                      run={"max_steps": 3}))
    assert metrics.rows


def test_octree_mapper_episode():
    config = make_config(
        env={"dims": [16, 16], "num_classes": 2},
        mapper={"type": "octree"},
        run={"max_steps": 3},
    )
    metrics = run_episode(config)
    assert metrics.rows
    assert metrics.rows[-1].explored > 0
    assert np.isfinite(metrics.rows[-1].entropy)


def test_debug_log_has_scan_and_cycle_lines_and_leaves_metrics_alone(caplog):
    config = make_config(env={"dims": [16, 16]}, mapper={"type": "octree"}, run={"max_steps": 3})
    with caplog.at_level(logging.WARNING, logger="ssmi"):
        quiet = run_episode(config).metrics_csv()
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="ssmi"):
        metrics = run_episode(config)
    assert metrics.metrics_csv() == quiet
    octree = [r.getMessage() for r in caplog.records if r.name == "ssmi.octree"]
    world, *cycles = [r.getMessage() for r in caplog.records if r.name == "ssmi.sim"]
    assert world.startswith("world random (16, 16, 1): ")
    scans = [m for m in octree if m.startswith("insert_scan")]
    tables = [m for m in octree if m.startswith("leaf table")]
    assert len(scans) + len(tables) == len(octree)
    assert scans and all(
        re.fullmatch(r"insert_scan: 24 beams, \d+ elements visited, \d+ changed, "
                     r"\d+ nodes collapsed, \d+ memo hits, \d+ no-op writes", m) for m in scans
    )
    assert tables and all(
        re.fullmatch(r"leaf table: \d+ leaves, \d+ beliefs, (full|patched|patched and compacted), "
                     r"\d+ leaves walked, \d+\.\d{3} ms", m) for m in tables
    )
    plans = [r.getMessage() for r in caplog.records if r.name == "ssmi.planner"]
    assert plans and all(
        re.fullmatch(r"\d+ candidates, \d+ sensing poses \(\d+ distinct\), \d+ beams cast, "
                     r"\d+ kept over candidates, \d+ distinct kept beams evaluated; "
                     r"cast cache: \d+ fans served, \d+ fans cast, \d+ fans held", m)
        for m in plans
    )
    held = 0
    for m in plans:  # the episode's cache only grows, by the fans each cycle casts
        _, _, distinct, beams, _, _, served, cast, now = map(int, re.findall(r"\d+", m))
        assert (served + cast, beams, now) == (distinct, 16 * cast, held + cast)
        held = now
    assert [m.split(":")[0] for m in cycles] == [f"cycle {r.step}" for r in metrics.rows]
    assert all(f"entropy {r.entropy!r} nats, explored {r.explored!r}" in m
               for m, r in zip(cycles, metrics.rows))


def test_precision_reported_per_class():
    metrics = run_episode(make_config(run={"max_steps": 5}))
    assert set(metrics.precision) == {1, 2, 3}
    for v in metrics.precision.values():
        assert v is None or 0.0 <= v <= 1.0


# -- run-length study -------------------------------------------------------------


def test_srle_study_compression_shape():
    config = make_config(
        env={"profile": "corridor", "dims": [16, 16, 16], "num_classes": 2},
        mapper={"type": "octree"},
        sweep={"resolutions": [1.0, 2.0, 4.0], "iterations": 3, "beams": 4},
    )
    rows = srle_study(config)
    assert [r.resolution for r in rows] == [1.0, 2.0, 4.0]
    for row in rows:
        assert row.mean_q <= 4.0
        assert row.mean_q <= row.mean_n
    assert rows[-1].mean_n >= 3.5 * rows[0].mean_n
    # piecewise-constant scene: the run count is a property of the geometry,
    # not the resolution
    assert len({r.mean_q for r in rows}) == 1
    assert all(r.std_q == 0.0 for r in rows)


def test_env_truth_export_roundtrip():
    from ssmi.sim import env_to_grid

    env = generate_env(3, "random", (24, 24), 3)
    gmap = env_to_grid(env)
    np.testing.assert_array_equal(gmap.most_likely(), env.grid)
    assert gmap.observed.all()


def test_srle_q_never_exceeds_n():
    from ssmi.octree import SemanticOctree
    from ssmi.grid import BeamMeasurement
    from ssmi.logodds import SensorParams

    tree = SemanticOctree(1.0, 4, 2)
    params = SensorParams.default(2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        origin = rng.uniform(1, 15, 3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        beam = BeamMeasurement(origin, d, float(rng.uniform(1, 10)), 1, 12.0)
        tree.insert_scan([beam], params)
        ray = tree.raycast_srle(beam)
        assert ray.num_runs <= ray.num_elements


def test_label_grid_matches_element_loop():
    """Precision labels from leaf boxes against per-element queries, on a
    lumped (K=5) tree and a box smaller than the cube."""
    from ssmi.grid import BeamMeasurement
    from ssmi.logodds import SensorParams
    from ssmi.octree import SemanticOctree

    tree = SemanticOctree(1.0, 4, 5)
    params = SensorParams.default(5)
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        beam = BeamMeasurement(rng.uniform(2, 12, 3), d, float(rng.uniform(1, 9)),
                               int(rng.integers(1, 6)), 10.0)
        tree.insert_scan([beam], params)
    dims = (13, 11, 9)
    labels, observed = tree.labels_observed(((0, 0, 0), dims))
    for cell in np.ndindex(dims):
        sem = tree.query_element(cell)
        assert observed[cell] == (sem != tree.prior_semantics)
        assert labels[cell] == int(np.argmax(sem.to_full(5)))
    assert observed.any() and len(np.unique(labels)) > 2

