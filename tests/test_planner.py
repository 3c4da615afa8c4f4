"""Frontier detection, shortest paths against a Dijkstra reference, and
information-per-cost plan selection."""

import heapq
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmi import logodds as lo
from ssmi import planner as planner_mod
from ssmi.config import config_from_dict
from ssmi.errors import NoFrontiers, Unreachable
from ssmi.grid import GridMap
from ssmi.logodds import SensorParams
from ssmi.mi import (
    FanCast,
    beam_mi_dense,
    beam_mi_srle,
    collapse_to_binary,
    select_nonoverlapping,
    trajectories_mi,
)
from ssmi.octree import SemanticOctree, grid_from_octree
from ssmi.planner import (
    CandidatePlan,
    PlannerConfig,
    PlanView,
    evaluate_candidates,
    find_frontiers,
    plan_path,
    select_best,
    sensing_poses,
    view_from_grid,
)
from ssmi.sim import run_episode
from conftest import cast_fan, fan_beams, plan_path_reference

FREE_SAT = np.array([0.0, -6.0, -6.0])
WALL = np.array([0.0, 6.0, 6.0])


def known_free_map(nx, ny, k=2):
    gmap = GridMap((nx, ny), 1.0, k)
    sat = np.concatenate([[0.0], -6.0 * np.ones(k)])
    gmap.cells[..., :] = sat
    gmap.observed[:] = True
    return gmap


def bfs_clusters(mask):
    """8-connected components by flood fill; independent of scipy labeling."""
    seen = np.zeros_like(mask, dtype=bool)
    clusters = []
    nx, ny = mask.shape
    for sx in range(nx):
        for sy in range(ny):
            if not mask[sx, sy] or seen[sx, sy]:
                continue
            stack = [(sx, sy)]
            seen[sx, sy] = True
            comp = []
            while stack:
                x, y = stack.pop()
                comp.append((x, y))
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        qx, qy = x + dx, y + dy
                        if 0 <= qx < nx and 0 <= qy < ny and mask[qx, qy] and not seen[qx, qy]:
                            seen[qx, qy] = True
                            stack.append((qx, qy))
            clusters.append(sorted(comp))
    return sorted(clusters)


def dijkstra_cost(free, start, goal, resolution=1.0):
    """Uniform-cost search with the same move rule as the planner."""
    nx, ny = free.shape
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur == goal:
            return d
        if d > dist.get(cur, math.inf):
            continue
        cx, cy = cur
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (cx + dx, cy + dy)
                if not (0 <= nxt[0] < nx and 0 <= nxt[1] < ny) or not free[nxt]:
                    continue
                if dx != 0 and dy != 0 and not (free[cx + dx, cy] and free[cx, cy + dy]):
                    continue
                step = resolution * (math.sqrt(2.0) if dx and dy else 1.0)
                if d + step < dist.get(nxt, math.inf):
                    dist[nxt] = d + step
                    heapq.heappush(heap, (d + step, nxt))
    return None


# -- frontiers -----------------------------------------------------------------


def test_free_disk_gives_one_ring_frontier():
    gmap = GridMap((20, 20), 1.0, 2)
    for i in range(20):
        for j in range(20):
            if (i - 10) ** 2 + (j - 10) ** 2 <= 16:
                gmap.set_cell((i, j, 0), FREE_SAT)
    frontiers = find_frontiers(view_from_grid(gmap))
    assert len(frontiers) == 1
    # every frontier cell sits on the disk boundary
    d2 = ((frontiers[0].cells - 10) ** 2).sum(axis=1)
    assert np.all(d2 >= 4)


def test_fully_known_map_raises():
    gmap = known_free_map(16, 16)
    with pytest.raises(NoFrontiers):
        find_frontiers(view_from_grid(gmap))


def two_room_map():
    gmap = known_free_map(20, 20)
    gmap.cells[10:, :, 0] = gmap.prior  # right half unexplored
    gmap.observed[10:, :, 0] = False
    gmap.cells[9, :, 0] = WALL  # dividing wall
    for door in (range(4, 7), range(13, 16)):
        for y in door:
            gmap.cells[9, y, 0] = FREE_SAT
    return gmap


def test_two_doorways_two_clusters():
    gmap = two_room_map()
    view = view_from_grid(gmap)
    frontiers = find_frontiers(view)
    assert len(frontiers) == 2
    boundary = np.zeros(view.free.shape, dtype=bool)
    for f in frontiers:
        boundary[tuple(f.cells.T)] = True
    got = sorted(sorted(map(tuple, f.cells)) for f in frontiers)
    assert got == bfs_clusters(boundary)


def test_frontiers_deterministic():
    gmap = two_room_map()
    a = find_frontiers(view_from_grid(gmap))
    b = find_frontiers(view_from_grid(gmap))
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.cells, fb.cells)
        assert fa.centroid == fb.centroid


def test_small_clusters_dropped():
    gmap = known_free_map(16, 16)
    gmap.observed[8, 8, 0] = False  # single unknown cell: 8 boundary neighbours
    frontiers = find_frontiers(view_from_grid(gmap), min_size=3)
    assert len(frontiers) == 1
    with pytest.raises(NoFrontiers):
        find_frontiers(view_from_grid(gmap), min_size=20)


# -- paths ---------------------------------------------------------------------


def test_zero_length_path_costs_one_resolution():
    gmap = known_free_map(16, 16)
    view = view_from_grid(gmap)
    path, cost = plan_path(view, (5, 5), (5, 5))
    assert path == [(5, 5)]
    assert cost == view.resolution


def test_straight_corridor_cost():
    gmap = known_free_map(16, 16)
    view = view_from_grid(gmap)
    path, cost = plan_path(view, (2, 7), (12, 7))
    assert cost == pytest.approx(10.0)
    assert all(y == 7 for _, y in path)


def test_wall_detour_matches_dijkstra():
    gmap = known_free_map(16, 16)
    gmap.cells[8, 2:14, 0] = WALL  # wall with an opening near the top
    view = view_from_grid(gmap)
    path, cost = plan_path(view, (4, 7), (12, 7))
    oracle = dijkstra_cost(view.free, (4, 7), (12, 7))
    assert cost == pytest.approx(oracle, abs=1e-9)
    assert all(view.free[c] for c in path)


def test_unreachable_goal():
    gmap = known_free_map(16, 16)
    gmap.cells[8, :, 0] = WALL  # full dividing wall
    view = view_from_grid(gmap)
    with pytest.raises(Unreachable):
        plan_path(view, (4, 7), (12, 7))


def test_random_maps_match_dijkstra(rng):
    for trial in range(10):
        gmap = known_free_map(32, 32)
        blocked = rng.random((32, 32)) < 0.25
        gmap.cells[blocked, 0] = WALL
        view = view_from_grid(gmap)
        free_cells = np.argwhere(view.free)
        start = tuple(free_cells[rng.integers(len(free_cells))])
        goal = tuple(free_cells[rng.integers(len(free_cells))])
        oracle = dijkstra_cost(view.free, start, goal)
        if oracle is None:
            with pytest.raises(Unreachable):
                plan_path(view, start, goal)
        else:
            _, cost = plan_path(view, start, goal)
            assert cost == pytest.approx(oracle, abs=1e-9)


def search_outcome(search, view, start, goal):
    """A search's path and cost bits, or its Unreachable message."""
    try:
        path, cost = search(view, start, goal)
    except Unreachable as exc:
        return "unreachable", str(exc)
    return path, cost.hex()


@st.composite
def astar_case(draw):
    """A plan view of 1-14 cells a side with obstacles from none to most
    cells, a resolution, and a start and goal anywhere in it: on blocked
    cells, walled off from each other, or the same cell."""
    nx, ny = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    blocked = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7]))
    free = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((nx, ny)) >= blocked
    if nx > 2 and draw(st.booleans()):  # a full wall: most goals across it are unreachable
        free[draw(st.integers(1, nx - 2)), :] = False
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    start = draw(cell)
    goal = start if draw(st.integers(0, 9)) == 0 else draw(cell)
    for c in (start, goal):
        if draw(st.integers(0, 4)):  # mostly free, sometimes as drawn
            free[c] = True
    view = PlanView(free=free, unknown=~free, origin=np.zeros(2), z_center=0.5,
                    resolution=draw(st.sampled_from([1.0, 0.5, 0.3, 0.1, 2.5])))
    return view, start, goal


@given(case=astar_case())
@settings(max_examples=400, deadline=None)
def test_flat_id_astar_is_the_cell_astar(case):
    """``plan_path`` on padded flat ids against the A* on (x, y) cells it
    replaced: the same path, the same cost bits, the same messages."""
    view, start, goal = case
    assert (search_outcome(plan_path, view, start, goal)
            == search_outcome(plan_path_reference, view, start, goal))


def test_flat_id_astar_on_episode_views(monkeypatch):
    """Every search of a short A7-config grid episode (world 0) returns what
    the A* on (x, y) cells returns on the same view."""
    calls = []

    def checked(view, start, goal):
        want = search_outcome(plan_path_reference, view, start, goal)
        calls.append(search_outcome(plan_path, view, start, goal) == want)
        return plan_path(view, start, goal)

    monkeypatch.setattr(planner_mod, "plan_path", checked)
    run_episode(config_from_dict({"seed": 0, "run": {"max_steps": 6}}))
    assert len(calls) > 10 and all(calls)


def test_sensing_poses_stride_and_tangent():
    path = [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 2)]
    poses = sensing_poses(path, stride=2)
    assert [c for c, _ in poses] == [(0, 0), (2, 0), (4, 2), (5, 2)]
    assert poses[0][1] == pytest.approx(0.0)
    assert poses[1][1] == pytest.approx(math.atan2(1, 1))


# -- plan selection ------------------------------------------------------------------


def uncertain_wall_arena(green_side="right"):
    """Mirror-symmetric arena: two unknown pockets walled on three sides with
    an opening toward the center. One pocket's walls are certainly class 1
    (the red wall PMF), the other's are split between classes 1 and 2 (the
    green wall); both have occupancy 0.9."""
    gmap = GridMap((25, 17), 1.0, 2)
    gmap.cells[..., :] = FREE_SAT
    gmap.observed[:] = True
    red = lo.logodds_from_pmf(np.array([0.1, 0.8, 0.1]))
    green = lo.logodds_from_pmf(np.array([0.1, 0.45, 0.45]))
    for side, (x0, x1) in (("left", (1, 3)), ("right", (21, 23))):
        wall = green if side == green_side else red
        gmap.cells[x0 : x1 + 1, 6:11, 0] = gmap.prior
        gmap.observed[x0 : x1 + 1, 6:11, 0] = False
        for x in range(x0 - 1, x1 + 2):
            gmap.set_cell((x, 5, 0), wall)
            gmap.set_cell((x, 11, 0), wall)
        xw = x0 - 1 if side == "left" else x1 + 1
        for y in range(5, 12):
            gmap.set_cell((xw, y, 0), wall)
    return gmap


def test_select_plan_prefers_uncertain_wall():
    # the class-uncertain pocket must win from either side: the preference is
    # semantic, not geometric (16-beam fans avoid exact-diagonal rays, which
    # keeps the mirrored evaluations numerically identical)
    params = SensorParams.default(2)
    config = PlannerConfig(selector="ssmi", stride=2, num_beams=16, beam_range=6.0)
    for green_side, want_col in (("right", 20), ("left", 4)):
        gmap = uncertain_wall_arena(green_side)
        view = view_from_grid(gmap)
        plan = select_best(evaluate_candidates(gmap, view, (12, 8), params, config, {}))
        assert plan.path[-1] == (want_col, 8)


def test_select_plan_single_frontier(params1):
    gmap = known_free_map(16, 16, k=1)
    gmap.cells[12:, :, 0] = gmap.prior
    gmap.observed[12:, :, 0] = False
    params = SensorParams.default(1)
    config = PlannerConfig(num_beams=8, beam_range=5.0)
    view = view_from_grid(gmap)
    plan = select_best(evaluate_candidates(gmap, view, (5, 5), params, config, {}))
    frontiers = find_frontiers(view)
    assert len(frontiers) == 1
    assert plan.frontier_index == 0


def test_planner_config_takes_a_well_formed_band():
    for band in ((0, 1), [2, 6]):
        assert PlannerConfig(band=band).band == band


def test_candidates_scored_and_best_is_argmax():
    gmap = uncertain_wall_arena()
    params = SensorParams.default(2)
    config = PlannerConfig(num_beams=8, beam_range=6.0)
    view = view_from_grid(gmap)
    candidates = evaluate_candidates(gmap, view, (10, 7), params, config, {})
    best = select_best(candidates)
    assert all(best.score >= c.score for c in candidates)
    assert all(c.cost > 0 for c in candidates)


def test_argmax_invariant_under_positive_scaling():
    cands = [
        CandidatePlan(0, [(0, 0)], cost=4.0, mi=2.0, score=0.5),
        CandidatePlan(1, [(0, 0)], cost=2.0, mi=1.6, score=0.8),
        CandidatePlan(2, [(0, 0)], cost=8.0, mi=3.2, score=0.4),
    ]
    base = select_best(cands).frontier_index
    for lam in (0.25, 3.0, 117.0):
        scaled = [
            CandidatePlan(c.frontier_index, c.path, c.cost, c.mi * lam, c.score * lam)
            for c in cands
        ]
        assert select_best(scaled).frontier_index == base


def test_tie_breaks_shorter_cost_then_index():
    cands = [
        CandidatePlan(0, [(0, 0)], cost=4.0, mi=2.0, score=0.5),
        CandidatePlan(1, [(0, 0)], cost=2.0, mi=1.0, score=0.5),
        CandidatePlan(2, [(0, 0)], cost=2.0, mi=1.0, score=0.5),
    ]
    assert select_best(cands).frontier_index == 1


def test_frontier_selector_picks_largest():
    gmap = known_free_map(24, 24)
    # two unknown pockets of different sizes
    gmap.observed[2:6, 2:10, 0] = False
    gmap.cells[2:6, 2:10, 0] = gmap.prior
    gmap.observed[18:22, 18:21, 0] = False
    gmap.cells[18:22, 18:21, 0] = gmap.prior
    params = SensorParams.default(2)
    config = PlannerConfig(selector="frontier")
    view = view_from_grid(gmap)
    plan = select_best(evaluate_candidates(gmap, view, (12, 12), params, config, {}))
    frontiers = find_frontiers(view)
    assert plan.frontier_index == 0  # frontiers are ordered largest first
    assert frontiers[0].size > frontiers[1].size
    assert plan.mi == 0.0


# -- one batched evaluation per cycle -------------------------------------------------


def trajectory_info_reference(mapper, fans, params):
    """Per-beam trajectory sum, one single-beam evaluation per kept beam."""
    is_tree = isinstance(mapper, SemanticOctree)
    traces = [mapper.cast_ray(b) for fan in fans for b in fan]
    total = 0.0
    for idx in select_nonoverlapping(cast_fan(mapper, [b for fan in fans for b in fan])):
        if is_tree:
            ray = mapper.encode_trace(traces[idx].cells[1:])
            if ray is not None:
                total += beam_mi_srle(ray, params).value
        else:
            cells = traces[idx].cells[1:]
            if cells.shape[0]:
                h_t = mapper.cells[tuple(cells.T)]
                total += beam_mi_dense(h_t, np.broadcast_to(mapper.prior, h_t.shape), params).value
    return total


def evaluate_candidates_reference(mapper, view, start, params, config):
    """One independent trajectory evaluation per candidate, no shared fans;
    ``fsmi-binary`` collapses the whole grid first, where the planner
    collapses the runs it evaluates."""
    frontiers = find_frontiers(view, config.min_frontier_size)
    if config.selector == "fsmi-binary":
        # an occupancy-only copy of the grid: every cell and the prior
        # collapsed with collapse_to_binary, observation flags kept
        binary = GridMap(
            mapper.dims, mapper.resolution, 1,
            prior=collapse_to_binary(mapper.prior), origin=mapper.origin,
        )
        binary.cells = collapse_to_binary(mapper.cells)
        binary.observed = mapper.observed.copy()
        mapper, params = binary, SensorParams.default(1)
    out = []
    for idx, frontier in enumerate(frontiers):
        try:
            path, cost = plan_path(view, start, frontier.centroid)
        except Unreachable:
            continue
        fans = [
            fan_beams(view.cell_center(cell), config.num_beams, config.beam_range, heading,
                      config.fov)
            for cell, heading in sensing_poses(path, config.stride)
        ]
        info = trajectory_info_reference(mapper, fans, params)
        out.append(CandidatePlan(idx, path, cost, mi=info, score=info / cost))
    return out


def plan_rows(candidates):
    return [(c.frontier_index, c.path, c.cost, c.mi, c.score) for c in candidates]


@pytest.mark.parametrize("mapper_type,selector", [
    ("grid", "ssmi"), ("octree", "ssmi"), ("grid", "fsmi-binary"),
])
def test_batched_cycle_equals_per_candidate_loop(monkeypatch, mapper_type, selector):
    # every planning cycle of a real A7-config episode, compared with ==
    real = planner_mod.evaluate_candidates
    shared = []

    def checked(mapper, view, start, params, config, casts):
        got = real(mapper, view, start, params, config, casts)
        assert plan_rows(got) == plan_rows(
            evaluate_candidates_reference(mapper, view, start, params, config))
        poses = [p for c in got for p in sensing_poses(c.path, config.stride)]
        shared.append(len(poses) - len(set(poses)))
        return got

    monkeypatch.setattr(planner_mod, "evaluate_candidates", checked)
    run_episode(config_from_dict({
        "seed": 1,
        "env": {"profile": "random", "dims": [32, 32], "num_classes": 3},
        "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "mapper": {"type": mapper_type},
        "planner": {"selector": selector, "num_beams": 16, "beam_range": 10.0, "stride": 3},
        "run": {"max_steps": 12},
    }))
    assert len(shared) >= 6
    assert sum(shared) > 0  # some cycles did share sensing poses


def test_fsmi_binary_on_octree_plans_as_on_its_grid(monkeypatch):
    # every cycle of an A7-config octree episode: the tree's runs, merged on
    # full beliefs and then collapsed, score the candidates as the dense
    # grid sampled from the same tree does
    real = planner_mod.evaluate_candidates
    cycles = []

    def checked(mapper, view, start, params, config, casts):
        got = real(mapper, view, start, params, config, casts)
        want = real(grid_from_octree(mapper), view, start, params, config, {})
        assert [(c.frontier_index, c.path, c.cost) for c in got] == [
            (c.frontier_index, c.path, c.cost) for c in want]
        for g, w in zip(got, want):
            assert g.mi == pytest.approx(w.mi, rel=1e-10, abs=0.0)
        cycles.append(sum(c.mi > 0.0 for c in got))
        return got

    monkeypatch.setattr(planner_mod, "evaluate_candidates", checked)
    run_episode(config_from_dict({
        "seed": 0,
        "env": {"profile": "random", "dims": [32, 32], "num_classes": 3},
        "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "mapper": {"type": "octree"},
        "planner": {"selector": "fsmi-binary", "num_beams": 16, "beam_range": 10.0,
                    "stride": 3},
        "run": {"max_steps": 60, "explored_stop": 0.9},
    }))
    assert len(cycles) >= 6
    assert all(cycles)  # every cycle scored candidates with information


@pytest.mark.parametrize("mapper_type", ["grid", "octree"])
@pytest.mark.parametrize("selector", ["ssmi", "fsmi-binary"])
def test_cached_and_uncached_planning_agree(monkeypatch, mapper_type, selector):
    # every planning cycle of an A7 world-0 episode: the candidates planned
    # on the episode's cast cache equal, under ==, those planned on a fresh
    # cache, and later cycles are served fans cast in earlier ones
    real = planner_mod.evaluate_candidates
    served = []

    def checked(mapper, view, start, params, config, casts):
        before = set(casts)
        got = real(mapper, view, start, params, config, casts)
        assert got == real(mapper, view, start, params, config, {})
        poses = {p for c in got for p in sensing_poses(c.path, config.stride)}
        served.append(len(poses & before))
        return got

    monkeypatch.setattr(planner_mod, "evaluate_candidates", checked)
    run_episode(config_from_dict({
        "seed": 0,
        "env": {"profile": "random", "dims": [32, 32], "num_classes": 3},
        "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "mapper": {"type": mapper_type},
        "planner": {"selector": selector, "num_beams": 16, "beam_range": 10.0, "stride": 3},
        "run": {"max_steps": 60, "explored_stop": 0.9},
    }))
    assert len(served) >= 6
    assert sum(served) > 0


@pytest.mark.parametrize("mapper_type", ["grid", "octree"])
@pytest.mark.parametrize("selector", ["ssmi", "fsmi-binary"])
def test_pose_fan_casts_plan_as_casting_the_beams(monkeypatch, mapper_type, selector):
    # every planning cycle of an A7 world-0 episode: the candidates planned
    # on fans cast straight from their poses (``FanCast.from_pose``) equal,
    # under ==, those planned on a fresh cache filled by casting each pose's
    # ``fan_beams`` with ``cast_fan``, and every cached cast is byte-equal
    real = planner_mod.evaluate_candidates
    from_pose = FanCast.from_pose
    reference_casts = []
    cycles = []

    def reference_cast(mapper, center, num_beams, max_range, heading, fov):
        reference_casts.append(center)
        return cast_fan(mapper, fan_beams(center, num_beams, max_range, heading, fov))

    def checked(mapper, view, start, params, config, casts):
        got = real(mapper, view, start, params, config, casts)
        want_casts = {}
        with monkeypatch.context() as patch:
            patch.setattr(FanCast, "from_pose", staticmethod(reference_cast))
            want = real(mapper, view, start, params, config, want_casts)
        assert FanCast.from_pose == from_pose
        assert got == want
        for pose, fan in want_casts.items():
            assert casts[pose].counts == fan.counts
            assert casts[pose].cells.dtype == fan.cells.dtype
            assert casts[pose].cells.tobytes() == fan.cells.tobytes()
        cycles.append(len(want_casts))
        return got

    monkeypatch.setattr(planner_mod, "evaluate_candidates", checked)
    run_episode(config_from_dict({
        "seed": 0,
        "env": {"profile": "random", "dims": [32, 32], "num_classes": 3},
        "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "mapper": {"type": mapper_type},
        "planner": {"selector": selector, "num_beams": 16, "beam_range": 10.0, "stride": 3},
        "run": {"max_steps": 60, "explored_stop": 0.9},
    }))
    assert len(cycles) >= 6
    assert len(reference_casts) == sum(cycles)


def forked_corridor():
    """Walls everywhere except a corridor along y = 10 that meets a 3-wide
    vertical hall at x = 11..13; the hall opens into unknown space at both
    ends, so the two frontier paths share their corridor poses."""
    gmap = GridMap((20, 20), 1.0, 2)
    gmap.cells[..., :] = WALL
    gmap.observed[:] = True
    gmap.cells[2:11, 10, 0] = FREE_SAT
    gmap.cells[11:14, 4:17, 0] = FREE_SAT
    for y in (2, 3, 17, 18):
        gmap.cells[11:14, y, 0] = gmap.prior
        gmap.observed[11:14, y, 0] = False
    return gmap


def test_cycle_debug_line_counts_the_work(caplog):
    # two calls on one cast cache: the first casts every distinct pose, the
    # second is served every fan from the cache and casts nothing
    gmap = forked_corridor()
    params = SensorParams.default(2)
    config = PlannerConfig(num_beams=8, beam_range=6.0, stride=2)
    view = view_from_grid(gmap)
    casts = {}
    with caplog.at_level(logging.DEBUG, logger="ssmi.planner"):
        candidates = evaluate_candidates(gmap, view, (2, 10), params, config, casts)
        again = evaluate_candidates(gmap, view, (2, 10), params, config, casts)
    assert len(candidates) == 2
    assert again == candidates
    lines = [r.getMessage() for r in caplog.records if r.name == "ssmi.planner"]
    assert len(lines) == 2
    first, second = ([int(v) for v in re.findall(r"\d+", line)] for line in lines)
    poses = [sensing_poses(c.path, config.stride) for c in candidates]
    distinct = {p for ps in poses for p in ps}
    fans = {(cell, heading): cast_fan(gmap, fan_beams(view.cell_center(cell), 8, 6.0, heading))
            for cell, heading in distinct}
    kept = [t.beams_kept for t in trajectories_mi(gmap, fans, poses, params).trajectories]
    n_cand, n_poses, n_distinct, n_cast, n_kept, n_eval, n_served, n_fans, n_held = first
    assert (n_cand, n_poses, n_distinct) == (len(candidates), sum(map(len, poses)), len(distinct))
    assert len(distinct) < sum(map(len, poses))
    assert n_cast == 8 * len(distinct)
    assert n_kept == sum(kept)
    assert max(kept) <= n_eval <= n_kept
    assert (n_served, n_fans, n_held) == (0, len(distinct), len(distinct))
    assert set(casts) == distinct
    assert second == first[:3] + [0] + first[4:6] + [len(distinct), 0, len(distinct)]


def test_view_from_octree_matches_grid(params3, rng):
    from ssmi.octree import SemanticOctree
    from ssmi.grid import BeamMeasurement

    gmap = GridMap((16, 16), 1.0, 3)
    tree = SemanticOctree(1.0, 4, 3)
    for _ in range(15):
        ang = rng.uniform(0, 2 * math.pi)
        beam = BeamMeasurement.planar((8.5, 8.5), ang, 6.0, int(rng.integers(1, 4)), 10.0)
        gmap.integrate(beam, params3)
        tree.insert_scan([beam], params3)
    vg = view_from_grid(gmap, band=(0, 1))
    vt = view_from_grid(tree, (16, 16, 1), band=(0, 1))
    np.testing.assert_array_equal(vg.free, vt.free)
    np.testing.assert_array_equal(vg.unknown, vt.unknown)


def test_view_from_octree_matches_element_loop(rng):
    """The leaf-box fill against a per-element projection with the argmax
    labelling rule, on a lumped (K=5) tree, a region smaller than the cube
    and a z band."""
    from ssmi.grid import BeamMeasurement
    from ssmi.octree import SemanticOctree

    params = SensorParams.default(5)
    tree = SemanticOctree(1.0, 4, 5)
    for z in (2.5, 3.5, 4.5, 5.5):  # level fans fill whole columns of the band
        beams = []
        for ang in rng.uniform(0, 2 * math.pi, 24):
            hit = rng.random() < 0.5
            r = float(rng.uniform(2, 7)) if hit else 7.0
            cat = int(rng.integers(1, 6)) if hit else None
            direction = np.array([math.cos(ang), math.sin(ang), 0.0])
            beams.append(BeamMeasurement(np.array([6.5, 5.5, z]), direction, r, cat, 7.0))
        tree.insert_scan(beams, params)
    region, band = (12, 10, 8), (2, 6)
    view = view_from_grid(tree, region, band)
    free = np.ones(region[:2], dtype=bool)
    unknown = np.ones(region[:2], dtype=bool)
    for i in range(region[0]):
        for j in range(region[1]):
            for k in range(*band):
                sem = tree.query_element((i, j, k))
                seen = sem != tree.prior_semantics
                unknown[i, j] &= not seen
                free[i, j] &= seen and int(np.argmax(sem.to_full(5))) == 0
    assert free.any() and not unknown.all()
    np.testing.assert_array_equal(view.free, free)
    np.testing.assert_array_equal(view.unknown, unknown)


def test_lumped_octree_view_labels_like_the_grid():
    """K=5 beliefs with every class at -0.1: free is most likely. The octree
    keeps three classes and lumps two into one value above 0, yet its view
    must still call every column free, as the grid's does."""
    from ssmi.octree import octree_from_grid

    gmap = GridMap((4, 4), 1.0, 5)
    gmap.cells[...] = np.array([0.0] + [-0.1] * 5)
    gmap.observed[:] = True
    tree = octree_from_grid(gmap)
    assert tree.query_element((0, 0, 0)).others > 0.0
    vg = view_from_grid(gmap)
    vt = view_from_grid(tree, gmap.dims)
    assert vg.free.all()
    np.testing.assert_array_equal(vt.free, vg.free)
    np.testing.assert_array_equal(vt.unknown, vg.unknown)

