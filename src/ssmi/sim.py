"""Headless synthetic environments, a noisy range-category sensor, and the
closed exploration loop.

Everything here is deterministic given (seed, config). ``run_episode``
spawns three child streams of the seed. The world generator and the spawn
draw are two Generators on the same ``streams[0]``, so the spawn index comes
from the first raw 32-bit value that the world's first ``wx`` draw also used.
Sensor noise draws from ``streams[1]``, so turning noise off does not
reshuffle the world; ``streams[2]`` is spawned but never read, and planning
breaks ties without drawing. Wall-clock planning times are collected but
kept out of the metrics table, which must be byte-reproducible.
"""

from __future__ import annotations

import hashlib
import io
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import planner as planner_mod
from .config import ConfigError, SimConfig
from .errors import AllUnreachable, BadDims, NoFrontiers, PoseInObstacle
from .grid import BeamMeasurement, GridMap, _cell_point, voxel_walk
from .mi import fan_angles
from .octree import SemanticOctree

log = logging.getLogger(__name__)


@dataclass
class Environment:
    """Ground-truth class grid; 0 is free, ids 1..K are object classes."""

    grid: np.ndarray  # (nx, ny, nz) int16
    num_classes: int
    resolution: float
    spawns: list[tuple[int, int, int]]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.shape

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.grid).tobytes())
        h.update(str((self.grid.shape, self.num_classes, self.resolution)).encode())
        return h.hexdigest()[:16]

    def occupancy_fraction(self) -> float:
        return float(np.mean(self.grid != 0))


def _spawn_cells(grid: np.ndarray) -> list[tuple[int, int, int]]:
    """Free cells whose 3x3 in-plane neighbourhood is free, in (i, j, k)
    order."""
    nx, ny, _ = grid.shape
    free = grid == 0
    clear = np.logical_and.reduce(
        [free[di : di + nx - 2, dj : dj + ny - 2] for di in range(3) for dj in range(3)]
    )
    i, j, k = np.nonzero(clear)
    return list(zip((i + 1).tolist(), (j + 1).tolist(), k.tolist()))


GEN_ATTEMPTS = 4000  # block placements a random world tries before it settles
_U32 = 1 << 32


def _bounded(u: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw (``buffered_bounded_lemire_uint32``) of a value
    in ``[0, n)`` from each raw 32-bit value ``u``, and where numpy would
    reject that raw value and take the next one instead."""
    n = np.asarray(n, dtype=np.uint64)
    m = u.astype(np.uint64) * n
    rejected = (m & 0xFFFFFFFF) < (_U32 - n) % n
    return (m >> 32).astype(np.int64), rejected


def _gen_random(
    rng: np.random.Generator, dims, num_classes: int, target: float
) -> tuple[np.ndarray, int]:
    """Scatter blocks of 2 or 3 cells a side, each of one class, at least
    ``margin`` cells from the border and ``gap`` free cells from any other
    block, until ``target`` of the plane is occupied or ``GEN_ATTEMPTS``
    placements were tried. Returns the grid and the attempts it took.

    Each attempt draws ``wx, wy, x0, y0, cls`` with ``rng.integers``, in
    that order and whatever the grid holds. So the draws are made up front
    as one batch of raw 32-bit values and bounded as numpy's ``integers``
    bounds them; a one-value range (``cls`` when K = 1) takes no raw value.
    The grid is the one the scalar draws build, byte for byte; the
    Generator is left in another state.
    """
    nx, ny = dims[0], dims[1]
    margin, gap = 2, 2  # margin >= gap: a block's moat never crosses the border
    per = 5 if num_classes > 1 else 4  # raw values an attempt takes
    need = GEN_ATTEMPTS * per
    u = rng.integers(0, _U32, size=need + 64, dtype=np.uint32)
    while True:
        draws = u[:need].reshape(GEN_ATTEMPTS, per)
        wx, wy = (2 + (draws[:, :2] >> 31)).astype(np.int64).T  # n = 2 never rejects
        nx_free, ny_free = nx - 2 * margin - wx + 1, ny - 2 * margin - wy + 1
        valid = (nx_free > 1) & (ny_free > 1)  # else BadDims, before x0 is drawn
        rejected = np.zeros(draws.shape, dtype=bool)
        x0, rejected[:, 2] = _bounded(draws[:, 2], np.maximum(nx_free, 1))
        y0, rejected[:, 3] = _bounded(draws[:, 3], np.maximum(ny_free, 1))
        cls = np.zeros(GEN_ATTEMPTS, dtype=np.int64)
        if per == 5:
            cls, rejected[:, 4] = _bounded(draws[:, 4], num_classes)
        (hit,) = np.nonzero(rejected.ravel())
        if not len(hit):
            break
        # numpy drops a rejected value and draws the same slot again from
        # the next one, so every later draw moves up by one value
        u = np.delete(u, hit[0])
        if len(u) < need:
            u = np.concatenate([u, rng.integers(0, _U32, size=64, dtype=np.uint32)])

    # occupancy as one int, bit x * ny + y; a moat covers its block, so
    # blocks never overlap and the occupied count is a running sum
    def rect(w: int, h: int) -> int:
        return sum(((1 << h) - 1) << (r * ny) for r in range(w))

    moats = {(w, h): rect(w + 2 * gap, h + 2 * gap) for w in (2, 3) for h in (2, 3)}
    blocks = {(w, h): rect(w, h) for w in (2, 3) for h in (2, 3)}
    target_cells = target * nx * ny
    occupied = count = attempts = 0
    placed = []
    for w, h, x, y, c, ok in zip(wx.tolist(), wy.tolist(), (x0 + margin).tolist(),
                                 (y0 + margin).tolist(), (cls + 1).tolist(), valid.tolist()):
        if count >= target_cells:
            break
        attempts += 1
        if not ok:
            raise BadDims("environment too small for obstacle blocks")
        if occupied & (moats[w, h] << ((x - gap) * ny + y - gap)):
            continue
        occupied |= blocks[w, h] << (x * ny + y)
        count += w * h
        placed.append((x, y, w, h, c))
    grid = np.zeros((nx, ny, 1), dtype=np.int16)
    for x, y, w, h, c in placed:
        grid[x : x + w, y : y + h, 0] = c
    return grid, attempts


def _gen_structured(dims, num_classes: int) -> np.ndarray:
    nx, ny = dims[0], dims[1]
    grid = np.zeros((nx, ny, 1), dtype=np.int16)
    c1 = 1
    c2 = min(2, num_classes)
    c3 = min(3, num_classes)
    grid[0, :, 0] = c1
    grid[-1, :, 0] = c1
    grid[:, 0, 0] = c1
    grid[:, -1, 0] = c1
    mid = ny // 2
    grid[:, mid, 0] = c2
    for door in (nx // 4, 3 * nx // 4):
        grid[door : door + 2, mid, 0] = 0
    # block structures inside each room
    bx, by = max(3, nx // 5), max(3, ny // 6)
    grid[bx : bx + 2, by : by + 2, 0] = c3
    grid[nx - bx - 2 : nx - bx, ny - by - 2 : ny - by, 0] = c3
    grid[nx // 2 : nx // 2 + 2, ny // 4 + 1 : ny // 4 + 3, 0] = c1
    return grid


def _gen_corridor(dims, num_classes: int) -> np.ndarray:
    nx, ny = dims[0], dims[1]
    nz = dims[2] if len(dims) > 2 else 8
    grid = np.zeros((nx, ny, nz), dtype=np.int16)
    wall_x = (3 * nx) // 4
    grid[wall_x, :, :] = 1
    return grid


def generate_env(
    seed,
    profile: str,
    dims,
    num_classes: int,
    resolution: float = 1.0,
    target_occupancy: float = 0.2,
) -> Environment:
    """Deterministic ground-truth world.

    ``random`` scatters small solid blocks with a clearance moat until the
    target occupancy is reached; ``structured`` is a fixed two-room layout
    with a doored dividing wall; ``corridor`` is a 3-D free corridor ending
    in a full cross-section wall (the run-length study scene).
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 16 for d in dims[:2]):
        raise BadDims("need at least 16 cells per planar axis")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    tried = ""
    if profile == "random":
        grid, attempts = _gen_random(rng, dims, num_classes, target_occupancy)
        target = math.ceil(target_occupancy * dims[0] * dims[1])
        tried = f"{attempts}/{GEN_ATTEMPTS} attempts, target {target} cells, "
    elif profile == "structured":
        grid = _gen_structured(dims, num_classes)
    elif profile == "corridor":
        grid = _gen_corridor(dims, num_classes)
    else:
        raise BadDims(f"unknown profile {profile!r}")
    spawns = _spawn_cells(grid)
    if not spawns:
        raise BadDims("generated environment has no 3x3 free spawn area")
    log.debug("world %s %s: %s%d cells occupied, %d spawns, %.3f ms", profile, grid.shape,
              tried, np.count_nonzero(grid), len(spawns), 1e3 * (time.perf_counter() - t0))
    return Environment(grid=grid, num_classes=num_classes, resolution=resolution, spawns=spawns)


def env_to_grid(env: Environment) -> GridMap:
    """Ground truth as a saturated belief map (for export and inspection):
    each cell is certain of its true class up to log-odds 6."""
    gmap = GridMap(env.dims, env.resolution, env.num_classes)
    cells = np.full(env.dims + (env.num_classes + 1,), -6.0)
    cells[..., 0] = 0.0
    for k in range(1, env.num_classes + 1):
        cells[env.grid == k, k] = 6.0
    gmap.cells = cells
    gmap.observed[:] = True
    return gmap


def first_hits(env: Environment, rays, max_range: float) -> list[tuple[float, int] | None]:
    """Exact (range, class) of the first non-free ground-truth cell along
    each ray, an ``(origin, direction)`` pair of three floats each (meters,
    unit direction), or None when the ray reaches ``max_range`` or leaves
    the world first. The range is where the ray enters that cell; the
    origin cell counts, at range 0. An origin outside the world raises
    OriginOutOfBounds (the casters' origin check, ``grid._cell_point``).
    The rays are walked by ``voxel_walk`` in cell units, and the truth is
    read from a flat list made by this call, so an edit of ``env.grid``
    shows in the next call."""
    res = env.resolution
    dims = env.dims
    _, ny, nz = dims
    truth = env.grid.ravel().tolist()
    s_max = max_range / res
    out: list[tuple[float, int] | None] = []
    for origin, direction in rays:
        g = _cell_point(origin, (0.0, 0.0, 0.0), res, dims)
        coords, entries = voxel_walk(g, direction, s_max, dims)
        hit = None
        cells = iter(coords)
        for entry, (i, j, k) in zip(entries, zip(cells, cells, cells)):
            cls = truth[(i * ny + j) * nz + k]
            if cls:
                hit = (entry * res, cls)
                break
        out.append(hit)
    return out


@dataclass(frozen=True)
class SensorSpec:
    num_beams: int
    fov: float
    r_max: float
    range_sigma: float
    misclass_prob: float


def sense(
    env: Environment,
    position: np.ndarray,
    heading: float,
    spec: SensorSpec,
    rng: np.random.Generator,
) -> list[BeamMeasurement]:
    """Simulate one scan, one beam at each ``mi.fan_angles``: exact ranges
    from the ground truth (``first_hits``), then additive Gaussian range
    noise (clipped to [0, r_max]) and uniform class flips, drawn beam by
    beam.

    Beams that reach max range (or leave the world) report no hit and carry
    no noise. A hit whose noisy range clips to r_max also degrades to no hit.
    """
    position = np.asarray(position, dtype=np.float64)
    p = position.tolist()
    g = [v / env.resolution for v in p]
    if not all(0.0 <= v < n for v, n in zip(g, env.dims)):
        raise PoseInObstacle(f"pose {position} outside the environment")
    cls = env.grid[tuple(math.floor(v) for v in g)]
    if cls != 0:
        raise PoseInObstacle(f"pose {position} lies in a class-{cls} cell")

    directions = [[math.cos(a), math.sin(a), 0.0]
                  for a in fan_angles(spec.num_beams, heading, spec.fov)]
    hits = first_hits(env, [(p, d) for d in directions], spec.r_max)
    beams = []
    for direction, hit in zip(directions, hits):
        direction = np.array(direction)
        if hit is None:
            beams.append(
                BeamMeasurement(position, direction, spec.r_max, None, spec.r_max)
            )
            continue
        true_range, true_class = hit
        reported = true_range
        if spec.range_sigma > 0.0:
            reported += rng.normal(0.0, spec.range_sigma)
        reported = min(max(reported, 0.0), spec.r_max)
        if reported >= spec.r_max:
            beams.append(
                BeamMeasurement(position, direction, spec.r_max, None, spec.r_max)
            )
            continue
        label = true_class
        if env.num_classes > 1 and spec.misclass_prob > 0.0:
            if rng.random() < spec.misclass_prob:
                others = [c for c in range(1, env.num_classes + 1) if c != true_class]
                label = int(others[rng.integers(len(others))])
        beams.append(BeamMeasurement(position, direction, reported, label, spec.r_max))
    return beams


# -- exploration episode ------------------------------------------------------


@dataclass
class CycleRow:
    step: int
    distance: float
    entropy: float
    explored: float
    plan_mi: float


@dataclass
class EpisodeMetrics:
    rows: list[CycleRow] = field(default_factory=list)
    plan_times: list[float] = field(default_factory=list)
    plan_log: list[str] = field(default_factory=list)
    precision: dict[int, float | None] = field(default_factory=dict)
    env_hash: str = ""
    config_hash: str = ""
    mapper: object = None  # final map state
    env: Environment | None = None

    def metrics_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# config-hash: {self.config_hash}\n")
        out.write(f"# env-hash: {self.env_hash}\n")
        out.write("step,distance_m,entropy_nats,explored_fraction,plan_mi_nats\n")
        for r in self.rows:
            out.write(f"{r.step},{r.distance!r},{r.entropy!r},{r.explored!r},{r.plan_mi!r}\n")
        return out.getvalue()

    def timings_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# config-hash: {self.config_hash}\n")
        out.write("step,plan_time_s\n")
        for i, t in enumerate(self.plan_times, start=1):
            out.write(f"{i},{t!r}\n")
        return out.getvalue()

    def distance_at_explored(self, fraction: float) -> float | None:
        for r in self.rows:
            if r.explored >= fraction:
                return r.distance
        return None

    @property
    def final(self) -> CycleRow | None:
        return self.rows[-1] if self.rows else None


def _build_mapper(config: SimConfig, env: Environment):
    dims = env.dims
    if config.mapper.type == "grid":
        return GridMap(dims, env.resolution, env.num_classes)
    depth = max(1, math.ceil(math.log2(max(dims))))
    return SemanticOctree(
        element_size=env.resolution,
        max_depth=depth,
        num_classes=env.num_classes,
    )


def class_precision(mapper, env: Environment) -> dict[int, float | None]:
    """Per-class precision of the most-likely map over observed cells; None
    when the map never labeled a cell with that class."""
    labels, observed = mapper.labels_observed(((0, 0, 0), env.dims))
    out: dict[int, float | None] = {}
    for k in range(1, env.num_classes + 1):
        sel = observed & (labels == k)
        if not np.any(sel):
            out[k] = None
        else:
            out[k] = float(np.mean(env.grid[sel] == k))
    return out


def run_episode(config: SimConfig, env: Environment | None = None) -> EpisodeMetrics:
    """Closed sense / integrate / plan / move loop until the map has no
    frontier left, the explored-fraction target is met, or the step cap hits.

    The robot teleports along planned paths with perfect localization,
    sensing every ``planner.stride`` waypoints; distance accrues from the
    waypoint geometry. The map can hold a truly occupied cell as free, so
    the robot stops before the first waypoint whose ground-truth cell is
    occupied, and stays put when that is the first step.
    """
    streams = np.random.SeedSequence(config.seed).spawn(3)
    # a second Generator on the world's stream: the spawn index reuses the
    # world's first raw draw. streams[2] is never read. Changing either
    # would change every world and every episode.
    env_rng = np.random.default_rng(streams[0])
    sensor_rng = np.random.default_rng(streams[1])
    if env is None:
        env = generate_env(
            streams[0],
            config.env.profile,
            config.env.dims,
            config.env.num_classes,
            config.env.resolution,
            config.env.target_occupancy,
        )
    spawn = env.spawns[int(env_rng.integers(len(env.spawns)))]
    if config.planner.band is not None and config.planner.band[1] > env.dims[2]:
        raise ConfigError(f"planner.band {config.planner.band!r} runs past the world's z cells")

    params = config.mapper.sensor_params(env.num_classes)
    mapper = _build_mapper(config, env)
    spec = SensorSpec(
        num_beams=config.sensor.num_beams,
        fov=math.radians(config.sensor.fov_deg),
        r_max=config.sensor.r_max,
        range_sigma=config.sensor.range_sigma,
        misclass_prob=config.sensor.misclass_prob,
    )
    metrics = EpisodeMetrics(env_hash=env.content_hash(), config_hash=config.config_hash())
    world = ((0, 0, 0), env.dims)  # an octree's cube can be larger than the world

    def pose_center(cell) -> np.ndarray:
        return (np.asarray(cell, dtype=np.float64) + 0.5) * env.resolution

    casts: dict = {}  # the episode's cast cache (planner.evaluate_candidates)
    pose = (spawn[0], spawn[1])
    z_idx = spawn[2]
    heading = 0.0
    distance = 0.0
    for step in range(1, config.run.max_steps + 1):
        scan = sense(env, pose_center((pose[0], pose[1], z_idx)), heading, spec, sensor_rng)
        mapper.insert_scan(scan, params)

        view = planner_mod.view_from_grid(mapper, env.dims, config.planner.band)
        t0 = time.perf_counter()
        try:
            candidates = planner_mod.evaluate_candidates(mapper, view, pose, params,
                                                         config.planner, casts)
            plan = planner_mod.select_best(candidates)
        except (NoFrontiers, AllUnreachable):
            entropy, explored = mapper.map_state(world)
            metrics.rows.append(CycleRow(step, distance, entropy, explored, 0.0))
            log.debug("cycle %d: entropy %r nats, explored %r, no plan", step, entropy, explored)
            break
        plan_s = time.perf_counter() - t0
        metrics.plan_times.append(plan_s)
        for cand in candidates:
            flag = "*" if cand is plan else " "
            metrics.plan_log.append(
                f"cycle={step} frontier={cand.frontier_index} cost={cand.cost!r} "
                f"mi={cand.mi!r} score={cand.score!r} chosen={flag}"
            )

        path = plan.path
        for w in range(1, len(path)):
            if env.grid[path[w][0], path[w][1], z_idx] != 0:
                path = path[:w]
                break
        poses = planner_mod.sensing_poses(path, config.planner.stride)
        for w in range(1, len(path)):
            a, b = path[w - 1], path[w]
            distance += math.hypot(b[0] - a[0], b[1] - a[1]) * env.resolution
        for cell, hd in poses[1:-1]:
            scan = sense(env, pose_center((cell[0], cell[1], z_idx)), hd, spec, sensor_rng)
            mapper.insert_scan(scan, params)
        pose = path[-1]
        heading = poses[-1][1]

        entropy, explored = mapper.map_state(world)
        metrics.rows.append(CycleRow(step, distance, entropy, explored, plan.mi))
        log.debug("cycle %d: entropy %r nats, explored %r, plan %.4f s",
                  step, entropy, explored, plan_s)
        if explored >= config.run.explored_stop:
            break

    metrics.precision = class_precision(mapper, env)
    metrics.mapper = mapper  # final map, for callers that persist it
    metrics.env = env
    return metrics


# -- run-length compression study ---------------------------------------------


@dataclass
class StudyRow:
    resolution: float
    mean_q: float
    std_q: float
    mean_n: float
    std_n: float
    seconds: float


def study_csv(rows: list[StudyRow], config_hash: str) -> str:
    out = io.StringIO()
    out.write(f"# config-hash: {config_hash}\n")
    out.write("resolution_per_m,mean_q,std_q,mean_n,std_n,episode_seconds\n")
    for r in rows:
        out.write(
            f"{r.resolution!r},{r.mean_q!r},{r.std_q!r},{r.mean_n!r},{r.std_n!r},{r.seconds!r}\n"
        )
    return out.getvalue()


def srle_study(config: SimConfig, env: Environment | None = None) -> list[StudyRow]:
    """Sweep octree element resolutions over the corridor scene, recording
    the visited run count Q and element count N for every ray cast.

    Each iteration fires a fixed grid of parallel corridor-axis beams from
    the open end, integrates them noise-free, and then records the run-length
    statistics of the same rays against the updated tree. Beliefs saturate at
    the clamp after a few passes, so runs stay short at every resolution
    while the element count scales with it.
    """
    if env is None:
        dims = config.env.dims if len(config.env.dims) == 3 else (16, 16, 16)
        env = generate_env(config.seed, "corridor", dims, config.env.num_classes, 1.0)
    extent = np.array(env.dims, dtype=np.float64) * env.resolution
    n_side = max(1, int(math.isqrt(config.sweep.beams)))
    # irrational-ish cross-section offsets: never land on an element boundary
    # at any swept resolution
    ys = [0.5 + (i + 0.37) * (extent[1] - 1.0) / n_side for i in range(n_side)]
    zs = [0.5 + (i + 0.37) * (extent[2] - 1.0) / n_side for i in range(n_side)]
    r_max = float(extent[0])

    rows = []
    for res in config.sweep.resolutions:
        element = 1.0 / res
        depth = max(1, math.ceil(math.log2(extent.max() * res)))
        tree = SemanticOctree(element, depth, env.num_classes)
        params = config.mapper.sensor_params(env.num_classes)
        qs: list[int] = []
        ns: list[int] = []
        t0 = time.perf_counter()
        for _ in range(config.sweep.iterations):
            beams = []
            direction = [1.0, 0.0, 0.0]
            origins = [[0.5 * element, float(y), float(z)] for y in ys for z in zs]
            hits = first_hits(env, [(origin, direction) for origin in origins], r_max)
            for origin, hit in zip(origins, hits):
                rng_range, category = hit if hit is not None else (r_max, None)
                beams.append(
                    BeamMeasurement(np.array(origin), np.array(direction), rng_range,
                                    category, r_max)
                )
            tree.insert_scan(beams, params)
            for beam in beams:
                ray = tree.raycast_srle(beam)
                qs.append(ray.num_runs)
                ns.append(ray.num_elements)
        seconds = time.perf_counter() - t0
        rows.append(
            StudyRow(
                resolution=float(res),
                mean_q=float(np.mean(qs)),
                std_q=float(np.std(qs)),
                mean_n=float(np.mean(ns)),
                std_n=float(np.std(ns)),
                seconds=seconds,
            )
        )
    return rows
