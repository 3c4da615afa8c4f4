"""Workloads of the ssmi benchmark.

Every workload is a closed loop in one process: the next episode (or scan)
starts only after the previous one has finished. The benchmark's seed fixes
what the program is fed; the program only sees the generated config files
and beams. Each workload notes below why it was chosen and which layer it
leaves out.

Closed-loop units:

* explore_*: one episode is one ``ssmi explore --seed S`` call made through
  ``ssmi.cli.main`` (no ``--jobs``), from config parsing to the last output
  file. One cycle is one ``metrics.csv`` row. The "read" step of a cycle is
  its planning time as ``ssmi explore`` itself writes it to ``timings.csv``.
* scan3d: one episode is one map build: a fresh ``GridMap`` and
  ``SemanticOctree`` fed ``SCANS`` scans of ``SCAN_BEAMS`` beams each. One
  cycle is one scan ingested into both maps followed by the probe set
  evaluated on both maps, which is the cycle's "read" step.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import speed
import yaml

from ssmi import cli, mi
from ssmi.grid import BeamMeasurement, GridMap
from ssmi.logodds import SensorParams
from ssmi.octree import SemanticOctree, grid_from_octree

# -- explore workloads -------------------------------------------------------

# The A7 acceptance config (tests/test_acceptance.py::_ab_config): 32x32
# random world, K=3, 48-beam sensor, 16-beam candidate fans, stride 3.
A7_CONFIG = {
    "env": {"profile": "random", "dims": [32, 32], "num_classes": 3},
    "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
    "planner": {"num_beams": 16, "beam_range": 10.0, "stride": 3},
    "run": {"max_steps": 60, "explored_stop": 0.9},
}

# Episode seeds. Episode cost differs up to 2x between worlds (3.4-6.5 s
# for grid + ssmi over seeds 0-5 on a 2-core Xeon VM), and a run fits only
# a few episodes, so
# every run plays the same three worlds, those of the ROADMAP baseline; the
# benchmark's seed sets the order they are played in. Runs with different
# seeds then compare like with like.
WORLDS = (0, 1, 2)

EXPLORED_TARGET = 0.9
# speed windows around each episode, and ticks inside it (speed.py); a tick
# takes ~4 ms, about 1.5% of the episode
EDGE_WINDOW_S = 0.05
TICK_S = 0.25

# metrics.csv sha256 per workload and episode seed, as written by the commit
# that added the benchmark. A differing hash is reported, not counted as a
# failure: a change may alter the bytes when it says why (ROADMAP, A8).
REFERENCE_SHA256 = json.loads(
    (Path(__file__).parent / "reference_metrics_sha256.json").read_text()
)

WARMUP_CONFIG = {
    "seed": 1,
    "env": {"profile": "random", "dims": [16, 16], "num_classes": 3},
    "sensor": {"num_beams": 12, "r_max": 6.0},
    "planner": {"num_beams": 6, "beam_range": 6.0},
    "run": {"max_steps": 2},
}


@dataclass
class Outcome:
    """What one run measured: operation counts, the end-to-end figures, the
    per-layer extras the workload itself provides, and a report."""

    attempted: int
    failed: int
    episodes: int
    end_to_end: dict[str, float]
    layer_extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict = field(default_factory=dict)


@dataclass
class Episode:
    world: int
    wall_s: float  # raw wall time, less the speed ticks inside it
    scale: float  # to reference speed (speed.py)
    rows: int = 0
    plan_s: list[float] = field(default_factory=list)
    dist90_m: float | None = None
    sha256: str = ""
    error: str = ""


def _data_lines(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


@dataclass(frozen=True)
class Explore:
    name: str
    mapper: str
    selector: str
    why: str
    leaves_out: str

    def config(self) -> dict:
        cfg = {section: dict(values) for section, values in A7_CONFIG.items()}
        cfg["mapper"] = {"type": self.mapper}
        cfg["planner"]["selector"] = self.selector
        return cfg

    def resolve(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        config = work / f"{self.name}.yaml"
        config.write_text(yaml.safe_dump(self.config()))
        order = random.Random(seed).sample(WORLDS, len(WORLDS))
        return {"config": config, "order": order, "out": work / f"{self.name}-episodes"}

    def warm_up(self, state: dict) -> None:
        cfg = dict(WARMUP_CONFIG, mapper={"type": self.mapper})
        cfg["planner"] = dict(cfg["planner"], selector=self.selector)
        path = state["out"].parent / f"{self.name}-warmup.yaml"
        path.write_text(yaml.safe_dump(cfg))
        self._call(path, state["out"] / "warmup", 1)
        shutil.rmtree(state["out"] / "warmup", ignore_errors=True)

    @staticmethod
    def _call(config: Path, out: Path, world: int) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(
                ["explore", "--config", str(config), "--out", str(out), "--seed", str(world)]
            )

    def episode(self, state: dict, world: int, index: int, tracer=None) -> Episode:
        out = state["out"] / f"{index:03d}-seed{world}"
        with speed.Scaled(EDGE_WINDOW_S, TICK_S) as scaled:
            with tracer.span("episode") if tracer is not None else nullcontext():
                t0 = time.perf_counter()
                code = self._call(state["config"], out, world)
                wall_s = time.perf_counter() - t0
        ep = Episode(world=world, wall_s=wall_s - scaled.spent, scale=scaled.factor)
        try:
            if code != 0:
                ep.error = f"ssmi explore exited {code}"
                return ep
            metrics = (out / "metrics.csv").read_bytes()
            ep.sha256 = hashlib.sha256(metrics).hexdigest()
            rows = _data_lines(metrics.decode())
            ep.rows = len(rows)
            for row in rows:
                if float(row[3]) >= EXPLORED_TARGET:
                    ep.dist90_m = float(row[1])
                    break
            ep.plan_s = [float(r[1]) for r in _data_lines((out / "timings.csv").read_text())]
            if ep.dist90_m is None:
                ep.error = f"never reached {EXPLORED_TARGET:.0%} explored"
        except (OSError, ValueError, IndexError) as exc:
            ep.error = f"unreadable output: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return ep

    def run(self, state: dict, seconds: float, tracer=None) -> Outcome:
        order = state["order"]
        baseline_s = None
        if tracer is not None:
            # one untraced episode, repeated traced below, gives the overhead
            baseline = self.episode(state, order[0], 0)
            baseline_s = baseline.wall_s * baseline.scale
            tracer.install()
        episodes: list[Episode] = []
        t_start = time.perf_counter()
        while (
            len(episodes) < len(order)
            or time.perf_counter() - t_start < seconds
            or (tracer is not None and len(episodes) % len(order))
        ):
            world = order[len(episodes) % len(order)]
            episodes.append(self.episode(state, world, len(episodes) + 1, tracer))
        return self._outcome(episodes, order, baseline_s)

    def _outcome(self, episodes: list[Episode], order, baseline_s) -> Outcome:
        first_sha: dict[int, str] = {}
        failed = 0
        for ep in episodes:
            if not ep.error and ep.sha256:
                ref = first_sha.setdefault(ep.world, ep.sha256)
                if ep.sha256 != ref:
                    ep.error = "metrics.csv bytes differ from this seed's first episode (A8)"
            failed += bool(ep.error)

        first_pass = episodes[: len(order)]
        per_world = {
            w: statistics.median(ep.wall_s * ep.scale for ep in episodes if ep.world == w)
            for w in order
        }
        rows = {ep.world: ep.rows for ep in first_pass}
        # the median over a world's repeats of each cycle's planning time,
        # so worlds that were repeated more often do not weigh more
        plan_s = []
        for ep in first_pass:
            repeats = [[t * e.scale for t in e.plan_s] for e in episodes
                       if e.world == ep.world and len(e.plan_s) == len(ep.plan_s)]
            plan_s += [statistics.median(cycle) for cycle in zip(*repeats)]
        end_to_end = {
            "episode_s_p50": statistics.median(per_world.values()),
            "cycles_per_s": sum(rows.values()) / sum(per_world.values()),
            "read_ms_p50": 1e3 * statistics.median(plan_s) if plan_s else 0.0,
        }
        dists = [ep.dist90_m for ep in first_pass if ep.dist90_m is not None]
        extras = {
            "episode.dist90_m": (statistics.fmean(dists) if dists else 0.0, "m"),
            "scan3d.ingest_ms_p50": (0.0, "ms"),
            "scan3d.ingest_ms_p90": (0.0, "ms"),
            "scan3d.query_us_p50": (0.0, "us"),
            "scan3d.query_us_p90": (0.0, "us"),
        }
        if baseline_s is not None:
            first = episodes[0]
            extras["trace.overhead_frac"] = (first.wall_s * first.scale / baseline_s - 1.0, "frac")
        reference = REFERENCE_SHA256.get(self.name, {})
        report = {
            "episodes": [
                {
                    "seed": ep.world,
                    "wall_s": ep.wall_s,
                    "scale": ep.scale,
                    "cycles": ep.rows,
                    "dist90_m": ep.dist90_m,
                    "metrics_csv_sha256": ep.sha256,
                    "matches_reference": ep.sha256 == reference.get(str(ep.world)),
                    "error": ep.error,
                }
                for ep in episodes
            ],
            "episode_s_by_seed": {str(w): per_world[w] for w in order},
            "episode_samples": len(episodes),
            "read_samples": len(plan_s),
        }
        return Outcome(
            attempted=len(episodes),
            failed=failed,
            episodes=len(episodes),
            end_to_end=end_to_end,
            layer_extras=extras,
            report=report,
        )


# -- scan3d ------------------------------------------------------------------

SCAN_DIMS = 32  # 32^3 scene; the octree is a depth-5 cube of the same extent
R_MAX = 24.0
HIT_SHARE = 0.8
SCAN_BEAMS = 10
SCANS = 20  # 200 beams per map build, as many as A4 feeds
PROBES = 16
PROBE_RANGE = 12.0
PROBE_BOX = (13.0, 19.0)  # at least 13 elements from every face
REL_TOL = 1e-10
CYCLE_WINDOW_S = 0.03  # speed windows between cycles; each is shared by two


def _a4_beam(rng: np.random.Generator) -> BeamMeasurement:
    """One beam of the A4 generator (tests/test_acceptance.py): a random
    origin and 3-D direction, a hit with a random class 80% of the time."""
    origin = rng.uniform(1.0, SCAN_DIMS - 1.0, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    r = float(rng.uniform(0.5, R_MAX)) if rng.random() < HIT_SHARE else R_MAX
    cat = int(rng.integers(1, 4)) if r < R_MAX else None
    return BeamMeasurement(origin, d, r, cat, R_MAX)


def _probe(rng: np.random.Generator) -> BeamMeasurement:
    """A no-hit probe from the middle of the cube that ends inside it, so
    every probe is PROBE_RANGE long and probe sets of different seeds cost
    about the same."""
    origin = rng.uniform(PROBE_BOX[0], PROBE_BOX[1], 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return BeamMeasurement(origin, d, PROBE_RANGE, None, PROBE_RANGE)


@dataclass
class Build:
    """One map build. Times are at reference speed (speed.py): each cycle is
    scaled by kernel windows taken right before and after it."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    ingest_s: list[float] = field(default_factory=list)
    probe_set_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    probes_failed: int = 0
    scans_failed: int = 0
    map_mismatch: bool = False
    leaves: int = 0
    error: str = ""


@dataclass(frozen=True)
class Scan3d:
    name: str
    why: str
    leaves_out: str

    def resolve(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        return {"rng": rng, "probes": [_probe(rng) for _ in range(PROBES)]}

    def _scans(self, rng, scans: int = SCANS, beams: int = SCAN_BEAMS):
        return [[_a4_beam(rng) for _ in range(beams)] for _ in range(scans)]

    def warm_up(self, state: dict) -> None:
        self.build(self._scans(np.random.default_rng(1), 2, 2), state["probes"][:2])

    def build(self, scans, probes, tracer=None) -> Build:
        params = SensorParams.default(3)
        gmap = GridMap((SCAN_DIMS,) * 3, 1.0, 3)
        tree = SemanticOctree(1.0, 5, 3)
        out = Build()

        def window() -> float:
            with tracer.span("speed.window") if tracer is not None else nullcontext():
                return speed.op_time(CYCLE_WINDOW_S)

        with tracer.span("episode") if tracer is not None else nullcontext():
            self._fill(gmap, tree, scans, probes, params, window, out)
        # A4: after the build, every octree element equals the grid cell
        out.map_mismatch = not np.array_equal(grid_from_octree(tree).cells, gmap.cells)
        out.leaves = tree.num_leaves()
        if tracer is not None:
            tracer.add("octree.leaves", out.leaves)
        return out

    @staticmethod
    def _fill(gmap, tree, scans, probes, params, window, out: Build) -> None:
        before = window()
        for scan in scans:
            t0 = time.perf_counter()
            try:
                for beam in scan:
                    gmap.integrate(beam, params)
                tree.insert_scan(scan, params)
            except Exception as exc:  # counted as a failed operation
                out.scans_failed += 1
                out.error = f"ingest raised {exc!r}"
            t1 = time.perf_counter()
            probe_s = []
            for probe in probes:
                tp = time.perf_counter()
                try:
                    h_t, h_0 = gmap.ray_logodds(gmap.cast_ray(probe))
                    dense = mi.beam_mi_dense(h_t, h_0, params).value
                    runs = mi.beam_mi_srle(tree.raycast_srle(probe), params).value
                except Exception as exc:  # counted as a failed operation
                    out.probes_failed += 1
                    out.error = f"probe raised {exc!r}"
                else:
                    if not abs(dense - runs) <= REL_TOL * abs(dense):
                        out.probes_failed += 1
                        out.error = f"probe dense {dense!r} vs run-length {runs!r}"
                probe_s.append(time.perf_counter() - tp)
            t2 = time.perf_counter()
            after = window()
            factor = speed.REFERENCE_OP_S / (0.5 * (before + after))
            before = after
            out.ingest_s.append((t1 - t0) * factor)
            out.probe_set_s.append((t2 - t1) * factor)
            out.probe_s += [t * factor for t in probe_s]
            out.wall_s += (t2 - t0) * factor
            out.raw_wall_s += t2 - t0

    def run(self, state: dict, seconds: float, tracer=None) -> Outcome:
        rng, probes = state["rng"], state["probes"]
        builds: list[Build] = []
        baseline_s = None
        scans = self._scans(rng)
        if tracer is not None:
            # the first traced build repeats these scans; their ratio is the overhead
            baseline_s = self.build(scans, probes).wall_s
            tracer.install()
        t_start = time.perf_counter()
        while not builds or time.perf_counter() - t_start < seconds:
            if builds:
                scans = self._scans(rng)
            builds.append(self.build(scans, probes, tracer))
        return self._outcome(builds, baseline_s)

    def _outcome(self, builds: list[Build], baseline_s) -> Outcome:
        ingest = [t for b in builds for t in b.ingest_s]
        probe_sets = [t for b in builds for t in b.probe_set_s]
        probes = [t for b in builds for t in b.probe_s]
        attempted = sum(len(b.ingest_s) + len(b.probe_s) + 1 for b in builds)
        failed = sum(b.scans_failed + b.probes_failed + b.map_mismatch for b in builds)
        q_ingest = statistics.quantiles(ingest, n=10)
        q_probe = statistics.quantiles(probes, n=10)
        end_to_end = {
            "episode_s_p50": statistics.median(b.wall_s for b in builds),
            "cycles_per_s": len(ingest) / sum(b.wall_s for b in builds),
            "read_ms_p50": 1e3 * statistics.median(probe_sets),
        }
        extras = {
            "episode.dist90_m": (0.0, "m"),
            "scan3d.ingest_ms_p50": (1e3 * statistics.median(ingest), "ms"),
            "scan3d.ingest_ms_p90": (1e3 * q_ingest[8], "ms"),
            "scan3d.query_us_p50": (1e6 * statistics.median(probes), "us"),
            "scan3d.query_us_p90": (1e6 * q_probe[8], "us"),
        }
        if baseline_s is not None:
            extras["trace.overhead_frac"] = (builds[0].wall_s / baseline_s - 1.0, "frac")
        report = {
            "builds": [
                {
                    "wall_s": b.wall_s,
                    "raw_wall_s": b.raw_wall_s,
                    "ingest_s_median": statistics.median(b.ingest_s),
                    "probe_set_s_median": statistics.median(b.probe_set_s),
                    "leaves": b.leaves,
                    "failed": b.scans_failed + b.probes_failed + b.map_mismatch,
                    "error": b.error or ("octree differs from grid" if b.map_mismatch else ""),
                }
                for b in builds
            ],
            "episode_samples": len(builds),
            "ingest_samples": len(ingest),
            "probe_samples": len(probes),
        }
        return Outcome(
            attempted=attempted,
            failed=failed,
            episodes=len(builds),
            end_to_end=end_to_end,
            layer_extras=extras,
            report=report,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Explore(
            name="explore_grid_ssmi",
            mapper="grid",
            selector="ssmi",
            why=(
                "Planning dominates (3.8-6.5 s of 5.1-8.1 s per episode on a 2-core "
                "Xeon VM), mostly "
                "GridMap.cast_ray plus beam_mi_dense over 16-beam candidate fans. "
                "Ray-caster, overlap-filter and dense-kernel changes show here."
            ),
            leaves_out="the octree (insert_scan, prune, encode_trace, beam_mi_srle).",
        ),
        Explore(
            name="explore_octree_ssmi",
            mapper="octree",
            selector="ssmi",
            why=(
                "Adds the octree write path: insert_scan/prune re-fuse the whole tree "
                "on every scan; view_from_octree and save_octree run too, and reads "
                "go through encode_trace + beam_mi_srle. The CLI call times the "
                "final_map.ssmioct write, so work moved into save time cannot hide."
            ),
            leaves_out="GridMap.cast_ray/integrate and beam_mi_dense.",
        ),
        Explore(
            name="explore_grid_frontier",
            mapper="grid",
            selector="frontier",
            why=(
                "Largest-frontier selection bypasses mi entirely (planning is "
                "0.07-0.10 s of 1.1-1.9 s per episode on a 2-core Xeon VM); time goes "
                "to sense, integrate, "
                "map state, frontiers and A*. A change to the information path "
                "should predict no change here."
            ),
            leaves_out="all of mi (trajectory_mi, overlap filter, both kernels) and the octree.",
        ),
        Scan3d(
            name="scan3d",
            why=(
                "Every episode is planar (nz=1), so only this workload casts true 3-D "
                "rays, runs where Q << N, and times map writes (ingest) and reads "
                "(probe queries) separately on one map pair."
            ),
            leaves_out="sim, the planner, trajectory_mi's overlap filter and file output.",
        ),
    )
}
