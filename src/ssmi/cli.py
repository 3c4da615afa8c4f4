"""Command line front end.

Exit codes: 0 success, 1 check failure (oracle-check tolerance breach),
2 usage or configuration error (a bad argument or config value, or a path
that cannot be opened), 3 runtime abort (a corrupt map file among them).
Every subcommand prints its resolved configuration before doing work, and
every CSV artifact carries a ``# config-hash:`` comment so runs can be traced
and reproduced. Set ``SSMI_LOG`` to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import check as check_mod
from . import mi as mi_mod
from .config import ConfigError, SimConfig, load_config
from .errors import SsmiError
from .grid import GRID_MAGIC, load_grid, save_grid
from .logodds import SensorParams
from .octree import (
    OCTREE_MAGIC,
    OCTREE_MAGIC_V1,
    SemanticOctree,
    grid_from_octree,
    load_octree,
    octree_from_grid,
    save_octree,
)
from .sim import EpisodeMetrics, env_to_grid, run_episode, srle_study, study_csv

log = logging.getLogger("ssmi")


def _print_resolved(config: SimConfig) -> None:
    print("resolved config:")
    for line in config.resolved_yaml().rstrip().splitlines():
        print("  " + line)


def _apply_overrides(config: SimConfig, args) -> SimConfig:
    if getattr(args, "selector", None):
        config.planner.selector = args.selector
    if getattr(args, "mapper", None):
        config.mapper.type = args.mapper
    return config


def _parse_seeds(text: str | None, fallback: int) -> list[int]:
    if not text:
        return [fallback]
    seeds = []
    for token in text.split(","):
        if not token.strip():
            continue
        try:
            seeds.append(int(token))
        except ValueError:
            raise ConfigError(f"--seed: {token.strip()!r} is not an integer") from None
    return seeds


def _write_episode(out_dir: Path, config: SimConfig, metrics: EpisodeMetrics) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(metrics.metrics_csv())
    (out_dir / "timings.csv").write_text(metrics.timings_csv())
    (out_dir / "plans.txt").write_text("\n".join(metrics.plan_log) + "\n")
    (out_dir / "resolved.yaml").write_text(config.resolved_yaml())
    if isinstance(metrics.mapper, SemanticOctree):
        save_octree(metrics.mapper, out_dir / "final_map.ssmioct")
    elif metrics.mapper is not None:
        save_grid(metrics.mapper, out_dir / "final_map.ssmigrid")
    if metrics.env is not None:
        save_grid(env_to_grid(metrics.env), out_dir / "env_truth.ssmigrid")
    final = metrics.final
    summary = {
        "seed": config.seed,
        "steps": len(metrics.rows),
        "distance_m": final.distance if final else 0.0,
        "entropy_nats": final.entropy if final else None,
        "explored_fraction": final.explored if final else 0.0,
        "precision": {str(k): v for k, v in metrics.precision.items()},
        "env_hash": metrics.env_hash,
        "config_hash": metrics.config_hash,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _run_one_seed(config_dict: dict, seed: int, out_dir: str) -> str:
    from .config import config_from_dict

    config = config_from_dict(config_dict)
    config.seed = seed
    metrics = run_episode(config)
    _write_episode(Path(out_dir), config, metrics)
    return metrics.env_hash


def cmd_explore(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    _print_resolved(config)
    seeds = _parse_seeds(args.seed, config.seed)
    out = Path(args.out)
    if len(seeds) == 1:
        config.seed = seeds[0]
        metrics = run_episode(config)
        _write_episode(out, config, metrics)
        print(f"episode done: {len(metrics.rows)} cycles, env-hash {metrics.env_hash}")
        return 0
    plain = yaml.safe_load(config.resolved_yaml())
    jobs = max(1, args.jobs)
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(_run_one_seed, plain, s, str(out / f"seed-{s}")): s for s in seeds
        }
        for fut in concurrent.futures.as_completed(futures):
            print(f"seed {futures[fut]} done: env-hash {fut.result()}")
    return 0


def _load_any_map(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == GRID_MAGIC:
        return load_grid(path)
    if magic in (OCTREE_MAGIC, OCTREE_MAGIC_V1):
        return load_octree(path)
    raise SsmiError(f"{path}: unrecognized map file (magic {magic!r})")


def _map_params(args, num_classes: int) -> SensorParams:
    if getattr(args, "config", None):
        return load_config(args.config).mapper.sensor_params(num_classes)
    return SensorParams.default(num_classes)


def cmd_mi_eval(args) -> int:
    mapper = _load_any_map(args.map)
    params = _map_params(args, mapper.num_classes)
    print(f"resolved config:\n  map: {args.map}\n  pose: ({args.x}, {args.y}, {args.z})"
          f"\n  beams: {args.beams}\n  r_max: {args.r_max}\n  heading: {args.heading}")
    center = np.array([args.x, args.y, args.z])
    fan = mi_mod.FanCast.from_pose(mapper, center, args.beams, args.r_max, heading=args.heading)
    batch = mi_mod.trajectories_mi(mapper, [fan], [[0]], params)
    result = batch.trajectories[0]
    print(f"beams: {result.beams_total} kept: {result.beams_kept}")
    print(f"mutual information: {result.value!r} nats")
    if args.out:
        rows = [
            f"{idx},{r + 1},{c + 1},{float(res.p_detail[r, c])!r},"
            f"{float(res.c_detail[r, c])!r},{float(res.terms[r, c])!r}"
            for idx, res in result.beams
            for r, c in np.ndindex(res.terms.shape)
        ]
        with open(args.out, "w") as fh:
            fh.write(f"beam,{'q' if isinstance(mapper, SemanticOctree) else 'n'},k,p,c,term\n")
            fh.write("\n".join(rows) + "\n")
        print(f"per-term dump written to {args.out}")
    return 0


def cmd_mi_surface(args) -> int:
    mapper = _load_any_map(args.map)
    if isinstance(mapper, SemanticOctree):
        mapper = grid_from_octree(mapper)
    # --binary is the occupancy-only surface: the one-class profile, whatever --config says
    params = SensorParams.default(1) if args.binary else _map_params(args, mapper.num_classes)
    r_max = args.r_max if args.r_max is not None else max(mapper.dims[:2]) * mapper.resolution
    print(f"resolved config:\n  map: {args.map}\n  beams: {args.beams}"
          f"\n  r_max: {r_max}\n  binary: {args.binary}")
    surface = mi_mod.mi_surface(mapper, params, num_beams=args.beams, max_range=r_max)
    cfg_hash = SimConfig().config_hash() if not args.config else load_config(args.config).config_hash()
    with open(args.out, "w") as fh:
        fh.write(f"# config-hash: {cfg_hash}\n")
        fh.write(",".join(f"x{i}" for i in range(surface.shape[0])) + "\n")
        for j in range(surface.shape[1]):
            fh.write(",".join(repr(float(surface[i, j])) for i in range(surface.shape[0])) + "\n")
    print(f"surface ({surface.shape[0]}x{surface.shape[1]}) written to {args.out}")
    return 0


def cmd_srle_study(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.mapper.type != "octree":
        raise ConfigError("srle-study needs mapper.type: octree")
    _print_resolved(config)
    rows = srle_study(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "srle_study.csv").write_text(study_csv(rows, config.config_hash()))
    for r in rows:
        print(
            f"resolution {r.resolution:g}/m: mean Q {r.mean_q:.2f} "
            f"mean N {r.mean_n:.2f} time {r.seconds:.2f}s"
        )
    return 0


def cmd_oracle_check(args) -> int:
    print(f"resolved config:\n  trials: {args.trials}\n  seed: {args.seed}"
          f"\n  tolerance: {check_mod.DENSE_TOL}")
    if args.replay:
        kind, fast, ref, rel = check_mod.replay_instance(Path(args.replay).read_text())
        print(f"replayed {kind} instance: fast={fast!r} reference={ref!r} rel_err={rel:.3e}")
        return 0 if rel <= check_mod.DENSE_TOL else 1
    dense = check_mod.run_dense_suite(args.trials, args.seed)
    srle = check_mod.run_srle_suite(args.trials, args.seed + 1)
    code = 0
    for suite in (dense, srle):
        status = "ok" if suite.passed else "FAIL"
        print(
            f"{suite.name}: {suite.trials} trials, max abs err {suite.max_abs_err:.3e}, "
            f"max rel err {suite.max_rel_err:.3e} [{status}]"
        )
        if not suite.passed:
            code = 1
            out = Path(args.out or ".")
            out.mkdir(parents=True, exist_ok=True)
            for i, inst in enumerate(suite.failures):
                path = out / f"breach-{suite.name}-{i}.json"
                path.write_text(inst)
                print(f"  failing instance saved to {path} (re-run with --replay)")
    return code


def cmd_map_inspect(args) -> int:
    mapper = _load_any_map(args.map)
    print(f"resolved config:\n  map: {args.map}")
    if isinstance(mapper, SemanticOctree):
        print("type: octree")
        print(f"element_size: {mapper.element_size}")
        print(f"max_depth: {mapper.max_depth} (cube edge {mapper.size_elements} elements)")
        print(f"num_classes: {mapper.num_classes}")
        print(f"leaves: {mapper.num_leaves()}")
    else:
        print("type: grid")
        print(f"dims: {mapper.dims}")
        print(f"resolution: {mapper.resolution}")
        print(f"num_classes: {mapper.num_classes}")
    print(f"entropy_nats: {mapper.map_entropy()!r}")
    print(f"observed_fraction: {mapper.observed_fraction()!r}")
    return 0


def cmd_map_convert(args) -> int:
    mapper = _load_any_map(args.map)
    print(f"resolved config:\n  map: {args.map}\n  out: {args.out}")
    if isinstance(mapper, SemanticOctree):
        gmap = grid_from_octree(mapper)
        save_grid(gmap, args.out)
        print(f"octree -> grid {gmap.dims} written to {args.out}")
    else:
        tree = octree_from_grid(mapper)
        save_octree(tree, args.out)
        print(f"grid -> octree (depth {tree.max_depth}, {tree.num_leaves()} leaves) "
              f"written to {args.out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmi",
        description="Multi-class occupancy mapping, beam information, and exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="run an exploration episode (or a seed sweep)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", help="seed or comma-separated seed list")
    p.add_argument("--selector", choices=["ssmi", "frontier", "fsmi-binary"])
    p.add_argument("--mapper", choices=["grid", "octree"])
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("mi-eval", help="information of one beam fan on a saved map")
    p.add_argument("--map", required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--z", type=_finite_float, default=0.5)
    p.add_argument("--heading", type=_finite_float, default=0.0)
    p.add_argument("--beams", type=_positive_int, default=16)
    p.add_argument("--r-max", type=_positive_float, default=10.0)
    p.add_argument("--config")
    p.add_argument("--out", help="write the per-term breakdown CSV here")
    p.set_defaults(func=cmd_mi_eval)

    p = sub.add_parser("mi-surface", help="fan information per free cell as a CSV grid")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beams", type=_positive_int, default=16)
    p.add_argument("--r-max", type=_positive_float, default=None)
    p.add_argument("--binary", action="store_true", help="occupancy-collapsed values")
    p.add_argument("--config")
    p.set_defaults(func=cmd_mi_surface)

    p = sub.add_parser("srle-study", help="run-count versus element-count resolution sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mapper", choices=["grid", "octree"])
    p.set_defaults(func=cmd_srle_study)

    p = sub.add_parser("oracle-check", help="randomized equivalence suites with replay")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for failing-instance files")
    p.add_argument("--replay", help="re-run one serialized failing instance")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("map", help="inspect or convert saved maps")
    msub = p.add_subparsers(dest="map_command", required=True)
    pi = msub.add_parser("inspect", help="print header and summary statistics")
    pi.add_argument("--map", required=True)
    pi.set_defaults(func=cmd_map_inspect)
    pc = msub.add_parser("convert", help="grid <-> octree at the stored resolution")
    pc.add_argument("--map", required=True)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_map_convert)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("SSMI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path given on the command line: missing, a directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SsmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        log.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
