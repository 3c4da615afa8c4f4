"""Command line contract: exit codes, artifacts, reproducibility."""

import json
import math
import time

import numpy as np
import pytest
import yaml

from ssmi import check
from ssmi.cli import main
from ssmi.errors import CorruptMap
from ssmi import logodds as lo
from ssmi.grid import BeamMeasurement, GridMap, load_grid, save_grid
from ssmi.logodds import SensorParams
from ssmi.mi import beam_mi_dense, collapse_to_binary
from ssmi.octree import SemanticOctree, load_octree, save_octree
from conftest import cast_fan, fan_beams


SMOKE = {
    "seed": 9,
    "env": {"profile": "random", "dims": [16, 16], "num_classes": 2},
    "sensor": {"num_beams": 16, "r_max": 6.0, "range_sigma": 0.05, "misclass_prob": 0.2},
    "planner": {"num_beams": 8, "beam_range": 6.0},
    "run": {"max_steps": 2},
}


def write_config(tmp_path, data=SMOKE, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_missing_config_exit_2(tmp_path, capsys):
    code = main(["explore", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert code == 2
    assert "nope.yaml" in capsys.readouterr().err


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("env: {profile: warp-drive}")
    code = main(["explore", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_removed_fusion_key_exit_2(tmp_path, capsys):
    cfg = dict(SMOKE, mapper={"type": "octree", "fusion": "fold"})
    code = main(["explore", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "fusion" in capsys.readouterr().err


def test_bad_seed_list_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["explore", "--config", write_config(tmp_path), "--out", str(out),
                 "--seed", "1,x"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'x'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_explore_smoke(tmp_path, capsys):
    t0 = time.monotonic()
    out = tmp_path / "run"
    code = main(["explore", "--config", write_config(tmp_path), "--out", str(out)])
    assert code == 0
    assert time.monotonic() - t0 < 10.0
    text = capsys.readouterr().out
    assert text.startswith("resolved config:")
    metrics = (out / "metrics.csv").read_text()
    assert metrics.startswith("# config-hash: ")
    assert len(metrics.splitlines()) > 3  # comments, header, and data rows
    assert (out / "final_map.ssmigrid").exists()
    assert (out / "env_truth.ssmigrid").exists()
    assert (out / "plans.txt").exists()
    assert (out / "timings.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] >= 1


# the A7 acceptance config with five classes: in world 4 the information
# selector plans through a cell that the map holds as free but that is truly
# occupied, so the robot has to stop short of it
A7_K5 = {
    "env": {"profile": "random", "dims": [32, 32], "num_classes": 5},
    "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
    "planner": {"num_beams": 16, "beam_range": 10.0, "stride": 3},
    "run": {"max_steps": 60, "explored_stop": 0.9},
}


@pytest.mark.parametrize("mapper", ["grid", "octree"])
def test_explore_stops_before_truly_occupied_waypoint(tmp_path, mapper):
    out = tmp_path / "run"
    code = main(["explore", "--config", write_config(tmp_path, A7_K5), "--out", str(out),
                 "--seed", "4", "--mapper", mapper])
    assert code == 0
    assert len((out / "metrics.csv").read_text().splitlines()) > 3


def test_explore_deterministic_metrics(tmp_path):
    cfg = write_config(tmp_path)
    main(["explore", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["explore", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()


def test_selector_ab_same_env_hash(tmp_path):
    cfg = write_config(tmp_path)
    main(["explore", "--config", cfg, "--out", str(tmp_path / "ssmi"), "--selector", "ssmi"])
    main(["explore", "--config", cfg, "--out", str(tmp_path / "fr"), "--selector", "frontier"])
    a = (tmp_path / "ssmi/metrics.csv").read_text().splitlines()
    b = (tmp_path / "fr/metrics.csv").read_text().splitlines()
    env_a = [l for l in a if l.startswith("# env-hash")]
    env_b = [l for l in b if l.startswith("# env-hash")]
    assert env_a == env_b
    assert a != b  # different selector, different run


def test_oracle_check_ok(capsys):
    code = main(["oracle-check", "--trials", "50", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dense-vs-oracle" in out and "srle-vs-dense" in out
    assert "max rel err" in out


def test_oracle_check_zero_trials_usage_error():
    assert main(["oracle-check", "--trials", "0"]) == 2


def test_oracle_check_replay(tmp_path, capsys):
    rng = np.random.default_rng(1)
    h_t, h_0, params = check.sample_dense_instance(rng)
    inst = tmp_path / "instance.json"
    inst.write_text(check.instance_to_json("dense", check._dense_payload(h_t, h_0), params))
    code = main(["oracle-check", "--replay", str(inst)])
    assert code == 0
    assert "replayed dense instance" in capsys.readouterr().out


def test_mi_surface_empty_map_interior_uniform(tmp_path):
    gmap = GridMap((14, 14), 1.0, 2)
    map_path = tmp_path / "empty.ssmigrid"
    save_grid(gmap, map_path)
    out = tmp_path / "surface.csv"
    code = main([
        "mi-surface", "--map", str(map_path), "--out", str(out),
        "--beams", "8", "--r-max", "3.0",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config-hash:")
    grid = np.array([[float(v) for v in row.split(",")] for row in lines[2:]])
    interior = grid[4:10, 4:10]
    assert np.ptp(interior) < 1e-9


def test_mi_surface_prints_the_default_range_it_uses(tmp_path, capsys):
    """Without ``--r-max`` the range is the map's larger planar extent in
    meters; the printed config names it, and the surface is the one that
    range gives when passed explicitly."""
    map_path = tmp_path / "m.ssmigrid"
    save_grid(GridMap((14, 10), 0.5, 2), map_path)
    surfaces = []
    for extra in ([], ["--r-max", "7.0"]):
        out = tmp_path / f"s{len(surfaces)}.csv"
        assert main(["mi-surface", "--map", str(map_path), "--out", str(out),
                     "--beams", "4", *extra]) == 0
        assert "\n  r_max: 7.0\n" in capsys.readouterr().out
        surfaces.append(out.read_text())
    assert surfaces[0] == surfaces[1]


def read_surface(path):
    """(nx, ny) array from a surface CSV: the hash line, the header, then
    one row per y."""
    rows = path.read_text().splitlines()[2:]
    return np.array([[float(v) for v in row.split(",")] for row in rows]).T


def binary_surface_reference(gmap, num_beams, max_range):
    """Per-beam occupancy-only fan sums at the free-labeled cells, each beam's
    cells and prior collapsed on their own."""
    params = SensorParams.default(1)
    labels = gmap.most_likely()[:, :, 0]
    out = np.zeros(gmap.dims[:2])
    for i, j in zip(*np.nonzero(labels == 0)):
        total = 0.0
        for beam in fan_beams(gmap.cell_center((i, j, 0)), num_beams, max_range):
            cells = gmap.cast_ray(beam).cells[1:]
            if cells.shape[0]:
                h_t = gmap.cells[tuple(cells.T)]
                h_0 = np.broadcast_to(gmap.prior, h_t.shape)
                total += beam_mi_dense(collapse_to_binary(h_t), collapse_to_binary(h_0),
                                       params).value
        out[i, j] = total
    return out


def test_mi_surface_binary_on_grid_and_its_octree(tmp_path, capsys, rng):
    gmap = GridMap((8, 8), 1.0, 3)
    gmap.cells[...] = np.array([0.0, -6.0, -6.0, -6.0])
    gmap.observed[:] = True
    for _ in range(10):
        cell = (int(rng.integers(8)), int(rng.integers(8)), 0)
        gmap.set_cell(cell, lo.logodds_from_pmf(rng.dirichlet(np.ones(4))))
    grid_path, tree_path = tmp_path / "m.ssmigrid", tmp_path / "m.ssmioct"
    save_grid(gmap, grid_path)
    assert main(["map", "convert", "--map", str(grid_path), "--out", str(tree_path)]) == 0
    want = binary_surface_reference(load_grid(grid_path), 8, 5.0)
    assert 0 < np.count_nonzero(want) < 64
    for path in (grid_path, tree_path):
        out = tmp_path / f"{path.suffix[1:]}.csv"
        code = main(["mi-surface", "--map", str(path), "--out", str(out), "--binary",
                     "--beams", "8", "--r-max", "5.0"])
        assert code == 0
        np.testing.assert_array_equal(read_surface(out), want)
    assert "binary: True" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["mi-eval", "--x", "4.5", "--y", "4.5"], ["mi-surface", "--out", "s.csv"]])
@pytest.mark.parametrize("r_max", ["-1", "0", "nan", "inf"])
def test_r_max_must_be_positive_and_finite_exit_2(tmp_path, capsys, caplog, command, r_max):
    path = tmp_path / "g.ssmigrid"
    save_grid(GridMap((8, 8), 1.0, 2), path)
    assert main([command[0], "--map", str(path), *command[1:], "--r-max", r_max]) == 2
    err = capsys.readouterr().err
    assert "--r-max" in err and "positive and finite" in err
    assert not caplog.records


@pytest.mark.parametrize("heading", ["nan", "inf", "-inf"])
def test_mi_eval_heading_must_be_finite_exit_2(tmp_path, capsys, caplog, heading):
    path = tmp_path / "g.ssmigrid"
    save_grid(GridMap((8, 8), 1.0, 2), path)
    assert main(["mi-eval", "--map", str(path), "--x", "4.5", "--y", "4.5",
                 f"--heading={heading}"]) == 2
    err = capsys.readouterr().err
    assert "--heading" in err and "must be finite" in err
    assert not caplog.records


@pytest.mark.parametrize("flag,value", [
    ("--x", "nan"), ("--y", "inf"), ("--z", "-inf"), ("--z", "nan"),
])
def test_mi_eval_pose_must_be_finite_exit_2(tmp_path, capsys, caplog, flag, value):
    """A non-finite pose is a bad argument (exit 2), not a beam origin
    outside the map (``OriginOutOfBounds``, exit 3)."""
    path = tmp_path / "g.ssmigrid"
    save_grid(GridMap((8, 8), 1.0, 2), path)
    pose = {"--x": "4.5", "--y": "4.5", "--z": "0.5", flag: value}
    assert main(["mi-eval", "--map", str(path)] + [f"{k}={v}" for k, v in pose.items()]) == 2
    err = capsys.readouterr().err
    assert flag in err and "must be finite" in err
    assert not caplog.records


def test_map_path_that_is_a_directory_exit_2(tmp_path, capsys, caplog):
    assert main(["map", "inspect", "--map", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert len(err.splitlines()) == 1
    assert not caplog.records  # no traceback from the last-resort handler


@pytest.mark.parametrize("section,key,value", [
    ("sensor", "r_max", -1.0),
    ("sensor", "r_max", math.nan),
    ("planner", "beam_range", -3.0),
    ("env", "resolution", 0.0),
    ("mapper", "clamp_limit", -1.0),
    ("sensor", "range_sigma", -1.0),
    ("planner", "num_beams", 0),
    ("planner", "num_beams", -3),
    ("planner", "stride", 0),
    ("planner", "stride", -2),
    ("planner", "fov", 0.0),
    ("planner", "fov", -1.0),
    ("planner", "fov", math.inf),
    ("planner", "fov", math.nan),
    # well formed, but deeper than the one-cell-deep world: the episode
    # rejects it before its first scan
    ("planner", "band", [0, 5]),
    ("planner", "band", [3, 1]),
    ("planner", "band", [-1, 1]),
    ("planner", "band", [0]),
    ("planner", "band", [0.0, 1.0]),
    ("planner", "band", 1),
    ("sweep", "resolutions", [0.0]),
    ("sweep", "resolutions", [1.0, -2.0]),
    ("sweep", "resolutions", [math.nan]),
    ("sweep", "iterations", 0),
    ("sweep", "beams", 0),
    # an int in 1..255; 40000 would otherwise allocate an 11.9 GiB model stack
    ("env", "num_classes", 0),
    ("env", "num_classes", -2),
    ("env", "num_classes", 2.5),
    ("env", "num_classes", True),
    ("env", "num_classes", 256),
    ("env", "num_classes", 40000),
    # a NaN field of view makes every beam direction NaN
    ("sensor", "fov_deg", math.nan),
    ("sensor", "fov_deg", math.inf),
    ("sensor", "fov_deg", 0.0),
    ("sensor", "fov_deg", -90.0),
])
def test_config_value_out_of_range_exit_2(tmp_path, capsys, caplog, section, key, value):
    cfg = {**SMOKE, section: {**SMOKE.get(section, {}), key: value}}
    out = tmp_path / "run"
    code = main(["explore", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{section}.{key}" in err
    assert len(err.splitlines()) == 1
    assert not caplog.records
    assert not out.exists()


def test_grid_file_with_nan_cell_exit_3(tmp_path, capsys, caplog):
    gmap = GridMap((8, 8), 1.0, 2)
    gmap.set_cell((5, 4, 0), np.array([0.0, math.nan, 1.0]))
    path = tmp_path / "g.ssmigrid"
    save_grid(gmap, path)
    for command in (["map", "inspect", "--map", str(path)],
                    ["mi-eval", "--map", str(path), "--x", "4.5", "--y", "4.5"]):
        assert main(command) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert len(err.splitlines()) == 1
    assert not caplog.records


@pytest.mark.parametrize("kind,num_classes", [("grid", 256), ("grid", 65535), ("octree", 256)])
def test_map_file_with_too_many_classes_exit_3(tmp_path, capsys, caplog, kind, num_classes):
    # a one-cell grid file with K = 65535 is half a megabyte, but the
    # (K+1)^2 float64 model stack a command builds for it would be 32 GiB
    if kind == "grid":
        path, load = tmp_path / "m.ssmigrid", load_grid
        save_grid(GridMap((1, 1, 1), 1.0, num_classes), path)
    else:
        path, load = tmp_path / "m.ssmioct", load_octree
        save_octree(SemanticOctree(1.0, 1, num_classes), path)
    with pytest.raises(CorruptMap, match=rf"{num_classes} classes \(at most 255\)"):
        load(path)
    assert main(["map", "inspect", "--map", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{num_classes} classes (at most 255)" in err
    assert len(err.splitlines()) == 1
    assert not caplog.records


@pytest.mark.parametrize("origin", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                    (0.0, 0.0, -math.inf)])
def test_grid_file_with_non_finite_origin_exit_3(tmp_path, capsys, caplog, origin):
    path = tmp_path / "g.ssmigrid"
    save_grid(GridMap((4, 4), 1.0, 2, origin=origin), path)
    with pytest.raises(CorruptMap, match="origin .* is not finite"):
        load_grid(path)
    assert main(["map", "inspect", "--map", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not finite" in err
    assert len(err.splitlines()) == 1
    assert not caplog.records


def test_mi_eval_prints_value(tmp_path, capsys):
    gmap = GridMap((12, 12), 1.0, 2)
    map_path = tmp_path / "m.ssmigrid"
    save_grid(gmap, map_path)
    dump = tmp_path / "terms.csv"
    code = main([
        "mi-eval", "--map", str(map_path), "--x", "6.5", "--y", "6.5",
        "--beams", "8", "--r-max", "4.0", "--out", str(dump),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mutual information:" in out
    header = dump.read_text().splitlines()[0]
    assert header == "beam,n,k,p,c,term"


def _scanned_grid(params3, rng):
    """A K=3 16x16 map with walls of every class seen from three poses."""
    from ssmi.sim import generate_env, sense, SensorSpec

    env = generate_env(5, "random", (16, 16), 3)
    gmap = GridMap(env.dims, 1.0, 3)
    spec = SensorSpec(num_beams=36, fov=2 * np.pi, r_max=8.0, range_sigma=0.1,
                      misclass_prob=0.3)
    for cell in env.spawns[::max(1, len(env.spawns) // 3)][:3]:
        pose = (np.asarray(cell, dtype=float) + 0.5) * env.resolution
        for beam in sense(env, pose, 0.0, spec, rng):
            gmap.integrate(beam, params3)
    return gmap, env


def _dump_rows_reference(mapper, fan, params):
    """The per-term dump of ``mi-eval`` rebuilt from the single-beam
    functions: kept beams in order, cells past the sensor cell, beams
    without any skipped."""
    from ssmi import mi

    tree = isinstance(mapper, SemanticOctree)
    traces = [mapper.cast_ray(b) for b in fan]
    keep = mi.select_nonoverlapping(cast_fan(mapper, fan))
    rows = []
    for idx in keep:
        if tree:
            ray = mapper.encode_trace(traces[idx].cells[1:])
            if ray is None:
                continue
            res = mi.beam_mi_srle(ray, params)
        else:
            cells = traces[idx].cells[1:]
            if cells.shape[0] == 0:
                continue
            h_t = mapper.cells[tuple(cells.T)]
            res = mi.beam_mi_dense(h_t, np.broadcast_to(mapper.prior, h_t.shape), params)
        for r, c in np.ndindex(res.terms.shape):
            rows.append(f"{idx},{r + 1},{c + 1},{float(res.p_detail[r, c])!r},"
                        f"{float(res.c_detail[r, c])!r},{float(res.terms[r, c])!r}")
    return len(traces), len(keep), rows


def test_mi_eval_matches_trajectory_mi_on_grid_and_octree(tmp_path, capsys, params3, rng):
    """``mi-eval`` on a saved non-trivial K=3 grid and on its octree: the
    printed value is ``trajectories_mi`` of the reference cast of the fan on
    the loaded map, the counts and the dump follow the single-beam functions
    row by row."""
    from ssmi import mi
    from ssmi.grid import load_grid
    from ssmi.octree import octree_from_grid

    gmap, env = _scanned_grid(params3, rng)
    grid_path = tmp_path / "m.ssmigrid"
    tree_path = tmp_path / "m.ssmioct"
    save_grid(gmap, grid_path)
    save_octree(octree_from_grid(gmap), tree_path)
    x, y = (np.asarray(env.spawns[len(env.spawns) // 2][:2], dtype=float) + 0.5).tolist()
    for path, loader, kind in ((grid_path, load_grid, "n"), (tree_path, load_octree, "q")):
        dump = tmp_path / f"terms-{kind}.csv"
        code = main(["mi-eval", "--map", str(path), "--x", repr(x), "--y", repr(y),
                     "--heading", "0.4", "--beams", "20", "--r-max", "9.0",
                     "--out", str(dump)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        mapper = loader(path)
        fan = fan_beams(np.array([x, y, 0.5]), 20, 9.0, heading=0.4)
        value = mi.trajectories_mi(mapper, [cast_fan(mapper, fan)], [[0]],
                                   params3).trajectories[0].value
        total, kept, rows = _dump_rows_reference(mapper, fan, params3)
        assert 1 < kept < total and value > 0.0
        assert f"beams: {total} kept: {kept}" in out
        assert f"mutual information: {value!r} nats" in out
        lines = dump.read_text().splitlines()
        assert lines[0] == f"beam,{kind},k,p,c,term"
        assert lines[1:] == rows and len(rows) > 3 * kept


def test_mi_eval_on_saved_octree_equals_in_memory_tree(tmp_path, capsys, a7_octree_tree):
    """The octree file is lossless, so ``mi-eval`` on the saved A7 episode
    tree prints the in-memory tree's ``trajectories_mi`` digit for digit."""
    from ssmi import mi
    from ssmi.logodds import SensorParams

    path = tmp_path / "a7.ssmioct"
    save_octree(a7_octree_tree, path)
    params = SensorParams.default(a7_octree_tree.num_classes)
    for x, y in ((8.5, 8.5), (8.5, 24.5), (24.5, 8.5), (24.5, 24.5)):
        assert main(["mi-eval", "--map", str(path), "--x", repr(x), "--y", repr(y),
                     "--heading", "0.3", "--beams", "16", "--r-max", "10.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        fan = cast_fan(a7_octree_tree, fan_beams(np.array([x, y, 0.5]), 16, 10.0, heading=0.3))
        value = mi.trajectories_mi(a7_octree_tree, [fan], [[0]], params).trajectories[0].value
        assert value > 0.0
        assert f"mutual information: {value!r} nats" in out


def test_map_inspect_and_convert_roundtrip(tmp_path, capsys, params3, rng):
    gmap = GridMap((8, 8, 8), 1.0, 3)
    from ssmi.grid import BeamMeasurement

    for _ in range(10):
        origin = rng.uniform(1, 7, 3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        gmap.integrate(BeamMeasurement(origin, d, 5.0, 1, 6.0), params3)
    grid_path = tmp_path / "m.ssmigrid"
    save_grid(gmap, grid_path)

    assert main(["map", "inspect", "--map", str(grid_path)]) == 0
    out = capsys.readouterr().out
    assert "type: grid" in out and "dims: (8, 8, 8)" in out

    oct_path = tmp_path / "m.ssmioct"
    assert main(["map", "convert", "--map", str(grid_path), "--out", str(oct_path)]) == 0
    tree = load_octree(oct_path)
    assert tree.num_leaves() >= 1
    assert main(["map", "inspect", "--map", str(oct_path)]) == 0
    assert "type: octree" in capsys.readouterr().out

    back_path = tmp_path / "back.ssmigrid"
    assert main(["map", "convert", "--map", str(oct_path), "--out", str(back_path)]) == 0
    from ssmi.grid import load_grid

    back = load_grid(back_path)
    # the grid file stores f32
    np.testing.assert_allclose(back.cells, gmap.cells, atol=1e-5)


def test_srle_study_cli(tmp_path, capsys):
    cfg = {
        "seed": 2,
        "env": {"profile": "corridor", "dims": [16, 16, 16], "num_classes": 2},
        "mapper": {"type": "octree"},
        "sweep": {"resolutions": [1.0, 2.0], "iterations": 2, "beams": 4},
    }
    out = tmp_path / "study"
    code = main(["srle-study", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    rows = (out / "srle_study.csv").read_text().splitlines()
    assert rows[1] == "resolution_per_m,mean_q,std_q,mean_n,std_n,episode_seconds"
    assert len(rows) == 4


def test_srle_study_requires_octree_mapper(tmp_path):
    cfg = {
        "seed": 2,
        "env": {"profile": "corridor", "dims": [16, 16, 16], "num_classes": 2},
        "mapper": {"type": "grid"},
    }
    code = main(["srle-study", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2


def test_unknown_map_file_exit_3(tmp_path, capsys):
    bogus = tmp_path / "x.bin"
    bogus.write_bytes(b"GARBAGE!" * 4)
    assert main(["map", "inspect", "--map", str(bogus)]) == 3


def test_truncated_octree_file_exit_3(tmp_path, capsys, caplog, params3, rng):
    tree = SemanticOctree(1.0, 3, 3)
    origin = np.array([4.0, 4.0, 4.0])
    for _ in range(5):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        tree.insert_scan([BeamMeasurement(origin, d, 3.0, 2, 6.0)], params3)
    path = tmp_path / "t.ssmioct"
    save_octree(tree, path)
    path.write_bytes(path.read_bytes()[:-7])
    assert main(["map", "inspect", "--map", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err
    assert len(err.splitlines()) == 1
    assert not caplog.records  # no traceback from the last-resort handler


def test_octree_file_with_zero_element_size_exit_3(tmp_path, capsys, caplog):
    path = tmp_path / "t.ssmioct"
    save_octree(SemanticOctree(1.0, 3, 3), path)
    good = path.read_bytes()
    path.write_bytes(good[:8] + bytes(8) + good[16:])
    assert main(["mi-eval", "--map", str(path), "--x", "4.5", "--y", "4.5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "element size 0.0 is not positive" in err
    assert len(err.splitlines()) == 1
    assert not caplog.records  # no traceback from the last-resort handler


def test_malformed_grid_file_exit_3(tmp_path, capsys, caplog):
    gmap = GridMap((6, 5), 1.0, 2)
    gmap.set_cell((2, 3, 0), np.array([0.0, 1.5, -0.5]))
    path = tmp_path / "g.ssmigrid"
    save_grid(gmap, path)
    good = path.read_bytes()
    for bad, word in ((good[:-7], "truncated"), (good + b"\0\0", "trailing")):
        path.write_bytes(bad)
        assert main(["map", "inspect", "--map", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err
        assert len(err.splitlines()) == 1
    assert not caplog.records  # no traceback from the last-resort handler


def test_help_exits_clean():
    assert main(["--help"]) == 0
