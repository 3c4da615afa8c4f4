"""sha256 digests of whole exploration episodes, pinned in
``tests/data/episode_digests.json`` and checked by ``test_episode_digests.py``.

Each pinned run is one ``ssmi explore`` episode, run in-process through the
CLI: a config, a mapper, a selector and a seed. Its digests cover
``metrics.csv``, ``plans.txt``, ``summary.json``, ``env_truth.ssmigrid`` and
the final map. The runs are A7 worlds 0-9 for every mapper x selector pair,
plus the CI configs with five classes and with 0.3 m cells.

A change that is meant to alter episode outputs regenerates the file, and
commits it with the A7 table that shows the new outputs are right:

    PYTHONPATH=src python tests/episode_digests.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import yaml

from ssmi import cli

DIGESTS_PATH = Path(__file__).parent / "data" / "episode_digests.json"


def _a7(**env) -> dict:
    """The A7 acceptance config, with ``env`` fields changed."""
    return {
        "env": {"profile": "random", "dims": [32, 32], "num_classes": 3, **env},
        "sensor": {"num_beams": 48, "r_max": 10.0, "range_sigma": 0.1, "misclass_prob": 0.35},
        "planner": {"num_beams": 16, "beam_range": 10.0, "stride": 3},
        "run": {"max_steps": 60, "explored_stop": 0.9},
    }


# the A7 config and the two CI variants of it
CONFIGS = {"a7": _a7(), "a7_k5": _a7(num_classes=5), "a7_fine": _a7(resolution=0.3)}

MAPPERS = ("grid", "octree")
SELECTORS = ("ssmi", "frontier", "fsmi-binary")
A7_WORLDS = range(10)

FILES = ("metrics.csv", "plans.txt", "summary.json", "env_truth.ssmigrid")


def runs() -> list[tuple[str, str, str, int]]:
    """Every pinned ``(config, mapper, selector, seed)``."""
    out = [
        ("a7", mapper, selector, world)
        for mapper in MAPPERS
        for selector in SELECTORS
        for world in A7_WORLDS
    ]
    out.append(("a7_k5", "octree", "ssmi", 4))
    out += [("a7_fine", mapper, "ssmi", 0) for mapper in MAPPERS]
    return out


def run_id(config: str, mapper: str, selector: str, seed: int) -> str:
    return f"{config}-{mapper}-{selector}-seed{seed}"


def episode_digests(config: str, mapper: str, selector: str, seed: int, work: Path) -> dict[str, str]:
    """Run one pinned episode under ``work``; the sha256 of each output file by name."""
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / f"{config}.yaml"
    cfg_path.write_text(yaml.safe_dump(CONFIGS[config]))
    out = work / run_id(config, mapper, selector, seed)
    argv = ["explore", "--config", str(cfg_path), "--out", str(out), "--seed", str(seed),
            "--mapper", mapper, "--selector", selector]
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ssmi {' '.join(argv)} exited {code}")
    names = FILES + ("final_map.ssmioct" if mapper == "octree" else "final_map.ssmigrid",)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def load() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the digests to {DIGESTS_PATH.name} (default: print them)")
    args = parser.parse_args(argv)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in runs():
            digests[run_id(*run)] = episode_digests(*run, Path(tmp))
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if args.write:
        DIGESTS_PATH.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
