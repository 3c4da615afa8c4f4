"""Whole episode outputs stay byte-identical to the pinned digests.

The digests and the command that regenerates them live in
``tests/episode_digests.py``; a mismatch names the config, the mapper and
selector, the seed and each file that differs.
"""

import pytest

import episode_digests as pins

PINNED = pins.load()


def test_every_pinned_run_is_run():
    assert sorted(PINNED) == sorted(pins.run_id(*run) for run in pins.runs())


@pytest.mark.parametrize("run", pins.runs(), ids=[pins.run_id(*run) for run in pins.runs()])
def test_episode_outputs_match_their_pinned_digests(run, tmp_path):
    config, mapper, selector, seed = run
    got = pins.episode_digests(config, mapper, selector, seed, tmp_path)
    want = PINNED[pins.run_id(*run)]
    differ = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not differ, (
        f"config {config}, mapper {mapper}, selector {selector}, seed {seed}: "
        f"{', '.join(differ)} differ from {pins.DIGESTS_PATH.name}"
    )
