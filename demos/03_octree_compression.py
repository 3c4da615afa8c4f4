"""Adaptive resolution: the octree stores what the grid stores, in less.

The same beams go into a dense 32^3 grid and a depth-5 octree. Because both
use identical cell arithmetic, every octree element matches its grid cell
exactly, while pruning merges saturated regions into large leaves. Ray casts
then meet a handful of homogeneous runs (Q) instead of one entry per element
(N), which is what makes information evaluation cheap on the tree.
"""

import numpy as np

from ssmi.grid import BeamMeasurement, GridMap
from ssmi.logodds import SensorParams
from ssmi.octree import SemanticOctree, grid_from_octree

params = SensorParams.default(3)
rng = np.random.default_rng(3)

gmap = GridMap((32, 32, 32), 1.0, 3)
tree = SemanticOctree(1.0, 5, 3)

beams = []
for _ in range(150):
    origin = rng.uniform(2, 30, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    r = float(rng.uniform(1, 20)) if rng.random() < 0.8 else 20.0
    cat = int(rng.integers(1, 4)) if r < 20.0 else None
    beams.append(BeamMeasurement(origin, d, r, cat, 20.0))

for beam in beams:
    gmap.integrate(beam, params)
tree.insert_scan(beams, params)

mismatch = np.count_nonzero((grid_from_octree(tree).cells != gmap.cells).any(axis=-1))
print(f"elements disagreeing with the grid: {mismatch} of {32 ** 3}")
print(f"grid stores {32 ** 3} cells; octree stores {tree.num_leaves()} leaves")
print(f"map entropy: grid {gmap.map_state()[0]:.1f}  octree {tree.map_state()[0]:.1f} nats")

print("\n== run-length ray casts ==")
for _ in range(5):
    beam = beams[int(rng.integers(len(beams)))]
    ray = tree.raycast_srle(beam)
    print(
        f"ray of {ray.num_elements:3d} elements -> {ray.num_runs} runs, "
        f"widths {[int(w) for w in ray.widths]}"
    )
