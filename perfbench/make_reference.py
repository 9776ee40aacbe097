"""Regenerate the stored sigma = 2, delta = 1 decay curve of the analysis workload.

Usage: PYTHONPATH=src:. python3 -m perfbench.make_reference

The curve is ||u(t)||_{L2(R^3)} for d_t^2 u + (-Lap) d_t u + (-Lap)^2 u = 0
with unit-width gaussian data, at 40 log-spaced times in [1e2, 1e4],
computed at qtol = 1e-10, a hundred times tighter than the benchmark's
own call, which must agree with it to 1e-6 relative.
"""

import json

import numpy as np

from critevo.decay import RadialProfile, l2_decay_curve
from critevo.operators import sigma_evolution
from perfbench.workload import REFERENCE


def main() -> None:
    times = np.geomspace(1e2, 1e4, 40)
    values = l2_decay_curve(sigma_evolution(3, 2, 1), RadialProfile(width=1.0), times,
                            layer=0, qtol=1e-10)
    REFERENCE.write_text(json.dumps({
        "operator": "sigma_evolution(n=3, sigma=2, delta=1)", "profile_width": 1.0,
        "layer": 0, "qtol": 1e-10, "times": times.tolist(), "values": values.tolist(),
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
