#!/usr/bin/env python3
"""See the cloaking algorithms (ASCII art, no plotting stack needed).

Renders the same victim's cloaked region under four algorithms over the
population density map.  The naive square is visibly centred on the victim
(X); the pyramid cell is not.

Run with:  python examples/visual_comparison.py
"""

import numpy as np

from repro.cloaking import MBRCloaker, NaiveCloaker, PyramidCloaker, QuadtreeCloaker
from repro.core.profiles import PrivacyRequirement
from repro.evalx.ascii_viz import render_cloak_comparison
from repro.geometry import Rect
from repro.mobility import clustered_population


def main() -> None:
    rng = np.random.default_rng(4)
    bounds = Rect(0, 0, 100, 100)
    points = clustered_population(bounds, 1200, rng)
    requirement = PrivacyRequirement(k=25)

    regions = []
    victim_point = None
    for cls in (NaiveCloaker, MBRCloaker, QuadtreeCloaker, PyramidCloaker):
        cloaker = cls(bounds) if cls is not PyramidCloaker else cls(bounds, height=6)
        for i, p in enumerate(points):
            cloaker.add_user(i, p)
        victim = 10
        victim_point = points[victim]
        result = cloaker.cloak(victim, requirement)
        regions.append((f"--- {cloaker.name} (area {result.area:.0f}) ---", result.region))

    print("Population density; X = victim, box = her cloaked region (k=25)\n")
    print(render_cloak_comparison(points, victim_point, regions, bounds))


if __name__ == "__main__":
    main()
