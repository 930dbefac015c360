#!/usr/bin/env python3
"""Quickstart: the full privacy-aware LBS pipeline in ~60 lines.

Builds the paper's Figure 1 architecture — mobile users, the Location
Anonymizer, and the privacy-aware database server — then runs one of each
novel query type:

* a private query over public data ("what's near me?", Figure 5), and
* a public query over private data ("how many users are downtown?",
  Figure 6).

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CountSpec,
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
)
from repro.geometry import Point, Rect


def main() -> None:
    rng = np.random.default_rng(7)
    bounds = Rect(0, 0, 100, 100)  # a 100x100 city

    # The system wires anonymizer + server; the pyramid cloaker is the
    # paper's proposed multi-level-grid optimisation.
    system = PrivacySystem(bounds, PyramidCloaker(bounds, height=6))

    # Public data: 40 gas stations at known, unprotected locations.
    for j in range(40):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"gas-{j}", Point(float(x), float(y)))

    # Private data: 500 mobile users, each demanding 10-anonymity.
    for i in range(500):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(f"user-{i}", Point(float(x), float(y)),
                       PrivacyProfile.always(k=10))
        )
    system.publish_all()  # anonymizer pushes cloaked regions to the server

    # --- Private range query over public data (Figure 5a) -------------
    # Queries are declarative specs; the cost-based planner picks the
    # index backend and execution route for each one.
    outcome, stations = system.query(
        RangeSpec(flavor="private", user="user-42", radius=15.0)
    )
    print("Private range query (gas stations within 15 units):")
    print(f"  cloaked region area : {outcome.cloak_area:8.2f}")
    print(f"  candidates shipped  : {outcome.candidates}")
    print(f"  true answer size    : {outcome.answer_size}")
    print(f"  refined == truth    : {outcome.correct}")
    print(f"  stations            : {sorted(stations)[:5]} ...")

    # --- Private NN query over public data (Figure 5b) ----------------
    nn_outcome, nearest = system.query(NNSpec(flavor="private", user="user-42"))
    print("\nPrivate nearest-neighbour query:")
    print(f"  candidates shipped  : {nn_outcome.candidates}")
    print(f"  nearest station     : {nearest}")
    print(f"  refined == truth    : {nn_outcome.correct}")

    # --- Public count query over private data (Figure 6a) -------------
    downtown = Rect(30, 30, 70, 70)
    answer = system.query(CountSpec(window=downtown))
    truth = sum(
        1 for u in system.users.values() if downtown.contains_point(u.location)
    )
    print("\nPublic count query (users downtown), all three answer formats:")
    print(f"  absolute value      : {answer.expected:.2f}   (truth: {truth})")
    print(f"  interval            : {answer.interval}")
    print(f"  P(count == truth)   : {answer.probability_of_count(truth):.4f}")
    # The baseline the paper criticises: every overlapping region counts as 1.
    print(f"  naive overlap count : {len(answer.probabilities)}")

    # --- Public NN query over private data (Figure 6b) ----------------
    result = system.query(
        NNSpec(dataset="private", point=Point(50, 50), samples=4096, seed=7)
    )
    top, prob = result.answer.ranked()[0]
    print("\nPublic NN query (nearest user to the mall at (50, 50)):")
    print(f"  candidate users     : {len(result.candidates)}")
    print(f"  most probable       : {top}  (P = {prob:.2f})")
    print(f"  answer entropy      : {result.answer.entropy():.2f} bits")


if __name__ == "__main__":
    main()
