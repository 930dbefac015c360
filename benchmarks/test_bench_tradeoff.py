"""E9: the central privacy/QoS trade-off, end to end.

Times the complete pipeline a single user query traverses (cloak at the
anonymizer -> candidate generation at the server -> client refinement) and
regenerates the k-sweep trade-off table.
"""

import numpy as np
import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.evalx.experiments import run_e9_by_algorithm, run_e9_tradeoff
from repro.evalx.workloads import build_workload
from repro.geometry.point import Point
from repro.mobility.users import MobileUser
from repro.queries.spec import NNSpec, RangeSpec


@pytest.fixture(scope="module")
def system():
    workload = build_workload(n_users=1500, n_pois=300, seed=7)
    system = PrivacySystem(workload.bounds, PyramidCloaker(workload.bounds, height=6))
    for i, p in enumerate(workload.users):
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=20)))
    for j, p in enumerate(workload.pois):
        system.add_poi(("poi", j), p)
    return system


def test_e9_end_to_end_range_query(benchmark, system):
    outcome, _ = benchmark(
        system.query, RangeSpec(flavor="private", user=0, radius=5.0)
    )
    assert outcome.correct


def test_e9_end_to_end_nn_query(benchmark, system):
    outcome, _ = benchmark(system.query, NNSpec(flavor="private", user=0))
    assert outcome.correct


def test_e9_table(benchmark, record_table):
    def both():
        return run_e9_tradeoff(), run_e9_by_algorithm()

    sweep, by_algorithm = benchmark.pedantic(both, rounds=1, iterations=1)
    record_table("E9_tradeoff", sweep, by_algorithm)
