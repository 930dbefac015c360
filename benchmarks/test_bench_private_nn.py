"""E6 (Figure 5b): private NN queries + ablation A2 (filter vs Voronoi).

Times all three candidate generators and regenerates the E6 tightness
table.  The 400-POI fixture hands the dominance filter about ten
candidates; the 10 000-POI one hands it hundreds, the regime where a
filter that compared every pair was most of a query.
"""

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyRequirement
from repro.evalx.experiments import run_e6_private_nn
from repro.evalx.workloads import build_workload, loaded_cloaker, poi_store
from repro.geometry.rect import Rect
from repro.queries.private_knn import private_knn_query
from repro.queries.private_nn import private_nn_query


@pytest.fixture(scope="module")
def setup():
    workload = build_workload(n_users=2000, n_pois=400, seed=7)
    store = poi_store(workload)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    region = cloaker.cloak(0, PrivacyRequirement(k=20)).region
    return store, region


@pytest.mark.parametrize("method", ["range", "filter", "exact"])
def test_e6_candidates(benchmark, setup, method):
    store, region = setup
    result = benchmark(private_nn_query, store, region, method)
    assert result.candidates


@pytest.fixture(scope="module")
def setup_10k():
    """The world and POI density of ``bench/workloads.py``'s 10k workloads."""
    workload = build_workload(
        n_users=2000, n_pois=10_000, seed=7, bounds=Rect(0.0, 0.0, 1000.0, 1000.0)
    )
    store = poi_store(workload)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    region = cloaker.cloak(2, PrivacyRequirement(k=20)).region
    return store, region


def test_filter_over_hundreds_of_candidates_nn(benchmark, setup_10k):
    store, region = setup_10k
    assert len(private_nn_query(store, region, "range").candidates) >= 200
    result = benchmark(private_nn_query, store, region, "filter")
    assert result.candidates


def test_filter_over_hundreds_of_candidates_knn(benchmark, setup_10k):
    store, region = setup_10k
    assert len(private_knn_query(store, region, 8, "range").candidates) >= 200
    result = benchmark(private_knn_query, store, region, 8, "filter")
    assert len(result.candidates) >= 8


def test_e6_table(benchmark, record_table):
    table = benchmark.pedantic(run_e6_private_nn, rounds=1, iterations=1)
    record_table("E6_private_nn", table)
