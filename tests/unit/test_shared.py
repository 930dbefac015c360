"""Unit tests for shared execution (Section 5.3) in the bulk fallback.

``bulk_cloak``'s scalar fallback cloaks once per partition and effective
requirement: users whose ``partition_key`` agrees share one
``cloaker.cloak`` call and one entry in ``outcome.regions``.  Cloakers
with a numpy kernel share per cell inside the kernel instead, so these
tests use cloakers without one (neighbour-merge pyramid, quadtree,
MBR, Hilbert, incremental wrapper).
"""

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.hilbert import HilbertCloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.cloaking.quadtree_cloak import QuadtreeCloaker
from repro.core.profiles import PrivacyRequirement
from repro.engine.cloak import bulk_cloak
from repro.geometry.rect import Rect

BOUNDS = Rect(0, 0, 100, 100)
REQ = PrivacyRequirement(k=10)


def load(cloaker, points):
    for i, p in enumerate(points):
        cloaker.add_user(i, p)
    return cloaker


def merge_pyramid(points):
    return load(PyramidCloaker(BOUNDS, height=4, neighbor_merge=True), points)


def fallback_round(cloaker, requirement=REQ):
    """One fallback round over every registered user."""
    outcome = bulk_cloak(cloaker, [(uid, requirement) for uid in cloaker.users()])
    assert outcome.path == "scalar"
    return outcome


class TestCloakBatch:
    def test_all_requests_answered(self, uniform_points_500):
        cloaker = merge_pyramid(uniform_points_500)
        outcome = bulk_cloak(cloaker, [(i, REQ) for i in range(100)])
        assert set(outcome.results) == set(range(100))

    def test_shared_results_match_individual(self, clustered_points_500):
        batch_cloaker = merge_pyramid(clustered_points_500)
        solo_cloaker = merge_pyramid(clustered_points_500)
        outcome = fallback_round(batch_cloaker)
        for uid in range(500):
            got = outcome.results[uid]
            want = solo_cloaker.cloak(uid, REQ)
            assert got.region == want.region
            assert got.user_count == want.user_count

    def test_sharing_happens_in_dense_population(self, clustered_points_500):
        cloaker = merge_pyramid(clustered_points_500)
        outcome = fallback_round(cloaker)
        assert 0 < len(outcome.regions) < 500
        assert cloaker.stats.cloaks == len(outcome.regions)

    def test_shared_count_lower_than_requests(self, clustered_points_500):
        cloaker = load(QuadtreeCloaker(BOUNDS), clustered_points_500)
        outcome = fallback_round(cloaker)
        assert cloaker.stats.cloaks == len(outcome.regions) < 500

    def test_data_dependent_never_shares(self, clustered_points_500):
        cloaker = load(MBRCloaker(BOUNDS), clustered_points_500)
        outcome = fallback_round(cloaker)
        assert len(outcome.regions) == 500
        assert outcome.region_index.tolist() == list(range(500))
        assert cloaker.stats.cloaks == 500

    def test_incremental_wrapper_never_shares(self, clustered_points_500):
        # A cached region is one user's; each user fills their own cache.
        inner = load(GridCloaker(BOUNDS, cols=16), clustered_points_500)
        cloaker = IncrementalCloaker(inner)
        outcome = fallback_round(cloaker)
        assert inner.stats.cloaks == len(outcome.regions) == 500
        again = fallback_round(cloaker)
        assert again.reused.all()
        assert inner.stats.cloaks == 500

    def test_mixed_requirements_not_shared_across(self, clustered_points_500):
        cloaker = merge_pyramid(clustered_points_500)
        requests = [
            (i, PrivacyRequirement(k=5 if i % 2 else 50)) for i in range(100)
        ]
        outcome = bulk_cloak(cloaker, requests)
        for user_id, requirement in requests:
            assert outcome.results[user_id].user_count >= requirement.k
        region_of = outcome.region_index.tolist()
        odd = {region_of[outcome.row_of[i]] for i in range(1, 100, 2)}
        even = {region_of[outcome.row_of[i]] for i in range(0, 100, 2)}
        assert not odd & even

    def test_every_shared_region_contains_its_user(self, clustered_points_500):
        cloaker = merge_pyramid(clustered_points_500)
        outcome = fallback_round(cloaker)
        for uid, result in outcome.results.items():
            assert result.region.contains_point(cloaker.location_of(uid))

    def test_hilbert_sharing_is_by_bucket(self, uniform_points_500):
        cloaker = load(HilbertCloaker(BOUNDS), uniform_points_500)
        outcome = fallback_round(cloaker)
        # Every bucket of >= 10 users computes once and shares the rest.
        assert len(outcome.regions) == len(
            {frozenset(cloaker.bucket_of(uid, REQ.k)) for uid in range(500)}
        )
        for uid, result in outcome.results.items():
            assert result.region.contains_point(cloaker.location_of(uid))

    def test_empty_batch(self, uniform_points_500):
        cloaker = merge_pyramid(uniform_points_500)
        outcome = bulk_cloak(cloaker, [])
        assert dict(outcome.results) == {}
        assert outcome.regions == []
