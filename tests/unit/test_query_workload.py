"""Unit tests for the mixed query-workload driver."""

import numpy as np
import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.errors import QueryError
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.evalx.query_workload import (
    QueryMix,
    generate_specs,
    run_spec_workload,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.queries.spec import CountSpec, NNSpec, native_kind

BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def system(uniform_points_500):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
    for i, p in enumerate(uniform_points_500[:300]):
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=8)))
    for j in range(60):
        system.add_poi(("poi", j), Point((17 * j) % 100, (41 * j) % 100))
    system.publish_all()
    return system


class TestMixValidation:
    def test_invalid_mixes(self):
        with pytest.raises(QueryError):
            QueryMix(n_queries=-1)
        with pytest.raises(QueryError):
            QueryMix(weights=(1, 2, 3))
        with pytest.raises(QueryError):
            QueryMix(weights=(0, 0, 0, 0))
        with pytest.raises(QueryError):
            QueryMix(weights=(1, -1, 1, 1))


class TestGeneration:
    def test_event_count_and_determinism(self):
        mix = QueryMix(n_queries=50)
        a = generate_specs(mix, list(range(10)), BOUNDS, np.random.default_rng(3))
        b = generate_specs(mix, list(range(10)), BOUNDS, np.random.default_rng(3))
        assert len(a) == 50
        assert a == b

    def test_weights_respected(self):
        mix = QueryMix(n_queries=200, weights=(1, 0, 0, 0))
        specs = generate_specs(mix, [0, 1], BOUNDS, np.random.default_rng(1))
        assert all(native_kind(s) == "private_range" for s in specs)

    def test_user_skew_concentrates_popularity(self):
        mix = QueryMix(n_queries=400, weights=(1, 0, 0, 0), user_skew=2.0)
        specs = generate_specs(
            mix, list(range(50)), BOUNDS, np.random.default_rng(1)
        )
        first_user_share = sum(1 for s in specs if s.user == 0) / len(specs)
        assert first_user_share > 0.3

    def test_count_windows_inside_bounds(self):
        mix = QueryMix(n_queries=80, weights=(0, 0, 1, 0), window_fraction=0.2)
        specs = generate_specs(mix, [0], BOUNDS, np.random.default_rng(1))
        for spec in specs:
            assert BOUNDS.contains_rect(spec.window)

    def test_no_users_raises(self):
        with pytest.raises(QueryError):
            generate_specs(QueryMix(), [], BOUNDS, np.random.default_rng(0))


class TestExecution:
    def test_full_mix_runs_and_scores(self, system):
        mix = QueryMix(n_queries=40)
        specs = generate_specs(
            mix, list(range(300)), BOUNDS, np.random.default_rng(5), samples=256
        )
        report = run_spec_workload(system, specs)
        summary = report.summary()
        assert sum(report.executed.values()) == 40
        assert {key for key in summary if key.startswith("n_")} <= {
            "n_private_range", "n_private_nn", "n_public_count", "n_public_nn"
        }
        assert summary["private_accuracy"] == 1.0
        assert summary.get("public_nn_containment", 1.0) >= 0.9

    def test_count_errors_recorded(self, system):
        specs = [CountSpec(window=Rect(10, 10, 60, 60)) for _ in range(5)]
        report = run_spec_workload(system, specs)
        assert len(report.count_abs_error) == 5
        assert report.summary()["count_mean_abs_error"] < 30

    def test_passive_users_excluded_from_truth(self, uniform_points_500):
        from repro.mobility.users import UserMode

        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        for i, p in enumerate(uniform_points_500[:100]):
            mode = UserMode.PASSIVE if i >= 50 else UserMode.ACTIVE
            system.add_user(MobileUser(i, p, PrivacyProfile.always(k=5), mode=mode))
        system.publish_all()
        spec = NNSpec(dataset="private", point=Point(50, 50), samples=256)
        report = run_spec_workload(system, [spec])
        assert report.nn_total == 1
        assert report.nn_truth_contained == 1
