"""Unit tests for the declarative QuerySpec API."""

import json

import pytest

from repro.core.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.queries.spec import (
    CountSpec,
    KNNSpec,
    NNSpec,
    RangeSpec,
    SPEC_CLASSES,
    dump_specs,
    is_user_bound,
    load_specs,
    spec_from_dict,
    spec_to_dict,
)

WINDOW = Rect(10, 10, 40, 40)
REGION = Rect(20, 20, 30, 30)
POINT = Point(25, 25)


class TestValidation:
    def test_public_range_needs_window(self):
        with pytest.raises(QueryError, match="window"):
            RangeSpec(flavor="public")

    def test_public_range_rejects_subjects(self):
        with pytest.raises(QueryError, match="subject"):
            RangeSpec(window=WINDOW, user="alice")

    def test_private_range_needs_exactly_one_subject(self):
        with pytest.raises(QueryError, match="exactly one"):
            RangeSpec(flavor="private", radius=5.0)
        with pytest.raises(QueryError, match="exactly one"):
            RangeSpec(flavor="private", user="a", region=REGION, radius=5.0)

    def test_private_range_rejects_window_and_bad_values(self):
        with pytest.raises(QueryError, match="radius"):
            RangeSpec(flavor="private", user="a", window=WINDOW)
        with pytest.raises(QueryError, match="non-negative"):
            RangeSpec(flavor="private", user="a", radius=-1.0)
        with pytest.raises(QueryError, match="method"):
            RangeSpec(flavor="private", user="a", radius=1.0, method="magic")

    def test_bad_flavor_rejected_everywhere(self):
        for build in (
            lambda: RangeSpec(flavor="secret", window=WINDOW),
            lambda: NNSpec(flavor="secret", point=POINT),
            lambda: KNNSpec(flavor="secret", point=POINT),
            lambda: CountSpec(window=WINDOW, flavor="secret"),
        ):
            with pytest.raises(QueryError, match="flavor"):
                build()

    def test_public_nn_needs_point(self):
        with pytest.raises(QueryError, match="point"):
            NNSpec(flavor="public")

    def test_private_nn_rejects_point_and_private_dataset(self):
        with pytest.raises(QueryError, match="subject"):
            NNSpec(flavor="private", user="a", point=POINT)
        with pytest.raises(QueryError, match="dataset"):
            NNSpec(flavor="private", user="a", dataset="private")

    def test_knn_positive_k(self):
        with pytest.raises(QueryError, match="k must be positive"):
            KNNSpec(point=POINT, k=0)

    def test_count_has_no_private_flavor(self):
        # The paper reduces private-over-private to the public quadrants
        # (end of Section 6.1) — the spec layer enforces the reduction.
        with pytest.raises(QueryError, match="reduces"):
            CountSpec(window=WINDOW, flavor="private")

    def test_specs_are_frozen(self):
        spec = CountSpec(window=WINDOW)
        with pytest.raises(Exception):
            spec.window = REGION

    def test_is_user_bound(self):
        assert is_user_bound(RangeSpec(flavor="private", user=1, radius=2.0))
        assert not is_user_bound(
            RangeSpec(flavor="private", region=REGION, radius=2.0)
        )
        assert not is_user_bound(CountSpec(window=WINDOW))


ROUND_TRIP_SPECS = [
    RangeSpec(window=WINDOW),
    RangeSpec(flavor="private", user="alice", radius=7.5, method="mbr"),
    RangeSpec(flavor="private", region=REGION, radius=3.0),
    NNSpec(point=POINT),
    NNSpec(dataset="private", point=POINT, samples=512, seed=9),
    NNSpec(flavor="private", user=3, method="exact"),
    NNSpec(flavor="private", region=REGION),
    KNNSpec(point=POINT, k=5),
    KNNSpec(flavor="private", user="bob", k=3, method="range"),
    CountSpec(window=WINDOW),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec", ROUND_TRIP_SPECS, ids=lambda s: f"{s.kind}-{s.flavor}"
    )
    def test_dict_round_trip(self, spec):
        record = spec_to_dict(spec)
        assert record["kind"] == spec.kind
        assert spec_from_dict(record) == spec

    def test_workload_round_trips_through_json_text(self):
        text = json.dumps(dump_specs(ROUND_TRIP_SPECS))
        assert load_specs(json.loads(text)) == ROUND_TRIP_SPECS

    def test_none_fields_omitted(self):
        record = spec_to_dict(CountSpec(window=WINDOW))
        assert "user" not in record and "region" not in record
        assert record["window"] == [10.0, 10.0, 40.0, 40.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError, match="unknown spec kind"):
            spec_from_dict({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="unknown fields"):
            spec_from_dict({"kind": "count", "window": [0, 0, 1, 1], "x": 1})

    def test_non_scalar_user_id_rejected(self):
        spec = RangeSpec(flavor="private", user=("tuple", "id"), radius=1.0)
        with pytest.raises(QueryError, match="JSON-serialisable"):
            spec_to_dict(spec)

    def test_registry_covers_all_kinds(self):
        assert set(SPEC_CLASSES) == {"range", "nn", "knn", "count"}
