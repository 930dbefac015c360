"""Typed columns on the WAL line (``repro.wal/3``).

``users.moved`` and ``regions.published_bulk`` carry their numbers as
arrays, and a line holds each array as ``{"dtype": "<f8" | "<i4", "b64":
...}``.  ``read_jsonl`` turns them back into arrays, leaves the lists of
``repro.wal/2`` as lists, and refuses a malformed column on any line but
the last (a torn final line is still an interrupted append).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs import EventLog
from repro.obs.events import (
    REGIONS_PUBLISHED_BULK,
    USERS_MOVED,
    encode_column,
    json_default,
    read_jsonl,
)
from repro.obs.serve import _json

SIDES = np.array([[0.0, 15.625, 15.625, 31.25], [984.375, 0.0, 1000.0, 15.625]])


def _lines(emit) -> list[str]:
    log = EventLog()
    sink = io.StringIO()
    log.attach_jsonl(sink)
    emit(log)
    log.close_run()
    return sink.getvalue().splitlines()


def _bulk(log: EventLog) -> None:
    log.emit(
        REGIONS_PUBLISHED_BULK, n=3, users=["a", "b", "c"], pseudonyms=["p", "q", "r"],
        sides=SIDES, region=np.array([0, 1, 0]),
    )


def _moved(log: EventLog) -> None:
    for user, x, y in (("a", 1.5, 2.5), ("b", -0.0, 1e22)):
        log.append_move(user, x, y)


def test_both_columnar_kinds_read_back_as_the_arrays_they_were():
    lines = _lines(lambda log: (_moved(log), _bulk(log)))
    assert json.loads(lines[0])["xs"] == {"dtype": "<f8", "b64": encode_column(
        np.array([1.5, -0.0]))["b64"]}
    assert json.loads(lines[1])["region"]["dtype"] == "<i4"
    moved, bulk = read_jsonl(lines)
    assert moved.attrs["xs"].dtype == np.float64
    assert moved.attrs["ys"].tolist() == [2.5, 1e22]
    assert bulk.attrs["sides"].shape == (2, 4)
    assert bulk.attrs["sides"].tobytes() == SIDES.tobytes()
    assert bulk.attrs["region"].tolist() == [0, 1, 0]
    assert bulk.attrs["users"] == ["a", "b", "c"]


def test_the_lists_of_repro_wal_2_stay_lists():
    record = {
        "kind": USERS_MOVED, "seq": 1, "users": ["a"], "xs": [1.0], "ys": [2.0],
    }
    (event,) = read_jsonl([json.dumps(record)])
    assert event.attrs["xs"] == [1.0] and event.attrs["ys"] == [2.0]


def test_other_kinds_keep_a_typed_looking_dict_as_it_is():
    value = {"dtype": "<u2", "b64": "!"}
    (event,) = read_jsonl([json.dumps({"kind": "custom.kind", "seq": 1, "xs": value})])
    assert event.attrs["xs"] == value


def _damaged(name: str, value) -> str:
    line = json.loads(_lines(_moved)[0])
    line[name] = value
    return json.dumps(line)


DAMAGE = {
    "unknown_dtype": ("xs", {"dtype": "<f4", "b64": "AAAAAA=="}),
    "invalid_base64": ("xs", {"dtype": "<f8", "b64": "not base64!"}),
    "ragged_bytes": ("ys", {"dtype": "<f8", "b64": "AAAAAAAAAAAAAAAAAA=="}),
    "row_count": ("xs", encode_column(np.array([1.0, 2.0, 3.0]))),
    "no_b64": ("xs", {"dtype": "<f8"}),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_malformed_typed_column_is_refused_before_the_last_line(damage):
    bad = _damaged(*DAMAGE[damage])
    healthy = _lines(_bulk)[0]
    with pytest.raises((ValueError, KeyError)):
        read_jsonl([bad, healthy])
    # As the final line it is a torn append: dropped, the prefix kept.
    (event,) = read_jsonl([healthy, bad])
    assert event.kind == REGIONS_PUBLISHED_BULK
    with pytest.raises((ValueError, KeyError)):
        read_jsonl([healthy, bad], strict=True)


def test_a_region_table_that_is_not_four_wide_or_a_short_region_is_refused():
    bulk = json.loads(_lines(_bulk)[0])
    for name, value in (
        ("sides", encode_column(np.arange(6.0))),
        ("region", encode_column(np.array([0, 1]))),
    ):
        with pytest.raises(ValueError, match=name):
            read_jsonl([json.dumps({**bulk, name: value}), "{}"])


@given(st.lists(st.floats(allow_nan=False, allow_subnormal=True), min_size=1, max_size=40))
@example([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e22, float("inf"), -float("inf")])
def test_coordinates_round_trip_bit_equal(values):
    lines = _lines(lambda log: [log.append_move(f"u{i}", v, -v) for i, v in enumerate(values)])
    (event,) = read_jsonl(lines)
    assert event.attrs["xs"].tobytes() == np.array(values, dtype=float).tobytes()
    assert event.attrs["ys"].tobytes() == (-np.array(values, dtype=float)).tobytes()


def test_every_serialiser_writes_an_array_as_its_typed_column():
    column = np.array([0.1, 0.2])
    assert json_default(column) == encode_column(column)
    assert json.loads(_json({"xs": column}))["xs"] == encode_column(column)
    # Arrays without a typed-column form keep the str form.
    assert json_default(np.array([True])) == "[ True]"
    with pytest.raises(TypeError):
        encode_column(np.array(["a"]))
