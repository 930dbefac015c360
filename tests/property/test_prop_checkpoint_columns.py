"""Property: a ``repro.persist/4`` checkpoint round-trips any small system.

Each generated system mixes int and str ids, integer-valued and
fractional coordinates, passive, active and query-mode users, multi-row
profiles with and without ``max_area`` (equal profiles in distinct
objects among them), POIs removed down to an empty store or leaving
holes that only the checkpoint compacts, answered queries of all three
kinds, rotated pseudonyms and a standing count monitor registered before the
later rounds.  Checkpoint, then recover, then check:

* the recovered system's ``system_digest`` equals the live one;
* the monitor's membership probabilities equal the live ones and its
  running expected count agrees (``system_digest`` records only the
  monitor ids);
* every restored value is a Python ``float`` / ``int`` / ``bool`` /
  ``str``, never a numpy scalar;
* an event the recovered system emits parses back from its JSONL line
  equal to itself (a numpy ``bool_`` would come back as ``"True"``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloaking.grid_cloak import GridCloaker
from repro.core.profiles import PrivacyProfile, PrivacyRequirement, ProfileEntry
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.obs import Telemetry
from repro.obs.events import Event, _encode
from repro.persist import system_digest
from repro.queries.spec import KNNSpec, NNSpec, RangeSpec

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)

coordinate = st.one_of(
    st.integers(0, 100),
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)
requirement = st.builds(
    PrivacyRequirement,
    k=st.integers(1, 4),
    min_area=st.sampled_from([0.0, 4.0, 12.5]),
    max_area=st.sampled_from([None, 400.0, 2500.0]),
)
profile_rows = st.lists(
    st.tuples(st.sampled_from([0.0, 8 * 3600.0, 17 * 3600.0, 22 * 3600.0]), requirement),
    min_size=0,
    max_size=3,
    unique_by=lambda row: row[0],
)


def _profile(rows) -> PrivacyProfile:
    """A fresh object each call: equal profiles, distinct objects."""
    return PrivacyProfile(ProfileEntry(start, req) for start, req in rows)


@st.composite
def systems(draw) -> PrivacySystem:
    system = PrivacySystem(
        BOUNDS,
        GridCloaker(BOUNDS, cols=4, rows=4),
        rotate_pseudonyms=draw(st.booleans()),
        telemetry=Telemetry(),
    )
    system.clock = float(draw(st.sampled_from([0.0, 9 * 3600.0, 18 * 3600.0])))
    pois = draw(st.integers(0, 6))
    for j in range(pois):
        system.add_poi(j if j % 2 else f"p{j}", Point(draw(coordinate), draw(coordinate)))
    shared = draw(profile_rows)
    n = draw(st.integers(1, 8))
    for i in range(n):
        rows = shared if draw(st.booleans()) else draw(profile_rows)
        user_id = i if draw(st.booleans()) else f"u{i}"
        speed = draw(st.sampled_from([0, 1.0, 2.5]))
        system.add_user(
            MobileUser(
                user_id,
                Point(draw(coordinate), draw(coordinate)),
                _profile(rows),
                draw(st.sampled_from([UserMode.ACTIVE, UserMode.PASSIVE])),
                speed,
            )
        )
    system.publish_all(bulk=draw(st.booleans()))
    low_x, low_y = draw(coordinate), draw(coordinate)
    window = Rect(low_x, low_y, low_x + draw(coordinate), low_y + draw(coordinate))
    system.server.register_count_monitor("m", window)
    visible = [uid for uid, user in system.users.items() if user.is_visible]
    for user_id in draw(st.lists(st.sampled_from(visible), max_size=3)) if visible else []:
        kind = draw(st.sampled_from(["range", "nn", "knn"]))
        if kind == "range":
            system.query(RangeSpec(flavor="private", user=user_id, radius=20.0))
        elif len(system.server.public):
            spec = NNSpec if kind == "nn" else KNNSpec
            extra = {} if kind == "nn" else {"k": 2}
            system.query(spec(flavor="private", user=user_id, **extra))
    if draw(st.booleans()):
        system.publish_all()  # a second round rotates published pseudonyms
    removed = draw(st.integers(0, pois))
    for object_id in list(system.server.public)[:removed]:
        system.server.remove_public_object(object_id)
    return system


def _python_values(system: PrivacySystem) -> None:
    """Every restored value has a Python type, never a numpy one."""
    for user_id, user in system.users.items():
        assert type(user_id) is str
        assert type(user.location.x) is float and type(user.location.y) is float
        assert type(user.speed) is float
        assert type(user.mode) is UserMode
    for user_id, registration in system.anonymizer._registrations.items():
        assert type(user_id) is str
        assert type(registration.pseudonym) is str
        assert type(registration.published) is bool
    for object_id, point in system.server.public.items():
        assert type(object_id) is str
        assert type(point.x) is float and type(point.y) is float
    for pseudonym, region in system.server.private.items():
        assert type(pseudonym) is str
        assert all(type(side) is float for side in (region.min_x, region.max_y))
    for sums in system.ledger.sums.values():
        assert {name: type(value) for name, value in sums.items()} == {
            "queries": int,
            "candidates": int,
            "overhead": float,
            "correct": int,
            "cloak_area": float,
        }


@given(system=systems())
@settings(max_examples=60, deadline=None)
def test_checkpoint_round_trips_a_small_system(tmp_path_factory, system):
    directory = tmp_path_factory.mktemp("columns")
    system.checkpoint(directory)
    recovered = PrivacySystem.recover(directory, telemetry=Telemetry())
    assert system_digest(recovered) == system_digest(system)
    _python_values(recovered)
    live, restored = system.server.monitor("m"), recovered.server.monitor("m")
    assert restored.answer().probabilities == live.answer().probabilities
    assert restored.expected_count == pytest.approx(live.expected_count)

    before = recovered.obs.events._seq
    recovered.publish_all()
    user_id, user = next(iter(recovered.users.items()))
    recovered.set_mode(user_id, UserMode.PASSIVE if user.is_visible else UserMode.ACTIVE)
    emitted = [e for e in recovered.obs.events.events() if e.seq > before]
    assert emitted
    for event in emitted:
        line = _encode(event.to_dict())
        assert Event.from_dict(json.loads(line)) == event, line
