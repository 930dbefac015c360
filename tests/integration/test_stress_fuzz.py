"""Fuzz-style stress test: random operation interleavings, invariants held.

Drives a PrivacySystem through hundreds of randomly ordered operations —
registration churn, mode flips, profile updates, movement, publishes, and
all four query types — asserting after every step that the system-wide
invariants hold.  This is the failure-injection net for state-machine bugs
the scenario tests can't reach.
"""

import numpy as np
import pytest

from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile, example_profile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.queries.spec import CountSpec, NNSpec, RangeSpec

BOUNDS = Rect(0, 0, 100, 100)


def random_point(rng) -> Point:
    return Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))


def check_invariants(system: PrivacySystem) -> None:
    """The contract the whole pipeline must keep at every instant."""
    visible = set(system.anonymizer.registered_users())
    # 1. Exactly the visible users are registered.
    expected_visible = {
        uid for uid, user in system.users.items() if user.is_visible
    }
    assert visible == expected_visible
    # 2. The server never holds more regions than visible users.
    assert len(system.server.private) <= len(visible)
    # 3. Every stored region contains its user's true location and is
    #    inside the universe (pseudonym reverse map via the anonymizer).
    for uid in visible:
        pseudonym = system.anonymizer.pseudonym_of(uid)
        if pseudonym in system.server.private:
            region = system.server.private.region_of(pseudonym)
            assert BOUNDS.contains_rect(region)
            assert region.contains_point(system.users[uid].location)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleaving(seed):
    rng = np.random.default_rng(seed)
    system = PrivacySystem(
        BOUNDS, IncrementalCloaker(PyramidCloaker(BOUNDS, height=5))
    )
    for j in range(25):
        system.add_poi(("poi", j), random_point(rng))
    next_user = 0
    # Seed population so queries are always satisfiable.
    for _ in range(60):
        system.add_user(
            MobileUser(next_user, random_point(rng), PrivacyProfile.always(k=5))
        )
        next_user += 1
    system.publish_all()

    active_ids = lambda: [  # noqa: E731 - local shorthand
        uid for uid, u in system.users.items() if u.is_visible
    ]

    for step in range(400):
        op = rng.random()
        if op < 0.15:
            profile = (
                example_profile()
                if rng.random() < 0.3
                else PrivacyProfile.always(k=int(rng.integers(1, 12)))
            )
            system.add_user(MobileUser(next_user, random_point(rng), profile))
            next_user += 1
        elif op < 0.30:
            ids = active_ids()
            if len(ids) > 20:
                victim = ids[int(rng.integers(len(ids)))]
                system.set_mode(victim, UserMode.PASSIVE)
        elif op < 0.40:
            passive = [
                uid for uid, u in system.users.items() if not u.is_visible
            ]
            if passive:
                revived = passive[int(rng.integers(len(passive)))]
                system.set_mode(revived, UserMode.ACTIVE)
        elif op < 0.55:
            ids = active_ids()
            if ids:
                mover = ids[int(rng.integers(len(ids)))]
                system.apply_movement({mover: random_point(rng)}, dt=0.5)
        elif op < 0.65:
            ids = active_ids()
            if ids:
                target = ids[int(rng.integers(len(ids)))]
                system.anonymizer.update_profile(
                    target, PrivacyProfile.always(k=int(rng.integers(1, 15)))
                )
        elif op < 0.80:
            ids = active_ids()
            if ids:
                asker = ids[int(rng.integers(len(ids)))]
                outcome, _ = system.query(RangeSpec(flavor="private", user=asker, radius=8.0))
                assert outcome.correct
        elif op < 0.90:
            ids = active_ids()
            if ids:
                asker = ids[int(rng.integers(len(ids)))]
                outcome, _ = system.query(NNSpec(flavor="private", user=asker))
                assert outcome.correct
        elif op < 0.95:
            answer = system.query(
                CountSpec(
                    window=Rect.from_center(random_point(rng), 20, 20).clipped(BOUNDS)
                )
            )
            lo, hi = answer.interval
            assert 0 <= lo <= hi <= len(system.server.private)
        else:
            if len(system.server.private) > 0:
                result = system.query(
                    NNSpec(point=random_point(rng), dataset="private", samples=128)
                )
                assert abs(result.answer.total_probability - 1.0) < 1e-9
        if step % 25 == 0:
            check_invariants(system)
    check_invariants(system)
    # The ledger must reflect a fully correct run.
    summary = system.ledger.summary()
    if "range_accuracy" in summary:
        assert summary["range_accuracy"] == 1.0
    if "nn_accuracy" in summary:
        assert summary["nn_accuracy"] == 1.0
