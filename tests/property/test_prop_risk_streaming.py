"""Incremental attack monitors agree with the offline attack library.

Each streaming adapter in :mod:`repro.attacks.streaming` claims
step-for-step equivalence with its batch counterpart.  These properties
drive both through identical observation sequences generated by
hypothesis and require exact agreement; the risk monitor's one-pass bulk
ingestion is held to its row-by-row path the same way.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from published_rows import columns_from_rows

from repro.attacks import MaxSpeedLinkageAttack
from repro.attacks.streaming import (
    StreamingDensityModel,
    StreamingLinkageColumns,
    StreamingPosteriorIndex,
    bucket_anonymity,
    fitted_density,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.events import (
    CLOCK_ADVANCED,
    REGION_PUBLISHED,
    REGIONS_PUBLISHED_BULK,
    USER_ADMITTED,
    USER_RETIRED,
    Event,
)
from repro.obs.risk import PrivacyRiskMonitor

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def rects(max_coord=100.0):
    return st.builds(
        lambda x, y, w, h: Rect(x, y, min(x + w, max_coord), min(y + h, max_coord)),
        st.floats(min_value=0.0, max_value=max_coord - 1.0),
        st.floats(min_value=0.0, max_value=max_coord - 1.0),
        st.floats(min_value=0.1, max_value=40.0),
        st.floats(min_value=0.1, max_value=40.0),
    )


# ----------------------------------------------------------------------
# Linkage: one user's column row == full-history attack
# ----------------------------------------------------------------------

linkage_trails = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),  # dt to next observation
        rects(),
    ),
    min_size=1,
    max_size=30,
)


@given(st.floats(min_value=0.0, max_value=20.0), linkage_trails)
@settings(max_examples=150, deadline=None)
def test_streaming_linkage_equals_batch_attack(max_speed, trail):
    streaming = StreamingLinkageColumns(max_speed)
    streaming.observe("other", "p-other", 0.0, (0.0, 0.0, 1.0, 1.0))
    batch = MaxSpeedLinkageAttack(max_speed)
    t = 0.0
    for dt, region in trail:
        t += dt
        shrinkage = streaming.observe("u", "p", t, region.as_tuple())
        step = batch.observe(t, region)
        assert shrinkage == step.shrinkage
    track = streaming.track("u")
    assert track["feasible"] == batch.feasible_region
    assert track["mean_shrinkage"] == batch.mean_shrinkage()
    assert track["steps"] == len(batch.steps)
    assert track["inconsistent_steps"] == sum(
        1 for step in batch.steps if step.feasible is None
    )
    assert streaming.track("other")["steps"] == 1


column_ops = st.lists(
    st.tuples(
        st.sampled_from(["observe", "bulk", "retire"]),
        st.sampled_from([0.0, 0.5, 2.0]),  # dt before the op
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from(["a", "b"]), rects()),
            min_size=1,
            max_size=5,
            unique_by=lambda row: row[0],
        ),
    ),
    min_size=1,
    max_size=25,
)


@given(st.floats(min_value=0.0, max_value=10.0), column_ops)
@settings(max_examples=150, deadline=None)
def test_linkage_columns_equal_one_attack_per_user(max_speed, ops):
    """Row path, bulk path and retirement against one batch attack per
    user, restarted whenever her pseudonym changes."""
    columns = StreamingLinkageColumns(max_speed)
    attacks = {}
    t = 0.0
    for op, dt, rows in ops:
        t += dt
        for user, tag, region in rows:
            if op == "retire":
                columns.retire(user)
                attacks.pop(user, None)
                continue
            if user not in attacks or attacks[user][0] != tag:
                attacks[user] = (tag, MaxSpeedLinkageAttack(max_speed))
            attacks[user][1].observe(t, region)
            if op == "observe":
                columns.observe(user, tag, t, region.as_tuple())
        if op == "bulk":
            columns.observe_many(
                [user for user, _, _ in rows],
                [tag for _, tag, _ in rows],
                t,
                np.array([region.as_tuple() for _, _, region in rows]),
                np.arange(len(rows)),
            )
        assert len(columns) == len(attacks)
        for user in range(5):
            track = columns.track(user)
            if user not in attacks:
                assert track is None
                continue
            tag, attack = attacks[user]
            assert track["pseudonym"] == tag
            assert track["feasible"] == attack.feasible_region
            assert track["steps"] == len(attack.steps)
            assert track["mean_shrinkage"] == attack.mean_shrinkage()
            assert track["inconsistent_steps"] == sum(
                1 for step in attack.steps if step.feasible is None
            )


# ----------------------------------------------------------------------
# Density: incremental grid == fit() on the current positions
# ----------------------------------------------------------------------

density_ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "move", "retire"]),
        st.integers(min_value=0, max_value=9),  # user id from a small pool
        st.floats(min_value=-20.0, max_value=120.0),  # may leave bounds
        st.floats(min_value=-20.0, max_value=120.0),
    ),
    min_size=1,
    max_size=60,
)


@given(density_ops, rects())
@settings(max_examples=100, deadline=None)
def test_streaming_density_equals_fitted_model(ops, query_region):
    streaming = StreamingDensityModel(BOUNDS, resolution=8)
    positions = {}
    for op, user, x, y in ops:
        if op == "admit":
            if user not in positions:
                streaming.admit(user, x, y)
                positions[user] = (x, y)
        elif op == "move":
            if user in positions:
                streaming.move(user, x, y)
                positions[user] = (x, y)
        elif user in positions:
            streaming.retire(user)
            del positions[user]

        oracle = fitted_density(
            BOUNDS, 8, [Point(px, py) for px, py in positions.values()]
        )
        assert np.array_equal(streaming._counts, oracle._counts)
    # population counts every tracked user, in- or out-of-bounds.
    assert streaming.population == len(positions)
    oracle = fitted_density(
        BOUNDS, 8, [Point(px, py) for px, py in positions.values()]
    )
    assert streaming.effective_anonymity(
        query_region
    ) == oracle.effective_anonymity(query_region)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),  # 5..9 never admitted
            st.floats(min_value=-20.0, max_value=120.0),
            st.floats(min_value=-20.0, max_value=120.0),
        ),
        max_size=40,
    ),
    st.lists(st.integers(min_value=0, max_value=40), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_density_move_many_equals_move_row_by_row(reports, cuts):
    """A ``users.moved`` run's columns land where one ``move`` per row
    would leave them: repeated users, unknown users and positions off
    the grid included."""
    columns = StreamingDensityModel(BOUNDS, resolution=8)
    rows = StreamingDensityModel(BOUNDS, resolution=8)
    for model in (columns, rows):
        for user in range(5):
            model.admit(user, 10.0 + 20 * user, 150.0 if user == 4 else 50.0)
    bounds = sorted({0, len(reports), *(min(c, len(reports)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        run = reports[lo:hi]
        columns.move_many(
            [u for u, _, _ in run], [x for _, x, _ in run], [y for _, _, y in run]
        )
        for user, x, y in run:
            rows.move(user, x, y)
        assert np.array_equal(columns._counts, rows._counts)
        assert columns._cells == rows._cells


# ----------------------------------------------------------------------
# Posterior buckets: rolling index == quadratic batch grouping
# ----------------------------------------------------------------------

#: A handful of distinct candidate regions so publications actually
#: collide into shared buckets (fresh random rects almost never would).
REGION_POOL = [
    Rect(0.0, 0.0, 25.0, 25.0),
    Rect(0.0, 0.0, 50.0, 50.0),
    Rect(25.0, 25.0, 50.0, 50.0),
    Rect(50.0, 50.0, 100.0, 100.0),
    Rect(0.0, 50.0, 50.0, 100.0),
]

posterior_ops = st.lists(
    st.tuples(
        st.sampled_from(["publish", "retire"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=len(REGION_POOL) - 1),
    ),
    min_size=1,
    max_size=60,
)


@given(posterior_ops)
@settings(max_examples=100, deadline=None)
def test_streaming_posterior_equals_bucket_oracle(ops):
    index = StreamingPosteriorIndex()
    regions = {}
    for op, user, region_i in ops:
        if op == "publish":
            index.publish(user, REGION_POOL[region_i])
            regions[user] = REGION_POOL[region_i]
        elif user in regions:
            index.retire(user)
            del regions[user]

        oracle = bucket_anonymity(regions)
        assert index.population == len(regions)
        for uid, expected in oracle.items():
            assert index.anonymity_of(uid) == expected
        for uid in set(range(12)) - set(regions):
            assert index.anonymity_of(uid) is None
        counts = list(oracle.values())
        # A bucket of n users contributes n shares of 1/n.
        assert index.bucket_count == sum(Fraction(1, c) for c in counts)
        if counts:
            oracle_reid = sum(1.0 / c for c in counts) / len(counts)
            oracle_bits = sum(math.log2(c) for c in counts) / len(counts)
            assert abs(index.mean_reidentification() - oracle_reid) < 1e-9
            assert abs(index.mean_entropy_bits() - oracle_bits) < 1e-9
        else:
            assert index.mean_reidentification() is None
            assert index.mean_entropy_bits() is None


# ----------------------------------------------------------------------
# Risk monitor: one bulk publication == the same rows one by one
# ----------------------------------------------------------------------

MONITOR_USERS = ["u0", "u1", "u2", "u3"]

#: Rows of a publication: sides drawn from a coarse lattice so regions
#: repeat (shared buckets), collapse to zero width or height, and jump
#: further than the speed bound allows (disjoint, inconsistent steps);
#: two pseudonyms per user make rotations and repeated pseudonyms.
publication_rows = st.lists(
    st.builds(
        lambda user, tag, x, y, w, h: [
            user, f"{user}-{tag}", x, y, min(x + w, 100.0), min(y + h, 100.0)
        ],
        st.sampled_from(MONITOR_USERS),
        st.sampled_from(["a", "b"]),
        st.sampled_from([0.0, 4.0, 10.0, 45.5, 80.0]),
        st.sampled_from([0.0, 3.0, 20.0, 90.0]),
        st.sampled_from([0.0, 0.25, 5.0, 30.0]),
        st.sampled_from([0.0, 5.0, 30.0]),
    ),
    max_size=8,
)

publication_ticks = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.5]),  # clock advance before the tick
        publication_rows,
        st.one_of(st.none(), st.sampled_from(MONITOR_USERS)),  # retired after
    ),
    min_size=1,
    max_size=6,
)


def _monitor_state(monitor):
    score = monitor.score(emit=False)
    report = monitor.report()
    del score["events_consumed"], report["score"]["events_consumed"]
    return score, report


@given(publication_ticks)
@settings(max_examples=150, deadline=None)
def test_bulk_publication_equals_row_by_row(ticks):
    bulk = PrivacyRiskMonitor(BOUNDS, resolution=8, max_speed=2.0)
    rows = PrivacyRiskMonitor(BOUNDS, resolution=8, max_speed=2.0)
    seq = iter(range(1, 10_000))

    def both(kind, **attrs):
        event = Event(next(seq), kind, attrs)
        bulk.consume(event)
        rows.consume(event)

    for i, user in enumerate(MONITOR_USERS):
        both(USER_ADMITTED, user=user, x=10.0 + 20 * i, y=50.0)
    t = 0.0
    for dt, published, retired in ticks:
        t += dt
        both(CLOCK_ADVANCED, t=t)
        bulk.consume(
            Event(next(seq), REGIONS_PUBLISHED_BULK, columns_from_rows(published))
        )
        for user, pseudonym, min_x, min_y, max_x, max_y in published:
            rows.consume(
                Event(
                    next(seq),
                    REGION_PUBLISHED,
                    {
                        "user": user,
                        "pseudonym": pseudonym,
                        "min_x": min_x,
                        "min_y": min_y,
                        "max_x": max_x,
                        "max_y": max_y,
                    },
                )
            )
        if retired is not None:
            both(USER_RETIRED, user=retired)
        assert _monitor_state(bulk) == _monitor_state(rows)
    for user in MONITOR_USERS:
        assert bulk.linkage.track(user) == rows.linkage.track(user)
