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


def cells_of(model: StreamingDensityModel) -> dict:
    """Every tracked user's flat cell index."""
    return dict(zip(model._rows.users, model._cell.tolist()))


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
        assert cells_of(columns) == cells_of(rows)


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


# ----------------------------------------------------------------------
# The three bulk folds against their row paths, rows reused
# ----------------------------------------------------------------------

#: Sides for the bulk folds: regions that collide into shared buckets,
#: and one within the key rounding of the first (its bucket, other sides).
FOLD_REGIONS = [
    (0.0, 0.0, 25.0, 25.0),
    (0.0, 0.0, 25.0 + 1e-12, 25.0),
    (25.0, 25.0, 50.0, 50.0),
    (50.0, 50.0, 100.0, 100.0),
    (0.0, 50.0, 50.0, 100.0),
]
FOLD_USERS = [f"f{i}" for i in range(8)]


def draw_user_lists(data, steps=6):
    """A run of unique user lists, each with the user retired just before
    it (or None): a fresh draw, a copy of the previous list, a
    permutation of it, it plus users it lacks, or the previous list
    again after one of its users retired."""
    previous: list = []
    for _ in range(data.draw(st.integers(1, steps))):
        shape = data.draw(
            st.sampled_from(["new", "same", "permuted", "grown", "retired"])
            if previous else st.just("new")
        )
        retired = None
        if shape == "new":
            users = data.draw(st.lists(st.sampled_from(FOLD_USERS), min_size=1, unique=True))
        elif shape == "permuted":
            users = data.draw(st.permutations(previous))
        elif shape == "grown":
            absent = [user for user in FOLD_USERS if user not in previous]
            users = previous + data.draw(
                st.lists(st.sampled_from(absent or FOLD_USERS[:1]), unique=True)
            )
            users = list(dict.fromkeys(users))
        else:
            users = list(previous)
            if shape == "retired":
                retired = data.draw(st.sampled_from(users))
        previous = users
        yield users, retired


def draw_table(data, users):
    """The publication's distinct-region table (every fold region, in a
    drawn order, some unused) and each user's row in it."""
    order = data.draw(st.permutations(range(len(FOLD_REGIONS))))
    picks = data.draw(
        st.lists(st.sampled_from(order), min_size=len(users), max_size=len(users))
    )
    table = np.array([FOLD_REGIONS[i] for i in order])
    region = np.array([order.index(i) for i in picks], dtype=np.intp)
    return table, region


class DictBuckets:
    """The bucket model the index implements, kept the plain way: one
    dict of sizes in creation order, one of each user's key."""

    def __init__(self) -> None:
        self.sizes: dict = {}
        self.rects: dict = {}
        self.key: dict = {}

    def publish(self, user, region: Rect) -> None:
        key = tuple(round(v, 9) for v in region.as_tuple())
        old = self.key.get(user)
        if old == key:
            return
        if old is not None:
            self.sizes[old] -= 1
            if not self.sizes[old]:
                del self.sizes[old], self.rects[old]
        self.key[user] = key
        if key not in self.sizes:
            self.sizes[key], self.rects[key] = 0, region
        self.sizes[key] += 1

    def retire(self, user) -> None:
        old = self.key.pop(user, None)
        if old is not None:
            self.sizes[old] -= 1
            if not self.sizes[old]:
                del self.sizes[old], self.rects[old]


def assert_same_buckets(index: StreamingPosteriorIndex, model: DictBuckets) -> None:
    assert index.bucket_sizes() == list(model.sizes.values())
    for limit in (16, 2):
        assert index.recent_regions(limit) == list(model.rects.values())[-limit:]
    for user in FOLD_USERS:
        key = model.key.get(user)
        assert index.anonymity_of(user) == (None if key is None else model.sizes[key])
    assert (index.population, index.bucket_count) == (len(model.key), len(model.sizes))
    if model.key:
        assert index.mean_reidentification() == len(model.sizes) / len(model.key)
        bits = sum(n * math.log2(n) for n in model.sizes.values())
        assert index.mean_entropy_bits() == bits / len(model.key)
    else:
        assert index.mean_reidentification() is None
        assert index.mean_entropy_bits() is None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_posterior_publish_many_equals_publish_row_by_row(data):
    """Bulk and row path against the plain bucket model: sizes in bucket
    order, the newest regions, every user's anonymity and both means,
    over lists that repeat, permute, grow or lose a user between
    publications; buckets empty and fill again inside one."""
    bulk, rows, model = StreamingPosteriorIndex(), StreamingPosteriorIndex(), DictBuckets()
    for users, retired in draw_user_lists(data):
        if retired is not None:
            for index in (bulk, rows, model):
                index.retire(retired)
        table, region = draw_table(data, users)
        bulk.publish_many(users, table, region)
        for user, slot in zip(users, region.tolist()):
            rows.publish(user, Rect(*table[slot]))
            model.publish(user, Rect(*table[slot]))
        assert_same_buckets(bulk, model)
        assert_same_buckets(rows, model)


def test_a_bucket_that_empties_inside_a_publication_is_new():
    """Every member of the oldest bucket leaves before a newcomer arrives:
    it went and came back newest, with the newcomer's sides.  A newcomer
    arriving before the last member leaves keeps it where it was."""
    a, a_twin, b = FOLD_REGIONS[0], FOLD_REGIONS[1], FOLD_REGIONS[2]
    for users, regions, sizes in (
        (["u0", "u1", "u2"], [b, a_twin], [3, 1]),  # u0, u1 leave; then u2 arrives
        (["u2", "u0", "u1"], [a, b], [1, 3]),  # u2 arrives while u0, u1 are in
    ):
        index = StreamingPosteriorIndex()
        index.publish_many(["u0", "u1", "u3"], np.array([a, b]), np.array([0, 0, 1]))
        slot = {"u0": 1, "u1": 1, "u2": 0}
        index.publish_many(
            users, np.array([a_twin, b]), np.array([slot[user] for user in users])
        )
        assert [r.as_tuple() for r in index.recent_regions()] == regions
        assert index.bucket_sizes() == sizes


@given(st.floats(min_value=0.0, max_value=5.0), st.data())
@settings(max_examples=200, deadline=None)
def test_linkage_observe_many_reusing_rows_equals_observe(max_speed, data):
    """``observe_many`` against ``observe`` row by row over the same list
    shapes, pseudonyms kept or rotated, and a row-path rotation between
    two bulk calls (the next equal call must restart that row)."""
    bulk, rows = StreamingLinkageColumns(max_speed), StreamingLinkageColumns(max_speed)
    t, tags = 0.0, {}
    for users, retired in draw_user_lists(data):
        t += data.draw(st.sampled_from([0.0, 0.5, 3.0]))
        if retired is not None:
            bulk.retire(retired)
            rows.retire(retired)
        rotated = data.draw(st.none() | st.sampled_from(users))
        if rotated is not None and bulk.track(rotated) is not None:
            for columns in (bulk, rows):
                columns.observe(rotated, f"{rotated}-row", t, FOLD_REGIONS[3])
        for user in users:
            if user not in tags or data.draw(st.booleans()):
                tags[user] = data.draw(st.sampled_from("ab"))
        pseudonyms = [f"{user}-{tags[user]}" for user in users]
        table, region = draw_table(data, users)
        bulk.observe_many(users, pseudonyms, t, table, region)
        for user, pseudonym, slot in zip(users, pseudonyms, region.tolist()):
            rows.observe(user, pseudonym, t, table[slot].tolist())
        assert len(bulk) == len(rows)
        for user in FOLD_USERS:
            assert bulk.track(user) == rows.track(user)
        assert bulk.mean_shrinkage() == rows.mean_shrinkage()
        assert bulk.inconsistent_steps == rows.inconsistent_steps


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_density_move_many_reusing_rows_equals_move(data):
    """``move_many`` against ``move`` row by row over the same list
    shapes, with users admitted between runs and lists naming users
    never admitted (ignored)."""
    bulk = StreamingDensityModel(BOUNDS, resolution=8)
    rows = StreamingDensityModel(BOUNDS, resolution=8)
    for model in (bulk, rows):
        for i, user in enumerate(FOLD_USERS[:4]):
            model.admit(user, 10.0 + 20 * i, 50.0)
    coordinate = st.sampled_from([-5.0, 0.0, 12.5, 50.0, 99.0, 100.0, 130.0])
    for users, retired in draw_user_lists(data):
        admitted = data.draw(st.none() | st.sampled_from(FOLD_USERS))
        for model in (bulk, rows):
            if retired is not None:
                model.retire(retired)
            if admitted is not None:
                model.admit(admitted, 30.0, 30.0)
        xs = data.draw(st.lists(coordinate, min_size=len(users), max_size=len(users)))
        ys = data.draw(st.lists(coordinate, min_size=len(users), max_size=len(users)))
        bulk.move_many(users, xs, ys)
        for user, x, y in zip(users, xs, ys):
            rows.move(user, x, y)
        assert np.array_equal(bulk._counts, rows._counts)
        assert cells_of(bulk) == cells_of(rows)
        assert bulk.population == rows.population
