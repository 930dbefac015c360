"""The four traffic mixes and the inputs a seed turns them into.

The *world* is a dataset: the city map, the points of interest, and the
subscribers -- their homes, privacy profiles, walks, and whose turn it
is to report a move, to ask a query, to flip mode or to change profile.
It is fixed (``WORLD_SEED``), like the tables of a database benchmark.
The run's ``--seed`` draws the rest of the traffic: which windows and
points the public queries name, the order in which a cycle's queries
arrive, and which answers are checked.

That split is what lets the privacy-side metrics carry tight bounds.
``k_attainment``, ``mean_region_area`` and ``candidates_per_answer`` are
functions of who is cloaked where.  With the population redrawn per seed
they spread by 1-17 % from sampling alone, with only the walks redrawn
still by up to 8 % (both measured); a bound wide enough to hold that
would hide the cloak degradation these metrics exist to expose.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.core.profiles import PrivacyProfile
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sampling import uniform_points, zipf_weights
from repro.mobility.population import (
    ClusterSpec,
    population_from_clusters,
    uniform_population,
)
from repro.mobility.random_waypoint import RandomWaypointModel
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)
WORLD_SEED = 2006
K_MAX = 32
MIN_AREAS = (0.0, 25.0, 100.0)
#: The correctness sample a full run reaches or exceeds, per workload.
CHECK_RANGE_COUNT = 200
CHECK_KNN = 50
CHECK_REGIONS = 200


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Sizes are for a full run; ``scaled`` shrinks them."""

    name: str
    users: int
    clustered: bool
    cloaker: str  # "grid" (64x64 GridCloaker) | "pyramid" (height 7)
    pois: int
    write: str  # "bulk" | "scalar" | "none"
    batch: int  # public specs per cycle
    private: tuple[int, int, int]  # user-bound range / NN / kNN per cycle
    floor: int  # timed cycles, never fewer
    checkpoint_every: int  # cycles between checkpoints
    recoveries: int
    setup_reps: int
    mover_share: float = 0.05  # scalar write: share of users whose turn it is to move
    churn: int = 20  # scalar write: mode flips and profile updates per tick
    warm_write: bool = True  # does the warm-up cycle include the write section?

    def scaled(self, factor: int) -> "Workload":
        """The smoke-test version: sizes divided by ``factor``."""
        return replace(
            self,
            users=self.users // factor,
            pois=max(50, self.pois // factor),
            batch=max(20, self.batch // factor),
            floor=2,
            checkpoint_every=1,
            recoveries=1,
            setup_reps=1,
            churn=max(2, self.churn // factor),
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Write path at the scale where it is super-linear.  The set-up's
        # first publish already inserted every region, so the warm-up
        # only calibrates the planner (no 5 s tick spent unmeasured).
        Workload(
            "bulk_publish_40k", users=40_000, clustered=False, cloaker="grid",
            pois=1_000, write="bulk", batch=200, private=(70, 10, 5),
            floor=4, checkpoint_every=1, recoveries=1, setup_reps=1,
            warm_write=False,
        ),
        # Read path on a frozen population: all four query classes.
        Workload(
            "query_mix_10k", users=10_000, clustered=False, cloaker="grid",
            pois=10_000, write="none", batch=2_000, private=(100, 30, 20),
            floor=8, checkpoint_every=2, recoveries=2, setup_reps=3,
        ),
        # Writes beside reads on a skewed population, with durability.
        Workload(
            "pipeline_10k", users=10_000, clustered=True, cloaker="grid",
            pois=5_000, write="bulk", batch=400, private=(60, 12, 8),
            floor=8, checkpoint_every=2, recoveries=3, setup_reps=2,
        ),
        # The same layers used the other way: per-message path, pyramid.
        Workload(
            "scalar_churn_10k", users=10_000, clustered=True, cloaker="pyramid",
            pois=5_000, write="scalar", batch=100, private=(80, 15, 5),
            floor=10, checkpoint_every=3, recoveries=2, setup_reps=2,
        ),
    )
}

#: Public batch composition, as shares of ``Workload.batch``: three
#: selectivities of public range, count over private regions, k-NN and
#: region-bound private range; the remainder (1 %) is the probabilistic
#: NN of the paper's Figure 6b.
BATCH_MIX = (
    ("range10", 0.15), ("range50", 0.15), ("range200", 0.10),
    ("count50", 0.20), ("knn8", 0.20), ("private_range", 0.19),
)


def city_clusters() -> list[ClusterSpec]:
    """``clustered_population``'s recipe with the eight centres pinned."""
    centers = uniform_points(WORLD, 8, np.random.default_rng(WORLD_SEED))
    return [
        ClusterSpec(center, 0.03 * WORLD.width, weight)
        for center, weight in zip(centers, zipf_weights(8, 0.8))
    ]


def _profile(rng) -> PrivacyProfile:
    return PrivacyProfile.always(
        k=int(rng.integers(1, K_MAX + 1)),
        min_area=float(MIN_AREAS[int(rng.integers(len(MIN_AREAS)))]),
    )


def _window(rng, side: float) -> Rect:
    x = float(rng.uniform(0.0, WORLD.width - side))
    y = float(rng.uniform(0.0, WORLD.height - side))
    return Rect(x, y, x + side, y + side)


def _point(rng) -> Point:
    return Point(float(rng.uniform(0.0, 1000.0)), float(rng.uniform(0.0, 1000.0)))


def _pick(rng, items: list, count: int) -> list:
    return [items[i] for i in rng.choice(len(items), min(count, len(items)), replace=False)]


@dataclass
class CyclePlan:
    """Everything one cycle will submit, drawn before its clock starts."""

    movers: list[str]
    flips: list[str]
    profiles: list[tuple[str, PrivacyProfile]]
    batch: list
    private: list
    check_positions: list[int]
    check_users: list[str]


class Inputs:
    """The fixed world plus the seed's traffic on it."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        people, places, turns, walks, self._churn_rng = (
            np.random.default_rng([WORLD_SEED, stream]) for stream in range(5)
        )
        self._rng = np.random.default_rng(seed)
        n = workload.users
        if workload.clustered:
            points = population_from_clusters(
                WORLD, n, people, city_clusters(), background_fraction=0.2
            )
        else:
            points = uniform_population(WORLD, n, people)
        self.users = [
            (f"u{i}", point, _profile(people)) for i, point in enumerate(points)
        ]
        self.pois = [
            (f"p{j}", point)
            for j, point in enumerate(uniform_points(WORLD, workload.pois, places))
        ]
        # Who asks and who reports a move, and in which cycle, is the
        # world's; only users of the other half ever flip mode or change
        # profile, so an asker is always visible and always cloaked under
        # her original profile.
        order = [self.users[i][0] for i in turns.permutation(n)]
        self.askers, self.churners = order[: n // 2], order[n // 2 :]
        self.reporters = [self.users[i][0] for i in turns.permutation(n)]
        self.passive: set[str] = set()
        self.model = RandomWaypointModel(WORLD, walks, speed_range=(0.5, 2.0))
        for user_id, point, _ in self.users:
            self.model.add_user(user_id, point)
        self._cycle = 0
        self.fingerprint = self._fingerprint(seed)

    def _fingerprint(self, seed: int) -> str:
        """Digest of the world sample and of the traffic generators' state."""
        digest = hashlib.sha256()
        for user_id, point, profile in self.users[:: max(1, len(self.users) // 500)]:
            requirement = profile.requirement_at(0.0)
            digest.update(
                f"{user_id},{point.x!r},{point.y!r},{requirement.k},"
                f"{requirement.min_area}".encode()
            )
        for poi_id, point in self.pois[:: max(1, len(self.pois) // 500)]:
            digest.update(f"{poi_id},{point.x!r},{point.y!r}".encode())
        digest.update(repr(self._rng.bit_generator.state["state"]).encode())
        digest.update("".join(self.askers[:50]).encode())
        return digest.hexdigest()[:16]

    def _turn(self, roster: list[str], size: int) -> list[str]:
        """This cycle's slice of a fixed roster (wrapping around)."""
        start = self._cycle * size
        return [roster[(start + i) % len(roster)] for i in range(size)]

    def plan(self) -> CyclePlan:
        """Draw the next cycle's inputs (call once per cycle, in order)."""
        w, rng = self.workload, self._rng
        movers: list[str] = []
        flips: list[str] = []
        profiles: list[tuple[str, PrivacyProfile]] = []
        if w.write == "scalar":
            movers = [
                user_id
                for user_id in self._turn(self.reporters, int(w.users * w.mover_share))
                if user_id not in self.passive
            ]
            churn = self._churn_rng
            flips = _pick(churn, self.churners, w.churn)
            self.passive.symmetric_difference_update(flips)
            profiles = [
                (user_id, _profile(churn))
                for user_id in _pick(
                    churn, [u for u in self.churners if u not in self.passive], w.churn
                )
            ]
        batch: list = []
        for kind, share in BATCH_MIX:
            for _ in range(int(round(w.batch * share))):
                if kind.startswith("range"):
                    batch.append(RangeSpec(window=_window(rng, float(kind[5:]))))
                elif kind == "count50":
                    batch.append(CountSpec(window=_window(rng, 50.0)))
                elif kind == "knn8":
                    batch.append(KNNSpec(k=8, point=_point(rng)))
                else:
                    batch.append(
                        RangeSpec(flavor="private", region=_window(rng, 12.0), radius=10.0)
                    )
        while len(batch) < w.batch:
            batch.append(
                NNSpec(
                    point=_point(rng), dataset="private", samples=256,
                    seed=int(rng.integers(1 << 30)),
                )
            )
        batch = [batch[i] for i in rng.permutation(len(batch))]

        n_range, n_nn, n_knn = w.private
        asking = self._turn(self.askers, n_range + n_nn + n_knn)
        private = (
            [RangeSpec(flavor="private", user=u, radius=10.0) for u in asking[:n_range]]
            + [NNSpec(flavor="private", user=u) for u in asking[n_range : n_range + n_nn]]
            + [KNNSpec(flavor="private", user=u, k=8) for u in asking[n_range + n_nn :]]
        )
        private = [private[i] for i in rng.permutation(len(private))]
        self._cycle += 1

        knn = [i for i, spec in enumerate(batch) if isinstance(spec, KNNSpec)]
        other = [
            i for i, spec in enumerate(batch) if not isinstance(spec, (KNNSpec, NNSpec))
        ]
        check_positions = _pick(rng, other, -(-CHECK_RANGE_COUNT // w.floor)) + _pick(
            rng, knn, -(-CHECK_KNN // w.floor)
        )
        check_users = _pick(rng, self.askers + self.churners, CHECK_REGIONS)
        return CyclePlan(movers, flips, profiles, batch, private, check_positions, check_users)
