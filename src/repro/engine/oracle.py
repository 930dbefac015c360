"""Brute-force differential-testing oracle.

A deliberately naive O(n * m) reference implementation of every query
type the server answers.  No index, no pruning, no vectorisation — one
python loop per query over a plain dict — so its answers are easy to
audit by eye and make a trustworthy anchor for the conformance suite
(``tests/conformance/``) and the slow baseline of ``BENCH_batch.json``.

Nearest-neighbour answers are canonical: nearest-first with ties broken
by insertion rank, which :meth:`BruteForceOracle.from_server` takes from
the stores' row order.  Because index backends may break exact-distance ties
differently (all are correct), :meth:`BruteForceOracle.validate_knn`
checks an answer's *validity* — every strictly-closer object included,
nothing farther than the last member — rather than identity.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.geometry.distances import max_dist, min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.queries.probabilistic import CountAnswer
from repro.queries.public_range import membership_probability


class BruteForceOracle:
    """Reference answers over plain ``{id: Point}`` / ``{id: Rect}`` tables.

    Args:
        public: exact public object locations (may be empty).
        private: cloaked private regions (may be empty).

    Insertion order of the mappings defines the rank used for canonical
    ordering and tie-breaking.
    """

    def __init__(
        self,
        public: Mapping[Hashable, Point] | None = None,
        private: Mapping[Hashable, Rect] | None = None,
    ) -> None:
        self.public: dict[Hashable, Point] = dict(public or {})
        self.private: dict[Hashable, Rect] = dict(private or {})
        self._public_rank = {item: i for i, item in enumerate(self.public)}

    @classmethod
    def from_server(cls, server) -> "BruteForceOracle":
        """Snapshot a :class:`~repro.core.server.LocationServer`'s tables."""
        return cls(
            public=dict(server.public.items()),
            private=dict(server.private.items()),
        )

    @classmethod
    def from_index(cls, index) -> "BruteForceOracle":
        """Snapshot a :class:`~repro.index.base.SpatialIndex`'s entries.

        Degenerate entries double as both tables: their centre goes into
        the public point table, their rectangle into the region table —
        so one oracle anchors range, NN, k-NN and count conformance for
        any backend.
        """
        regions = {item: index.geometry_of(item) for item in index}
        points = {
            item: Point(rect.min_x, rect.min_y)
            for item, rect in regions.items()
            if rect.is_degenerate and rect.width == 0 and rect.height == 0
        }
        return cls(public=points, private=regions)

    # ------------------------------------------------------------------
    # Public queries over public data
    # ------------------------------------------------------------------

    def public_range(self, window: Rect) -> list[Hashable]:
        """Ids of public points inside ``window``, in rank order."""
        return [
            item for item, p in self.public.items() if window.contains_point(p)
        ]

    def public_knn(self, query: Point, k: int) -> list[Hashable]:
        """The ``k`` nearest public points, canonical order.

        Ranked by ``(squared distance, rank)``, the key both engine routes
        use, so exact ties and ulp-close pairs order the same everywhere.
        """
        ranked = sorted(
            self.public,
            key=lambda item: (
                self.public[item].squared_distance_to(query),
                self._public_rank[item],
            ),
        )
        return ranked[: max(0, k)]

    # ------------------------------------------------------------------
    # Private queries over public data
    # ------------------------------------------------------------------

    def private_range(
        self, region: Rect, radius: float, method: str = "exact"
    ) -> list[Hashable]:
        """Candidate set of a private range query, in rank order."""
        if method == "mbr":
            window = region.expanded(radius)
            return [
                item
                for item, p in self.public.items()
                if window.contains_point(p)
            ]
        return [
            item
            for item, p in self.public.items()
            if min_dist(p, region) <= radius
        ]

    def private_nn_bound(self, region: Rect) -> list[Hashable]:
        """The guaranteed candidate superset of a private NN query.

        The ``method="range"`` semantics computed by brute force: the
        pruning bound ``m = min over objects of max_dist(region, o)``,
        then every object with ``min_dist(o, region) <= m``.  Every
        correct candidate generator returns a subset of this.
        """
        if not self.public:
            return []
        m = min(max_dist(p, region) for p in self.public.values())
        return [
            item
            for item, p in self.public.items()
            if min_dist(p, region) <= m
        ]

    def private_nn_witnesses(self, region: Rect, grid: int = 5) -> set[Hashable]:
        """Objects *provably* in the private NN candidate set.

        Each point of a ``grid x grid`` lattice over the region is a
        possible user position; its nearest objects (ties included) must
        appear in any correct candidate set.  A lower bound on the true
        set — used to catch false negatives in the tight generators.
        """
        witnesses: set[Hashable] = set()
        if not self.public:
            return witnesses
        for i in range(grid):
            for j in range(grid):
                fx = i / (grid - 1) if grid > 1 else 0.5
                fy = j / (grid - 1) if grid > 1 else 0.5
                sample = Point(
                    region.min_x + fx * (region.max_x - region.min_x),
                    region.min_y + fy * (region.max_y - region.min_y),
                )
                best = min(
                    sample.distance_to(p) for p in self.public.values()
                )
                witnesses.update(
                    item
                    for item, p in self.public.items()
                    if sample.distance_to(p) == best
                )
        return witnesses

    # ------------------------------------------------------------------
    # Public queries over private data
    # ------------------------------------------------------------------

    def region_range(self, window: Rect) -> list[Hashable]:
        """Ids of regions intersecting ``window``, in rank order."""
        return [
            item
            for item, rect in self.private.items()
            if rect.intersects(window)
        ]

    def public_count(self, window: Rect) -> CountAnswer:
        """Probabilistic count over the region table, in rank order."""
        return CountAnswer(
            {
                item: membership_probability(rect, window)
                for item, rect in self.private.items()
                if rect.intersects(window)
            }
        )

    # ------------------------------------------------------------------
    # Tie-tolerant k-NN validation
    # ------------------------------------------------------------------

    def validate_knn(
        self,
        answer: Sequence[Hashable],
        query: Point,
        k: int,
        *,
        table: str = "public",
    ) -> bool:
        """Is ``answer`` a correct k-NN result (up to distance ties)?

        Correct means: right length, members unique and known,
        nearest-first, every object strictly closer than the last member
        included, and no member farther than the last member needs to be.

        Args:
            table: ``"public"`` validates against the point table
                (point distance), ``"private"`` against the region table
                (min-distance to the rectangle).
        """
        entries = self.public if table == "public" else self.private
        if table == "public":
            def distance(item: Hashable) -> float:
                return query.distance_to(entries[item])
        else:
            def distance(item: Hashable) -> float:
                return min_dist(query, entries[item])

        ids = list(answer)
        if len(ids) != min(max(0, k), len(entries)):
            return False
        if len(set(ids)) != len(ids) or any(item not in entries for item in ids):
            return False
        if not ids:
            return True
        dists = [distance(item) for item in ids]
        if dists != sorted(dists):
            return False
        last = dists[-1]
        closer = {item for item in entries if distance(item) < last}
        return closer <= set(ids)
