"""Frozen server state for batch execution.

A :class:`ServerSnapshot` is the point-in-time copy of both server
stores that a whole batch executes against: every query in the batch
sees the same objects regardless of how long the batch takes or how the
kernels chunk the work.  Each side is its store's view: the store's
columns, copied once per mutation counter, so back-to-back batches over
a quiescent server share the same arrays and a side that did not change
keeps them across a capture (see ``docs/batch_engine.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.engine import kernels
from repro.index.base import ItemId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer


@dataclass(frozen=True)
class ServerSnapshot:
    """Immutable numpy view of the server's object tables.

    Attributes:
        public_version / private_version: store mutation counters at
            capture time (the cache key for snapshot reuse).
        public_ids: public object ids, aligned with ``public_xs``/``public_ys``.
        public_xs / public_ys: exact public coordinates (read-only).
        private_ids: pseudonyms, aligned with ``private_bounds`` rows.
        private_bounds: ``(m, 4)`` cloaked-region sides ``(min_x, min_y,
            max_x, max_y)`` (read-only).
        public_rank / private_rank: id -> row, the canonical result order
            of the batch engine.
    """

    public_version: int
    private_version: int
    public_ids: tuple[ItemId, ...]
    public_xs: np.ndarray
    public_ys: np.ndarray
    private_ids: tuple[ItemId, ...]
    private_bounds: np.ndarray
    public_rank: Mapping[ItemId, int]
    private_rank: Mapping[ItemId, int]

    @classmethod
    def capture(
        cls, server: "LocationServer", previous: "ServerSnapshot | None" = None
    ) -> "ServerSnapshot":
        """Freeze ``server``'s current public and private tables.

        Each side is its store's view as of the current version, so a
        side that did not change since ``previous`` comes back with the
        very same arrays, and the public side then keeps ``previous``'s
        :attr:`public_grid` too.
        """
        public_ids, xs, ys = server.public.snapshot_arrays()
        private_ids, bounds = server.private.snapshot_arrays()
        snapshot = cls(
            public_version=server.public.version,
            private_version=server.private.version,
            public_ids=public_ids,
            public_xs=xs,
            public_ys=ys,
            private_ids=private_ids,
            private_bounds=bounds,
            public_rank=server.public.rank,
            private_rank=server.private.rank,
        )
        if (
            previous is not None
            and previous.public_xs is xs
            and "public_grid" in previous.__dict__
        ):
            snapshot.__dict__["public_grid"] = previous.public_grid
        return snapshot

    def matches(self, server: "LocationServer") -> bool:
        """True when ``server``'s stores have not mutated since capture."""
        return (
            self.public_version == server.public.version
            and self.private_version == server.private.version
        )

    @cached_property
    def public_grid(self) -> kernels.PointGrid:
        """Uniform grid over the public points, built lazily per snapshot.

        Cached on the snapshot (``cached_property`` writes straight into
        ``__dict__``, which a frozen dataclass permits), so every batch
        answered from the same snapshot shares one grid.
        """
        return kernels.PointGrid(self.public_xs, self.public_ys)

    @property
    def n_public(self) -> int:
        return len(self.public_ids)

    @property
    def n_private(self) -> int:
        return len(self.private_ids)
