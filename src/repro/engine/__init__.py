"""Vectorized batch query execution over frozen server snapshots.

The :class:`BatchEngine` answers heterogeneous batches of
:class:`~repro.queries.spec.QuerySpec` values against an immutable
:class:`ServerSnapshot` using numpy kernels, with per-query scalar
processors that produce identical results; the
:class:`BruteForceOracle` is the deliberately naive O(n * m) reference
every faster path is differential-tested against.  See
``docs/batch_engine.md``.
"""

from repro.engine.batch import BatchEngine, BatchResult
from repro.engine.cloak import BulkCloakOutcome, bulk_cloak
from repro.engine.oracle import BruteForceOracle
from repro.engine.snapshot import ServerSnapshot

__all__ = [
    "BatchEngine",
    "BatchResult",
    "BruteForceOracle",
    "BulkCloakOutcome",
    "bulk_cloak",
    "ServerSnapshot",
]
