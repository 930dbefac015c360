"""Durable anonymizer state: checkpoints + WAL replay (docs/durability.md).

The typed JSONL event trail (:mod:`repro.obs.events`) doubles as a
write-ahead log; this package adds the other half of durability —
versioned atomic checkpoints of the whole pipeline and a recovery engine
that restores the newest checkpoint and replays the log tail.  Proven by
the crash-injection suite under ``tests/crash/``.
"""

from repro.persist.checkpoint import (
    CHECKPOINT_PATTERN,
    META_NAME,
    SCHEMA,
    WAL_NAME,
    CheckpointError,
    checkpoint_state,
    cloaker_config,
    cloaker_from_config,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
    write_wal_meta,
)
from repro.persist.digest import system_digest
from repro.persist.indexes import index_from_state, index_state, rect_sides
from repro.persist.recovery import Recovery, RecoveryError

__all__ = [
    "CHECKPOINT_PATTERN",
    "META_NAME",
    "SCHEMA",
    "WAL_NAME",
    "CheckpointError",
    "Recovery",
    "RecoveryError",
    "checkpoint_state",
    "cloaker_config",
    "cloaker_from_config",
    "index_from_state",
    "index_state",
    "list_checkpoints",
    "load_checkpoint",
    "rect_sides",
    "system_digest",
    "write_checkpoint",
    "write_wal_meta",
]
