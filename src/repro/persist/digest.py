"""Canonical state digest: the recovery-equivalence yardstick.

:func:`system_digest` reduces a :class:`~repro.core.system.PrivacySystem`
to one JSON-serialisable dict covering every durable fact: the user and
registration tables (profiles included), the pseudonym counter, both
server stores' contents and versions, the server's operational counters,
and the QoS ledger summary.  Two systems with equal digests answer every
query identically (stores and profiles determine answers; counters and
ledger determine reports).

Ids are canonicalised through ``str()`` and collections are sorted, so a
live system and its recovered twin — whose ids round-tripped through
JSON as strings and whose indexes were rebuilt in sorted order — compare
equal exactly when they are semantically equivalent.  The crash-injection
suite (``tests/crash/``) asserts digest equality between an uncrashed
reference run and recover-after-crash across generated workloads.

Deliberately excluded (documented ephemeral state, docs/durability.md):
telemetry metrics/spans, planner calibration, the incremental cloaker's
reuse cache, index work counters, and standing monitors' accumulated
results (monitors are re-registered and re-seeded on restore).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.profiles import profile_rows
from repro.persist.indexes import rect_sides

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PrivacySystem


def system_digest(system: "PrivacySystem") -> dict:
    """Canonical digest of every durable fact in ``system``."""
    anonymizer = system.anonymizer
    server = system.server
    ledger = system.ledger
    return {
        "clock": system.clock,
        "bounds": rect_sides(system.bounds),
        "rotate_pseudonyms": anonymizer.rotate_pseudonyms,
        "pseudonym_seq": anonymizer._pseudonym_seq,
        "users": {
            str(user_id): [
                user.location.x,
                user.location.y,
                user.mode.value,
                user.speed,
                profile_rows(user.profile),
            ]
            for user_id in sorted(system.users, key=str)
            for user in (system.users[user_id],)
        },
        "registrations": {
            str(user_id): [
                registration.pseudonym,
                registration.published,
                profile_rows(registration.profile),
            ]
            for user_id in sorted(anonymizer._registrations, key=str)
            for registration in (anonymizer._registrations[user_id],)
        },
        "public": {
            str(object_id): [point.x, point.y]
            for object_id, point in sorted(
                server.public.items(), key=lambda kv: str(kv[0])
            )
        },
        "private": {
            str(pseudonym): rect_sides(region)
            for pseudonym, region in sorted(
                server.private.items(), key=lambda kv: str(kv[0])
            )
        },
        "store_versions": [server.public.version, server.private.version],
        "monitors": sorted(str(monitor_id) for monitor_id in server._monitors),
        "server": server.stats().as_dict(),
        "qos": ledger.summary(),
    }
