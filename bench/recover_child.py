"""A fresh process that recovers one WAL directory and reports on it.

Usage: ``python recover_child.py <repo root> <wal dir>``.  Prints one
JSON object: machine-normalised and wall seconds spent inside
``Recovery(dir).recover()`` (interpreter start and imports excluded),
WAL tail events replayed, and the SHA-256 of the recovered system's
canonical digest.
"""

import hashlib
import json
import os
import sys
from time import perf_counter


def digest_of(system) -> str:
    """SHA-256 of the system's canonical ``system_digest`` document."""
    from repro.persist import system_digest

    document = json.dumps(system_digest(system), sort_keys=True, default=str)
    return hashlib.sha256(document.encode()).hexdigest()


def main() -> int:
    root = sys.argv[1]
    sys.path[0] = root  # not this directory: its trace.py must not shadow the stdlib's
    sys.path.insert(1, os.path.join(root, "src"))
    from bench import reference
    from repro.persist import Recovery

    reference.sample()  # the first run of the kernel is cold; discard it
    before = reference.sample()
    started = perf_counter()
    recovery = Recovery(sys.argv[2])
    system = recovery.recover()
    raw = perf_counter() - started
    seconds = raw * reference.scale(before, reference.sample())
    print(json.dumps({
        "seconds": seconds,
        "raw_seconds": raw,
        "replayed": recovery.report["replayed"],
        "checkpoint": recovery.report["checkpoint"],
        "digest": digest_of(system),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
