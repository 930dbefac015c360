"""The columnar bulk publication writes the WAL the row form wrote.

``regions.published_bulk`` carries the bulk round's columns (users,
pseudonyms, the distinct-region table ``sides`` and each user's
``region`` row in it) where it used to carry one ``[user, pseudonym,
min_x, min_y, max_x, max_y]`` row per user.  Expanded back to those rows,
the WAL of a smoke-size run of each bulk benchmark workload equals,
record for record, the WAL the row-form writer produced: the digests
below were taken from that writer's tree on the same runs.  Timing fields
and ``seq`` are left out, as are ``risk.scored`` records, whose number
follows the wall clock.  The typed columns (``repro.wal/3``) are read
back and expanded to the lists that writer wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest
from published_rows import rows_from_columns

from repro.obs.events import read_jsonl
from repro.persist.checkpoint import WAL_NAME

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Row-form WAL digests: workload -> (records compared, sha256).
ROW_FORM_DIGESTS = {
    "bulk_publish_40k": (
        4444, "644ab09f73a3b85c347331202bd549128012f61fc5fe4e53142edfa45e83f13d"
    ),
    "pipeline_10k": (
        1640, "15b8b366fd863036d891e9b40e3d5939a7cf8706f30b4c17cdcc17c8c86066ab"
    ),
}


def _row_form(record: dict) -> dict | None:
    """``record`` as the row-form writer wrote it, timings and seq dropped."""
    if record["kind"] == "risk.scored":
        return None
    record = {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in record.items()
        if key not in ("seq", "seconds") and not key.endswith(("_s", "_us"))
    }
    if record["kind"] == "regions.published_bulk":
        record["regions"] = rows_from_columns(record)
        for column in ("users", "pseudonyms", "sides", "region"):
            del record[column]
    return record


@pytest.mark.parametrize("workload_name", sorted(ROW_FORM_DIGESTS))
def test_smoke_wal_expanded_to_rows_equals_the_row_form_writers(
    workload_name, tmp_path
):
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from bench.pipeline import Run
    from bench.workloads import WORKLOADS

    run = Run(
        WORKLOADS[workload_name].scaled(20), 5, 0.0, False, str(tmp_path),
        log=lambda *_: None,
    )
    run.set_up()
    for _ in range(3):
        run.bulk_tick(run.inputs.plan())
    run.system.obs.events.detach_jsonl()
    [wal] = [
        os.path.join(directory, name)
        for directory, _, names in os.walk(tmp_path)
        for name in names
        if name == WAL_NAME
    ]
    records = [event.to_dict() for event in read_jsonl(wal)]
    assert any("region" in r for r in records if r["kind"] == "regions.published_bulk")
    rows = [row for row in map(_row_form, records) if row is not None]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert (len(rows), digest) == ROW_FORM_DIGESTS[workload_name]
