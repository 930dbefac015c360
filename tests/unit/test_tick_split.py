"""``tools/tick_split.py --smoke``: one bulk tick split into its parts."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "tick_split.py")


def test_smoke_split_names_every_part_of_a_bulk_tick():
    done = subprocess.run(
        [sys.executable, TOOL, "--smoke", "--json"],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    result = json.loads(done.stdout)
    parts = {row["part"]: row for row in result["parts"]}
    movers = result["movers"]
    assert movers == result["users"] > 0
    for part in ("update_location", "cloaker.move_user", "run append"):
        assert parts[part]["calls"] == movers, part
    # Every mover's report joins one run: closed, written and tapped once,
    # and each risk tap runs its columnar fold once.
    for part in (
        "run close", "tap users.moved", "tap regions.published_bulk",
        "StreamingDensityModel.move_many", "StreamingPosteriorIndex.publish_many",
        "StreamingLinkageColumns.observe_many",
    ):
        assert parts[part]["calls"] == 1, part
    for part in (
        "bulk_cloak", "grid kernel", "group_stats", "receive_regions", "publish_all", "tick"
    ):
        assert parts[part]["calls"] == 1, part
    # With the WAL attached every event is encoded and written once: each
    # emitted one, and the run's.
    emits = parts["emit (stamp, Event, ring, counter)"]["calls"]
    assert parts["json encode"]["calls"] == parts["sink write"]["calls"] == emits + 1
    assert emits < movers
    assert abs(sum(row["share"] for row in result["parts"]) - 1.0) < 1e-9
    # The risk monitor keeps one linkage row per publishing user.
    assert result["linkage_trackers"] == result["users"]
