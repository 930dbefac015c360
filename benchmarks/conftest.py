"""Shared infrastructure for the four micro-gates.

Each gate writes one ``BENCH_<name>.json`` at the repo root through the
``write_report`` fixture, stamped with its schema and the commit it
measured.  The end-to-end ruler is ``bench/run.py``; the paper tables come
from ``python -m repro experiments``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Callable, Mapping

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str:
    """The short commit sha of the checkout, or ``"unknown"`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@pytest.fixture
def write_report() -> Callable[[Mapping, str, Path], dict]:
    """``write_report(report, schema, path)``: stamp and write a gate's report."""

    def _write(report: Mapping, schema: str, path: Path) -> dict:
        stamped = {"schema": schema, "git_sha": _git_sha(), **report}
        path.write_text(
            json.dumps(stamped, indent=2, sort_keys=True, default=str) + "\n"
        )
        return stamped

    return _write
