"""Minimal text tables for experiment reports.

Every experiment in :mod:`repro.evalx.experiments` returns a
:class:`Table`; the CLI and EXPERIMENTS.md print them with
:meth:`Table.to_text`.  No third-party table dependency — results must
render identically everywhere, including inside pytest output.
"""

from __future__ import annotations

from typing import Sequence


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


class Table:
    """A titled table of experiment results."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append a row; cell count must match the headers."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_format_cell(c) for c in cells])

    def column(self, name: str) -> list[str]:
        """All cells of the named column."""
        try:
            idx = self.headers.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def to_text(self) -> str:
        """Fixed-width rendering with the title and a header rule."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)
