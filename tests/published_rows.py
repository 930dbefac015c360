"""The two forms of a ``regions.published_bulk`` event, each from the other.

The event carries the bulk round's columns: ``users``, ``pseudonyms``, the
distinct-region table ``sides`` and each user's row in it, ``region``.
Before that it carried one ``[user, pseudonym, min_x, min_y, max_x,
max_y]`` row per user under ``regions``.  No WAL reader reads that form
any more; the tests use it as a second spelling of the same publication
(pinned digests, publications built row by row).
"""

from __future__ import annotations


def columns_from_rows(rows) -> dict:
    """The column attrs of a publication given as rows; equal sides share
    one table row, numbered in order of first appearance."""
    table: dict[tuple, int] = {}
    region = [table.setdefault(tuple(row[2:]), len(table)) for row in rows]
    return {
        "users": [row[0] for row in rows],
        "pseudonyms": [row[1] for row in rows],
        "sides": [list(sides) for sides in table],
        "region": region,
    }


def rows_from_columns(attrs) -> list[list]:
    """The per-user rows a column-form publication stands for."""
    sides = attrs["sides"]
    columns = zip(attrs["users"], attrs["pseudonyms"], attrs["region"])
    return [[user, pseudonym, *sides[row]] for user, pseudonym, row in columns]
