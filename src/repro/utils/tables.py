"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows/series the paper plots; this
module renders them as aligned ASCII tables so the output is readable in a
terminal and diff-able between runs.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table"]


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    >>> print(format_table(["x", "y"], [[1, 2.0]]))
    x  y
    -  ------
    1  2.0000
    """
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have exactly one cell per header")
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(header)
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            "  ".join(
                c.ljust(w) for c, w in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines)
