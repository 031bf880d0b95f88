"""Plain-text reporting helpers.

The benchmark harness prints the same rows/series the paper's tables
and figures report; these helpers keep the formatting consistent across
all benchmarks and examples.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Format a simple fixed-width text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
