"""Plain-text rendering of experiment results.

The repository regenerates every figure as a numeric series rendered
as an aligned text table (no plotting dependency is guaranteed
offline; the CLI prints these tables, and ``--json DIR`` writes the
same series as JSON).  This module holds the small formatting toolkit
the experiment modules share.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = ["format_value", "render_table", "render_kv", "subsample_rows"]


def format_value(value, *, precision: int = 4) -> str:
    """Format one cell: floats to fixed precision, inf as 'never'."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "never"
        if math.isnan(value):
            return "nan"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Row values (any mix of str/int/float/None).
    precision:
        Decimal places for float cells.
    title:
        Optional table caption printed above.
    """
    if not headers:
        raise ValueError("headers must not be empty")
    formatted = [
        [format_value(cell, precision=precision) for cell in row] for row in rows
    ]
    for row in formatted:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(str(header)), *(len(row[i]) for row in formatted))
        if formatted
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).rjust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in formatted:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_kv(pairs: Dict[str, object], *, title: Optional[str] = None) -> str:
    """Render key/value metadata as aligned lines."""
    if not pairs:
        raise ValueError("pairs must not be empty")
    width = max(len(key) for key in pairs)
    lines = [title] if title else []
    for key, value in pairs.items():
        lines.append(f"{key.ljust(width)} : {format_value(value)}")
    return "\n".join(lines)


def subsample_rows(rows: Sequence[Sequence[object]], max_rows: int = 12) -> List:
    """Evenly subsample table rows, always keeping the first and last."""
    if max_rows < 2:
        raise ValueError("max_rows must be at least 2")
    rows = list(rows)
    if len(rows) <= max_rows:
        return rows
    step = (len(rows) - 1) / (max_rows - 1)
    indices = sorted({round(i * step) for i in range(max_rows)})
    indices[-1] = len(rows) - 1
    return [rows[i] for i in indices]
