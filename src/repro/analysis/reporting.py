"""Plain-text table/series rendering for the benchmark harness.

Every bench regenerates one paper table or figure; these helpers print them
in a uniform, diff-friendly format that EXPERIMENTS.md quotes verbatim.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["render_table", "render_series", "format_quantity"]


def format_quantity(value: object) -> str:
    """Human-friendly formatting for table cells."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1_000_000 or abs(value) < 0.01:
            return f"{value:.3g}"
        if abs(value) >= 1000:
            return f"{value:.6g}"  # every digit of a four-to-six-digit value
        return f"{value:.4g}"
    return str(value)


def render_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table with a title banner."""
    cells = [[format_quantity(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} ==", " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(title: str, x_label: str, xs: Sequence[object], series: dict[str, Sequence[object]]) -> str:
    """Render one figure's data series as a table with the x axis first."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [values[i] for values in series.values()])
    return render_table(title, headers, rows)
