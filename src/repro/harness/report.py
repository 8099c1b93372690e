"""Fixed-width table rendering for the experiment harness."""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    col_width: int = 12,
    first_width: int = 14,
) -> str:
    """Render a simple fixed-width table as a string."""
    out = [title, "=" * len(title)]
    header = f"{columns[0]:<{first_width}}" + "".join(
        f"{c:>{col_width}}" for c in columns[1:]
    )
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        cells = [f"{str(row[0]):<{first_width}}"]
        for cell in row[1:]:
            if isinstance(cell, float):
                cells.append(f"{cell:>{col_width}.2f}")
            else:
                cells.append(f"{str(cell):>{col_width}}")
        out.append("".join(cells))
    return "\n".join(out)

