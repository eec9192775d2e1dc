"""Plain-text table / series formatting used by the benchmark harnesses.

The benches print their results in the same row structure as the paper's
tables and figures; these helpers keep that formatting in one place so
every bench's printed rows and persisted JSON stay consistent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Union

from repro.training.experiment import ExperimentResult


def format_table(results: Sequence[ExperimentResult], columns: Sequence[str] | None = None) -> str:
    """Render experiment results as an aligned plain-text table."""
    rows = [result.as_row() for result in results]
    if not rows:
        return "(no results)"
    if columns is None:
        columns = [c for c in rows[0] if any(row.get(c) for row in rows)]
    widths = {c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def format_series(
    title: str, series: Mapping[str, Sequence[float]], x_label: str = "epoch"
) -> str:
    """Render named numeric series (a figure's line plot) as aligned text columns."""
    names = list(series)
    if not names:
        return f"{title}\n(no series)"
    length = max(len(values) for values in series.values())
    widths = {name: max(len(name), 8) for name in names}
    lines = [title, "  ".join([x_label.ljust(6)] + [name.ljust(widths[name]) for name in names])]
    for i in range(length):
        cells = [str(i).ljust(6)]
        for name in names:
            values = series[name]
            cell = f"{values[i]:.3f}" if i < len(values) else ""
            cells.append(cell.ljust(widths[name]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def dump_results(
    path: Union[str, Path],
    results: Union[Sequence[ExperimentResult], Dict],
) -> Path:
    """Write results to a JSON file (used to persist bench outputs)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(results, dict):
        payload = results
    else:
        payload = [result.as_row() | {"series": result.series} for result in results]
    path.write_text(json.dumps(payload, indent=2))
    return path
