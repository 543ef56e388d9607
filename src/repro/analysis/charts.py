"""Plain-text charts for experiment output.

The paper's figures are line plots and scatter plots; this environment has
no plotting toolkit, so the experiment runner renders Unicode/ASCII charts
instead.  Charts aim for "readable in a terminal and in Markdown code
blocks", not publication typography:

* :func:`line_chart` -- one or more ``(x, y)`` series on shared axes,
  each series drawn with its own glyph;
* :func:`histogram` -- horizontal bars for categorical/binned data;
* :func:`sparkline` -- a one-line rate trace for compact summaries.

All functions return strings; nothing prints directly, so callers can
route output to files or stdout as they wish.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

Series = Sequence[Tuple[float, float]]

_GLYPHS = "*o+x#@%&"
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _finite_points(series: Series) -> List[Tuple[float, float]]:
    return [
        (float(x), float(y))
        for x, y in series
        if math.isfinite(x) and math.isfinite(y)
    ]


def _axis_bounds(values: Sequence[float]) -> Tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def line_chart(
    series: Dict[str, Series],
    title: str = "",
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
) -> str:
    """Render named ``(x, y)`` series as a text scatter/line chart.

    Args:
        series: mapping from series name to its points; each series gets a
            distinct glyph, listed in the legend.
        width, height: plot-area size in character cells.
        log_x: place points on a logarithmic x axis (timescale sweeps).

    Points sharing a cell are drawn with the glyph of the *first* series
    plotted there (legend order).  Empty or all-NaN input yields a chart
    frame with a "no data" note rather than raising, so a failed
    experiment still renders a report.
    """
    if width < 16 or height < 4:
        raise ValueError("chart must be at least 16x4 cells")
    cleaned = {name: _finite_points(pts) for name, pts in series.items()}
    all_points = [p for pts in cleaned.values() for p in pts]
    lines: List[str] = []
    if title:
        lines.append(title)
    if not all_points:
        lines.append("(no data)")
        return "\n".join(lines)

    def x_of(value: float) -> float:
        return math.log10(value) if log_x else value

    xs = [x_of(x) for x, _ in all_points if not log_x or x > 0]
    ys = [y for _, y in all_points]
    if not xs:
        lines.append("(no data on a positive log axis)")
        return "\n".join(lines)
    x_lo, x_hi = _axis_bounds(xs)
    y_lo, y_hi = _axis_bounds(ys)

    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(cleaned.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in points:
            if log_x and x <= 0:
                continue
            col = round((x_of(x) - x_lo) / (x_hi - x_lo) * (width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
            cell = grid[height - 1 - row][col]
            if cell == " ":
                grid[height - 1 - row][col] = glyph

    y_hi_text = f"{y_hi:.4g}"
    y_lo_text = f"{y_lo:.4g}"
    margin = max(len(y_hi_text), len(y_lo_text)) + 1
    for i, row_cells in enumerate(grid):
        if i == 0:
            label = y_hi_text.rjust(margin - 1)
        elif i == height - 1:
            label = y_lo_text.rjust(margin - 1)
        else:
            label = " " * (margin - 1)
        lines.append(f"{label}|{''.join(row_cells)}")
    lines.append(" " * margin + "-" * width)
    x_lo_text = f"{10 ** x_lo:.4g}" if log_x else f"{x_lo:.4g}"
    x_hi_text = f"{10 ** x_hi:.4g}" if log_x else f"{x_hi:.4g}"
    footer = " " * margin + x_lo_text
    footer += " " * max(1, width - len(x_lo_text) - len(x_hi_text)) + x_hi_text
    lines.append(footer)
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {name}" for i, name in enumerate(cleaned)
    )
    caption_parts = [part for part in (y_label, "vs", x_label) if part]
    if x_label or y_label:
        lines.append(" " * margin + " ".join(caption_parts))
    lines.append(" " * margin + legend)
    return "\n".join(lines)


def histogram(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = 48,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one labelled bar per value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        lines.append("(no data)")
        return "\n".join(lines)
    finite = [v for v in values if math.isfinite(v)]
    peak = max((abs(v) for v in finite), default=0.0)
    label_width = max(len(str(label)) for label in labels)
    for label, value in zip(labels, values):
        if not math.isfinite(value):
            bar, shown = "?", "nan"
        else:
            length = 0 if peak == 0 else round(abs(value) / peak * width)
            bar = "#" * length
            shown = f"{value:.4g}{unit}"
        lines.append(f"{str(label).rjust(label_width)} | {bar} {shown}")
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Compress a numeric series into one line of block glyphs.

    ``width`` (when given) buckets the series by averaging so long traces
    fit; NaNs render as spaces.
    """
    series = list(values)
    if not series:
        return ""
    if width is not None and width > 0 and len(series) > width:
        bucket = len(series) / width
        condensed = []
        for i in range(width):
            chunk = series[int(i * bucket): int((i + 1) * bucket) or None]
            finite = [v for v in chunk if math.isfinite(v)]
            condensed.append(sum(finite) / len(finite) if finite else math.nan)
        series = condensed
    finite = [v for v in series if math.isfinite(v)]
    if not finite:
        return " " * len(series)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for value in series:
        if not math.isfinite(value):
            chars.append(" ")
            continue
        level = 0 if span == 0 else int((value - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)
