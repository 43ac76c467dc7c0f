"""Terminal plotting: the figures, rendered in ASCII.

Minimal, dependency-free renderers good enough to eyeball the paper's
curves from a terminal: a multi-series scatter/line plot and a
histogram-with-overlay (for Figure 6's empirical-vs-Gaussian
comparison).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["line_plot", "histogram_plot"]

_MARKERS = "ox+*#@%&"

#: Columns of a histogram bar at the tallest bin.
HISTOGRAM_WIDTH = 60


def _scale(value: float, lo: float, hi: float, cells: int) -> int:
    if hi == lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return min(max(int(frac * (cells - 1) + 0.5), 0), cells - 1)


def line_plot(series: Dict[str, Sequence[Tuple[float, float]]],
              width: int = 72, height: int = 20,
              title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render one or more (x, y) series as an ASCII scatter plot.

    Parameters
    ----------
    series:
        ``{label: [(x, y), ...]}``; each series gets its own marker.

    Returns the rendered multi-line string.
    """
    if not series:
        raise ConfigurationError("no series to plot")
    points = [(x, y) for pts in series.values() for x, y in pts
              if not (math.isnan(x) or math.isnan(y))]
    if not points:
        raise ConfigurationError("all points are NaN")

    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (label, pts) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in pts:
            if math.isnan(x) or math.isnan(y):
                continue
            col = _scale(x, x_lo, x_hi, width)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title.center(width + 10))
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_hi:9.3g}"
        elif i == height - 1:
            label = f"{y_lo:9.3g}"
        else:
            label = " " * 9
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x_lo:<12.4g}{xlabel.center(width - 24)}{x_hi:>12.4g}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}" for i, label in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    if ylabel:
        lines.append(" " * 10 + f"(y: {ylabel})")
    return "\n".join(lines)


def histogram_plot(edges: Sequence[float], counts: Sequence[int],
                   overlay: Optional[Sequence[float]] = None,
                   title: str = "") -> str:
    """Render a histogram, :data:`HISTOGRAM_WIDTH` columns wide,
    horizontally, optionally overlaying a model curve.

    ``overlay`` gives expected counts per bin (same length as
    ``counts``); its position is marked with ``|`` so the empirical bars
    (``#``) can be compared against it — Figure 6 in a terminal.
    """
    if len(edges) != len(counts) + 1:
        raise ConfigurationError("need len(edges) == len(counts) + 1")
    if overlay is not None and len(overlay) != len(counts):
        raise ConfigurationError("overlay must match counts length")
    width = HISTOGRAM_WIDTH
    peak = max(max(counts), max(overlay) if overlay else 0, 1)
    lines: List[str] = []
    if title:
        lines.append(title)
    for i, count in enumerate(counts):
        bar = "#" * _scale(count, 0, peak, width)
        line = f"{edges[i]:10.1f} |{bar}"
        if overlay is not None:
            pos = _scale(overlay[i], 0, peak, width)
            padded = list(line[12:].ljust(width + 1))
            padded[pos] = "|"
            line = line[:12] + "".join(padded)
        lines.append(line)
    return "\n".join(lines)
