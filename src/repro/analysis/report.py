"""Plain-text report formatting used by benchmarks and EXPERIMENTS.md.

The benches print the same rows/series the paper's figures show; these
helpers keep that formatting consistent and terminal-friendly.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .cdf import EmpiricalCdf


def format_cdf_summary(series: Mapping[str, Sequence[float]], unit: str = "") -> str:
    """Summarize named sample sets as min / p25 / median / p75 / max rows."""
    header = f"{'series':<28}{'n':>5}{'min':>9}{'p25':>9}{'median':>9}{'p75':>9}{'max':>9}"
    lines = [header, "-" * len(header)]
    for name, samples in series.items():
        cdf = EmpiricalCdf(np.asarray(samples, dtype=float))
        low, high = cdf.support()
        lines.append(
            f"{name:<28}{len(cdf):>5}{low:>9.2f}{cdf.quantile(0.25):>9.2f}"
            f"{cdf.median:>9.2f}{cdf.quantile(0.75):>9.2f}{high:>9.2f}"
        )
    if unit:
        lines.append(f"(values in {unit})")
    return "\n".join(lines)


def format_series_table(columns: Mapping[str, Sequence[float]]) -> str:
    """Render equal-length named columns as an aligned text table."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = len(arrays[0]) if arrays else 0
    if any(len(a) != length for a in arrays):
        raise ValueError("all columns must have equal length")
    header = "".join(f"{name:>12}" for name in names)
    lines = [header, "-" * len(header)]
    for i in range(length):
        lines.append("".join(f"{a[i]:>10.3f}" for a in arrays))
    return "\n".join(lines)


def format_gain_line(label: str, gain: float) -> str:
    """One-line 'label: +NN.N%' gain statement matching the paper's phrasing."""
    return f"{label}: {gain * 100:+.1f}%"
