"""Result containers and rendering for the experiment harness.

Experiments produce :class:`ResultTable` objects (rows of measured values next
to the paper's reported values) and :class:`CurveSet` objects (named series,
e.g. the Fig. 5 loss curves).  Both render to plain text so benchmark runs can
print them and EXPERIMENTS.md can embed them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

__all__ = ["ResultTable", "CurveSet", "ascii_plot"]


@dataclass
class ResultTable:
    """A table of per-model results with optional paper reference values.

    Attributes
    ----------
    title:
        Table title, e.g. ``"Table IV — testing performance on UNSW-NB15"``.
    columns:
        Ordered column keys present in every row.
    rows:
        Measured rows (dicts keyed by column).
    paper_rows:
        Paper-reported rows keyed by model name (may cover fewer columns).
    notes:
        Free-form notes (scale used, substitutions, interpretation caveats).
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    paper_rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append a measured row (missing columns render as blanks)."""
        self.rows.append(dict(values))

    def row_for(self, model: str) -> Dict[str, object]:
        """Return the measured row for ``model`` (KeyError if absent)."""
        for row in self.rows:
            if row.get("model") == model:
                return row
        raise KeyError(f"no measured row for model {model!r}")

    def column_values(self, column: str) -> List[float]:
        """All measured values of one column, in row order."""
        return [float(row[column]) for row in self.rows if column in row]

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _format_value(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    def render(self) -> str:
        """Render the table (and the paper's values, when known) as text."""
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(f"{column:>14s}" for column in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            rendered = " | ".join(
                f"{self._format_value(row.get(column, '')):>14s}" for column in self.columns
            )
            lines.append(rendered)

        if self.paper_rows:
            lines.append("")
            lines.append("Paper-reported values:")
            for model, metrics in self.paper_rows.items():
                rendered = ", ".join(f"{k}={v}" for k, v in metrics.items())
                lines.append(f"  {model:>14s}: {rendered}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialise the measured rows (and notes) to JSON."""
        return json.dumps(
            {"title": self.title, "rows": self.rows, "notes": self.notes}, indent=2
        )

    def __str__(self) -> str:
        return self.render()


@dataclass
class CurveSet:
    """Named series over a shared x-axis (e.g. loss per epoch per network)."""

    title: str
    x_label: str
    y_label: str
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        values = [float(v) for v in values]
        if self.x_values and len(values) != len(self.x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} points, expected {len(self.x_values)}"
            )
        self.series[name] = values

    def final_values(self) -> Dict[str, float]:
        """Last point of every series (used for paper-vs-measured comparisons)."""
        return {name: values[-1] for name, values in self.series.items() if values}

    def render(self, width: int = 70, height: int = 14) -> str:
        """ASCII rendering: one sparkline block per series plus final values."""
        lines = [self.title, "=" * len(self.title)]
        lines.append(ascii_plot(self.x_values, self.series, width=width, height=height))
        lines.append(f"x: {self.x_label}   y: {self.y_label}")
        for name, value in self.final_values().items():
            lines.append(f"  final {name}: {value:.4f}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def ascii_plot(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 70,
    height: int = 14,
) -> str:
    """Plot several series on a shared ASCII canvas.

    Each series is drawn with its own marker character; the legend maps the
    markers back to series names.  This stands in for the paper's matplotlib
    figures in an environment without plotting libraries.
    """
    markers = "*o+x#@%&"
    populated = {name: list(values) for name, values in series.items() if len(values)}
    if not populated:
        return "(no data)"

    all_values = [v for values in populated.values() for v in values]
    minimum, maximum = min(all_values), max(all_values)
    if maximum == minimum:
        maximum = minimum + 1.0

    canvas = [[" "] * width for _ in range(height)]
    for series_index, (name, values) in enumerate(populated.items()):
        marker = markers[series_index % len(markers)]
        n_points = len(values)
        for point_index, value in enumerate(values):
            column = (
                int(round(point_index / max(n_points - 1, 1) * (width - 1)))
                if n_points > 1
                else 0
            )
            row = int(round((value - minimum) / (maximum - minimum) * (height - 1)))
            canvas[height - 1 - row][column] = marker

    lines = ["".join(row) for row in canvas]
    lines.append("-" * width)
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(populated)
    )
    lines.append(legend)
    lines.append(f"y-range: [{minimum:.4f}, {maximum:.4f}]")
    return "\n".join(lines)
