"""Tabular experiment records and their CSV/SVG serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__


def _fmt(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


@dataclass
class ExperimentReport:
    """One experiment's parameters and measured statistics, CSV-serializable."""

    params: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != {len(self.columns)} declared columns"
            )
        self.rows.append(tuple(values))


def emit_csv(report: ExperimentReport, path: str) -> None:
    """Write the report with a fixed header; always LF endings, dot decimals."""
    lines = [f"# homodyn v{__version__}"]
    lines.append(",".join(str(c) for c in report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# Scatter plot of reduced points in the standard fundamental domain.
_SVG_VIEW = (-0.6, 0.8, 0.6, 4.0)  # x_min, y_min, x_max, y_max (math coords)


def emit_svg(xs, ys, path: str) -> None:
    """Scatter of fundamental-domain points; y > 4 is drawn on the top border.

    The viewBox is fixed to [-0.6, 0.6] x [0.8, 4]; points whose markers
    print identically collapse to one marker, in first-occurrence order.
    """
    x0, y0, x1, y1 = _SVG_VIEW
    # SVG y axis points down: plot (x, -y)
    marks = (f'<circle cx="{float(x):.6f}" cy="{-min(float(y), y1):.6f}" r="0.006"/>'
             for x, y in zip(xs, ys))
    width = x1 - x0
    height = y1 - y0
    body = "\n".join(dict.fromkeys(marks))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {-y1} {width} {height}">\n'
        f'<rect x="{x0}" y="{-y1}" width="{width}" height="{height}" '
        f'fill="white" stroke="black" stroke-width="0.004"/>\n'
        f'<g fill="black">\n{body}\n</g>\n</svg>\n'
    )
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        fh.write(svg)
