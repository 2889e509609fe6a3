"""Tabular experiment records and their CSV serialization, and the memory
guard that every array experiment checks before it allocates."""

from __future__ import annotations

from . import __version__

_COUNT_GUARD = 5 * 10**7  # array elements one request may ask for


class CapacityError(ValueError):
    """Requested enumeration exceeds the configured guards."""


def check_capacity(count: float, what: str) -> None:
    """Refuse, before allocating, a request for count array elements beyond
    the memory guard."""
    if count > _COUNT_GUARD:
        raise CapacityError(f"~{count:.2g} {what} exceed the memory guard")


def _fmt(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


class ExperimentReport:
    """One experiment's parameters and measured statistics, CSV-serializable.

    A plain slots class, not a dataclass: importing dataclasses and
    creating one costs more than the constants command computes."""

    __slots__ = ("params", "columns", "rows")
    params: dict
    columns: list
    rows: list

    def __init__(self, params=None, columns=None, rows=None):
        self.params = {} if params is None else params
        self.columns = [] if columns is None else columns
        self.rows = [] if rows is None else rows

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
