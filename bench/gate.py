"""Correctness gate: compare each command's output with reference values.

An output is the CSV (column header and rows) plus the ``# key = value``
parameter lines the CLI prints to stdout.  References were captured by
``capture.py`` for every base in RUN_BASES; a random-matrix base has no
reference and is checked for exit code, CSV shape and the thread-count
contract only.

Tolerances are per column.  Averages of indicator observables get
``abs 1e-6 + 3 / samples``: a more accurate orbit kernel moves points by at
most ~1e-6 at these sizes, which shifts a smooth average by less than 1e-6
and may carry a few points across an indicator's edge, each changing the
average by 1/samples.  A wrong reduction moves averages by 1e-3 or more.
Every other number must match to 1e-9 relative, text exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from workloads import samples_per_mean

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SHARED = "*"  # reference entry for commands that take no base point


class Tol(NamedTuple):
    rel: float = 0.0
    abs: float = 0.0
    flips: float = 0.0  # indicator flips allowed per average


TIGHT = Tol(rel=1e-9)
MEAN = Tol(abs=1e-6, flips=3.0)
DISCREPANCY = {"empirical_mean": MEAN, "discrepancy": MEAN}

# Column (or, for quantity/value tables, quantity) -> tolerance; unlisted
# numbers get TIGHT.
COLUMNS = {
    "orbit": DISCREPANCY,
    "orbit_t2": DISCREPANCY,
    "curve": DISCREPANCY,
    # r_i reads a geodesic translate by log sqrt(M), which amplifies point
    # error by up to sqrt(M) ~ 1e2
    "pieces": {"r_i": Tol(rel=1e-3)},
    "box": {"average": MEAN, "abs_error": MEAN, "eta_at_logT": Tol(rel=1e-6)},
    "twist": {"re": MEAN, "im": MEAN, "abs_centered": MEAN},
    "prog": {"centered_average": MEAN},
    # excursion peaks are read off the float geodesic orbit
    "dio": {"excursion_type": Tol(rel=1e-3)},
    # sublevel endpoints are root-finder outputs refined to 1e-10
    "goodfn": {"C_required": Tol(rel=1e-6), "sublevel_measure": Tol(rel=1e-6)},
    "mollify": {"l1_to_box": Tol(rel=1e-6)},
}
PARAMS = {
    # weighted average over 3e4 nodes of step 0.02 at T = 5e2
    "box": {"weighted_average": Tol(abs=1e-6 + 3.0 * 0.02 / 5e2),
            # slope of log abs_error: inherits the MEAN tolerance at T = 1e2
            "fitted_exponent": Tol(abs=0.1)},
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_output(csv_text: str, stdout_text: str) -> dict:
    lines = csv_text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# homodyn v"):
        raise ValueError("CSV lacks the '# homodyn v<version>' header")
    params = {}
    for line in stdout_text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            params[key] = value
    return {"columns": lines[1].split(","),
            "rows": [line.split(",") for line in lines[2:]],
            "params": params}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: str, ref: str, tol: Tol, samples: float) -> bool:
    g, r = _number(got), _number(ref)
    if g is None or r is None:
        return got == ref
    if math.isnan(g) or math.isnan(r) or math.isinf(g) or math.isinf(r):
        return got == ref
    allowed = tol.rel * max(abs(g), abs(r)) + tol.abs
    if tol.flips:
        allowed += tol.flips / samples
    return abs(g - r) <= allowed


def compare(key: str, got: dict, ref: dict) -> list:
    """Mismatch messages of one command's output against its reference."""
    if got["columns"] != ref["columns"]:
        return [f"{key}: columns {got['columns']} != {ref['columns']}"]
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{key}: {len(got['rows'])} rows, reference has {len(ref['rows'])}"]
    tols = COLUMNS.get(key, {})
    problems = []
    for i, (grow, rrow) in enumerate(zip(got["rows"], ref["rows"])):
        if len(grow) != len(rrow):
            problems.append(f"{key}: row {i} has {len(grow)} fields")
            continue
        named = dict(zip(got["columns"], grow))
        samples = samples_per_mean(key, named) if any(
            t.flips for t in tols.values()) else 1.0
        for col, g, r in zip(got["columns"], grow, rrow):
            tol = tols.get(grow[0] if col == "value" else col)
            if not _close(g, r, tol or TIGHT, samples):
                problems.append(f"{key}: row {i} {col} = {g}, reference {r}")
    ptols = PARAMS.get(key, {})
    for name, r in ref["params"].items():
        g = got["params"].get(name)
        if g is None or not _close(g, r, ptols.get(name, TIGHT), 1.0):
            problems.append(f"{key}: parameter {name} = {g}, reference {r}")
    return problems


def check_pass(outputs: dict, reference, base: str) -> dict:
    """Problems per command of one pass.

    ``outputs`` maps a command key to ``(exit_code, csv_text, stdout_text)``;
    ``reference`` is the loaded reference for the pass's size, or None when
    none applies.
    """
    problems = {}
    for key, (code, csv_text, stdout_text) in outputs.items():
        if code != 0:
            problems[key] = [f"{key}: exit code {code}"]
            continue
        try:
            got = parse_output(csv_text, stdout_text)
        except ValueError as exc:
            problems[key] = [f"{key}: {exc}"]
            continue
        found = []
        if not got["rows"] or any(len(r) != len(got["columns"]) for r in got["rows"]):
            found.append(f"{key}: empty or ragged CSV")
        entry = None
        if reference is not None:
            entry = reference.get(base, {}).get(key) or reference[SHARED].get(key)
        if entry is not None:
            found.extend(compare(key, got, entry))
        problems[key] = found
    # thread-count contract: the CSV must not depend on --threads
    if "orbit" in outputs and "orbit_t2" in outputs:
        if outputs["orbit"][1] != outputs["orbit_t2"][1]:
            problems["orbit_t2"].append("orbit_t2: CSV differs from the 1-thread CSV")
    return problems
