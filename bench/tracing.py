"""Per-layer tracing from outside the program.

Span wrappers are installed around the public functions of each homodyn
module by rebinding the name where it is looked up (``homodyn.cli`` for the
experiment runners, ``homodyn.orbits`` and ``homodyn.mollify`` for the calls
made inside those modules).  Per-point private helpers are not wrapped.  Each
span records name, start, end, parent and a work count; self time is the
span's duration minus the duration of its child spans.

The surface and psl2 kernels are reached only through private helpers, so
they are timed as microkernels instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    work: float = 0.0


class Recorder:
    """Spans of one traced pass, kept in memory in start order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as rec:
                result = fn(*args, **kwargs)
            if work is not None:
                rec.work = float(work(args, kwargs, result))
            return result
        return traced

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _sparse_name(args, kwargs):
    return "orbits.sample_sparse_t2" if _arg(args, kwargs, 3, "threads", 1) > 1 \
        else "orbits.sample_sparse"


def _twist_nodes(args, kwargs, _):
    T, freq = _arg(args, kwargs, 1, "T"), _arg(args, kwargs, 2, "frequency")
    cap = 0.05 if freq == 0.0 else min(0.05, 0.1 / abs(freq))
    return max(_arg(args, kwargs, 4, "quad_points", 1000), math.ceil(T / cap))


def _weighted_nodes(args, kwargs, _):
    T, spec = _arg(args, kwargs, 1, "T"), _arg(args, kwargs, 3, "spec")
    step = _arg(args, kwargs, 4, "step", 0.02)
    return math.ceil((spec.gamma + 2.0 * spec.delta) * T / step)


_LEN = lambda a, k, r: len(r)  # noqa: E731

# (module where the name is looked up, name, span name, work count)
WRAPPED = [
    ("homodyn.cli", "reduce", "surface.reduce", None),
    ("homodyn.cli", "sample_sparse", _sparse_name, _LEN),
    ("homodyn.cli", "sample_curve", "orbits.sample_curve", _LEN),
    ("homodyn.cli", "discrepancy", "orbits.discrepancy", None),
    ("homodyn.cli", "twisted_average", "orbits.twisted_average", _twist_nodes),
    ("homodyn.cli", "progression_average", "orbits.progression_average",
     lambda a, k, r: math.ceil(_arg(a, k, 2, "T") / _arg(a, k, 1, "K"))),
    ("homodyn.cli", "piece_decomposition", "orbits.piece_decomposition", None),
    ("homodyn.cli", "emit_csv", "report.emit_csv", None),
    ("homodyn.cli", "emit_svg", "report.emit_svg", lambda a, k, r: len(a[0])),
    ("homodyn.cli", "box_decay_report", "mollify.box_decay_report", None),
    ("homodyn.cli", "weighted_box_average", "mollify.weighted_box_average",
     _weighted_nodes),
    ("homodyn.cli", "verify_mollifier", "mollify.verify_mollifier", None),
    ("homodyn.cli", "verify_good", "goodfn.verify_good", None),
    ("homodyn.cli", "enumerate_orbit", "lattice.enumerate_orbit", _LEN),
    ("homodyn.cli", "sector_count", "lattice.sector_count", lambda a, k, r: r),
    ("homodyn.cli", "gap_constants", "lattice.gap_constants", None),
    ("homodyn.cli", "build_tree", "fractal.build_tree",
     lambda a, k, r: sum(len(level) for level in r.levels[1:])),
    ("homodyn.cli", "dimension_lower_bound", "fractal.dimension_lower_bound", None),
    ("homodyn.cli", "cover_sum", "fractal.cover_sum", None),
    ("homodyn.cli", "point_type_check", "diophantine.point_type_check",
     lambda a, k, r: r[0].vectors_checked),
    ("homodyn.cli", "excursion_type_estimate", "diophantine.excursion_type_estimate", None),
    ("homodyn.cli", "cf_expand", "diophantine.cf_expand", None),
    ("homodyn.cli", "type_estimate", "diophantine.type_estimate", None),
    ("homodyn.cli", "exponent_bundle", "diophantine.exponent_bundle", None),
    ("homodyn.orbits", "curve_hit_ratios", "goodfn.curve_hit_ratios",
     lambda a, k, r: len(r)),
    ("homodyn.orbits", "reduce", "surface.reduce", None),
    ("homodyn.orbits", "r_factor", "surface.r_factor", None),
    ("homodyn.mollify", "box_average", "mollify.box_average",
     lambda a, k, r: math.ceil(_arg(a, k, 1, "T") / _arg(a, k, 3, "step", 0.02))),
]

# modules whose summed self times, with cli.main's, make up a traced pass
MODULES = ("orbits", "surface", "goodfn", "mollify", "lattice", "fractal",
           "diophantine", "report")


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Rebind every WRAPPED name to a span wrapper; restore on exit."""
    saved = []
    try:
        for mod_name, attr, name, work in WRAPPED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, recorder.wrap(name, original, work))
        yield recorder
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def layer_metrics(recorder: Recorder, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass whose in-process wall time was
    ``pass_s``.  A layer the workload never calls reads 0."""
    self_s, dur, work = {}, {}, {}
    for s, own in zip(recorder.spans, recorder.self_times()):
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        work[s.name] = work.get(s.name, 0.0) + s.work

    def per(name):  # ns per unit of work
        return dur.get(name, 0.0) / work[name] * 1e9 if work.get(name) else 0.0

    m = {
        "cli.main_self_s": self_s.get("cli.main", 0.0),
        "report.emit_svg_s": self_s.get("report.emit_svg", 0.0),
        "report.svg_points": work.get("report.emit_svg", 0.0),
        "report.emit_csv_s": self_s.get("report.emit_csv", 0.0),
        "orbits.sample_sparse_ns_per_point": per("orbits.sample_sparse"),
        "orbits.sample_sparse_t2_ns_per_point": per("orbits.sample_sparse_t2"),
        "orbits.sample_curve_ns_per_point": per("orbits.sample_curve"),
        "orbits.discrepancy_s": self_s.get("orbits.discrepancy", 0.0),
        "orbits.points": sum(work.get(n, 0.0) for n in (
            "orbits.sample_sparse", "orbits.sample_sparse_t2", "orbits.sample_curve")),
        "orbits.twisted_average_ns_per_node": per("orbits.twisted_average"),
        "orbits.progression_average_ns_per_point": per("orbits.progression_average"),
        "orbits.nodes": work.get("orbits.twisted_average", 0.0)
        + work.get("orbits.progression_average", 0.0),
        "goodfn.curve_hit_ratios_ns_per_point": per("goodfn.curve_hit_ratios"),
        "goodfn.verify_good_s": self_s.get("goodfn.verify_good", 0.0),
        "mollify.box_average_ns_per_node": per("mollify.box_average"),
        "mollify.weighted_box_average_ns_per_node": per("mollify.weighted_box_average"),
        "mollify.verify_mollifier_s": self_s.get("mollify.verify_mollifier", 0.0),
        "lattice.enumerate_orbit_s": self_s.get("lattice.enumerate_orbit", 0.0),
        "lattice.sector_count_s": self_s.get("lattice.sector_count", 0.0),
        "lattice.gap_constants_s": self_s.get("lattice.gap_constants", 0.0),
        "lattice.vectors": work.get("lattice.enumerate_orbit", 0.0),
        "lattice.sector_yield": (work.get("lattice.sector_count", 0.0)
                                 / work["lattice.enumerate_orbit"]
                                 if work.get("lattice.enumerate_orbit") else 0.0),
        "fractal.build_tree_s": self_s.get("fractal.build_tree", 0.0),
        "fractal.intervals": work.get("fractal.build_tree", 0.0),
        "fractal.cover_sum_s": self_s.get("fractal.cover_sum", 0.0),
        "diophantine.point_type_check_s": self_s.get("diophantine.point_type_check", 0.0),
        "diophantine.vectors_checked": work.get("diophantine.point_type_check", 0.0),
        "diophantine.excursion_type_estimate_s":
            self_s.get("diophantine.excursion_type_estimate", 0.0),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(mod + ".")), 0.0)
    total = sum(self_s.values())
    m["trace.pass_s"] = pass_s
    m["trace.self_total_s"] = total
    m["trace.unattributed_s"] = pass_s - total
    return m


def _median_ns(fn, items, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(items) * 1e9


def microkernels(pairs) -> dict:
    """ns per call of reduce, the cusp norm and composition on (g, h) pairs
    drawn like the workload's elements (see workloads.kernel_elements)."""
    from homodyn.surface import cusp_norm, reduce

    gs = [g for g, _ in pairs]
    return {
        "surface.reduce_ns": _median_ns(reduce, gs),
        "surface.cusp_norm_ns": _median_ns(cusp_norm, gs),
        "psl2.compose_ns": _median_ns(lambda gh: gh[0].compose(gh[1]), pairs),
    }


def _top_level_import_us(report: str, package: str) -> float:
    """Cumulative microseconds of the outermost imports of ``package`` in a
    ``-X importtime`` report (children are printed before their parent)."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(n == package or n.startswith(package + ".") for _, n in stack)
        if (name == package or name.startswith(package + ".")) and not inside:
            total += cumulative
        stack.append((depth, name))
    return float(total)


def import_times(env: dict, repeats: int = 3) -> dict:
    """Seconds that ``import homodyn.cli`` spends importing numpy and scipy,
    from fresh interpreters (median of ``repeats``)."""
    numpy_s, scipy_s = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import homodyn.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        numpy_s.append(_top_level_import_us(proc.stderr, "numpy") / 1e6)
        scipy_s.append(_top_level_import_us(proc.stderr, "scipy") / 1e6)
    return {"cli.import_numpy_s": statistics.median(numpy_s),
            "cli.import_scipy_s": statistics.median(scipy_s)}


def dump(recorder: Recorder, path: str) -> None:
    """Write the spans of a traced pass as JSON lines (for inspection)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, own in zip(recorder.spans, recorder.self_times()):
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "self": own, "work": s.work}) + "\n")

