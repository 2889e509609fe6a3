"""Workload definitions: the base-point pool, the command list of each
workload, and the group elements the traced microkernels run on.

A workload is a fixed list of ``homodyn`` subcommands.  The seed only picks
the base point; every other parameter is the README default, except the
sizes (N, points, T lists, l, schedule), which are cut so that several
passes fit in one run.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0
# Bases a run can draw.  Their passes cost the same to within a few percent;
# the Liouville bases, whose orbits linger in the cusp, run passes about 10%
# cheaper, so a seed that drew one would move the run's medians by the draw,
# not by the code.  They stay in the accuracy probe (PROBE_BASES).
RUN_BASES = ("golden", "sqrt2", "e")
PROBE_BASES = RUN_BASES + ("liouville(2)", "liouville(3)")
SIZES = ("full", "tiny")

# Why each one exists is in BENCHMARK.json and README.md.
WORKLOADS = ("sparse-orbit", "horocycle-quad", "arithmetic")


def base_for_seed(seed: int) -> str:
    """The base point of every pass of a run: ``golden`` (the README
    default) for the default seed, otherwise a run base or a random
    determinant-one matrix with entries of order one."""
    if seed == DEFAULT_SEED:
        return "golden"
    rng = random.Random(seed)
    pick = rng.randrange(len(RUN_BASES) + 1)
    if pick < len(RUN_BASES):
        return RUN_BASES[pick]
    a = rng.uniform(0.5, 1.5)
    b = rng.uniform(-0.5, 0.5)
    c = rng.uniform(0.5, 1.5)
    d = (1.0 + b * c) / a
    return f"{a!r},{b!r},{c!r},{d!r}"


def commands(workload: str, base: str, size: str = "full") -> list:
    """(key, argv) pairs of one pass; argv excludes the program name.

    Every command writes its CSV to ``<key>.csv`` in the working directory.
    """
    full = size == "full"
    b = f"--base={base}"
    if workload == "sparse-orbit":
        n = "20000" if full else "2000"
        cmds = [
            ("orbit", ["orbit", b, "--N", n, "--svg", "orbit.svg"]),
            ("orbit_t2", ["orbit", b, "--N", n, "--threads", "2"]),
            ("curve", ["curve", b, "--points", n, "--svg", "curve.svg"]),
            ("pieces", ["pieces", b, "--N", "15000" if full else "1000"]),
        ]
    elif workload == "horocycle-quad":
        cmds = [
            ("box", ["box", b, "--weighted", "--T"] + (["1e2", "5e2"] if full else ["20", "50"])),
            ("twist", ["twist", b, "--T"] + (["1e2", "1e3"] if full else ["20", "50"])),
            ("prog", ["prog", b] + ([] if full else ["--T", "1e2", "1e3"])),
        ]
    elif workload == "arithmetic":
        cmds = [
            ("count", ["count", "--l", "400" if full else "50"]),
            ("dim", ["dim"] + (["--schedule", "50,1200"] if full
                             else ["--levels", "1", "--schedule", "50", "--R", "1000"])),
            ("dio", ["dio", b] + ([] if full else ["--bound", "100"])),
            ("goodfn", ["goodfn"]),
            ("mollify", ["mollify"]),
            ("constants", ["constants"]),
        ]
    else:
        raise KeyError(workload)
    return [(key, argv + ["--out", f"{key}.csv"]) for key, argv in cmds]


def kernel_elements(workload: str, base: str, count: int, seed: int):
    """(g, h) pairs for the surface/psl2 microkernels, drawn the way the
    workload draws them: g = p u(t) or p a(t) with the workload's time range,
    h the flow element."""
    from homodyn.cli import parse_base
    from homodyn.psl2 import diagonal_flow, unipotent
    from homodyn.surface import reduce

    rng = random.Random(seed)
    p = reduce(parse_base(base)).rep
    pairs = []
    for _ in range(count):
        if workload == "sparse-orbit":
            h = unipotent(rng.randrange(20000) ** 1.01)
        elif workload == "horocycle-quad":
            h = unipotent(rng.uniform(0.0, 1e3))
        else:  # arithmetic: geodesic translates up to the excursion horizon
            h = diagonal_flow(rng.uniform(0.0, 35.0))
        pairs.append((p.compose(h), h))
    return pairs


def samples_per_mean(key: str, row: dict) -> float:
    """Number of samples behind the averages in one CSV row; a point that
    moves across an indicator's edge changes such an average by 1/samples."""
    if key in ("orbit", "orbit_t2", "curve"):
        return float(row["N_prefix"])
    T = float(row["T"])
    if key == "twist":  # composite midpoint, step min(0.05, 0.1/frequency)
        return float(max(1000, math.ceil(T / 0.05)))
    if key == "prog":
        return float(math.ceil(T / float(row["K"])))
    if key == "box":
        return float(math.ceil(T / 0.02))
    raise KeyError(key)
