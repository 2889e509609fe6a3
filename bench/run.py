"""homodyn benchmark: closed-loop CLI workloads, a traced in-process pass,
and an mpmath accuracy probe.

    python3 bench/run.py --workload sparse-orbit --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0   # every metric by name

With ``--trace 0`` the workload's commands run as child processes, one at a
time, each started after the previous one exits, in passes until
``--seconds`` have gone by; the end-to-end metrics are medians over passes.
A fixed reference task runs after every command, and the gated time is a
pass's CPU time over the reference task's, so that the machine's drift in
speed cancels.
With ``--trace 1`` the same commands run in this process through
``homodyn.cli.main``, alternating untraced and traced passes, and the
per-layer metrics are medians over the traced passes.  Either way every
output is checked (gate.py) and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# one BLAS thread; the orbit_t2 command adds the program's own second thread
_THREAD_ENV = {"HOMODYN_THREADS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(_THREAD_ENV)

import gate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import (DEFAULT_SEED, SIZES, WORKLOADS, base_for_seed,  # noqa: E402
                       commands, kernel_elements)

SETUP_REPEATS = 3
# The reference task: a fresh interpreter that imports numpy and makes 25
# passes over a 10^6-float array, about 0.3 CPU seconds in all.  It does
# not touch homodyn, so its cost moves only with the machine's speed.  Its
# mix of interpreter start, imports and memory-bound array work slows with
# the machine about as much as the workloads' commands do; a pure-Python
# loop slowed less.
REFERENCE_TASK = ["-c", "\n".join([
    "import numpy",
    "a = numpy.arange(1_000_000, dtype=float)",
    "for _ in range(25): a = numpy.sqrt(a * a + 1.0)",
])]
CMD_TIMEOUT_S = 150.0
PROBE_N_MAX = {"full": 10_000, "tiny": 1_000}
# the float kernel reaches 1.7e-4 at t = 1e6 and an exact re-evaluation 1e-16;
# a wrong reduction puts points O(1) away
PROBE_LIMIT = 1e-3

END_TO_END = {"cpu_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "orbit_err_max": "hyp_dist"}
COUNT_METRICS = {"report.svg_points", "orbits.points", "orbits.nodes", "lattice.vectors",
                 "fractal.intervals", "diophantine.vectors_checked"}


def layer_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name == "lattice.sector_yield":
        return "ratio"
    return "ns" if "_ns" in name else "s"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_facts() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    def calibration_s():  # fixed pure-Python loop: drift between run sets shows here
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        return time.perf_counter() - t0

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "loadavg_1m": os.getloadavg()[0],
        "calibration_s": statistics.median(calibration_s() for _ in range(3)),
    }


def spawn(args: list, cwd: Path, env: dict, stdout, stderr) -> dict:
    """Run ``python args`` to completion: exit code, wall time, CPU time
    (user + system, which excludes time the hypervisor steals) and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args, cwd=cwd, env=env, stdout=stdout,
                            stderr=stderr)
    watchdog = threading.Timer(CMD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": time.perf_counter() - t0,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def setup_times(env: dict, workdir: Path, repeats: int) -> list:
    """CPU seconds of fresh interpreters doing ``import homodyn.cli``."""
    out = []
    for _ in range(repeats):
        r = spawn(["-c", "import homodyn.cli"], workdir, env, subprocess.DEVNULL, None)
        if r["code"] != 0:
            raise RuntimeError(f"import homodyn.cli exited {r['code']}")
        out.append(r["cpu"])
    return out


def reference_time(env: dict, workdir: Path) -> float:
    """CPU seconds of one run of the reference task."""
    r = spawn(REFERENCE_TASK, workdir, env, subprocess.DEVNULL, None)
    if r["code"] != 0:
        raise RuntimeError(f"the reference task exited {r['code']}")
    return r["cpu"]


def run_child(argv: list, workdir: Path, key: str, env: dict) -> dict:
    """Run one CLI command; its stdout and stderr go to <key>.out and .err."""
    with open(workdir / f"{key}.out", "w") as out, open(workdir / f"{key}.err", "w") as err:
        return spawn(["-m", "homodyn.cli"] + argv, workdir, env, out, err)


def _read(path: Path):
    return path.read_text(encoding="ascii", errors="replace") if path.exists() else None


def collect(cmds, workdir: Path, codes: dict, stdout: dict) -> dict:
    return {key: (codes[key], _read(workdir / f"{key}.csv"), stdout[key]) for key, _ in cmds}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def summarize(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "n": len(values), "q1": q[0], "q3": q[2]}


def print_table(title: str, rows: dict, units: dict) -> None:
    print(f"# {title}")
    for name, values in rows.items():
        s = summarize(values)
        print(f"{name:44s} {s['median']:14.6g} {units[name]:8s} n={s['n']:<3d} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g}")


class Tally:
    """Commands attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems: dict) -> None:
        self.attempted += len(problems)
        for found in problems.values():
            if found:
                self.failed += 1
                self.problems.extend(found[:3])


def measure(workload: str, seed: int, seconds: float, size: str, reference, tally: Tally):
    """--trace 0: closed-loop passes of child processes."""
    env = child_env()
    base = base_for_seed(seed)
    cmds = commands(workload, base, size)
    workdir = fresh_dir(WORK / workload)
    setup = setup_times(env, workdir, SETUP_REPEATS if size == "full" else 1)
    err = oracle.orbit_err_max(PROBE_N_MAX[size])
    tally.attempted += 1
    if not err <= PROBE_LIMIT:
        tally.failed += 1
        tally.problems.append(f"orbit_err_max {err:.3g} above {PROBE_LIMIT}")
    per_cmd = {f"{key}{kind}": [] for key, _ in cmds for kind in ("_s", "_cpu_s")}
    passes = {"cpu_rel": [], "cpu_s": [], "wall_s": [], "peak_rss_mb": []}
    reference_cpu = []
    deadline = time.perf_counter() + seconds
    elapsed = 0.0  # of the last pass, reference tasks included
    while not passes["wall_s"] or time.perf_counter() + elapsed <= deadline:
        t0 = time.perf_counter()
        results, pass_reference = {}, []
        for key, argv in cmds:
            results[key] = run_child(argv, workdir, key, env)
            pass_reference.append(reference_time(env, workdir))
        elapsed = time.perf_counter() - t0
        reference_cpu += pass_reference
        cpu = sum(r["cpu"] for r in results.values())
        # each command is followed by a reference task, so both sample the
        # same stretch of the machine's speed
        passes["cpu_rel"].append(cpu / statistics.mean(pass_reference))
        passes["cpu_s"].append(cpu)
        passes["wall_s"].append(sum(r["wall"] for r in results.values()))
        passes["peak_rss_mb"].append(max(r["rss_mb"] for r in results.values()))
        for key, r in results.items():
            per_cmd[f"{key}_s"].append(r["wall"])
            per_cmd[f"{key}_cpu_s"].append(r["cpu"])
        stdout = {key: _read(workdir / f"{key}.out") or "" for key, _ in cmds}
        codes = {key: r["code"] for key, r in results.items()}
        tally.add(gate.check_pass(collect(cmds, workdir, codes, stdout), reference, base))
    rows = {"setup_s": setup, **passes, "reference_cpu_s": reference_cpu,
            "orbit_err_max": [err], **per_cmd}
    units = {**END_TO_END, "cpu_s": "s", "wall_s": "s", "reference_cpu_s": "s",
             **{k: "s" for k in per_cmd}}
    print(f"# base {base}")
    print_table(f"{workload}: end-to-end (medians over passes)", rows, units)
    return {name: statistics.median(rows[name]) for name in END_TO_END}


def inprocess_pass(cmds, workdir: Path, recorder=None):
    """One pass through homodyn.cli.main in this process."""
    import homodyn.cli

    codes, stdout = {}, {}
    cwd = os.getcwd()
    os.chdir(workdir)
    t0 = time.perf_counter()
    try:
        for key, argv in cmds:
            buf = io.StringIO()
            span = recorder.span("cli.main") if recorder else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[key] = homodyn.cli.main(list(argv))
                except Exception as exc:  # a traceback breaks the CLI contract
                    codes[key] = f"uncaught {type(exc).__name__}: {exc}"
            stdout[key] = buf.getvalue()
        wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return wall, collect(cmds, workdir, codes, stdout)


def trace(workload: str, seed: int, seconds: float, size: str, reference, tally: Tally):
    """--trace 1: untraced and traced in-process passes, ABBA order."""
    env = child_env()
    base = base_for_seed(seed)
    cmds = commands(workload, base, size)
    workdir = fresh_dir(WORK / f"{workload}-trace")
    metrics = tracing.import_times(env, 3 if size == "full" else 1)
    walls = {False: [], True: []}
    layers = []
    recorder = None
    deadline = time.perf_counter() + seconds
    step = 0
    while not walls[True] or time.perf_counter() < deadline:
        traced = step % 4 in (1, 2)  # U T T U U T T U ...
        step += 1
        if traced:
            recorder = tracing.Recorder()
            with tracing.installed(recorder):
                wall, outputs = inprocess_pass(cmds, workdir, recorder)
            layers.append(tracing.layer_metrics(recorder, wall))
        else:
            wall, outputs = inprocess_pass(cmds, workdir)
        walls[traced].append(wall)
        tally.add(gate.check_pass(outputs, reference, base))
    tracing.dump(recorder, str(workdir / "spans.jsonl"))
    metrics.update(tracing.microkernels(kernel_elements(workload, base, 2000, seed)))
    rows = {name: [m[name] for m in layers] for name in layers[0]}
    rows.update({name: [v] for name, v in metrics.items()})
    rows["trace.overhead_s"] = [statistics.median(walls[True]) - statistics.median(walls[False])]
    print(f"# base {base}; untraced passes {len(walls[False])}, traced {len(walls[True])}")
    print_table(f"{workload}: per-layer (medians over traced passes)", rows,
                {name: layer_unit(name) for name in rows})
    return {name: statistics.median(values) for name, values in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: smoke-test sizes, checked without references")
    args = parser.parse_args(argv)
    if not (SRC / "homodyn" / "cli.py").is_file():
        print(f"error: no homodyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("# machine " + json.dumps(machine_facts()))
    reference = gate.load_reference() if args.size == "full" else None
    tally = Tally()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    for workload in names:
        run = trace if args.trace else measure
        values = run(workload, args.seed, args.seconds, args.size, reference, tally)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in values.items():
            unit = layer_unit(name) if args.trace else END_TO_END[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(f"# error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} commands)")
    for problem in tally.problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
