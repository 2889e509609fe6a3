"""Where the CPU time of a homodyn process goes.

    python3 tools/startup.py SRC [N]

For each command of tools/parity.py's list, runs N fresh children on the
``homodyn`` package in SRC (such as ``src`` of a checkout) and prints the
median CPU milliseconds of four phases:

- start: interpreter start and ``site``, up to the first line of the child
- imports: ``from homodyn.cli import main``
- main: ``main()``, which reads the command from ``sys.argv``
- teardown: from ``main``'s return to the end of the process

The first three are ``time.process_time`` readings taken in the child; the
total comes from the child's ``wait4`` rusage in the parent.  The children
run with one BLAS thread, as the benchmark's commands do.
"""

from __future__ import annotations

import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from parity import all_commands

_CHILD = """
import sys, time
t0 = time.process_time()
from homodyn.cli import main
t1 = time.process_time()
code = main()
t2 = time.process_time()
with open({phases!r}, "w") as fh:
    fh.write(f"{{t0}} {{t1}} {{t2}}")
sys.exit(code)
"""
_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PHASES = ("start", "imports", "main", "teardown")


def child(src, argv) -> dict:
    """CPU seconds of each phase of one fresh ``homodyn`` process."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **_THREAD_ENV)
    with tempfile.TemporaryDirectory() as work:
        phases = os.path.join(work, ".phases")
        proc = subprocess.Popen([sys.executable, "-c", _CHILD.format(phases=phases), *argv],
                                cwd=work, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.stderr.close()
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"{shlex.join(argv)} exited {code}: {err.decode(errors='replace')}")
        with open(phases) as fh:
            t0, t1, t2 = map(float, fh.read().split())
    return {"start": t0, "imports": t1 - t0, "main": t2 - t1,
            "teardown": usage.ru_utime + usage.ru_stime - t2}


def medians_ms(src, argv, n: int) -> dict:
    """Median CPU milliseconds of each phase over ``n`` children."""
    runs = [child(src, argv) for _ in range(n)]
    return {phase: 1e3 * statistics.median(r[phase] for r in runs) for phase in PHASES}


def main(args=None) -> int:
    args = sys.argv[1:] if args is None else args
    if len(args) not in (1, 2) or (len(args) == 2 and not args[1].isdigit()):
        print("usage: python3 tools/startup.py SRC [N]", file=sys.stderr)
        return 2
    src, n = args[0], int(args[1]) if len(args) == 2 else 5
    rows = []
    print(" ".join(f"{p:>9}" for p in PHASES) + "  command (median CPU ms)")
    for argv in all_commands():
        row = medians_ms(src, argv, n)
        rows.append(row)
        print(" ".join(f"{row[p]:9.1f}" for p in PHASES) + f"  {shlex.join(argv)}")
    print(" ".join(f"{statistics.median(r[p] for r in rows):9.1f}" for p in PHASES)
          + f"  median of {len(rows)} commands, {n} children each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
