"""Output parity of two homodyn source trees.

    python3 tools/parity.py OLD_SRC NEW_SRC

Runs the README's CLI examples, every full-size benchmark command
(bench/workloads.py) on the probe bases plus one random matrix, and the
parser's own text (--help, --version and each command's --help), once on
each tree, each run in a fresh directory.  Lists every stdout, stderr, exit
code and written file (CSV, SVG) that differs, and exits 1 if any does.
OLD_SRC and NEW_SRC are directories that hold the ``homodyn`` package,
such as ``src`` of two checkouts.
"""

from __future__ import annotations

import itertools
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import PROBE_BASES, WORKLOADS, base_for_seed, commands  # noqa: E402

_MAIN = "import sys; from homodyn.cli import main; sys.exit(main())"
_JOBS = 2
_TIMEOUT_S = 600


def readme_commands() -> list:
    """The homodyn lines of README.md's CLI block as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in argvs if argv[:1] == ["homodyn"]]


def matrix_base() -> str:
    """The random determinant-one matrix of the first seed that draws one."""
    return next(b for b in map(base_for_seed, itertools.count(1)) if "," in b)


def all_commands() -> list:
    """README examples, then each full-size benchmark command once per base,
    then --help, --version and the --help of each README command."""
    argvs = readme_commands()
    for base in PROBE_BASES + (matrix_base(),):
        for workload in WORKLOADS:
            for _, argv in commands(workload, base, "full"):
                if argv not in argvs:
                    argvs.append(argv)
    return argvs + [["--help"], ["--version"]] + [[a[0], "--help"] for a in readme_commands()]


def run(src, argv) -> dict:
    """Exit code, stdout, stderr and every written file of one command."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=work, env=env,
                              capture_output=True, timeout=_TIMEOUT_S)
        out = {"exit code": str(proc.returncode).encode(),
               "stdout": proc.stdout, "stderr": proc.stderr}
        for path in sorted(Path(work).iterdir()):
            out[path.name] = path.read_bytes()
    return out


def _first_difference(a: bytes, b: bytes) -> str:
    for i, (x, y) in enumerate(itertools.zip_longest(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {i}: {x!r} -> {y!r}"
    return "same lines, different bytes"


def compare(old_src, new_src, argvs) -> list:
    """One line per differing output of each command in argvs."""
    with ThreadPoolExecutor(_JOBS) as pool:
        olds = pool.map(lambda argv: run(old_src, argv), argvs)
        news = pool.map(lambda argv: run(new_src, argv), argvs)
        diffs = []
        for argv, old, new in zip(argvs, olds, news):
            for key in sorted(old.keys() | new.keys()):
                if key not in old or key not in new:
                    where = "old" if key not in old else "new"
                    diffs.append(f"{shlex.join(argv)}: {key} missing in {where}")
                elif old[key] != new[key]:
                    diffs.append(f"{shlex.join(argv)}: {key} differs, "
                                 f"{_first_difference(old[key], new[key])}")
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/parity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    argvs = all_commands()
    diffs = compare(args[0], args[1], argvs)
    for line in diffs:
        print(line)
    print(f"{len(argvs)} commands, {len(diffs)} differing outputs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
