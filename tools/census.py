"""Line census: the statements of src/homodyn that no product run executes.

    python3 tools/census.py

Traces, with ``sys.settrace`` and in this one process, every line of
src/homodyn that these runs execute:

- the commands of tools/parity.py (the README's CLI examples, every
  full-size benchmark command on the probe bases plus one random matrix,
  and the parser's help and version texts), through ``homodyn.cli.main``;
- tests/test_acceptance.py, under pytest;
- the benchmark's accuracy probe ``oracle.orbit_err_max`` and its
  microkernels (``tracing.microkernels``).

Then prints each statement that none of them executed, as ``file:line``
and its first source line.  A statement on the list is a candidate for
deletion, not a verdict: refusals of bad input, guards and branches that
other flag values reach never run on these inputs either.

A line census cannot see a record field that only module tests read: the
field's declaration is executed either way.  tests/test_package_api.py
checks fields by their attribute reads instead.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homodyn"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]


def _statements(path: Path):
    """(first line, lines whose execution counts) of each statement, docstrings
    excepted; a compound statement counts only its header lines."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Try) or isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a bare try: line runs no code of its own
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, range(first, max(last, node.lineno) + 1)


def _runs():
    """Every product run, one after another, in the current directory."""
    import parity
    from homodyn.cli import main

    for argv in parity.all_commands():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            if main(list(argv)) != 0:
                raise SystemExit(f"census run failed: {' '.join(argv)}")
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        pytest.main(["-q", "-p", "no:cacheprovider",
                     str(ROOT / "tests" / "test_acceptance.py")])
    import oracle
    import tracing
    from workloads import PROBE_BASES, WORKLOADS, kernel_elements

    oracle.orbit_err_max()
    for workload in WORKLOADS:
        for base in PROBE_BASES:
            tracing.microkernels(kernel_elements(workload, base, 20, 0))


def main() -> int:
    hit = set()
    prefix = str(PACKAGE) + os.sep

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return tracer

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        sys.settrace(tracer)
        try:
            _runs()
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, span in sorted(_statements(path)):
            total += 1
            if not any((str(path), i) in hit for i in span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
