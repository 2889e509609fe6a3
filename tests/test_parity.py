"""tools/parity.py: the byte-for-byte output comparison of two source trees."""

import importlib.util
import shutil
import sys
from pathlib import Path

from test_cli import _GOODFN_B_FLOOR, _GOODFN_OPPOSITE_SIGNS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# two tiny commands: a CSV only, and a CSV plus an SVG
_TINY = [["constants"], ["orbit", "--N", "50", "--svg", "o.svg", "--out", "o.csv"]]


def _parity(monkeypatch):
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # parity puts bench/ on it
    spec.loader.exec_module(module)
    return module


def test_parity_same_tree_matches(monkeypatch):
    parity = _parity(monkeypatch)
    assert parity.compare(SRC, SRC, _TINY) == []
    run = parity.run(SRC, _TINY[1])
    assert set(run) == {"exit code", "stdout", "stderr", "o.csv", "o.svg"}
    assert run["exit code"] == b"0" and run["stderr"] == b""


def test_parity_reports_a_changed_tree(tmp_path, monkeypatch):
    parity = _parity(monkeypatch)
    changed = tmp_path / "src"
    shutil.copytree(SRC / "homodyn", changed / "homodyn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = changed / "homodyn" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "9'))
    diffs = parity.compare(SRC, changed, _TINY)
    assert [d.split(" differs")[0] for d in diffs] == [
        "constants: homodyn_constants.csv", "orbit --N 50 --svg o.svg --out o.csv: o.csv"]


def test_parity_commands_cover_readme_and_benchmark(monkeypatch):
    parity = _parity(monkeypatch)
    argvs = parity.all_commands()
    assert argvs[:len(parity.readme_commands())] == parity.readme_commands()
    assert len(parity.readme_commands()) == 12
    assert "," in parity.matrix_base()
    assert any(f"--base={parity.matrix_base()}" in argv for argv in argvs)
    assert len(argvs) == len({tuple(argv) for argv in argvs})
    # the parser's own text: what the one-tree parser test cannot compare
    # with another tree's
    texts = [["--help"], ["--version"]] + [[argv[0], "--help"]
                                           for argv in parity.readme_commands()]
    assert argvs[-len(texts):] == texts
    # goodfn's a < 0 and b >= mu cases, which neither the README nor the
    # benchmark runs, come before the parser's text: the runs test_cli pins
    assert argvs[-len(texts) - 2:-len(texts)] == [_GOODFN_OPPOSITE_SIGNS, _GOODFN_B_FLOOR]
    assert len(argvs) == 81
