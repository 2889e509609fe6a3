"""tools/startup.py: the CPU phases of a fresh homodyn process."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _startup(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # startup reads parity's list
    spec = importlib.util.spec_from_file_location("startup", ROOT / "tools" / "startup.py")
    startup = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(startup)
    return startup


def test_startup_splits_one_tiny_command(monkeypatch):
    startup = _startup(monkeypatch)
    ms = startup.medians_ms(SRC, ["constants"], 1)
    assert list(ms) == ["start", "imports", "main", "teardown"]
    assert all(v >= 0.0 for v in ms.values()), ms
    assert ms["start"] > 0.0 and ms["imports"] > 0.0, ms


def test_startup_refuses_a_src_without_homodyn(monkeypatch, capsys, tmp_path):
    # the usage and exit 2, before any child starts
    startup = _startup(monkeypatch)
    monkeypatch.setattr(startup, "child", None)  # a child would fail: None is not callable
    for args in (["--help"], [str(tmp_path)], [str(SRC), "0"], [str(SRC), "x"], []):
        assert startup.main(args) == 2, args
        assert capsys.readouterr().err.startswith("usage: python3 tools/startup.py SRC [N]\n")


def test_startup_header_names_the_bytecode_state(monkeypatch, capsys, tmp_path):
    # the first line says whether SRC/homodyn/__pycache__ exists at the start
    startup = _startup(monkeypatch)
    monkeypatch.setattr(startup, "all_commands", lambda: [["constants"]])
    monkeypatch.setattr(startup, "child", lambda src, argv: dict.fromkeys(startup.PHASES, 1e-3))
    package = tmp_path / "homodyn"
    package.mkdir()
    (package / "cli.py").write_text("")
    for state in ("absent", "exists"):
        assert startup.main([str(tmp_path), "1"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == f"# {package / '__pycache__'}: {state} at the start"
        (package / "__pycache__").mkdir(exist_ok=True)


def test_startup_only_runs_the_named_commands(monkeypatch, capsys, tmp_path):
    # --only CMD,... keeps the commands of those subcommands, --help runs
    # included; a name outside the list is the usage and exit 2
    startup = _startup(monkeypatch)
    ran = []
    monkeypatch.setattr(startup, "all_commands", lambda: [
        ["count", "--l", "50"], ["dim"], ["constants"], ["count", "--help"], ["--version"]])
    monkeypatch.setattr(startup, "child",
                        lambda src, argv: ran.append(argv) or dict.fromkeys(startup.PHASES, 1e-3))
    for only in (["--only", "count,dim"], ["--only=dim,count"]):
        ran.clear()
        assert startup.main([str(SRC), "1", *only]) == 0
        assert ran == [["count", "--l", "50"], ["dim"], ["count", "--help"]]
        assert "median of 3 commands" in capsys.readouterr().out
    for only in (["--only", "count,nope"], ["--only", ""], ["--only"], ["--only", "--version"]):
        assert startup.main([str(SRC), *only]) == 2, only
        assert capsys.readouterr().err.startswith("usage: python3 tools/startup.py SRC [N]\n")
    assert ran == [["count", "--l", "50"], ["dim"], ["count", "--help"]]
