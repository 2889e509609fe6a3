"""tools/startup.py: the CPU phases of a fresh homodyn process."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_startup_splits_one_tiny_command(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # startup reads parity's list
    spec = importlib.util.spec_from_file_location("startup", ROOT / "tools" / "startup.py")
    startup = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(startup)
    ms = startup.medians_ms(SRC, ["constants"], 1)
    assert list(ms) == ["start", "imports", "main", "teardown"]
    assert all(v >= 0.0 for v in ms.values()), ms
    assert ms["start"] > 0.0 and ms["imports"] > 0.0, ms
