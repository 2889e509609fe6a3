"""CLI dispatch, CSV/SVG artifacts, determinism, exit codes."""

import argparse
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homodyn
from homodyn.cli import build_parser, main, parse_base
from homodyn.orbits import sample_sparse
from homodyn.psl2 import identity
from homodyn.report import ExperimentReport, emit_csv, emit_svg
from homodyn.surface import reduce

from helpers import emit_svg_reference


def run_cli(args):
    return main(list(args))


def test_parse_base_named():
    g = parse_base("golden")
    assert g.a / g.c == pytest.approx((1 + math.sqrt(5)) / 2)
    assert parse_base("identity").almost_equal(identity())
    g2 = parse_base("sqrt2")
    assert g2.a / g2.c == pytest.approx(math.sqrt(2))
    g3 = parse_base("liouville(3)")
    assert 0.0 < g3.a / g3.c < 1.0
    g4 = parse_base("1.5,0.5,1,1")
    assert g4.a == pytest.approx(1.5)


def test_parse_base_rejects():
    from homodyn.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_base("nonsense")
    with pytest.raises(ConfigError):
        parse_base("1,2,3,4")  # det != 1 is repaired, so use a singular one
    # the second case: det = 1*4-2*3 = -2 < 0 -> GroupError -> ConfigError


def test_csv_format(tmp_path):
    rep = ExperimentReport(
        name="demo", params={}, columns=["a", "b"],
        rows=[(1, 0.5), (2, 1.0 / 3.0)],
    )
    path = tmp_path / "out.csv"
    emit_csv(rep, str(path))
    text = path.read_bytes().decode("ascii")
    lines = text.split("\n")
    assert lines[0] == f"# homodyn v{homodyn.__version__}"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == "2,0.333333333333"
    assert text.endswith("\n") and "\r" not in text


def test_csv_empty_report(tmp_path):
    rep = ExperimentReport(name="empty", columns=["x"])
    path = tmp_path / "empty.csv"
    emit_csv(rep, str(path))
    assert len(path.read_text().splitlines()) == 2  # header + columns


def test_svg_single_marker_and_clipping(tmp_path):
    path = tmp_path / "orbit.svg"
    # duplicates collapse, and so do points 1e-8 apart, which print alike
    emit_svg([0.0, 0.0, 0.3, 0.2, 0.2 + 1e-8], [1.0, 1.0, 9.9, 1.5, 1.5], str(path))
    text = path.read_text()
    assert text.count("<circle") == 3
    assert 'cy="-4' in text  # clipped to the border
    assert 'viewBox="-0.6 -4.0 1.2 3.2' in text


@pytest.mark.parametrize("base", ["golden", "identity"])
def test_svg_drops_only_repeated_lines(tmp_path, base):
    series = sample_sparse(reduce(parse_base(base)), 0.01, 20000)
    new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
    emit_svg(series.xs, series.ys, str(new))
    emit_svg_reference(series.xs, series.ys, str(ref))
    ref_lines = ref.read_text().splitlines()
    new_lines = new.read_text().splitlines()
    assert len(new_lines) < len(ref_lines)  # the rounded keys let repeats through
    assert new_lines == list(dict.fromkeys(ref_lines))


def test_cli_constants_table(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["constants", "--s", "0.5", "--kappa", "1"]) == 0
    assert (tmp_path / "homodyn_constants.csv").exists()  # CSV always written
    out = capsys.readouterr().out
    assert "gamma0_spectral" in out
    assert "0.011111" in out


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["definitely-not-an-experiment"]) == 1
    assert run_cli(["orbit", "--base", "nonsense", "--N", "10"]) == 1
    # numeric failure: unwritable output path
    bad = tmp_path / "no-such-dir" / "x.csv"
    code = run_cli(["constants", "--out", str(bad)])
    assert code == 2


def test_cli_orbit_csv_deterministic_across_threads(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["orbit", "--base", "golden", "--gamma", "0.01",
                    "--N", "20000", "--threads", "1", "--out", str(a)]) == 0
    assert run_cli(["orbit", "--base", "golden", "--gamma", "0.01",
                    "--N", "20000", "--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=500\ngamma=0.0\n")
    out = tmp_path / "out.csv"
    code = run_cli(["orbit", "--config", str(cfg), "--base", "identity",
                    "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()
    assert header[0].startswith("# homodyn v")


def test_cli_dim_and_mollify_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["dim", "--kappa", "1", "--levels", "2",
                    "--schedule", "20,800", "--R", "1000"]) == 0
    out = capsys.readouterr().out
    assert "tree_bound_final" in out
    assert run_cli(["mollify", "--delta", "0.05", "--n", "2",
                    "--gamma-box", "0.5"]) == 0


def _child_env() -> dict:
    # A child run in tmp_path, where a relative PYTHONPATH (such as
    # PYTHONPATH=src for an uninstalled checkout) no longer points at the
    # package; prepend the absolute directory of the homodyn imported here.
    pkg_root = str(Path(homodyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def test_cli_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "homodyn.cli", "constants", "--s", "0.5"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "gamma0" in proc.stdout


def test_cli_pieces_and_box_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["pieces", "--base", "golden", "--gamma", "0.1",
                    "--eps", "0.1", "--N", "3000"]) == 0
    out = capsys.readouterr().out
    assert "covered_fraction" in out
    # eps = 0 is the empty-obstruction limit, not a bad parameter
    assert run_cli(["pieces", "--eps", "0", "--N", "100"]) == 0
    assert "# obstructed_fraction = 0.0" in capsys.readouterr().out
    assert run_cli(["box", "--base", "golden", "--T", "100", "200",
                    "--weighted"]) == 0
    out = capsys.readouterr().out
    assert "weighted_average" in out


def test_cli_dio_twist_prog_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["dio", "--x", "1.4142135623730951", "--depth", "12",
                    "--bound", "100", "--tmax", "20"]) == 0
    out = capsys.readouterr().out
    assert "witness_symmetric" in out
    assert run_cli(["twist", "--base", "golden", "--frequency", "0.25",
                    "--T", "50"]) == 0
    assert run_cli(["prog", "--base", "golden", "--T", "100"]) == 0


def test_cli_csv_standard_reader(tmp_path, monkeypatch):
    import csv

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "orbit.csv"
    assert run_cli(["orbit", "--base", "golden", "--gamma", "0.0",
                    "--N", "2000", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0].startswith("# homodyn v")
    header = rows[1]
    assert header == ["function", "N_prefix", "empirical_mean", "haar_mean",
                      "discrepancy"]
    for row in rows[2:]:
        assert len(row) == len(header)
        float(row[2]); float(row[3]); float(row[4])


def test_cli_threads_must_be_positive(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for bad in ("0", "-3", "two"):
        assert run_cli(["orbit", "--N", "100", "--threads", bad]) == 1
        assert "positive integer" in capsys.readouterr().err
    assert run_cli(["orbit", "--N", "100", "--threads", "3"]) == 0
    assert "# threads = 3" in capsys.readouterr().out


# every flag of every subcommand; adding or removing one is a reviewed change
_COMMON_FLAGS = {"--out", "--config"}
_ORBIT_FLAGS = {"--svg", "--threads"}
_FLAGS = {
    "orbit": {"--base", "--gamma", "--N"} | _ORBIT_FLAGS,
    "curve": {"--base", "--gamma", "--xmax", "--points"} | _ORBIT_FLAGS,
    "twist": {"--base", "--frequency", "--T", "--band"},
    "prog": {"--base", "--K", "--K-exponent", "--T", "--band"},
    "pieces": {"--base", "--gamma", "--eps", "--N", "--kappa"},
    "dio": {"--x", "--base", "--depth", "--kappa", "--bound", "--tmax"},
    "goodfn": {"--a", "--b", "--kappa", "--gamma", "--mu", "--nu", "--rho"},
    "count": {"--l", "--theta1", "--theta2"},
    "dim": {"--kappa", "--eps", "--levels", "--schedule", "--R"},
    "mollify": {"--delta", "--n", "--gamma-box"},
    "box": {"--base", "--T", "--band", "--weighted"},
    "constants": {"--s", "--kappa", "--eps"},
}


def test_cli_flag_inventory(tmp_path, capsys, monkeypatch):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: {a.option_strings[0] for a in p._actions
                    if a.option_strings and a.option_strings[0] != "-h"}
             for name, p in sub.choices.items()}
    assert found == {name: flags | _COMMON_FLAGS for name, flags in _FLAGS.items()}
    assert sum(len(flags) for flags in found.values()) == 80
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=1\n")
    for argv in (["orbit", "--N", "100", "--seed", "1"],
                 ["orbit", "--N", "100", "--suite", "default"],
                 ["count", "--l", "20", "--svg", "x.svg"],
                 ["constants", "--threads", "2"],
                 ["goodfn", "--windows", "60"],
                 ["constants", "--config", str(cfg)]):
        assert run_cli(argv) == 1, argv
    assert not (tmp_path / "x.svg").exists()
    assert run_cli(["orbit", "--N", "100", "--svg", "orbit.svg"]) == 0
    assert run_cli(["curve", "--points", "100", "--svg", "curve.svg"]) == 0
    for name in ("orbit.svg", "curve.svg"):
        assert (tmp_path / name).read_text().count("<circle") > 0


def _run_quiet(argv, capsys):
    """main(argv) -> (exit code, stdout, stderr); a warning counts as stderr,
    since outside pytest it would print there."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    out, err = capsys.readouterr()
    return code, out, err + "".join(str(w.message) for w in caught)


# every subcommand at a small size (box twice: a two-value and a one-value sweep)
_SMALL_RUNS = [
    ["orbit", "--N", "2000", "--svg", "orbit.svg"],
    ["curve", "--points", "2000", "--svg", "curve.svg"],
    ["pieces", "--N", "1000"],
    ["box", "--weighted", "--T", "20", "50"],
    ["box", "--T", "20"],
    ["twist", "--T", "20", "50"],
    ["prog", "--T", "1e2", "1e3"],
    ["count", "--l", "50"],
    ["dim", "--levels", "1", "--schedule", "50", "--R", "1000"],
    ["dio", "--bound", "100"],
    ["goodfn"],
    ["mollify"],
    ["constants"],
]


def test_cli_small_runs_exit_0_with_empty_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in _SMALL_RUNS} == set(_FLAGS)
    for argv in _SMALL_RUNS:
        code, out, err = _run_quiet(argv, capsys)
        assert (code, err) == (0, ""), argv
        assert out


def test_cli_box_one_value_sweep_fits_no_exponent(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for T in (["4000"], ["100", "100"]):
        code, out, err = _run_quiet(["box", "--T", *T], capsys)
        assert (code, err) == (0, ""), T
        assert "# fitted_exponent = nan" in out.splitlines()
    code, out, _ = _run_quiet(["box", "--T", "100", "1000"], capsys)
    assert code == 0 and "# fitted_exponent = nan" not in out


def test_cli_prog_zero_exponent_needs_K(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["prog", "--K-exponent", "0", "--T", "100"]) == 1
    assert "--K" in capsys.readouterr().err
    assert run_cli(["prog", "--K-exponent", "0", "--K", "2", "--T", "100"]) == 0


def test_cli_bad_parameters_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["orbit", "--N", "0"], ["orbit", "--gamma", "nan", "--N", "100"],
                 ["box", "--T", "5"], ["dim", "--schedule", "100,50"],
                 ["mollify", "--delta", "nan"], ["mollify", "--delta", "inf"],
                 ["mollify", "--gamma-box", "inf"],
                 ["orbit", "--config", str(tmp_path / "missing.cfg")],
                 ["dim", "--kappa", "nan"], ["dim", "--eps", "nan"],
                 ["dim", "--kappa", "inf"], ["dim", "--eps", "inf"],
                 ["dio", "--kappa", "nan", "--bound", "50"],
                 ["dio", "--tmax", "nan", "--bound", "50"],
                 ["dio", "--bound", "100000"], ["dio", "--bound", "9999"],
                 ["pieces", "--eps", "nan", "--N", "100"],
                 ["twist", "--frequency", "nan"], ["twist", "--frequency", "inf"],
                 ["twist", "--T", "inf"],
                 ["twist", "--band", "nan"], ["prog", "--band", "nan"],
                 ["box", "--band", "nan"], ["twist", "--band", "inf"],
                 ["prog", "--band", "inf"], ["box", "--band", "inf"],
                 ["constants", "--kappa", "nan"], ["constants", "--kappa", "inf"],
                 ["box", "--T", "inf"], ["prog", "--K-exponent", "0", "--K", "2", "--T", "inf"],
                 ["pieces", "--kappa", "-1", "--N", "100"],
                 ["goodfn", "--mu", "nan"], ["goodfn", "--mu", "inf"],
                 # past the 5e7-element memory guard: refused before allocating
                 ["orbit", "--N", "100000000000"], ["curve", "--points", "100000000000"],
                 ["pieces", "--N", "100000000000"], ["box", "--T", "1e12"],
                 ["twist", "--frequency", "0", "--T", "1e12"],
                 ["prog", "--K-exponent", "0", "--K", "1", "--T", "1e12"]):
        assert run_cli(argv) == 1, argv
        assert "config error" in capsys.readouterr().err


def test_cli_numeric_failures_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # EmptyLevelError: a parent interval gets no children at kappa = 3
    assert run_cli(["dim", "--kappa", "3", "--schedule", "50,2500"]) == 2
    assert "numeric failure" in capsys.readouterr().err
    # finite parameters whose knots overflow: the mass is NaN, not gamma
    for n in ("1", "2"):
        assert run_cli(["mollify", "--delta", "1e308", "--gamma-box", "1e308",
                        "--n", n]) == 2
        assert "numeric failure" in capsys.readouterr().err


def test_cli_config_booleans(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "box.cfg"
    for value, shown in (("true", True), ("false", False)):
        cfg.write_text(f"weighted={value}\nband=2.0\n")
        assert run_cli(["box", "--config", str(cfg), "--T", "100", "200"]) == 0
        assert ("weighted_average" in capsys.readouterr().out) == shown
    # an explicit switch wins over the config value
    assert run_cli(["box", "--config", str(cfg), "--weighted", "--T", "100", "200"]) == 0
    assert "weighted_average" in capsys.readouterr().out
    assert run_cli(["orbit", "--N", "100", "--dyadic"]) == 1  # the no-op flag is gone


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the product path needs numpy only; scipy is a test-only oracle
    code = ("import sys, homodyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_FUZZ_VALUES = ["0", "-1", "0.5", "2", "nan", "inf", "-inf", "1e-300", "abc"]
# subcommand -> (fixed arguments that keep it cheap, flags to draw)
_FUZZ_COMMANDS = {
    "constants": ([], ["--s", "--kappa", "--eps"]),
    "mollify": ([], ["--delta", "--n", "--gamma-box"]),
    "goodfn": ([], ["--a", "--b", "--kappa", "--gamma", "--mu", "--nu", "--rho"]),
    "count": (["--l", "50"], ["--l", "--theta1", "--theta2"]),
    "dio": (["--bound", "20"], ["--x", "--depth", "--kappa", "--tmax"]),
    "orbit": (["--N", "50"], ["--gamma", "--base", "--threads"]),
    "pieces": (["--N", "50"], ["--gamma", "--eps", "--kappa", "--base"]),
}


@st.composite
def _fuzz_runs(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    fixed, flags = _FUZZ_COMMANDS[sub]
    pairs = draw(st.lists(st.tuples(st.sampled_from(flags), st.sampled_from(_FUZZ_VALUES)),
                          max_size=3))
    via_config = draw(st.booleans())
    return sub, fixed, pairs, via_config


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_fuzz_runs())
def test_cli_fuzz_exit_contract(run):
    # whatever the values, main returns 0, 1 or 2 and raises nothing
    sub, fixed, pairs, via_config = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sub] + fixed + ["--out", os.path.join(tmp, "out.csv")]
        if via_config:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.writelines(f"{flag[2:]}={value}\n" for flag, value in pairs)
            argv += ["--config", cfg]
        else:
            argv += [f"{flag}={value}" for flag, value in pairs]
        assert main(argv) in (0, 1, 2)


def test_tracing_wrapped_names_resolve(monkeypatch):
    # bench/tracing.py rebinds these names for --trace 1; a rename would
    # break the traced pass without failing any test under tests/
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for mod_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
