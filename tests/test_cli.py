"""CLI dispatch, CSV/SVG artifacts, determinism, exit codes."""

import argparse
import contextlib
import dis
import gc
import importlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homodyn
from homodyn.cli import build_parser, main, parse_base
from homodyn.orbits import sample_sparse
from homodyn.psl2 import GroupElement, golden_ratio, identity
from homodyn.report import ExperimentReport, emit_csv
from homodyn.surface import reduce
from homodyn.svg import emit_svg

from helpers import closed_horocycle_band, emit_svg_fstring, emit_svg_reference, psl_allclose

# a numpy warning is a stderr line outside pytest: here it fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cli(args):
    return main(list(args))


def test_parse_base_named():
    g = parse_base("golden")
    assert g.a / g.c == pytest.approx((1 + math.sqrt(5)) / 2)
    assert psl_allclose(parse_base("identity"), identity())
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


def test_parse_base_liouville_binds_nothing_into_cli(tmp_path):
    # liouville(k) imports its two diophantine helpers itself: parsing a base
    # leaves no definition of diophantine in cli's globals (only a command's
    # _bind puts them there), and the element is the one it always was
    code = ("import homodyn.cli as cli\n"
            "g = cli.parse_base('liouville(2)')\n"
            "print(sorted(n for n, v in vars(cli).items()\n"
            "             if getattr(v, '__module__', None) == 'homodyn.diophantine'))\n"
            "print((g.a, g.b, g.c, g.d))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", "(0.4073569507575406, -1.0, 1.0, 0.0)"]


def test_csv_format(tmp_path):
    rep = ExperimentReport(
        params={}, columns=["a", "b"],
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
    rep = ExperimentReport(columns=["x"])
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


def _assert_svg_matches_fstring(xs, ys, directory):
    new, ref = directory / "new.svg", directory / "ref.svg"
    emit_svg(xs, ys, str(new))
    emit_svg_fstring(xs, ys, str(ref))
    assert new.read_bytes() == ref.read_bytes()
    return new.read_text().count("<circle")


def test_svg_matches_fstring_writer_on_adversarial_points(tmp_path):
    tie = 0.1234565
    # rounding ties (0.0078125 is one in binary too), signed zeros and
    # values that print -0.000000, the cell's edges, points apart only
    # below print precision, and heights at and above the border
    xs = [tie, tie + 1e-12, tie - 1e-12, -0.4999995, 0.0078125, -0.0078125, -0.0, 0.0,
          1e-9, -1e-9, 0.5, -0.5, math.nextafter(0.5, 1.0), 0.2, 0.2 + 1e-8]
    ys = [1.0000005, 3.9999995, 2.0000025, tie, 0.4999995, 4.0, 4.0000001, 9.9, 1e300,
          1.5, 1.5 + 1e-8, 1e-9, 1e-300]
    px, py = zip(*[(x, y) for x in xs for y in ys])
    markers = _assert_svg_matches_fstring(2 * px, 2 * py, tmp_path)  # exact repeats too
    assert markers < len(px)
    assert _assert_svg_matches_fstring([], [], tmp_path) == 0
    assert _assert_svg_matches_fstring([0.25] * 50, [2.0] * 50, tmp_path) == 1  # all keys equal
    assert _assert_svg_matches_fstring([-0.25], [1.5], tmp_path) == 1  # a single key


# coordinates with 6 to 8 decimals: every value with 7 or 8 whose last
# digit is 5 is a rounding tie of %.6f
@st.composite
def _decimal_points(draw):
    scale = 10 ** draw(st.integers(6, 8))
    pairs = draw(st.lists(st.tuples(st.integers(-scale // 2, scale // 2),
                                    st.integers(1, 5 * scale)), max_size=60))
    pairs += pairs[::3]
    return [m / scale for m, _ in pairs], [m / scale for _, m in pairs]


@settings(max_examples=150, deadline=None)
@given(_decimal_points())
def test_svg_matches_fstring_writer_on_decimal_points(points):
    with tempfile.TemporaryDirectory() as d:
        _assert_svg_matches_fstring(*points, Path(d))


@pytest.mark.parametrize("x,y", [(0.6, 1.0), (-0.5 - 1e-6, 1.0), (0.0, 0.0), (0.0, -1.0),
                                 (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                 (math.inf, 1.0)])
def test_svg_refuses_unreduced_points(tmp_path, x, y):
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match=r"SVG point 2 \(.*\) is not a reduced point"):
        emit_svg([0.0, 0.1, x, 0.2], [1.0, 2.0, y, 3.0], str(path))
    assert not path.exists()


class _Sampled(Exception):
    pass


def test_svg_cap_refuses_before_sampling(tmp_path, monkeypatch):
    import homodyn.cli as cli

    def sampled(*args):
        raise _Sampled

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "sample_sparse", sampled)
    monkeypatch.setattr(cli, "sample_curve", sampled)
    cap = cli._SVG_MAX
    for argv in (["orbit", "--N", str(cap + 1), "--svg", "o.svg", "--out", "o.csv"],
                 ["curve", "--points", str(cap + 1), "--svg", "o.svg", "--out", "o.csv"]):
        code, _, err = _run_quiet(argv)
        assert code == 1, argv
        _assert_one_line(err, f"config error: --svg draws at most {cap} points", argv)
        assert not list(tmp_path.iterdir()), argv  # no SVG, no CSV
    # at the cap, and above it without --svg, sampling starts
    for argv in (["orbit", "--N", str(cap), "--svg", "o.svg"],
                 ["curve", "--points", str(cap), "--svg", "o.svg"],
                 ["orbit", "--N", str(cap + 1)]):
        with pytest.raises(_Sampled):
            run_cli(argv)


class _Counted(Exception):
    pass


def _counted(*args):
    raise _Counted


def test_count_refuses_its_sector_before_enumerating(tmp_path, monkeypatch):
    # primes_upto is primitive_count's first step after its checks
    import homodyn.lattice as lattice

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lattice, "primes_upto", _counted)
    for argv, prefix in (
            (["count", "--theta1", "2", "--theta2", "1"], "config error: need l > 0"),
            (["count", "--l", "-5"], "config error: need l > 0"),
            (["count", "--l", "nan"], "config error: need l > 0"),
            (["count", "--l", "3000", "--theta1", "0.1", "--theta2", "3.5"],
             "config error: sector must lie inside the canonical half-plane")):
        code, _, err = _run_quiet(argv)
        assert code == 1, argv
        _assert_one_line(err, prefix, argv)
    with pytest.raises(_Counted):
        run_cli(["count", "--l", "50"])


def test_count_states_its_bound_on_l(tmp_path, monkeypatch):
    # one line naming --l and its range, for l the user typed, refused uncounted
    import homodyn.cli as cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "primitive_count", _counted)
    for l, shown in (("0.49", "0.49"), ("1e-300", "1e-300"), ("1000000.5", "1e+06"),
                     ("1e200", "1e+200"), ("inf", "inf")):
        code, _, err = _run_quiet(["count", "--l", l])
        assert code == 1, l
        _assert_one_line(err, f"config error: --l must lie in [0.5, 1e+06], got {shown}", l)
    for l in ("0.5", "1e6"):
        with pytest.raises(_Counted):
            run_cli(["count", "--l", l])


# a launcher between pytest and the command: the child's ru_maxrss holds
# the RSS of the process it was forked from, so it must be a small one
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
_SVG_EXTRA_MB = 10.0  # the f-string writer added 29 MB at this N
_COUNT_MB = 60.0  # count --l 1000 peaked at 96.3 MB when it enumerated
_MOLLIFY_EXTRA_MB = 10.0  # the n-fold midpoint grid added 247 MB at n = 3


def _peak_mb(tmp_path, *argv) -> float:
    """Peak RSS in MB of one CLI run in its own process."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "homodyn.cli", *argv],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=_child_env(),
        check=True)
    return int(proc.stdout) / 1024.0  # ru_maxrss is in KiB on Linux


def test_svg_adds_bounded_memory(tmp_path):
    plain = _peak_mb(tmp_path, "orbit", "--N", "200000")
    svg = _peak_mb(tmp_path, "orbit", "--N", "200000", "--svg", "o.svg")
    assert (tmp_path / "o.svg").read_text().count("<circle") > 10**5
    assert svg - plain <= _SVG_EXTRA_MB, (plain, svg)


def test_mollify_box_dimension_adds_bounded_memory(tmp_path):
    # the L1 distance comes from per-piece quadrature, not an n-d grid
    one = _peak_mb(tmp_path, "mollify", "--n", "1")
    three = _peak_mb(tmp_path, "mollify", "--n", "3")
    assert three - one <= _MOLLIFY_EXTRA_MB, (one, three)


def test_count_runs_in_bounded_memory(tmp_path):
    # the row-by-row count holds no vector: l = 4000 was refused at the
    # memory guard when count enumerated its 6.1e7 vectors
    assert _peak_mb(tmp_path, "count", "--l", "1000") <= _COUNT_MB
    assert _peak_mb(tmp_path, "count", "--l", "4000") <= _COUNT_MB


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


def test_cli_separate_negative_float_is_a_value(tmp_path, monkeypatch):
    # --flag -1e-3 runs as --flag=-1e-3 does: the value reaches the
    # parameter check, and a negative matrix entry reaches the base parser
    monkeypatch.chdir(tmp_path)
    for value in ("-inf", "-nan", "-1e-3", "-1E+3", "-.5", "-Infinity"):
        for argv in (["constants", "--s", value], ["constants", f"--s={value}"]):
            code, _, err = _run_quiet(argv)
            assert code == 1, argv
            _assert_one_line(err, "config error: spectral parameter must lie in (0, 1/2]", argv)
    runs = [_run_quiet(["orbit", "--N", "50", *base]) for base in (
        ["--base", "-0.8,0.3,1.2,-1.7"], ["--base=-0.8,0.3,1.2,-1.7"])]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""


def test_cli_orbit_csv_deterministic_across_threads(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["orbit", "--base", "golden", "--gamma", "0.01",
                    "--N", "20000", "--threads", "1", "--out", str(a)]) == 0
    assert run_cli(["orbit", "--base", "golden", "--gamma", "0.01",
                    "--N", "20000", "--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("base, q", [("0.3333333333333333,-1,1,0", 3),
                                     (f"{2 / 7!r},-1,1,0", 7), ("liouville(25)", 2)])
def test_cli_orbit_on_a_rational_slope_reads_the_closed_horocycle(tmp_path, monkeypatch,
                                                                  base, q):
    # slope p/q traces the closed horocycle at height 1/q^2, whose band
    # fraction is F(1/q^2, 2), not Haar's 3/(2 pi); liouville(25) lies
    # about 1.5e-8 from 1/2 and, by a rough estimate, shadows that
    # horocycle up to t near 3e7, well past N^(1+gamma) = 1.15e6
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_quiet(["orbit", "--base", base, "--gamma", "0.01", "--N", "1000000"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines() if line.startswith("band2,")]
    band = float(rows[-1][2])
    closed = closed_horocycle_band(1.0 / q**2, 2.0)
    assert abs(band - closed) <= 1e-3, (band, closed)
    assert abs(band - 3.0 / (2.0 * math.pi)) >= 0.01, band


def test_cli_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=500\ngamma=0.0\n")
    out = tmp_path / "out.csv"
    # either spelling of --config; an explicit flag wins, in either spelling
    for config, n in ((["--config", str(cfg)], "500"), ([f"--config={cfg}"], "500"),
                      ([f"--config={cfg}", "--N=64"], "64")):
        code = run_cli(["orbit", *config, "--base", "identity", "--out", str(out)])
        assert code == 0, config
        assert "# gamma = 0.0\n" in capsys.readouterr().out, config
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# homodyn v")
        assert lines[1].split(",")[1] == "N_prefix" and lines[-1].split(",")[1] == n, config


@pytest.mark.parametrize("sub, line, argv", [
    # flags of several values take a config value split at spaces
    ("box", "T=100 1000", ["--T", "100", "1000"]),
    ("constants", "kappa=1 3", ["--kappa", "1", "3"]),
    # flags of one value take it whole, spaces included
    ("orbit", "base=0.8, 0.3, 1.2, 1.7", ["--base", "0.8, 0.3, 1.2, 1.7"]),
    ("dim", "schedule=50, 2500", ["--schedule", "50, 2500"]),
])
def test_cli_config_value_runs_as_the_flag(tmp_path, monkeypatch, sub, line, argv):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    size = ["--N", "100"] if sub == "orbit" else []
    via_config = _run_quiet([sub, "--config", str(cfg)] + size)
    assert via_config == _run_quiet([sub] + argv + size)
    assert via_config[0] == 0 and via_config[2] == "", via_config


@pytest.mark.parametrize("R", ["63", "10000"])
@pytest.mark.parametrize("kappa, verdicts", [("1", (0, 0)), ("2", (1, 0)), ("3", (1, 0))])
def test_cli_dim_cover_sum_verdicts(tmp_path, monkeypatch, kappa, verdicts, R):
    # the verdicts at 0.05 above and below the threshold, fitted from the
    # sums up to R (63 is the floor); kappa = 1 caps the upper delta at the
    # threshold 1 itself
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_quiet(["dim", "--kappa", kappa, "--levels", "1", "--schedule", "50",
                                 "--R", R])
    assert (code, err) == (0, "")
    rows = dict(line.split(",") for line in out.splitlines() if not line.startswith("#"))
    assert (int(rows["cover_sum_above_threshold_convergent"]),
            int(rows["cover_sum_below_threshold_convergent"])) == verdicts
    decays = [float(line.split(" = ")[1]) for line in out.splitlines()
              if line.startswith("# cover_sum_decay_")]
    assert len(decays) == 2 and decays[0] > decays[1]


def test_cli_dim_cover_sum_cap_as_spelled(tmp_path, monkeypatch):
    # the refusal past the cap spells the cap in a form --R accepts
    monkeypatch.chdir(tmp_path)
    code, _, err = _run_quiet(["dim", "--R", "100001"])
    assert code == 1
    cap = re.search(r"R <= (\S+)", err).group(1)
    code, _, err = _run_quiet(["dim", "--levels", "1", "--schedule", "50", "--R", cap])
    assert (code, err) == (0, "")


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


def test_cli_entrypoint_subprocess(tmp_path, monkeypatch):
    # run as the program, main freezes the heap; the output is the same
    proc = subprocess.run(
        [sys.executable, "-m", "homodyn.cli", "constants", "--s", "0.5"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "gamma0" in proc.stdout
    child_csv = (tmp_path / "homodyn_constants.csv").read_bytes()
    monkeypatch.chdir(tmp_path)
    assert _run_quiet(["constants", "--s", "0.5", "--out", "in_process.csv"]) == (
        0, proc.stdout, "")
    assert (tmp_path / "in_process.csv").read_bytes() == child_csv


def test_cli_closed_stdout(tmp_path):
    # `homodyn orbit | head -3`: a reader that has closed the pipe is no
    # failure, so the run writes its CSV, exits 0 and leaves stderr empty,
    # with stdout buffered or not.  A stdout that takes no bytes is a
    # numeric failure.
    argv = [sys.executable, "-m", "homodyn.cli", "orbit", "--N", "100"]
    for unbuffered in ("", "1"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120, cwd=tmp_path,
                                  env=dict(_child_env(), PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, ""), unbuffered
        (tmp_path / "homodyn_orbit.csv").unlink()  # raises unless the CSV was written
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 2
    _assert_one_line(proc.stderr, "numeric failure: cannot write stdout: ", argv)


def test_in_process_main_leaves_the_heap_unfrozen(tmp_path, monkeypatch):
    # tests and the benchmark's traced pass call main(argv) in a process
    # that goes on running: its heap must stay collectable
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    try:
        assert run_cli(["constants"]) == 0
        assert gc.get_freeze_count() == frozen
    finally:
        if gc.get_freeze_count() != frozen:
            gc.unfreeze()


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


def test_cli_dio_refuses_flags_it_would_ignore(tmp_path, monkeypatch):
    # --x names the point, so a --base beside it would go unread, and --depth
    # is the length of --x's expansion, read by nothing else: as a flag or
    # from a config file, each is refused before any work, no CSV written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "both.cfg").write_text("x = 1.4\nbase = e\n")
    (tmp_path / "depth.cfg").write_text("depth = 3\n")
    both, depth = "config error: dio takes --x or --base", "config error: dio takes --depth only"
    for argv, prefix in ((["--x", "1.4", "--base", "e"], both),
                         (["--base", "e", "--depth", "3"], depth),
                         (["--depth", "3"], depth),
                         (["--config", "both.cfg"], both),
                         (["--config", "depth.cfg", "--base", "e"], depth)):
        code, out, err = _run_quiet(["dio", "--bound", "50", *argv])
        assert (code, out) == (1, ""), argv
        _assert_one_line(err, prefix, argv)
    assert not list(tmp_path.glob("*.csv"))
    # a base run reports the depth an --x run defaults to; golden is the default base
    code, golden, err = _run_quiet(["dio", "--base", "golden", "--bound", "50"])
    assert (code, err) == (0, "") and "# depth = 20\n" in golden
    assert _run_quiet(["dio", "--bound", "50"]) == (0, golden, "")
    code, out, err = _run_quiet(["dio", "--x", "1.4", "--depth", "3", "--bound", "50"])
    assert (code, err) == (0, "") and "# depth = 3\n" in out


@pytest.mark.parametrize("base, tmax, kappa", [
    # golden's float geodesic makes spurious cusp excursions from t ~ 38.5 on:
    # fitted up to t = 60, without the cut at 35, it would read 1.0550326046834986
    ("golden", "60", "1.0"), ("golden", "35", "1.0"),
    # below the cut --tmax still acts
    ("e", "20", "1.2108342459142365"), ("e", "35", "1.009619103558946"),
])
def test_cli_dio_fits_excursions_only_up_to_the_reliable_horizon(tmp_path, capsys, monkeypatch,
                                                                base, tmax, kappa):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["dio", "--base", base, "--tmax", tmax, "--bound", "100"]) == 0
    assert f"excursion_type,{kappa}\n" in capsys.readouterr().out


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


def test_cli_schedule_usage_error_names_the_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schedule=abc\n")
    for argv in (["dim", "--schedule", "abc"], ["dim", "--schedule=1,,2"],
                 ["dim", "--config", str(cfg)]):
        code, _, err = _run_quiet(argv)
        last = err.splitlines()[-1]
        assert code == 1, argv
        assert "--schedule" in last and "<lambda>" not in last, (argv, err)
        assert "is not a comma-separated list of numbers" in last, (argv, err)


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


# argv whose parse prints text: every help, the version and usage errors
# at the top level and inside a subparser
_PARSER_TEXT_RUNS = ([["--help"], ["--version"]] + [[name, "--help"] for name in _FLAGS]
                     + [["bogus"], ["orbit", "--bogus"], ["orbit", "--N", "x"],
                        ["dim", "--R", "1e5"]])


def _parse_text(parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parsed without exiting")


@pytest.mark.parametrize("argv", _PARSER_TEXT_RUNS, ids=" ".join)
def test_cli_one_subparser_prints_what_the_full_parser_does(monkeypatch, argv):
    # main builds only the subparser that argv[0] names, yet what it prints,
    # and its exit code, are those of the parser of all 12 experiments
    import homodyn.cli as cli

    built = []

    def spy(experiment=None):
        built.append(experiment)
        return build_parser(experiment)

    monkeypatch.setattr(cli, "build_parser", spy)
    code, out, err = _parse_text(build_parser(), argv)
    assert out or err
    assert _run_quiet(argv) == ({0: 0, 2: 1}[code], out, err)
    assert built == [argv[0] if argv[0] in _FLAGS else None]


def _assert_one_line(err, prefix, argv):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err)
    assert not re.search(r"\(\d+, '", err), (argv, err)  # errno text names nothing


def _run_quiet(argv):
    """main(argv) -> (exit code, stdout, stderr); a warning counts as a
    stderr line, since outside pytest it would print there."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in caught)


# every subcommand at a small size (box twice: a two-value and a one-value
# sweep; dim twice: the second with a scale l whose 2l is not an integer;
# pieces twice: the second from a base point at y = 1e300)
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
    ["dim", "--schedule", "50.3,1200"],
    ["dio", "--bound", "100"],
    ["goodfn"],
    ["mollify"],
    # extreme but finite: an inf profile, an inf |a|^kappa
    ["mollify", "--gamma-box", "1e308"],
    ["dio", "--kappa", "1e200", "--bound", "100"],
    ["pieces", "--base", "1e150,0,0,1e-150", "--N", "100"],
    ["constants"],
]


def test_cli_small_runs_exit_0_with_empty_stderr(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in _SMALL_RUNS} == set(_FLAGS)
    for argv in _SMALL_RUNS:
        code, out, err = _run_quiet(argv)
        assert (code, err) == (0, ""), argv
        assert out


# the homodyn modules a command loads besides cli, psl2 and report: its
# experiment's modules and what they import
_ORBITS = {"orbits", "surface"}
_LOADED = {
    "orbit": _ORBITS | {"svg"}, "curve": _ORBITS | {"svg"}, "pieces": _ORBITS,
    "twist": _ORBITS, "prog": _ORBITS, "box": _ORBITS | {"mollify"},
    "mollify": {"mollify"},
    "dio": {"diophantine", "surface"},
    "constants": {"exponents"},
    "goodfn": {"goodfn"},
    "count": {"lattice"},
    "dim": {"fractal", "lattice"},
}
# main() reads the command from sys.argv, as the homodyn script does; then
# the child prints the homodyn modules it loaded, its freeze count and which
# of dataclasses and numpy.polynomial it loaded (no command needs either)
_FRESH_MAIN = """
import gc, sys
from homodyn.cli import main
code = main()
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("homodyn."))
heavy = sorted({"dataclasses", "numpy.polynomial"} & set(sys.modules))
print(" ".join(loaded), gc.get_freeze_count() > 0, heavy)
sys.exit(code)
"""


def test_cli_small_runs_in_fresh_processes_load_only_their_modules(tmp_path):
    # in-process runs cannot see a missing bind: every homodyn module is
    # already imported here
    assert {argv[0] for argv in _SMALL_RUNS} == set(_LOADED)
    for argv in _SMALL_RUNS + [["orbit", "--N", "50", "--base", "liouville(2)"]]:
        proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], capture_output=True,
                              text=True, timeout=300, cwd=tmp_path, env=_child_env())
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        *out, last = proc.stdout.splitlines()
        loaded = _LOADED[argv[0]] | {"cli", "psl2", "report"}
        if "liouville(2)" in argv:
            loaded |= {"diophantine"}
        assert out and last == " ".join(sorted(loaded)) + " True []", argv


def _globals_in(fn):
    """Global names the code of fn and of the nested code in it looks up."""
    names, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        names |= {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
    return names


def test_runners_look_up_only_cli_names_and_their_modules_definitions():
    # _bind binds the public functions and classes an experiment's modules
    # define.  So the runner, and the private cli functions it calls, look
    # up only cli's own globals, builtins and those definitions, and each
    # module of the entry gives at least one of them.  No two modules define
    # one name, and none shadows a builtin or a cli global: binding order
    # never decides what a name means
    import builtins

    import homodyn.cli as cli

    modules = sorted({m for _, ms, _, _ in cli._RUNNERS.values() for m in ms})
    defs = {}
    for module in modules:
        mod = importlib.import_module(f"homodyn.{module}")
        defs[module] = {n: v for n, v in vars(mod).items() if not n.startswith("_")
                        and getattr(v, "__module__", None) == mod.__name__}
    bound = {n: v for names in defs.values() for n, v in names.items()}
    own = {n for n, v in vars(cli).items() if bound.get(n) is not v}
    defined = [n for names in defs.values() for n in names]
    assert len(defined) == len(set(defined))
    assert not set(defined) & (own | set(dir(builtins)))
    for experiment, (runner, modules, _, _) in cli._RUNNERS.items():
        todo, seen, named = [runner], set(), set()
        while todo:
            fn = todo.pop()
            seen.add(fn)
            names = _globals_in(fn)
            named |= names
            todo += [f for n in names if n.startswith("_")
                     and hasattr(f := vars(cli).get(n), "__code__") and f not in seen]
        for module in modules:
            assert named & set(defs[module]), (experiment, module)
        strays = named - own - set(dir(builtins)) - {n for m in modules for n in defs[m]}
        assert not strays, (experiment, strays)


def _readme_commands():
    """The homodyn lines of README.md's CLI block, continuations joined and
    comments dropped, as argv lists without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv[:1] == ["homodyn"]]


def test_readme_cli_examples_exit_0_with_empty_stderr(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_FLAGS)
    for argv in commands:
        code, out, err = _run_quiet(argv)
        assert (code, err) == (0, ""), argv
        assert out, argv
    assert (tmp_path / "orbit.svg").is_file() and (tmp_path / "orbit.csv").is_file()


def _bench_module(name, monkeypatch):
    """bench/<name>.py, loaded by path (bench is not a package)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_cli_computes_points_without_scalar_group_arithmetic(tmp_path, monkeypatch):
    # once the base is parsed, every point is computed on arrays: the README
    # examples and the tiny benchmark commands pass with the scalar group
    # operations and the scalar geodesic flow made to raise
    def refuse(*args, **kwargs):
        raise AssertionError("scalar group arithmetic on the product path")

    for name in ("compose", "__matmul__", "mobius", "iwasawa", "inverse"):
        monkeypatch.setattr(GroupElement, name, refuse)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "homodyn"]:
        if hasattr(module, "diagonal_flow"):
            monkeypatch.setattr(module, "diagonal_flow", refuse)
    workloads = _bench_module("workloads", monkeypatch)
    commands = _readme_commands() + [
        argv for base in ("golden", "-0.8,0.3,1.2,-1.7") for w in workloads.WORKLOADS
        for _, argv in workloads.commands(w, base, "tiny")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = _run_quiet(argv)
        assert (code, err) == (0, ""), argv


def _deep_base(x: float, t: float) -> str:
    """--base value of slope_base(x) a(t) = (x e, -1/e; e, 0), e = exp(t/2):
    a valid determinant-one base t time units down the cusp."""
    e = math.exp(0.5 * t)
    return f"{x * e!r},{-1.0 / e!r},{e!r},0"


# slope_base(golden) a(40): its word times the base cancels to det 0 in floats
_DEEP_BASE = "785013776.3315252,-2.061153622438558e-09,485165195.4097903,0"


def test_cli_deep_cusp_base_is_not_a_config_error(tmp_path, monkeypatch):
    assert _deep_base(golden_ratio, 40.0) == _DEEP_BASE
    monkeypatch.chdir(tmp_path)
    for argv in (["orbit", "--N", "2000"], ["curve", "--points", "2000"],
                 ["twist", "--T", "20", "50"], ["prog", "--T", "1e2", "1e3"],
                 ["box", "--T", "20", "50", "--weighted"]):
        code, out, err = _run_quiet(argv + ["--base", _DEEP_BASE])
        assert (code, err) == (0, ""), argv
        assert out, argv
    # the block factors and the excursion profile go deeper still: refused
    for argv in (["pieces", "--N", "1000"], ["pieces", "--N", "10"], ["dio", "--bound", "100"]):
        code, _, err = _run_quiet(argv + ["--base", _DEEP_BASE])
        assert code == 2, argv
        _assert_one_line(err, "numeric failure: ", argv)
        if argv[0] == "pieces":  # the basis has det 1: rounding lost its short vector
            assert "lost to float rounding or underflow" in err and "too deep" in err, err


def test_cli_box_one_value_sweep_fits_no_exponent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for T in (["4000"], ["100", "100"]):
        code, out, err = _run_quiet(["box", "--T", *T])
        assert (code, err) == (0, ""), T
        assert "# fitted_exponent = nan" in out.splitlines()
    code, out, _ = _run_quiet(["box", "--T", "100", "1000"])
    assert code == 0 and "# fitted_exponent = nan" not in out


def test_cli_prog_zero_exponent_needs_K(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["prog", "--K-exponent", "0", "--T", "100"]) == 1
    assert "--K" in capsys.readouterr().err
    assert run_cli(["prog", "--K-exponent", "0", "--K", "2", "--T", "100"]) == 0


def test_cli_bad_parameters_exit_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.cfg").write_text("K = 5\n")
    for argv in (["orbit", "--N", "0"], ["orbit", "--gamma", "nan", "--N", "100"],
                 ["box", "--T", "5"], ["dim", "--schedule", "100,50"],
                 ["mollify", "--delta", "nan"], ["mollify", "--delta", "inf"],
                 ["mollify", "--gamma-box", "inf"],
                 ["orbit", "--config", str(tmp_path / "missing.cfg")],
                 ["orbit", f"--config={tmp_path / 'missing.cfg'}"],
                 ["dim", "--kappa", "nan"], ["dim", "--eps", "nan"],
                 ["dim", "--kappa", "inf"], ["dim", "--eps", "inf"],
                 # the cover-sum fit needs two complete dyadic blocks, R >= 63
                 ["dim", "--R", "62"],
                 ["dio", "--kappa", "nan", "--bound", "50"],
                 ["dio", "--tmax", "nan", "--bound", "50"],
                 ["dio", "--bound", "4166667"],
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
                 ["goodfn", "--rho", "nan"], ["goodfn", "--rho", "-1"],
                 # past the 5e7-element memory guard: refused before allocating
                 ["orbit", "--N", "100000000000"], ["curve", "--points", "100000000000"],
                 ["pieces", "--N", "100000000000"], ["box", "--T", "1e12"],
                 ["twist", "--frequency", "0", "--T", "1e12"],
                 ["prog", "--K-exponent", "0", "--K", "1", "--T", "1e12"],
                 ["curve", "--xmax", "inf"], ["curve", "--xmax", "nan"],
                 ["curve", "--xmax", "-5", "--points", "100"],
                 # a sector scale that is zero, negative or NaN
                 ["dim", "--schedule", "0,100"], ["dim", "--schedule=-5,100"],
                 ["dim", "--schedule", "nan,100"],
                 # a type exponent that plants no quotient: q^(zeta - 1)
                 # already takes q past 10^9, or past the float range
                 ["dio", "--base", "liouville(30)"],
                 ["orbit", "--base", "liouville(2000)", "--N", "2000"],
                 # a matrix base with a blank field: the others are no matrix
                 ["orbit", "--base=0.8,,0.3,1.2,1.7", "--N", "50"],
                 ["orbit", "--base=0.8,0.3,1.2,1.7,", "--N", "50"],
                 ["orbit", "--base=,0.8,0.3,1.2,1.7", "--N", "50"],
                 ["orbit", "--base=0.8, ,1.2,1.7", "--N", "50"],
                 # a --K that a non-zero --K-exponent would leave unread
                 ["prog", "--K", "5", "--T", "100"],
                 ["prog", "--K", "5", "--K-exponent", "0.1", "--T", "100"],
                 ["prog", "--config", str(tmp_path / "prog.cfg"), "--T", "100"]):
        code, _, err = _run_quiet(argv)
        assert code == 1, argv
        _assert_one_line(err, "config error: ", argv)


def test_cli_numeric_failures_exit_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # dim: EmptyLevelError, a parent interval gets no children at kappa = 3
    # or 1.5 on the default schedule, or at a scale below 1; mollify: finite parameters whose knots overflow,
    # so the mass is NaN, or whose box volume or L1 bound overflows;
    # goodfn: |a|^kappa |b| or f(1) past the float range
    for argv in (["dim", "--kappa", "3", "--schedule", "50,2500"],
                 ["dim", "--kappa", "1.5"],
                 ["dim", "--schedule", "0.1,100"],
                 ["mollify", "--delta", "1e308", "--gamma-box", "1e308", "--n", "1"],
                 ["mollify", "--delta", "1e308", "--gamma-box", "1e308", "--n", "2"],
                 ["mollify", "--delta", "1e308", "--gamma-box", "1e308", "--n", "3"],
                 ["mollify", "--delta", "1e308"],
                 ["mollify", "--n", "2", "--gamma-box", "1e154", "--delta", "1e157"],
                 ["goodfn", "--b", "1e200"], ["goodfn", "--a", "1e200", "--b", "1e-5"],
                 ["goodfn", "--a", "1e30", "--kappa", "15", "--gamma", "0.01"],
                 # finite extreme bases: orbit points past 2^53-entry words,
                 # and a base point whose y^2 underflows
                 ["box", "--base", "1e150,0,0,1e-150", "--T", "20", "50"],
                 ["orbit", "--base", "1e150,0,0,1e-150", "--N", "100"],
                 ["twist", "--base", "1e150,0,0,1e-150", "--T", "20"],
                 ["orbit", "--base", "1e-85,0,0,1e85", "--N", "100"],
                 # c^2 + d^2 of the curve points, and the squared lengths of
                 # the cusp lattice basis, past the float range
                 ["curve", "--xmax", "1e300", "--points", "100"],
                 ["dio", "--base", "1e150,0,0,1e-150", "--bound", "20"]):
        code, _, err = _run_quiet(argv)
        assert code == 2, argv
        _assert_one_line(err, "numeric failure: ", argv)


@pytest.mark.parametrize("argv", [["dim", "--schedule", "0.1,100"],
                                  ["dim", "--levels", "1", "--schedule", "0.5"]])
def test_dim_empty_first_level_names_the_scale(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run_quiet(argv)
    assert code == 2
    schedule = argv[-1]
    _assert_one_line(err, f"numeric failure: level 1 of schedule {schedule}: the first "
                          f"sector scale l={schedule.split(',')[0]} is too small", argv)
    assert "exponent" not in err


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
    # the product path needs numpy only; scipy is a test-only oracle.  And
    # the experiments' modules load with their commands, not with cli.
    code = ("import sys, homodyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'homodyn')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["homodyn", "homodyn.cli", "homodyn.psl2",
                                       "homodyn.report"])


# goodfn's runs in its a < 0 and b >= mu cases, as tools/parity.py runs them
_GOODFN_OPPOSITE_SIGNS = ["goodfn", "--a", "-1", "--b", "1e-5", "--gamma", "0.02",
                          "--nu", "1e-6"]
_GOODFN_B_FLOOR = ["goodfn", "--a", "5", "--b", "0.5", "--kappa", "2", "--gamma", "0.02",
                   "--nu", "1e-3", "--rho", "10.25"]
# commands that compute on a few floats or integers: constants, the default
# and README runs of goodfn (the generic case) and its two other cases,
# mollify, and count (a small and the README's run)
_SCALAR_RUNS = [["constants", "--kappa", "1", "3"], ["goodfn"],
                ["goodfn", "--a", "1", "--b", "1e-5", "--rho", "1e-4"],
                _GOODFN_OPPOSITE_SIGNS, _GOODFN_B_FLOOR, ["mollify"],
                ["mollify", "--delta", "0.05", "--n", "2", "--gamma-box", "0.5"],
                ["count", "--l", "50"], ["count", "--l", "1000"]]


@pytest.mark.parametrize("argv", _SCALAR_RUNS, ids=" ".join)
def test_cli_import_and_scalar_commands_load_neither_numpy_nor_dataclasses(tmp_path, argv):
    # neither cli's import nor these commands pay for numpy or for
    # dataclasses (which pulls in inspect)
    code = ("import sys, homodyn.cli\n"
            "heavy = lambda: sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules))\n"
            "print(heavy())\n"
            f"code = homodyn.cli.main({argv!r})\n"
            "print(heavy(), code)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[] 0"


_GOODFN_HEAD = "# kappa = {}\n# gamma = 0.02\n# mu = 0.5\n# nu = {}\n# rho = {}\n"


@pytest.mark.parametrize("argv, out", [
    pytest.param(_GOODFN_OPPOSITE_SIGNS,
     "# a = -1.0\n# b = 1e-05\n" + _GOODFN_HEAD.format(1.0, 1e-06, 0.25)
     + "# case = opposite_signs\n# floor = 1e-06\n"
     "0.0625,1.9835723306221253,127718.79744439393,50,0\n"
     "0.015625,0.0,0.0,50,0\n0.00390625,0.0,0.0,50,0\n", id="opposite_signs"),
    pytest.param(_GOODFN_B_FLOOR,
     "# a = 5.0\n# b = 0.5\n" + _GOODFN_HEAD.format(2.0, 0.001, 10.25)
     + "# case = b_floor\n# floor = 0.25\n"
     "2.5625,1.2847867434987115,6.473263111449295,50,0\n"
     "0.640625,0.0,0.0,50,0\n0.16015625,0.0,0.0,50,0\n", id="b_floor"),
])
def test_cli_goodfn_grid_path_rows(tmp_path, monkeypatch, argv, out):
    # the a < 0 and b >= mu cases, whose sublevel sets the generic case's
    # search finds too; a 50-digit reference reads C = 1.98357233062212552
    # and 1.28478674349871159, measure 127718.797444393917 and
    # 6.47326311144929765
    monkeypatch.chdir(tmp_path)
    assert _run_quiet(argv) == (0, out, "")


@pytest.mark.parametrize("a, b, extra, case", [
    pytest.param("-1", "0.5", ["--mu", "0.6", "--nu", "0.5"], "opposite_signs",
                 id="opposite_signs"),  # floor 0.5
    pytest.param("5", "0.9", ["--gamma", "0.02", "--nu", "1e-3"], "b_floor",
                 id="b_floor"),  # floor 0.81
])
def test_cli_goodfn_default_rho_is_f1_above_the_floor(tmp_path, monkeypatch, a, b, extra, case):
    # where min(f(1), 0.25) is not above f's floor, f never comes down to it:
    # the default rho is then f(1), and the hull of {f <= rho} starts at x = 1
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_quiet(["goodfn", "--a", a, "--b", b, *extra])
    assert (code, err) == (0, "")
    f1 = (float(b) - float(a)) ** 2 + float(b) ** 2
    assert f"# rho = {f1!r}\n# case = {case}\n" in out
    assert len([line for line in out.splitlines() if not line.startswith("#")]) == 3


# (argv, exit code, stdout) of runs at the float range's edge, where a
# float ** raises OverflowError: each keeps the exit code and stdout it had
# when these paths computed on numpy arrays, with no traceback
_EDGE_RUNS = [
    (["mollify", "--gamma-box", "1e308"], 0,
     "# delta = 0.05\n# n = 1\n# gamma = 1e+308\n1e+308,1e+308,0.02734374999999999,0.2\n"),
    (["mollify", "--delta", "1e308"], 2, ""),
    (["mollify", "--delta", "1e-300", "--n", "3"], 0,
     "# delta = 1e-300\n# n = 3\n# gamma = 1.0\n1.0,1.0,1.6406249999999994e-300,1.2e-299\n"),
    (["mollify", "--n", "2", "--gamma-box", "1e154", "--delta", "1e157"], 2, ""),
    (["goodfn", "--a", "1e300"], 2, ""),
    # f >= its floor 0.5 > 0.25, so the default rho is f(1) = 2.5 (this run
    # exited 1 while that default was 0.25, which no window reaches)
    (["goodfn", "--a", "-1", "--b", "0.5", "--mu", "0.6", "--nu", "0.5"], 0,
     "# a = -1.0\n# b = 0.5\n# kappa = 1.0\n# gamma = 0.05\n# mu = 0.6\n# nu = 0.5\n"
     "# rho = 2.5\n# case = opposite_signs\n# floor = 0.5\n"
     "0.625,0.0,0.0,50,0\n0.15625,0.0,0.0,50,0\n0.0390625,0.0,0.0,50,0\n"),
]


@pytest.mark.parametrize("argv, code, out",
                         [pytest.param(*run, id=" ".join(run[0])) for run in _EDGE_RUNS])
def test_cli_scalar_paths_keep_the_exit_contract(tmp_path, argv, code, out):
    proc = subprocess.run([sys.executable, "-m", "homodyn.cli", *argv], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path, env=_child_env())
    assert (proc.returncode, proc.stdout) == (code, out)
    prefix = {0: "", 1: "config error: ", 2: "numeric failure: "}[code]
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == (code > 0)


_FUZZ_VALUES = ["0", "-1", "0.5", "2", "nan", "inf", "-inf", "1e-300", "1e200", "1e308", "abc"]
_FUZZ_BASES = _FUZZ_VALUES + [_deep_base(x, t) for x in (golden_ratio, math.sqrt(2.0), math.e)
                              for t in (20.0, 36.5, 40.0, 60.0, 80.0)]
# subcommand -> (fixed arguments that keep it cheap, flags to draw)
_FUZZ_COMMANDS = {
    "constants": ([], ["--s", "--kappa", "--eps"]),
    "mollify": ([], ["--delta", "--n", "--gamma-box"]),
    "goodfn": ([], ["--a", "--b", "--kappa", "--gamma", "--mu", "--nu", "--rho"]),
    "count": (["--l", "50"], ["--l", "--theta1", "--theta2"]),
    "dim": (["--levels", "1", "--R", "1000"], ["--kappa", "--eps", "--schedule"]),
    "dio": (["--bound", "20"], ["--x", "--base", "--depth", "--kappa", "--tmax"]),
    "orbit": (["--N", "50"], ["--gamma", "--base", "--threads"]),
    "pieces": (["--N", "50"], ["--gamma", "--eps", "--kappa", "--base"]),
}


@st.composite
def _fuzz_runs(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    fixed, flags = _FUZZ_COMMANDS[sub]
    pair = st.sampled_from(flags).flatmap(lambda flag: st.tuples(
        st.just(flag), st.sampled_from(_FUZZ_BASES if flag == "--base" else _FUZZ_VALUES)))
    pairs = draw(st.lists(pair, max_size=3))
    via_config = draw(st.booleans())
    return sub, fixed, pairs, via_config


def _fuzz_argv(run, tmp, joined):
    """The argv of a fuzz run: the drawn flags, or a --config file that holds
    them, each spelled --flag=value (joined) or --flag value."""
    sub, fixed, pairs, via_config = run
    argv = [sub] + fixed + ["--out", os.path.join(tmp, "out.csv")]
    if via_config:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{flag[2:]}={value}\n" for flag, value in pairs)
        pairs = [("--config", cfg)]
    return argv + [tok for flag, value in pairs
                   for tok in ([f"{flag}={value}"] if joined else [flag, value])]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_fuzz_runs())
def test_cli_fuzz_exit_contract(run):
    # whatever the values, main returns 0, 1 or 2, raises nothing and keeps
    # the stderr contract: nothing at exit 0, one prefixed line at exits 1
    # and 2 (argparse's usage message excepted), never errno text.  Both
    # spellings of every flag run the same: a separate negative value such
    # as -inf is read as the flag's value, as --flag=-inf is
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for joined in (False, True):
            argv = _fuzz_argv(run, tmp, joined)
            code, out, err = _run_quiet(argv)
            assert code in (0, 1, 2), argv
            if code == 0:
                assert err == "", argv
            elif not (code == 1 and err.startswith("usage:")):
                _assert_one_line(err, {1: "config error: ", 2: "numeric failure: "}[code], argv)
            runs.append((code, out, err))
    assert runs[0] == runs[1], argv


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["dio", "orbit"]), st.integers(1, 1000))
@example("dio", 29)
@example("dio", 30)
@example("orbit", 1000)
def test_cli_fuzz_liouville_contract(sub, k):
    # liouville(k) plants a quotient for k <= 29 and is refused from k = 30 on,
    # where the first planted quotient takes q past 10^9
    with tempfile.TemporaryDirectory() as tmp:
        size = ["--bound", "20"] if sub == "dio" else ["--N", "50"]
        argv = [sub, "--base", f"liouville({k})", "--out", os.path.join(tmp, "out.csv")] + size
        code, _, err = _run_quiet(argv)
    if k <= 29:
        assert (code, err) == (0, ""), argv
    else:
        assert code == 1, argv
        _assert_one_line(err, "config error: ", argv)


def test_tracing_wrapped_names_resolve(tmp_path, monkeypatch):
    # bench/tracing.py rebinds these names for --trace 1; a rename, or a
    # bind that replaced the span wrappers, would break the traced pass
    # without failing any test under tests/
    import homodyn.cli as cli

    monkeypatch.chdir(tmp_path)
    tracing = _bench_module("tracing", monkeypatch)
    assert tracing.WRAPPED
    for mod_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    originals = {attr: getattr(cli, attr) for mod_name, attr, _, _ in tracing.WRAPPED
                 if mod_name == "homodyn.cli"}
    with tracing.installed(tracing.Recorder()) as recorder:
        for argv in (["orbit", "--N", "50"], ["count", "--l", "50"], ["constants"]):
            assert _run_quiet(argv)[::2] == (0, ""), argv
    assert {s.name for s in recorder.spans} >= {
        "surface.reduce", "orbits.sample_sparse", "orbits.discrepancy", "report.emit_csv",
        "lattice.gap_constants", "diophantine.exponent_bundle"}
    assert all(getattr(cli, attr) is fn for attr, fn in originals.items())
