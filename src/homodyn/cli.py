"""Experiment runner: named base points, config parsing, module dispatch,
CSV/SVG artifact output.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import re
import sys

from . import __version__
from .psl2 import GroupElement, golden_ratio, identity, slope_base
from .report import ExperimentReport, check_capacity, emit_csv

def _bind(*modules) -> None:
    """Import ``modules``, an entry's of _RUNNERS (numpy comes with them, cli
    never imports it), and bind here every public function and class each
    defines.  A bound name keeps its value: a function set on this module
    from outside (a test's fake, the benchmark's span wrapper) stays."""
    names = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name, value in vars(mod).items():
            if not name.startswith("_") and getattr(value, "__module__", None) == mod.__name__:
                names.setdefault(name, value)


def __getattr__(name):
    """What an experiment's module defines is an attribute here: a lookup
    binds the modules of every entry, in declaration order."""
    if not name.startswith("_"):
        for _, modules, _, _ in _RUNNERS.values():
            _bind(*modules)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    pass


def parse_base(text: str) -> GroupElement:
    """Named base points: identity, golden, sqrt2, e, liouville(k), or an
    explicit a,b,c,d matrix."""
    t = text.strip().lower()
    if t == "identity":
        return identity()
    if t == "golden":
        return slope_base(golden_ratio)
    if t == "sqrt2":
        return slope_base(math.sqrt(2.0))
    if t == "e":
        return slope_base(math.e)
    m = re.fullmatch(r"liouville\((\d+(?:\.\d+)?)\)", t)
    if m:
        _bind("diophantine")
        zeta = float(m.group(1))
        return slope_base(cf_from_quotients(planted_quotients(zeta)).x)
    parts = text.split(",")  # a blank field is refused, not dropped
    if len(parts) == 4:
        try:
            return GroupElement(*(float(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"bad matrix base {text!r}: {exc}") from None
    raise ConfigError(f"unknown base point {text!r}")


def load_config(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_SVG_MAX = 2 * 10**6  # points an --svg scatter may draw


def _check_svg(args, n: int) -> None:
    """Refuse --svg above _SVG_MAX points, before any point is sampled."""
    if args.svg and n > _SVG_MAX:
        raise ConfigError(f"--svg draws at most {_SVG_MAX} points, not {n}")


def _series_report(args, series) -> ExperimentReport:
    """Discrepancy table of an orbit sample; --threads is recorded, --svg drawn."""
    rep = discrepancy(series, default_suite())
    rep.params["threads"] = args.threads
    if args.svg:
        emit_svg(series.xs, series.ys, args.svg)
    return rep


def run_orbit(args) -> ExperimentReport:
    _check_svg(args, args.N)
    p = reduce(parse_base(args.base))
    return _series_report(args, sample_sparse(p, args.gamma, args.N))


def run_curve(args) -> ExperimentReport:
    _check_svg(args, args.points)
    p = reduce(parse_base(args.base))
    check_capacity(args.points, "curve points")
    if not (1.0 <= args.xmax < math.inf):
        raise ConfigError("need finite --xmax >= 1")
    import numpy as np  # loaded with orbits

    grid = np.geomspace(1.0, args.xmax, args.points)
    return _series_report(args, sample_curve(p, args.gamma, grid))


def run_twist(args) -> ExperimentReport:
    import numpy as np  # loaded with orbits

    p = reduce(parse_base(args.base))
    f = height_band(args.band)
    rep = ExperimentReport(
        params={"base": args.base, "frequency": args.frequency, "band": args.band},
        columns=["T", "re", "im", "abs_centered"],
    )
    for T in args.T:
        mu = twisted_average(p, T, args.frequency, f)
        w = 2j * math.pi * args.frequency
        mu_one = (np.exp(w * T) - 1.0) / (w * T) if args.frequency else 1.0
        centered = mu - f.haar_mean * mu_one
        rep.add_row(T, float(mu.real), float(mu.imag), abs(centered))
    return rep


def run_prog(args) -> ExperimentReport:
    p = reduce(parse_base(args.base))
    f = height_band(args.band)
    rep = ExperimentReport(
        params={"base": args.base, "K_exponent": args.K_exponent, "band": args.band},
        columns=["T", "K", "centered_average"],
    )
    if (args.K is None) == (not args.K_exponent):  # else K = T^exponent
        raise ConfigError("prog takes --K if and only if --K-exponent is 0")
    for T in args.T:
        K = T ** args.K_exponent if args.K_exponent else args.K
        rep.add_row(T, K, progression_average(p, K, T, f))
    return rep


def run_pieces(args) -> ExperimentReport:
    p = reduce(parse_base(args.base))
    return piece_decomposition(p, args.gamma, args.eps, args.N, args.kappa)


def run_dio(args) -> ExperimentReport:
    rep = ExperimentReport(
        params={"x": args.x, "depth": args.depth, "kappa": args.kappa,
                "bound": args.bound},
        columns=["quantity", "value"],
    )
    if args.x is not None:
        cf = cf_expand(args.x, args.depth)
        rep.add_row("type_estimate", type_estimate(cf))
        rep.add_row("quotient_count", len(cf.quotients))
        p = reduce(slope_base(args.x))
    else:
        p = reduce(parse_base(args.base))
    (witness,) = point_type_check(p, args.kappa, args.bound)
    rep.add_row("witness_mu", witness.mu)
    rep.add_row("witness_nu", witness.nu)
    rep.add_row("witness_symmetric", witness.symmetric)
    rep.add_row("axis_vectors", len(witness.axis_vectors))
    try:
        rep.add_row("excursion_type", excursion_type_estimate(p, args.tmax))
    except (DivergentOrbitError, OpenExcursionError):
        rep.add_row("excursion_type", float("nan"))
    return rep


def run_goodfn(args) -> ExperimentReport:
    params = GoodFnParams(a=args.a, b=args.b, kappa=args.kappa, gamma=args.gamma,
                          mu=args.mu, nu=args.nu, rho=args.rho)
    eps_grid = [params.rho / 4.0, params.rho / 16.0, params.rho / 64.0]
    return verify_good(params, eps_grid)


_COUNT_L = (0.5, 1e6)  # count --l: rows b <= 2l, each a few microseconds


def run_count(args) -> ExperimentReport:
    q = SectorQuery(args.l, args.theta1, args.theta2)
    # the bound and the half-plane are checked before any counting
    lo, hi = _COUNT_L
    if not lo <= q.l <= hi:
        raise ConfigError(f"--l must lie in [{lo:g}, {hi:g}], got {q.l:g}")
    check_half_plane(q)
    n = primitive_count(q)
    c2, cx = gap_constants()
    rep = ExperimentReport(
        params={"l": args.l, "theta1": args.theta1, "theta2": args.theta2},
        columns=["count", "l2_dtheta", "ratio", "gap_second", "gap_cross"],
    )
    area = args.l**2 * (args.theta2 - args.theta1)
    rep.add_row(n, area, n / area if area else float("nan"), c2, cx)
    return rep


def run_dim(args) -> ExperimentReport:
    rep = ExperimentReport(
        params={"kappa": args.kappa, "levels": args.levels,
                "schedule": ",".join(f"{l:g}" for l in args.schedule),
                "closed_form_full": assembled_dimension([args.kappa])},
        columns=["quantity", "value"],
    )
    crit = 2.0 / (args.kappa + 1.0)
    rep.add_row("slice_dimension_closed_form", crit)
    for side, delta in (("above", min(1.0, crit + 0.05)), ("below", max(0.05, crit - 0.05))):
        cs = cover_sum(args.kappa, delta, args.R)
        rep.params[f"cover_sum_decay_{side}"] = cs.decay
        rep.add_row(f"cover_sum_{side}_threshold_convergent", int(cs.convergent))
    fam = build_tree(args.kappa, args.eps, args.levels, args.schedule)
    bound = dimension_lower_bound(fam)
    for j, v in enumerate(bound.series):
        rep.add_row(f"tree_bound_depth_{j + 1}", v)
    rep.add_row("tree_bound_final", bound.value)
    return rep


def run_mollify(args) -> ExperimentReport:
    rep = ExperimentReport(
        params={"delta": args.delta, "n": args.n, "gamma": args.gamma_box},
        columns=["integral", "box_volume", "l1_to_box", "l1_bound"],
    )
    spec = MollifierSpec(delta=args.delta, n=args.n, gamma=args.gamma_box)
    integral, l1 = verify_mollifier(spec)
    rep.add_row(integral, args.gamma_box**args.n, l1,
                4.0 * args.n * args.delta * (args.gamma_box + args.delta) ** (args.n - 1))
    return rep


def run_box(args) -> ExperimentReport:
    p = reduce(parse_base(args.base))
    f = height_band(args.band)
    rep = box_decay_report(p, f, args.T)
    if args.weighted:
        spec = MollifierSpec(delta=0.1, n=1, gamma=1.0)
        w = weighted_box_average(p, args.T[-1], f, spec)
        rep.params["weighted_average"] = w
        rep.params["weighted_reference"] = f.haar_mean * spec.gamma
    return rep


def run_constants(args) -> ExperimentReport:
    bundle = exponent_bundle(args.s, args.kappa, epsilon=args.eps)
    rep = ExperimentReport(
        params={"s": args.s, "epsilon": args.eps},
        columns=["quantity", "value"],
    )
    rep.add_row("kappa_mix", bundle.kappa_mix)
    rep.add_row("beta", bundle.beta)
    rep.add_row("gamma0_spectral", bundle.gamma0_spectral)
    rep.add_row("gamma0_progression", bundle.gamma0_progression)
    return rep


_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a separate negative float literal after a
    flag (--s -1e-3, --s -inf, --base -0.8,0.3,1.2,-1.7) as the flag's value,
    as it already does -1 and -.5: no flag of homodyn looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def positive_int(text: str) -> int:
    """argparse type of --threads."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer (--threads)")
    return int(text)


def number_list(text: str) -> list:
    """argparse type of --schedule: comma-separated numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers (--schedule)") from None


# experiment -> (runner, the modules whose names it calls, help summary,
# flags).  A flag is (name, default[, type[, help]]), see _add_flag; every
# experiment also takes the _FILES flags.
_SAMPLED = (("--svg", None, None, "SVG scatter path"), ("--threads", 1, positive_int))
_FILES = (("--out", None, None, "CSV output path"),
          ("--config", None, None, "key=value defaults file"))
_RUNNERS = {
    "orbit": (run_orbit, ("orbits", "surface", "svg"), "sparse orbit discrepancy against Haar",
              (("--base", "golden"), ("--gamma", 0.01), ("--N", 100000), *_SAMPLED)),
    "curve": (run_curve, ("orbits", "surface", "svg"), "expanding-translate curve discrepancy",
              (("--base", "golden"), ("--gamma", 0.1), ("--xmax", 1e6), ("--points", 100000),
               *_SAMPLED)),
    "twist": (run_twist, ("orbits", "surface"), "oscillation-twisted time averages",
              (("--base", "golden"), ("--frequency", 0.37), ("--T", [1e2, 1e3, 1e4]),
               ("--band", 2.0))),
    "prog": (run_prog, ("orbits", "surface"), "arithmetic-progression averages",
             (("--base", "golden"), ("--K", None, float), ("--K-exponent", 0.05),
              ("--T", [1e3, 1e4, 1e5]), ("--band", 2.0))),
    "pieces": (run_pieces, ("orbits", "surface"), "greedy block cover of sparse indices",
               (("--base", "golden"), ("--gamma", 0.1), ("--eps", 0.1), ("--N", 50000),
                ("--kappa", 1.0))),
    "dio": (run_dio, ("diophantine", "surface"), "continued-fraction and point-type reports",
            (("--x", None, float), ("--base", "golden"), ("--depth", 20), ("--kappa", 1.0),
             ("--bound", 1000), ("--tmax", 35.0))),
    "goodfn": (run_goodfn, ("goodfn",), "sublevel-measure constants",
               (("--a", 1.0), ("--b", 1e-5), ("--kappa", 1.0), ("--gamma", 0.05),
                ("--mu", 0.5), ("--nu", 5e-6), ("--rho", 0.0))),
    "count": (run_count, ("lattice",), "annular sector counts of primitive vectors",
              (("--l", 1000.0), ("--theta1", math.pi / 4.0), ("--theta2", math.pi / 2.0))),
    "dim": (run_dim, ("fractal",), "dimension bounds and cover sums",
            (("--kappa", 1.0), ("--eps", 0.0), ("--levels", 2),
             ("--schedule", [50.0, 2500.0], number_list), ("--R", 10000))),
    "mollify": (run_mollify, ("mollify",), "smoothed box indicator checks",
                (("--delta", 0.05), ("--n", 1), ("--gamma-box", 1.0))),
    "box": (run_box, ("mollify", "orbits", "surface"), "horocycle box-average decay",
            (("--base", "golden"), ("--T", [1e2, 1e3, 1e4]), ("--band", 2.0),
             ("--weighted", False))),
    "constants": (run_constants, ("exponents",), "exponent tables",
                  (("--s", 0.5), ("--kappa", [1.0]), ("--eps", 0.0))),
}


def _add_flag(parser, name, default, kind=None, help=None) -> None:
    """Add one flag of a _RUNNERS entry to its subparser.  Without a type it
    parses as its default's: a list of floats takes several values, a bool is
    a --x/--no-x switch and a None default keeps the string given."""
    if kind is not None:
        how = {"type": kind}
    elif isinstance(default, bool):
        how = {"action": argparse.BooleanOptionalAction}
    elif isinstance(default, list):
        how = {"type": float, "nargs": "+"}
    else:
        how = {"type": None if default is None else type(default)}
    parser.add_argument(name, default=default, help=help, **how)


def build_parser(experiment=None) -> argparse.ArgumentParser:
    """The parser of every experiment, or of that one only: main parses a
    command with its own subparser alone, and every text it prints (usage,
    help, errors) reads as the full parser's does."""
    parser = _Parser(
        prog="homodyn",
        description="numerical experiments on flows over the modular surface",
    )
    parser.add_argument("--version", action="version", version=f"homodyn {__version__}")
    # a one-experiment parser's usage line lists every experiment, as the full one's does
    metavar = None if experiment is None else "{" + ",".join(_RUNNERS) + "}"
    sub = parser.add_subparsers(dest="experiment", required=True, metavar=metavar)
    for name, (_, _, summary, flags) in _RUNNERS.items():
        if experiment in (None, name):
            p = sub.add_parser(name, help=summary)
            for flag in flags + _FILES:
                _add_flag(p, *flag)
    return parser


def _apply_config(argv, path, parser, experiment):
    """argv with the values of config file path as defaults: they go before
    the explicit flags, and argparse keeps a flag's last value, so these
    win however they are spelled.  A value true or false turns into the
    switch --key or --no-key; that of an nargs="+" flag splits at spaces."""
    sub = next(a for a in parser._actions if a.nargs == argparse.PARSER).choices[experiment]
    several = {f for a in sub._actions if a.nargs == "+" for f in a.option_strings}
    extra = []
    for key, value in load_config(path).items():
        switch = {"true": [f"--{key}"], "false": [f"--no-{key}"]}.get(value.lower())
        values = value.split() if f"--{key}" in several else [value]
        extra.extend(switch or [f"--{key}", *values])
    return argv[:1] + extra + argv[1:]


def main(argv=None) -> int:
    as_program = argv is None
    argv = list(sys.argv[1:] if as_program else argv)
    parser = build_parser(argv[0] if argv and argv[0] in _RUNNERS else None)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # --config FILE or --config=FILE
            args = parser.parse_args(_apply_config(argv, args.config, parser, args.experiment))
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for bad flags: map the latter to 1
        return 0 if exc.code in (0, None) else 1
    runner, modules, _, _ = _RUNNERS[args.experiment]
    _bind(*modules)
    if as_program:
        # The process ends with this command, so what exists now (modules,
        # parser) lives to the exit: frozen, no collection traverses it, the
        # full ones of interpreter teardown included.  Called with argv, main
        # runs inside a process that goes on, and leaves its heap alone.
        gc.freeze()
    try:
        report = runner(args)
    except ValueError as exc:  # bad parameters: every parameter check raises one
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError, OSError) as exc:  # numeric failure
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    text = "".join(f"# {key} = {value}\n" for key, value in report.params.items())
    text += "".join(",".join(str(v) for v in row) + "\n" for row in report.rows[:40])
    if len(report.rows) > 40:
        text += f"# ... {len(report.rows) - 40} more rows\n"
    try:
        print(text, end="", flush=True)
    except OSError as exc:
        import os

        # what the buffer still holds goes nowhere, so the flush at exit
        # adds no line to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that stops early is no failure
            print(f"numeric failure: cannot write stdout: {exc}", file=sys.stderr)
            return 2
    out = args.out or f"homodyn_{args.experiment}.csv"
    try:
        emit_csv(report, out)
    except OSError as exc:
        print(f"numeric failure: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
