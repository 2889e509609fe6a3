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

import numpy as np

from . import __version__
from .psl2 import GroupElement, golden_ratio, identity, slope_base
from .report import ExperimentReport, emit_csv, emit_svg

# module -> the names the runners call from it.  A command imports only the
# modules of its experiment (see _RUNNERS): their names are bound into this
# module's globals on first use.
_HELPERS = {
    "diophantine": ("DivergentOrbitError", "OpenExcursionError", "cf_expand",
                    "cf_from_quotients", "excursion_type_estimate", "exponent_bundle",
                    "planted_quotients", "point_type_check", "type_estimate"),
    "fractal": ("assembled_dimension", "build_tree", "cover_sum", "dimension_lower_bound"),
    "goodfn": ("GoodFnParams", "verify_good"),
    "lattice": ("SectorQuery", "check_capacity", "enumerate_orbit", "gap_constants",
                "sector_count"),
    "mollify": ("MollifierSpec", "box_decay_report", "verify_mollifier",
                "weighted_box_average"),
    "orbits": ("default_suite", "discrepancy", "height_band", "piece_decomposition",
               "progression_average", "sample_curve", "sample_sparse", "twisted_average"),
    "surface": ("reduce",),
}
_HOME = {name: module for module, names in _HELPERS.items() for name in names}


def _bind(*modules) -> None:
    """Import ``modules`` and bind their helper names here.  A name already
    bound keeps its value, so a function set on this module from outside
    (a test's fake, the benchmark's span wrapper) stays in place."""
    names = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name in _HELPERS[module]:
            names.setdefault(name, getattr(mod, name))


def __getattr__(name):
    """Every helper is an attribute of this module, bound on first lookup."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


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
    parts = [p for p in text.split(",") if p.strip()]
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
    grid = np.geomspace(1.0, args.xmax, args.points)
    return _series_report(args, sample_curve(p, args.gamma, grid))


def run_twist(args) -> ExperimentReport:
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
    if not args.K_exponent and args.K is None:
        raise ConfigError("prog needs --K when --K-exponent is 0")
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


def run_count(args) -> ExperimentReport:
    vecs = enumerate_orbit(2.0 * args.l)
    q = SectorQuery(args.l, args.theta1, args.theta2)
    n = sector_count(vecs, q)
    c2, cx = gap_constants(vecs)
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


# experiment -> (runner, the modules whose helpers it calls)
_RUNNERS = {
    "orbit": (run_orbit, ("orbits", "surface")),
    "curve": (run_curve, ("lattice", "orbits", "surface")),
    "twist": (run_twist, ("orbits", "surface")),
    "prog": (run_prog, ("orbits", "surface")),
    "pieces": (run_pieces, ("orbits", "surface")),
    "dio": (run_dio, ("diophantine", "surface")),
    "goodfn": (run_goodfn, ("goodfn",)),
    "count": (run_count, ("lattice",)),
    "dim": (run_dim, ("fractal",)),
    "mollify": (run_mollify, ("mollify",)),
    "box": (run_box, ("mollify", "orbits", "surface")),
    "constants": (run_constants, ("diophantine",)),
}


def positive_int(text: str) -> int:
    """argparse type of --threads."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer (--threads)")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homodyn",
        description="numerical experiments on flows over the modular surface",
    )
    parser.add_argument("--version", action="version", version=f"homodyn {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None, help="CSV output path")
        p.add_argument("--config", type=str, default=None,
                       help="key=value defaults file")

    def orbit_common(p):
        p.add_argument("--svg", type=str, default=None, help="SVG scatter path")
        p.add_argument("--threads", type=positive_int, default=1)
        common(p)

    p = sub.add_parser("orbit", help="sparse orbit discrepancy against Haar")
    p.add_argument("--base", default="golden")
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--N", type=int, default=100000)
    orbit_common(p)

    p = sub.add_parser("curve", help="expanding-translate curve discrepancy")
    p.add_argument("--base", default="golden")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--xmax", type=float, default=1e6)
    p.add_argument("--points", type=int, default=100000)
    orbit_common(p)

    p = sub.add_parser("twist", help="oscillation-twisted time averages")
    p.add_argument("--base", default="golden")
    p.add_argument("--frequency", type=float, default=0.37)
    p.add_argument("--T", type=float, nargs="+", default=[1e2, 1e3, 1e4])
    p.add_argument("--band", type=float, default=2.0)
    common(p)

    p = sub.add_parser("prog", help="arithmetic-progression averages")
    p.add_argument("--base", default="golden")
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--K-exponent", dest="K_exponent", type=float, default=0.05)
    p.add_argument("--T", type=float, nargs="+", default=[1e3, 1e4, 1e5])
    p.add_argument("--band", type=float, default=2.0)
    common(p)

    p = sub.add_parser("pieces", help="greedy block cover of sparse indices")
    p.add_argument("--base", default="golden")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--N", type=int, default=50000)
    p.add_argument("--kappa", type=float, default=1.0)
    common(p)

    p = sub.add_parser("dio", help="continued-fraction and point-type reports")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--base", default="golden")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--tmax", type=float, default=35.0)
    common(p)

    p = sub.add_parser("goodfn", help="sublevel-measure constants")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1e-5)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=5e-6)
    p.add_argument("--rho", type=float, default=0.0)
    common(p)

    p = sub.add_parser("count", help="annular sector counts of primitive vectors")
    p.add_argument("--l", type=float, default=1000.0)
    p.add_argument("--theta1", type=float, default=math.pi / 4.0)
    p.add_argument("--theta2", type=float, default=math.pi / 2.0)
    common(p)

    p = sub.add_parser("dim", help="dimension bounds and cover sums")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--schedule", type=lambda s: [float(x) for x in s.split(",")],
                   default=[50.0, 2500.0])
    p.add_argument("--R", type=int, default=10000)
    common(p)

    p = sub.add_parser("mollify", help="smoothed box indicator checks")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--gamma-box", dest="gamma_box", type=float, default=1.0)
    common(p)

    p = sub.add_parser("box", help="horocycle box-average decay")
    p.add_argument("--base", default="golden")
    p.add_argument("--T", type=float, nargs="+", default=[1e2, 1e3, 1e4])
    p.add_argument("--band", type=float, default=2.0)
    p.add_argument("--weighted", action=argparse.BooleanOptionalAction, default=False)
    common(p)

    p = sub.add_parser("constants", help="exponent tables")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--kappa", type=float, nargs="+", default=[1.0])
    p.add_argument("--eps", type=float, default=0.0)
    common(p)

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
    parser = build_parser()
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
    runner, modules = _RUNNERS[args.experiment]
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
