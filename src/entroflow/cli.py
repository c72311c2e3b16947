"""Command-line front end.

Subcommands
-----------
lambda1    smallest eigenvalue of the weighted quotient (sweeps over p)
flow       integrate the linear or porous-media flow, write a trace CSV
region     center and bounding box of the admissible (m, p) region at a theta
constants  evaluate the constant chain and hypothesis booleans
report     run verification checks over a trace, write verdicts (and a plot)

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 failed hypothesis;
``report`` exits with 4 + (number of failed verdicts), capped at 125.

All outputs are deterministic given config and seed; JSON is sorted,
trace CSV uses 17 significant digits, plots are self-contained SVG.

A trace is the record of its run: ``flow`` writes the four geometry flags as
the run used them (``potential``, ``domain``, ``radial``, ``n``) into the
trace's meta under ``geometry``, and ``report`` rebuilds the grid from them,
a geometry flag given to ``report`` taking their place.

Each command imports the modules it runs inside its own function, so a
process loads only those: ``lambda1`` ``spectrum``, ``flow`` ``flows``,
``region`` ``criteria``, ``constants`` ``criteria`` (and ``spectrum`` when it
solves lambda1), ``report`` ``flows`` and ``verify``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDomain,
    DomainError,
    EntroflowError,
    NonpositiveLambda,
    OutsideEllipse,
    ParameterError,
    QOutOfRange,
    TailMassTooLarge,
)
from .grid import Grid, make_interval_grid, make_radial_grid
from .potential import potential_from_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_HYPOTHESIS = 4

_DOMAIN = "-8:8"  # interval of the geometry flags when --domain is not given

# every file the CLI opens is one the user named, so an OSError is a config error
_CONFIG_ERRORS = (
    ConfigError, ParameterError, DomainError, DegenerateDomain, TailMassTooLarge, OSError,
)
_HYPOTHESIS_ERRORS = (OutsideEllipse, QOutOfRange, NonpositiveLambda)


def _normalize_argv(argv: list[str]) -> list[str]:
    """Merge '--domain -8:8' into '--domain=-8:8' so argparse accepts it."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--domain", "--radial") and i + 1 < len(argv) and ":" in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def _float_list(text: str) -> tuple[float, ...]:
    """argparse type of a comma list of numbers ('1.2,1.5,2.0')."""
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a comma list of numbers, got {text!r}") from None


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    try:
        a, _, b = text.partition(":")
        return float(a), float(b)
    except ValueError as exc:
        raise ConfigError(f"{flag} expects A:B, got {text!r}") from exc


def _build_geometry(args: argparse.Namespace) -> tuple[Grid, dict]:
    """The grid, with its potential, of the geometry flags, and the flags as
    the grid used them: the record a flow writes into its trace's meta."""
    if args.domain and args.radial:
        raise ConfigError(f"--domain {args.domain} and --radial {args.radial} name "
                          "two grids; give one")
    text = args.potential or "gaussian"
    record = {"potential": text, "domain": None, "radial": args.radial}
    if text.startswith("tabulated:") and not args.radial:
        pot = potential_from_spec(text)
        x = pot.table_x
        xL, xR = float(x[0]), float(x[-1])
        # the grid is the table's nodes: a flag may only repeat them
        if args.n is not None and args.n != len(x):
            raise ConfigError(f"--n {args.n} disagrees with the table's {len(x)} rows")
        if args.domain and _parse_pair(args.domain, "--domain") != (xL, xR):
            raise ConfigError(
                f"--domain {args.domain} disagrees with the table's span {xL!r}:{xR!r}")
        grid = make_interval_grid(xL, xR, len(x), pot)
    elif args.n is None:
        raise ConfigError("--n is required")
    elif args.radial:
        d_raw, R = _parse_pair(args.radial, "--radial")
        if not d_raw.is_integer():
            raise ConfigError(f"--radial expects an integer dimension, got {args.radial!r}")
        pot = potential_from_spec(text, int(d_raw))
        grid = make_radial_grid(int(d_raw), R, args.n, pot)
    else:
        record["domain"] = args.domain or _DOMAIN
        xL, xR = _parse_pair(record["domain"], "--domain")
        pot = potential_from_spec(text)
        grid = make_interval_grid(xL, xR, args.n, pot)
    return grid, {**record, "n": grid.n}


def _config_tokens(path: str) -> list[str]:
    """A JSON config object as '--key=value' tokens, checked by argparse like flags."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"--config {path} is not JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("--config must hold a JSON object")
    if "config" in cfg:
        raise ConfigError(f"--config {path} names another config file")
    tokens = []
    for key, value in cfg.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(
                f"config key {key!r} needs a string or a number, got {json.dumps(value)}")
        tokens.append(f"--{key}={value}")
    return tokens


def _json_out(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_lambda1(args: argparse.Namespace) -> int:
    if args.theta is None and not args.p:
        raise ConfigError("lambda1 needs --p (possibly a comma list) or --theta")
    from . import spectrum

    grid, _ = _build_geometry(args)
    if args.theta is not None:
        results = [("theta", args.theta, spectrum.lambda1_pme(args.theta, grid))]
    else:
        results = [("p", p, spectrum.lambda1_linear(p, grid)) for p in args.p]
    payload = []
    for kind, value, res in results:
        print(f"{res.lam:.12g}")
        payload.append(
            {
                kind: value,
                "lambda1": res.lam,
                "residual": res.residual,
                "tol": res.tol,
                "iterations": res.iterations,
                "grid": grid.ident,
                "n": grid.n,
            }
        )
    if args.out:
        _json_out(payload if len(payload) > 1 else payload[0], args.out)
    return EXIT_OK


def cmd_flow(args: argparse.Namespace) -> int:
    from . import flows

    grid, geometry = _build_geometry(args)
    # only the flags given: FlowConfig owns every other default
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(flows.FlowConfig)
             if getattr(args, f.name, None) is not None}
    cfg = flows.FlowConfig(kind=args.flow_kind, **given)
    runner = flows.run_linear if cfg.kind == "linear" else flows.run_pme
    trace = runner(cfg, grid)
    trace.meta["geometry"] = geometry
    if args.trace:
        trace.to_csv(args.trace)
    print(
        f"t_end={trace.t[-1]:.6g} E={trace.E[-1]:.12g} I={trace.I[-1]:.12g} "
        f"mass_drift={trace.mass_drift:.3e} min_v={trace.min_v.min():.6g}"
    )
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    from . import criteria

    _json_out(criteria.region_report(args.theta).to_dict(), args.out)
    return EXIT_OK


def cmd_constants(args: argparse.Namespace) -> int:
    from . import criteria

    if args.from_p is not None:
        theta = criteria.theta_from_p(args.from_p)
    elif args.theta is not None:
        theta = args.theta
    else:
        raise ConfigError("constants needs --theta or --from-p")
    # lambda1 is given, or solved on the geometry flags' grid
    given = [f"--{k}" for k in ("potential", "domain", "radial", "n")
             if getattr(args, k) is not None]
    if args.lambda1 is not None and given:
        raise ConfigError("constants takes --lambda1 or the geometry flags, not both; "
                          f"got --lambda1 and {', '.join(given)}")
    if given:
        from . import spectrum

        lam = spectrum.lambda1_pme(theta, _build_geometry(args)[0]).lam
    else:
        lam = args.lambda1
    report = criteria.constants_report(args.m, args.p, theta, lam, args.e0)
    _json_out(report, args.out)
    # constants_report adds the constant chain only where every hypothesis holds
    return EXIT_OK if "kappa" in report else EXIT_HYPOTHESIS


def _svg_plot(path: str, t: np.ndarray, curves: list[tuple[str, np.ndarray]]) -> None:
    """Tiny self-contained SVG: one polyline per curve, log-scale y.  With
    nothing positive to plot (an equilibrium trace) the axis spans the
    decades around 1 and each polyline is empty."""
    width, height, margin = 640, 440, 60
    positive = np.concatenate([c[np.isfinite(c) & (c > 0)] for _, c in curves])
    ymin, ymax = (float(positive.min()), float(positive.max())) if positive.size else (1.0, 1.0)
    if ymin == ymax:
        ymin, ymax = ymin / 10.0, ymax * 10.0
    ly0, ly1 = math.log10(ymin), math.log10(ymax)
    t0, t1 = float(t[0]), float(t[-1]) if t[-1] > t[0] else float(t[0]) + 1.0

    def xs(tv: float) -> float:
        return margin + (tv - t0) / (t1 - t0) * (width - 2 * margin)

    def ys(val: float) -> float:
        return height - margin - (math.log10(val) - ly0) / (ly1 - ly0) * (height - 2 * margin)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 18}" font-size="13" '
        f'text-anchor="middle">t</text>',
        f'<text x="16" y="{height // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {height // 2})">value (log)</text>',
    ]
    for i, (name, vals) in enumerate(curves):
        pts = []
        for tv, val in zip(t, vals):
            if np.isfinite(val) and val > 0:
                pts.append(f"{xs(tv):.2f},{ys(val):.2f}")
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 150}" y="{margin + 16 * (i + 1)}" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _geometry_from_meta(args: argparse.Namespace, meta: dict) -> argparse.Namespace:
    """Geometry flags: as given, else as the flow recorded them in the trace
    meta; a given --domain or --radial takes the place of both recorded spans."""
    given = vars(args)
    recorded = meta.get("geometry") or {}
    if given.get("domain") or given.get("radial"):
        recorded = {k: v for k, v in recorded.items() if k not in ("domain", "radial")}
    return argparse.Namespace(
        **{**given, **{k: v for k, v in recorded.items() if v and not given.get(k)}})


def cmd_report(args: argparse.Namespace) -> int:
    if not args.trace:
        raise ConfigError("report needs --trace")
    from . import flows, verify

    trace = flows.Trace.from_csv(args.trace)
    # only the flags given: run_checks owns the defaults
    given = {k: v for k, v in vars(args).items()
             if k in ("lambda1", "trials", "seed") and v is not None}
    verdicts, e_bound = verify.run_checks(
        trace, args.checks,
        geometry=lambda: _build_geometry(_geometry_from_meta(args, trace.meta))[0],
        **given,
    )
    _json_out([v.to_dict() for v in verdicts], args.out)
    if args.plot:
        bound = [] if e_bound is None else [("E bound", e_bound)]
        _svg_plot(args.plot, trace.t, [("E (trace)", trace.E)] + bound)
    failed = sum(not v.passed for v in verdicts)
    return EXIT_OK if failed == 0 else min(EXIT_HYPOTHESIS + failed, 125)


class _HelpFormatter(argparse.HelpFormatter):
    """Appends the check names to the help of ``report --checks`` only when
    it is printed, so that no other command imports ``verify`` for its
    ``CHECKS``."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.dest != "checks":
            return action.help
        from . import verify

        return action.help + ",".join(verify.CHECKS)


def _add_geometry_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--potential", help="gaussian|flat|power:B|harmonic_log:E|tabulated:f.csv "
                                        "(f.csv: two columns x,F)")
    sp.add_argument("--domain", help="interval A:B (use --domain=-8:8 form)")
    sp.add_argument("--radial", help="radial D:R")
    sp.add_argument("--n", type=int, help="node count")
    sp.add_argument("--config", help="JSON config file; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag or config key must be spelled out in full
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="eigenvalue criteria, diffusion flows and decay-envelope verification",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False, formatter_class=_HelpFormatter)

    sp = command("lambda1", "smallest quotient eigenvalue")
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--p", type=_float_list, help="p value or comma list")
    which.add_argument("--theta", type=float, help="use the (1-theta) gradient coefficient")
    sp.add_argument("--jobs", type=int, help="ignored; kept so older scripts still parse")
    sp.add_argument("--out", help="output JSON path")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_lambda1)

    sp = command("flow", "integrate a flow and write its trace")
    sp.add_argument("flow_kind", choices=("linear", "pme"))
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--m", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--tend", dest="t_end", type=float)
    sp.add_argument("--dt", type=float, help="row time unit (default tend/200): rows every "
                    "stride dt; neither flow steps by dt")
    sp.add_argument("--init", help="bump:A | odd:A | const | csv:path")
    sp.add_argument("--stride", type=int, help="dt units per row (default: about 200 rows)")
    sp.add_argument("--trace", help="trace CSV output path")
    sp.add_argument("--fields", help="ignored; kept so older scripts still parse")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_flow)

    sp = command("region", "center and bounding box of the admissible (m,p) region")
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output JSON path")
    sp.set_defaults(func=cmd_region)

    sp = command("constants", "constant chain + hypothesis booleans")
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--p", type=float, default=1.5)
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--theta", type=float)
    which.add_argument("--from-p", type=float, help="derive theta = 2/p - 1")
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--e0", type=float, default=0.0,
                    help="initial entropy for the rate constant")
    sp.add_argument("--out", help="output JSON path")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_constants)

    sp = command("report", "verification checks over a trace")
    sp.add_argument("--trace", help="trace CSV to audit")
    sp.add_argument("--fields", help="ignored; kept so older scripts still parse")
    sp.add_argument("--checks", type=lambda text: [c for c in text.split(",") if c],
                    help="comma list: ")
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--plot", help="SVG output path")
    sp.add_argument("--out", help="output JSON path")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values go in right after the subcommand: later explicit flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
        return args.func(args)
    except SystemExit as exc:  # argparse's error path and --help
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EntroflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main_entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
