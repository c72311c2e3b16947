"""Command-line front end.

Subcommands
-----------
lambda1    smallest eigenvalue of the weighted quotient (sweeps over p)
flow       integrate the linear or porous-media flow, write a trace CSV
region     sample the admissible (m, p) region for a given theta
constants  evaluate the constant chain and hypothesis booleans
report     run verification checks over a trace, write verdicts (and a plot)

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 failed hypothesis;
``report`` exits with 4 + (number of failed verdicts), capped at 125.

All outputs are deterministic given config and seed; JSON is sorted,
trace CSV uses 17 significant digits, plots are self-contained SVG.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import criteria, flows, spectrum, verify
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
from .grid import make_interval_grid, make_radial_grid
from .potential import Potential, potential_from_spec, tabulated

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_HYPOTHESIS = 4

_CONFIG_ERRORS = (
    ConfigError, ParameterError, DomainError, DegenerateDomain, TailMassTooLarge,
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


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    try:
        a, _, b = text.partition(":")
        return float(a), float(b)
    except ValueError as exc:
        raise ConfigError(f"{flag} expects A:B, got {text!r}") from exc


def _parse_potential(text: str, d: int) -> Potential:
    name, _, arg = text.partition(":")
    if name in ("gaussian", "harmonic"):
        return potential_from_spec("harmonic", d)
    if name == "flat":
        return potential_from_spec("flat", d)
    if name == "power":
        return potential_from_spec({"family": "power", "beta": float(arg)}, d)
    if name == "harmonic_log":
        return potential_from_spec({"family": "harmonic_log", "eps": float(arg)}, d)
    if name == "tabulated":
        raw = np.loadtxt(arg, delimiter=",", ndmin=2)
        if raw.shape[1] < 4:
            raise ConfigError("tabulated potential file needs columns x,F,dF,d2F")
        return tabulated(raw[:, 0], raw[:, 1], raw[:, 2], raw[:, 3], d=d)
    raise ConfigError(f"unknown potential {text!r}")


def _potential_spec_text(text: str) -> dict:
    """Echoable spec for the trace metadata."""
    name, _, arg = text.partition(":")
    spec: dict = {"family": "harmonic" if name == "gaussian" else name}
    if arg:
        spec["arg"] = arg
    return spec


def _build_geometry(opts: dict):
    """(potential, grid) from the resolved options."""
    n = int(opts.get("n") or 0)
    radial = opts.get("radial")
    pot_text = opts.get("potential") or "gaussian"
    if pot_text.startswith("tabulated:"):
        if radial:
            raise ConfigError("tabulated potentials are interval-only in the CLI")
        pot = _parse_potential(pot_text, 1)
        x = pot.table_x
        n_tab = len(x)
        grid = make_interval_grid(float(x[0]), float(x[-1]), n_tab, pot)
        return pot, grid
    if radial:
        d_raw, R = _parse_pair(str(radial), "--radial")
        d = int(d_raw)
        pot = _parse_potential(pot_text, d)
        if not n:
            raise ConfigError("--n is required")
        return pot, make_radial_grid(d, R, n, pot)
    domain = opts.get("domain") or "-8:8"
    xL, xR = _parse_pair(str(domain), "--domain")
    pot = _parse_potential(pot_text, 1)
    if not n:
        raise ConfigError("--n is required")
    return pot, make_interval_grid(xL, xR, n, pot)


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < config file < explicit flags (flags win)."""
    opts: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("--config must hold a JSON object")
        opts.update(file_cfg)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            opts[key] = val
    return opts


def _json_out(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_lambda1(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args, ["p", "theta", "potential", "domain", "radial", "n", "out"]
    )
    theta = opts.get("theta")
    ps = [float(x) for x in str(opts.get("p", "")).split(",") if x] if theta is None else []
    if theta is None and not ps:
        raise ConfigError("lambda1 needs --p (possibly a comma list) or --theta")
    pot, grid = _build_geometry(opts)
    results = []
    if theta is not None:
        res = spectrum.lambda1_pme(float(theta), pot, grid)
        results.append(("theta", float(theta), res))
    else:
        for p in ps:
            results.append(("p", p, spectrum.lambda1_linear(p, pot, grid)))
    payload = []
    for kind, value, res in results:
        print(f"{res.lam:.12g}")
        payload.append(
            {
                kind: value,
                "lambda1": res.lam,
                "residual": res.residual,
                "iterations": res.iterations,
                "grid": grid.ident,
                "n": grid.n,
            }
        )
    out = opts.get("out")
    if out and str(out).endswith(".csv"):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(f"{results[0][0]},lambda1,residual,iterations\n")
            for kind, value, res in results:
                fh.write(
                    f"{value:.17g},{res.lam:.17g},{res.residual:.17g},"
                    f"{res.iterations}\n"
                )
    elif out:
        _json_out(payload if len(payload) > 1 else payload[0], out)
    return EXIT_OK


def cmd_flow(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        ["p", "m", "theta", "tend", "dt", "init", "stride", "audit-stride",
         "scheme", "potential", "domain", "radial", "n", "trace", "fields"],
    )
    pot, grid = _build_geometry(opts)
    kind = args.flow_kind
    cfg = flows.FlowConfig(
        kind=kind,
        p=float(opts.get("p", 2.0)),
        m=float(opts["m"]) if opts.get("m") is not None else None,
        theta=float(opts["theta"]) if opts.get("theta") is not None else None,
        init=str(opts.get("init", "bump:0.3")),
        t_end=float(opts.get("tend", 1.0)),
        dt=float(opts["dt"]) if opts.get("dt") is not None else None,
        stride=int(opts["stride"]) if opts.get("stride") is not None else None,
        audit_stride=int(opts.get("audit-stride", 10)),
        scheme=str(opts.get("scheme", "cn")),
    )
    runner = flows.run_linear if kind == "linear" else flows.run_pme
    trace = runner(cfg, pot, grid)
    trace.meta["potential"] = _potential_spec_text(str(opts.get("potential") or "gaussian"))
    trace.meta["geometry"] = {
        "radial": opts.get("radial"),
        "domain": opts.get("domain", "-8:8") if not opts.get("radial") else None,
        "n": grid.n,
    }
    out_path = opts.get("trace")
    if out_path:
        trace.to_csv(out_path)
    if opts.get("fields"):
        trace.save_fields(opts["fields"])
    print(
        f"t_end={trace.t[-1]:.6g} E={trace.E[-1]:.12g} I={trace.I[-1]:.12g} "
        f"mass_drift={trace.mass_drift:.3e} min_v={trace.min_v.min():.6g}"
    )
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    opts = _merge_config(args, ["theta", "samples", "check-theta", "out"])
    theta = float(opts.get("theta", 1.0))
    samples = int(opts.get("samples", 200))
    checks = tuple(
        float(x) for x in str(opts.get("check-theta", "")).split(",") if x
    )
    rep = criteria.region_report(theta, samples, thetas_check=checks)
    _json_out(rep.to_dict(), opts.get("out"))
    return EXIT_OK


def cmd_constants(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        ["m", "p", "theta", "from-p", "lambda1", "e0", "potential", "domain",
         "radial", "n", "out"],
    )
    if opts.get("from-p") is not None:
        theta = criteria.theta_from_p(float(opts["from-p"]))
    elif opts.get("theta") is not None:
        theta = float(opts["theta"])
    else:
        raise ConfigError("constants needs --theta or --from-p")
    m = float(opts.get("m", 1.0))
    p = float(opts.get("p", 1.5))
    lam = opts.get("lambda1")
    if lam is None and opts.get("potential"):
        pot, grid = _build_geometry(opts)
        lam = spectrum.lambda1_pme(theta, pot, grid).lam
    lam = float(lam) if lam is not None else None
    e0 = float(opts.get("e0", 0.0))
    report = criteria.constants_report(m, p, theta, lam, e0)
    _json_out(report, opts.get("out"))
    ok = report["in_ellipse"] and report["q_in_range"] and report["lambda1_positive"]
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def _svg_plot(path: str, t: np.ndarray, curves: list[tuple[str, np.ndarray]]) -> None:
    """Tiny self-contained SVG: one polyline per curve, log-scale y."""
    width, height, margin = 640, 440, 60
    positive = np.concatenate([c[np.isfinite(c) & (c > 0)] for _, c in curves])
    if positive.size == 0:
        raise ConfigError("nothing positive to plot on a log axis")
    ymin, ymax = float(positive.min()), float(positive.max())
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


def _geometry_from_meta(opts: dict, meta: dict) -> dict:
    """Geometry options: the flags, else what the flow recorded in the trace meta."""
    recorded = dict(meta.get("geometry") or {})
    if meta.get("potential"):
        pot = meta["potential"]
        recorded["potential"] = pot.get("family", "gaussian") + (
            f":{pot['arg']}" if pot.get("arg") else "")
    return {**opts, **{k: v for k, v in recorded.items() if v and not opts.get(k)}}


def cmd_report(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        ["trace", "fields", "checks", "p", "lambda1", "epsilon", "trials", "seed",
         "plot", "out", "potential", "domain", "radial", "n"],
    )
    if not opts.get("trace"):
        raise ConfigError("report needs --trace")
    trace = flows.Trace.from_csv(opts["trace"])
    if opts.get("fields"):
        trace.load_fields(opts["fields"])
    checks = opts.get("checks")
    verdicts, e_bound = verify.run_checks(
        trace,
        None if checks is None else [c for c in str(checks).split(",") if c],
        geometry=lambda: _build_geometry(_geometry_from_meta(opts, trace.meta)),
        **{k: opts[k] for k in ("p", "lambda1", "epsilon", "trials", "seed") if k in opts},
    )
    _json_out([v.to_dict() for v in verdicts], opts.get("out"))
    if opts.get("plot"):
        bound = [] if e_bound is None else [("E bound", e_bound)]
        _svg_plot(opts["plot"], trace.t, [("E (trace)", trace.E)] + bound)
    failed = sum(not v.passed for v in verdicts)
    return EXIT_OK if failed == 0 else min(EXIT_HYPOTHESIS + failed, 125)


def _add_geometry_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--potential", help="gaussian|flat|power:B|harmonic_log:E|tabulated:f.csv")
    sp.add_argument("--domain", help="interval A:B (use --domain=-8:8 form)")
    sp.add_argument("--radial", help="radial D:R")
    sp.add_argument("--n", type=int, help="node count")
    sp.add_argument("--config", help="JSON config file; explicit flags win")
    sp.add_argument("--out", help="output JSON path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="eigenvalue criteria, diffusion flows and decay-envelope verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lambda1", help="smallest quotient eigenvalue")
    sp.add_argument("--p", help="p value or comma list")
    sp.add_argument("--theta", type=float, help="use the (1-theta) gradient coefficient")
    sp.add_argument("--jobs", type=int, help="ignored; kept so older scripts still parse")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_lambda1)

    sp = sub.add_parser("flow", help="integrate a flow and write its trace")
    sp.add_argument("flow_kind", choices=("linear", "pme"))
    sp.add_argument("--p", type=float)
    sp.add_argument("--m", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--tend", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--init", help="bump:A | odd:A | const | csv:path")
    sp.add_argument("--stride", type=int)
    sp.add_argument("--audit-stride", type=int)
    sp.add_argument("--scheme", choices=("cn", "be"))
    sp.add_argument("--trace", help="trace CSV output path")
    sp.add_argument("--fields", help="stored-field NPZ output path")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("region", help="sample the admissible (m,p) region")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--check-theta", help="comma list of smaller thetas to nest-check")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output JSON path")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("constants", help="constant chain + hypothesis booleans")
    sp.add_argument("--m", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--from-p", type=float, help="derive theta = 2/p - 1")
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--e0", type=float, help="initial entropy for the rate constant")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("report", help="verification checks over a trace")
    sp.add_argument("--trace", help="trace CSV to audit")
    sp.add_argument("--fields", help="stored-field NPZ (for the refined check)")
    sp.add_argument("--checks", help="comma list: " + ",".join(verify.CHECKS))
    sp.add_argument("--p", type=float)
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--plot", help="SVG output path")
    _add_geometry_flags(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
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
