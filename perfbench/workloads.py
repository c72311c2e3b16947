"""The benchmark's workloads: CLI command sequences and the checks on their outputs.

A workload is a function ``(pass_dir, seed, toy) -> list[Command]``.  Every
path it names lies in ``pass_dir``, a directory made fresh for each pass, so
no pass overwrites another's files.  ``toy`` shrinks node counts and flow
lengths for the smoke check; the checks stay the same, so toy sizes are
chosen where they still hold.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ROADMAP item 3 reference for lambda1(p=1.5) of power:1.5 on [-16, 16]
# (converged value with a cell-averaged Hessian).  The current discretization
# gives 0.69271 at n=20000; the check allows 1 %.
POWER_REFERENCE = 0.6958
POWER_REL_TOL = 0.01
GAUSSIAN_TOL = 1e-9
MASS_DRIFT_TOL = 1e-10

Check = Callable[[int, str, Path], list[str]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: arguments after ``python -m entroflow.cli``."""

    name: str
    argv: tuple[str, ...]
    check: Check
    # file in the pass directory whose bytes must repeat across passes
    deterministic_file: str | None = None


def _numbers(stdout: str) -> list[float]:
    out = []
    for line in stdout.split():
        try:
            out.append(float(line))
        except ValueError:
            pass
    return out


def _expect_exit(rc: int, want: int = 0) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def _gaussian_is_one(count: int) -> Check:
    def check(rc: int, stdout: str, _: Path) -> list[str]:
        probs = _expect_exit(rc)
        vals = _numbers(stdout)
        if len(vals) != count:
            return probs + [f"expected {count} eigenvalue(s), got {stdout!r}"]
        probs += [f"gaussian lambda1 {v!r} is not 1 within {GAUSSIAN_TOL}"
                  for v in vals if abs(v - 1.0) > GAUSSIAN_TOL]
        return probs

    return check


def _power_sweep(rc: int, stdout: str, _: Path) -> list[str]:
    probs = _expect_exit(rc)
    vals = _numbers(stdout)
    if len(vals) != 3:
        return probs + [f"expected 3 eigenvalues, got {stdout!r}"]
    if not vals[0] < vals[1] < vals[2]:
        probs.append(f"power sweep does not rise with p: {vals}")
    if abs(vals[1] - POWER_REFERENCE) > POWER_REL_TOL * POWER_REFERENCE:
        probs.append(f"lambda1(1.5) = {vals[1]!r} is not within 1% of {POWER_REFERENCE}")
    return probs


def _positive_eigenvalue(rc: int, stdout: str, _: Path) -> list[str]:
    probs = _expect_exit(rc)
    vals = _numbers(stdout)
    if len(vals) != 1 or not (math.isfinite(vals[0]) and vals[0] > 0.0):
        probs.append(f"expected one positive eigenvalue, got {stdout!r}")
    return probs


def _hypotheses_hold(rc: int, stdout: str, _: Path) -> list[str]:
    probs = _expect_exit(rc)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return probs + ["constants did not print a JSON report"]
    for key in ("in_ellipse", "q_in_range", "lambda1_positive"):
        if report.get(key) is not True:
            probs.append(f"constants hypothesis {key} is {report.get(key)!r}")
    return probs


_DRIFT = re.compile(r"mass_drift=(\S+)")


def _flow_ok(trace_file: str) -> Check:
    def check(rc: int, stdout: str, pass_dir: Path) -> list[str]:
        probs = _expect_exit(rc)
        match = _DRIFT.search(stdout)
        if match is None:
            return probs + [f"flow printed no mass_drift: {stdout!r}"]
        drift = float(match.group(1))
        if not drift <= MASS_DRIFT_TOL:
            probs.append(f"mass_drift {drift!r} above {MASS_DRIFT_TOL}")
        if not (pass_dir / trace_file).is_file():
            probs.append(f"flow wrote no {trace_file}")
        return probs

    return check


def _verdicts_pass(expected: set[str], out_file: str | None, plot_file: str | None) -> Check:
    def check(rc: int, stdout: str, pass_dir: Path) -> list[str]:
        probs = _expect_exit(rc)
        try:
            text = (pass_dir / out_file).read_text() if out_file else stdout
            verdicts = json.loads(text)
        except (OSError, json.JSONDecodeError):
            return probs + ["report wrote no verdict JSON"]
        names = {v.get("name") for v in verdicts}
        if names != expected:
            probs.append(f"verdicts {sorted(names)} differ from {sorted(expected)}")
        probs += [f"verdict {v.get('name')} failed (worst {v.get('worst_violation')})"
                  for v in verdicts if v.get("pass") is not True]
        if plot_file:
            try:
                svg_head = (pass_dir / plot_file).read_text()[:4]
            except OSError:
                svg_head = ""
            if svg_head != "<svg":
                probs.append(f"report wrote no SVG plot {plot_file}")
        return probs

    return check


def spectral(pass_dir: Path, seed: int, toy: bool) -> list[Command]:
    """Eigen solves across the three potential families.

    The power grid uses an even n: on a symmetric interval an odd n puts a
    node at x=0, where the power family's F'' is singular, and
    make_interval_grid raises DomainError (exit code 2).  The seed is unused:
    nothing in this workload is random.
    """
    n_big = 10001 if toy else 100000
    n_mid = 2001 if toy else 20000
    return [
        Command("lambda1.gaussian", (
            "lambda1", "--p", "1.5", "--potential", "gaussian", "--domain=-8:8",
            "--n", "2001"), _gaussian_is_one(1)),
        Command("lambda1.power_sweep", (
            "lambda1", "--p", "1.2,1.5,2.0", "--jobs", "2", "--potential", "power:1.5",
            "--domain=-16:16", "--n", "20000"), _power_sweep),
        Command("lambda1.radial", (
            "lambda1", "--p", "2.0", "--potential", "harmonic_log:0.05",
            "--radial", "3:12", "--n", str(n_mid)), _positive_eigenvalue),
        Command("lambda1.theta", (
            "lambda1", "--theta", "0.5", "--potential", "gaussian", "--domain=-8:8",
            "--n", str(n_big)), _gaussian_is_one(1)),
        Command("constants", (
            "constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--e0", "0.02",
            "--potential", "gaussian", "--n", str(n_mid)), _hypotheses_hold),
    ]


def linear_pipeline(pass_dir: Path, seed: int, toy: bool) -> list[Command]:
    """Linear flow (one factorization, many solves, snapshot functionals)
    then the full linear audit: envelope, dissipation, Poincare, refined."""
    n = 2001 if toy else 20001
    t_end = 0.5 if toy else 4
    trace, fields = pass_dir / "linear.csv", pass_dir / "linear.npz"
    verdicts, plot = pass_dir / "verdicts.json", pass_dir / "linear.svg"
    return [
        Command("flow.linear", (
            "flow", "linear", "--p", "1.5", "--potential", "gaussian", "--domain=-8:8",
            "--n", str(n), "--tend", str(t_end), "--dt", "1e-3", "--init", "odd:0.2",
            "--trace", str(trace), "--fields", str(fields)),
            _flow_ok(trace.name), deterministic_file=trace.name),
        Command("report.linear", (
            "report", "--trace", str(trace), "--fields", str(fields),
            "--checks", "envelope,dissipation,poincare,refined", "--seed", str(seed),
            "--plot", str(plot), "--out", str(verdicts)),
            _verdicts_pass(
                {"envelope[E,exp]", "envelope[I,exp]", "dissipation", "poincare",
                 "refined_inequalities"},
                verdicts.name, plot.name)),
    ]


def pme_pipeline(pass_dir: Path, seed: int, toy: bool) -> list[Command]:
    """Porous-media flow (damped Newton, refactored every iteration) then the
    PME audit: cubic envelopes, dissipation and the lemma interpolation."""
    n = 2001 if toy else 4001
    t_end = 0.2 if toy else 2
    trace = pass_dir / "pme.csv"
    return [
        Command("flow.pme", (
            "flow", "pme", "--m", "1.2", "--p", "1.5", "--theta", "0.5",
            "--potential", "gaussian", "--domain=-8:8", "--n", str(n),
            "--tend", str(t_end), "--dt", "1e-3", "--init", "bump:0.4",
            "--trace", str(trace)),
            _flow_ok(trace.name), deterministic_file=trace.name),
        Command("report.pme", (
            "report", "--trace", str(trace), "--checks", "envelope,dissipation,lemma",
            "--seed", str(seed)),
            _verdicts_pass(
                {"envelope[I,cubic]", "envelope[E,cubic]", "dissipation",
                 "lemma_interpolation"},
                None, None)),
    ]


WORKLOADS = {
    "spectral": spectral,
    "linear_pipeline": linear_pipeline,
    "pme_pipeline": pme_pipeline,
}


def grid_specs(commands: list[Command]) -> list[dict]:
    """The distinct grids a command sequence builds, as geometry options.

    ``report`` rebuilds the grid its trace was written on, which the flow
    command before it already names.
    """
    specs: list[dict] = []
    for cmd in commands:
        argv = list(cmd.argv)
        if "--n" not in argv:
            continue
        opts = {"potential": "gaussian", "domain": "-8:8", "radial": None}
        for i, tok in enumerate(argv):
            if tok.startswith("--domain="):
                opts["domain"] = tok.partition("=")[2]
            elif tok in ("--potential", "--radial", "--n"):
                opts[tok[2:]] = argv[i + 1]
        if opts["radial"]:
            opts["domain"] = None
        opts["n"] = int(opts["n"])
        if opts not in specs:
            specs.append(opts)
    return specs
