"""Command-line interface: flags, exit codes, artifacts, determinism."""

import argparse
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from entroflow import verify
from entroflow.cli import _build_geometry, _normalize_argv, build_parser, main
from entroflow.flows import FlowConfig, Trace
from entroflow.spectrum import epsilon_star


def run_cli(*argv):
    return main(list(argv))


class TestLambda1Command:
    def test_gaussian_prints_one(self, capsys):
        code = run_cli(
            "lambda1", "--p", "1.5", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "2001",
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 1.0) <= 1e-3

    def test_power_small_p_positive(self, capsys):
        code = run_cli(
            "lambda1", "--p", "1.01", "--potential", "power:1.5",
            "--domain=-16:16", "--n", "1600",
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 0.0

    def test_flat_interval(self, capsys):
        # the dual field w = u' vanishes at the ends: at p = 2 lambda1 is the
        # flow's discrete gap (4/h^2) sin^2(pi h/2), near pi^2, not the constants' 0
        code = run_cli(
            "lambda1", "--p", "2", "--potential", "flat",
            "--domain", "0:1", "--n", "101",
        )
        assert code == 0
        gap = 4e4 * math.sin(math.pi / 200) ** 2
        assert float(capsys.readouterr().out.strip()) == pytest.approx(gap, rel=1e-11)

    def test_power_grid_with_a_node_at_the_origin(self, capsys):
        # odd n puts a node at x = 0, where F is finite; no F'' is sampled
        assert run_cli("lambda1", "--p", "1.5", "--potential", "power:1.5",
                       "--domain=-16:16", "--n", "3201") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.6958, rel=1e-3)

    def test_sweep_writes_json(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli(
            "lambda1", "--p", "1.2,1.5,2.0", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "501", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 3
        assert all(abs(row["lambda1"] - 1.0) < 1e-3 for row in payload)
        # the certified bracket [lambda1 - residual - tol, lambda1] and the solves
        for row in payload:
            assert set(row) == {"p", "lambda1", "residual", "tol", "iterations", "grid", "n"}
            assert row["tol"] >= 1e-10 and row["residual"] <= row["tol"]
            assert isinstance(row["iterations"], int) and row["iterations"] >= 1

    def test_radial_geometry(self, capsys):
        code = run_cli(
            "lambda1", "--p", "2.0", "--potential", "harmonic_log:0.05",
            "--radial", "3:12", "--n", "800",
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 0.0

    def test_config_error_exit_code(self):
        assert run_cli("lambda1", "--potential", "gaussian", "--domain", "-8:8",
                       "--n", "501") == 2
        assert run_cli("lambda1", "--p", "1.5", "--potential", "nope",
                       "--domain", "-8:8", "--n", "501") == 2

    def test_theta_variant(self, capsys):
        code = run_cli(
            "lambda1", "--theta", "0.5", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "501",
        )
        assert code == 0
        assert abs(float(capsys.readouterr().out.strip()) - 1.0) <= 1e-3

    def test_parallel_sweep_matches_serial(self, tmp_path):
        common = ["--potential", "gaussian", "--domain", "-6:6", "--n", "301",
                  "--p", "1.2,1.7"]
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert run_cli("lambda1", *common, "--out", str(serial)) == 0
        assert run_cli("lambda1", *common, "--jobs", "2", "--out", str(parallel)) == 0
        a = json.loads(serial.read_text())
        b = json.loads(parallel.read_text())
        keys = ("lambda1", "residual")
        assert [[r[k] for k in keys] for r in a] == [[r[k] for k in keys] for r in b]

    def test_lapack_failure_exits_3(self, monkeypatch):
        # dpttrf info > 0: no shifted matrix is positive definite, not even
        # below the Gershgorin bound
        monkeypatch.setattr("entroflow._lapack.SPDTridiagonal.factor", lambda self: 1)
        assert run_cli(
            "lambda1", "--p", "1.5", "--potential", "gaussian",
            "--domain", "-6:6", "--n", "301",
        ) == 3

    @pytest.mark.parametrize("geometry, code, message", [
        (("harmonic_log:0.05", "--radial", "3:1e200"), 3, "e^{-F} is not finite and positive"),
        (("harmonic_log:0.05", "--radial", "3:nan"), 2, "radius must be finite, got nan"),
        (("harmonic_log:0.05", "--radial", "3:inf"), 2, "radius must be finite, got inf"),
        (("gaussian", "--domain=-inf:8"), 2,
         "interval [-inf, 8.0] needs finite endpoints and width"),
    ], ids=["radius-overflow", "radius-nan", "radius-inf", "domain-inf"])
    def test_nonfinite_geometry_exit_codes(self, capsys, geometry, code, message):
        assert run_cli("lambda1", "--p", "2.0", "--potential", *geometry, "--n", "200") == code
        assert message in capsys.readouterr().err

    def test_domain_with_radial_is_config_error(self, capsys):
        # the radial grid used to win and the interval be dropped, exit 0
        assert run_cli("lambda1", "--p", "2.0", "--potential", "harmonic_log:0.05",
                       "--radial", "3:12", "--domain=-8:8", "--n", "800") == 2
        assert "--domain -8:8 and --radial 3:12 name two grids" in capsys.readouterr().err

    def test_undersized_radius_is_config_error(self):
        assert run_cli(
            "lambda1", "--p", "2.0", "--potential", "gaussian",
            "--radial", "3:2", "--n", "64",
        ) == 2


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_run")
    trace = d / "run.csv"
    code = main([
        "flow", "linear", "--p", "1.5", "--potential", "gaussian",
        "--domain", "-8:8", "--n", "1001", "--tend", "1.0", "--dt", "2e-3",
        "--init", "odd:0.2", "--trace", str(trace),
    ])
    assert code == 0
    return d, trace


class TestFlowAndReport:
    def test_trace_written(self, artifacts):
        _, trace = artifacts
        header = trace.read_text().splitlines()
        assert header[3] == "t,E,I,K,mass,min_v,q4"

    def test_report_all_checks_pass(self, artifacts, capsys):
        d, trace = artifacts
        verd = d / "verdicts.json"
        code = main([
            "report", "--trace", str(trace),
            "--checks", "envelope,dissipation,poincare,refined",
            "--out", str(verd), "--trials", "30", "--seed", "1",
        ])
        assert code == 0
        payload = json.loads(verd.read_text())
        assert {v["name"] for v in payload} == {
            "envelope[E,exp]", "envelope[I,exp]", "dissipation",
            "poincare", "refined_inequalities",
        }
        assert all(v["pass"] for v in payload)
        # refined audits every row of the trace
        assert payload[-1]["details"]["snapshots"] == len(Trace.from_csv(trace).t) == 251

    def test_entropy_decays_below_the_rounding_of_v_to_the_p(self, tmp_path):
        # on the README grid, E(20) is E0 e^{-40}, about 2e-21: the integrand
        # v^p - 1 - p(v - 1) stalled near 2.7e-17 there and failed envelope[E,exp]
        trace, verdicts = tmp_path / "long.csv", tmp_path / "verdicts.json"
        assert main(["flow", "linear", "--p", "1.5", "--potential", "gaussian",
                     "--domain=-8:8", "--n", "2001", "--tend", "20", "--dt", "1e-2",
                     "--init", "odd:0.2", "--trace", str(trace)]) == 0
        assert main(["report", "--trace", str(trace), "--checks", "envelope",
                     "--out", str(verdicts)]) == 0
        entropy = json.loads(verdicts.read_text())[0]
        assert (entropy["name"], entropy["pass"]) == ("envelope[E,exp]", True)
        tr = Trace.from_csv(trace)
        assert tr.t[-1] == 20.0
        assert abs(tr.E[-1] / (tr.E[0] * math.exp(-40.0)) - 1.0) <= 0.01

    def test_report_exit_offset_on_failures(self, artifacts):
        _, trace = artifacts
        # a wildly inflated eigenvalue makes both envelope checks fail: 4 + 2
        code = main([
            "report", "--trace", str(trace), "--checks", "envelope",
            "--lambda1", "10.0",
        ])
        assert code == 6

    def test_plot_svg_structure(self, artifacts, tmp_path):
        _, trace = artifacts
        svg = tmp_path / "plot.svg"
        code = main(["report", "--trace", str(trace), "--checks", "envelope",
                     "--plot", str(svg)])
        assert code == 0
        root = ET.parse(svg).getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) >= 2
        assert "script" not in svg.read_text()

    def test_plot_of_an_equilibrium_trace(self, tmp_path, capsys):
        # E and its bound are 0 throughout: nothing is positive on the log
        # axis, so the plot has its axes and empty polylines
        trace, svg = tmp_path / "const.csv", tmp_path / "const.svg"
        assert main(["flow", "linear", "--init", "const", "--n", "201", "--tend", "0.1",
                     "--dt", "1e-3", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace), "--plot", str(svg)]) == 0
        assert all(v["pass"] for v in json.loads(capsys.readouterr().out))
        assert svg.read_text().startswith("<svg")
        root = ET.parse(svg).getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert [e.get("points") for e in polys] == ["", ""]

    def test_flow_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code = main([
                "flow", "linear", "--p", "2.0", "--potential", "gaussian",
                "--domain", "-8:8", "--n", "501", "--tend", "0.2",
                "--dt", "2e-3", "--init", "bump:0.3", "--trace", str(path),
            ])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_fields_flags_are_ignored(self, artifacts, tmp_path, monkeypatch, capsys):
        # --fields is parsed so older scripts still run: it writes and reads
        # nothing, and changes no output byte
        _, trace = artifacts
        flow = ["flow", "linear", "--p", "1.5", "--n", "201", "--tend", "0.1", "--dt", "2e-3",
                "--trace", "run.csv"]
        report = ["report", "--trace", str(trace), "--checks", "envelope,refined",
                  "--out", "v.json"]
        outputs = []
        for name, extra in [("plain", []), ("fields", ["--fields", "x.npz"])]:
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(flow + extra) == 0
            assert main(report + extra) == 0
            outputs.append(_outputs(tmp_path / name, capsys))
        assert sorted(outputs[1]) == ["run.csv", "stdout", "v.json"]
        assert outputs[0] == outputs[1]

    def test_flow_domain_with_radial_exits_2(self, tmp_path, capsys):
        # the interval used to be dropped and the trace record "domain": null
        path = tmp_path / "run.csv"
        assert main(["flow", "linear", "--p", "1.5", "--potential", "harmonic_log:0.05",
                     "--radial", "3:12", "--domain=-8:8", "--n", "400", "--tend", "0.01",
                     "--dt", "1e-3", "--trace", str(path)]) == 2
        assert "--domain -8:8 and --radial 3:12 name two grids" in capsys.readouterr().err
        assert not path.exists()

    def test_report_given_span_replaces_both_recorded(self, artifacts, tmp_path, capsys):
        # an interval trace audited with --radial: the given radial grid is
        # built (and is not the trace's), not a --domain/--radial conflict
        _, trace = artifacts
        assert main(["report", "--trace", str(trace), "--checks", "poincare",
                     "--radial", "1:8"]) == 2
        err = capsys.readouterr().err
        assert "the trace was written on grid" in err and "two grids" not in err
        # a radial trace audited with --domain: the interval is built, where
        # the recorded harmonic_log potential does not exist; the given
        # domain used to be ignored and the radial grid rebuilt
        radial = tmp_path / "radial.csv"
        assert main(["flow", "linear", "--p", "1.5", "--potential", "harmonic_log:0.05",
                     "--radial", "3:12", "--n", "400", "--tend", "0.01", "--dt", "1e-3",
                     "--trace", str(radial)]) == 0
        assert main(["report", "--trace", str(radial), "--checks", "poincare",
                     "--trials", "5"]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(radial), "--checks", "poincare",
                     "--domain=-8:8"]) == 2
        assert "harmonic_log requires d >= 3" in capsys.readouterr().err
        # both given: the same conflict as for lambda1 and flow
        assert main(["report", "--trace", str(radial), "--checks", "poincare",
                     "--domain=-8:8", "--radial", "3:12"]) == 2
        assert "name two grids" in capsys.readouterr().err

    def test_report_json_bytes_deterministic(self, artifacts, tmp_path):
        _, trace = artifacts
        outs = []
        for name in ("v1.json", "v2.json"):
            path = tmp_path / name
            code = main([
                "report", "--trace", str(trace),
                "--checks", "envelope,poincare,refined", "--trials", "15",
                "--seed", "3", "--out", str(path),
            ])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_lambda1_out_is_json_for_any_suffix(self, tmp_path):
        # one sweep format: the path's suffix does not choose another
        out = tmp_path / "lam.csv"
        code = main([
            "lambda1", "--p", "1.5,2.0", "--potential", "gaussian",
            "--domain", "-6:6", "--n", "301", "--out", str(out),
        ])
        assert code == 0
        sweep = json.loads(out.read_text())
        assert [row["p"] for row in sweep] == [1.5, 2.0]

    def test_pme_flow_runs(self, tmp_path):
        path = tmp_path / "pme.csv"
        code = main([
            "flow", "pme", "--p", "1.5", "--m", "1.2", "--theta", "0.5",
            "--potential", "gaussian", "--domain", "-8:8", "--n", "501",
            "--tend", "0.3", "--dt", "2e-3", "--init", "bump:0.4",
            "--trace", str(path),
        ])
        assert code == 0
        code = main(["report", "--trace", str(path), "--checks",
                     "envelope,dissipation,lemma"])
        assert code == 0


    @pytest.mark.parametrize("theta, expected", [(None, 0), ("0", 2)])
    def test_report_reads_pme_theta_from_trace(self, tmp_path, theta, expected):
        # a trace without theta is audited at 0.5; an explicit 0 is rejected
        path = tmp_path / "pme.csv"
        flags = [] if theta is None else ["--theta", theta]
        code = main([
            "flow", "pme", "--p", "1.5", "--m", "1.2", *flags,
            "--potential", "gaussian", "--domain", "-8:8", "--n", "501",
            "--tend", "0.3", "--dt", "2e-3", "--init", "bump:0.4",
            "--trace", str(path),
        ])
        assert code == 0
        code = main(["report", "--trace", str(path), "--checks",
                     "envelope,dissipation,lemma"])
        assert code == expected

    @pytest.mark.parametrize("raw", ["inf", "nan", "-1"])
    def test_report_ignores_env_tolerance(self, artifacts, monkeypatch, raw):
        # at ENTROFLOW_TOL=inf this inflated eigenvalue used to pass (exit 0);
        # the slack is fixed, so the verdicts match those of a clean environment
        _, trace = artifacts
        argv = ["report", "--trace", str(trace), "--checks", "envelope", "--lambda1", "50"]
        clean = main(argv)
        monkeypatch.setenv("ENTROFLOW_TOL", raw)
        assert main(argv) == clean > 4

    @pytest.mark.parametrize("kind", ["linear", "pme"])
    def test_solve_failure_exits_3(self, monkeypatch, capsys, kind):
        monkeypatch.setattr("entroflow.flows.SPDTridiagonal.factor", lambda system: 1)
        code = main([
            "flow", kind, "--p", "1.5", "--m", "1.2", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
        ])
        assert code == 3
        if kind == "pme":
            # every try stalls: 30 rejections in a row, halving from one row
            assert capsys.readouterr().err.strip() == (
                "numerical failure: porous-media step at t=0 rejected 30 times in a row; "
                "last step size 1.86e-12")

    @pytest.mark.parametrize("flags", [
        ("--stride", "0"), ("--dt", "0"), ("--dt", "-0.001"),
    ], ids=["stride", "dt-zero", "dt-negative"])
    def test_flow_rejects_bad_steps(self, capsys, flags):
        # the zeros used to die in a ZeroDivisionError (exit 1); a negative dt
        # ran backwards in time and exited 0
        code = main([
            "flow", "linear", "--p", "1.5", "--potential", "gaussian", "--domain", "-8:8",
            "--n", "201", "--tend", "0.01", *flags,
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("tend, code", [("0.01", 2), ("0.04", 0)])
    def test_t_end_under_half_a_step_exits_2(self, capsys, tend, code):
        # t_end = 0.01 at dt = 0.064 used to run one step to t = 0.064 and exit
        # 0; t_end = 0.04 rounds to one step
        assert main([
            "flow", "linear", "--p", "1.5", "--potential", "gaussian", "--domain", "-8:8",
            "--n", "201", "--tend", tend, "--dt", "0.064",
        ]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert "config error" in err and "t_end=0.01" in err and "--dt" in err
        else:
            assert out.startswith("t_end=0.064 ")

    @pytest.mark.parametrize("tend", ["50", "0.9"])
    def test_default_time_grid_ends_at_tend(self, capsys, tmp_path, tend):
        # with no --dt the rows are every tend/200: row 0 and 200 more, the
        # last within an ulp of tend (the default dt of 10 h^2 stopped this
        # run at t = 49.92)
        trace = tmp_path / "run.csv"
        assert main(["flow", "linear", "--p", "2", "--n", "401", "--tend", tend,
                     "--trace", str(trace)]) == 0
        assert capsys.readouterr().out.startswith(f"t_end={tend} ")
        t = Trace.from_csv(trace).t
        assert len(t) == 201 and abs(t[-1] - float(tend)) <= math.ulp(float(tend))

    def test_refined_audit_passes_near_equilibrium(self, tmp_path):
        # at t = 20, v is within 1e-10 of 1 and (pI)^2 <= 256 (1 + (p-1)E) q4
        # is near equality; with v^{p/2} and v^{p/4} differenced as powers of
        # v itself, the audit read -1.6e-6 at row 200 on this correct flow
        trace = tmp_path / "near.csv"
        assert main(["flow", "linear", "--p", "1.5", "--potential", "gaussian",
                     "--domain=-8:8", "--n", "2001", "--tend", "20", "--dt", "1e-2",
                     "--init", "odd:0.2", "--trace", str(trace)]) == 0
        assert main(["report", "--trace", str(trace), "--checks", "refined"]) == 0

    def test_pme_trace_reads_back_its_clamps(self, tmp_path):
        # the compact start max(2.25 - (x+1)^2, 0) clamps; the clamp count
        # used to be a second copy that Trace.from_csv left at 0
        x = np.linspace(-8.0, 8.0, 801)
        init, trace = tmp_path / "init.csv", tmp_path / "pme.csv"
        np.savetxt(init, np.maximum(2.25 - (x + 1.0) ** 2, 0.0), fmt="%.17g")
        assert main(["flow", "pme", "--m", "2", "--p", "1.5", "--n", "801", "--tend", "0.2",
                     "--dt", "1e-3", "--init", f"csv:{init}", "--trace", str(trace)]) == 0
        back = Trace.from_csv(trace)
        assert back.clamps == back.meta["clamps"] == 1294

    def test_last_row_is_at_the_last_step(self, tmp_path):
        # round(0.401 / 1e-3) = 401 steps at the default stride 2: the 401st
        # used to be computed and dropped, with t_end_effective = 0.401; the
        # rows sit at j stride dt and the last window ends at the last one
        trace = tmp_path / "run.csv"
        assert main(["flow", "linear", "--n", "201", "--tend", "0.401", "--dt", "1e-3",
                     "--trace", str(trace)]) == 0
        back = Trace.from_csv(trace)
        meta = back.meta
        assert (meta["n_steps"], meta["stride"], len(back.t)) == (400, 2, 201)
        assert back.t.tolist() == [(j * 2) * 1e-3 for j in range(201)]
        assert back.t[-1] == meta["n_steps"] * meta["dt"] == meta["windows"][-1]["t"][1]
        assert [w["t"][0] for w in meta["windows"][1:]] == [w["t"][1] for w in meta["windows"][:-1]]
        assert meta["windows"][0]["t"][0] == 0.0
        assert "t_end_effective" not in meta

    def test_stride_above_the_step_count_exits_2(self, capsys):
        # 200 steps at stride 500 used to run every step and keep only t = 0
        assert main(["flow", "linear", "--n", "201", "--tend", "0.2", "--dt", "1e-3",
                     "--stride", "500"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "stride=500" in err and "200 steps" in err

    def test_pme_rejects_m_plus_p_two(self, capsys):
        # the porous-media entropy divides by m + p - 2
        code = main([
            "flow", "pme", "--m", "0.5", "--p", "1.5", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
        ])
        assert code == 2
        assert "m + p != 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report_traces(artifacts, tmp_path_factory):
    """Trace paths by name: the p = 1.5 linear run, a pme run, p = 2 and p = 1
    linear runs and a two-snapshot run."""
    d = tmp_path_factory.mktemp("report_traces")
    common = ["--potential", "gaussian", "--domain=-8:8", "--n", "201", "--dt", "2e-3"]
    assert main(["flow", "pme", "--m", "1.2", "--p", "1.5", "--theta", "0.5", *common,
                 "--tend", "0.2", "--init", "bump:0.4", "--trace", str(d / "pme.csv")]) == 0
    assert main(["flow", "linear", "--p", "2.0", *common, "--tend", "0.1",
                 "--trace", str(d / "p2.csv")]) == 0
    assert main(["flow", "linear", "--p", "1.0", *common, "--tend", "0.1",
                 "--trace", str(d / "p1.csv")]) == 0
    # one step: the trace holds the two snapshots t = 0 and t = dt
    assert main(["flow", "linear", "--n", "201", "--tend", "1e-3", "--dt", "1e-3",
                 "--trace", str(d / "short.csv")]) == 0
    _, trace = artifacts
    # the linear trace with its config's kind renamed, and dropped
    text = trace.read_text()
    assert text.count('"kind": "linear", ') == 1
    (d / "heat.csv").write_text(text.replace('"kind": "linear"', '"kind": "heat"'))
    (d / "nokind.csv").write_text(text.replace('"kind": "linear", ', ""))
    return {
        "linear": ["--trace", str(trace)],
        "pme": ["--trace", str(d / "pme.csv")],
        "p2": ["--trace", str(d / "p2.csv")],
        "p1": ["--trace", str(d / "p1.csv")],
        "short": ["--trace", str(d / "short.csv")],
        "heat": ["--trace", str(d / "heat.csv")],
        "nokind": ["--trace", str(d / "nokind.csv")],
    }


class TestReportChecks:
    @pytest.mark.parametrize("trace, checks, message", [
        ("linear", "envlope", "unknown check 'envlope'; valid checks: "
                              "envelope, dissipation, poincare, refined, lemma"),
        ("linear", "envelope,,Poincare", "unknown check 'Poincare'"),
        ("pme", "poincare", "the poincare check applies to linear traces"),
        ("pme", "envelope,refined", "the refined check applies to linear traces"),
        ("linear", "dissipation,lemma", "the lemma check applies to pme traces"),
        ("p2", "refined", "refined inequalities need p < 2"),
        ("p1", "envelope,dissipation,poincare", "the poincare check needs p > 1; "
                                                "the trace has p = 1"),
        ("p1", "refined", "the refined check needs p > 1; the trace has p = 1"),
        ("short", "envelope,dissipation",
         "the dissipation audit needs at least 3 snapshots; the trace has 2"),
        ("heat", "envelope,dissipation", "unknown flow kind 'heat'"),
        ("nokind", "envelope,dissipation", "its '# config:' line lacks kind"),
    ], ids=["unknown", "unknown-among-valid", "poincare-on-pme", "refined-on-pme",
            "lemma-on-linear", "refined-at-p2", "poincare-at-p1", "refined-at-p1",
            "dissipation-on-2-snapshots", "unknown-kind", "no-kind"])
    def test_rejected_before_any_solve(self, report_traces, monkeypatch, capsys,
                                       trace, checks, message):
        # a typo used to print [] and exit 0; misapplied checks now fail
        # before the grid is built or an eigenvalue solved
        def no_geometry(opts):
            pytest.fail("the report built a grid for a rejected check list")

        monkeypatch.setattr("entroflow.cli._build_geometry", no_geometry)
        code = main(["report", *report_traces[trace], "--checks", checks])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("checks", ["poincare", "refined"])
    def test_rejects_grid_not_the_traces(self, report_traces, capsys, checks):
        # the trace has n = 1001: poincare used to pass on the n = 201 grid,
        # refined died in a ValueError on the field length
        code = main(["report", *report_traces["linear"], "--checks", checks, "--n", "201"])
        assert code == 2
        assert re.search(r"the trace was written on grid \w+, not on grid \w+",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("trace, checks, names", [
        ("linear", "refined,poincare,envelope",
         ["envelope[E,exp]", "envelope[I,exp]", "poincare", "refined_inequalities"]),
        ("linear", "dissipation,refined,envelope,poincare,dissipation",
         ["envelope[E,exp]", "envelope[I,exp]", "dissipation", "poincare",
          "refined_inequalities"]),
        ("pme", "lemma,dissipation,envelope",
         ["envelope[I,cubic]", "envelope[E,cubic]", "dissipation", "lemma_interpolation"]),
    ], ids=["linear", "linear-repeated", "pme"])
    def test_verdict_order_is_fixed(self, report_traces, capsys, trace, checks, names):
        code = main(["report", *report_traces[trace], "--checks", checks, "--trials", "5"])
        assert code == 0
        assert [v["name"] for v in json.loads(capsys.readouterr().out)] == names

    def test_failed_hypothesis_exits_4(self, report_traces, capsys):
        # the lemma's constant chain needs lambda1 > 0: main's hypothesis branch
        code = main(["report", *report_traces["pme"], "--checks", "lemma",
                     "--lambda1", "-1"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "hypothesis failed: lambda1 must be positive; got -1.0" in captured.err

    def test_nan_entropy_fails_lemma_at_its_row(self, report_traces, tmp_path, capsys):
        # the lemma's constant chain reads no row: a NaN E fails the verdict
        # at that row (exit 5) where it used to be a bad E0 (exit 2)
        lines = Path(report_traces["pme"][1]).read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("t,")) + 6
        t, _, rest = lines[row].split(",", 2)
        lines[row] = f"{t},nan,{rest}"
        bad = tmp_path / "nan_E.csv"
        bad.write_text("".join(lines))
        assert main(["report", "--trace", str(bad), "--checks", "lemma"]) == 5
        (verdict,) = json.loads(capsys.readouterr().out)
        assert verdict["pass"] is False and math.isnan(verdict["worst_violation"])
        assert verdict["location"] == float(t)

    def test_help_lists_every_check(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--help"])
        assert "envelope,dissipation,poincare,refined,lemma" in capsys.readouterr().out


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    """A linear run at p = 1.2 on the table of x^2/2 + 0.5 cos 2x over
    [-10, 10], whose Hessian dips below zero, with its trace."""
    d = tmp_path_factory.mktemp("table_run")
    x = np.linspace(-10.0, 10.0, 401)
    table = d / "tab.csv"
    np.savetxt(table, np.column_stack([x, x * x / 2 + 0.5 * np.cos(2 * x)]),
               delimiter=",", fmt="%.17g")
    trace = d / "run.csv"
    assert main(["flow", "linear", "--p", "1.2", "--potential", f"tabulated:{table}",
                 "--tend", "0.2", "--dt", "1e-3", "--trace", str(trace)]) == 0
    return table, trace


class TestTabulatedGeometry:
    @pytest.mark.parametrize("flags, code, message", [
        (["--n", "5000"], 2, "--n 5000 disagrees with the table's 401 rows"),
        (["--domain=-8:8"], 2, "--domain -8:8 disagrees with the table's span -10.0:10.0"),
        (["--domain=-10:9"], 2, "disagrees with the table's span"),
        (["--n", "401", "--domain=-10:10"], 0, ""),
    ], ids=["n", "domain", "one-end", "repeated"])
    def test_geometry_flags_must_repeat_the_table(self, table_run, capsys, flags, code,
                                                  message):
        # --n 5000 used to exit 0 and write "n": 201 for a 201-row table
        table = table_run[0]
        assert main(["lambda1", "--p", "1.5", "--potential", f"tabulated:{table}",
                     *flags]) == code
        assert message in capsys.readouterr().err

    def test_report_round_trip_off_the_default_domain(self, table_run, capsys):
        # the flow records no domain for a table, so report rebuilds its grid
        # from the potential alone, not from [-8, 8]
        table, trace = table_run
        geometry = Trace.from_csv(trace).meta["geometry"]
        assert geometry == {"potential": f"tabulated:{table}", "radial": None,
                            "domain": None, "n": 401}
        assert main(["report", "--trace", str(trace), "--checks", "envelope,dissipation"]) == 0

    def test_refined_audits_at_epsilon_star(self, table_run, tmp_path, capsys):
        # at p = 1.2 the grid's epsilon* (about 0.12) lies below the half-cap
        # (1 - alpha) / (2 alpha) = 0.25 the audit used before
        table, trace = table_run
        out = tmp_path / "v.json"
        main(["report", "--trace", str(trace), "--checks", "refined", "--out", str(out)])
        (verdict,) = json.loads(out.read_text())
        grid, _ = _build_geometry(argparse.Namespace(
            potential=f"tabulated:{table}", radial=None, domain=None, n=None))
        assert verdict["details"]["epsilon"] == epsilon_star(1.2, grid)
        assert 0.1 < verdict["details"]["epsilon"] < 0.25

    def test_refined_without_an_admissible_epsilon_exits_2(self, table_run, monkeypatch,
                                                           capsys):
        _, trace = table_run
        monkeypatch.setattr("entroflow.spectrum.epsilon_star", lambda p, grid: 0.0)
        assert main(["report", "--trace", str(trace), "--checks", "refined"]) == 2
        assert "refined inequalities hold for no epsilon" in capsys.readouterr().err


class TestRegionAndConstants:
    def test_region_json(self, capsys):
        assert run_cli("region", "--theta", "1.0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["bbox", "center", "theta"]
        assert payload["theta"] == 1.0 and payload["center"] == [1.0, 1.5]
        half = math.sqrt(2.0) / 2.0
        assert np.allclose(payload["bbox"], [1.0 - half, 1.0 + half, 0.0, 3.0],
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("flag", [["--samples", "200"], ["--check-theta", "0.5"]],
                             ids=["samples", "check-theta"])
    def test_region_sampler_flags_are_gone(self, capsys, flag):
        # the region is closed-form: nothing to sample or to nest-check
        assert run_cli("region", "--theta", "1.0", *flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    def test_constants_in_ellipse(self, capsys):
        code = run_cli("constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5",
                       "--lambda1", "1.0", "--e0", "0.01")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["in_ellipse"] is True
        assert payload["kappa"] > 0

    def test_constants_outside_exits_4(self, capsys):
        code = run_cli("constants", "--m", "2.0", "--p", "2.0", "--theta", "0.5",
                       "--lambda1", "1.0")
        assert code == 4
        payload = json.loads(capsys.readouterr().out)  # diagnostics still printed
        assert payload["in_ellipse"] is False

    def test_from_p_derives_theta(self, capsys):
        code = run_cli("constants", "--m", "1.2", "--p", "1.5", "--from-p", "1.5",
                       "--lambda1", "1.0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_potential_solves_lambda1(self, capsys):
        # without --lambda1, the constant chain takes lambda1_pme(theta) of the
        # geometry flags' grid: 1 for the Gaussian weight
        code = run_cli("constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5",
                       "--e0", "0.02", "--potential", "gaussian", "--n", "2001")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda1"] == pytest.approx(1.0, abs=1e-9)
        assert payload["kappa"] > 0

    def test_geometry_flags_without_potential_solve_lambda1(self, capsys):
        # as for lambda1, the potential defaults to gaussian: the flags built
        # no grid and the chain reported lambda1 null with exit 4
        code = run_cli("constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5",
                       "--n", "2001", "--domain=-8:8")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda1"] == pytest.approx(1.0, abs=1e-9)
        assert payload["kappa"] > 0

    @pytest.mark.parametrize("flags", [["--n", "7"], ["--domain=-8:8"], ["--radial", "3:12"],
                                       ["--potential", "flat", "--n", "7"]])
    def test_lambda1_with_a_geometry_flag_exits_2(self, capsys, flags):
        # a given lambda1 replaces the solve, so a geometry flag would go unread
        code = run_cli("constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5",
                       "--lambda1", "1", *flags)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = ", ".join(f.partition("=")[0] for f in flags if f.startswith("--"))
        assert f"got --lambda1 and {named}" in captured.err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 1.2, "p": 1.5, "theta": 0.5,
                                   "lambda1": 1.0, "e0": 0.0}))
        code = run_cli("constants", "--config", str(cfg), "--e0", "0.25")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["E0"] == 0.25  # flag wins
        assert payload["m"] == 1.2  # file supplies the rest


@pytest.fixture()
def bad_files(tmp_path):
    (tmp_path / "tab.csv").write_text("x,F\n0.0,abc\n")
    (tmp_path / "four.csv").write_text("0.0,0.0,0.0,1.0\n1.0,0.5,1.0,1.0\n")
    (tmp_path / "two.csv").write_text("0.0,0.0\n1.0,0.5\n")
    (tmp_path / "init.csv").write_text("1.0\nabc\n")
    (tmp_path / "zeros.csv").write_text("0.0\n" * 201)
    (tmp_path / "nan.csv").write_text("1.0\n" * 100 + "nan\n" + "1.0\n" * 100)
    (tmp_path / "short.csv").write_text("t,E,I,K,mass,min_v\n0,1,2,3,1,1\n0.1,1,2\n")
    (tmp_path / "cell.csv").write_text("t,E,I,K,mass,min_v\n0,1,2,abc,1,1\n")
    (tmp_path / "no-q4.csv").write_text("t,E,I,K,mass,min_v,q4\n0,1,2,3,1,1,4\n0.1,1,2,3,1,1\n")
    rows = "t,E,I,K,mass,min_v\n0,1,2,3,1,1\n0.1,0.9,1.8,2.7,1,1\n"
    (tmp_path / "no-config.csv").write_text(rows)
    (tmp_path / "no-p.csv").write_text('# config: {"kind": "linear"}\n' + rows)
    (tmp_path / "theta.json").write_text('{"theta": 0.5}')
    # 20 zero nodes: K is not finite on the trace's first row
    (tmp_path / "holes.csv").write_text("1.0\n" * 90 + "0.0\n" * 20 + "1.0\n" * 91)
    return tmp_path


class TestMalformedInput:
    """A malformed value or an unreadable named file is a config error: exit 2
    and a message on stderr; each of these used to end in a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["lambda1", "--p", "1.5", "--potential", "power:abc", "--n", "200"],
         "cannot parse potential 'power:abc': could not convert string to float: 'abc'"),
        (["lambda1", "--p", "2", "--potential", "harmonic_log:x", "--radial", "3:12",
          "--n", "200"], "cannot parse potential 'harmonic_log:x'"),
        (["lambda1", "--p", "2", "--radial", "nan:12", "--n", "200"],
         "--radial expects an integer dimension, got 'nan:12'"),
        (["lambda1", "--p", "abc", "--n", "200"],
         "argument --p: expects a comma list of numbers, got 'abc'"),
        (["flow", "linear", "--init", "bump:x", "--n", "201"],
         "initial datum 'bump:x' needs a numeric amplitude"),
        (["region", "--theta", "x"], "argument --theta: invalid float value: 'x'"),
        (["lambda1", "--p", "1.5", "--potential", "tabulated:{tmp}/tab.csv"],
         "cannot parse potential 'tabulated:"),
        (["lambda1", "--p", "1.5", "--potential", "tabulated:{tmp}/four.csv"],
         "tabulated potential file needs exactly two columns x,F; got 4"),
        (["lambda1", "--p", "1.5", "--potential", "tabulated:{tmp}/two.csv", "--radial", "3:12",
          "--n", "64"], "a tabulated potential is interval-only"),
        (["flow", "linear", "--init", "csv:{tmp}/init.csv", "--n", "201"],
         "cannot read initial datum file"),
        (["lambda1", "--p", "1.5", "--potential", "tabulated:{tmp}/none.csv"],
         "none.csv not found"),
        (["flow", "linear", "--init", "csv:{tmp}/none.csv", "--n", "201"],
         "none.csv not found"),
        (["report", "--trace", "{tmp}/none.csv"], "No such file or directory"),
        (["report", "--trace", "{tmp}/short.csv"],
         "short.csv line 3: 3 columns, expected 6"),
        (["report", "--trace", "{tmp}/cell.csv"],
         "cell.csv line 2: could not convert string to float: 'abc'"),
        (["report", "--trace", "{tmp}/no-q4.csv"],
         "no-q4.csv line 3: 6 columns, expected 7 (t,E,I,K,mass,min_v,q4)"),
        (["report", "--trace", "{tmp}/no-config.csv"],
         "no-config.csv: its '# config:' line lacks kind, p"),
        (["report", "--trace", "{tmp}/no-p.csv", "--checks", "dissipation"],
         "no-p.csv: its '# config:' line lacks p"),
        # a verdict holds at the trace's own p: report takes no --p
        (["report", "--trace", "{trace}", "--p", "1.1"],
         "unrecognized arguments: --p 1.1"),
        (["lambda1", "--p", "1.5", "--theta", "0.5", "--n", "200"],
         "argument --theta: not allowed with argument --p"),
        (["lambda1", "--config", "{tmp}/theta.json", "--p", "1.5", "--n", "200"],
         "argument --p: not allowed with argument --theta"),
        (["constants", "--theta", "0.5", "--from-p", "1.2"],
         "argument --from-p: not allowed with argument --theta"),
        (["flow", "linear", "--aud", "3", "--n", "201"],
         "unrecognized arguments: --aud 3"),
        # the flow always steps Crank-Nicolson: there is no scheme to choose
        (["flow", "linear", "--scheme", "be", "--n", "201"],
         "unrecognized arguments: --scheme be"),
        (["flow", "linear", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
          "--init", "csv:{tmp}/zeros.csv"],
         "initial datum needs a finite positive mass; got 0.0"),
        (["flow", "linear", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
          "--init", "csv:{tmp}/nan.csv"],
         "initial datum has non-finite entries"),
        (["region", "--theta", "0"], "theta must lie in (0, 1]; got 0.0"),
        (["region", "--theta", "1.5"], "theta must lie in (0, 1]; got 1.5"),
        (["report", "--trace", "{trace}", "--lambda1", "nan"], "lambda1 must be finite; got nan"),
        (["report", "--trace", "{trace}", "--lambda1", "inf"], "lambda1 must be finite; got inf"),
        (["report", "--trace", "{trace}", "--checks", "poincare", "--trials", "-5"],
         "trials and seed must be nonnegative; got -5, 0"),
        (["report", "--trace", "{trace}", "--checks", "poincare", "--seed", "-1"],
         "trials and seed must be nonnegative; got 100, -1"),
        (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--lambda1", "1.0",
          "--e0", "-5"], "E0 must be finite and nonnegative; got -5.0"),
        (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--lambda1", "1.0",
          "--e0", "nan"], "E0 must be finite and nonnegative; got nan"),
        (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--lambda1", "inf"],
         "lambda1 must be finite; got inf"),
        # a failed hypothesis (lambda1 > 0) does not hide the bad value
        (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--lambda1", "nan"],
         "lambda1 must be finite; got nan"),
        (["constants", "--m", "2.0", "--p", "2.0", "--theta", "0.5", "--lambda1", "1.0",
          "--e0", "-5"], "E0 must be finite and nonnegative; got -5.0"),
        # an overflowing step count, a report that checks nothing, and a
        # given --n the grid rejects
        (["flow", "linear", "--n", "101", "--tend", "1e300", "--dt", "1e-10"],
         "t_end=1e+300 over dt=1e-10 is not a finite number of steps"),
        (["report", "--trace", "{trace}", "--checks", ","], "no checks named; valid checks:"),
        (["report", "--trace", "{trace}", "--checks", ""], "no checks named; valid checks:"),
        (["lambda1", "--p", "1.5", "--n", "0"], "need at least 16 nodes, got 0"),
        (["lambda1", "--p", "1.5", "--domain=a:b", "--n", "200"],
         "--domain expects A:B, got 'a:b'"),
        (["lambda1", "--p", "1.5"], "--n is required"),
        (["constants", "--m", "1.2", "--p", "1.5", "--lambda1", "1.0"],
         "constants needs --theta or --from-p"),
        (["report"], "report needs --trace"),
        (["lambda1", "--p", "2", "--radial", "3:-1", "--n", "200"],
         "radius must be positive, got -1.0"),
        (["flow", "linear", "--init", "wave:0.2", "--n", "201"],
         "unknown initial datum family 'wave'"),
        (["flow", "linear", "--init", "bump", "--n", "201"],
         "cannot parse initial datum spec 'bump'"),
        # flow writes no JSON; it used to accept --out and write nothing
        (["flow", "linear", "--n", "101", "--tend", "0.01", "--dt", "1e-3", "--out", "x.json"],
         "unrecognized arguments: --out x.json"),
        # the given lambda1 replaces the solve: the geometry went unread
        (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--lambda1", "1.0",
          "--potential", "power:abc", "--n", "7"],
         "constants takes --lambda1 or the geometry flags, not both; "
         "got --lambda1 and --potential, --n"),
    ], ids=["power", "harmonic_log", "radial-d", "p-list", "init-bump", "region-theta",
            "tabulated-file", "tabulated-four-columns", "tabulated-radial", "init-csv-file",
            "missing-tabulated", "missing-init-csv",
            "missing-trace", "trace-short-row", "trace-cell", "trace-row-without-q4",
            "trace-no-config", "trace-no-p", "report-p",
            "lambda1-p-theta", "lambda1-config-theta", "constants-theta-from-p",
            "flag-prefix", "flow-scheme",
            "init-csv-zero-mass", "init-csv-nan",
            "region-theta-zero", "region-theta-above-one",
            "report-lambda1-nan", "report-lambda1-inf", "report-negative-trials",
            "report-negative-seed",
            "constants-negative-e0", "constants-e0-nan", "constants-lambda1-inf",
            "constants-lambda1-nan", "constants-outside-negative-e0",
            "flow-step-count-overflow", "report-checks-comma", "report-checks-empty",
            "lambda1-n-zero", "domain-not-numbers", "lambda1-no-n", "constants-no-theta",
            "report-no-trace", "radial-negative-R", "init-wave", "init-bump-bare",
            "flow-out", "constants-lambda1-potential"])
    def test_exits_2_with_message(self, artifacts, bad_files, capsys, argv, message):
        _, trace = artifacts
        argv = [a.format(tmp=bad_files, trace=trace) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, check", [("linear", "refined"), ("pme", "lemma")])
    def test_nonfinite_K_exits_2(self, bad_files, capsys, kind, check):
        # both audits passed such a trace, skipping the NaN slack of its first row
        trace = bad_files / f"{kind}.csv"
        m = ["--m", "1.2"] if kind == "pme" else []
        assert main(["flow", kind, "--p", "1.5", *m, "--n", "201", "--tend", "0.05",
                     "--dt", "1e-3", "--init", f"csv:{bad_files}/holes.csv",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace), "--checks", check]) == 2
        err = capsys.readouterr().err
        assert "trace has non-finite K entries" in err
        assert "Traceback" not in err


    def test_trace_without_q4_exits_2_for_refined_only(self, artifacts, tmp_path, capsys):
        # a linear trace in the six-column format written before the q4 column
        _, trace = artifacts
        lines = trace.read_text().splitlines()
        old = tmp_path / "six.csv"
        old.write_text("\n".join(lines[:3] + [line.rpartition(",")[0] for line in lines[3:]])
                       + "\n")
        assert old.read_text().splitlines()[3] == "t,E,I,K,mass,min_v"
        capsys.readouterr()
        assert main(["report", "--trace", str(old), "--checks", "refined"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace has no q4 column for the refined check" in captured.err
        assert main(["report", "--trace", str(old), "--trials", "5",
                     "--checks", "envelope,dissipation,poincare"]) == 0


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _outputs(directory: Path, capsys) -> dict:
    files = {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "cfg.json"}
    return {"stdout": capsys.readouterr().out, **files}


class TestConfigFile:
    """A --config file goes through the same parser as the flags."""

    @pytest.mark.parametrize("flags, cfg", [
        (["lambda1", "--p", "1.2,2.0", "--potential", "gaussian", "--domain=-6:6",
          "--n", "301", "--out", "lam.json"],
         {"p": "1.2,2.0", "potential": "gaussian", "domain": "-6:6", "n": 301,
          "out": "lam.json"}),
        (["flow", "linear", "--p", "1.5", "--domain=-8:8", "--n", "201", "--tend", "0.1",
          "--dt", "2e-3", "--init", "odd:0.2", "--stride", "2", "--trace", "run.csv"],
         {"p": 1.5, "domain": "-8:8", "n": 201, "tend": 0.1, "dt": 2e-3,
          "init": "odd:0.2", "stride": 2, "trace": "run.csv"}),
        (["region", "--theta", "0.8", "--out", "r.json"], {"theta": 0.8, "out": "r.json"}),
        (["constants", "--m", "1.2", "--p", "1.5", "--from-p", "1.5", "--lambda1", "1.0",
          "--e0", "0.02", "--out", "c.json"],
         {"m": 1.2, "p": 1.5, "from-p": 1.5, "lambda1": 1.0, "e0": 0.02, "out": "c.json"}),
        (["report", "--trace", "{trace}", "--checks",
          "envelope,poincare", "--trials", "5", "--seed", "2", "--plot", "e.svg",
          "--out", "v.json"],
         {"trace": "{trace}", "checks": "envelope,poincare",
          "trials": 5, "seed": 2, "plot": "e.svg", "out": "v.json"}),
    ], ids=["lambda1", "flow", "region", "constants", "report"])
    def test_file_matches_flags(self, artifacts, tmp_path, monkeypatch, capsys, flags, cfg):
        _, trace = artifacts

        def fill(v):
            return v.format(trace=trace) if isinstance(v, str) else v

        command = flags[:2] if flags[0] == "flow" else flags[:1]
        outputs = []
        for name, argv in [("flags", [fill(a) for a in flags]),
                           ("file", [*command, "--config", "cfg.json"])]:
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            _write_config(tmp_path / name, {k: fill(v) for k, v in cfg.items()})
            assert main(argv) == 0
            outputs.append(_outputs(tmp_path / name, capsys))
        assert outputs[0] == outputs[1]
        assert outputs[0]["stdout"] or len(outputs[0]) > 1  # something was compared

    @pytest.mark.parametrize("cfg, message", [
        ({"nope": 1}, "unrecognized arguments: --nope=1"),
        ({"t_end": 0.01}, "unrecognized arguments: --t_end=0.01"),
        ({"audit-stride": 5}, "unrecognized arguments: --audit-stride=5"),
        ({"aud": 3}, "unrecognized arguments: --aud=3"),
        ({"n": "abc"}, "argument --n: invalid int value: 'abc'"),
        ({"n": 20.5}, "argument --n: invalid int value: '20.5'"),
        ({"scheme": "be"}, "unrecognized arguments: --scheme=be"),
        ({"n": None}, "config key 'n' needs a string or a number, got null"),
        ({"trace": ["a.csv"]}, "config key 'trace' needs a string or a number"),
        ([1, 2], "--config must hold a JSON object"),
        ({"config": "nope.json"}, "names another config file"),
    ], ids=["unknown", "underscore", "removed-audit-stride", "prefix", "wrong-type",
            "float-for-int", "removed-scheme", "null", "list", "not-object", "nested-config"])
    def test_bad_file_exits_2(self, tmp_path, capsys, cfg, message):
        argv = ["flow", "linear", "--config", _write_config(tmp_path, cfg), "--n", "201",
                "--tend", "0.01"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_every_flow_config_field_is_a_flag(self, tmp_path):
        # a FlowConfig field without a flow flag would be a library-only knob
        # that no CLI run or --config file can set
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings[0] for a in sub.choices["flow"]._actions
                 if a.option_strings}
        values = {"p": 1.5, "m": 1.2, "theta": 0.3, "init": "bump:0.2", "t_end": 0.02,
                  "dt": 2e-3, "stride": 2}
        fields = [f.name for f in dataclasses.fields(FlowConfig) if f.name != "kind"]
        assert sorted(fields) == sorted(values)
        assert all(name in flags for name in fields), set(fields) - set(flags)
        trace = tmp_path / "run.csv"
        cfg = {flags[name].lstrip("-"): value for name, value in values.items()}
        assert main(["flow", "pme", "--config", _write_config(tmp_path, cfg), "--n", "101",
                     "--trace", str(trace)]) == 0
        assert Trace.from_csv(trace).config == {"kind": "pme", **values}

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("{not json")
        assert main(["region", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "is not JSON" in capsys.readouterr().err
        assert main(["region", "--config", str(tmp_path / "none.json")]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"p": "1.5", "potential": "gaussian", "n": 301,
                                       "domain": "-6:6"})
        out = tmp_path / "lam.json"
        assert main(["lambda1", "--n", "401", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 401


def test_dissipation_report_leaves_numpy_ma_unloaded(artifacts):
    # the tolerance takes a median of the snapshot spacings; np.median
    # would import numpy.ma on its first call
    _, trace = artifacts
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from entroflow.cli import main\n"
         f"code = main(['report', '--trace', {str(trace)!r}, '--checks', 'dissipation'])\n"
         "print(code, 'numpy.ma' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _readme_commands() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = text.replace("\\\n", " ")
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith("entroflow ")]


def test_readme_checks_table_matches_verify_checks():
    # README promises that verdicts follow the order of its check table
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("`report --checks` takes", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    documented = [(name.strip().strip("`"),
                   tuple(k.strip() for k in kinds.split(",") if "`" not in k))
                  for name, kinds in rows]
    assert documented == list(verify.CHECKS.items())


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 9
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(_normalize_argv(shlex.split(line)[1:]))
        assert callable(args.func), line


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # in order, in one directory: report reads what the flow wrote and
    # rebuilds its grid from the trace's geometry record alone
    monkeypatch.chdir(tmp_path)
    for line in _readme_commands():
        assert main(shlex.split(line)[1:]) == 0, line


def test_old_format_trace_needs_its_potential_flag(tmp_path, capsys):
    # a trace whose meta names its potential in the old {"family", "arg"}
    # layout rebuilds the default Gaussian grid, which is not its own
    trace = tmp_path / "run.csv"
    assert main(["flow", "linear", "--p", "1.5", "--potential", "power:1.5",
                 "--domain=-16:16", "--n", "400", "--tend", "0.1", "--dt", "1e-3",
                 "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines(keepends=True)
    (i,) = [k for k, line in enumerate(lines) if line.startswith("# meta: ")]
    meta = json.loads(lines[i][len("# meta: "):])
    assert meta["geometry"].pop("potential") == "power:1.5"
    meta["potential"] = {"family": "power", "arg": "1.5"}
    lines[i] = "# meta: " + json.dumps(meta, sort_keys=True) + "\n"
    old = tmp_path / "old.csv"
    old.write_text("".join(lines))
    assert main(["report", "--trace", str(old), "--checks", "poincare"]) == 2
    # the message names the grid report rebuilt and the flags that set it
    err = capsys.readouterr().err
    assert "not on grid" in err
    assert "(interval -16:16, n=400, potential harmonic)" in err
    assert "geometry flags: --potential, --domain, --radial and --n" in err
    assert main(["report", "--trace", str(old), "--checks", "poincare",
                 "--potential", "power:1.5"]) == 0


def test_readme_library_block_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("'")[1] for line in lines] == ["envelope[E]", "dissipation"]
    assert all("passed=True" in line for line in lines), proc.stdout


def test_readme_flags_are_parser_options():
    # every --flag the README names, pip's aside, is an option of a subcommand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "\n".join(line for line in text.splitlines()
                     if not line.strip().startswith("pip "))
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for command in sub.choices.values() for action in command._actions
               for opt in action.option_strings}
    assert len(flags) >= 20
    assert flags - options == set()


def test_step_count_over_the_cap_exits_2_promptly():
    # 1e15 steps used to run until killed; at stride 1 they are 1e15 rows
    proc = subprocess.run(
        [sys.executable, "-m", "entroflow.cli", "flow", "linear", "--n", "101",
         "--tend", "1e12", "--dt", "1e-3", "--stride", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "t_end=1e+12 at stride=1 and dt=0.001 is 1e+15 rows" in proc.stderr
    assert "cap of 1e+07" in proc.stderr


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "entroflow.cli", "lambda1", "--p", "2.0",
         "--potential", "gaussian", "--domain=-6:6", "--n", "301"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - 1.0) < 1e-2
