"""Command-line interface: flags, exit codes, artifacts, determinism."""

import argparse
import dataclasses
import json
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from entroflow import verify
from entroflow.cli import _normalize_argv, build_parser, main
from entroflow.flows import FlowConfig, Trace


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

    def test_flat_zero(self, capsys):
        code = run_cli(
            "lambda1", "--p", "1.5", "--potential", "flat",
            "--domain", "0:1", "--n", "101",
        )
        assert code == 0
        assert abs(float(capsys.readouterr().out.strip())) <= 1e-9

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
        # odd n puts a node at x = 0, where the power family's F'' is singular
        assert run_cli("lambda1", "--p", "1.5", "--potential", "power:1.5",
                       "--domain=-16:16", "--n", "3201") == 2
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
        keys = ("lambda1", "residual", "iterations")
        assert [[r[k] for k in keys] for r in a] == [[r[k] for k in keys] for r in b]

    def test_lapack_failure_exits_3(self, monkeypatch):
        def fail(d, e):
            # stein info > 0: that many eigenvectors failed to converge
            return np.zeros(len(d)), 0, 1

        monkeypatch.setattr("entroflow.spectrum.lowest", fail)
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

    def test_undersized_radius_is_config_error(self):
        assert run_cli(
            "lambda1", "--p", "2.0", "--potential", "gaussian",
            "--radial", "3:2", "--n", "64",
        ) == 2


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_run")
    trace, fields = d / "run.csv", d / "run.npz"
    code = main([
        "flow", "linear", "--p", "1.5", "--potential", "gaussian",
        "--domain", "-8:8", "--n", "1001", "--tend", "1.0", "--dt", "2e-3",
        "--init", "odd:0.2", "--trace", str(trace), "--fields", str(fields),
    ])
    assert code == 0
    return d, trace, fields


class TestFlowAndReport:
    def test_trace_written(self, artifacts):
        _, trace, _ = artifacts
        header = trace.read_text().splitlines()
        assert any(line.startswith("t,E,I,K,mass,min_v") for line in header[:5])

    def test_report_all_checks_pass(self, artifacts, capsys):
        d, trace, fields = artifacts
        verd = d / "verdicts.json"
        code = main([
            "report", "--trace", str(trace), "--fields", str(fields),
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

    def test_report_exit_offset_on_failures(self, artifacts):
        _, trace, _ = artifacts
        # a wildly inflated eigenvalue makes both envelope checks fail: 4 + 2
        code = main([
            "report", "--trace", str(trace), "--checks", "envelope",
            "--lambda1", "10.0",
        ])
        assert code == 6

    def test_plot_svg_structure(self, artifacts, tmp_path):
        _, trace, _ = artifacts
        svg = tmp_path / "plot.svg"
        code = main(["report", "--trace", str(trace), "--checks", "envelope",
                     "--plot", str(svg)])
        assert code == 0
        root = ET.parse(svg).getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) >= 2
        assert "script" not in svg.read_text()

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

    def test_report_json_bytes_deterministic(self, artifacts, tmp_path):
        _, trace, fields = artifacts
        outs = []
        for name in ("v1.json", "v2.json"):
            path = tmp_path / name
            code = main([
                "report", "--trace", str(trace), "--fields", str(fields),
                "--checks", "envelope,poincare,refined", "--trials", "15",
                "--seed", "3", "--out", str(path),
            ])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_lambda1_csv_output(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = main([
            "lambda1", "--p", "1.5,2.0", "--potential", "gaussian",
            "--domain", "-6:6", "--n", "301", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,lambda1,residual,iterations"
        assert len(lines) == 3

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

    def test_report_rejects_zero_epsilon(self, artifacts):
        # an explicit 0 is an invalid value, not a request for the default
        _, trace, fields = artifacts
        code = main(["report", "--trace", str(trace), "--fields", str(fields),
                     "--checks", "refined", "--epsilon", "0"])
        assert code == 2

    @pytest.mark.parametrize("raw", ["inf", "nan", "-1"])
    def test_report_ignores_env_tolerance(self, artifacts, monkeypatch, raw):
        # at ENTROFLOW_TOL=inf this inflated eigenvalue used to pass (exit 0);
        # the slack is fixed, so the verdicts match those of a clean environment
        _, trace, _ = artifacts
        argv = ["report", "--trace", str(trace), "--checks", "envelope", "--lambda1", "50"]
        clean = main(argv)
        monkeypatch.setenv("ENTROFLOW_TOL", raw)
        assert main(argv) == clean > 4

    @pytest.mark.parametrize("kind", ["linear", "pme"])
    def test_solve_failure_exits_3(self, monkeypatch, kind):
        monkeypatch.setattr("entroflow.flows.SPDTridiagonal.factor", lambda system: 1)
        code = main([
            "flow", kind, "--p", "1.5", "--m", "1.2", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
        ])
        assert code == 3

    @pytest.mark.parametrize("flags", [
        ("--stride", "0"), ("--audit-stride", "0"), ("--dt", "0"), ("--dt", "-0.001"),
    ], ids=["stride", "audit-stride", "dt-zero", "dt-negative"])
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
        # the default dt here is 10 h^2 = 0.064: t_end = 0.01 used to run one
        # step to t = 0.064 and exit 0; t_end = 0.04 rounds to one step
        assert main([
            "flow", "linear", "--p", "1.5", "--potential", "gaussian", "--domain", "-8:8",
            "--n", "201", "--tend", tend,
        ]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert "config error" in err and "t_end=0.01" in err and "--dt" in err
        else:
            assert out.startswith("t_end=0.064 ")

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
    """Trace paths by name: the p = 1.5 linear run, a pme run, a p = 2 linear run."""
    d = tmp_path_factory.mktemp("report_traces")
    common = ["--potential", "gaussian", "--domain=-8:8", "--n", "201", "--dt", "2e-3"]
    assert main(["flow", "pme", "--m", "1.2", "--p", "1.5", "--theta", "0.5", *common,
                 "--tend", "0.2", "--init", "bump:0.4", "--trace", str(d / "pme.csv")]) == 0
    assert main(["flow", "linear", "--p", "2.0", *common, "--tend", "0.1",
                 "--trace", str(d / "p2.csv"), "--fields", str(d / "p2.npz")]) == 0
    _, trace, fields = artifacts
    return {
        "linear": ["--trace", str(trace), "--fields", str(fields)],
        "pme": ["--trace", str(d / "pme.csv")],
        "p2": ["--trace", str(d / "p2.csv"), "--fields", str(d / "p2.npz")],
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
    ], ids=["unknown", "unknown-among-valid", "poincare-on-pme", "refined-on-pme",
            "lemma-on-linear", "refined-at-p2"])
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

    def test_help_lists_every_check(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--help"])
        assert "envelope,dissipation,poincare,refined,lemma" in capsys.readouterr().out


class TestRegionAndConstants:
    def test_region_json(self, capsys):
        assert run_cli("region", "--theta", "1.0", "--samples", "120") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["center"][0] == pytest.approx(1.0, abs=0.1)
        assert payload["center"][1] == pytest.approx(1.5, abs=0.1)

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
    (tmp_path / "tab.csv").write_text("x,F,dF,d2F\n0.0,abc,0,1\n")
    (tmp_path / "init.csv").write_text("1.0\nabc\n")
    (tmp_path / "zeros.csv").write_text("0.0\n" * 201)
    (tmp_path / "nan.csv").write_text("1.0\n" * 100 + "nan\n" + "1.0\n" * 100)
    (tmp_path / "short.csv").write_text("t,E,I,K,mass,min_v\n0,1,2,3,1,1\n0.1,1,2\n")
    (tmp_path / "cell.csv").write_text("t,E,I,K,mass,min_v\n0,1,2,abc,1,1\n")
    rows = "t,E,I,K,mass,min_v\n0,1,2,3,1,1\n0.1,0.9,1.8,2.7,1,1\n"
    (tmp_path / "no-config.csv").write_text(rows)
    (tmp_path / "no-p.csv").write_text('# config: {"kind": "linear"}\n' + rows)
    (tmp_path / "fields.npz").write_text("not an npz\n")
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
        (["region", "--check-theta", "x"],
         "argument --check-theta: expects a comma list of numbers, got 'x'"),
        (["lambda1", "--p", "1.5", "--potential", "tabulated:{tmp}/tab.csv"],
         "cannot parse potential 'tabulated:"),
        (["flow", "linear", "--init", "csv:{tmp}/init.csv", "--n", "201"],
         "cannot read initial datum file"),
        (["lambda1", "--p", "1.5", "--potential", "tabulated:{tmp}/none.csv"],
         "none.csv not found"),
        (["flow", "linear", "--init", "csv:{tmp}/none.csv", "--n", "201"],
         "none.csv not found"),
        (["report", "--trace", "{tmp}/none.csv"], "No such file or directory"),
        (["report", "--trace", "{trace}", "--fields", "{tmp}/none.npz"],
         "No such file or directory"),
        (["report", "--trace", "{tmp}/short.csv"],
         "short.csv line 3: 3 columns, expected 6"),
        (["report", "--trace", "{tmp}/cell.csv"],
         "cell.csv line 2: could not convert string to float: 'abc'"),
        (["report", "--trace", "{trace}", "--fields", "{tmp}/fields.npz"],
         "cannot read field file"),
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
         "csv initial datum needs a finite positive mass; got 0.0"),
        (["flow", "linear", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
          "--init", "csv:{tmp}/nan.csv"],
         "csv initial datum has non-finite entries"),
        (["region", "--samples", "-5"], "samples must be at least 2; got -5"),
        (["region", "--samples", "0"], "samples must be at least 2; got 0"),
        (["report", "--trace", "{trace}", "--lambda1", "nan"], "lambda1 must be finite; got nan"),
        (["report", "--trace", "{trace}", "--lambda1", "inf"], "lambda1 must be finite; got inf"),
        (["report", "--trace", "{trace}", "--checks", "poincare", "--trials", "-5"],
         "trials and seed must be nonnegative; got -5, 0"),
        (["report", "--trace", "{trace}", "--checks", "poincare", "--seed", "-1"],
         "trials and seed must be nonnegative; got 100, -1"),
        (["report", "--trace", "{trace}", "--fields", "{fields}", "--checks", "refined",
          "--epsilon", "nan"], "epsilon must be finite and positive; got nan"),
        (["report", "--trace", "{trace}", "--fields", "{fields}", "--checks", "refined",
          "--epsilon", "inf"], "epsilon must be finite and positive; got inf"),
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
    ], ids=["power", "harmonic_log", "radial-d", "p-list", "init-bump", "check-theta",
            "tabulated-file", "init-csv-file", "missing-tabulated", "missing-init-csv",
            "missing-trace", "missing-fields", "trace-short-row", "trace-cell",
            "fields-not-npz", "trace-no-config", "trace-no-p", "report-p",
            "lambda1-p-theta", "lambda1-config-theta", "constants-theta-from-p",
            "flag-prefix", "flow-scheme",
            "init-csv-zero-mass", "init-csv-nan",
            "region-negative-samples", "region-zero-samples",
            "report-lambda1-nan", "report-lambda1-inf", "report-negative-trials",
            "report-negative-seed", "report-epsilon-nan", "report-epsilon-inf",
            "constants-negative-e0", "constants-e0-nan", "constants-lambda1-inf",
            "constants-lambda1-nan", "constants-outside-negative-e0"])
    def test_exits_2_with_message(self, artifacts, bad_files, capsys, argv, message):
        _, trace, fields = artifacts
        argv = [a.format(tmp=bad_files, trace=trace, fields=fields) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, check", [("linear", "refined"), ("pme", "lemma")])
    def test_nonfinite_K_exits_2(self, bad_files, capsys, kind, check):
        # both audits passed such a trace, skipping the NaN slack of its first row
        trace, fields = bad_files / f"{kind}.csv", bad_files / f"{kind}.npz"
        m = ["--m", "1.2"] if kind == "pme" else []
        assert main(["flow", kind, "--p", "1.5", *m, "--n", "201", "--tend", "0.05",
                     "--dt", "1e-3", "--init", f"csv:{bad_files}/holes.csv",
                     "--trace", str(trace), "--fields", str(fields)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace), "--fields", str(fields),
                     "--checks", check]) == 2
        err = capsys.readouterr().err
        assert "trace has non-finite K entries" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("case", ["other-t-end", "cut-trace"])
    def test_fields_of_another_run_exit_2(self, artifacts, tmp_path, capsys, case):
        # the fields come from a run to t = 1; the trace is a run to t = 0.3 on
        # the same grid (report exited 5 with a false refined failure) or the
        # first 101 rows of the fields' own trace (an IndexError traceback)
        _, trace, fields = artifacts
        other = tmp_path / "other.csv"
        if case == "other-t-end":
            assert main([
                "flow", "linear", "--p", "1.5", "--potential", "gaussian",
                "--domain", "-8:8", "--n", "1001", "--tend", "0.3", "--dt", "2e-3",
                "--init", "odd:0.2", "--trace", str(other),
            ]) == 0
        else:
            other.write_text("\n".join(trace.read_text().splitlines()[:4 + 101]) + "\n")
        capsys.readouterr()
        assert main(["report", "--trace", str(other), "--fields", str(fields),
                     "--checks", "refined"]) == 2
        err = capsys.readouterr().err
        assert "was written for other snapshot times" in err
        assert "Traceback" not in err


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
          "--dt", "2e-3", "--init", "odd:0.2", "--audit-stride", "5", "--stride", "2",
          "--trace", "run.csv", "--fields", "run.npz"],
         {"p": 1.5, "domain": "-8:8", "n": 201, "tend": 0.1, "dt": 2e-3,
          "init": "odd:0.2", "audit-stride": 5, "stride": 2, "trace": "run.csv",
          "fields": "run.npz"}),
        (["region", "--theta", "0.8", "--samples", "40", "--check-theta", "0.5,0.2"],
         {"theta": 0.8, "samples": 40, "check-theta": "0.5,0.2"}),
        (["constants", "--m", "1.2", "--p", "1.5", "--from-p", "1.5", "--lambda1", "1.0",
          "--e0", "0.02", "--out", "c.json"],
         {"m": 1.2, "p": 1.5, "from-p": 1.5, "lambda1": 1.0, "e0": 0.02, "out": "c.json"}),
        (["report", "--trace", "{trace}", "--fields", "{fields}", "--checks",
          "envelope,poincare", "--trials", "5", "--seed", "2", "--plot", "e.svg",
          "--out", "v.json"],
         {"trace": "{trace}", "fields": "{fields}", "checks": "envelope,poincare",
          "trials": 5, "seed": 2, "plot": "e.svg", "out": "v.json"}),
    ], ids=["lambda1", "flow", "region", "constants", "report"])
    def test_file_matches_flags(self, artifacts, tmp_path, monkeypatch, capsys, flags, cfg):
        _, trace, fields = artifacts

        def fill(v):
            return v.format(trace=trace, fields=fields) if isinstance(v, str) else v

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
        ({"audit_stride": 5}, "unrecognized arguments: --audit_stride=5"),
        ({"aud": 3}, "unrecognized arguments: --aud=3"),
        ({"n": "abc"}, "argument --n: invalid int value: 'abc'"),
        ({"n": 20.5}, "argument --n: invalid int value: '20.5'"),
        ({"scheme": "be"}, "unrecognized arguments: --scheme=be"),
        ({"n": None}, "config key 'n' needs a string or a number, got null"),
        ({"trace": ["a.csv"]}, "config key 'trace' needs a string or a number"),
        ([1, 2], "--config must hold a JSON object"),
        ({"config": "nope.json"}, "names another config file"),
    ], ids=["unknown", "underscore", "prefix", "wrong-type", "float-for-int",
            "removed-scheme", "null", "list", "not-object", "nested-config"])
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
                  "dt": 2e-3, "stride": 2, "audit_stride": 3}
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
    _, trace, _ = artifacts
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


def test_readme_library_block_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 2


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "entroflow.cli", "lambda1", "--p", "2.0",
         "--potential", "gaussian", "--domain=-6:6", "--n", "301"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - 1.0) < 1e-2
