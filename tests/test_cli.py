"""Command-line interface: flags, exit codes, artifacts, determinism."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from entroflow.cli import main


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
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("stein: eigenvector failed to converge")

        monkeypatch.setattr("entroflow.spectrum.eigh_tridiagonal", fail)
        assert run_cli(
            "lambda1", "--p", "1.5", "--potential", "gaussian",
            "--domain", "-6:6", "--n", "301",
        ) == 3

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

    @pytest.mark.parametrize("flags", [
        ("--checks", "envelope", "--p", "0"),
        ("--checks", "refined", "--epsilon", "0"),
    ])
    def test_report_rejects_zero_p_and_epsilon(self, artifacts, flags):
        # an explicit 0 is an invalid value, not a request for the default
        _, trace, fields = artifacts
        code = main(["report", "--trace", str(trace), "--fields", str(fields), *flags])
        assert code == 2

    @pytest.mark.parametrize("raw", ["inf", "nan", "-1"])
    def test_report_rejects_bad_env_tolerance(self, artifacts, monkeypatch, raw):
        # at ENTROFLOW_TOL=inf this inflated eigenvalue used to pass (exit 0)
        _, trace, _ = artifacts
        monkeypatch.setenv("ENTROFLOW_TOL", raw)
        code = main(["report", "--trace", str(trace), "--checks", "envelope",
                     "--lambda1", "50"])
        assert code == 2

    @pytest.mark.parametrize("kind", ["linear", "pme"])
    def test_solve_failure_exits_3(self, monkeypatch, kind):
        monkeypatch.setattr("entroflow.flows.dpttrf", lambda d, e: (d, e, 1))
        code = main([
            "flow", kind, "--p", "1.5", "--m", "1.2", "--potential", "gaussian",
            "--domain", "-8:8", "--n", "201", "--tend", "0.01", "--dt", "1e-3",
        ])
        assert code == 3


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


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "entroflow.cli", "lambda1", "--p", "2.0",
         "--potential", "gaussian", "--domain=-6:6", "--n", "301"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - 1.0) < 1e-2
