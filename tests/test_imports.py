"""What a CLI process loads: each command imports the modules it runs and no
more, no command maps OpenSSL, and none imports ``numpy.random``.

Each command runs in a fresh interpreter, since this test process has
imported everything already.  A top-level import that drags a module back
into a command that does not use it fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# loaded by every command: the CLI, its geometry flags' grid and its errors
BASE = {"cli", "errors", "grid", "potential", "functionals"}
GRID = ["--potential", "gaussian", "--domain=-8:8", "--n", "401"]
LINEAR = ["flow", "linear", "--p", "1.5", *GRID, "--tend", "0.2", "--dt", "1e-3",
          "--init", "odd:0.2", "--trace", "lin.csv"]
PME = ["flow", "pme", "--m", "1.2", "--p", "1.5", "--theta", "0.5", *GRID, "--tend", "0.2",
       "--dt", "1e-3", "--init", "bump:0.4", "--trace", "pme.csv"]

# a line of the probe: the command's exit code, the entroflow submodules
# loaded, whether OpenSSL's hashlib backend was and whether numpy.random was
PROBE = """
import contextlib, io, json, sys
from entroflow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(m.partition(".")[2] for m in sys.modules
                             if m.startswith("entroflow.")), "_hashlib" in sys.modules,
                  "numpy.random" in sys.modules]))
"""


def _loaded(argv: list[str], cwd: Path) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules, openssl, numpy_random = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    assert not openssl, f"{argv[0]} mapped OpenSSL"
    assert not numpy_random, f"{argv[0]} imported numpy.random"
    return set(modules)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A directory holding a short linear and a short pme trace."""
    d = tmp_path_factory.mktemp("imports")
    _loaded(LINEAR, d)
    _loaded(PME, d)
    return d


@pytest.mark.parametrize("argv, modules", [
    (["lambda1", "--p", "1.5", *GRID], {"_lapack", "spectrum"}),
    (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", "--lambda1", "1.0"],
     {"criteria"}),
    (["constants", "--m", "1.2", "--p", "1.5", "--theta", "0.5", *GRID],
     {"criteria", "_lapack", "spectrum"}),
    (["region", "--theta", "0.5"], {"criteria"}),
    (LINEAR, {"_lapack", "flows"}),
    (PME, {"_lapack", "flows"}),
    # the poincare trials come from random.Random, whose module imports the
    # builtin _sha512 (_sha2 on 3.12+); numpy.random's SeedSequence would
    # import secrets -> hmac -> _hashlib
    (["report", "--trace", "lin.csv", "--trials", "5",
      "--checks", "envelope,dissipation,poincare,refined"],
     {"_lapack", "flows", "verify", "criteria", "spectrum"}),
    (["report", "--trace", "pme.csv", "--checks", "envelope,dissipation,lemma"],
     {"_lapack", "flows", "verify", "criteria", "spectrum"}),
], ids=["lambda1", "constants-given", "constants-solved", "region", "flow-linear",
        "flow-pme", "report-linear", "report-pme"])
def test_command_loads_only_what_it_runs(runs, argv, modules):
    assert _loaded(argv, runs) == BASE | modules


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, entroflow; "
         "print(sorted(m for m in sys.modules if m.startswith('entroflow')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert proc.stdout.strip() == "['entroflow']", proc.stderr
