"""The names the benchmark in ``perfbench/`` uses of the package.

The benchmark builds each workload's grids through the public API
(``perfbench/setup_probe.py``) and reads work counters off results in its
tracer's hooks (``SpectralResult.iterations``, ``Trace.clamps``,
``meta["n_steps"]``, ``details["trials"]``).  No other test uses all of
them, so these run the probe and the hooks on real results.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import entroflow as ef

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _perfbench(name: str):
    """A module of ``perfbench/``, which is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_probe_builds_every_workload_grid(workload, tmp_path):
    workloads = _perfbench("workloads")
    grids = workloads.grid_specs(workloads.WORKLOADS[workload](tmp_path, 1, True))
    assert grids
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), json.dumps(grids)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_hooks_read_real_results():
    tracing = _perfbench("tracing")
    counts = Counter()
    grid = ef.make_interval_grid(-8.0, 8.0, 801, ef.harmonic())

    spectral = ef.lambda1_linear(1.5, grid)
    tracing._spectrum(counts, (1.5, grid), spectral)
    assert counts["spectrum_iterations"] == spectral.iterations >= 1
    assert counts["spectrum_nodes"] == grid.n

    # a compact start, which the pme flow clamps at the density floor
    v = np.maximum(2.25 - (grid.nodes + 1.0) ** 2, 0.0)
    cfg = ef.FlowConfig(kind="pme", m=2.0, p=1.5, init=v / ef.integrate_dgamma(grid, v),
                        t_end=0.2, dt=1e-3)
    trace = ef.run_pme(cfg, grid)
    tracing._flow(counts, (cfg, grid), trace)
    assert counts["flow_steps"] == trace.meta["n_steps"] == 200
    assert counts["flow_snapshots"] == len(trace.t)
    assert counts["flow_clamps"] == trace.meta["clamps"] > 0

    # a linear trace takes no time steps, but its meta keeps n_steps, the
    # steps of its row times, which the hook counts
    cfg = ef.FlowConfig(kind="linear", p=1.5, init="odd:0.2", t_end=0.3, dt=1e-3)
    linear = ef.run_linear(cfg, grid)
    tracing._flow(counts, (cfg, grid), linear)
    assert counts["flow_steps"] == 200 + linear.meta["n_steps"] == 500
    assert counts["flow_snapshots"] == len(trace.t) + len(linear.t)
    assert counts["flow_clamps"] == trace.meta["clamps"] + linear.meta["clamps"]

    verdict = ef.poincare_test(1.5, spectral, grid, trials=5, seed=1)
    tracing._poincare(counts, (1.5, spectral, grid), verdict)
    assert counts["poincare_trials"] == verdict.details["trials"] > 0
