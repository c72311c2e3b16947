"""entroflow benchmark: the README's CLI pipelines, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every command as a fresh ``python -m entroflow.cli``
interpreter, one at a time, with ``src`` on ``PYTHONPATH``, and reports the
end-to-end metrics.  ``--trace 1`` runs the same commands in this process
through ``entroflow.cli.main``, alternating untraced and traced passes, and
reports the per-layer metrics (see ``tracing.py``).  Passes repeat until
``--seconds`` have gone by; each pass writes into a fresh directory under
``.perfbench_out/`` that is removed at the end.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the benchmark's directory free of build output

from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, grid_specs  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_SETUPS = 5
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0
# recorded as found, never set: BLAS threading and bytecode caching
RECORDED_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "PYTHONDONTWRITEBYTECODE")


# -- environment record ------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> str:
    """Cache sizes of CPU 0 as the kernel lists them."""
    parts = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            parts.append(f"L{level}{'d' if kind == 'Data' else ''}={size}")
    return " ".join(parts) or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment(args) -> list[str]:
    found = [f"{v}={os.environ[v]}" for v in RECORDED_VARS if v in os.environ]
    return [
        f"# workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}"
        f"  trace: {args.trace}{'  toy sizes' if args.toy else ''}",
        f"# git: {_git_sha()}  python: {platform.python_version()}"
        f"  numpy: {_version('numpy')}  scipy: {_version('scipy')}",
        f"# nproc: {os.cpu_count()}  cpu: {_cpu_model()}  caches: {_caches()}",
        f"# environment: {' '.join(found) if found else 'no BLAS thread variables set'}",
    ]


# -- running commands ----------------------------------------------------------

def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(cmd: list[str], cwd: Path, env: dict, stdout, stderr):
    """Run cmd to completion; return (exit code, wall s, rusage incl. reaped children)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _fresh_python(code_or_script: list[str], env: dict) -> float:
    """Wall time of one fresh interpreter; raises if it fails."""
    rc, wall, _ = _spawn([sys.executable, *code_or_script], ROOT, env,
                         subprocess.DEVNULL, None)
    if rc != 0:
        raise RuntimeError(f"{code_or_script[:2]} exited with {rc}")
    return wall


class Checker:
    """Applies each command's output check and the cross-pass byte check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] = {}

    def record(self, cmd, rc: int, stdout: str, pass_dir: Path) -> None:
        self.attempted += 1
        problems = cmd.check(rc, stdout, pass_dir)
        if cmd.deterministic_file and rc == 0:
            path = pass_dir / cmd.deterministic_file
            data = path.read_bytes() if path.is_file() else b""
            ref = self.reference.setdefault(cmd.name, data)
            if data != ref:
                problems.append(f"{cmd.deterministic_file} differs from the first pass")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {cmd.name}: {p}", file=sys.stderr)


def _commands(args, run_dir: Path):
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=run_dir))
    return pass_dir, WORKLOADS[args.workload](pass_dir, args.seed, args.toy)


def untraced_run(args, run_dir: Path, checker: Checker) -> tuple[dict, list[str]]:
    env = _cli_env()
    _fresh_python(["-c", "import entroflow.cli"], env)  # fill bytecode and file caches
    grids = grid_specs(WORKLOADS[args.workload](run_dir, args.seed, args.toy))
    probe = [str(HERE / "setup_probe.py"), json.dumps(grids)]

    walls, cpus, rss, setups = [], [], [], []
    deadline = perf_counter() + args.seconds
    while len(walls) < 2 or perf_counter() < deadline:
        pass_dir, commands = _commands(args, run_dir)
        wall = cpu = peak = 0.0
        for i, cmd in enumerate(commands):
            out_path = pass_dir / f"{i}-{cmd.name}.stdout"
            with open(out_path, "wb") as out, open(pass_dir / f"{i}-{cmd.name}.stderr", "wb") as err:
                rc, w, usage = _spawn([sys.executable, "-m", "entroflow.cli", *cmd.argv],
                                      pass_dir, env, out, err)
            wall += w
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss / 1024.0)  # KiB on Linux
            checker.record(cmd, rc, out_path.read_text(), pass_dir)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        # set-ups interleaved with passes, so they see the same machine state
        setups.append(_fresh_python(probe, env))
    while len(setups) < MIN_SETUPS:
        setups.append(_fresh_python(probe, env))

    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": _spread("passes", walls),
        "setup_s": _spread("set-ups", setups),
        "cpu_s": _spread("passes", cpus),
        "peak_rss_mb": _spread("passes", rss),
    }
    table = [_row(name, metrics[name], unit, notes[name]) for name, unit in END_TO_END_UNITS.items()]
    rate = checker.failed / checker.attempted
    table.append(_row("fail_rate", rate, "ratio", f"{checker.failed} of {checker.attempted} commands"))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, table


def _in_process(main, argv, tracer: Tracer | None) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = tracer.call("cli", main, list(argv)) if tracer else main(list(argv))
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = -1
    if rc != 0:
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue()


def traced_run(args, run_dir: Path, checker: Checker) -> tuple[dict, list[str]]:
    env = _cli_env()
    _fresh_python(["-c", "import entroflow"], env)  # fill bytecode and file caches
    import_s = statistics.median(
        float(subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import entroflow; "
             "print(time.perf_counter() - t)"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=COMMAND_TIMEOUT_S).stdout)
        for _ in range(IMPORT_REPEATS))

    sys.path.insert(0, str(SRC))
    from entroflow import cli

    plain_walls, traced_walls, per_pass = [], [], []
    tracer = None
    deadline = perf_counter() + args.seconds
    while not plain_walls or perf_counter() < deadline:
        for traced in (False, True):
            pass_dir, commands = _commands(args, run_dir)
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            t0 = perf_counter()
            try:
                results = [_in_process(cli.main, cmd.argv, tracer) for cmd in commands]
            finally:
                if tracer:
                    tracer.uninstall()
            (traced_walls if traced else plain_walls).append(perf_counter() - t0)
            for cmd, (rc, stdout) in zip(commands, results):
                checker.record(cmd, rc, stdout, pass_dir)
            if tracer:
                per_pass.append(tracer.metrics())

    if tracer.missing:
        print("tracing: not found, not traced: " + ", ".join(tracer.missing), file=sys.stderr)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)

    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    table = [_row(name, metrics[name], unit, "") for name, unit in PER_LAYER_UNITS.items()]
    table.append(f"# medians over {len(per_pass)} traced and {len(plain_walls)} untraced "
                 f"in-process passes; spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    return {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}, table


def _spread(what: str, values: list[float]) -> str:
    return f"median of {len(values)} {what} (min {min(values):.6g}, max {max(values):.6g})"


def _row(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<32} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small node counts and short flows, for the smoke check")
    args = parser.parse_args(argv)
    if not (SRC / "entroflow" / "cli.py").is_file():
        print(f"perfbench: no entroflow sources under {SRC}", file=sys.stderr)
        return 2

    for line in environment(args):
        print(line)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    checker = Checker()
    try:
        run = traced_run if args.trace else untraced_run
        metrics, table = run(args, run_dir, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in table:
        print(line)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
