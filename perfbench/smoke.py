"""Smoke check: each workload, at toy size, prints every metric with its unit.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --toy --seconds 1``
untraced and traced, prints each run's metric table, and checks that the
run is correct, that the JSON result names exactly the metrics
BENCHMARK.json declares, with their units, and that the table has a line
per metric (plus ``fail_rate`` untraced).  Exits 1 listing every problem.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check_run(workload: str, trace: int) -> list[str]:
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    tabled = dict(declared) if trace else {**declared, "fail_rate": "ratio"}
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    print(f"== {where}", *lines[:-1], sep="\n")
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: outputs failed their checks\n{proc.stderr[-2000:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
                        "differ from BENCHMARK.json")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{where}: {name} reported as {got}, unit should be {unit}")
    for name, unit in tabled.items():
        row = re.compile(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)")
        if not any(row.match(line) for line in lines[:-1]):
            problems.append(f"{where}: no table line for {name} [{unit}]")
    return problems


def main() -> int:
    problems = [p for w in BENCHMARK["workloads"] for t in (0, 1) for p in check_run(w["name"], t)]
    for p in problems:
        print(p, file=sys.stderr)
    print(f"perfbench smoke: {'FAILED' if problems else 'ok'} "
          f"({len(BENCHMARK['workloads'])} workloads, untraced and traced)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
