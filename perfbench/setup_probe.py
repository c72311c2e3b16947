"""Set-up probe: import the CLI and build a workload's grids, with no solves.

Run as ``python perfbench/setup_probe.py '<json list of geometry options>'``
with ``src`` on ``PYTHONPATH``; the caller times the whole interpreter, so
start-up, ``import entroflow.cli`` and grid construction all count.  Grids
are built through the package's public API (the CLI's own geometry helper
is private), mapping the CLI's ``--potential`` spellings the way it does.
"""

import json
import sys

import entroflow.cli  # noqa: F401  (the import every CLI command pays)
from entroflow import make_interval_grid, make_radial_grid, potential_from_spec


def _potential(text: str, d: int):
    name, _, arg = text.partition(":")
    if name == "gaussian":
        return potential_from_spec("harmonic", d)
    if name == "power":
        return potential_from_spec({"family": "power", "beta": float(arg)}, d)
    if name == "harmonic_log":
        return potential_from_spec({"family": "harmonic_log", "eps": float(arg)}, d)
    raise SystemExit(f"setup probe: unsupported potential {text!r}")


def main() -> None:
    for opts in json.loads(sys.argv[1]):
        if opts["radial"]:
            d, _, R = opts["radial"].partition(":")
            make_radial_grid(int(d), float(R), opts["n"], _potential(opts["potential"], int(d)))
        else:
            xL, _, xR = opts["domain"].partition(":")
            make_interval_grid(float(xL), float(xR), opts["n"], _potential(opts["potential"], 1))


if __name__ == "__main__":
    main()
