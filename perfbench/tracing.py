"""Outside-in layer tracing for the in-process traced run.

The tracer replaces public names in the namespaces where entroflow's modules
look them up (``flows.integrate_dgamma``, ``verify.lambda1_linear``, ...)
with wrappers that record a span ``(layer, start, end, parent)`` per call.
The program itself is not changed; ``uninstall`` puts every original back.

Every ``*_s`` time a layer reports is its self time: the span's duration
minus the part covered by its child spans, so the layer times add up to the
traced wall time.  Spectrum work done inside ``lambda1 --jobs`` worker
processes is not traced there; it shows only as ``cli.pool_s``, the time the
CLI waits on the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# Counters a wrapper updates after a call: hook(counts, args, result).


def _quadrature_nodes(counts: Counter, args, result) -> None:
    counts["quadrature_nodes"] += args[0].n


def _spectrum(counts: Counter, args, result) -> None:
    counts["spectrum_iterations"] += result.iterations
    counts["spectrum_nodes"] += len(result.eigenvector)


def _flow(counts: Counter, args, trace) -> None:
    counts["flow_steps"] += int(trace.meta["n_steps"])
    counts["flow_snapshots"] += len(trace.t)
    counts["flow_clamps"] += trace.clamps


def _flows_delta_g(counts: Counter, args, result) -> None:
    counts["flows_delta_g"] += 1


def _poincare(counts: Counter, args, verdict) -> None:
    counts["poincare_trials"] += int(verdict.details.get("trials", 0))


def _io_bytes(counts: Counter, args, result) -> None:
    counts["trace_bytes"] += os.path.getsize(args[1])


# (module, names, layer, hook): each name is wrapped where that module looks it up.
TARGETS = [
    ("entroflow.cli", ("make_interval_grid", "make_radial_grid"), "grid.build", None),
    ("entroflow.grid", ("tail_mass",), "potential.tail_mass", None),
    ("entroflow.functionals", ("integrate_dgamma", "dirichlet_form"), "grid.quadrature", _quadrature_nodes),
    ("entroflow.functionals", ("delta_g", "gradient_sq"), "grid.operator", None),
    ("entroflow.flows", ("integrate_dgamma",), "grid.quadrature", _quadrature_nodes),
    ("entroflow.flows", ("delta_g",), "grid.operator", _flows_delta_g),
    ("entroflow.verify", ("integrate_dgamma", "dirichlet_form"), "grid.quadrature", _quadrature_nodes),
    ("entroflow.verify", ("gradient_sq",), "grid.operator", None),
    ("entroflow.spectrum", ("lambda1_linear", "lambda1_pme"), "spectrum", _spectrum),
    ("entroflow.verify", ("lambda1_linear",), "spectrum", _spectrum),
    ("entroflow.flows", ("run_linear", "run_pme"), "flows", _flow),
    ("entroflow.flows", ("cho_solve_banded", "solve_banded"), "flows.linear_solve", None),
    ("entroflow.flows", ("entropy_linear", "fisher_linear", "k_linear",
                         "entropy_pme", "fisher_pme", "k_pme"), "functionals", None),
    ("entroflow.verify", ("check_envelope",), "verify.envelope", None),
    ("entroflow.verify", ("dissipation_audit",), "verify.dissipation", None),
    ("entroflow.verify", ("poincare_test",), "verify.poincare", _poincare),
    ("entroflow.verify", ("refined_inequality_audit",), "verify.refined", None),
]
TRACE_IO = ("to_csv", "from_csv", "save_fields", "load_fields")

# Per-layer metrics with their units, in the order they are printed.
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.pool_s": "s",
    "potential.tail_mass_s": "s", "potential.tail_mass_calls": "count",
    "grid.build_s": "s", "grid.builds": "count",
    "grid.quadrature_s": "s", "grid.quadrature_calls": "count",
    "grid.quadrature_ns_per_node": "ns",
    "grid.operator_s": "s", "grid.operator_calls": "count",
    "spectrum.solve_s": "s", "spectrum.solves": "count",
    "spectrum.iterations": "count", "spectrum.ns_per_node": "ns",
    "flows.self_s": "s", "flows.steps": "count", "flows.us_per_step": "us",
    "flows.linear_solves": "count", "flows.linear_solve_s": "s",
    "flows.residual_evals_per_solve": "ratio",
    "flows.snapshots": "count", "flows.clamps": "count",
    "flows.trace_io_s": "s", "flows.trace_bytes": "bytes",
    "functionals.eval_s": "s", "functionals.evals": "count",
    "criteria.s": "s", "criteria.calls": "count",
    "verify.envelope_s": "s", "verify.dissipation_s": "s",
    "verify.poincare_s": "s", "verify.refined_s": "s",
    "verify.poincare_trials": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------
    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        idx = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_name(self, owner, name: str, layer: str, hook=None) -> None:
        raw = vars(owner).get(name)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
        elif isinstance(raw, classmethod):
            self._replace(owner, name, classmethod(self._wrap(raw.__func__, layer, hook)))
        else:
            self._replace(owner, name, self._wrap(raw, layer, hook))

    def install(self) -> None:
        for modname, names, layer, hook in TARGETS:
            mod = importlib.import_module(modname)
            for name in names:
                self._wrap_name(mod, name, layer, hook)
        trace_cls = importlib.import_module("entroflow.flows").Trace
        for name in TRACE_IO:
            self._wrap_name(trace_cls, name, "flows.trace_io", _io_bytes)
        criteria = importlib.import_module("entroflow.criteria")
        for name, fn in list(vars(criteria).items()):
            public_function = (
                inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == criteria.__name__
            )
            if public_function:
                self._wrap_name(criteria, name, "criteria")
        cli = importlib.import_module("entroflow.cli")
        if "ProcessPoolExecutor" in vars(cli):
            self._replace(cli, "ProcessPoolExecutor", self._timed_pool())
        else:
            self.missing.append("entroflow.cli.ProcessPoolExecutor")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _timed_pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            """The CLI's process pool, timed from entry to shutdown."""

            def __enter__(self):
                self._span = tracer._open("cli.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._span)

        return TimedPool

    # -- aggregation ---------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (one pass)."""
        covered = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (layer, t0, t1, _), cov in zip(self.spans, covered):
            self_s[layer] += (t1 - t0) - cov
            total_s[layer] += t1 - t0
            calls[layer] += 1
        c = self.counts
        solves = calls["flows.linear_solve"]
        return {
            "cli.self_s": self_s["cli"],
            "cli.pool_s": self_s["cli.pool"],
            "potential.tail_mass_s": self_s["potential.tail_mass"],
            "potential.tail_mass_calls": calls["potential.tail_mass"],
            "grid.build_s": self_s["grid.build"],
            "grid.builds": calls["grid.build"],
            "grid.quadrature_s": self_s["grid.quadrature"],
            "grid.quadrature_calls": calls["grid.quadrature"],
            "grid.quadrature_ns_per_node": _per(self_s["grid.quadrature"] * 1e9, c["quadrature_nodes"]),
            "grid.operator_s": self_s["grid.operator"],
            "grid.operator_calls": calls["grid.operator"],
            "spectrum.solve_s": self_s["spectrum"],
            "spectrum.solves": calls["spectrum"],
            "spectrum.iterations": c["spectrum_iterations"],
            "spectrum.ns_per_node": _per(self_s["spectrum"] * 1e9, c["spectrum_nodes"]),
            "flows.self_s": self_s["flows"],
            "flows.steps": c["flow_steps"],
            "flows.us_per_step": _per(total_s["flows"] * 1e6, c["flow_steps"]),
            "flows.linear_solves": solves,
            "flows.linear_solve_s": self_s["flows.linear_solve"],
            "flows.residual_evals_per_solve": _per(c["flows_delta_g"], solves),
            "flows.snapshots": c["flow_snapshots"],
            "flows.clamps": c["flow_clamps"],
            "flows.trace_io_s": self_s["flows.trace_io"],
            "flows.trace_bytes": c["trace_bytes"],
            "functionals.eval_s": self_s["functionals"],
            "functionals.evals": calls["functionals"],
            "criteria.s": self_s["criteria"],
            "criteria.calls": calls["criteria"],
            "verify.envelope_s": self_s["verify.envelope"],
            "verify.dissipation_s": self_s["verify.dissipation"],
            "verify.poincare_s": self_s["verify.poincare"],
            "verify.refined_s": self_s["verify.refined"],
            "verify.poincare_trials": c["poincare_trials"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,layer,start_s,end_s,parent\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (layer, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{layer},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
