"""Spans recorded from the benchmark's side of each call into hkfrac.

A traced run swaps module attributes for wrappers: the public entry points
the operations look up (``cli.main``, ``hkfrac.picard_solve``,
``hkfrac.gfi_left`` and the rest), the names the package looks up inside a
call (``cli.validate_config``, ``cli.picard_solve``,
``solver.lipschitz_estimate``, ``analytic.ml2``, ``analytic.ml_ks``) and the
rhs callback each solve receives.  Spans stay in
memory and are written once, when the run ends.  No file of the package is
changed; the wrappers are undone by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import hkfrac
from hkfrac import analytic, cli, operators, solver

import stats

# (metric, unit) in the order they are printed.
LAYER_METRICS = (
    ("operators.gfi_left_cold_ms", "ms"),
    ("operators.gfi_left_warm_ms", "ms"),
    ("operators.build_peak_mb", "MB"),
    ("operators.gfi_right_cold_ms", "ms"),
    ("operators.hk_derivative_ms", "ms"),
    ("solver.picard_solve_ms", "ms"),
    ("solver.subintervals", "count"),
    ("solver.sweeps", "count"),
    ("solver.rhs_calls", "count"),
    ("solver.rhs_ms", "ms"),
    ("solver.lipschitz_ms", "ms"),
    ("cli.solve_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("specfun.ml2_us", "us"),
    ("specfun.ml_ks_us", "us"),
    ("analytic.homogeneous_solution_ms", "ms"),
    ("analytic.power_weighted_solution_ms", "ms"),
)


class Tracer:
    """Records (name, start, end, parent, op) spans and (name, value, op) counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.op))

    def traced_solve(self, solve):
        """A picard_solve wrapper that also traces the rhs and counts the work."""
        traced = self.wrap("solver.picard_solve", solve)

        def run(problem, config=hkfrac.SolverConfig()):
            problem = dataclasses.replace(problem, rhs=self.wrap("solver.rhs", problem.rhs))
            report = traced(problem, config)
            self.count("solver.subintervals", len(report.iterations))
            self.count("solver.sweeps", sum(report.iterations))
            return report

        return run

    def instrument(self) -> None:
        """Point the entry points and the package's inner call sites at traced wrappers."""
        solve = self.traced_solve(hkfrac.picard_solve)
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        self._patch(cli, "validate_config", self.wrap("cli.validate_config", cli.validate_config))
        self._patch(cli, "picard_solve", solve)
        self._patch(hkfrac, "picard_solve", solve)
        self._patch(solver, "lipschitz_estimate",
                    self.wrap("solver.lipschitz_estimate", solver.lipschitz_estimate))
        self._patch(analytic, "ml2", self.wrap("specfun.ml2", analytic.ml2))
        self._patch(analytic, "ml_ks", self.wrap("specfun.ml_ks", analytic.ml_ks))
        for name in ("gfi_left", "gfi_right", "hk_derivative", "reconstruct"):
            self._patch(hkfrac, name, self.wrap(f"operators.{name}", getattr(hkfrac, name)))
        for name in ("homogeneous_solution", "power_weighted_solution"):
            self._patch(hkfrac, name, self.wrap(f"analytic.{name}", getattr(hkfrac, name)))

    def _patch(self, module, name, value) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self) -> None:
        while self._patches:
            module, name, value = self._patches.pop()
            setattr(module, name, value)

    def probe_gfi_left(self, params, n: int, order: float) -> None:
        """Cold and warm gfi_left on a fresh grid: the weight build a solve pays, then a cached apply.

        It calls ``operators.gfi_left``, which no wrapper replaces, so its
        spans are the probe's own.
        """
        grid = hkfrac.make_graded_grid(params, n)
        f = hkfrac.GridFn(grid, 0.0, 1.0 + grid.nodes_z)
        tracemalloc.start()
        try:
            self.wrap("probe.gfi_left_cold", operators.gfi_left)(f, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.count("probe.build_peak_bytes", peak)
        self.wrap("probe.gfi_left_warm", operators.gfi_left)(f, order)

    # ------------------------------------------------------------ reduction

    def per_op(self) -> dict:
        """op -> {"total:<span>": s, "self:<span>": s, "calls:<span>": k, <count>: v}."""
        out: dict = defaultdict(lambda: defaultdict(float))
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            row = out[op]
            row["total:" + name] += end - start
            row["self:" + name] += end - start - child_time[idx]
            row["calls:" + name] += 1
        for name, value, op in self.counts:
            out[op][name] += value
        return out

    def layer_metrics(self, case_of_op: dict) -> dict:
        """Each layer metric: mean, over the cases that reach the layer, of the
        per-case median per operation.

        Layers a workload never reaches read 0.  The per-call figures of
        ml2 and ml_ks are totals over all calls divided by the call count.
        """
        rows = self.per_op()
        ops_of = defaultdict(list)
        for op, case in case_of_op.items():
            ops_of[case].append(op)

        def mean_case(key, scale=1.0):
            reached = {c: [rows[op].get(key, 0.0) * scale for op in ops]
                       for c, ops in ops_of.items() if any(key in rows[op] for op in ops)}
            return stats.mean_of_medians(reached) if reached else 0.0

        def per_call_us(span):
            total = sum(r.get("total:" + span, 0.0) for r in rows.values())
            calls = sum(r.get("calls:" + span, 0.0) for r in rows.values())
            return 1e6 * total / calls if calls else 0.0

        cli_self = mean_case("self:cli.main", 1e3)
        values = {
            "operators.gfi_left_cold_ms": mean_case("total:probe.gfi_left_cold", 1e3),
            "operators.gfi_left_warm_ms": mean_case("total:probe.gfi_left_warm", 1e3),
            "operators.build_peak_mb": mean_case("probe.build_peak_bytes", 2.0**-20),
            "operators.gfi_right_cold_ms": mean_case("total:operators.gfi_right", 1e3),
            "operators.hk_derivative_ms": mean_case("total:operators.hk_derivative", 1e3),
            "solver.picard_solve_ms": mean_case("total:solver.picard_solve", 1e3),
            "solver.subintervals": mean_case("solver.subintervals"),
            "solver.sweeps": mean_case("solver.sweeps"),
            "solver.rhs_calls": mean_case("calls:solver.rhs"),
            "solver.rhs_ms": mean_case("total:solver.rhs", 1e3),
            "solver.lipschitz_ms": mean_case("total:solver.lipschitz_estimate", 1e3),
            "cli.solve_ms": mean_case("total:cli.main", 1e3),
            "cli.self_ms": cli_self,
            "cli.output_bytes": mean_case("cli.output_bytes"),
            "specfun.ml2_us": per_call_us("specfun.ml2"),
            "specfun.ml_ks_us": per_call_us("specfun.ml_ks"),
            "analytic.homogeneous_solution_ms": mean_case("total:analytic.homogeneous_solution", 1e3),
            "analytic.power_weighted_solution_ms": mean_case("total:analytic.power_weighted_solution", 1e3),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    def write(self, path: Path, case_of_op: dict) -> None:
        """All spans and counts as JSON, with the case each operation belongs to."""
        path.write_text(json.dumps({
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "count_fields": ["name", "value", "op"],
            "counts": self.counts,
            "case_of_op": {str(k): v for k, v in case_of_op.items()},
        }, separators=(",", ":")))
