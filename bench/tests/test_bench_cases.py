"""Seeded cases, manufactured problems and metric aggregation."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import cases
import stats
import tracing
import workloads
import hkfrac
from hkfrac import SolverConfig, cli, operators, picard_solve


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_seed_varies_data_not_work(workload):
    a, b = cases.make_cases(workload, 1), cases.make_cases(workload, 2)
    assert a == cases.make_cases(workload, 1)
    assert a != b

    def work(specs):
        return sorted((s.name, s.kind, s.family, s.n, s.lam) for s in specs)

    assert work(a) == work(b)
    assert len({s.name for s in a}) == len(a)
    for spec in a:
        assert len(spec.checked) == cases.CHECKED[workload]
        assert 0 <= min(spec.checked) and max(spec.checked) < spec.n


def test_sine_case_data_is_fixed():
    for seed in (1, 2, 3):
        (sine,) = [s for s in cases.make_cases("solve-stiff", seed) if s.kind == "sine-manufactured"]
        assert (sine.c, sine.q) == (cases.SINE_C, cases.SINE_Q)


@pytest.mark.parametrize("family", cases.MILD_FAMILIES, ids=lambda f: f.name)
def test_manufactured_source_solves_to_its_function(family):
    c, q = 1.3, 1.7
    text = workloads.config_text(family, 256, cases.MILD_LAMBDA, c,
                                 workloads.manufactured_source_expr(family, cases.MILD_LAMBDA, c, q))
    _, problem, config = cli.validate_config(cli.parse_config_text(text))
    report = picard_solve(problem, config)
    z = report.grid.nodes_z
    exact = workloads.manufactured_phi(family, c, q, z)
    assert np.max(np.abs(report.solution.values - exact) / np.abs(exact)) < 1e-4


def test_sine_source_solves_to_its_function():
    spec = [s for s in cases.make_cases("solve-stiff", 1) if s.kind == "sine-manufactured"][0]
    report = picard_solve(workloads.sine_problem(spec, spec.lam), SolverConfig(n=spec.n, tol=1e-10))
    exact = workloads.manufactured_phi(spec.family, spec.c, spec.q, report.grid.nodes_z)
    assert np.max(np.abs(report.solution.values - exact) / np.abs(exact)) < 1e-4


def test_gmean_of_medians():
    samples = {"a": [1.0, 100.0, 4.0], "b": [9.0, 9.0, 1.0], "c": [6.0]}
    assert stats.gmean_of_medians(samples) == pytest.approx(6.0, rel=1e-15)


def test_digits_mean_and_floor():
    errors = {"a": [1e-5, 1e-3], "b": [1e-30], "c": [0.0, 2.0**-60]}
    floor = -math.log10(2.0**-53)
    assert stats.mean_digits(errors) == pytest.approx((3.0 + 2 * floor) / 3.0, rel=1e-15)
    assert stats.digits(1.0) == 0.0


def test_spread():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def test_self_time_and_layer_reduction():
    tr = tracing.Tracer()
    # op 1: cli.main 0..10 with children validate 1..2 and solve 2..8 (rhs 3..4)
    tr.spans = [("cli.main", 0.0, 10.0, -1, 1), ("cli.validate_config", 1.0, 2.0, 0, 1),
                ("solver.picard_solve", 2.0, 8.0, 0, 1), ("solver.rhs", 3.0, 4.0, 2, 1)]
    tr.counts = [("solver.sweeps", 7, 1)]
    row = tr.per_op()[1]
    assert row["self:cli.main"] == pytest.approx(3.0)
    assert row["self:solver.picard_solve"] == pytest.approx(5.0)
    metrics = tr.layer_metrics({1: "case"})
    assert [m for m, _ in tracing.LAYER_METRICS] == list(metrics)
    assert metrics["cli.self_ms"]["value"] == pytest.approx(3000.0)
    assert metrics["solver.rhs_calls"]["value"] == 1
    assert metrics["solver.sweeps"]["value"] == 7
    assert metrics["specfun.ml2_us"]["value"] == 0.0


def test_traced_operation_records_nested_spans(tmp_path: Path):
    spec = [s for s in cases.make_cases("solve-mild", 1) if s.n == 1024][0]
    case = workloads.build_case(spec, tmp_path, n=64)
    tr = tracing.Tracer()
    tr.instrument()
    try:
        tr.op = 1
        case.run()
    finally:
        tr.uninstall()
    names = {s[0] for s in tr.spans}
    assert {"cli.main", "cli.validate_config", "solver.picard_solve", "solver.rhs"} <= names
    # the wrappers are gone again
    assert cli.picard_solve is picard_solve and hkfrac.picard_solve is picard_solve
    assert hkfrac.gfi_left is operators.gfi_left


def test_oracle_round_runs_no_gfi_left_probe():
    spec = cases.make_cases("oracle", 1)[0]
    case = workloads.build_case(dataclasses.replace(spec, checked=(10, 20)), Path(), n=32)
    case.prepare()
    tr = tracing.Tracer()
    tr.instrument()
    try:
        result = workloads.run_rounds([case], 0.0, tr)
    finally:
        tr.uninstall()
    assert result["correct"] and result["failed"] == 0
    names = {s[0] for s in tr.spans}
    assert "analytic.homogeneous_solution" in names and "specfun.ml2" in names
    metrics = tr.layer_metrics(result["case_of_op"])
    assert metrics["operators.gfi_left_cold_ms"]["value"] == 0.0
    assert metrics["operators.build_peak_mb"]["value"] == 0.0
