"""Tests for the contraction-based Picard solver."""

import math

import numpy as np
import pytest

from hkfrac.analytic import LinearProblemSpec, linear_solution_on_grid
from hkfrac.errors import ConvergenceError, DomainError, ValidationError
from hkfrac.frame import make_graded_grid, make_params
from hkfrac.operators import hk_derivative
from hkfrac.solver import (
    CauchyProblem,
    SolverConfig,
    contraction_factor,
    lipschitz_estimate,
    picard_solve,
)
from hkfrac.specfun import MLQuery, ml2


class TestContractionFactor:
    def test_linear_in_lipschitz_constant(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        w1 = contraction_factor(1.0, p, 1.5)
        assert contraction_factor(0.0, p, 1.5) == 0.0
        assert contraction_factor(2.0, p, 1.5) == pytest.approx(2.0 * w1, rel=1e-14)

    def test_closed_form_value(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        assert contraction_factor(1.0, p, 1.25) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-13
        )

    def test_strictly_increasing_in_x1(self):
        p = make_params(0.4, 0.5, 2.0, 1.0, 2.0)
        xs = np.linspace(1.05, 2.0, 20)
        ws = [contraction_factor(1.0, p, float(x)) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))


class TestLipschitzEstimate:
    def test_linear_rhs_is_exact(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -3.7, None, 1.0)
        assert lipschitz_estimate(prob) == 3.7

    def test_phi_independent_rhs_gives_zero(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem(p, lambda x, phi: np.sin(x) * np.ones_like(phi), 1.0)
        assert lipschitz_estimate(prob) == 0.0

    def test_bounded_slope_rhs(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem(p, lambda x, phi: np.sin(phi), 1.0)
        estimate = lipschitz_estimate(prob)
        assert 0.0 < estimate <= 1.5


class TestPicardSolve:
    def test_zero_rhs_fixed_point_in_one_sweep(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, 0.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=64))
        assert report.iterations == [1]
        assert np.max(np.abs(report.solution.regular_values - 1.0 / math.gamma(p.gamma))) <= 1e-14

    def test_pure_source_is_a_single_fractional_integral(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, 0.0, lambda x: np.ones_like(x), 0.0)
        report = picard_solve(prob, SolverConfig(n=512))
        assert report.solution.values[-1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-8)

    @pytest.mark.parametrize("rho", [2.0, "hadamard"])
    def test_homogeneous_against_closed_form(self, rho):
        p = make_params(0.5, 0.5, rho, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -1.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=1024, tol=1e-9))
        z = report.grid.nodes_z
        exact_reg = np.array([ml2(MLQuery(0.5, p.gamma, -math.sqrt(zz))) for zz in z])
        assert np.max(np.abs(report.solution.regular_values - exact_reg)) <= 5e-4

    def test_inhomogeneous_against_closed_form(self):
        p = make_params(0.6, 0.5, 1.5, 1.0, 2.0)
        source = lambda x: np.sqrt(x)
        prob = CauchyProblem.linear(p, -1.0, source, 1.0)
        report = picard_solve(prob, SolverConfig(n=1024, tol=1e-10))
        exact = linear_solution_on_grid(LinearProblemSpec(p, -1.0, 1.0, source), report.grid)
        gap = np.max(np.abs(report.solution.regular_values - exact.regular_values))
        assert gap <= 1e-6

    def test_report_invariants(self):
        p = make_params(0.4, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -1.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=256, tol=1e-9))
        assert all(w < 1.0 for w in report.contraction_factors)
        assert len(report.breakpoints) == len(report.iterations)
        assert report.breakpoints[-1] == 2.0
        for history in report.residual_history:
            # nonincreasing after the first sweep, up to tiny quadrature noise
            for earlier, later in zip(history[1:], history[2:]):
                assert later <= earlier + 1e-9 / 10.0

    def test_solution_invariant_under_splitting_target(self):
        # the splitting sees theta only through theta / A: with the fixed
        # theta = 0.5, A = 1, 5/3 and 2.5 split as theta = 0.5, 0.3 and 0.2 do
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        rhs = CauchyProblem.linear(p, -1.0, None, 1.0).rhs
        reports = [
            picard_solve(CauchyProblem(p, rhs, 1.0, lipschitz=A), SolverConfig(n=256, tol=1e-10))
            for A in (1.0, 5.0 / 3.0, 2.5)
        ]
        assert len({len(r.iterations) for r in reports}) == 3
        regs = [r.solution.regular_values for r in reports]
        worst = max(np.max(np.abs(a - b)) for a in regs for b in regs)
        assert worst <= 1e-6

    def test_initial_condition_recovery(self):
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -1.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=1024, tol=1e-10))
        got = report.solution.regular_values[0] * math.gamma(p.gamma)
        assert got == pytest.approx(1.0, rel=1e-3)

    def test_derivative_of_solution_reproduces_rhs(self):
        p = make_params(0.6, 0.5, 1.5, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -1.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=1024, tol=1e-10))
        phi = report.solution
        derivative = hk_derivative(phi)
        z = report.grid.nodes_z
        w = 1.0 - p.gamma
        mismatch = np.abs(derivative.values + phi.values) * z**w
        scale = np.max(np.abs(phi.values) * z**w)
        skip = int(0.05 * report.grid.n)
        assert np.max(mismatch[skip:]) / scale <= 1e-2

    def test_nonconvergence_carries_partial_report(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -1.0, None, 1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            picard_solve(prob, SolverConfig(n=128, tol=1e-16, max_iters=2))
        err = excinfo.value
        assert err.report is not None and not err.report.converged
        assert err.history and len(err.history[0]) == 2

    def test_nonfinite_rhs_fails_at_the_first_sweep_naming_x(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        calls = []

        def source(x):
            calls.append(len(x))
            with np.errstate(invalid="ignore"):
                return np.log(x - 1.5)

        prob = CauchyProblem.linear(p, -1.0, source, 1.0)
        with pytest.raises(DomainError, match="not finite") as excinfo:
            picard_solve(prob, SolverConfig(n=512))
        assert len(calls) == 1
        first_x = float(make_graded_grid(p, 512).nodes_x[0])
        assert f"x = {first_x!r}" in str(excinfo.value)

    def test_overflowing_iterates_fail_at_the_first_sweep(self):
        # every rhs value is finite, but the first sweep's integral overflows
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        prob = CauchyProblem(p, lambda x, phi: np.full_like(phi, np.finfo(float).max), 1.0,
                             lipschitz=0.0)
        with pytest.raises(ConvergenceError, match="overflowed") as excinfo, \
                np.errstate(over="ignore", invalid="ignore"):
            picard_solve(prob, SolverConfig(n=64))
        assert excinfo.value.report is None

    def test_recorded_iterates_start_from_the_free_term(self):
        p = make_params(0.4, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, 0.0, lambda x: np.ones_like(x), 1.0)
        report = picard_solve(prob, SolverConfig(n=64, record_iterates=True))
        assert report.iterates is not None
        assert report.first_subinterval_end >= 1

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(n=4)
        with pytest.raises(ValidationError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValidationError, match="grading"):
            SolverConfig(grading=0.5)
        with pytest.raises(ValidationError, match="grading"):
            SolverConfig(grading=math.nan)
        with pytest.raises(ValidationError):
            SolverConfig(max_iters=0)

    def test_power_weighted_rhs_requires_nonnegative_exponent(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            CauchyProblem.power_weighted(p, 1.0, -0.2, 1.0)
