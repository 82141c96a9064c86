"""Tests for the contraction-based Picard solver."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hkfrac import solver, verify
from hkfrac.analytic import LinearProblemSpec, linear_solution
from hkfrac.errors import ConvergenceError, DomainError, ValidationError
from hkfrac.frame import make_graded_grid, make_params, z_of_x
from hkfrac.operators import (
    _BLOCK,
    _band_reach,
    _plain_kernel,
    _weight_matrix,
    hk_derivative,
    power_rule_analytic,
)
from hkfrac.solver import (
    CauchyProblem,
    SolverConfig,
    _predicted_start,
    _snap_breakpoints,
    contraction_factor,
    lipschitz_estimate,
    picard_solve,
)
from hkfrac.specfun import MLQuery, gamma_ratio, log_gamma, ml2


def _cos_x(x, z):
    return np.cos(x)


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


class TestSplitting:
    """Every subinterval ends within the band reach of its start."""

    @pytest.mark.parametrize("params, A, n", [
        (make_params(0.5, 0.5, 2.0, 1.0, 2.0), 1.0, 4096),
        (make_params(0.5, 0.5, 2.0, 1.0, 2.0), 5.0, 512),
        (make_params(0.6, 0.4, 1.0, 1.0, 2.0), 0.0, 1000),
        (make_params(0.1, 0.0, 2.0, 1.0, 2.0), 1e-300, 1000),
    ], ids=["mild", "stiff", "lambda-0", "small-A"])
    def test_every_subinterval_ends_within_its_starts_band_reach(self, params, A, n):
        grid = make_graded_grid(params, n)
        ends, factors = _snap_breakpoints(grid, A)
        starts = [0] + ends[:-1]
        assert ends[-1] == n
        assert all(start < end <= _band_reach(start) for start, end in zip(starts, ends))
        assert all(w < 1.0 for w in factors)
        if A < 1e-6:  # the band reach alone splits
            assert ends == list(range(2 * _BLOCK, n, 2 * _BLOCK)) + [n]
            report = picard_solve(CauchyProblem.linear(params, -A, _cos_x, 1.0), SolverConfig(n=n))
            assert report.converged
            assert np.array_equal(report.breakpoints, grid.nodes_x[np.asarray(ends) - 1])


class TestLipschitzEstimate:
    def test_linear_rhs_is_exact(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -3.7, None, 1.0)
        assert lipschitz_estimate(prob) == 3.7

    def test_a_set_constant_wins_and_every_solve_asks_for_it(self, monkeypatch):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        linear = CauchyProblem.linear(p, -3.7, None, 1.0)
        assert linear.lipschitz == 3.7
        prob = dataclasses.replace(linear, lipschitz=2.5)
        assert lipschitz_estimate(prob) == 2.5
        calls = []

        def counted(problem):
            calls.append(problem)
            return lipschitz_estimate(problem)

        monkeypatch.setattr(solver, "lipschitz_estimate", counted)
        picard_solve(prob, SolverConfig(n=512))
        assert calls == [prob]

    def test_phi_independent_rhs_gives_zero(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem(p, lambda x, phi: np.sin(x) * np.ones_like(phi), 1.0)
        assert lipschitz_estimate(prob) == 0.0

    def test_bounded_slope_rhs(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem(p, lambda x, phi: np.sin(phi), 1.0)
        estimate = lipschitz_estimate(prob)
        assert 0.0 < estimate <= 1.5

    def test_a_non_finite_sample_drops_only_its_own_slope(self):
        # slope 7 below phi = 0 and 2 above; near a (the first sampled x)
        # the rhs is sqrt(phi), not finite below 0.  The pairs below 0 keep
        # their slope 7 at every other x, and no numpy warning escapes.
        def rhs(x, phi):
            return np.where((x < 1.01) & (phi < 0.0), np.sqrt(phi), -np.where(phi < 0.0, 7.0, 2.0) * phi)

        prob = CauchyProblem(make_params(0.5, 0.0, 1.0, 1.0, 2.0), rhs, 1.0)
        assert lipschitz_estimate(prob) == pytest.approx(1.5 * 7.0, rel=1e-14)


class TestPicardSolve:
    def test_zero_rhs_fixed_point_in_one_sweep(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, 0.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=64))
        assert report.iterations == [1]
        assert np.max(np.abs(report.solution.regular_values - 1.0 / math.gamma(p.gamma))) <= 1e-14

    def test_pure_source_is_a_single_fractional_integral(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        prob = CauchyProblem.linear(p, 0.0, lambda x, z: np.ones_like(x), 0.0)
        report = picard_solve(prob, SolverConfig(n=512))
        assert report.solution.values[-1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-8)

    @pytest.mark.parametrize("rho", [2.0, "hadamard"])
    def test_homogeneous_against_closed_form(self, rho):
        p = make_params(0.5, 0.5, rho, 1.0, 2.0)
        prob = CauchyProblem.linear(p, -1.0, None, 1.0)
        report = picard_solve(prob, SolverConfig(n=1024, tol=1e-9))
        z = report.grid.nodes_z
        exact_reg = ml2(MLQuery(0.5, p.gamma, -np.sqrt(z)))
        assert np.max(np.abs(report.solution.regular_values - exact_reg)) <= 5e-4

    def test_inhomogeneous_against_closed_form(self):
        p = make_params(0.6, 0.5, 1.5, 1.0, 2.0)
        source = lambda x, z: np.sqrt(x)
        prob = CauchyProblem.linear(p, -1.0, source, 1.0)
        report = picard_solve(prob, SolverConfig(n=1024, tol=1e-10))
        spec = LinearProblemSpec(p, -1.0, 1.0, source)
        idx = np.arange(127, 1024, 128)
        x, z = report.grid.nodes_x[idx], report.grid.nodes_z[idx]
        exact = np.array([linear_solution(spec, xi) for xi in x]) * z ** (1.0 - p.gamma)
        gap = np.max(np.abs(report.solution.regular_values[idx] - exact))
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

        def rhs(x, phi):
            calls.append(len(x))
            with np.errstate(invalid="ignore"):
                return -phi + np.log(x - 1.5)

        prob = CauchyProblem(p, rhs, 1.0, lipschitz=1.0)
        with pytest.raises(DomainError, match="rhs is not finite") as excinfo:
            picard_solve(prob, SolverConfig(n=512))
        assert len(calls) == 1
        first_x = float(make_graded_grid(p, 512).nodes_x[0])
        assert f"x = {first_x!r} (subinterval 1, sweep 1)" in str(excinfo.value)

    def test_the_source_is_called_once_per_solve_on_the_grids_x_and_z(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        seen = []

        def source(x, z):
            seen.append((x, z))
            return np.cos(x)

        report = picard_solve(CauchyProblem.linear(p, -5.0, source, 1.0), SolverConfig(n=512))
        assert len(report.iterations) > 100
        [(x, z)] = seen
        assert np.array_equal(x, report.grid.nodes_x) and np.array_equal(z, report.grid.nodes_z)

    def test_constructors_keep_the_phi_term_in_rhs_and_pass_the_source(self):
        p = make_params(0.5, 0.0, 2.0, 1.0, 2.0)
        x, phi = np.array([1.2, 1.7]), np.array([1.0, 3.0])
        linear = CauchyProblem.linear(p, -2.0, _cos_x, 1.0)
        weighted = CauchyProblem.power_weighted(p, -2.0, 0.5, 1.0, _cos_x)
        assert linear.source is _cos_x and weighted.source is _cos_x
        assert np.array_equal(linear.rhs(x, phi), -2.0 * phi)
        assert np.array_equal(weighted.rhs(x, phi), -2.0 * z_of_x(p, x) ** 0.5 * phi)

    def test_a_bare_ufunc_source_fails_loudly_and_leaves_the_grid(self, monkeypatch):
        # np.cos(x, z) would write cos(x) into z as its out= array
        grids = []

        def recorded(*args):
            grids.append(make_graded_grid(*args))
            return grids[-1]

        monkeypatch.setattr(solver, "make_graded_grid", recorded)
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            picard_solve(CauchyProblem.linear(p, -1.0, np.cos, 1.0), SolverConfig(n=64))
        [grid] = grids
        assert np.array_equal(grid.nodes_z, make_graded_grid(p, 64).nodes_z)

    def test_an_rhs_exception_keeps_its_type(self):
        # ml2 refuses arguments beyond |x| <= 50, met here past x = 1 + 50/60
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)

        def rhs(x, phi):
            return -phi + ml2(MLQuery(2.0, 1.0, -60.0 * (x - 1.0)))

        with pytest.raises(DomainError, match=r"outside \|x\| <= 50"):
            picard_solve(CauchyProblem(p, rhs, 1.0, lipschitz=1.0), SolverConfig(n=256))

    def test_overflowing_iterates_fail_at_the_first_sweep(self):
        # every rhs value is finite, but the first sweep's integral overflows
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        prob = CauchyProblem(p, lambda x, phi: np.full_like(phi, np.finfo(float).max), 1.0,
                             lipschitz=0.0)
        with pytest.raises(ConvergenceError, match="overflowed") as excinfo, \
                np.errstate(over="ignore", invalid="ignore"):
            picard_solve(prob, SolverConfig(n=64))
        assert excinfo.value.report is None

    def test_diverging_iterates_end_in_convergence_error_with_report(self):
        # f = -phi^3: the first sweeps are finite, then the iterates blow up
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="overflowed") as excinfo:
                picard_solve(CauchyProblem(p, lambda x, phi: -phi**3, 1.0), SolverConfig(n=4096))
        report = excinfo.value.report
        assert report is not None and not report.converged
        assert report.iterations == [len(report.residual_history[0])]
        assert report.iterations[0] >= 1
        assert np.all(np.isfinite(report.solution.regular_values))

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

    @pytest.mark.parametrize("build, field", [
        (lambda p: SolverConfig(n=math.inf), "n"),
        (lambda p: SolverConfig(n=100.5), "n"),
        (lambda p: SolverConfig(n=math.nan), "n"),
        (lambda p: SolverConfig(max_iters=math.inf), "max_iters"),
        (lambda p: SolverConfig(max_iters=2.5), "max_iters"),
        (lambda p: SolverConfig(tol=math.inf), "tol"),
        (lambda p: SolverConfig(tol=math.nan), "tol"),
        (lambda p: SolverConfig(grading=math.inf), "grading"),
        (lambda p: CauchyProblem.linear(p, -1.0, None, math.nan), "c"),
        (lambda p: CauchyProblem.linear(p, -1.0, None, math.inf), "c"),
        (lambda p: CauchyProblem(p, lambda x, phi: phi, 1.0, lipschitz=math.inf), "lipschitz"),
        (lambda p: CauchyProblem(p, lambda x, phi: phi, 1.0, lipschitz=math.nan), "lipschitz"),
        (lambda p: CauchyProblem.linear(p, math.nan, None, 1.0), "lipschitz"),
    ])
    def test_bad_settings_are_refused_at_construction(self, build, field):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        with pytest.raises(ValidationError, match=rf"^{field} must"):
            build(p)

    @pytest.mark.parametrize("call, arg", [
        (lambda p: contraction_factor(math.nan, p, 1.5), "A"),
        (lambda p: power_rule_analytic(1.0, math.nan, p, 1.5), "order"),
        (lambda p: CauchyProblem.power_weighted(p, -1.0, math.nan, 1.0), "xi"),
        (lambda p: make_graded_grid(p, math.nan), "n"),
        (lambda p: make_graded_grid(p, 2.5), "n"),
    ])
    def test_nan_arguments_are_refused_by_name(self, call, arg):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError, match=rf"\b{arg} (must|>=)"):
            call(p)

    def test_power_weighted_rhs_requires_nonnegative_exponent(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            CauchyProblem.power_weighted(p, 1.0, -0.2, 1.0)


def _whole_history_solve(problem, n, tol, max_iters=200):
    """The sweep loop before the history split, as a reference.

    Every sweep evaluates the rhs on all of x[:end], takes the core from the
    first node's f, and multiplies the whole W[start:end, :end + 1].  Each
    later subinterval starts from the solver's own predicted iterate.
    """
    params = problem.params
    grid = make_graded_grid(params, n)
    z, x = grid.nodes_z, grid.nodes_x
    g, alpha = params.gamma, params.alpha
    A = problem.lipschitz if problem.lipschitz is not None else lipschitz_estimate(problem)
    ends, _ = _snap_breakpoints(grid, A)
    W = _weight_matrix(grid, _plain_kernel(alpha), left_sided=True)
    core_shape = gamma_ratio(g, g + alpha) * z ** (g - 1.0 + alpha)
    up, dn = z ** (1.0 - g), z ** (g - 1.0)
    phi0 = problem.c * math.exp(-log_gamma(g))
    reg = np.full(n, phi0)
    iterations = []
    start = 0
    for end in ends:
        if start > 0:
            reg[start:end] = _predicted_start(z, reg, start, end)
        for k in range(1, max_iters + 1):
            f_vals = np.asarray(problem.rhs(x[:end], dn[:end] * reg[:end]), dtype=float)
            if problem.source is not None:
                f_vals = f_vals + problem.source(x[:end], z[:end])
            fr1 = up[0] * f_vals[0]
            v = np.concatenate(([0.0], f_vals - fr1 * dn[:end]))
            integral = fr1 * core_shape[start:end] + W[start:end, :end + 1] @ v
            new_reg = phi0 + up[start:end] * integral
            residual = float(np.max(np.abs(new_reg - reg[start:end])))
            reg[start:end] = new_reg
            if residual <= tol:
                break
        iterations.append(k)
        start = end
    return iterations, reg


def _sine_problem():
    return CauchyProblem(make_params(0.5, 0.5, 2.0, 1.0, 2.0),
                         lambda x, phi: -3.0 * np.sin(phi), 1.0)


class TestFrozenHistory:
    """Each sweep works on its own subinterval; the history is computed once."""

    def test_rhs_sees_only_the_active_nodes(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        seen = []

        def rhs(x, phi):
            seen.append(np.array(x))
            return -3.0 * np.sin(phi)

        report = picard_solve(CauchyProblem(p, rhs, 1.0, lipschitz=4.5), SolverConfig(n=256))
        x = report.grid.nodes_x
        ends = np.searchsorted(x, report.breakpoints, side="right")
        assert len(ends) > 10 and ends[-1] == x.size
        expected = []
        for start, end, sweeps in zip(np.concatenate(([0], ends[:-1])), ends, report.iterations):
            # every sweep, then one evaluation at the converged iterate to freeze f
            calls = sweeps + (1 if end < x.size else 0)
            expected += [x[start:end]] * calls
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("problem", [
        CauchyProblem.linear(make_params(0.5, 0.5, 2.0, 1.0, 2.0), -5.0, None, 1.0),
        CauchyProblem.linear(make_params(0.5, 0.5, "hadamard", 1.0, 2.0), -8.0, None, 1.0),
        CauchyProblem.linear(make_params(0.7, 1.0, 1.0, 1.0, 2.0), -15.0, None, 1.0),
        _sine_problem(),
    ], ids=["hk-lambda-5", "hadamard-lambda-8", "caputo-lambda-15", "minus-3-sin-phi"])
    def test_matches_the_whole_history_sweep(self, problem):
        n, tol = 512, 1e-10
        report = picard_solve(problem, SolverConfig(n=n, tol=tol))
        iterations, reg = _whole_history_solve(problem, n, tol)
        assert len(iterations) > 100
        assert report.iterations == iterations
        got = report.solution.regular_values
        assert np.max(np.abs(got - reg)) <= 1e-13 * np.max(np.abs(reg))

    @pytest.mark.parametrize("params", [
        make_params(0.5, 0.5, 2.0, 1.0, 2.0),
        make_params(0.6, 0.4, 1.0, 1.0, 2.0),
    ], ids=["hilfer-katugampola", "hilfer"])
    def test_compressed_kernel_solve_matches_the_dense_sweep(self, params):
        # at n = 2048 the left kernel's far field is a sum of exponentials;
        # the reference multiplies the dense weight matrix
        n, tol = 2048, 1e-10
        problem = CauchyProblem.linear(params, -1.0, _cos_x, 1.0)
        report = picard_solve(problem, SolverConfig(n=n, tol=tol))
        iterations, reg = _whole_history_solve(problem, n, tol)
        grid = report.grid
        ends, _ = _snap_breakpoints(grid, lipschitz_estimate(problem))
        assert np.array_equal(report.breakpoints, grid.nodes_x[np.asarray(ends) - 1])
        assert report.iterations == iterations
        got = report.solution.regular_values
        assert np.max(np.abs(got - reg)) <= 1e-12 * np.max(np.abs(reg))

    def test_the_singular_core_is_integrated_once_per_solve(self, monkeypatch):
        from hkfrac import operators

        core = operators._core_convolution
        calls = []

        def counted(terms, sigma, z):
            calls.append(z.size)
            return core(terms, sigma, z)

        monkeypatch.setattr(operators, "_core_convolution", counted)
        monkeypatch.setattr(solver, "_core_convolution", counted, raising=False)
        problem = CauchyProblem.linear(make_params(0.5, 0.5, 2.0, 1.0, 2.0), -5.0, None, 1.0)
        report = picard_solve(problem, SolverConfig(n=512, tol=1e-10))
        assert len(report.iterations) > 100
        assert calls == [512]  # over all nodes, not once per subinterval or sweep

    def test_nonfinite_rhs_in_a_later_subinterval_names_x_and_subinterval(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)

        def rhs(x, phi):
            return -5.0 * phi + np.where(x > 1.7, np.nan, np.cos(x))

        clean = picard_solve(CauchyProblem.linear(p, -5.0, _cos_x, 1.0), SolverConfig(n=512))
        x = clean.grid.nodes_x
        x_bad = float(x[x > 1.7][0])
        subinterval = int(np.argmax(clean.breakpoints >= x_bad)) + 1
        assert subinterval > 1
        with pytest.raises(DomainError, match="rhs is not finite") as excinfo:
            picard_solve(CauchyProblem(p, rhs, 1.0, lipschitz=5.0), SolverConfig(n=512))
        assert f"x = {x_bad!r} (subinterval {subinterval}, sweep 1)" in str(excinfo.value)

    def test_nonfinite_source_is_refused_before_the_first_sweep(self):
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        sweeps = []

        def rhs(x, phi):
            sweeps.append(len(x))
            return -5.0 * phi

        def source(x, z):
            return np.where(x > 1.7, np.nan, np.cos(x))

        x = make_graded_grid(p, 512).nodes_x
        x_bad = float(x[x > 1.7][0])
        with pytest.raises(DomainError) as excinfo:
            picard_solve(CauchyProblem(p, rhs, 1.0, lipschitz=5.0, source=source), SolverConfig(n=512))
        assert str(excinfo.value) == f"source is not finite at x = {x_bad!r} (before the first sweep)"
        assert sweeps == []

    @pytest.mark.parametrize("name, n", [("hk-lambda-5", 512), ("mild-cos", 2048)])
    def test_every_band_call_of_a_solve_equals_the_dense_oracle(self, name, n, monkeypatch):
        # each sweep's band part plus the history's far rows, against the dense weights
        from hkfrac import operators

        problem = _MILD_COS if name == "mild-cos" else _STIFF[name]
        grid = make_graded_grid(problem.params, n)
        W = _weight_matrix(grid, _plain_kernel(problem.params.alpha), left_sided=True)
        cursors, calls = [], []

        class Recorded(operators._History):
            def __init__(self, table):
                super().__init__(table)
                cursors.append(self)

        near = operators._CompressedLeft.near

        def checked_near(self, r0, r1, values):
            got = near(self, r0, r1, values)
            [cursor] = cursors
            assert values.size == r1 + 1
            want = W[r0:r1, :r1 + 1] @ values
            assert np.max(np.abs(got + cursor.far[r0:r1] - want)) <= 1e-13 * np.max(np.abs(want))
            calls.append(r0)
            return got

        monkeypatch.setattr(solver, "_History", Recorded)
        monkeypatch.setattr(operators._CompressedLeft, "near", checked_near)
        report = picard_solve(problem, SolverConfig(n=n, tol=1e-10))
        ends = np.searchsorted(report.grid.nodes_x, report.breakpoints, side="right")
        # one band call per sweep and none per subinterval
        assert len(calls) == sum(report.iterations)
        starts = np.concatenate(([0], ends[:-1]))
        assert calls == np.repeat(starts, report.iterations).tolist()
        assert ends[-2] > 3 * _BLOCK  # the far field is in play

    @pytest.mark.parametrize("name, n", [("hk-lambda-5", 512), ("mild-cos", 2048)])
    def test_a_solve_folds_each_far_block_once(self, name, n, monkeypatch):
        from hkfrac import operators

        fold = operators._History._fold
        folded = []

        def counted(self, b, v):
            folded.append(b)
            fold(self, b, v)

        monkeypatch.setattr(operators._History, "_fold", counted)
        problem = _MILD_COS if name == "mild-cos" else _STIFF[name]
        report = picard_solve(problem, SolverConfig(n=n, tol=1e-10))
        [table] = report.grid._cache.values()
        assert len(table.decay) == -(-n // _BLOCK) - 2
        assert folded == list(range(len(table.decay)))


def _phi0_start(z, reg, start, end):
    # reg[start:end] still holds phi_0 when the start is taken: the start
    # every subinterval had before the prediction
    return reg[start:end].copy()


def _manufactured_sine_problem():
    """f = -3 (sin phi - sin phi*) + s(x), solved by phi* = z^(gamma-1)/Gamma(gamma) + z^1.5."""
    p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
    k = math.gamma(2.5) / math.gamma(2.0)

    def rhs(x, phi):
        z = z_of_x(p, np.asarray(x, dtype=float))
        exact = z ** (p.gamma - 1.0) / math.gamma(p.gamma) + z**1.5
        return -3.0 * (np.sin(phi) - np.sin(exact)) + k * z

    return CauchyProblem(p, rhs, 1.0)


def _sqrt_problem():
    # f = -3 sqrt(phi) is not finite below 0, where a sweep from phi_0 lands
    return CauchyProblem(make_params(0.5, 1.0, 2.0, 1.0, 2.0), lambda x, phi: -3.0 * np.sqrt(phi), 1.0)


_STIFF = {
    "hk-lambda-5": CauchyProblem.linear(make_params(0.5, 0.5, 2.0, 1.0, 2.0), -5.0, None, 1.0),
    "hadamard-lambda-8": CauchyProblem.linear(make_params(0.5, 0.5, "hadamard", 1.0, 2.0), -8.0, None, 1.0),
    "caputo-lambda-15": CauchyProblem.linear(make_params(0.7, 1.0, 1.0, 1.0, 2.0), -15.0, None, 1.0),
    "manufactured-sine": _manufactured_sine_problem(),
}
_MILD_COS = CauchyProblem.linear(make_params(0.5, 0.5, 2.0, 1.0, 2.0), -1.0, _cos_x, 1.0)


class TestPredictedStart:
    """Later subintervals start from the extrapolated frozen solution."""

    def test_extrapolation_is_exact_on_polynomials_of_its_degree(self):
        z = np.linspace(0.1, 1.0, 10)
        for start, poly in ((1, lambda t: 2.0 + 0 * t), (2, lambda t: 1.0 - 3.0 * t),
                            (3, lambda t: 1.0 - 3.0 * t + 5.0 * t**2),
                            (7, lambda t: 1.0 - 3.0 * t + 5.0 * t**2)):
            reg = poly(z)
            got = _predicted_start(z, reg, start, 10)
            assert np.allclose(got, poly(z[start:]), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name, phi0_sweeps", [
        ("hk-lambda-5", 4789), ("hadamard-lambda-8", 5314),
        ("caputo-lambda-15", 3217), ("manufactured-sine", 1883),
    ])
    def test_stiff_sweeps_halve_and_the_certificate_holds(self, name, phi0_sweeps):
        report = picard_solve(_STIFF[name], SolverConfig(n=512, tol=1e-10))
        assert len(report.iterations) >= 200
        assert sum(report.iterations) <= phi0_sweeps / 2
        assert verify._geometric_certificate(report) <= 1.0

    @pytest.mark.parametrize("name", ["hk-lambda-5", "manufactured-sine"])
    def test_first_subinterval_is_the_phi0_start_bit_for_bit(self, name, monkeypatch):
        config = SolverConfig(n=512, tol=1e-10)
        predicted = picard_solve(_STIFF[name], config)
        monkeypatch.setattr(solver, "_predicted_start", _phi0_start)
        plain = picard_solve(_STIFF[name], config)
        m = int(np.searchsorted(plain.grid.nodes_x, plain.breakpoints[0], side="right"))
        assert predicted.residual_history[0] == plain.residual_history[0]
        assert np.array_equal(predicted.solution.regular_values[:m], plain.solution.regular_values[:m])
        assert sum(predicted.iterations) < sum(plain.iterations)
        gap = np.max(np.abs(predicted.solution.regular_values - plain.solution.regular_values))
        assert gap <= 1e-8 * np.max(np.abs(plain.solution.regular_values))

    @pytest.mark.parametrize("n, value", [(512, 0.0257210682), (2048, 0.0257212893)])
    def test_sqrt_rhs_solves(self, n, value, monkeypatch):
        # tol 1e-10, two decades below the pinned digits: at the default 1e-8
        # a rounding-level change of the weights moves the stopping sweep, and
        # phi(2) by a few 1e-9
        config = SolverConfig(n=n, tol=1e-10)
        report = picard_solve(_sqrt_problem(), config)
        assert report.converged
        assert report.solution.values[-1] == pytest.approx(value, abs=1e-9)
        assert np.all(report.solution.values > 0.0)
        # from phi_0 the second sweep of a late subinterval leaves the domain
        monkeypatch.setattr(solver, "_predicted_start", _phi0_start)
        with pytest.raises(ConvergenceError, match=r"overflowed on subinterval \d+ \(sweep 2\)"):
            picard_solve(_sqrt_problem(), config)

    def test_prediction_outside_the_rhs_domain_reruns_from_phi0(self, monkeypatch):
        problem = _sqrt_problem()
        A = lipschitz_estimate(problem)  # the sampling box reaches phi < 0
        problem = CauchyProblem(problem.params, problem.rhs, 1.0, lipschitz=A)
        config = SolverConfig(n=512)
        clean = picard_solve(problem, config)
        calls = []

        def rhs(x, phi):
            calls.append(len(x))
            return problem.rhs(x, phi)

        def predict(z, reg, start, end):
            # subinterval 5's prediction dips below 0, where sqrt is not finite
            out = _predicted_start(z, reg, start, end)
            if start == ends[3]:
                out[0] = -1.0
            return out

        ends = np.searchsorted(clean.grid.nodes_x, clean.breakpoints, side="right")
        monkeypatch.setattr(solver, "_predicted_start", predict)
        report = picard_solve(CauchyProblem(problem.params, rhs, 1.0, lipschitz=problem.lipschitz), config)
        assert report.converged
        # every sweep, a freeze per subinterval but the last, and one rerun sweep
        assert len(calls) == sum(report.iterations) + len(report.iterations) - 1 + 1
        assert report.iterations[:4] == clean.iterations[:4]
        assert report.iterations[4] > clean.iterations[4]
        gap = np.max(np.abs(report.solution.values - clean.solution.values))
        assert gap <= 1e-7

    def test_a_failed_rerun_raises_the_phi0_error(self, monkeypatch):
        config = SolverConfig(n=512)
        monkeypatch.setattr(solver, "_predicted_start", _phi0_start)
        with pytest.raises(ConvergenceError) as plain:
            picard_solve(_sqrt_problem(), config)
        # every prediction leaves the domain, so every subinterval reruns from phi_0
        monkeypatch.setattr(solver, "_predicted_start",
                            lambda z, reg, start, end: np.full(end - start, -1.0))
        with pytest.raises(ConvergenceError) as rerun:
            picard_solve(_sqrt_problem(), config)
        assert str(rerun.value) == str(plain.value)
        assert "subinterval 143 (sweep 2)" in str(rerun.value)
        assert rerun.value.history == plain.value.history
        assert rerun.value.report.iterations == plain.value.report.iterations
        assert np.array_equal(rerun.value.report.solution.regular_values,
                              plain.value.report.solution.regular_values)
