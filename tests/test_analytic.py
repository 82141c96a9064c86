"""Tests for the closed-form solutions."""

import json
import math
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from hkfrac.analytic import (
    LinearProblemSpec,
    _ml_kernel_terms,
    PowerWeightedSpec,
    homogeneous_solution,
    linear_solution,
    power_weighted_solution,
)
from hkfrac.errors import ValidationError
from hkfrac.frame import GridFn, make_graded_grid, make_params, z_of_x
from hkfrac.operators import _kernel_apply_left, gfi_left
from hkfrac.specfun import KSQuery, log_gamma, ml_ks


def ks_coefficients(alpha, xi, n):
    """c_0..c_n with c_j = prod_{r=1..j} Gamma(r(alpha+xi)) / Gamma(r(alpha+xi) + alpha)."""
    cj = [1.0]
    for r in range(1, n + 1):
        a = r * (alpha + xi)
        cj.append(cj[-1] * math.exp(math.lgamma(a) - math.lgamma(a + alpha)))
    return cj


def golden():
    return json.loads(resources.files("hkfrac").joinpath("golden/golden.json").read_text())


class TestHomogeneousSolution:
    def test_lambda_zero_is_the_free_term(self):
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        spec = LinearProblemSpec(p, 0.0, 2.0)
        x = 1.7
        z = z_of_x(p, x)
        expected = 2.0 * z ** (p.gamma - 1.0) / math.gamma(p.gamma)
        assert homogeneous_solution(spec, x) == pytest.approx(expected, rel=1e-13)

    def test_golden_mittag_leffler_point(self):
        # alpha=1/2, beta=1 (gamma=1), rho=1, a=0, lambda=1, c=1, x=1
        entry = next(e for e in golden()["ml2"] if e["alpha"] == 0.5 and e["beta"] == 1.0)
        p = make_params(0.5, 1.0, 1.0, 0.0, 2.0)
        spec = LinearProblemSpec(p, 1.0, 1.0)
        assert homogeneous_solution(spec, 1.0) == pytest.approx(
            float(entry["value"]), rel=entry["tol"]
        )

    def test_initial_condition_limit(self):
        p = make_params(0.6, 0.3, 2.0, 1.0, 2.0)
        spec = LinearProblemSpec(p, -1.0, 3.0)
        for x, tol in ((1.0001, 1e-2), (1.000001, 1e-3)):
            z = z_of_x(p, x)
            val = homogeneous_solution(spec, x)
            assert z ** (1.0 - p.gamma) * val * math.gamma(p.gamma) == pytest.approx(3.0, rel=tol)

    def test_requires_zero_source(self):
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            homogeneous_solution(LinearProblemSpec(p, 0.0, 1.0, source=lambda x, z: x), 1.5)

    def test_domain_validation(self):
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            homogeneous_solution(LinearProblemSpec(p, 0.0, 1.0), 1.0)

    def test_refusal_names_the_first_offending_x(self):
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        spec = LinearProblemSpec(p, -1.0, 1.0)
        xs = np.concatenate((np.linspace(1.1, 2.0, 50), [0.75, 2.5]))
        with pytest.raises(ValidationError, match=r"a < x <= b \(got x = 0\.75\)$"):
            homogeneous_solution(spec, xs)
        with pytest.raises(ValidationError, match=r"got x = nan"):
            homogeneous_solution(spec, math.nan)

    def test_gamma_one_takes_the_finite_limit_at_a(self):
        # alpha = 0.3: three nodes of the solver's own 1024-node grid round to a
        p = make_params(0.3, 1.0, 2.0, 1.0, 2.0)
        grid = make_graded_grid(p, 1024)
        at_a = grid.nodes_x == p.a
        assert at_a.sum() == 3
        spec = LinearProblemSpec(p, -1.0, 3.0)
        values = homogeneous_solution(spec, grid.nodes_x)
        assert np.all(np.isfinite(values))
        # c E_{alpha,1}(0) = c exactly: ln Gamma(1) is exactly 0
        assert values[at_a].tolist() == [3.0] * 3
        assert homogeneous_solution(spec, 1.0) == values[0]
        assert values[3] == pytest.approx(3.0, rel=1e-3)  # the next node continues the limit
        assert linear_solution(replace(spec, source=lambda x, z: np.cos(x)), 1.0) == values[0]

    def test_gamma_below_one_still_refuses_x_equal_a(self):
        p = make_params(0.3, 0.5, 2.0, 1.0, 2.0)
        grid = make_graded_grid(p, 1024)
        assert np.sum(grid.nodes_x == p.a) == 3
        with pytest.raises(ValidationError, match=r"a < x <= b \(got x = 1\.0\)$"):
            homogeneous_solution(LinearProblemSpec(p, -1.0, 3.0), grid.nodes_x)
        with pytest.raises(ValidationError, match=r"got x = 1\.0\)$"):
            power_weighted_solution(PowerWeightedSpec(make_params(0.3, 0.0, 2.0, 1.0, 2.0),
                                                      -1.0, 0.5, 1.0), grid.nodes_x)

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_grid_is_evaluated_at_its_own_z(self, beta):
        # alpha = 0.3, gamma < 1: leading nodes_x round to a, but every nodes_z is > 0
        p = make_params(0.3, beta, 2.0, 1.0, 2.0)
        grid = make_graded_grid(p, 4096)
        if beta:
            spec, solution = LinearProblemSpec(p, -1.0, 3.0), homogeneous_solution
        else:
            spec, solution = PowerWeightedSpec(p, -1.0, 0.5, 1.0), power_weighted_solution
        values = solution(spec, grid)
        assert values.shape == (grid.n,) and np.all(np.isfinite(values))
        above = grid.nodes_x > p.a
        assert np.sum(~above) > 0
        from_x = solution(spec, grid.nodes_x[above])
        # z rebuilt from x is far off near a; where it reproduces nodes_z, the paths agree
        z_gap = np.abs(z_of_x(p, grid.nodes_x[above]) / grid.nodes_z[above] - 1.0)
        assert z_gap.max() > 0.1
        same_z = z_gap <= 1e-15
        assert same_z.sum() > grid.n // 4
        assert np.max(np.abs(values[above][same_z] / from_x[same_z] - 1.0)) <= 1e-14

    def test_grid_of_other_parameters_is_refused(self):
        grid = make_graded_grid(make_params(0.5, 0.5, 2.0, 1.0, 2.0), 64)
        spec = LinearProblemSpec(make_params(0.5, 0.5, 1.0, 1.0, 2.0), -1.0, 1.0)
        with pytest.raises(ValidationError, match="grid parameters"):
            homogeneous_solution(spec, grid)


class TestLinearSolution:
    def test_no_source_equals_homogeneous(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        spec = LinearProblemSpec(p, -1.0, 1.0)
        assert linear_solution(spec, 1.5) == homogeneous_solution(spec, 1.5)

    def test_lambda_zero_reduces_to_fractional_integral_of_source(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        spec = LinearProblemSpec(p, 0.0, 0.5, source=lambda x, z: np.cos(x))
        grid = make_graded_grid(p, 1024)
        j = gfi_left(GridFn.from_x_function(grid, lambda x: np.cos(x)), 0.5)
        i = 700
        x = float(grid.nodes_x[i])
        z = grid.nodes_z[i]
        expected = 0.5 * z ** (p.gamma - 1.0) / math.gamma(p.gamma) + j.values[i]
        assert linear_solution(spec, x) == pytest.approx(expected, abs=1e-6)

    def test_golden_value(self):
        entry = golden()["linear_solution"][0]
        p = make_params(entry["alpha"], entry["beta"], entry["rho"], entry["a"], entry["b"])
        spec = LinearProblemSpec(
            p, entry["lambda"], entry["c"],
            source=lambda x, z: np.ones_like(x),
        )
        assert linear_solution(spec, entry["x"]) == pytest.approx(
            float(entry["value"]), abs=entry["tol"]
        )

    def test_last_row_matches_the_full_apply(self):
        # linear_solution builds the weights of its target row only
        p = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        spec = LinearProblemSpec(p, -1.0, 1.0, source=lambda x, z: np.sin(x))
        tracemalloc.start()
        try:
            got = linear_solution(spec, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the full 48-term matrix is 34 MB
        grid = make_graded_grid(p, 2048)  # the mesh of [a, x] for x = b
        f = GridFn.from_x_function(grid, np.sin)
        terms = _ml_kernel_terms(0.5, -1.0, grid.nodes_z[-1])
        row = _kernel_apply_left(f, terms, r0=grid.n - 1)
        full = _kernel_apply_left(f, terms)
        assert row.shape == (1,)
        assert row[0] == pytest.approx(full[-1], rel=1e-14, abs=0.0)
        assert got == homogeneous_solution(replace(spec, source=None), 2.0) + row[0]

    def test_source_is_taken_at_the_sub_grids_x_and_exact_z(self):
        # alpha = 0.3: leading nodes of the [a, x] mesh have x = a, so z(x) = 0 there
        p = make_params(0.3, 0.0, 2.0, 1.0, 2.0)
        seen = []

        def source(x, z):
            seen.append((x, z))
            return z ** -0.5

        got = linear_solution(LinearProblemSpec(p, -1.0, 1.0, source=source), 1.8)
        grid = make_graded_grid(make_params(0.3, 0.0, 2.0, 1.0, 1.8), 2048)
        [(x, z)] = seen
        assert np.array_equal(x, grid.nodes_x) and np.array_equal(z, grid.nodes_z)
        assert np.any(x == p.a) and math.isfinite(got)


class TestKernelTerms:
    @pytest.mark.parametrize("alpha,lam,z_top", [(0.5, -1.0, 1.5), (0.3, 4.0, 2.0), (0.9, -20.0, 0.7)])
    def test_match_the_per_term_scalar_loop(self, alpha, lam, z_top):
        from hkfrac.analytic import _ml_kernel_terms

        ref = []
        first_scale = None
        for k in range(300):
            e = alpha * (k + 1.0)
            coef = lam**k * math.exp(-log_gamma(e))
            scale = abs(coef) * z_top**e
            ref.append((coef, e))
            if first_scale is None:
                first_scale = max(scale, 1e-300)
            if k >= 2 and scale <= 1e-18 * first_scale:
                break
        assert _ml_kernel_terms(alpha, lam, z_top) == tuple(ref)


class TestPowerWeightedSolution:
    def test_lambda_zero_is_the_free_term(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        spec = PowerWeightedSpec(p, 0.0, 0.5, 1.3)
        x = 1.6
        z = z_of_x(p, x)
        assert power_weighted_solution(spec, x) == pytest.approx(
            1.3 / math.gamma(0.5) * z**-0.5, rel=1e-13
        )

    def test_xi_zero_reduces_to_homogeneous(self):
        worst = 0.0
        for alpha in (0.35, 0.5, 0.65, 0.8):
            for lam in (-1.0, 0.7):
                p = make_params(alpha, 0.0, 1.5, 1.0, 2.0)
                pw = PowerWeightedSpec(p, lam, 0.0, 1.0)
                hom = LinearProblemSpec(p, lam, 1.0)
                for x in np.linspace(1.2, 2.0, 3):
                    v1 = power_weighted_solution(pw, float(x))
                    v2 = homogeneous_solution(hom, float(x))
                    worst = max(worst, abs(v1 - v2) / abs(v2))
        assert worst <= 1e-8

    def test_series_matches_coefficients(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        spec = PowerWeightedSpec(p, -0.8, 0.5, 1.3)
        x = 1.9
        z = z_of_x(p, x)
        cj = ks_coefficients(0.5, 0.5, 60)
        w = -0.8 * z ** (0.5 + 0.5)
        series = 1.3 / math.gamma(0.5) * z**-0.5 * sum(c * w**j for j, c in enumerate(cj))
        assert power_weighted_solution(spec, x) == pytest.approx(series, rel=1e-12)

    def test_requires_beta_zero(self):
        p = make_params(0.5, 0.5, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            PowerWeightedSpec(p, 1.0, 0.5, 1.0)

    def test_requires_xi_above_minus_alpha(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            PowerWeightedSpec(p, 1.0, -0.5, 1.0)


@pytest.mark.parametrize("field", ["lam", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda p, lam, c: LinearProblemSpec(p, lam, c),
    lambda p, lam, c: PowerWeightedSpec(p, lam, 0.5, c),
], ids=["linear", "power-weighted"])
def test_specs_refuse_nonfinite_numbers_by_name(make, field, value):
    p = make_params(0.5, 0.0, 2.0, 1.0, 2.0)
    args = {"lam": -1.0, "c": 1.0, field: value}
    with pytest.raises(ValidationError, match=rf"^{field} must be finite"):
        make(p, **args)


class TestCoefficients:
    def test_consistent_with_kilbas_saigo_series(self):
        alpha, xi, x = 0.5, 0.5, 0.2
        cj = ks_coefficients(alpha, xi, 40)
        partial = float(sum(c * x**j for j, c in enumerate(cj)))
        full = ml_ks(KSQuery(alpha, 1.0 + (xi - 1.0) / alpha, 1.0 + xi / alpha, x))
        assert partial == pytest.approx(full, rel=1e-12)
