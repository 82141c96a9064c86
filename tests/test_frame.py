"""Tests for the parameter bundle, kernel coordinate, grids and norms."""

import math

import numpy as np
import pytest

from hkfrac.errors import DomainError, ValidationError
from hkfrac.frame import (
    Grid,
    GridFn,
    HKParams,
    make_graded_grid,
    make_params,
    weighted_norm,
    x_of_z,
    z_of_x,
)


class TestParams:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.5, 0.0, 0.5), (0.5, 1.0, 1.0), (0.3, 0.5, 0.65)],
    )
    def test_gamma(self, alpha, beta, expected):
        p = make_params(alpha, beta, 2.0 if beta == 0.5 else 1.0, 1.0, 3.0)
        assert p.gamma == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(alpha=1.5, beta=0.0, rho=1.0, a=1.0, b=2.0), "0 < alpha < 1"),
            (dict(alpha=0.5, beta=-0.1, rho=1.0, a=1.0, b=2.0), "0 <= beta <= 1"),
            (dict(alpha=0.5, beta=0.0, rho=-1.0, a=1.0, b=2.0), "rho > 0"),
            (dict(alpha=0.5, beta=0.0, rho=0.5, a=0.0, b=2.0), "a > 0"),
            (dict(alpha=0.5, beta=0.0, rho=1.0, a=2.0, b=2.0), "a < b"),
            (dict(alpha=0.5, beta=0.0, rho="hadamard", a=0.0, b=2.0), "a > 0"),
            (dict(alpha=0.5, beta=0.0, rho="weird", a=1.0, b=2.0), "hadamard"),
            (dict(alpha=0.5, beta=0.0, rho=math.inf, a=1.0, b=2.0), "rho > 0 and be finite"),
            (dict(alpha=0.5, beta=0.0, rho=1.0, a=1.0, b=math.inf), "b finite"),
        ],
    )
    def test_validation_names_the_bound(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment.replace("(", "\\(")):
            HKParams(**kwargs)

    def test_liouville_case_allows_a_zero(self):
        p = make_params(0.5, 0.0, 1.0, 0.0, 2.0)
        assert p.family == "Liouville"

    @pytest.mark.parametrize(
        "beta,rho,family",
        [
            (0.0, 1.0, "Riemann-Liouville"),
            (1.0, 1.0, "Caputo"),
            (0.5, 1.0, "Hilfer"),
            (0.0, "hadamard", "Hadamard"),
            (1.0, "hadamard", "Caputo-Hadamard"),
            (0.5, "hadamard", "Hilfer-Hadamard"),
            (0.0, 2.0, "generalized (Katugampola)"),
            (1.0, 2.0, "Caputo-type"),
            (0.5, 2.0, "Hilfer-Katugampola"),
        ],
    )
    def test_interpolation_family(self, beta, rho, family):
        assert make_params(0.4, beta, rho, 1.0, 2.0).family == family


class TestKernelCoordinate:
    def test_rho_one_is_a_shift(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        assert z_of_x(p, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_rho_two(self):
        p = make_params(0.5, 0.0, 2.0, 1.0, 2.0)
        assert z_of_x(p, 2.0) == pytest.approx(1.5, rel=1e-15)

    def test_small_rho_approaches_logarithm(self):
        p = make_params(0.5, 0.0, 1e-3, 1.0, 2.0)
        assert abs(z_of_x(p, 2.0) - math.log(2.0)) <= 1e-3

    def test_plain_mode_converges_linearly_to_hadamard(self):
        xs = np.linspace(1.0, 2.0, 51)
        errs = []
        for rho in (1e-2, 1e-3, 1e-4):
            p = make_params(0.5, 0.0, rho, 1.0, 2.0)
            errs.append(np.max(np.abs(z_of_x(p, xs) - np.log(xs))))
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.3)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, "hadamard"])
    def test_roundtrip(self, rho):
        p = make_params(0.4, 0.2, rho, 1.0, 2.5)
        xs = np.linspace(1.0, 2.5, 37)
        back = x_of_z(p, np.asarray(z_of_x(p, xs)))
        assert np.max(np.abs(back - xs) / xs) <= 1e-12

    def test_strictly_increasing(self):
        p = make_params(0.4, 0.2, 1.7, 1.0, 2.5)
        zs = z_of_x(p, np.linspace(1.0, 2.5, 101))
        assert np.all(np.diff(zs) > 0)

    def test_domain_errors(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            z_of_x(p, 0.5)
        with pytest.raises(DomainError):
            z_of_x(p, 2.5)
        with pytest.raises(DomainError):
            x_of_z(p, -0.5)
        with pytest.raises(DomainError):
            x_of_z(p, 1.5)


class TestGrids:
    def test_uniform_example(self):
        p = make_params(0.5, 0.0, 1.0, 0.0, 1.0)
        g = make_graded_grid(p, 4, 1.0)
        assert np.allclose(g.nodes_x, [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-15)

    def test_graded_example(self):
        p = make_params(0.5, 0.0, 1.0, 0.0, 1.0)
        g = make_graded_grid(p, 2, 2.0)
        assert np.allclose(g.nodes_x, [0.25, 1.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.5, 2.0, "hadamard"])
    def test_count_and_last_node(self, rho):
        p = make_params(0.3, 0.5, rho, 1.0, 3.0)
        g = make_graded_grid(p, 17)
        assert g.n == 17
        assert g.nodes_x[-1] == 3.0
        assert g.nodes_z[0] > 0.0

    def test_default_grading(self):
        p = make_params(0.4, 0.0, 1.0, 1.0, 2.0)
        assert make_graded_grid(p, 16).grading == pytest.approx(5.0)

    def test_refinement_nesting(self):
        p = make_params(0.5, 0.0, 2.0, 1.0, 2.0)
        coarse = make_graded_grid(p, 16, 3.0)
        fine = make_graded_grid(p, 32, 3.0)
        assert np.all(np.isin(coarse.nodes_z, fine.nodes_z))

    def test_z_top_is_the_last_node(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rho = "hadamard" if rng.random() < 0.25 else float(rng.uniform(0.05, 4.0))
            a = 0.0 if rho != "hadamard" and rho >= 1.0 and rng.random() < 0.2 else float(
                rng.uniform(0.05, 3.0))
            p = make_params(0.5, 0.5, rho, a, a + float(rng.uniform(1e-3, 5.0)))
            assert p.z_top == make_graded_grid(p, int(rng.integers(8, 64))).nodes_z[-1], p

    def test_validation(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            make_graded_grid(p, 0)
        with pytest.raises(ValidationError):
            make_graded_grid(p, 16, 0.5)
        with pytest.raises(ValidationError, match="grading"):
            make_graded_grid(p, 16, math.nan)

    def test_rejects_nodes_off_the_grading_law(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 8)
        bad = g.nodes_z.copy()
        bad[3] *= 1.01
        with pytest.raises(ValidationError):
            Grid(p, g.nodes_x, bad, g.grading)


class TestGridFn:
    def setup_method(self):
        self.p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        self.g = make_graded_grid(self.p, 32)

    def test_values_roundtrip(self):
        f = GridFn.from_values(self.g, self.g.nodes_z**0.3 * 2.0, sigma=0.3)
        assert np.allclose(f.regular_values, 2.0)
        assert np.allclose(f.values, 2.0 * self.g.nodes_z**0.3)

    def test_addition_unifies_sigma(self):
        f1 = GridFn.constant(self.g, 1.0, sigma=-0.5)
        f2 = GridFn.constant(self.g, 3.0, sigma=0.0)
        total = f1 + f2
        assert total.sigma == -0.5
        assert np.allclose(total.values, f1.values + f2.values)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            GridFn(self.g, 0.0, np.ones(5))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_nonfinite_sigma_is_refused_by_name(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be finite"):
            GridFn(self.g, sigma, np.ones(self.g.n))

    def test_pure_power_detection(self):
        assert GridFn.constant(self.g, 2.0, sigma=0.5).is_pure_power
        assert not GridFn.from_z_function(self.g, lambda u: u).is_pure_power


class TestWeightedNorm:
    def setup_method(self):
        self.p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        self.g = make_graded_grid(self.p, 64)

    def test_exponent_cancellation(self):
        gamma = self.p.gamma
        f = GridFn.constant(self.g, 1.0, sigma=gamma - 1.0)
        assert weighted_norm(f, 1.0 - gamma) == 1.0

    def test_zero_function(self):
        assert weighted_norm(GridFn.constant(self.g, 0.0), 0.3) == 0.0

    def test_max_at_right_endpoint(self):
        f = GridFn.constant(self.g, 1.0)
        assert weighted_norm(f, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_weight_validation(self):
        for mu in (-0.1, 1.0, math.nan):
            with pytest.raises(ValidationError, match="weight exponent"):
                weighted_norm(GridFn.constant(self.g, 1.0), mu)
