"""The references reproduce closed forms they were not built from."""

import math

import mpmath
import pytest

import refs


@pytest.mark.parametrize("x", [-3.0, -0.5, 0.0, 0.7, 2.5, 6.0])
def test_e11_is_exp(x):
    assert refs.ml_series(1.0, 1.0, x) == pytest.approx(math.exp(x), rel=1e-15)


@pytest.mark.parametrize("x", [0.0, 0.3, 4.0, 25.0])
def test_e21_is_cosh_sqrt(x):
    assert refs.ml_series(2.0, 1.0, x) == pytest.approx(math.cosh(math.sqrt(x)), rel=1e-15)


@pytest.mark.parametrize("x", [0.5, 2.0, 4.0, 6.5])
def test_e_half_is_scaled_erfc(x):
    # E_{1/2,1}(-x) = exp(x^2) erfc(x); at x = 6.5 the alternating series has
    # terms near exp(42), so this checks the precision rule as well.
    with mpmath.workdps(50):
        exact = float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x))
    assert refs.ml_series(0.5, 1.0, -x) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("x", [-2.5, -0.4, 1.3])
def test_kilbas_saigo_reduces_at_xi_zero(alpha, x):
    # xi = 0 gives l = 1 - 1/alpha, m = 1, and c_k = Gamma(alpha)/Gamma(alpha k + alpha)
    got = refs.ks_series(alpha, 1.0 - 1.0 / alpha, 1.0, x)
    assert got == pytest.approx(math.gamma(alpha) * refs.ml_series(alpha, alpha, x), rel=1e-14)


def test_power_weighted_reference_at_xi_zero_is_homogeneous():
    z = [0.01, 0.4, 1.5]
    a = refs.power_weighted_reference(0.6, 0.0, -1.7, 1.3, z)
    b = refs.homogeneous_reference(0.6, 0.6, -1.7, 1.3, z)
    assert a == pytest.approx(b, rel=1e-14)


def test_kernel_coordinate():
    assert refs.kernel_z(2.0, 1.0, 2.0) == pytest.approx(1.5, rel=1e-15)
    assert refs.kernel_z(2.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert refs.kernel_z(2.0, 1.0, "hadamard") == pytest.approx(math.log(2.0), rel=1e-15)
