"""Tests for the gamma / Mittag-Leffler oracles.

Reference values come from independent sources only: the stdlib
math.lgamma/math.gamma, analytic identities (exp, cosh), and the frozen
extended-precision golden file.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest

from hkfrac import specfun
from hkfrac.errors import ConvergenceError, DomainError, ValidationError
from hkfrac.specfun import (
    SERIES_MAX_TERMS,
    SERIES_X_MAX,
    KSQuery,
    MLQuery,
    gamma_ratio,
    log_gamma,
    ml2,
    ml_ks,
)


def golden():
    return json.loads(resources.files("hkfrac").joinpath("golden/golden.json").read_text())


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 0.0),
            (5.0, math.log(24.0)),
            (1.5, math.log(math.sqrt(math.pi) / 2.0)),
        ],
    )
    def test_closed_form_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, abs=1e-13, rel=1e-13)

    def test_against_stdlib_on_positive_axis(self):
        xs = np.concatenate([np.geomspace(1e-3, 0.5, 500), np.linspace(0.5, 170.0, 4000)])
        ref = np.array([math.lgamma(float(x)) for x in xs])
        got = log_gamma(xs)
        scaled = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(scaled) <= 1e-13

    def test_exact_zeros_at_one_and_two(self):
        # Gamma(1) = Gamma(2) = 1: E_(alpha,1)(0) and the Caputo-type phi_0 carry 1/Gamma(1)
        assert log_gamma(1.0) == log_gamma(2.0) == 0.0
        assert log_gamma(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        assert ml2(MLQuery(0.3, 1.0, 0.0)) == 1.0

    def test_long_double_core_against_mpmath(self):
        # the accuracy the Lanczos comment states, on 1100 arguments in [1, 1200]
        mpmath = pytest.importorskip("mpmath")
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double on this platform")

        def exact(v):  # a long double as the sum of two doubles, without rounding
            hi = float(v)
            return mpmath.mpf(hi) + mpmath.mpf(float(v - np.longdouble(hi)))

        x = np.linspace(1.0, 1200.0, 1100).astype(np.longdouble)
        with mpmath.workdps(40):
            for xi, got in zip(x, specfun._lanczos_log_gamma(x)):
                want = mpmath.loggamma(exact(xi))
                assert abs(exact(got) - want) <= 5e-16 + 1e-18 * abs(want)

    def test_scalar_matches_vector_path(self):
        xs = np.array([0.123, 0.69119594, 1.0, 7.7, 42.0])
        assert np.allclose([log_gamma(float(x)) for x in xs], log_gamma(xs), rtol=0, atol=0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)
        with pytest.raises(DomainError):
            log_gamma(np.array([1.0, x]))

    def test_gamma_ratio(self):
        assert gamma_ratio(5.0, 4.0) == pytest.approx(4.0, rel=1e-13)


class TestML2:
    def test_zero_argument_is_reciprocal_gamma(self):
        for beta in (0.3, 0.5, 1.0, 1.7, 3.0):
            assert ml2(MLQuery(0.7, beta, 0.0)) == pytest.approx(1.0 / math.gamma(beta), rel=1e-13)

    def test_exponential_point(self):
        assert ml2(MLQuery(1.0, 1.0, 1.0)) == pytest.approx(math.e, rel=1e-12)

    def test_cosh_point(self):
        assert ml2(MLQuery(2.0, 1.0, 1.0)) == pytest.approx(math.cosh(1.0), rel=1e-12)

    def test_exponential_identity_on_interval(self):
        for x in np.linspace(-5.0, 5.0, 101):
            assert ml2(MLQuery(1.0, 1.0, float(x))) == pytest.approx(math.exp(x), rel=1e-12)

    def test_golden_values(self):
        for entry in golden()["ml2"]:
            got = ml2(MLQuery(entry["alpha"], entry["beta"], entry["x"]))
            assert got == pytest.approx(float(entry["value"]), rel=entry["tol"])

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.9, 1.3), (1.5, 0.7)])
    def test_strictly_increasing_on_positive_axis(self, alpha, beta):
        xs = np.linspace(0.0, 4.0, 41)
        vals = [ml2(MLQuery(alpha, beta, float(x))) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,beta", [(0.9, 1.3), (1.5, 0.7)])
    def test_array_matches_scalar_calls_bit_for_bit(self, alpha, beta):
        # mixed signs, zeros and |x| up to x_max, over more than one block of arguments
        xs = np.concatenate([np.linspace(-3.0, 3.0, 121), [0.0, -0.0, 1e-300, 30.0, SERIES_X_MAX]])
        got = ml2(MLQuery(alpha, beta, xs))
        assert np.array_equal(got, [ml2(MLQuery(alpha, beta, float(x))) for x in xs])
        assert np.array_equal(ml2(MLQuery(alpha, beta, xs.reshape(2, -1))), got.reshape(2, -1))

    def test_refuses_beyond_x_max(self):
        with pytest.raises(DomainError, match="series regime"):
            ml2(MLQuery(0.5, 1.0, 51.0))
        with pytest.raises(DomainError, match="series regime"):
            ml2(MLQuery(0.5, 1.0, np.r_[np.linspace(-1.0, 1.0, 100), 51.0]))
        assert math.isfinite(ml2(MLQuery(0.9, 1.0, SERIES_X_MAX)))  # boundary is allowed
        with pytest.raises(DomainError, match="series regime"):
            ml2(MLQuery(0.9, 1.0, math.nextafter(SERIES_X_MAX, math.inf)))

    def test_refuses_nan(self):
        # |nan| > x_max is false: NaN must be refused, not summed to the term cap
        with pytest.raises(DomainError, match="series regime"):
            ml2(MLQuery(0.5, 1.0, math.nan))
        with pytest.raises(DomainError, match="series regime"):
            ml2(MLQuery(0.5, 1.0, np.r_[np.linspace(-1.0, 1.0, 100), math.nan]))

    def test_refuses_overflowing_terms(self):
        with pytest.raises(DomainError, match=r"term overflows double range \(x = 49\.0\)"):
            ml2(MLQuery(0.2, 1.0, 49.0))
        with pytest.raises(DomainError, match=r"\(x = 49\.0\)"):
            ml2(MLQuery(0.2, 1.0, np.r_[np.linspace(-1.0, 1.0, 100), 49.0, 48.0]))

    def test_term_cap_raises_convergence_error(self):
        # at alpha = 1e-6 every term of E(1) is about 1, so no cap is ever enough
        with pytest.raises(ConvergenceError, match=f"{SERIES_MAX_TERMS} terms"):
            ml2(MLQuery(1e-6, 1.0, 1.0))
        with pytest.raises(ConvergenceError):
            ml2(MLQuery(1e-6, 1.0, np.r_[np.linspace(0.0, 0.1, 100), 1.0]))

    def test_refuses_catastrophic_cancellation(self):
        with pytest.raises(DomainError, match=r"cancellation.*\(x = -20\.0\)"):
            ml2(MLQuery(0.5, 0.5, -20.0))
        with pytest.raises(DomainError, match=r"cancellation.*\(x = -20\.0\)"):
            ml2(MLQuery(0.5, 0.5, np.r_[np.linspace(-1.0, 1.0, 100), -20.0, -25.0]))

    def test_query_validation(self):
        with pytest.raises(ValidationError):
            MLQuery(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            MLQuery(0.5, -1.0, 0.5)


def ks_reference(alpha, l, m, x, terms=64):
    """Kilbas-Saigo partial sum with stdlib gammas (independent oracle)."""
    total = 1.0
    c = 1.0
    for k in range(1, terms):
        j = k - 1
        c *= math.gamma(alpha * (j * m + l) + 1.0) / math.gamma(alpha * (j * m + l + 1.0) + 1.0)
        total += c * x**k
    return total


class TestMLKS:
    def test_value_at_zero_is_one(self):
        for alpha, l, m in ((0.5, 0.5, 2.0), (0.7, -0.3, 1.0), (1.2, 1.0, 0.5)):
            assert ml_ks(KSQuery(alpha, l, m, 0.0)) == 1.0

    @pytest.mark.parametrize(
        "alpha,l,m,x",
        [(0.5, 0.5, 2.0, 0.3), (0.5, 0.5, 1.3, -0.4), (0.7, -0.3, 1.0, 0.6), (0.9, 1.2, 0.8, 1.0)],
    )
    def test_against_stdlib_partial_sum(self, alpha, l, m, x):
        got = ml_ks(KSQuery(alpha, l, m, x))
        ref = ks_reference(alpha, l, m, x)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha,l,x", [(0.7, 0.4, 0.5), (0.5, 0.8, -1.0), (0.9, 1.2, 1.5)])
    def test_m_equal_one_telescopes_to_two_parameter_family(self, alpha, l, x):
        lhs = ml_ks(KSQuery(alpha, l, 1.0, x))
        rhs = math.exp(log_gamma(alpha * l + 1.0)) * ml2(MLQuery(alpha, alpha * l + 1.0, x))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("alpha,l,m", [(0.7, -0.3, 1.0), (0.9, 1.2, 0.8)])
    def test_array_matches_scalar_calls_bit_for_bit(self, alpha, l, m):
        xs = np.concatenate([np.linspace(-2.0, 2.0, 121), [0.0, -0.0, 1e-300, 30.0, SERIES_X_MAX]])
        got = ml_ks(KSQuery(alpha, l, m, xs))
        assert np.array_equal(got, [ml_ks(KSQuery(alpha, l, m, float(x))) for x in xs])

    @pytest.mark.parametrize(
        "x,kw,error",
        [
            (51.0, {}, DomainError),
            (-40.0, {}, DomainError),
            (1.0, {"alpha": 1e-6}, ConvergenceError),
            (math.nan, {}, DomainError),
        ],
    )
    def test_array_refuses_like_the_scalar_call(self, x, kw, error):
        # kw overrides fields of the query (alpha, l, m) = (0.9, 1.2, 0.8)
        fields = {"alpha": 0.9, "l": 1.2, "m": 0.8, **kw}
        with pytest.raises(error):
            ml_ks(KSQuery(**fields, x=x))
        with pytest.raises(error):
            ml_ks(KSQuery(**fields, x=np.r_[np.linspace(0.0, 0.1, 100), x]))

    def test_golden_values(self):
        for entry in golden()["ml_ks"]:
            got = ml_ks(KSQuery(entry["alpha"], entry["l"], entry["m"], entry["x"]))
            assert got == pytest.approx(float(entry["value"]), rel=entry["tol"])

    def test_pole_detection(self):
        with pytest.raises(DomainError, match="pole"):
            ml_ks(KSQuery(0.5, -2.0, 1.0, 0.5))
        with pytest.raises(DomainError, match="pole"):
            ml_ks(KSQuery(0.5, -2.0, 1.0, np.array([0.0, 0.5])))

    def test_nonpositive_gamma_argument_rejected(self):
        with pytest.raises(DomainError):
            ml_ks(KSQuery(0.5, -3.5, 1.0, 0.5))

    def test_zero_in_coefficient_arguments_is_fine(self):
        # alpha(j m + l) = 0 at j = 0 means Gamma(1) = 1, not a pole
        assert math.isfinite(ml_ks(KSQuery(0.5, 0.0, 1.0, 0.5)))

    def test_query_validation(self):
        with pytest.raises(ValidationError):
            KSQuery(-0.5, 0.5, 1.0, 0.0)
        with pytest.raises(ValidationError):
            KSQuery(0.5, 0.5, 0.0, 0.0)


class TestSeriesLayout:
    """The series loop sums in chunks of terms and blocks of arguments; neither is visible."""

    XS = np.concatenate([np.linspace(-3.0, 3.0, 121), [0.0, -0.0, 1e-300, 30.0, SERIES_X_MAX]])

    def both(self):
        return (ml2(MLQuery(0.9, 1.3, self.XS)), ml_ks(KSQuery(0.7, -0.3, 1.0, self.XS)))

    @pytest.mark.parametrize("chunk,block", [(7, 5), (128, 32)])
    def test_values_do_not_depend_on_chunk_or_block(self, monkeypatch, chunk, block):
        default = self.both()
        monkeypatch.setattr(specfun, "_CHUNK", chunk)
        monkeypatch.setattr(specfun, "_BLOCK", block)
        for got, want in zip(self.both(), default):
            assert np.array_equal(got, want)

    def test_coefficients_are_made_once_per_chunk_reached(self, monkeypatch):
        calls = []
        core = specfun._lanczos_log_gamma

        def counted(x):
            calls.append(x.size)
            return core(x)

        monkeypatch.setattr(specfun, "_lanczos_log_gamma", counted)
        xs = np.linspace(-2.4, 3.0, 1024)
        reached = 0
        for x in (xs[0], xs[-1]):  # the extreme arguments need the most terms
            calls.clear()
            ml2(MLQuery(0.5, 0.5, float(x)))
            reached = max(reached, len(calls))
        calls.clear()
        ml2(MLQuery(0.5, 0.5, xs))
        assert len(calls) <= reached
