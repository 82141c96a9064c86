"""Tests for the source-expression language."""

import math

import numpy as np
import pytest

from hkfrac.errors import ValidationError
from hkfrac.sourceexpr import (
    ExprSyntaxError,
    UnknownIdentifierError,
    parse_source,
)


class TestEvaluation:
    def test_zero_function(self):
        assert parse_source("0").evaluate(2.0, 1.0) == 0.0

    def test_mixed_variables_and_functions(self):
        expr = parse_source("2*x + exp(−z)")  # unicode minus accepted
        assert expr.evaluate(2.0, 1.0) == pytest.approx(4.0 + math.exp(-1.0), rel=1e-15)

    def test_power_is_right_associative(self):
        assert parse_source("x ^ 2 ^ 3").evaluate(2.0) == 256.0

    def test_precedence(self):
        assert parse_source("1 + 2 * 3 ^ 2").evaluate(0.0) == 19.0
        assert parse_source("-2 ^ 2").evaluate(0.0) == 4.0  # unary binds to the base

    @pytest.mark.parametrize(
        "text,x,z,expected",
        [
            ("sqrt(abs(x - 3))", 2.0, None, 1.0),
            ("ln(exp(x))", 1.5, None, 1.5),
            ("sin(x)/cos(x)", 0.3, None, math.tan(0.3)),
            ("1e-3 + .5", 0.0, None, 0.5010),
            ("z", 5.0, 0.25, 0.25),
            ("0", 2.0, None, 0.0),
            ("2*x + exp(-z)", 2.0, 1.0, 4.0 + math.exp(-1.0)),
            ("x ^ 2 ^ 3", 2.0, None, 256.0),
            ("-x*(3.5 - z/2)^0.5", 2.0, 1.0, -2.0 * math.sqrt(3.0)),
            ("abs(sin(x))/ln(x)", 2.0, None, math.sin(2.0) / math.log(2.0)),
            ("x - - z", 2.0, 0.5, 2.5),
            ("cos(x)*cos(z) - sin(x)*sin(z)", 0.3, 0.4, math.cos(0.7)),
        ],
    )
    def test_values(self, text, x, z, expected):
        assert parse_source(text).evaluate(x, z) == pytest.approx(expected, rel=1e-14)

    def test_vectorized_evaluation(self):
        xs = np.linspace(1.0, 2.0, 5)
        zs = xs - 1.0
        out = parse_source("x + z^2").evaluate(xs, zs)
        assert np.allclose(out, xs + zs**2)
        assert parse_source("3").evaluate(xs, zs).shape == xs.shape

    def test_numpy_domain_semantics(self):
        assert math.isnan(parse_source("sqrt(x - 10)").evaluate(2.0))

    def test_division_by_zero_is_inf_not_an_exception(self):
        assert parse_source("x/z").evaluate(1.0, 0.0) == math.inf
        assert np.all(parse_source("x + 1/0").evaluate(np.ones(3)) == math.inf)

    @pytest.mark.parametrize("text", ["z + 1", "z", "x * exp(-z)", "sin(z)^2"])
    @pytest.mark.parametrize("x", [2.0, np.ones(2)])
    def test_missing_z_is_refused_by_name(self, text, x):
        expr = parse_source(text)
        assert expr.uses_z
        with pytest.raises(ValidationError, match=r"\bz\b"):
            expr.evaluate(x)

    def test_expression_without_z_needs_no_z(self):
        expr = parse_source("x + exp(-x)")
        assert not expr.uses_z
        assert expr.evaluate(2.0) == pytest.approx(2.0 + math.exp(-2.0), rel=1e-15)
        assert expr.evaluate(2.0, 5.0) == expr.evaluate(2.0)


# The compiled expressions must give exactly what the same numpy expression
# gives, operation for operation: the solver's output bytes depend on it.
_X = np.linspace(1.0, 2.0, 300)
_Z = (_X**2 - 1.0) / 2.0


@pytest.mark.parametrize(
    "text,numpy_form",
    [
        # manufactured sources as the benchmark writes them: (k*z^(p)) + (c*z^(q)) [+ (f*z^(r))]
        ("(1.1283791670955126*z^(0.9)) + (1.0*z^(1.4))",
         lambda x, z: 1.1283791670955126 * np.power(z, 0.9) + 1.0 * np.power(z, 1.4)),
        ("(1.3293403881791355*z^(1.0)) + (1.0*z^(1.5)) + (0.7978845608028654*z^(-0.25))",
         lambda x, z: (1.3293403881791355 * np.power(z, 1.0) + 1.0 * np.power(z, 1.5))
         + 0.7978845608028654 * np.power(z, -0.25)),
        ("(-0.5*z^(1.45)) + (2.5*z^(0.85))",
         lambda x, z: -0.5 * np.power(z, 1.45) + 2.5 * np.power(z, 0.85)),
        ("-x", lambda x, z: -x),
        ("-x^2", lambda x, z: np.power(-x, 2.0)),
        ("x - - z", lambda x, z: x - -z),
        ("x^z^0.5", lambda x, z: np.power(x, np.power(z, 0.5))),
        ("2^-x^2", lambda x, z: np.power(2.0, np.power(-x, 2.0))),
        ("x - z - 1 + 3", lambda x, z: ((x - z) - 1.0) + 3.0),
        ("x / z / 2 * 3", lambda x, z: ((x / z) / 2.0) * 3.0),
        ("exp(-z)", lambda x, z: np.exp(-z)),
        ("ln(x)", lambda x, z: np.log(x)),
        ("sin(x*z)", lambda x, z: np.sin(x * z)),
        ("cos(x) - z", lambda x, z: np.cos(x) - z),
        ("sqrt(z + 1)", lambda x, z: np.sqrt(z + 1.0)),
        ("abs(1.5 - x)", lambda x, z: np.abs(1.5 - x)),
        ("3", lambda x, z: np.full_like(x, 3.0)),
    ],
)
def test_values_equal_the_numpy_expression(text, numpy_form):
    expr = parse_source(text)
    with np.errstate(divide="ignore"):
        expected = numpy_form(_X, _Z)
        assert np.array_equal(expr.evaluate(_X, _Z), expected)
        assert [expr.evaluate(float(x), float(z)) for x, z in zip(_X[::37], _Z[::37])] == list(
            expected[::37])


class TestErrors:
    def test_syntax_error_carries_byte_offset(self):
        with pytest.raises(ExprSyntaxError) as excinfo:
            parse_source("2 +* x")
        assert excinfo.value.offset == 3

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_source("x) + 2")

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_source("exp(x")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_source("   ")

    def test_unknown_function_carries_name(self):
        with pytest.raises(UnknownIdentifierError) as excinfo:
            parse_source("foo(x)")
        assert excinfo.value.name == "foo"

    def test_unknown_variable_carries_name(self):
        with pytest.raises(UnknownIdentifierError) as excinfo:
            parse_source("2*y")
        assert excinfo.value.name == "y"

    def test_offset_counts_bytes_not_characters(self):
        # the unicode minus is three bytes in utf-8
        with pytest.raises(ExprSyntaxError) as excinfo:
            parse_source("− + x")
        assert excinfo.value.offset > 1
