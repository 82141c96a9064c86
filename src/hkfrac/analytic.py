"""Closed-form solutions used as oracles for the solver.

For the linear problem

    (D^(alpha,beta) phi)(x) - lambda phi(x) = f(x),   (J^(1-gamma) phi)(a) = c,

the solution is

    phi(x) = c z^(gamma-1) E_{alpha,gamma}[lambda z^alpha]
             + int_a^x t^(rho-1) ((x^rho-t^rho)/rho)^(alpha-1)
                       E_{alpha,alpha}[lambda ((x^rho-t^rho)/rho)^alpha] f(t) dt,

with z = (x^rho - a^rho)/rho.  The source integral shares the product-
integration machinery of the operators module: the scalar Mittag-Leffler
factor is expanded termwise and folded into the kernel panel weights, so
there is a single singular-kernel code path in the package.

The power-weighted problem (D^(alpha,0) phi)(x) = lambda z^xi phi(x) with
(J^(1-alpha) phi)(a) = c is solved by the Kilbas-Saigo function:

    phi(x) = c/Gamma(alpha) z^(alpha-1) E_{alpha, l, m}[lambda z^(alpha+xi)]

with l = 1 + (xi-1)/alpha and m = 1 + xi/alpha, whose series coefficients
are c_j = prod_{r=1..j} Gamma[r(alpha+xi)] / Gamma[r(alpha+xi) + alpha].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .frame import Grid, GridFn, HKParams, make_graded_grid, z_of_x
from .operators import _kernel_apply_left
from .specfun import KSQuery, MLQuery, log_gamma, ml2, ml_ks

__all__ = [
    "LinearProblemSpec",
    "PowerWeightedSpec",
    "homogeneous_solution",
    "linear_solution",
    "power_weighted_solution",
]


def _require_finite(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite (got {value})")


@dataclass(frozen=True)
class LinearProblemSpec:
    """Linear Cauchy problem with constant coefficient and additive source(x, z)."""

    params: HKParams
    lam: float
    c: float
    source: Optional[Callable] = None

    def __post_init__(self):
        _require_finite(self, "lam", "c")


@dataclass(frozen=True)
class PowerWeightedSpec:
    """Power-weighted coefficient problem; the initial condition uses
    J^(1-alpha), which fixes beta = 0 (gamma = alpha)."""

    params: HKParams
    lam: float
    xi: float
    c: float

    def __post_init__(self):
        _require_finite(self, "lam", "c")
        if self.params.beta != 0.0:
            raise ValidationError(
                f"power-weighted problem requires beta = 0 (got {self.params.beta})"
            )
        if not self.xi > -self.params.alpha:
            raise ValidationError(
                f"power weight must satisfy xi > -alpha (got xi={self.xi}, alpha={self.params.alpha})"
            )


def _z_at(params: HKParams, x, power: float) -> np.ndarray:
    """z at x, or a Grid's own ``nodes_z``; x = a is refused where z^power diverges."""
    if isinstance(x, Grid):
        if x.params != params:
            raise ValidationError("grid parameters must match the problem's")
        return x.nodes_z
    xa = np.asarray(x, dtype=float)
    finite_at_a = power >= 0.0
    above_a = xa >= params.a if finite_at_a else xa > params.a
    bad = ~(above_a & (xa <= params.b * (1 + 1e-12)))  # NaN is bad too
    if np.any(bad):
        first = float(xa.flat[np.argmax(bad)])
        lower = "a <= x" if finite_at_a else "a < x"
        raise ValidationError(f"x must satisfy {lower} <= b (got x = {first!r})")
    return np.asarray(z_of_x(params, xa), dtype=float)


def homogeneous_solution(spec: LinearProblemSpec, x):
    """phi(x) = c z^(gamma-1) E_{alpha,gamma}[lambda z^alpha] (zero source).

    At x = a this is the limit c E_{alpha,1}(0) = c when gamma = 1; for
    gamma < 1 the factor z^(gamma-1) diverges there and x = a is refused.
    x is a float, an ndarray, or a :class:`Grid` of the spec's parameters,
    whose exact ``nodes_z`` are then used (leading nodes_x may round to a).
    """
    if spec.source is not None:
        raise ValidationError("homogeneous solution requires source = None")
    params = spec.params
    g = params.gamma
    z = _z_at(params, x, g - 1.0)
    out = spec.c * z ** (g - 1.0) * ml2(MLQuery(params.alpha, g, spec.lam * z**params.alpha))
    return out if isinstance(x, (np.ndarray, Grid)) else float(out)


def _ml_kernel_terms(alpha: float, lam: float, z_top: float) -> tuple:
    """Termwise expansion of w^(alpha-1) E_{alpha,alpha}(lam w^alpha).

    Term k contributes lam^k / Gamma(alpha(k+1)) * w^(alpha(k+1)-1); the
    expansion is truncated once a term's largest contribution on [0, z_top]
    falls to 1e-18 of the first term's.
    """
    es = alpha * np.arange(1.0, 301.0)
    neg_log_gammas = -log_gamma(es)
    terms = []
    first_scale = None
    for k, (e, neg_lg) in enumerate(zip(es.tolist(), neg_log_gammas.tolist())):
        coef = lam**k * math.exp(neg_lg)
        scale = abs(coef) * z_top**e
        terms.append((coef, e))
        if first_scale is None:
            first_scale = max(scale, 1e-300)
        if k >= 2 and scale <= 1e-18 * first_scale:
            break
    return tuple(terms)


def linear_solution(spec: LinearProblemSpec, x: float) -> float:
    """Pointwise solution of the linear problem, source integral by quadrature.

    The source integral runs on a 2048-node mesh over [a, x] with the
    default grading, the source taken at its ``nodes_x`` and exact
    ``nodes_z``; only the weights of its last row, the target x, are built.  At x = a (allowed when gamma = 1) the source integral is zero.
    """
    params = spec.params
    x = float(x)
    hom = homogeneous_solution(replace(spec, source=None), x)
    if spec.source is None or x == params.a:
        return float(hom)
    sub = HKParams(params.alpha, params.beta, params.rho, params.a, x)
    grid = make_graded_grid(sub, 2048)
    f = GridFn(grid, 0.0, spec.source(grid.nodes_x, grid.nodes_z))
    terms = _ml_kernel_terms(params.alpha, spec.lam, grid.nodes_z[-1])
    return float(hom + _kernel_apply_left(f, terms, r0=grid.n - 1)[0])


def power_weighted_solution(spec: PowerWeightedSpec, x):
    """phi(x) = c/Gamma(alpha) z^(alpha-1) E_{alpha,l,m}[lambda z^(alpha+xi)].

    x is a float, an ndarray or a :class:`Grid`, as in :func:`homogeneous_solution`.
    """
    params = spec.params
    alpha = params.alpha
    z = _z_at(params, x, alpha - 1.0)
    l = 1.0 + (spec.xi - 1.0) / alpha
    m = 1.0 + spec.xi / alpha
    pref = spec.c * math.exp(-log_gamma(alpha))
    out = pref * z ** (alpha - 1.0) * ml_ks(KSQuery(alpha, l, m, spec.lam * z ** (alpha + spec.xi)))
    return out if isinstance(x, (np.ndarray, Grid)) else float(out)
