"""Hilfer-Katugampola fractional calculus toolkit.

A library and CLI for the two-parameter fractional derivative of order
alpha and type beta built on the Katugampola power kernel, together with
the Mittag-Leffler special functions, weakly singular product-integration
quadrature, and a contraction-based Picard solver for the associated
Cauchy problem.
"""

from .analytic import (
    LinearProblemSpec,
    PowerWeightedSpec,
    homogeneous_solution,
    linear_solution,
    power_weighted_solution,
)
from .errors import ConvergenceError, DomainError, ValidationError
from .frame import (
    HADAMARD,
    Grid,
    GridFn,
    HKParams,
    make_graded_grid,
    make_params,
    weighted_norm,
    x_of_z,
    z_of_x,
)
from .operators import (
    boundary_coefficient,
    gfd,
    gfi_left,
    gfi_right,
    hk_derivative,
    power_rule_analytic,
    reconstruct,
)
from .solver import (
    CauchyProblem,
    SolveReport,
    SolverConfig,
    contraction_factor,
    lipschitz_estimate,
    picard_solve,
)
from .sourceexpr import ExprSyntaxError, SourceExpr, UnknownIdentifierError, parse_source
from .specfun import KSQuery, MLQuery, gamma_ratio, log_gamma, ml2, ml_ks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HADAMARD",
    "HKParams",
    "Grid",
    "GridFn",
    "MLQuery",
    "KSQuery",
    "LinearProblemSpec",
    "PowerWeightedSpec",
    "CauchyProblem",
    "SolverConfig",
    "SolveReport",
    "SourceExpr",
    "ValidationError",
    "DomainError",
    "ConvergenceError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "make_params",
    "make_graded_grid",
    "z_of_x",
    "x_of_z",
    "weighted_norm",
    "log_gamma",
    "gamma_ratio",
    "ml2",
    "ml_ks",
    "gfi_left",
    "gfi_right",
    "gfd",
    "hk_derivative",
    "power_rule_analytic",
    "reconstruct",
    "boundary_coefficient",
    "contraction_factor",
    "lipschitz_estimate",
    "picard_solve",
    "homogeneous_solution",
    "linear_solution",
    "power_weighted_solution",
    "parse_source",
]
