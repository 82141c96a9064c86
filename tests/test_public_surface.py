"""The package's public names: one per result, each resolvable."""

import dataclasses
import importlib
import inspect

import hkfrac

PUBLIC = [
    "CauchyProblem", "ConvergenceError", "DomainError", "ExprSyntaxError", "Grid", "GridFn",
    "HADAMARD", "HKParams", "KSQuery", "LinearProblemSpec", "MLQuery", "PowerWeightedSpec",
    "SolveReport", "SolverConfig", "SourceExpr", "UnknownIdentifierError", "ValidationError",
    "__version__", "boundary_coefficient", "contraction_factor", "gamma_ratio", "gfd",
    "gfi_left", "gfi_right", "hk_derivative", "homogeneous_solution", "linear_solution",
    "lipschitz_estimate", "log_gamma", "make_graded_grid", "make_params", "ml2", "ml_ks",
    "parse_source", "picard_solve", "power_rule_analytic", "power_weighted_solution",
    "reconstruct", "weighted_norm", "x_of_z", "z_of_x",
]

MODULES = ["analytic", "cli", "frame", "operators", "solver", "sourceexpr", "specfun", "verify"]

# modules whose every public function and class the package re-exports
LIBRARY = ["analytic", "frame", "operators", "solver", "specfun"]


def test_public_surface_is_pinned():
    assert sorted(hkfrac.__all__) == PUBLIC
    for name in hkfrac.__all__:
        assert hasattr(hkfrac, name), name
    for module_name in MODULES:
        module = importlib.import_module(f"hkfrac.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"hkfrac.{module_name}.{name}"
    # so no name outside PUBLIC, such as a deleted one, can be imported from them
    for module_name in LIBRARY:
        module = importlib.import_module(f"hkfrac.{module_name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                assert name in PUBLIC, f"hkfrac.{module_name}.{name}"
    assert [f.name for f in dataclasses.fields(hkfrac.SolverConfig)] == [
        "n", "grading", "tol", "max_iters"]
    assert [f.name for f in dataclasses.fields(hkfrac.SolveReport)] == [
        "solution", "breakpoints", "contraction_factors", "residual_history", "iterations",
        "converged"]
    assert [name for name in vars(hkfrac.SourceExpr) if not name.startswith("_")] == ["evaluate"]
    assert "__str__" not in vars(hkfrac.SourceExpr)
