"""Verification suites: operator identities checked at fixed sizes.

Each suite runs a batch of cases with pinned tolerances and returns one
record per case: ``{"suite", "case", "error", "tolerance", "passed"}``.
The error metrics are scale-free:

* power-rule: sup-norm error relative to the sup of the closed form, taken
  in the kernel coordinate (several leading x nodes can collapse onto a in
  double precision at strong grading, so z indexes the comparison);
  the n -> 2n convergence ratio is only enforced above a 1e-12 roundoff
  floor, since pure powers with constant values integrate exactly.  The
  right-sided rule, on powers of Z - z, is checked for accuracy at n = 512.
* semigroup / inversion / picard: weighted sup norms of the mismatch over
  the weighted sup norm of the reference.

Golden values (frozen, extended-precision oracles) load from the packaged
``golden/golden.json``; the HKF_GOLDEN_DIR environment variable overrides
the directory.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np

from . import analytic, solver
from . import operators as ops
from .errors import ConvergenceError
from .frame import GridFn, make_graded_grid, make_params, weighted_norm, z_of_x
from .sourceexpr import _source_of_x
from .specfun import KSQuery, MLQuery, gamma_ratio, log_gamma, ml_ks, ml2

__all__ = ["SUITE_NAMES", "run_suite", "all_passed"]

_TEST_FAMILY = (
    ("one", lambda u: np.ones_like(u)),
    ("u", lambda u: u),
    ("expm1", lambda u: np.exp(u) - 1.0),
)


def _record(suite: str, case: str, error: float, tolerance: float, ok=None) -> dict:
    passed = bool(error <= tolerance) if ok is None else bool(ok)
    return {
        "suite": suite,
        "case": case,
        "error": float(error),
        "tolerance": float(tolerance),
        "passed": passed,
    }


def _quadrature(f: GridFn, order: float) -> GridFn:
    """J^order f by product integration, pure powers included."""
    return GridFn(f.grid, 0.0, ops._kernel_apply_left(f, ops._plain_kernel(order)))


def _load_golden() -> dict:
    override = os.environ.get("HKF_GOLDEN_DIR")
    if override:
        text = (Path(override) / "golden.json").read_text()
    else:
        text = resources.files("hkfrac").joinpath("golden/golden.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------- power-rule

def run_power_rule() -> list:
    records = []
    for alpha in (0.3, 0.5, 0.9):
        for rho in (0.5, 1.0, 2.0):
            for xi in (1.0, 1.7, 2.5):
                params = make_params(alpha, 0.0, rho, 1.0, 2.0)
                grading = max(1.0, 2.0 / alpha)
                errs = {}
                for n in (512, 1024):
                    grid = make_graded_grid(params, n, grading)
                    f = GridFn(grid, 0.0, grid.nodes_z ** (xi - 1.0))
                    num = _quadrature(f, alpha).values
                    exact = gamma_ratio(xi, alpha + xi) * grid.nodes_z ** (alpha + xi - 1.0)
                    errs[n] = float(np.max(np.abs(num - exact)) / np.max(np.abs(exact)))
                tag = f"alpha={alpha} rho={rho} xi={xi}"
                records.append(_record("power-rule", f"{tag} accuracy n=512", errs[512], 1e-4))
                if errs[512] <= 1e-12:
                    records.append(_record("power-rule", f"{tag} ratio (roundoff floor)", 0.0, 1.0))
                else:
                    ratio = errs[512] / max(errs[1024], 1e-300)
                    records.append(
                        _record("power-rule", f"{tag} ratio={ratio:.2f}", 0.0, 1.0,
                                ok=ratio >= 2.0**1.5)
                    )
    # the right-sided rule J_-^alpha (Z-z)^(xi-1) = Gamma(xi)/Gamma(alpha+xi) (Z-z)^(alpha+xi-1);
    # the grids grade toward a only, so xi = 1.7, singular at b, misses 1e-4 at n = 512
    for alpha in (0.3, 0.5, 0.9):
        for rho in (0.5, 2.0, "hadamard"):
            for xi in (1.0, 2.5):
                grid = make_graded_grid(make_params(alpha, 0.0, rho, 1.0, 2.0), 512)
                dist = grid.nodes_z[-1] - grid.nodes_z
                num = ops.gfi_right(GridFn(grid, 0.0, dist ** (xi - 1.0)), alpha).values
                exact = gamma_ratio(xi, alpha + xi) * dist ** (alpha + xi - 1.0)
                err = float(np.max(np.abs(num - exact)) / np.max(np.abs(exact)))
                records.append(_record("power-rule",
                                       f"right alpha={alpha} rho={rho} xi={xi} accuracy n=512",
                                       err, 1e-4))
    return records


# ----------------------------------------------------------------- semigroup

def run_semigroup() -> list:
    records = []
    n = 1024
    for alpha in (0.3, 0.4, 0.7):
        for beta_o in (0.3, 0.4, 0.7):
            params = make_params(alpha, 0.0, 2.0, 1.0, 2.0)
            grid = make_graded_grid(params, n, max(1.0, 2.0 / min(alpha, beta_o)))
            for name, fn in _TEST_FAMILY:
                f = GridFn.from_z_function(grid, fn)
                lhs = _quadrature(_quadrature(f, beta_o), alpha)
                rhs = _quadrature(f, alpha + beta_o)
                err = weighted_norm(lhs - rhs, 0.0) / weighted_norm(rhs, 0.0)
                records.append(
                    _record("semigroup", f"a={alpha} b={beta_o} f={name}", err, 5e-4)
                )
    return records


# ----------------------------------------------------------------- inversion

def run_inversion() -> list:
    records = []
    n = 1024
    for alpha in (0.3, 0.4, 0.7):
        for beta in (0.0, 0.5, 1.0):
            params = make_params(alpha, beta, 2.0, 1.0, 2.0)
            grid = make_graded_grid(params, n)
            w = 1.0 - params.gamma
            for name, fn in _TEST_FAMILY:
                g = GridFn.from_z_function(grid, fn)
                err = weighted_norm(ops.hk_derivative(ops.gfi_left(g, alpha)) - g, w)
                err /= weighted_norm(g, w)
                records.append(
                    _record("inversion", f"alpha={alpha} beta={beta} g={name}", err, 1e-3)
                )
    return records


# -------------------------------------------------------------------- picard

def _geometric_certificate(report: solver.SolveReport) -> float:
    """Worst ratio residual_k / (w^(k-1) residual_1 (1+slack)) over the run."""
    worst = 0.0
    for w, history in zip(report.contraction_factors, report.residual_history):
        if not history:
            continue
        r1 = history[0]
        if r1 == 0.0:
            continue
        for k, rk in enumerate(history, start=1):
            bound = (w ** (k - 1)) * r1 * 1.2 + 1e-300
            worst = max(worst, rk / bound)
    return worst


def run_picard() -> list:
    return _picard_closed_form() + _picard_iterate_series() + _picard_golden() + _picard_stiff()


def _picard_closed_form() -> list:
    records = []
    for alpha in (0.4, 0.7):
        for beta in (0.0, 0.5, 1.0):
            for rho in (0.5, 1.0, 2.0):
                params = make_params(alpha, beta, rho, 1.0, 2.0)
                gam = params.gamma
                problem = solver.CauchyProblem.linear(params, -1.0, None, 1.0)
                report = solver.picard_solve(
                    problem, solver.SolverConfig(n=1024, tol=1e-9)
                )
                z = report.grid.nodes_z
                exact_reg = ml2(MLQuery(alpha, gam, -(z**alpha)))
                gap = float(np.max(np.abs(report.solution.regular_values - exact_reg)))
                tag = f"alpha={alpha} beta={beta} rho={rho}"
                records.append(_record("picard", f"{tag} closed-form gap", gap, 5e-4))
                records.append(
                    _record("picard", f"{tag} geometric decay",
                            _geometric_certificate(report), 1.0)
                )
    return records


def _picard_iterate_series() -> list:
    # solver iterates against the truncated series, first subinterval, k <= 4;
    # iterate k is what a solve capped at k sweeps leaves there
    records = []
    for alpha, beta in ((0.4, 0.0), (0.7, 0.5), (0.4, 1.0)):
        params = make_params(alpha, beta, 1.0, 1.0, 2.0)
        problem = solver.CauchyProblem.linear(params, -1.0, None, 1.0)
        for k in (1, 2, 3, 4):
            try:
                solver.picard_solve(problem, solver.SolverConfig(n=512, tol=1e-12, max_iters=k))
            except ConvergenceError as exc:
                report = exc.report
            m = int(np.searchsorted(report.grid.nodes_x, report.breakpoints[0], side="right"))
            z = report.grid.nodes_z[:m]
            series = np.zeros_like(z)
            for j in range(1, k + 2):
                series += (-1.0) ** (j - 1) * np.exp(
                    -log_gamma(alpha * j + beta * (1 - alpha))
                ) * z ** (alpha * (j - 1))
            err = float(np.max(np.abs(report.solution.regular_values[:m] - series)))
            records.append(
                _record("picard", f"iterate-series alpha={alpha} beta={beta} k={k}", err, 5e-4)
            )
    return records


def _picard_golden() -> list:
    # frozen linear-problem value (extended-precision oracle)
    records = []
    for entry in _load_golden().get("linear_solution", []):
        params = make_params(entry["alpha"], entry["beta"], entry["rho"], entry["a"], entry["b"])
        source = _source_of_x(entry["source"], params)
        spec = analytic.LinearProblemSpec(params, entry["lambda"], entry["c"], source=source)
        got = analytic.linear_solution(spec, entry["x"])
        ref = float(entry["value"])
        err = abs(got - ref) / max(1.0, abs(ref))
        case = f"linear golden source={entry['source']} x={entry['x']}"
        records.append(_record("picard", case, err, entry["tol"]))
    return records


def _picard_stiff() -> list:
    # 242 and 256 subintervals, every one after the first started from the
    # extrapolated frozen solution
    records = []
    for rho, lam in ((2.0, -5.0), ("hadamard", -8.0)):
        params = make_params(0.5, 0.5, rho, 1.0, 2.0)
        problem = solver.CauchyProblem.linear(params, lam, None, 1.0)
        report = solver.picard_solve(problem, solver.SolverConfig(n=512, tol=1e-10))
        records.append(_record("picard", f"stiff lambda={lam} rho={rho} n=512 geometric decay",
                               _geometric_certificate(report), 1.0))
    return records


# -------------------------------------------------------------- kilbas-saigo

def run_kilbas_saigo() -> list:
    records = []
    for alpha, l, x in ((0.7, 0.4, 0.5), (0.5, 0.8, -1.0), (0.9, 1.2, 1.5)):
        lhs = ml_ks(KSQuery(alpha, l, 1.0, x))
        rhs = math.exp(log_gamma(alpha * l + 1.0)) * ml2(MLQuery(alpha, alpha * l + 1.0, x))
        err = abs(lhs - rhs) / abs(rhs)
        records.append(
            _record("kilbas-saigo", f"telescoping alpha={alpha} l={l} x={x}", err, 1e-10)
        )
    # xi = 0 reduction of the power-weighted solution to the two-parameter form
    for alpha in (0.35, 0.5, 0.65, 0.8):
        for lam in (-1.0, 0.7):
            params = make_params(alpha, 0.0, 1.5, 1.0, 2.0)
            pw = analytic.PowerWeightedSpec(params, lam, 0.0, 1.0)
            hom = analytic.LinearProblemSpec(params, lam, 1.0)
            for x in np.linspace(1.2, 2.0, 3):
                v1 = analytic.power_weighted_solution(pw, float(x))
                v2 = analytic.homogeneous_solution(hom, float(x))
                err = abs(v1 - v2) / abs(v2)
                records.append(
                    _record("kilbas-saigo", f"xi=0 alpha={alpha} lam={lam} x={x:.2f}", err, 1e-8)
                )
    # special-function spot values
    records.append(_record("kilbas-saigo", "E_{1,1}(1) = e",
                           abs(ml2(MLQuery(1.0, 1.0, 1.0)) - math.e) / math.e, 1e-12))
    records.append(_record("kilbas-saigo", "E_{2,1}(1) = cosh 1",
                           abs(ml2(MLQuery(2.0, 1.0, 1.0)) - math.cosh(1.0)) / math.cosh(1.0), 1e-12))
    for beta in (0.5, 1.0, 1.7):
        err = abs(ml2(MLQuery(0.6, beta, 0.0)) - 1.0 / math.gamma(beta)) * math.gamma(beta)
        records.append(_record("kilbas-saigo", f"E_{{a,{beta}}}(0) = 1/Gamma({beta})", err, 1e-12))
    # frozen extended-precision values
    golden = _load_golden()
    for entry in golden.get("ml2", []):
        got = ml2(MLQuery(entry["alpha"], entry["beta"], entry["x"]))
        ref = float(entry["value"])
        err = abs(got - ref) / abs(ref)
        records.append(
            _record("kilbas-saigo",
                    f"golden ml2({entry['alpha']},{entry['beta']},{entry['x']})",
                    err, entry["tol"])
        )
    for entry in golden.get("ml_ks", []):
        got = ml_ks(KSQuery(entry["alpha"], entry["l"], entry["m"], entry["x"]))
        ref = float(entry["value"])
        err = abs(got - ref) / abs(ref)
        records.append(
            _record("kilbas-saigo",
                    f"golden ml_ks({entry['alpha']},{entry['l']},{entry['m']},{entry['x']})",
                    err, entry["tol"])
        )
    return records


# -------------------------------------------------------------------- limits

def run_limits() -> list:
    records = []
    # plain-mode z at rho = 1e-3 approximates the Hadamard (logarithmic) kernel
    params = make_params(0.5, 0.0, 1e-3, 1.0, 2.0)
    xs = np.linspace(1.0, 2.0, 101)
    err = float(np.max(np.abs(z_of_x(params, xs) - np.log(xs))))
    records.append(_record("limits", "plain z at rho=1e-3 vs ln(x/a)", err, 2e-3))
    # rho=1, beta=0: the analytic path reproduces the classical power rule
    for alpha in (0.3, 0.7):
        for xi in (1.0, 1.7):
            params = make_params(alpha, 0.0, 1.0, 1.0, 2.0)
            xs = np.linspace(1.1, 2.0, 9)
            got = ops.power_rule_analytic(xi, alpha, params, xs)
            ref = np.exp(
                np.vectorize(math.lgamma)(xi) - np.vectorize(math.lgamma)(alpha + xi)
            ) * (xs - 1.0) ** (alpha + xi - 1.0)
            err = float(np.max(np.abs(got - ref) / np.abs(ref)))
            records.append(
                _record("limits", f"RL analytic alpha={alpha} xi={xi}", err, 1e-13)
            )
    # and the quadrature path matches it at quadrature tolerance
    params = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
    grid = make_graded_grid(params, 512, 4.0)
    f = GridFn(grid, 0.0, grid.nodes_z**0.7)
    num = _quadrature(f, 0.5).values
    exact = gamma_ratio(1.7, 2.2) * grid.nodes_z**1.2
    err = float(np.max(np.abs(num - exact)) / np.max(np.abs(exact)))
    records.append(_record("limits", "RL quadrature alpha=0.5 xi=1.7", err, 1e-4))
    return records


SUITES = {
    "power-rule": run_power_rule,
    "semigroup": run_semigroup,
    "inversion": run_inversion,
    "picard": run_picard,
    "kilbas-saigo": run_kilbas_saigo,
    "limits": run_limits,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str) -> list:
    """Run one named suite (or 'all'); returns the per-case records."""
    if name == "all":
        records = []
        for fn in SUITES.values():
            records.extend(fn())
        return records
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}") from None
    return fn()


def all_passed(records: list) -> bool:
    return all(r["passed"] for r in records)
