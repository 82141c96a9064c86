"""Operations, warm-ups and checks for each case kind.

Every timed operation builds what it needs from scratch: ``hkfrac solve`` and
``picard_solve`` make their own grid, and the operator identities call
``make_graded_grid`` inside the operation, because a ``Grid`` keeps its
weight matrices for as long as it lives.  References are computed apart
from the package (see ``refs``); nothing is compared with a stored copy of
the program's own output.

Operations look the package's entry points up at call time (``cli.main``,
``hkfrac.picard_solve``, ``hkfrac.gfi_left``, ...), so the wrappers a traced
run puts on those module attributes see every call.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hkfrac
from hkfrac import cli

import refs
from cases import A, B, SEMIGROUP_INNER, CaseSpec, Family

# Largest relative error an operation may make against its reference.  The
# solver and operator bounds follow the package's own verify tolerances; the
# oracle bound is the 1e-10 the series evaluators promise.
TOLERANCE = {
    "cli-manufactured": 5e-4,
    "homogeneous": 5e-4,
    "sine-manufactured": 5e-4,
    "oracle-homogeneous": 1e-10,
    "oracle-power-weighted": 1e-10,
    "semigroup": 5e-4,
    "inversion": 1e-3,
    "right-power": 1e-4,
    "reconstruct": 1e-3,
}
WARM_N = 64
WARM_ORACLE_N = 16  # each oracle node is a scalar series call, so fewer suffice


@dataclass
class Case:
    """A case's timed operation and its untimed reference and check.

    ``run`` returns an output that ``error`` turns into the largest relative
    error at the checked nodes; ``prepare`` computes references that cost
    too much to recompute per operation.
    """

    spec: CaseSpec
    run: Callable[[], Any]
    error: Callable[[Any], float]
    prepare: Callable[[], None] = lambda: None
    ref: dict = field(default_factory=dict)

    @property
    def tolerance(self) -> float:
        return TOLERANCE[self.spec.kind]


def params_of(family: Family):
    return hkfrac.make_params(family.alpha, family.beta, family.rho, A, B)


def _fmt(v: float) -> str:
    return repr(float(v))


def _rel_pointwise(got, ref) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


def _rel_normwise(got, ref) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# ------------------------------------------------------------- manufactured

def manufactured_phi(family: Family, c: float, q: float, z):
    """phi = c/Gamma(gamma) z^(gamma-1) + z^q, the exact solution the sources build."""
    g = family.gamma
    return c / math.gamma(g) * np.asarray(z) ** (g - 1.0) + np.asarray(z) ** q


def manufactured_source_expr(family: Family, lam: float, c: float, q: float) -> str:
    """s = Gamma(q+1)/Gamma(q+1-alpha) z^(q-alpha) - lam phi in the CLI expression language.

    D^(alpha,beta) annihilates z^(gamma-1) and maps z^q to the power above, so
    phi solves D phi = lam phi + s with (J^(1-gamma) phi)(a) = c.
    """
    g = family.gamma
    k = refs.derivative_power_factor(q, family.alpha)
    terms = [f"{_fmt(k)}*z^({_fmt(q - family.alpha)})",
             f"{_fmt(-lam)}*z^({_fmt(q)})"]
    free = -lam * c / math.gamma(g)
    terms.append(_fmt(free) if g == 1.0 else f"{_fmt(free)}*z^({_fmt(g - 1.0)})")
    return " + ".join(f"({t})" for t in terms)


def config_text(family: Family, n: int, lam: float, c: float, source: str) -> str:
    return "\n".join([
        f"alpha = {_fmt(family.alpha)}",
        f"beta = {_fmt(family.beta)}",
        f"rho = {family.rho if family.rho == 'hadamard' else _fmt(family.rho)}",
        f"a = {_fmt(A)}",
        f"b = {_fmt(B)}",
        f"c = {_fmt(c)}",
        f"lambda = {_fmt(lam)}",
        f"source = {source}",
        f"n = {n}",
        "tol = 1e-10",
        "",
    ])


def _cli_case(spec: CaseSpec, workdir: Path, n: int) -> Case:
    fam = spec.family
    tag = spec.name.replace("/", "_").replace("=", "")
    config = workdir / f"{tag}-n{n}.cfg"
    out = workdir / f"{tag}-n{n}.csv"
    config.write_text(config_text(fam, n, spec.lam, spec.c,
                                  manufactured_source_expr(fam, spec.lam, spec.c, spec.q)))
    argv = ["solve", "--config", str(config), "--out", str(out)]

    def run():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hkfrac solve exited with {code}")
        return out

    def error(path):
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        rows = table[list(spec.checked)]
        z, phi = rows[:, 1], rows[:, 2]
        return _rel_pointwise(phi, manufactured_phi(fam, spec.c, spec.q, z))

    return Case(spec, run, error)


# --------------------------------------------------------------- library solve

def sine_problem(spec: CaseSpec, lam: float):
    """f(x, phi) = lam sin(phi) + s(x) with s built so the manufactured phi solves it."""
    fam = spec.family
    k = refs.derivative_power_factor(spec.q, fam.alpha)

    def rhs(x, phi):
        z = refs.kernel_z(x, A, fam.rho)
        exact = manufactured_phi(fam, spec.c, spec.q, z)
        return lam * (np.sin(phi) - np.sin(exact)) + k * z ** (spec.q - fam.alpha)

    return hkfrac.CauchyProblem(params_of(fam), rhs, spec.c)


def _library_case(spec: CaseSpec, n: int, lam: float) -> Case:
    fam = spec.family
    if spec.kind == "homogeneous":
        problem = hkfrac.CauchyProblem.linear(params_of(fam), lam, None, spec.c)
        # The linear problem scales with c; a tolerance that scales with it
        # keeps the sweep count, and so the work, independent of the seed.
        config = hkfrac.SolverConfig(n=n, tol=1e-10 * spec.c)
    else:
        problem = sine_problem(spec, lam)
        config = hkfrac.SolverConfig(n=n, tol=1e-10)

    case = Case(spec, lambda: hkfrac.picard_solve(problem, config), error=None)

    def prepare():
        if spec.kind == "homogeneous":
            z = hkfrac.make_graded_grid(params_of(fam), n).nodes_z[list(spec.checked)]
            case.ref["z"] = z
            case.ref["phi"] = refs.homogeneous_reference(fam.alpha, fam.gamma, lam, spec.c, z)

    def error(report):
        if not report.converged:
            return math.inf
        idx = list(spec.checked)
        z = report.grid.nodes_z[idx]
        got = report.solution.values[idx]
        if spec.kind == "homogeneous":
            if not np.array_equal(z, case.ref["z"]):
                return math.inf  # the solve ran on other nodes than the reference
            return _rel_pointwise(got, case.ref["phi"])
        return _rel_pointwise(got, manufactured_phi(fam, spec.c, spec.q, z))

    case.prepare, case.error = prepare, error
    return case


# ---------------------------------------------------------------------- oracle

def _oracle_case(spec: CaseSpec, n: int) -> Case:
    fam = spec.family
    params = params_of(fam)
    grid = hkfrac.make_graded_grid(params, n)
    x = grid.nodes_x
    if spec.kind == "oracle-homogeneous":
        query = hkfrac.LinearProblemSpec(params, spec.lam, spec.c)

        def run():
            return hkfrac.homogeneous_solution(query, x)
    else:
        query = hkfrac.PowerWeightedSpec(params, spec.lam, spec.q, spec.c)

        def run():
            return hkfrac.power_weighted_solution(query, x)

    idx = list(spec.checked)
    case = Case(spec, run, error=None)

    def prepare():
        # the functions take x, so the reference is taken at z(x), not at the grid's z
        zc = refs.kernel_z(x[idx], A, fam.rho)
        if spec.kind == "oracle-homogeneous":
            case.ref["phi"] = refs.homogeneous_reference(fam.alpha, fam.gamma, spec.lam, spec.c, zc)
        else:
            case.ref["phi"] = refs.power_weighted_reference(fam.alpha, spec.q, spec.lam, spec.c, zc)

    case.prepare = prepare
    case.error = lambda values: _rel_pointwise(np.asarray(values)[idx], case.ref["phi"])
    return case


# ------------------------------------------------------------------- operators

def _operator_case(spec: CaseSpec, n: int) -> Case:
    fam = spec.family
    params = params_of(fam)
    alpha, c, q = fam.alpha, spec.c, spec.q
    kind = spec.kind
    idx = list(spec.checked)
    grading = max(1.0, 2.0 / min(alpha, SEMIGROUP_INNER)) if kind == "semigroup" else None

    def fresh_grid():
        return hkfrac.make_graded_grid(params, n, grading)

    if kind == "semigroup":
        # f = c z^q + 1; J^s f = c P(q,s) z^(q+s) + P(0,s) z^s
        def exact(z, s):
            return c * refs.power_rule(q, s) * z ** (q + s) + refs.power_rule(0.0, s) * z**s

        def run():
            grid = fresh_grid()
            f = hkfrac.GridFn(grid, 0.0, c * grid.nodes_z**q + 1.0)
            nested = hkfrac.gfi_left(hkfrac.gfi_left(f, SEMIGROUP_INNER), alpha)
            direct = hkfrac.gfi_left(f, alpha + SEMIGROUP_INNER)
            return grid.nodes_z, nested.values, direct.values

        def error(out):
            z, nested, direct = (v[idx] for v in out)
            ref = exact(z, alpha + SEMIGROUP_INNER)
            return max(_rel_normwise(nested, ref), _rel_normwise(direct, ref))

    elif kind == "inversion":
        # D^(alpha,beta) J^alpha g = g for g = c z^q + 1, in the weighted norm of the space
        w = 1.0 - fam.gamma

        def run():
            grid = fresh_grid()
            g = hkfrac.GridFn(grid, 0.0, c * grid.nodes_z**q + 1.0)
            return grid.nodes_z, hkfrac.hk_derivative(hkfrac.gfi_left(g, alpha)).values

        def error(out):
            z, got = (v[idx] for v in out)
            return _rel_normwise(z**w * got, z**w * (c * z**q + 1.0))

    elif kind == "right-power":
        # J_-^alpha (Z - z)^q = P(q, alpha) (Z - z)^(q + alpha)
        def run():
            grid = fresh_grid()
            dist = grid.nodes_z[-1] - grid.nodes_z
            return dist, hkfrac.gfi_right(hkfrac.GridFn(grid, 0.0, c * dist**q), alpha).values

        def error(out):
            dist, got = (v[idx] for v in out)
            return _rel_normwise(got, c * refs.power_rule(q, alpha) * dist ** (q + alpha))

    else:
        # f = z^(alpha-1) (c + z^q): J^alpha D^alpha f = f - coeff/Gamma(alpha) z^(alpha-1),
        # with coeff = (J^(1-alpha) f)(a) = c Gamma(alpha).
        coeff_exact = c * math.gamma(alpha)

        def run():
            grid = fresh_grid()
            f = hkfrac.GridFn(grid, alpha - 1.0, c + grid.nodes_z**q)
            part, coeff = hkfrac.reconstruct(f, alpha)
            return grid.nodes_z, part.values, coeff

        def error(out):
            z, part, coeff = out
            z, part = z[idx], part[idx]
            w = 1.0 - alpha
            ref = z ** (alpha - 1.0) * (c + z**q)
            got = part + coeff / math.gamma(alpha) * z ** (alpha - 1.0)
            return max(_rel_normwise(z**w * got, z**w * ref), abs(coeff / coeff_exact - 1.0))

    return Case(spec, run, error)


# ------------------------------------------------------------------- assembly

def build_case(spec: CaseSpec, workdir: Path, n: int = 0) -> Case:
    """The case for ``spec``; ``n`` overrides the grid size (warm-ups use a small one)."""
    n = n or spec.n
    if spec.kind == "cli-manufactured":
        return _cli_case(spec, workdir, n)
    if spec.kind in ("homogeneous", "sine-manufactured"):
        # warm-ups run the stiff cases at lambda = -1, which a small grid can split
        lam = spec.lam if n == spec.n else -1.0
        return _library_case(spec, n, lam)
    if spec.kind.startswith("oracle-"):
        return _oracle_case(spec, n)
    return _operator_case(spec, n)


def warm_up(specs: list, workdir: Path) -> None:
    """Run every case once at a small size so first-call costs land in set-up.

    Warm-up outputs are not checked: their references would be reference
    work inside set-up.
    """
    for spec in specs:
        n = WARM_ORACLE_N if spec.kind.startswith("oracle-") else WARM_N
        build_case(spec, workdir, n=n).run()


def run_rounds(cases: list, seconds: float, tracer=None) -> dict:
    """Whole rounds of ``cases`` until ``seconds`` have passed; every output checked.

    An operation that raises counts as failed; one whose error exceeds its
    bound makes the run incorrect.  With a tracer, spans carry the
    operation's id, and each operation of a kind that builds weight matrices
    (all but the oracle) is followed by the gfi_left probe.
    """
    times = {c.spec.name: [] for c in cases}
    errors = {c.spec.name: [] for c in cases}
    case_of_op = {}
    attempted = failed = 0
    correct = True
    t_begin = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_begin < seconds:
        for case in cases:  # one whole round
            name = case.spec.name
            attempted += 1
            if tracer:
                tracer.op = attempted
                case_of_op[attempted] = name
            t0 = time.perf_counter()
            try:
                out = case.run()
            except Exception:
                failed += 1
                print(f"{name}: operation failed", file=sys.stderr)
                traceback.print_exc()
                continue
            times[name].append(time.perf_counter() - t0)
            if tracer:
                if isinstance(out, Path):
                    tracer.count("cli.output_bytes", out.stat().st_size)
                if not case.spec.kind.startswith("oracle-"):
                    tracer.probe_gfi_left(params_of(case.spec.family), case.spec.n,
                                          case.spec.family.alpha)
            err = case.error(out)
            errors[name].append(err)
            if not err <= case.tolerance:
                correct = False
                print(f"{name}: relative error {err:.3e} exceeds {case.tolerance:.1e}",
                      file=sys.stderr)
    return {"times": {k: v for k, v in times.items() if v},
            "errors": {k: v for k, v in errors.items() if v},
            "case_of_op": case_of_op, "attempted": attempted, "failed": failed,
            "correct": correct, "rounds": attempted // len(cases)}
