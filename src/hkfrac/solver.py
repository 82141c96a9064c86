"""Picard solver for the fractional Cauchy problem.

The initial value problem

    (D^(alpha,beta) phi)(x) = f(x, phi(x)),   (J^(1-gamma) phi)(a) = c,

with gamma = alpha + beta(1-alpha), is equivalent to the weakly singular
Volterra equation

    phi(x) = c/Gamma(gamma) z^(gamma-1)
             + 1/Gamma(alpha) int_a^x ((x^rho-t^rho)/rho)^(alpha-1) t^(rho-1) f(t, phi(t)) dt,

which is solved by successive approximations phi_k = phi_0 + J^alpha f(., phi_{k-1}).
The integral operator is a contraction on a subinterval (a, x_1] once

    w_1 = A Gamma(gamma)/Gamma(alpha+gamma) z(x_1)^alpha < 1,

where A is a Lipschitz constant of f in its second argument; the solver
splits (a, b] greedily into subintervals whose factors stay at the fixed
target theta = 0.5, iterates each to tolerance in the weighted norm, and
freezes f at the converged iterate into one integrand array over all nodes.
A subinterval ends within two blocks of the compressed kernel, so the far
field of its rows holds frozen nodes only: a cursor folds their moments in
once per block, and those far rows are part of the subinterval's fixed part.
A sweep evaluates the rhs on the current subinterval's nodes only, adds the
source (evaluated once per solve, at the grid's exact z), writes f into the
integrand array, and applies the near band to that array from node 0.

The map is a contraction on each subinterval, so the iteration converges
from any start.  The first subinterval starts from the paper's phi_0; each
later one starts from the quadratic through the last three frozen nodes,
extrapolated over the subinterval (the predictor of the fractional Adams
scheme, Diethelm, Ford & Freed, Nonlinear Dyn. 29 (2002) 3, with the Picard
iteration as corrector).  On a stiff solve that start is far closer than
phi_0, and the sweep count falls by about 60%.

Iterates are stored as grid functions with sigma = gamma - 1 so the singular
factor is carried analytically (the fixed point has exactly this form); only
the regular part is touched by quadrature.

A single solve is single-threaded; distinct problems share no mutable state
and may be solved concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError
from .frame import Grid, GridFn, HKParams, make_graded_grid, x_of_z, z_of_x
from .operators import _band_reach, _compressed, _core_convolution, _History, _plain_kernel
from .specfun import gamma_ratio, log_gamma

__all__ = [
    "CauchyProblem",
    "SolverConfig",
    "SolveReport",
    "contraction_factor",
    "lipschitz_estimate",
    "picard_solve",
]

# Target contraction factor of each subinterval in the greedy splitting.
_THETA = 0.5


@dataclass(frozen=True)
class CauchyProblem:
    """f(x, phi) = rhs(x, phi) + source(x, z), initial weighted value c, optional Lipschitz A.

    ``rhs`` is called with node arrays (x, phi) and must return an array of
    the same shape.  It must be pointwise, each output depending only on the
    same node's x and phi: the solver calls it only on the current
    subinterval's nodes.  The optional ``source`` is called once per solve
    with the grid's ``nodes_x`` and exact ``nodes_z``; wrap a numpy ufunc
    (``lambda x, z: np.cos(x)``), which would take z as its output.  When
    ``lipschitz`` is absent the solver estimates it from ``rhs``; the
    :meth:`linear` / :meth:`power_weighted` constructors set the exact constant.
    """

    params: HKParams
    rhs: Callable
    c: float
    lipschitz: Optional[float] = None
    source: Optional[Callable] = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not math.isfinite(self.c):
            raise ValidationError(f"c must be finite (got {self.c})")
        if self.lipschitz is not None and not 0.0 <= self.lipschitz < math.inf:
            raise ValidationError(f"lipschitz must satisfy 0 <= lipschitz < inf (got {self.lipschitz})")

    @classmethod
    def linear(cls, params: HKParams, lam: float, source: Optional[Callable], c: float) -> "CauchyProblem":
        """f(x, phi) = lam * phi + source(x, z); the Lipschitz constant is |lam|."""
        def rhs(x, phi):
            return lam * phi
        return cls(params, rhs, c, lipschitz=abs(lam), source=source)

    @classmethod
    def power_weighted(cls, params: HKParams, lam: float, xi: float,
                       c: float, source: Optional[Callable] = None) -> "CauchyProblem":
        """f(x, phi) = lam * z^xi * phi (+ source(x, z)); needs xi >= 0 for a Lipschitz bound."""
        if not xi >= 0.0:  # NaN fails too
            raise ValidationError(f"power weight must satisfy xi >= 0 for the solver (got {xi})")
        def rhs(x, phi):
            return lam * z_of_x(params, np.asarray(x, dtype=float)) ** xi * phi
        return cls(params, rhs, c, lipschitz=abs(lam) * params.z_top**xi, source=source)


@dataclass(frozen=True)
class SolverConfig:
    """Grid size, grading, stopping tolerance and sweep cap."""

    n: int = 512
    grading: Optional[float] = None
    tol: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        # written so that NaN fails every check
        if not (isinstance(self.n, numbers.Integral) and self.n >= 8):
            raise ValidationError(f"n must be an integer >= 8 (got {self.n})")
        if not 0.0 < self.tol < math.inf:
            raise ValidationError(f"tol must satisfy 0 < tol < inf (got {self.tol})")
        if not (self.grading is None or 1.0 <= self.grading < math.inf):
            raise ValidationError(f"grading must satisfy 1 <= grading < inf (got {self.grading})")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValidationError(f"max_iters must be an integer >= 1 (got {self.max_iters})")


@dataclass
class SolveReport:
    """The solver's full audit trail.

    residual_history[s][k-1] is the weighted norm ||phi_k - phi_{k-1}|| on
    subinterval s, where phi_0 is the start: the paper's phi_0 on the first
    subinterval and the extrapolated frozen solution on the later ones, so
    residual_history[s][0] for s >= 1 is measured from the prediction.
    contraction_factors[s] is that subinterval's certified factor.
    """

    solution: GridFn
    breakpoints: np.ndarray
    contraction_factors: list
    residual_history: list
    iterations: list
    converged: bool = True

    @property
    def grid(self) -> Grid:
        return self.solution.grid


def contraction_factor(A: float, params: HKParams, x1: float) -> float:
    """w_1 = A Gamma(gamma)/Gamma(alpha+gamma) z(x1)^alpha."""
    if not A >= 0.0:  # NaN fails too
        raise ValidationError(f"Lipschitz constant must satisfy A >= 0 (got {A})")
    z1 = z_of_x(params, x1)
    if not z1 > 0.0:
        raise ValidationError(f"x1 must satisfy a < x1 <= b (got {x1})")
    g = params.gamma
    return A * gamma_ratio(g, params.alpha + g) * z1**params.alpha


def lipschitz_estimate(problem: CauchyProblem) -> float:
    """Sampled Lipschitz constant of f(x, .), inflated by a 1.5 safety factor.

    A constant set on the problem is returned instead.  A slope is skipped
    where f is not finite at either of its two levels, so the estimate is the
    largest finite slope; numpy's warnings for those samples are silenced.
    """
    if problem.lipschitz is not None:
        return float(problem.lipschitz)
    params = problem.params
    n_phi = 13
    n_x = 16
    z_top = params.z_top
    zs = z_top * (np.arange(1, n_x + 1) / n_x) ** 2.0
    xs = x_of_z(params, zs)
    # bracketing box from the free-term scale at mid- and endpoint
    g = params.gamma
    phi0_scale = abs(problem.c) * gamma_ratio(1.0, g) * max(
        (0.5 * z_top) ** (g - 1.0), z_top ** (g - 1.0)
    )
    box = max(1.0, 2.0 * phi0_scale)
    levels = np.linspace(-box, box, n_phi)
    worst = 0.0
    with np.errstate(all="ignore"):
        for lo, hi in zip(levels[:-1], levels[1:]):
            f_lo = np.asarray(problem.rhs(xs, np.full(n_x, lo)), dtype=float)
            f_hi = np.asarray(problem.rhs(xs, np.full(n_x, hi)), dtype=float)
            rise = np.abs(f_hi - f_lo)
            rise = rise[np.isfinite(rise)]
            if rise.size:
                worst = max(worst, float(rise.max()) / (hi - lo))
    return 1.5 * worst


def _snap_breakpoints(grid: Grid, A: float) -> tuple[list, list]:
    """Greedy subinterval end indices on the grid, with their actual factors.

    Each ends before its factor passes theta and within the band reach of its
    start, so every sweep reads the compressed kernel's near band alone.
    """
    params = grid.params
    z = grid.nodes_z
    n = grid.n
    coef = A * gamma_ratio(params.gamma, params.alpha + params.gamma)
    # dz = inf when no factor can pass theta: A = 0, or an A so small that dz would overflow
    dz = math.inf if coef * z[-1] ** params.alpha <= _THETA else (_THETA / coef) ** (1.0 / params.alpha)
    ends = []
    factors = []
    start = 0  # number of frozen nodes; subinterval is z[start:end]
    z_start = 0.0
    while start < n:
        end = min(int(np.searchsorted(z, z_start + dz, side="right")), _band_reach(start))
        end = max(end, start + 1)  # a single panel longer than dz: take it, verify below
        w = coef * (z[end - 1] - z_start) ** params.alpha
        if w >= 1.0:
            raise ConvergenceError(
                "grid too coarse for contraction splitting: a single step has "
                f"factor {w:.3f} >= 1; increase n"
            )
        ends.append(end)
        factors.append(w)
        start = end
        z_start = z[end - 1]
    return ends, factors


def _predicted_start(z: np.ndarray, reg: np.ndarray, start: int, end: int) -> np.ndarray:
    """First iterate on z[start:end]: the frozen regular part extrapolated.

    The quadratic through the last three frozen nodes (the line or constant
    through fewer, when fewer are frozen), in Newton form about the newest.
    """
    lo = max(0, start - 3)
    zs, cs = z[lo:start].tolist()[::-1], reg[lo:start].tolist()[::-1]
    for j in range(1, len(zs)):  # divided differences, in place
        for i in range(len(zs) - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (zs[i] - zs[i - j])
    t = z[start:end]
    out = np.full(end - start, cs[-1])
    for c, zk in zip(cs[-2::-1], zs[-2::-1]):
        out = c + (t - zk) * out
    return out


@np.errstate(over="ignore", invalid="ignore")
def picard_solve(problem: CauchyProblem, config: SolverConfig = SolverConfig()) -> SolveReport:
    """Solve the Cauchy problem by successive approximations.

    On each subinterval the iteration is phi_k = phi_0 + J^alpha f(., phi_{k-1}),
    with the integral over already-frozen subintervals constant across sweeps
    (the known history part of the fixed-point map).  The first subinterval
    starts from phi_0; a later one starts from the quadratic through the last
    three frozen nodes (line or constant through fewer), evaluated on its
    nodes.  The source is evaluated once, on the grid's ``nodes_x`` and
    ``nodes_z``, and a non-finite value raises :class:`DomainError` naming
    its x before any sweep; each sweep adds its slice to the rhs.  Iteration
    stops when the weighted norm ||phi_k - phi_{k-1}||_{1-gamma} falls below
    ``tol``; non-convergence raises :class:`ConvergenceError` carrying the
    partial report.  If the first sweep from a predicted start has a
    non-finite residual (the prediction left the rhs's domain), the
    subinterval reruns once from phi_0.  Otherwise a sweep whose residual is
    not finite ends the solve at once.  At the first sweep from phi_0 a
    non-finite rhs value raises :class:`DomainError` naming its x, and an
    overflow of finite values raises :class:`ConvergenceError` without a
    report; at a later sweep the iterates have diverged, and
    :class:`ConvergenceError` carries the partial report up to the last
    finite iterate.  Numpy's overflow and invalid-value warnings are silenced
    for the whole solve, since the residual check reports them.
    """
    params = problem.params
    grid = make_graded_grid(params, config.n, config.grading)
    z = grid.nodes_z
    x = grid.nodes_x
    n = grid.n
    g = params.gamma
    alpha = params.alpha

    def refuse_nonfinite(name: str, vals: np.ndarray, xs: np.ndarray, where: str) -> None:
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise DomainError(f"{name} is not finite at x = {float(xs[np.argmax(bad)])!r} ({where})")

    source = None
    if problem.source is not None:
        source = np.broadcast_to(np.asarray(problem.source(x, z), dtype=float), (n,))
        refuse_nonfinite("source", source, x, "before the first sweep")

    A = lipschitz_estimate(problem)

    phi0_reg = problem.c * math.exp(-log_gamma(g))
    reg = np.full(n, phi0_reg)

    residual_history: list = []
    iterations: list = []
    ends, factors = [n], []  # what a grid too coarse to split reports

    def partial_report(converged: bool) -> SolveReport:
        return SolveReport(
            solution=GridFn(grid, g - 1.0, reg.copy()),
            breakpoints=x[np.asarray(ends, dtype=int) - 1],
            contraction_factors=list(factors),
            residual_history=[list(r) for r in residual_history],
            iterations=list(iterations),
            converged=converged,
        )

    try:
        ends, factors = _snap_breakpoints(grid, A)
    except ConvergenceError as err:
        err.report = partial_report(False)
        raise

    terms = _plain_kernel(alpha)
    table = _compressed(grid, terms, "left")
    cursor = _History(table)  # the far rows of the frozen columns of v
    core = _core_convolution(terms, g - 1.0, z)  # the integral of z^(gamma-1)
    z_pow_up = z ** (1.0 - g)   # maps values to the weighted (regular) scale
    z_pow_dn = z ** (g - 1.0)
    # the integrand less its singular core fr1 z^(gamma-1), at [0, z_1, ..., z_n]
    v = np.zeros(n + 1)

    def at(s: int, k: int) -> str:
        return f"subinterval {s + 1}, " + (f"sweep {k}" if k else "converged iterate")

    def f_on(xs: np.ndarray, phi: np.ndarray, src: Optional[np.ndarray]) -> np.ndarray:
        f_vals = np.asarray(problem.rhs(xs, phi), dtype=float)
        return f_vals if src is None else f_vals + src

    start, fr1 = 0, 0.0
    for s, end in enumerate(ends):
        history: list = []
        residual_history.append(history)
        xs, dn, up = x[start:end], z_pow_dn[start:end], z_pow_up[start:end]
        src = None if source is None else source[start:end]
        # The far rows of the frozen nodes and the core term are fixed across
        # the sweeps (the far rows are zero on the first subinterval, whose
        # fr1 each sweep sets); a sweep applies the band to v from node 0.
        frozen = cursor.far[start:end] + fr1 * core[start:end]
        # the first subinterval starts from phi_0, a later one from the
        # extrapolated frozen solution
        predicted = s > 0
        if predicted:
            reg[start:end] = _predicted_start(z, reg, start, end)
        converged = False
        k = 1
        while k <= config.max_iters:
            f_vals = f_on(xs, dn * reg[start:end], src)
            if s == 0:
                fr1 = z_pow_up[0] * f_vals[0]
                frozen = fr1 * core[:end]
            v[start + 1:end + 1] = f_vals - fr1 * dn
            new_reg = phi0_reg + up * (frozen + table.near(start, end, v[:end + 1]))
            residual = float(np.abs(new_reg - reg[start:end]).max())
            if not math.isfinite(residual):
                if k == 1 and predicted:
                    # the prediction left the rhs's domain: rerun from phi_0
                    predicted = False
                    reg[start:end] = phi0_reg
                    continue
                if k == 1:
                    # the sweep started from phi_0: a non-finite rhs is the problem's
                    refuse_nonfinite("rhs", f_vals, xs, at(s, k))
                else:
                    iterations.append(k - 1)  # the report keeps iterate k - 1
                raise ConvergenceError(
                    f"Picard iterates overflowed on subinterval {s + 1} (sweep {k})",
                    history=[list(r) for r in residual_history],
                    report=partial_report(False) if k > 1 else None,
                )
            reg[start:end] = new_reg
            history.append(residual)
            if residual <= config.tol:
                converged = True
                iterations.append(k)
                break
            k += 1
        if not converged:
            iterations.append(config.max_iters)
            raise ConvergenceError(
                f"Picard iteration did not reach tol={config.tol} within "
                f"{config.max_iters} sweeps on subinterval {s + 1} "
                f"(last residual {history[-1]:.3e})",
                history=[list(r) for r in residual_history],
                report=partial_report(False),
            )
        if end < n:
            # freeze f at the converged iterate for the later subintervals
            f_vals = f_on(xs, dn * reg[start:end], src)
            refuse_nonfinite("rhs", f_vals, xs, at(s, 0))
            if s == 0:
                fr1 = z_pow_up[0] * f_vals[0]
            v[start + 1:end + 1] = f_vals - fr1 * dn
            cursor.advance(v, end)
        start = end

    return partial_report(True)
