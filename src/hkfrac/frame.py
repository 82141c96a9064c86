"""Parameter bundle, kernel coordinate, graded grids and weighted norms.

Every operator in the package works in the transformed coordinate

    z(x) = (x^rho - a^rho) / rho          (plain kernel mode)
    z(x) = ln(x / a)                      (Hadamard limit mode)

where the power kernel ((x^rho - t^rho)/rho)^(alpha-1) becomes the classical
Abel kernel (z(x) - z(t))^(alpha-1).  The Hadamard limit is a distinct mode,
not a tiny-rho hack: rho -> 0+ in floating point loses all precision in
(x^rho - a^rho)/rho.

Grid functions carry an explicit singular power factor z^sigma so that
members of the weighted space C_{gamma,rho}[a,b] (functions whose product
with z^gamma extends continuously to [a,b]) are represented losslessly: the
function at node i is z_i^sigma * regular_values[i].  The left endpoint a is
excluded from grids; boundary values are obtained by analytic limits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "HADAMARD",
    "HKParams",
    "Grid",
    "GridFn",
    "make_params",
    "z_of_x",
    "x_of_z",
    "make_graded_grid",
    "weighted_norm",
]

HADAMARD = "hadamard"


@dataclass(frozen=True)
class HKParams:
    """Order alpha, type beta, kernel exponent rho and the interval [a, b].

    gamma = alpha + beta*(1 - alpha) is the derived composite parameter that
    governs the solution's singular exponent and the weighted space.
    """

    alpha: float
    beta: float
    rho: Union[float, str]
    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must satisfy 0 < alpha < 1 (got {self.alpha})")
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta must satisfy 0 <= beta <= 1 (got {self.beta})")
        if isinstance(self.rho, str):
            if self.rho != HADAMARD:
                raise ValidationError(
                    f"rho must be a positive number or the string '{HADAMARD}' (got {self.rho!r})"
                )
            if not self.a > 0.0:
                raise ValidationError(f"a must satisfy a > 0 in Hadamard mode (got {self.a})")
        else:
            if not 0.0 < self.rho < math.inf:
                raise ValidationError(f"rho must satisfy rho > 0 and be finite (got {self.rho})")
            if self.a < 0.0 or (self.a == 0.0 and self.rho < 1.0):
                raise ValidationError(
                    f"a must satisfy a > 0 (a = 0 only with rho >= 1) (got a={self.a}, rho={self.rho})"
                )
        if not self.a < self.b < math.inf:
            raise ValidationError(
                f"endpoints must satisfy a < b with b finite (got a={self.a}, b={self.b})"
            )

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta * (1.0 - self.alpha)

    @property
    def is_hadamard(self) -> bool:
        return isinstance(self.rho, str)

    @property
    def z_top(self) -> float:
        """z(b), the length of the interval in the kernel coordinate; the grids end there."""
        a, b = self.a, self.b
        if self.is_hadamard:
            return math.log(b / a)
        if a == 0.0:
            return b**self.rho / self.rho
        return a**self.rho * math.expm1(self.rho * math.log(b / a)) / self.rho

    @property
    def family(self) -> str:
        """Which classical derivative this parameter choice interpolates."""
        if self.is_hadamard:
            if self.beta == 0.0:
                return "Hadamard"
            if self.beta == 1.0:
                return "Caputo-Hadamard"
            return "Hilfer-Hadamard"
        if self.rho == 1.0:
            if self.beta == 0.0:
                return "Liouville" if self.a == 0.0 else "Riemann-Liouville"
            if self.beta == 1.0:
                return "Caputo"
            return "Hilfer"
        if self.beta == 0.0:
            return "generalized (Katugampola)"
        if self.beta == 1.0:
            return "Caputo-type"
        return "Hilfer-Katugampola"


def make_params(alpha: float, beta: float, rho: Union[float, str], a: float, b: float) -> HKParams:
    """Validated construction of the parameter bundle."""
    return HKParams(alpha, beta, rho, a, b)


def _domain_check(params: HKParams, x, lo: float, hi: float, what: str) -> None:
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    xa = np.asarray(x, dtype=float)
    if xa.size and (np.any(xa < lo - slack) or np.any(xa > hi + slack) or not np.all(np.isfinite(xa))):
        raise DomainError(f"{what} outside [{lo}, {hi}]")


def z_of_x(params: HKParams, x):
    """Kernel coordinate z(x); accepts a float or an ndarray."""
    _domain_check(params, x, params.a, params.b, "x")
    xa = np.asarray(x, dtype=float)
    a = params.a
    if params.is_hadamard:
        out = np.log(xa / a)
    elif a == 0.0:
        out = xa**params.rho / params.rho
    else:
        rho = params.rho
        # a^rho * expm1(rho*log(x/a)) / rho is exact as rho -> 0+, where the
        # naive difference (x^rho - a^rho) cancels catastrophically.
        out = a**rho * np.expm1(rho * np.log(xa / a)) / rho
    out = np.maximum(out, 0.0)
    return out if isinstance(x, np.ndarray) else float(out)


def x_of_z(params: HKParams, z):
    """Inverse of :func:`z_of_x`; accepts a float or an ndarray."""
    _domain_check(params, z, 0.0, params.z_top, "z")
    za = np.asarray(z, dtype=float)
    a = params.a
    if params.is_hadamard:
        out = a * np.exp(za)
    elif a == 0.0:
        out = (params.rho * za) ** (1.0 / params.rho)
    else:
        rho = params.rho
        out = a * np.exp(np.log1p(rho * za / a**rho) / rho)
    out = np.clip(out, a, params.b)
    return out if isinstance(z, np.ndarray) else float(out)


@dataclass(frozen=True)
class Grid:
    """Graded mesh over (a, b] in the kernel coordinate.

    Nodes are z_i = z(b) * (i/n)^grading for i = 1..n; the endpoint a itself
    (z = 0) is excluded because weighted functions may blow up there.  The
    x images are nondecreasing; at extreme gradings several leading nodes can
    collapse onto a in double precision even though their z values stay
    distinct -- all quadrature runs in z, where the mesh is strictly graded.
    """

    params: HKParams
    nodes_x: np.ndarray
    nodes_z: np.ndarray
    grading: float
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("nodes_x", "nodes_z"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)  # immutable after construction
            object.__setattr__(self, name, arr)
        zs = self.nodes_z
        if zs.ndim != 1 or zs.size < 1:
            raise ValidationError("grid needs at least one node")
        if not zs[0] > 0.0:
            raise ValidationError("first node must satisfy z > 0 (a is excluded)")
        if np.any(np.diff(zs) <= 0.0):
            raise ValidationError("z nodes must be strictly ascending")
        if self.nodes_x[-1] != self.params.b:
            raise ValidationError("last node must be exactly b")
        # The differencing stencils rely on the grading law z_i = Z (i/n)^g.
        n = zs.size
        expected = zs[-1] * (np.arange(1, n + 1, dtype=float) / n) ** self.grading
        if not np.allclose(zs, expected, rtol=1e-9, atol=0.0):
            raise ValidationError("nodes must follow the grading law z_i = z(b) (i/n)^grading")

    @property
    def n(self) -> int:
        return int(self.nodes_z.size)


def make_graded_grid(params: HKParams, n: int, grading: Union[float, None] = None) -> Grid:
    """Graded grid with z_i = z(b) * (i/n)^grading.

    The default grading max(1, 2/alpha) compensates the z^(alpha-1)-type
    singularities at a that the package's operators and solutions carry.
    """
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValidationError(f"grid size n must be an integer >= 1 (got {n})")
    if grading is None:
        grading = max(1.0, 2.0 / params.alpha)
    if not grading >= 1.0:
        raise ValidationError(f"grading must satisfy grading >= 1 (got {grading})")
    s = np.arange(1, n + 1, dtype=float) / n
    nodes_z = params.z_top * s**grading
    nodes_x = x_of_z(params, nodes_z)
    nodes_x[-1] = params.b
    return Grid(params, nodes_x, nodes_z, float(grading))


@dataclass(frozen=True)
class GridFn:
    """A sampled function z^sigma * regular(z) on a grid.

    ``sigma`` is the singular exponent carried analytically; the represented
    function at node i is nodes_z[i]^sigma * regular_values[i].
    """

    grid: Grid
    sigma: float
    regular_values: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValidationError(f"sigma must be finite (got {self.sigma})")
        vals = np.array(self.regular_values, dtype=float)
        if vals.shape != self.grid.nodes_z.shape:
            raise ValidationError(
                f"regular_values length {vals.shape} does not match node count {self.grid.nodes_z.shape}"
            )
        vals.setflags(write=False)  # immutable after construction
        object.__setattr__(self, "regular_values", vals)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray, sigma: float = 0.0) -> "GridFn":
        """Wrap raw node values; for sigma != 0 the regular part is values / z^sigma."""
        values = np.asarray(values, dtype=float)
        if sigma == 0.0:
            return cls(grid, 0.0, values.copy())
        return cls(grid, sigma, values / grid.nodes_z**sigma)

    @classmethod
    def from_z_function(cls, grid: Grid, fn: Callable, sigma: float = 0.0) -> "GridFn":
        """Sample ``fn`` (a function of z) as the regular part."""
        return cls(grid, sigma, np.asarray(fn(grid.nodes_z), dtype=float))

    @classmethod
    def from_x_function(cls, grid: Grid, fn: Callable, sigma: float = 0.0) -> "GridFn":
        """Sample ``fn`` (a function of x) as the regular part."""
        return cls(grid, sigma, np.asarray(fn(grid.nodes_x), dtype=float))

    @classmethod
    def constant(cls, grid: Grid, value: float, sigma: float = 0.0) -> "GridFn":
        """The pure power value * z^sigma."""
        return cls(grid, sigma, np.full(grid.n, float(value)))

    @property
    def values(self) -> np.ndarray:
        if self.sigma == 0.0:
            return self.regular_values.copy()
        return self.grid.nodes_z**self.sigma * self.regular_values

    @property
    def is_pure_power(self) -> bool:
        """True when the regular part is exactly constant."""
        r = self.regular_values
        return bool(r.size) and bool(np.all(r == r[0]))

    def with_sigma(self, sigma: float) -> "GridFn":
        """Re-express with a different singular exponent (same function)."""
        if sigma == self.sigma:
            return self
        return GridFn(self.grid, sigma, self.regular_values * self.grid.nodes_z ** (self.sigma - sigma))

    def __add__(self, other: "GridFn") -> "GridFn":
        if self.grid is not other.grid and not np.array_equal(self.grid.nodes_z, other.grid.nodes_z):
            raise ValidationError("grid functions live on different grids")
        sigma = min(self.sigma, other.sigma)
        return GridFn(
            self.grid,
            sigma,
            self.with_sigma(sigma).regular_values + other.with_sigma(sigma).regular_values,
        )

    def __sub__(self, other: "GridFn") -> "GridFn":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "GridFn":
        return GridFn(self.grid, self.sigma, self.regular_values * float(scalar))

    __rmul__ = __mul__


def weighted_norm(f: GridFn, mu: float) -> float:
    """max over nodes of |z^mu * z^sigma * regular|, exact for the grid representative."""
    if not 0.0 <= mu < 1.0:  # NaN fails too
        raise ValidationError(f"weight exponent must satisfy 0 <= mu < 1 (got {mu})")
    exponent = mu + f.sigma
    if exponent == 0.0:
        return float(np.max(np.abs(f.regular_values)))
    return float(np.max(np.abs(f.grid.nodes_z**exponent * f.regular_values)))
