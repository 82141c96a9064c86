"""Fractional operators on grid functions.

The left/right generalized integrals, the generalized derivative
D^alpha = delta_rho J^(1-alpha), and the two-parameter derivative of order
alpha and type beta,

    D^(alpha,beta) = J^(beta(1-alpha)) . delta_rho . J^((1-beta)(1-alpha)),

with J^0 = identity by convention (the beta = 0 and beta = 1 edge types need
it).  All integrals are evaluated in the kernel coordinate z, where they take
the classical Abel form

    (J^a f)(z) = 1/Gamma(a) * int_0^z (z - u)^(a-1) g(u) du.

Quadrature is product integration: the kernel is integrated exactly against a
piecewise-linear interpolant of the integrand, which removes the
order-dependent blowup naive rules suffer at the u = z endpoint.  The
singular z^sigma factor of the input is handled by subtracting the leading
pure power r(0) * z^sigma, whose image is known in closed form (the power
rule J^a z^(xi-1) = Gamma(xi)/Gamma(a+xi) z^(a+xi-1)); the remainder vanishes
at the first node and is integrated numerically.

The weights are built on a node array and use only differences of its
nodes.  The right-sided integral at z_i, over [z_i, z_n], is the left one at
-z_i on the reflected nodes -z_n, ..., -z_1, so both sides share one
left-kernel apply, and no integral forms its whole weight matrix.  The
kernel c w^(e-1) with 0 < e < 1 keeps, for each target row, the exact
weights of the panels in its own and the previous block of _BLOCK panels,
and the panels further back are integrated against a sum of exponentials
whose moments carry from block to block (``_CompressedLeft``, cached on the
grid per side and kernel).  Each row block keeps the N_k exponentials its
distance needs, so it costs O(n N_k) time and memory instead of O(n^2): the
median N_k is 75.5 at order 0.5 and 141 at 0.1 for n = 4096, of 140 and 532.
Kernels of several terms (the oracle's Mittag-Leffler expansion) or with
e >= 1 build the rows asked for in blocks of _ROW_BLOCK and keep none.

Every left-sided integral runs through one row-range apply, ``_left_rows``
(core plus weights on target rows [r0, r1), history and active columns
apart): the operators ask for all rows, the closed-form oracle for its last
row alone, the solver for one subinterval's rows.

Pure-power inputs (constant regular part) bypass quadrature entirely via the
analytic rules, which keeps identities like D^a z^(a-1) = 0 exact rather
than approximate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .frame import Grid, GridFn, HKParams, z_of_x
from .specfun import gamma_ratio, log_gamma

__all__ = [
    "gfi_left",
    "gfi_right",
    "gfd",
    "hk_derivative",
    "power_rule_analytic",
    "boundary_coefficient",
    "reconstruct",
]

KernelTerms = Tuple[Tuple[float, float], ...]


def _plain_kernel(order: float) -> KernelTerms:
    return ((math.exp(-log_gamma(order)), float(order)),)


def _snap_exponent(sigma: float) -> float:
    """Collapse ulp-level residue in derived exponents (e.g. (gamma-1) +
    (1-beta)(1-alpha), which cancels only up to rounding) onto exact zero."""
    return 0.0 if abs(sigma) < 1e-12 else sigma


# Target rows per block of the weight build.  At n = 1024-4096, blocks of
# 16-64 rows built about equally fast and blocks of 128-256 up to 2x slower.
_ROW_BLOCK = 32


def _weight_rows(u: np.ndarray, terms: KernelTerms, r0: int, r1: int, out: np.ndarray,
                 col0: int = 0) -> np.ndarray:
    """Rows [r0, r1) of the left product-integration weights on nodes u for sum_c c * w^(e-1).

    Row i integrates over [u_0, u_(i+1)] against node values at u_0, u_1, ...;
    only differences of u enter, so any shift or reflection of the nodes
    that keeps their differences keeps the weights.  Over panel [u_j, u_(j+1)]
    at kernel distances w_far = t - u_j and w_near = t - u_(j+1) from the
    target t, the linear interpolant puts (w_far I0 - I1)/h on the near node
    u_(j+1) and (I1 - w_near I0)/h on the far one, where I_p = (w_far^p -
    w_near^p)/p for p = e, e + 1 is computed as -w_far^p expm1(p
    log(w_near/w_far))/p: stable when w_near ~ w_far, and w_far^p/p on the
    panel ending at the target, where w_near = 0 and expm1(-inf) = -1.  Only
    the panels the rows touch are evaluated, and log(w_near/w_far) is shared
    by both exponents of every term.  The rows are added into ``out``, whose
    column c is node col0 + c, and returned; the panels start at node col0.
    """
    t = u[r0 + 1:r1 + 1, None]
    lo, hi = col0, r1  # the panels j <= i of any row in the range
    if lo >= hi:
        return out
    h = u[lo + 1:hi + 1] - u[lo:hi]
    w_far, w_near = t - u[lo:hi], t - u[lo + 1:hi + 1]
    # a panel past the target gets harmless distances and no weight
    untouched = w_near < 0.0
    np.putmask(w_near, untouched, 0.0)
    np.putmask(w_far, untouched, 1.0)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(w_near / w_far)
    to_near = np.zeros_like(w_far)
    to_far = np.zeros_like(w_far)
    for coef, e in terms:
        i0 = -(w_far**e) * np.expm1(e * log_ratio) / e
        i1 = -(w_far ** (e + 1.0)) * np.expm1((e + 1.0) * log_ratio) / (e + 1.0)
        to_near += coef * ((w_far * i0 - i1) / h)
        to_far += coef * ((i1 - w_near * i0) / h)
    np.putmask(to_near, untouched, 0.0)
    np.putmask(to_far, untouched, 0.0)
    lo, hi = lo - col0, hi - col0
    out[:, lo:hi] += to_far
    out[:, lo + 1:hi + 1] += to_near
    return out


def _left_nodes(grid: Grid) -> np.ndarray:
    """[0, z_1, ..., z_n]; u_0 = 0 is the excluded endpoint a, where the integrands vanish."""
    return np.concatenate(([0.0], grid.nodes_z))


def _right_nodes(grid: Grid) -> np.ndarray:
    """-z_n, ..., -z_1: the right integral at z_i over [z_i, z_n] is the left one at -z_i.

    Negation keeps every difference bit-equal to z_j - z_i, where a shift
    z_n - z would round the tiny panels near a onto each other.
    """
    return -grid.nodes_z[::-1]


def _weight_matrix(grid: Grid, terms: KernelTerms, left_sided: bool) -> np.ndarray:
    """Dense weights with (J f)(z_i) = sum_j W[i, j] f(u_j), the tests' oracle.

    The nodes u are [0, z_1, ..., z_n] on the left and z_1, ..., z_n on the
    right, whose row i integrates over [z_i, z_n]: the left weights on the
    reflected nodes, mirrored, with an empty last row.
    """
    u = _left_nodes(grid) if left_sided else _right_nodes(grid)
    n = u.size - 1
    W = np.zeros((n, n + 1))
    for r0 in range(0, n, _ROW_BLOCK):
        _weight_rows(u, terms, r0, min(r0 + _ROW_BLOCK, n), out=W[r0:r0 + _ROW_BLOCK])
    if left_sided:
        return W
    mirrored = np.zeros((grid.n, grid.n))
    mirrored[:-1] = W[::-1, ::-1]
    return mirrored


# Panels per block of the compressed left kernel.  At n = 4096, blocks of
# 32-128 panels built within 10% of each other.
_BLOCK = 64
# Relative error of the sum of exponentials that replaces the kernel in the
# far field; each of its Gauss rules has one node per decade of it.
_EXP_SUM_TOL = 1e-14
_EXP_SUM_NODES = math.ceil(-math.log10(_EXP_SUM_TOL))
# Nodes with s delta above it have exp(-s w) < _EXP_SUM_TOL/20 at every w >= delta.
_EXP_CUT = 3.0 - math.log(_EXP_SUM_TOL)
# Taylor coefficients of int_0^1 exp(-x r) r dr = sum_m (-x)^m / (m! (m + 2)).
_FAR_SERIES = np.array([1.0 / (math.factorial(m) * (m + 2)) for m in range(18)])


@lru_cache(maxsize=64)
def _gauss_jacobi(e: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule for the weight (1 + x)^(-e) on [-1, 1], 0 <= e < 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    weight's orthogonal polynomials, the weights int (1 + x)^(-e) dx =
    2^(1-e)/(1-e) times the squared first eigenvector components.  e = 0 is
    Gauss-Legendre.
    """
    m = _EXP_SUM_NODES
    k = np.arange(1.0, m)
    diag = np.empty(m)
    diag[0] = -e / (2.0 - e)
    diag[1:] = e * e / ((2.0 * k - e) * (2.0 * k - e + 2.0))
    off = 2.0 * k * (k - e) / ((2.0 * k - e) * np.sqrt((2.0 * k - e + 1.0) * (2.0 * k - e - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (1.0 - e) / (1.0 - e) * vecs[0] ** 2
    x.setflags(write=False)  # cached: shared by every caller
    w.setflags(write=False)
    return x, w


def _exp_sum(e: float, delta: float, z_top: float, coef: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes s, weights om: coef w^(e-1) ~ sum_l om_l exp(-s_l w) on [delta, z_top].

    The quadrature of w^(e-1) = 1/Gamma(1-e) int_0^inf s^(-e) exp(-s w) ds of
    Jiang, Zhang, Zhang & Zhang (CiCP 21 (2017) 650): Gauss-Jacobi with the
    weight s^(-e) on [0, 1/z_top], where s w <= 1, then Gauss-Legendre panels
    of width 2 in log s up to the s where exp(-s delta) is below the
    tolerance.  The error falls about tenfold per node of each rule, so
    _EXP_SUM_NODES = -log10(_EXP_SUM_TOL) nodes per rule hold the relative
    error below it.
    """
    # s = (1 + x)/(2 z_top) maps the weight (1 + x)^(-e) to (2 z_top)^e s^(-e)
    x, w = _gauss_jacobi(e)
    s_jac = 0.5 * (1.0 + x) / z_top
    om_jac = w * (2.0 * z_top) ** (e - 1.0)
    lo, hi = -math.log(z_top), math.log(_EXP_CUT / delta)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / 2.0) + 1)
    nodes, weights = _gauss_jacobi(0.0)
    half = 0.5 * np.diff(edges)[:, None]
    y = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    s = np.concatenate((s_jac, np.exp(y).ravel()))
    om = np.concatenate((om_jac, (half * weights * np.exp((1.0 - e) * y)).ravel()))
    return s, om / math.gamma(1.0 - e) * coef


def _hat_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 exp(-x r) r dr and int_0^1 exp(-x r) (1 - r) dr, for x > 0.

    The first in closed form with expm1 for x >= 1, by its Taylor series
    below, where the closed form cancels; the second as int_0^1 exp(-x r) dr
    less the first, which loses at most a bit since the first is at most
    half of that integral.
    """
    em1 = np.expm1(-x)
    far = np.empty_like(x)
    small = x < 1.0
    big = ~small
    xb = x[big]
    far[big] = (-em1[big] - xb * np.exp(-xb)) / xb**2
    neg = -x[small]
    series = np.full_like(neg, _FAR_SERIES[-1])
    for c in _FAR_SERIES[-2::-1]:
        series *= neg
        series += c
    far[small] = series
    return far, -em1 / x - far


class _CompressedLeft:
    """A kernel as exact near weights plus a far field of exponentials sized per row block.

    ``terms`` is the near kernel; ``exp_sum(delta)`` gives nodes s, ascending,
    and weights om with kernel(w) ~ sum_l om_l exp(-s_l w) for w >= delta.
    With B = _BLOCK panels per block, a target row i in block k keeps the
    exact product-integration weights of blocks k-1 and k: row i - k B of
    ``band[k]``, whose column 0 is node (k-1) B (node 0 for k < 2).  Blocks
    <= k-2 lie at least delta_k, the length of block k-1, from the row, so it
    keeps the N_k nodes with s delta_k <= _EXP_CUT (sized per cluster as in
    McLean, SISC 34 (2012) A3039).  Its far integral is a_i @ M(k)[:N_k], with
    a_i = om exp(-s (z_i - E_(k-2))) row i - k B of ``at_row[k]``, E_b the
    node ending block b, and M(k) the moments of the linear interpolant
    against exp(-s (E_(k-2) - u)) over blocks <= k-2: M(k) = decay[k-2]
    M(k-1) + moments[k-2] @ v, where ``moments[b]`` maps block b's B + 1 node
    values to their moments referred to E_b and decay[b] = exp(-s (E_b -
    E_(b-1))).  Every factor is exp(-s d), d >= 0.  M(k), ``moments[k-2]``
    and ``decay[k-2]`` have the P_k = max_(k' >= k) N_k' columns that later
    rows read: N_k on the left nodes, graded toward a, and all on the
    reflected right ones.  ``rows`` keeps no state; values that freeze from
    node 0 on march M(k) forward in a ``_History``.  Tables are one array per
    block: n-row tables of 4-5 MB at n = 4096 landed in whatever heap hole
    the last solve left, and moved peak RSS by 2.7 MB.
    """

    def __init__(self, u: np.ndarray, terms: KernelTerms, exp_sum):
        B = _BLOCK
        n = u.size - 1
        self.band = [_weight_rows(u, terms, r0, min(r0 + B, n),
                                  np.zeros((min(r0 + B, n) - r0, 2 * B + 1)), col0=max(r0 - B, 0))
                     for r0 in range(0, n, B)]
        self.at_row, self.decay, self.moments, self.width = [None, None], [], [], 0
        n_far = -(-n // B) - 2  # blocks that are far from some row
        if n_far < 1:
            return
        ends = u[B:(n_far + 2) * B:B]  # E_0 .. E_(n_far)
        lengths = np.diff(ends)  # delta_k of row blocks k = 2 .. n_far + 1
        s, om = exp_sum(float(np.min(lengths)))
        counts = np.searchsorted(s, _EXP_CUT / lengths, side="right")  # N_k
        carried = np.maximum.accumulate(counts[::-1])[::-1]  # P_k
        self.width = carried[0]
        steps = np.diff(ends[:n_far], prepend=u[0])
        for b, (N, P) in enumerate(zip(counts, carried)):
            p0 = b * B
            h = np.diff(u[p0:p0 + B + 1])[:, None]
            to_end = h * np.exp(-s[:P] * (ends[b] - u[p0 + 1:p0 + B + 1])[:, None])
            far, near = _hat_moments(s[:P] * h)
            self.moments.append(np.zeros((B + 1, P)))
            self.moments[b][:B] = far * to_end
            self.moments[b][1:] += near * to_end
            self.decay.append(np.exp(-steps[b] * s[:P]))
            targets = u[p0 + 2 * B + 1:p0 + 3 * B + 1, None]  # the rows of block b + 2
            self.at_row.append(om[:N] * np.exp(-s[:N] * (targets - ends[b])))

    def rows(self, r0: int, r1: int, c0: int, residual: np.ndarray,
             history: _History | None = None) -> np.ndarray:
        """Rows [r0, r1) of the operator on ``residual`` at nodes c0, c0 + 1, ....

        Far rows start from M(k) of a ``history`` of these values (c0 = 0, r0 // _BLOCK >= k).
        """
        B = _BLOCK
        k0, k1 = r0 // B, (r1 - 1) // B
        c1 = c0 + residual.size
        off = (k0 - 1) * B if k0 > 1 else 0
        if k0 == k1 and c1 <= off + 2 * B + 1 and (c0 > off or k0 < 2):
            # one row block and no far node: one slice of the band
            return self.band[k0][r0 - k0 * B:r1 - k0 * B, c0 - off:c1 - off] @ residual
        out = np.empty(r1 - r0)
        for k in range(k0, k1 + 1):
            # the band of row block k; later nodes are past its rows' reach
            a, b = max(r0, k * B), min(r1, (k + 1) * B)
            off = (k - 1) * B if k > 1 else 0
            lo = max(c0, off)
            hi = max(lo, min(c1, off + 2 * B + 1))
            out[a - r0:b - r0] = (self.band[k][a - k * B:b - k * B, lo - off:hi - off]
                                  @ residual[lo - c0:hi - c0])
        # the far panels of row block k end at node (k - 1) B
        if k1 < 2 or c0 > (k1 - 1) * B:
            return out
        k, M = (history.k, history.M) if history else (max(-(-c0 // B), 1), np.zeros(self.width))
        if k < k1:  # blocks to fold: the values at nodes 0 .. (k1 - 1) B
            v = np.zeros((k1 - 1) * B + 1)
            v[c0:c0 + residual.size] = residual[:v.size - c0]
        for k in range(k, k1 + 1):
            if k >= max(k0, 2):
                a, b = max(r0, k * B), min(r1, (k + 1) * B)
                far = history.far if history and k == history.k else self._far(k, M)
                out[a - r0:b - r0] += far[a - k * B:b - k * B]
            if k < k1:
                M = self._fold(M, k - 1, v)
        return out

    def _far(self, k: int, M: np.ndarray) -> np.ndarray:
        """The far integrals of row block k, k >= 2, from M = M(k)."""
        return self.at_row[k] @ M[:self.at_row[k].shape[1]]

    def _fold(self, M: np.ndarray, b: int, v: np.ndarray) -> np.ndarray:
        """M(b + 2) from M = M(b + 1) and the values v at nodes 0, 1, ...."""
        decay = self.decay[b]
        return decay * M[:decay.size] + v[b * _BLOCK:(b + 1) * _BLOCK + 1] @ self.moments[b]


class _History:
    """M(k) and row block k's far rows of a grid's left tables, over values frozen from node 0 on.

    ``advance(v, start)`` folds each block in once, when every row from
    ``start`` on reads it, up to k = start // _BLOCK (the marching history of
    Jiang, Zhang, Zhang & Zhang, CiCP 21 (2017) 650).
    """

    def __init__(self, grid: Grid, terms: KernelTerms):
        self.table = _compressed(grid, terms, "left")
        self.k, self.M, self.far = 1, np.zeros(self.table.width), None

    def advance(self, v: np.ndarray, start: int) -> None:
        k = start // _BLOCK
        if k > self.k:
            for b in range(self.k - 1, k - 1):
                self.M = self.table._fold(self.M, b, v)
            self.k, self.far = k, self.table._far(k, self.M)


def _compressed(grid: Grid, terms: KernelTerms, side: str) -> _CompressedLeft | None:
    """The grid's tables of one side's kernel, built on first use; None unless it is c w^(e-1), 0 < e < 1."""
    table = grid._cache.get((side, terms))
    if table is None and len(terms) == 1 and 0.0 < terms[0][1] < 1.0:
        u = _left_nodes(grid) if side == "left" else _right_nodes(grid)
        [(coef, e)] = terms
        table = grid._cache[(side, terms)] = _CompressedLeft(
            u, terms, lambda delta: _exp_sum(e, delta, u[-1] - u[0], coef))
    return table


def _kernel_rows(grid: Grid, terms: KernelTerms, side: str, r0: int, r1: int, c0: int,
                 residual: np.ndarray, history: _History | None = None) -> np.ndarray:
    """Rows [r0, r1) of one side's kernel operator on ``residual`` at nodes c0, c0 + 1, ....

    The nodes are ``_left_nodes`` on the left and the reflected
    ``_right_nodes`` on the right.  A kernel with ``_compressed`` tables goes
    through them (and the ``history``); others build the rows in blocks of
    _ROW_BLOCK, each over the nodes its rows reach, and keep nothing.
    """
    table = grid._cache.get((side, terms)) or _compressed(grid, terms, side)
    if table is not None:
        return table.rows(r0, r1, c0, residual, history)
    u = _left_nodes(grid) if side == "left" else _right_nodes(grid)
    out = np.zeros(r1 - r0)
    for a in range(r0, r1, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, r1)
        c1 = min(c0 + residual.size, b + 1)  # rows below b reach node b at most
        if c1 > c0:
            W = _weight_rows(u, terms, a, b, np.zeros((b - a, b + 1)))
            out[a - r0:b - r0] = W[:, c0:c1] @ residual[:c1 - c0]
    return out


@lru_cache(maxsize=64)
def _core_terms(terms: KernelTerms, sigma: float) -> tuple:
    """(coefficient, exponent) pairs of int_0^z K(z-u) u^sigma du, by the power rule."""
    es = np.array([e for _, e in terms])
    lg = log_gamma(np.concatenate(([sigma + 1.0], es, es + sigma + 1.0)))
    lg_sigma, (lg_e, lg_e_sigma) = lg[0], np.split(lg[1:], 2)
    return tuple((coef * math.exp(lg_a + lg_sigma - lg_b), e + sigma)
                 for (coef, e), lg_a, lg_b in zip(terms, lg_e, lg_e_sigma))


def _core_convolution(terms: KernelTerms, sigma: float, z: np.ndarray) -> np.ndarray:
    """int_0^z K(z-u) u^sigma du for K = sum_c c w^(e-1), via the power rule."""
    out = np.zeros_like(z)
    for coef, p in _core_terms(terms, sigma):
        out += coef * z**p
    return out


def _left_rows(grid: Grid, terms: KernelTerms, r0: int, r1: int, c0: int, residual: np.ndarray,
               core: float = 0.0, sigma: float = 0.0, history: _History | None = None) -> np.ndarray:
    """Rows [r0, r1) of the left kernel operator on core * z^sigma + residual.

    ``residual`` holds the integrand less its core at the integration nodes
    c0, c0 + 1, ... of [0, z_1, ..., z_n], the rest counting as zero, so
    history and active columns can be applied apart (see ``_kernel_rows``).
    """
    out = _kernel_rows(grid, terms, "left", r0, r1, c0, residual, history)
    if core:
        out += core * _core_convolution(terms, sigma, grid.nodes_z[r0:r1])
    return out


def _kernel_apply_left(f: GridFn, terms: KernelTerms, r0: int = 0) -> np.ndarray:
    """Rows [r0, n) of the left-sided kernel operator applied to f.

    The leading power r(0) z^sigma goes in closed form, the rest by product
    integration.  Through a kernel without compressed tables the last row
    alone costs n panels per kernel term.
    """
    if f.sigma <= -1.0:
        raise ValidationError(
            f"singular exponent must satisfy sigma > -1 for integrability (got {f.sigma})"
        )
    grid = f.grid
    z = grid.nodes_z
    lead = float(f.regular_values[0])
    if f.sigma != 0.0:
        rest = f.values - lead * z**f.sigma
    else:
        rest = f.regular_values - lead
    residual = np.concatenate(([0.0], rest))
    if not np.any(residual):
        # pure power: the core convolution is already exact
        return lead * _core_convolution(terms, f.sigma, z[r0:])
    return _left_rows(grid, terms, r0, grid.n, 0, residual, lead, f.sigma)


def gfi_left(f: GridFn, order: float) -> GridFn:
    """Left-sided generalized fractional integral of positive order.

    Pure powers map through the closed-form power rule (output keeps the
    factored representation sigma + order); anything else goes through
    product integration and comes back with the values absorbed (sigma = 0).
    """
    if not order > 0.0:
        raise ValidationError(f"integral order must satisfy order > 0 (got {order})")
    if f.is_pure_power:
        if f.sigma <= -1.0:
            raise ValidationError(
                f"singular exponent must satisfy sigma > -1 for integrability (got {f.sigma})"
            )
        coef = gamma_ratio(f.sigma + 1.0, f.sigma + 1.0 + order)
        return GridFn(f.grid, _snap_exponent(f.sigma + order), f.regular_values * coef)
    return GridFn(f.grid, 0.0, _kernel_apply_left(f, _plain_kernel(order)))


def gfi_right(f: GridFn, order: float) -> GridFn:
    """Right-sided generalized fractional integral of positive order.

    Mirror of :func:`gfi_left` with kernel (z(t) - z(x))^(order-1) on [x, b];
    the integration domain excludes the singular endpoint a, so the node
    values are integrated directly (no singular core to subtract).  Row z_i
    is the left integral at -z_i on the reflected nodes -z_n, ..., -z_1 of
    the values in reverse; the row at b is an empty integral.
    """
    if not order > 0.0:
        raise ValidationError(f"integral order must satisfy order > 0 (got {order})")
    n = f.grid.n
    out = np.zeros(n)
    out[:-1] = _kernel_rows(f.grid, _plain_kernel(order), "right", 0, n - 1, 0, f.values[::-1])[::-1]
    return GridFn(f.grid, 0.0, out)


def _dz_derivative(f: GridFn) -> GridFn:
    """d/dz on the grid: exact for pure powers, second-order stencils otherwise.

    Stencils are centered (one-sided at the two ends) in the grid's uniform
    parameter s = i/n, with the exact chain-rule factor dz/ds of the grading
    law z = Z s^g; on the graded meshes used here this keeps the z^alpha-type
    interior functions smooth in the differencing coordinate.
    """
    grid = f.grid
    if f.is_pure_power:
        if f.sigma == 0.0:
            return GridFn.constant(grid, 0.0)
        return GridFn(grid, _snap_exponent(f.sigma - 1.0), f.regular_values * f.sigma)
    n = grid.n
    if n < 3:
        raise ValidationError("derivative stencils need at least 3 nodes")
    v = f.values
    ds = 1.0 / n
    dvds = np.empty_like(v)
    dvds[1:-1] = (v[2:] - v[:-2]) / (2.0 * ds)
    dvds[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * ds)
    dvds[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * ds)
    s = np.arange(1, n + 1, dtype=float) / n
    g = grid.grading
    z_top = grid.nodes_z[-1]
    dzds = z_top * g * s ** (g - 1.0)
    return GridFn(grid, 0.0, dvds / dzds)


def gfd(f: GridFn, order: float) -> GridFn:
    """Generalized fractional derivative D^order = delta_rho J^(1-order)."""
    if not 0.0 < order < 1.0:
        raise ValidationError(f"derivative order must satisfy 0 < order < 1 (got {order})")
    return _dz_derivative(gfi_left(f, 1.0 - order))


def hk_derivative(f: GridFn) -> GridFn:
    """The derivative of order alpha and type beta of the grid's parameters.

    Composed literally as J^(beta(1-alpha)) . delta_rho . J^((1-beta)(1-alpha));
    for beta = 0 this runs exactly the same operations as
    ``gfd(f, alpha)`` and for beta = 1 it is the Caputo-type operator.
    """
    params = f.grid.params
    o_inner = (1.0 - params.beta) * (1.0 - params.alpha)
    o_outer = params.beta * (1.0 - params.alpha)
    g = gfi_left(f, o_inner) if o_inner > 0.0 else f
    g = _dz_derivative(g)
    return gfi_left(g, o_outer) if o_outer > 0.0 else g


def power_rule_analytic(xi: float, order: float, params: HKParams, x):
    """Closed form J^order z^(xi-1) = Gamma(xi)/Gamma(order+xi) z^(order+xi-1)."""
    if not xi > 0.0:
        raise ValidationError(f"power rule requires xi > 0 (got {xi})")
    if not order >= 0.0:  # NaN fails too
        raise ValidationError(f"power rule requires order >= 0 (got {order})")
    z = z_of_x(params, x)
    return gamma_ratio(xi, order + xi) * z ** (order + xi - 1.0)


def boundary_coefficient(f: GridFn, order: float) -> float:
    """The limit (J^(1-order) f)(a), taken analytically from the representation.

    For f = z^sigma * r(z) the image behaves like
    r(0) Gamma(sigma+1)/Gamma(sigma+2-order) z^(sigma+1-order): the limit is
    0 whenever sigma + 1 - order > 0 (the integral order exceeds the weight),
    finite when the exponent vanishes, and divergent otherwise.
    """
    if not 0.0 < order < 1.0:
        raise ValidationError(f"order must satisfy 0 < order < 1 (got {order})")
    exponent = f.sigma + 1.0 - order
    if exponent > 1e-12:
        return 0.0
    if exponent >= -1e-12:
        return float(f.regular_values[0]) * math.exp(log_gamma(f.sigma + 1.0))
    raise DomainError(
        f"(J^(1-order) f)(a) diverges: sigma + 1 - order = {exponent} < 0"
    )


def reconstruct(f: GridFn, order: float) -> tuple[GridFn, float]:
    """J^order (D^order f) together with the boundary coefficient (J^(1-order) f)(a).

    The two satisfy J^order D^order f = f - coeff/Gamma(order) * z^(order-1),
    which the verification suite exercises.
    """
    coeff = boundary_coefficient(f, order)
    derivative = gfd(f, order)
    if derivative.sigma == 0.0 and not derivative.is_pure_power:
        # D^order f carries a z^(-order) leading behavior whenever the
        # boundary term is active; re-expressing with that exponent lets the
        # integral's singular-core subtraction see it instead of cancelling
        # two huge absorbed values.
        derivative = GridFn.from_values(f.grid, derivative.values, sigma=-order)
    part = gfi_left(derivative, order)
    return part, coeff
