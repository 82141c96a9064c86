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
whose moments carry from block to block (``_CompressedLeft``).  Each row
block keeps the N_k exponentials its distance needs, so it costs O(n N_k)
time instead of O(n^2): the median N_k is 75.5 at order 0.5 and 141 at 0.1
for n = 4096, of 140 and 532.  Kernels of several terms (the oracle's
Mittag-Leffler expansion) or with e >= 1 build the rows asked for in blocks
of _ROW_BLOCK and keep none.

Both sides apply their weights through one row-range apply,
``_kernel_rows`` (target rows [r0, r1)): the operators ask for all rows and
the closed-form oracle for its last row alone.  A compressed apply is the
band part ``_CompressedLeft.near`` plus the far rows of a ``_History``, the
one code that folds moments; both read the values from node 0.  A table
builds each block when a walk first needs it.  The operators' table, cached
on the grid per side and kernel (``_compressed``), keeps every block, so
O(n N_k) memory.  The exponentials' nodes, fixed Chebyshev points on the
low band, are every kernel order's (``_exp_nodes``): only their weights om
carry the order.  So a far block (moments, decays and exponential rows)
depends on the nodes u alone, the grid keeps one far field per side
(``_FarField``) for the tables of every order, and om enters in the fold,
far rows = exps @ (om M): J^(beta(1-alpha)) delta J^((1-beta)(1-alpha)) on
one grid keeps one far field, not one per order.  The Picard solver calls
both parts itself on a table of its own (``_table``), with a field of its
own, that keeps a band block until the solve has passed it and no far
block: its subintervals end within ``_band_reach``, so their far rows stay
fixed, and a sweep makes one band call on its integrand.

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
# The weight brackets go by their series in rm1 where |rm1| max(e, 1) is below
# _SERIES_CUT: _SERIES_TERMS terms leave 2e-16 of the sum, and above the cut
# the closed form's cancellation costs at most about 6e-14 of an entry.  A
# cut below 1/128 leaves most blocks far from a without series entries; 5e-3
# cost 1e-13 per entry.
_SERIES_CUT = 7e-3
_SERIES_TERMS = 7


@lru_cache(maxsize=64)
def _bracket_series(e: float, coef: float) -> np.ndarray:
    """coef a_(K+1), ..., coef a_2 with em1/(e + 1) - em/e = sum_k a_k rm1^k, K = _SERIES_TERMS.

    em = (1 + rm1)^e - 1 and em1 = (1 + rm1)^(e+1) - 1 expand binomially, and
    a_k = C(e, k - 1)/k - C(e, k)/e = C(e, k - 1) (k - 1)/(k e), a_2 = 1/2:
    no coefficient cancels.  Highest first, for Horner.
    """
    j = np.arange(1.0, _SERIES_TERMS + 1.0)  # k - 1
    binom = np.cumprod((e - j + 1.0) / j)  # C(e, j)
    a = (binom * j * coef / ((j + 1.0) * e))[::-1]
    a.setflags(write=False)  # cached: shared by every caller
    return a


def _weight_rows(u: np.ndarray, terms: KernelTerms, r0: int, r1: int, out: np.ndarray,
                 scratch: np.ndarray, col0: int = 0) -> np.ndarray:
    """Rows [r0, r1), at most _BLOCK, of the left product-integration weights for sum_c c * w^(e-1).

    Row i integrates over [u_0, u_(i+1)] against node values at u_0, u_1, ...;
    only differences of u enter.  Panel [u_j, u_(j+1)] of length h lies at
    w_far = t - u_j and w_near = w_far - h from the target t.  With rm1 =
    -h/w_far, L = log1p(rm1), em = expm1(e L) and em1 = expm1((e + 1) L) = em
    (1 + rm1) + rm1, the linear interpolant puts S (em1/(e + 1) - em/e) on the
    near node and S ((1 + rm1) em/e - em1/(e + 1)) on the far one, S = c
    w_far^e w_far/h (w_far^(e+1) would round e + 1): stable when w_near ~
    w_far, exact on the panel ending at t (rm1 = em = em1 = -1), and zero past
    it (j > i, rm1 set to 0).  Both brackets are O(rm1^2) differences of
    O(rm1) terms, so where |rm1| max(e, 1) < _SERIES_CUT (panels much shorter
    than their distance, as near a on a steep grading, where rm1 reaches
    1e-54) the near one is ``_bracket_series`` by Horner and the far one
    rm1 em/e less it.  On graded nodes those entries lead each row, and the
    last row has the most: the series runs over the entries gathered from
    its leading columns.  Eight contiguous arrays hold the work, the first
    8 (r1 - r0)(r1 - col0) entries of ``scratch``, a contiguous array that a
    caller building many blocks reuses (strided views of a wider one took
    1.7x as long on a band's first block).  The rows are added into
    ``out``, whose column c is node col0 + c, col0 <= r0.
    """
    lo, hi, m = col0, r1, r1 - r0  # the panels j <= i of any row in the range
    h = u[lo + 1:hi + 1] - u[lo:hi]
    work = scratch.reshape(-1)[:8 * m * (hi - lo)].reshape(8, m, hi - lo)
    w_far, rm1, log_q, q, em, em1, scale, tmp = work
    np.subtract(u[r0 + 1:r1 + 1, None], u[lo:hi], out=w_far)
    past = _PAST[:m, :m]
    np.copyto(w_far[:, r0 - lo:], 1.0, where=past)
    np.divide(-h, w_far, out=rm1)
    np.copyto(rm1[:, r0 - lo:], 0.0, where=past)
    with np.errstate(divide="ignore"):
        np.log1p(rm1, out=log_q)  # -inf on the panel ending at the target
    np.add(rm1, 1.0, out=q)
    to_far, to_near = out[:, lo - col0:hi - col0], out[:, lo + 1 - col0:hi + 1 - col0]
    cut = None
    for coef, e in terms:
        np.expm1(np.multiply(log_q, e, out=em), out=em)
        np.add(np.multiply(em, q, out=em1), rm1, out=em1)
        np.multiply(np.multiply(np.power(w_far, e, out=scale), w_far, out=scale), 1.0 / h, out=scale)
        em1 *= coef / (e + 1.0)
        em *= coef / e
        np.subtract(np.multiply(em, q, out=tmp), em1, out=tmp)  # the far bracket
        np.subtract(em1, em, out=em1)  # the near bracket
        if cut != _SERIES_CUT / max(e, 1.0):
            cut = _SERIES_CUT / max(e, 1.0)
            # the last row's leading entries: the longest run of them on graded nodes
            p = int(np.count_nonzero(rm1[-1] > -cut))
            if p:
                small = rm1[:, :p] > -cut
                x = rm1[:, :p][small]
        if p:
            a = _bracket_series(e, coef)
            near = np.multiply(x, a[0])
            near += a[1]
            for c in a[2:]:
                near *= x
                near += c
            near *= x
            near *= x
            em1[:, :p][small] = near
            tmp[:, :p][small] = np.subtract(np.multiply(x, em[:, :p][small]), near, out=near)
        to_far += np.multiply(tmp, scale, out=tmp)
        to_near += np.multiply(em1, scale, out=em1)
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
    W, scratch = np.zeros((n, n + 1)), np.empty((8, _ROW_BLOCK, n))
    for r0 in range(0, n, _ROW_BLOCK):
        _weight_rows(u, terms, r0, min(r0 + _ROW_BLOCK, n), W[r0:r0 + _ROW_BLOCK], scratch)
    if left_sided:
        return W
    mirrored = np.zeros((grid.n, grid.n))
    mirrored[:-1] = W[::-1, ::-1]
    return mirrored


# Panels per block of the compressed left kernel.  At n = 4096, blocks of
# 32-128 panels built within 10% of each other.
_BLOCK = 64
_PAST = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)  # [r, c]: panel r0 + c is past row r0 + r
# Relative error of the sum of exponentials that replaces the kernel in the
# far field; each of its two rules has one node per decade of it.
_EXP_SUM_TOL = 1e-14
_EXP_SUM_NODES = math.ceil(-math.log10(_EXP_SUM_TOL))
# Nodes with s delta above it have exp(-s w) < _EXP_SUM_TOL/20 at every w >= delta.
_EXP_CUT = 3.0 - math.log(_EXP_SUM_TOL)
# Taylor coefficients of int_0^1 exp(-x r) r dr = sum_m (-x)^m / (m! (m + 2)).
_FAR_SERIES = np.array([1.0 / (math.factorial(m) * (m + 2)) for m in range(18)])


def _legendre(x: np.ndarray, m: int) -> np.ndarray:
    """P_k(x), k < m, as rows, by the three-term recurrence of the Legendre polynomials."""
    P = np.empty((m, x.size))
    P[0], P[1] = 1.0, x
    for k in range(1, m - 1):
        P[k + 1] = ((2.0 * k + 1.0) * x * P[k] - k * P[k - 1]) / (k + 1.0)
    return P


@lru_cache(maxsize=1)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and weights 2/((1 - x^2) P_m'(x)^2) of the m-point Gauss-Legendre rule.

    Newton's method on P_m; at m = 14 its fourth step moves x by 5e-16.
    Made on first use: made at import with the Chebyshev points, it mapped
    0.5 MB of code into processes that apply no compressed kernel, and
    leggauss's import or Golub-Welsch's eigh maps 0.75 or 0.9 MB into each.
    """
    x = -np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(6):
        P = _legendre(x, m + 1)
        slope = m * (x * P[m] - P[m - 1]) / (x * x - 1.0)
        x = x - P[m] / slope
    return x, 2.0 / ((1.0 - x * x) * slope**2)


def _chebyshev(m: int) -> np.ndarray:
    """The m Chebyshev points on [-1, 1], ascending: the low band's nodes for every order."""
    return -np.cos(np.pi * (np.arange(m) + 0.5) / m)


def _low_weights(e: float) -> np.ndarray:
    """w with sum_l w_l p(x_l) = int_-1^1 ((1 + x)/2)^(-e) p(x) dx at the m Chebyshev points, deg p < m.

    m = _EXP_SUM_NODES.  One solve against the exact moments of P_k, 2/(1 -
    e) prod_(j<k) (-e - j)/(-e + j + 2).  On s w <= 1 the interpolant of
    exp(-s w) errs by at most 2^(1-2m)/m! = 9e-21, so the rule is exact to
    rounding at every order (Gauss-Legendre nodes: 1.1e-14 at e = 0.999).
    """
    m = _EXP_SUM_NODES
    j = np.arange(m - 1.0)
    moments = 2.0 / (1.0 - e) * np.concatenate(([1.0], np.cumprod((-e - j) / (-e + j + 2.0))))
    return np.linalg.solve(_legendre(_chebyshev(m), m), moments)


def _exp_nodes(delta: float, z_top: float) -> tuple[np.ndarray, np.ndarray]:
    """Every order's nodes s on [delta, z_top], ascending, and the log panels' weights in y = log s.

    The Chebyshev points mapped by s = (1 + x)/(2 z_top) onto (0, 1/z_top],
    then Gauss-Legendre panels of width 2 in y from 1/z_top to _EXP_CUT/delta.
    """
    m = _EXP_SUM_NODES
    lo, hi = -math.log(z_top), math.log(_EXP_CUT / delta)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / 2.0) + 1)
    nodes, weights = _gauss_legendre(m)
    half = 0.5 * np.diff(edges)[:, None]
    y = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    return np.concatenate((0.5 * (1.0 + _chebyshev(m)) / z_top, np.exp(y.ravel()))), (half * weights).ravel()


def _exp_sum(e: float, delta: float, z_top: float, coef: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes s, weights om: coef w^(e-1) ~ sum_l om_l exp(-s_l w) on [delta, z_top].

    The quadrature of w^(e-1) = 1/Gamma(1-e) int_0^inf s^(-e) exp(-s w) ds of
    Jiang, Zhang, Zhang & Zhang (CiCP 21 (2017) 650) at the ``_exp_nodes``:
    on [0, 1/z_top], where s w <= 1, the rule of ``_low_weights`` for the
    weight s^(-e), then Gauss-Legendre in log s up to the s where exp(-s
    delta) is below the tolerance.  The error falls about tenfold per node of
    each rule, so _EXP_SUM_NODES = -log10(_EXP_SUM_TOL) nodes per rule hold
    the relative error below it.  Only om depends on e.
    """
    s, weights = _exp_nodes(delta, z_top)
    # s = (1 + x)/(2 z_top) maps ((1 + x)/2)^(-e) dx to 2 z_top^(1-e) s^(-e) ds
    om = np.concatenate((_low_weights(e) * (0.5 * z_top ** (e - 1.0)), weights * s[_EXP_SUM_NODES:] ** (1.0 - e)))
    return s, om / math.gamma(1.0 - e) * coef


def _hat_moments(h: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 exp(-x r) r dr and int_0^1 exp(-x r) (1 - r) dr at x = h_j s_l > 0, s ascending.

    The first is sum_m c_m (-x)^m for x < 1, where the closed form (1 - (1 +
    x) exp(-x))/x^2 cancels, and that form with expm1 above.  When every x is
    below 1 (every block of the left nodes) the terms m >= 3 are one product
    (c_m (-h_j/p)^m) @ ((s_l p)^m), p the power of two at or below max(h), so
    that nothing overflows; Horner adds the first three, which keeps its
    accuracy (the product alone lost 3x).  The second moment is int_0^1
    exp(-x r) dr less the first: the first is at most half of it.
    """
    neg = np.multiply.outer(-h, s)
    em1 = np.expm1(neg)
    h_max = h.max()
    if s[-1] * h_max < 1.0:  # every x is below 1
        p = math.ldexp(1.0, math.frexp(h_max)[1] - 1)
        powers = np.empty((_FAR_SERIES.size - 3, h.size + s.size))  # of -h/p, then of s p
        powers[0] = 1.0
        np.multiply(h, -1.0 / p, out=powers[1, :h.size])
        np.multiply(s, p, out=powers[1, h.size:])
        powers[2:] = powers[1]
        np.multiply.accumulate(powers, out=powers)
        far = (powers[:, :h.size].T * _FAR_SERIES[3:]) @ powers[:, h.size:]
        for coef in _FAR_SERIES[2::-1]:
            far *= neg
            far += coef
    else:  # Horner or the closed form, entry by entry
        far, small = np.empty_like(neg), neg > -1.0
        series, x = np.full(np.count_nonzero(small), _FAR_SERIES[-1]), neg[small]
        for coef in _FAR_SERIES[-2::-1]:
            series *= x
            series += coef
        far[small] = series
        big = ~small
        xb = -neg[big]
        far[big] = (-em1[big] - xb * np.exp(-xb)) / xb**2
    return far, np.subtract(np.divide(em1, neg, out=em1), far, out=em1)


def _far_columns(u: np.ndarray, b: int, end: float, step: float, s: np.ndarray) -> tuple:
    """Far block b's ``moments`` (B + 1, N), ``decay`` (N) and ``exps`` (rows of block b + 2, N) at nodes s.

    ``moments`` map the block's B + 1 node values to their moments against
    exp(-s (end - u)), end = E_b the node ending it; ``decay`` is exp(-s
    step), step = E_b - E_(b-1); ``exps`` is exp(-s (z_i - E_b)) at the rows
    z_i of block b + 2.  None carries a weight om.  Made before the
    temporaries, a kept table's arrays left them at the top of the heap,
    where glibc handed them back and the next block faulted them in again:
    9600 page faults and 1.6x the time of a cold n = 4096 build.
    """
    B = _BLOCK
    p0 = b * B
    h = u[p0 + 1:p0 + B + 1] - u[p0:p0 + B]
    to_end = np.multiply.outer(u[p0 + 1:p0 + B + 1] - end, s)
    np.multiply(np.exp(to_end, out=to_end), h[:, None], out=to_end)
    far, near = _hat_moments(h, s)
    moments = np.empty((B + 1, s.size))
    np.multiply(far, to_end, out=moments[:B])
    moments[B] = 0.0
    moments[1:] += np.multiply(near, to_end, out=near)
    decay = np.exp(-step * s)
    exps = np.multiply.outer(end - u[p0 + 2 * B + 1:p0 + 3 * B + 1], s)
    return moments, decay, np.exp(exps, out=exps)


class _FarField:
    """A side's far field: every far block's ``_far_columns``, which no kernel order enters.

    In ``_exp_sum`` only the weights om depend on the order: the
    ``_exp_nodes`` s, and with them the count N_k of row block k (the nodes
    with s delta_k <= _EXP_CUT) and every ``_far_columns`` array, depend on
    the nodes u alone.  ``far_block`` builds far block b, the N_(b+2)
    columns of its nearest reader, the first time a table of any order folds
    it, and holds it if ``kept``.  The grid keeps one per side for the
    operators' tables (``_table``); the Picard solver makes a private one that
    holds nothing.
    """

    def __init__(self, u: np.ndarray, kept: bool):
        B = _BLOCK
        self.u, self.kept = u, kept
        n_far = -(-(u.size - 1) // B) - 2  # blocks that are far from some row
        self.far = [None] * max(n_far, 0)  # each far block's, while held
        self.counts = []
        if n_far < 1:
            return
        self.ends = u[B:(n_far + 2) * B:B]  # E_0 .. E_(n_far)
        lengths = np.diff(self.ends)  # delta_k of row blocks k = 2 .. n_far + 1
        self.delta = float(np.min(lengths))
        self.s = _exp_nodes(self.delta, u[-1] - u[0])[0]
        self.counts = np.searchsorted(self.s, _EXP_CUT / lengths, side="right").tolist()  # N_k
        self.steps = np.diff(self.ends[:n_far], prepend=u[0])

    def far_block(self, b: int) -> tuple:
        """Far block b's ``_far_columns``, built on first use, held if kept."""
        if self.far[b] is None:
            block = _far_columns(self.u, b, self.ends[b], self.steps[b], self.s[:self.counts[b]])
            if not self.kept:
                return block
            self.far[b] = block
        return self.far[b]


class _CompressedLeft:
    """A kernel as exact near weights plus a far field of exponentials sized per row block.

    ``terms`` is ((c, e),) for c w^(e-1), 0 < e < 1; ``_exp_sum`` gives nodes
    s, ascending, and weights om with c w^(e-1) ~ sum_l om_l exp(-s_l w) for
    w >= delta.  With B = _BLOCK panels per block, a target row i in block k
    keeps the exact product-integration weights of blocks k-1 and k: row i -
    k B of ``band[k]``, whose column 0 is node (k-1) B (node 0 for k < 2).
    Blocks <= k-2 lie at least delta_k, the length of block k-1, from the
    row, so it keeps the N_k nodes with s delta_k <= _EXP_CUT (sized per
    cluster as in McLean, SISC 34 (2012) A3039; the low nodes lie below
    1/z_top and are always kept).  Its far integral is a_i @ (om M(k)), with
    a_i = exp(-s (z_i - E_(k-2))) row i - k B of far block k-2's ``exps``,
    E_b the node ending block b, and M(k) the moments of the linear
    interpolant against exp(-s (E_(k-2) - u)) over blocks <= k-2: M(k) =
    decay M(k-1) + moments @ v, where far block b = k-2's ``moments`` map its
    B + 1 node values to their moments referred to E_b and its ``decay`` is
    exp(-s (E_b - E_(b-1))).  Every factor is exp(-s d), d >= 0.  Far block b
    keeps the N_(b+2) columns of its nearest reader: every row that reads it
    lies delta_(b+2) or more past its end, where a node with s delta_(b+2) >
    _EXP_CUT is below the sum's tolerance.  So M(k) is zero from column N_k
    on, on both sides.

    None of this but om depends on the order: the far blocks are the
    ``_FarField`` ``field`` that every order's table on the nodes shares, and
    the table holds its band blocks and ``om``, which enters in the fold.

    Construction sizes the table and builds no block.  A walk builds each
    band block the first time it needs it, in ``reach``, and each far block
    in the field's ``far_block`` as a ``_History`` folds it.  ``near``
    applies the band.  Each block is an array of its own (n-row tables of 4-5
    MB at n = 4096 landed in whatever heap hole the last solve left, and
    moved peak RSS by 2.7 MB).  What a table holds is its field's ``kept``: a
    kept one, cached on the grid for the operators (``_compressed``), every
    block it has built; the Picard solver's own, each band block until its
    walk has passed it and no far block, so O(B max N_k) memory instead of
    O(n (B + N_k)), 6 MB of RSS in place of 175 MB at n = 65536.
    """

    def __init__(self, field: _FarField, terms: KernelTerms):
        self.field, self.u, self.terms, self.kept = field, field.u, terms, field.kept
        self.n = self.u.size - 1
        self.blocks = -(-self.n // _BLOCK)
        self.band = [None] * self.blocks  # each row block's, while held
        if field.far:
            [(coef, e)] = terms
            self.om = _exp_sum(e, field.delta, self.u[-1] - self.u[0], coef)[1]

    def reach(self, start: int, scratch: np.ndarray) -> None:
        """Build the band blocks of rows [start, _band_reach(start)) that are missing.

        ``scratch`` (8, B, 2 B) is ``_weight_rows``' work space.  A table not
        kept drops the blocks its walk has passed, the two before row start's:
        a walk's starts lie within ``_band_reach`` of each other.
        """
        B, k0 = _BLOCK, start // _BLOCK
        if not self.kept:
            for k in range(max(k0 - 2, 0), k0):
                self.band[k] = None
        for k in range(k0, min(k0 + 2, self.blocks)):
            if self.band[k] is None:
                r0, r1 = k * B, min(k * B + B, self.n)
                self.band[k] = _weight_rows(self.u, self.terms, r0, r1, np.zeros((r1 - r0, 2 * B + 1)),
                                            scratch, col0=max(r0 - B, 0))

    def near(self, r0: int, r1: int, values: np.ndarray) -> np.ndarray:
        """Rows [r0, r1) of the operator on ``values`` at nodes 0, 1, ..., from the bands alone.

        Row block k reads the 2 B + 1 nodes of its band from node max(k - 1, 0) B
        on that ``values`` holds (a row below r1 reaches node r1 at most); one
        row block returns its product uncopied.
        """
        B = _BLOCK
        parts = [np.empty(0)]  # what an empty row range returns
        for k in range(r0 // B, (r1 - 1) // B + 1):
            # conditionals, not max() and min(): every Picard sweep runs this loop
            off = (k - 1) * B if k else 0
            w = values[off:off + 2 * B + 1]
            parts.append(self.band[k][r0 - k * B if r0 > k * B else 0:r1 - k * B, :w.size] @ w)
        return parts[1] if len(parts) == 2 else np.concatenate(parts)


def _band_reach(start: int) -> int:
    """The furthest end of rows [start, end) whose far panels all end by node start: two row blocks."""
    return (start // _BLOCK + 2) * _BLOCK


class _History:
    """The far rows ``far`` of a left ``table`` over values v at nodes 0, 1, ....

    ``advance(v, start)`` has the table ``reach`` start, then folds each
    far block into M(k) once and writes the far rows of each row block k <=
    start // _BLOCK + 1 once: their far panels end by node start, so only
    v[:start + 1] must be final (the marching history of Jiang, Zhang, Zhang
    & Zhang, CiCP 21 (2017) 650).  The field's far blocks carry no weight:
    M(k) folds the node values alone, and the rows are exps @ (om M(k)), so
    an order's far rows are the same arithmetic whichever order built the
    shared blocks.  ``near`` on the same v adds the band rows.  The walk's
    band builds share ``scratch``: fresh temporaries per block, freed at the
    top of the heap, were handed back to the kernel and faulted in again,
    50000 page faults per round of 15 solves.
    """

    def __init__(self, table: _CompressedLeft):
        self.table = table
        self.k, self.far = 2, np.zeros(table.n)
        self.M = np.zeros(max(table.field.counts, default=0))
        self.scratch = np.empty((8, _BLOCK, 2 * _BLOCK))

    def advance(self, v: np.ndarray, start: int) -> None:
        B, table, M = _BLOCK, self.table, self.M
        table.reach(start, self.scratch)
        for k in range(self.k, min(start // B + 2, table.blocks)):
            # M(k) from M(k - 1) and far block k - 2, then the far rows of block k
            moments, decay, exps = table.field.far_block(k - 2)
            N = decay.size
            M[N:] = 0.0
            M[:N] = decay * M[:N] + v[(k - 2) * B:(k - 1) * B + 1] @ moments
            self.far[k * B:(k + 1) * B] = exps @ (table.om[:N] * M[:N])
            self.k = k + 1


def _table(grid: Grid, terms: KernelTerms, side: str, kept: bool) -> _CompressedLeft | None:
    """One side's table of a kernel c w^(e-1), 0 < e < 1, with no block built; None for any other kernel.

    A kept table shares the ``_FarField`` the grid keeps for the side with
    every other kept order; one not kept has a field of its own.
    """
    if len(terms) != 1 or not 0.0 < terms[0][1] < 1.0:
        return None
    field = grid._cache.get(side) if kept else None
    if field is None:
        field = _FarField(_left_nodes(grid) if side == "left" else _right_nodes(grid), kept)
        if kept:
            grid._cache[side] = field
    return _CompressedLeft(field, terms)


def _compressed(grid: Grid, terms: KernelTerms, side: str) -> _CompressedLeft | None:
    """The grid's kept table of one side's kernel, made on first use; None where ``_table`` is."""
    table = grid._cache.get((side, terms))
    if table is None:
        table = _table(grid, terms, side, kept=True)
        if table is not None:
            grid._cache[(side, terms)] = table
    return table


def _kernel_rows(grid: Grid, terms: KernelTerms, side: str, r0: int, r1: int,
                 values: np.ndarray) -> np.ndarray:
    """Rows [r0, r1) of one side's kernel operator on ``values`` at nodes 0, 1, ....

    The nodes are ``_left_nodes`` on the left and the reflected
    ``_right_nodes`` on the right.  A kernel with ``_compressed`` tables goes
    through them, building the blocks they miss before the fold (building as
    it folded cost 5%); others build the rows in blocks of _ROW_BLOCK, each
    over the nodes its rows reach, and keep nothing.
    """
    table = _compressed(grid, terms, side)
    if table is not None:
        scratch = np.empty((8, _BLOCK, 2 * _BLOCK))
        for start in range(0, table.n, 2 * _BLOCK):
            table.reach(start, scratch)
        del scratch  # free for the far blocks' temporaries
        for b in range(len(table.field.far)):
            table.field.far_block(b)
        history = _History(table)
        history.advance(values, table.n)
        return table.near(r0, r1, values) + history.far[r0:r1]
    u = _left_nodes(grid) if side == "left" else _right_nodes(grid)
    out = np.zeros(r1 - r0)
    # one row buffer and scratch for all blocks: new ones faulted in fresh pages each block
    m = min(_ROW_BLOCK, r1 - r0)
    rows, scratch = np.empty((m, r1 + 1)), np.empty((8, m, r1))
    for a in range(r0, r1, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, r1)
        c1 = min(values.size, b + 1)  # rows below b reach node b at most
        W = rows[:b - a, :b + 1]
        W.fill(0.0)
        out[a - r0:b - r0] = _weight_rows(u, terms, a, b, W, scratch)[:, :c1] @ values[:c1]
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


def _kernel_apply_left(f: GridFn, terms: KernelTerms, r0: int = 0) -> np.ndarray:
    """Rows [r0, n) of the left-sided kernel operator applied to f.

    The leading power r(0) z^sigma, sigma > -1, goes in closed form, the rest
    by product integration.  Through a kernel without compressed tables the
    last row alone costs n panels per kernel term.
    """
    grid = f.grid
    z = grid.nodes_z
    lead = float(f.regular_values[0])
    core = lead * _core_convolution(terms, f.sigma, z[r0:])
    residual = np.concatenate(([0.0], f.values - lead * z**f.sigma))
    if not np.any(residual):
        # pure power: the core convolution is already exact
        return core
    return _kernel_rows(grid, terms, "left", r0, grid.n, residual) + core


def gfi_left(f: GridFn, order: float) -> GridFn:
    """Left-sided generalized fractional integral of positive order.

    Pure powers map through the closed-form power rule (output keeps the
    factored representation sigma + order); anything else goes through
    product integration and comes back with the values absorbed (sigma = 0).
    """
    if not 0.0 < order < math.inf:  # NaN fails too
        raise ValidationError(f"integral order must satisfy 0 < order < inf (got {order})")
    if f.sigma <= -1.0:
        raise ValidationError(
            f"singular exponent must satisfy sigma > -1 for integrability (got {f.sigma})"
        )
    if f.is_pure_power:
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
    if not 0.0 < order < math.inf:  # NaN fails too
        raise ValidationError(f"integral order must satisfy 0 < order < inf (got {order})")
    n = f.grid.n
    out = np.zeros(n)
    out[:-1] = _kernel_rows(f.grid, _plain_kernel(order), "right", 0, n - 1, f.values[::-1])[::-1]
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
    ``gfd(f, alpha)`` and for beta = 1 it is the Caputo-type operator.  Its
    stencils divide by the tiny first panels' dz, so a 1-ulp change in its
    inner integrals moves it by 1e-13 to 7e-12 normwise at n = 197-2048.
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
    if not 0.0 <= order < math.inf:  # NaN fails too
        raise ValidationError(f"power rule order must satisfy 0 <= order < inf (got {order})")
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
