"""Tests for the fractional operators.

Oracles: the closed-form power rule (gamma ratios through the stdlib where
independence matters), change-of-variables identities, and grid refinement.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hkfrac.errors import DomainError, ValidationError
from hkfrac.frame import GridFn, make_graded_grid, make_params, weighted_norm
from hkfrac.operators import (
    _BLOCK,
    boundary_coefficient,
    gfd,
    gfi_left,
    gfi_right,
    hk_derivative,
    power_rule_analytic,
    reconstruct,
)
from hkfrac.specfun import gamma_ratio, log_gamma


def rl_power(xi, order, z):
    """Independent power-rule reference via stdlib gammas."""
    return math.gamma(xi) / math.gamma(order + xi) * z ** (order + xi - 1.0)


def hat_values(nodes, j):
    vals = np.zeros_like(nodes)
    vals[j] = 1.0
    return vals


def singular_panel_integral(target, p, q, fn, e, points=80):
    """int_p^q (target-u)^(e-1) fn(u) du by Gauss after s = (target-u)^e.

    The substitution removes the endpoint singularity: the integrand becomes
    fn(target - s^(1/e))/e, smooth since 1/e >= 1.
    """
    s_lo, s_hi = (target - q) ** e, (target - p) ** e
    xs, ws = np.polynomial.legendre.leggauss(points)
    s = 0.5 * (s_hi - s_lo) * xs + 0.5 * (s_hi + s_lo)
    return 0.5 * (s_hi - s_lo) * np.sum(ws * fn(target - s ** (1.0 / e))) / e


def mp_weight_row(u, coef, e, i, col0, digits=250):
    """Row i's product-integration weights over panels col0..i in mpmath, at nodes col0..i+1.

    The panel integrals of w^(e-1) times the two hat pieces, in closed form
    at ``digits`` digits from the double nodes: panels 1e-60 long at 1e-24
    from the target cancel 108 digits, so 60 digits are not enough.
    """
    import mpmath

    with mpmath.workdps(digits):
        U = [mpmath.mpf(float(v)) for v in u[col0:i + 2]]
        E, C = mpmath.mpf(float(e)), mpmath.mpf(float(coef))
        out = [mpmath.mpf(0)] * len(U)
        for j in range(len(U) - 1):
            far, near = U[-1] - U[j], U[-1] - U[j + 1]
            pe = far**E - (near**E if near > 0 else 0)
            pe1 = far ** (E + 1) - (near ** (E + 1) if near > 0 else 0)
            h = U[j + 1] - U[j]
            out[j + 1] += C * (far * pe / E - pe1 / (E + 1)) / h
            out[j] += C * (pe1 / (E + 1) - near * pe / E) / h
        return np.array([float(v) for v in out])


def weight_rows(u, terms, r0, r1, out, col0=0):
    """``_weight_rows`` with a work space of its own."""
    from hkfrac.operators import _weight_rows

    return _weight_rows(u, terms, r0, r1, out, np.empty((8, r1 - r0, r1 - col0)), col0)


def walked_table(grid, terms, side):
    """The grid's kept table of one side's kernel after an apply, which builds every block."""
    from hkfrac.operators import _compressed, _kernel_rows

    _kernel_rows(grid, terms, side, 0, grid.n, np.zeros(grid.n + 1))
    return _compressed(grid, terms, side)


def cold_apply_within(op, order, peak_bytes, alpha=0.5):
    """op(f, order) on a fresh n = 4096 grid, whose dense weight matrix alone is 134 MB.

    The grid has the default grading 2/alpha.  f = z - z_1 has no core at
    the first node, so the values are the weights times the node values.
    Asserts the tracemalloc peak of the call is below ``peak_bytes``;
    returns the grid, f and the values.
    """
    g = make_graded_grid(make_params(alpha, 0.5, 2.0, 1.0, 2.0), 4096)
    f = GridFn(g, 0.0, g.nodes_z - g.nodes_z[0])
    tracemalloc.start()
    try:
        got = op(f, order).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_bytes
    return g, f, got


class TestWeightMatrices:
    """The product-integration weights against brute-force quadrature."""

    def test_left_weights_integrate_hat_functions(self):
        from hkfrac.operators import _plain_kernel, _weight_matrix

        p = make_params(0.6, 0.0, 1.5, 1.0, 2.0)
        g = make_graded_grid(p, 12, 3.0)
        order = 0.6
        W = _weight_matrix(g, _plain_kernel(order), left_sided=True)
        padded = np.concatenate(([0.0], g.nodes_z))

        def hat(j):
            def fn(u):
                return np.interp(u, padded, hat_values(padded, j))
            return fn

        for i in (0, 3, 11):
            target = g.nodes_z[i]
            for j in range(i + 2):
                expected = 0.0
                for k in range(i + 1):
                    lo, hi = padded[k], padded[k + 1]
                    expected += singular_panel_integral(target, lo, hi, hat(j), order)
                expected /= math.gamma(order)
                assert W[i, j] == pytest.approx(expected, abs=1e-9)

    def test_right_weights_integrate_hat_functions(self):
        from hkfrac.operators import _plain_kernel, _weight_matrix

        p = make_params(0.6, 0.0, 1.5, 1.0, 2.0)
        g = make_graded_grid(p, 12, 3.0)
        order = 0.45
        W = _weight_matrix(g, _plain_kernel(order), left_sided=False)
        nodes = g.nodes_z

        for i in (0, 5, 10):
            for j in range(i, 12):
                def fn(u, j=j):
                    return np.interp(u, nodes, hat_values(nodes, j))
                expected = 0.0
                for k in range(i, 11):
                    lo, hi = nodes[k], nodes[k + 1]
                    # mirror the kernel: distance measured from the target below
                    expected += singular_panel_integral(
                        -nodes[i], -hi, -lo, lambda v, fn=fn: fn(-v), order
                    )
                expected /= math.gamma(order)
                assert W[i, j] == pytest.approx(expected, abs=1e-9)


class TestBlockedWeightBuild:
    """The row-blocked weight build across block boundaries (n = 3 blocks + 5)."""

    @staticmethod
    def _fresh_weights(side, kernel):
        from hkfrac.analytic import _ml_kernel_terms
        from hkfrac.operators import _ROW_BLOCK, _plain_kernel, _weight_matrix

        g = make_graded_grid(make_params(0.6, 0.0, 1.5, 1.0, 2.0), 3 * _ROW_BLOCK + 5)
        if kernel == "plain":
            terms = _plain_kernel(0.6)
        else:
            terms = _ml_kernel_terms(0.6, -1.5, g.nodes_z[-1])
            assert len(terms) > 10
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the target's own panel takes log(0) silently
            W = _weight_matrix(g, terms, left_sided=side == "left")
        return g, terms, W

    @pytest.mark.parametrize("kernel", ["plain", "ml"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exact_on_linear_functions(self, side, kernel):
        # product integration is exact on c0 + c1 u, at every row
        g, terms, W = self._fresh_weights(side, kernel)
        z = g.nodes_z
        c0, c1 = 0.7, 1.3
        expected = np.zeros_like(z)
        if side == "left":
            got = W @ (c0 + c1 * np.concatenate(([0.0], z)))
            for coef, e in terms:
                expected += coef * (c0 * z**e / e + c1 * z ** (e + 1.0) / (e * (e + 1.0)))
        else:
            got = W @ (c0 + c1 * z)
            span = z[-1] - z
            for coef, e in terms:
                expected += coef * ((c0 + c1 * z) * span**e / e + c1 * span ** (e + 1.0) / (e + 1.0))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_hat_functions_at_block_boundaries(self, side):
        from hkfrac.operators import _ROW_BLOCK

        g, terms, W = self._fresh_weights(side, "plain")
        [(coef, order)] = terms
        nodes = np.concatenate(([0.0], g.nodes_z)) if side == "left" else g.nodes_z
        n_panels = nodes.size - 1
        for i in (_ROW_BLOCK - 1, _ROW_BLOCK, 2 * _ROW_BLOCK - 1, 2 * _ROW_BLOCK):
            target = g.nodes_z[i]
            # the left row integrates panels k <= i, the right row panels k >= i
            touched = range(0, i + 1) if side == "left" else range(i, n_panels)
            for j in range(nodes.size):
                def hat(u, j=j):
                    return np.interp(u, nodes, hat_values(nodes, j))
                expected = 0.0
                for k in (j - 1, j):  # the hat's support
                    if k not in touched:
                        continue
                    lo, hi = nodes[k], nodes[k + 1]
                    if side == "left":
                        expected += singular_panel_integral(target, lo, hi, hat, order)
                    else:
                        expected += singular_panel_integral(
                            -target, -hi, -lo, lambda v, hat=hat: hat(-v), order
                        )
                assert W[i, j] == pytest.approx(coef * expected, abs=1e-9)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_row_ranges_built_alone_equal_the_matrix_rows(self, side):
        from hkfrac.operators import _ROW_BLOCK, _left_nodes, _right_nodes

        g, terms, W = self._fresh_weights(side, "ml")
        n = g.n
        for r0, r1 in ((0, 1), (_ROW_BLOCK - 3, _ROW_BLOCK + 4), (n - 1, n)):
            rows = np.zeros((r1 - r0, W.shape[1]))
            if side == "left":
                weight_rows(_left_nodes(g), terms, r0, r1, rows)
            elif r0 < n - 1:
                # right row i is reflected row n - 2 - i; the row at b stays empty
                r1 = min(r1, n - 1)
                reflected = weight_rows(_right_nodes(g), terms, n - 1 - r1, n - 1 - r0,
                                        np.zeros((r1 - r0, n)))
                rows[:r1 - r0] = reflected[::-1, ::-1]
            assert np.array_equal(rows, W[r0:r0 + rows.shape[0]])

    def test_row_range_apply_adds_the_core_to_the_weights(self):
        from hkfrac.operators import _core_convolution, _kernel_apply_left, _kernel_rows

        g, terms, W = self._fresh_weights("left", "ml")
        z = g.nodes_z
        v = np.concatenate(([0.0], np.cos(3.0 * z)))
        r0, r1 = 40, 60
        np.testing.assert_allclose(_kernel_rows(g, terms, "left", r0, r1, v), W[r0:r1] @ v,
                                   rtol=1e-14, atol=0.0)
        # regular part 0.3 + sin(3 (z - z_1)): the core 0.3 z^(-0.2) plus a residual
        f = GridFn(g, -0.2, 0.3 + np.sin(3.0 * (z - z[0])))
        residual = np.concatenate(([0.0], f.values - 0.3 * z**-0.2))
        want = W[r0:] @ residual + 0.3 * _core_convolution(terms, -0.2, z[r0:])
        np.testing.assert_allclose(_kernel_apply_left(f, terms, r0), want, rtol=1e-14, atol=0.0)

    def test_build_memory_is_the_matrix_plus_one_block(self):
        from hkfrac.operators import _plain_kernel, _weight_matrix

        g = make_graded_grid(make_params(0.5, 0.5, 2.0, 1.0, 2.0), 1024)
        tracemalloc.start()
        try:
            W = _weight_matrix(g, _plain_kernel(0.5), left_sided=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * W.nbytes

    def test_core_convolution_matches_the_per_term_scalar_loop(self):
        from hkfrac.analytic import _ml_kernel_terms
        from hkfrac.operators import _core_convolution

        z = np.linspace(1e-3, 2.0, 9)
        terms = _ml_kernel_terms(0.4, -1.5, 2.0)
        for sigma in (-0.5, 0.0, 0.7):
            ref = np.zeros_like(z)
            for coef, e in terms:
                ref += coef * math.exp(
                    log_gamma(e) + log_gamma(sigma + 1.0) - log_gamma(e + sigma + 1.0)
                ) * z ** (e + sigma)
            assert np.array_equal(_core_convolution(terms, sigma, z), ref)


def _families():
    return {
        "hk": make_params(0.5, 0.5, 2.0, 1.0, 2.0),
        "hilfer": make_params(0.6, 0.4, 1.0, 1.0, 2.0),
        "hadamard": make_params(0.5, 0.5, "hadamard", 1.0, 2.0),
        "katugampola": make_params(0.3, 0.0, 2.0, 1.0, 2.0),
    }


class TestCompressedLeftKernel:
    """Exact near weights plus a sum-of-exponentials far field, against the dense matrix."""

    # as e -> 1 the low band carries most of the sum
    @pytest.mark.parametrize("e", [0.1, 0.3, 0.5, 0.7, 0.9, 0.001, 0.99, 0.999])
    @pytest.mark.parametrize("delta, z_top", [(1e-3, 1.0), (2e-8, 2.5), (1e-12, 0.7)])
    def test_exp_sum_meets_its_relative_bound(self, e, delta, z_top):
        from hkfrac.operators import _EXP_SUM_TOL, _exp_sum

        s, om = _exp_sum(e, delta, z_top)
        w = np.geomspace(delta, z_top, 3000)
        approx = np.exp(-np.outer(w, s)) @ om
        assert np.max(np.abs(approx / w ** (e - 1.0) - 1.0)) <= _EXP_SUM_TOL

    def test_the_log_panels_rule_is_numpys_gauss_legendre(self):
        from hkfrac.operators import _EXP_SUM_NODES, _gauss_legendre

        x, w = np.polynomial.legendre.leggauss(_EXP_SUM_NODES)
        got_x, got_w = _gauss_legendre(_EXP_SUM_NODES)
        assert np.max(np.abs(got_x - x)) <= 4e-16 and np.max(np.abs(got_w / w - 1.0)) <= 2e-14

    def test_hat_moments_match_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        from hkfrac.operators import _hat_moments

        x = np.geomspace(1e-9, 60.0, 400)
        far, near = (m[0] for m in _hat_moments(np.ones(1), x))
        with mpmath.workdps(40):
            for xi, got_far, got_near in zip(x, far, near):
                X = mpmath.mpf(float(xi))
                want_far = (1 - mpmath.exp(-X) * (1 + X)) / X**2
                want_near = (X - 1 + mpmath.exp(-X)) / X**2
                assert abs(got_far - want_far) <= 4e-16 * want_far
                assert abs(got_near - want_near) <= 4e-16 * want_near

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_hat_moments_of_a_block_match_high_precision(self, side):
        # grading 20: a left block's columns all take the matrix product, while on
        # the reflected nodes s h passes 1e20 and the block goes entry by entry
        mpmath = pytest.importorskip("mpmath")
        from hkfrac.operators import _exp_sum, _hat_moments, _left_nodes, _right_nodes

        g = make_graded_grid(make_params(0.1, 0.0, 2.0, 1.0, 2.0), 4096)
        u = _left_nodes(g) if side == "left" else _right_nodes(g)
        h = np.diff(u[_BLOCK:2 * _BLOCK + 1])
        s, _ = _exp_sum(0.1, float(np.min(np.diff(u[::_BLOCK]))), u[-1] - u[0])
        if side == "left":
            s = s[s * np.max(h) < 1.0]  # the columns a left block carries
        x = np.multiply.outer(h, s)
        assert s.size > 100 and (np.max(x) < 1.0 if side == "left" else np.max(x) > 1e20 > 1.0 > np.min(x))
        far, near = _hat_moments(h, s)
        for j in range(0, _BLOCK, 7):
            for xi, got_far, got_near in zip(x[j], far[j], near[j]):
                with mpmath.workdps(40 - 2 * min(0, int(math.log10(xi)))):  # x^2 cancels
                    X = mpmath.mpf(float(xi))
                    want_far = (1 - mpmath.exp(-X) * (1 + X)) / X**2
                    want_near = (X - 1 + mpmath.exp(-X)) / X**2
                    assert abs(got_far - want_far) <= 4e-16 * want_far
                    assert abs(got_near - want_near) <= 4e-16 * want_near

    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("alpha, beta, rho", [(0.5, 0.5, 2.0), (0.1, 0.0, 2.0), (0.6, 1.0, 1.0),
                                                  (0.9, 0.5, "hadamard")])
    def test_band_weights_match_long_double(self, alpha, beta, rho, n):
        # the same formula in long double, where the far-panel cancellation costs 2^-64 w/h
        from hkfrac.operators import _left_nodes, _plain_kernel

        u = _left_nodes(make_graded_grid(make_params(alpha, beta, rho, 1.0, 2.0), n))
        [(coef, e)] = _plain_kernel(alpha)
        U, e_ld = u.astype(np.longdouble), np.longdouble(e)
        for r0 in range(0, n, _BLOCK):
            r1, c0 = r0 + _BLOCK, max(r0 - _BLOCK, 0)
            got = weight_rows(u, ((coef, e),), r0, r1, np.zeros((_BLOCK, r1 - c0 + 1)), col0=c0)
            h = U[c0 + 1:r1 + 1] - U[c0:r1]
            past = np.arange(r0, r1)[:, None] < np.arange(c0, r1)
            w_far = np.where(past, 1, U[r0 + 1:r1 + 1, None] - U[c0:r1])
            rm1 = np.where(past, 0, -h / w_far)
            with np.errstate(divide="ignore"):
                log_q = np.log1p(rm1)
            i0, i1 = -np.expm1(e_ld * log_q) / e_ld, -np.expm1((e_ld + 1) * log_q) / (e_ld + 1)
            scale = np.longdouble(coef) * w_far ** (e_ld + 1) / h
            want = np.zeros_like(got, dtype=np.longdouble)
            want[:, :-1] += scale * (i1 - (1 + rm1) * i0)
            want[:, 1:] += scale * (i0 - i1)
            err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
            assert np.max(err) <= 1e-13

    def test_band_and_dense_weights_match_mpmath_entry_by_entry(self):
        # alpha = 0.1, beta = 0, grading 20: panels 1e-60 long lie 1e-24 to 1
        # from their targets, where the closed-form brackets, differences of
        # O(rm1) terms, cancel to every digit (errors of 4e9 to 3e38 of an
        # entry), which an error relative to the row's largest weight hides
        from hkfrac.operators import _left_nodes, _plain_kernel, _weight_matrix

        n = 1024
        g = make_graded_grid(make_params(0.1, 0.0, 2.0, 1.0, 2.0), n)
        u = _left_nodes(g)
        [(coef, e)] = terms = _plain_kernel(0.1)
        band = walked_table(g, terms, "left").band
        dense = _weight_matrix(g, terms, left_sided=True)
        for i in (64, 95, 127, 960, 991, 1023):  # row blocks 1 and 15
            k = i // _BLOCK
            col0 = (k - 1) * _BLOCK
            for got, want in ((dense[i, :i + 2], mp_weight_row(u, coef, e, i, 0)),
                              (band[k][i - k * _BLOCK, :i + 2 - col0], mp_weight_row(u, coef, e, i, col0))):
                assert np.all(want > 0.0)
                assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("family", ["hk", "hilfer", "hadamard"])
    @pytest.mark.parametrize("n", [3 * _BLOCK + 5, 1000])
    def test_row_ranges_match_the_dense_oracle(self, family, n):
        from hkfrac.operators import (
            _band_reach, _History, _kernel_rows, _plain_kernel, _weight_matrix,
        )

        B = _BLOCK
        p = _families()[family]
        g = make_graded_grid(p, n)
        terms = _plain_kernel(p.alpha)
        W = _weight_matrix(g, terms, left_sided=True)
        v = np.concatenate(([0.0], np.cos(3.0 * g.nodes_z) + np.sin(40.0 * g.nodes_z)))
        table = walked_table(g, terms, "left")

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        def far(values):
            # the far rows of a history over values at every node
            history = _History(table)
            history.advance(values, n)
            return history.far

        close(table.near(0, n, v) + far(v), W @ v)
        # row ranges that cross block boundaries, with values up to their last node
        for r0, r1 in ((0, n), (B - 3, 2 * B + 4), (2 * B - 1, 3 * B + 2), (3 * B, 3 * B + 5),
                       (n // 3, n // 3 + B), (n - 5, n)):
            close(table.near(r0, r1, v[:r1 + 1]) + far(v)[r0:r1], W[r0:r1] @ v)
        # rows within the band reach of a start read every later node in their bands
        for start in (0, B - 1, B, 2 * B + 7, n - 7):
            end = min(_band_reach(start), n)
            tail = v.copy()
            tail[:start + 1] = 0.0
            assert not np.any(far(tail)[start:end])
            close(table.near(start, end, tail[:end + 1]), W[start:end] @ tail)
        # a call whose far values changed is not served from the call before
        r0, r1 = n - 3, n
        before = _kernel_rows(g, terms, "left", r0, r1, v)
        w = v.copy()
        w[5] += 1.0
        after = _kernel_rows(g, terms, "left", r0, r1, w)
        close(after, W[r0:r1] @ w)
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("order", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("family", ["hk", "hilfer", "hadamard", "katugampola"])
    def test_both_sides_match_the_dense_oracle_at_every_order(self, family, order):
        # grading 2/order, the grid a solve of that order builds: the steeper
        # it is, the more the per-block exponential counts differ
        from hkfrac.operators import _kernel_rows, _plain_kernel, _weight_matrix

        n = 1000
        g = make_graded_grid(_families()[family], n, 2.0 / order)
        terms = _plain_kernel(order)
        v = np.cos(3.0 * g.nodes_z) + np.sin(40.0 * g.nodes_z)
        left = np.concatenate(([0.0], v))
        for got, want in (
            (_kernel_rows(g, terms, "left", 0, n, left), _weight_matrix(g, terms, True) @ left),
            (gfi_right(GridFn(g, 0.0, v), order).values, _weight_matrix(g, terms, False) @ v),
        ):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", [1e-6, 0.05, 0.999, 0.999999])
    def test_both_sides_match_the_dense_oracle_at_the_extreme_orders(self, order):
        # the left apply adds the closed-form core of the leading value, as gfi_left does
        from hkfrac.operators import _core_convolution, _plain_kernel, _weight_matrix

        g = make_graded_grid(make_params(0.3, 0.0, 2.0, 1.0, 2.0), 2048)
        z = g.nodes_z
        f = GridFn(g, 0.0, np.cos(3.0 * z) + 1.0)
        terms, lead = _plain_kernel(order), float(f.regular_values[0])
        residual = np.concatenate(([0.0], f.values - lead * z**f.sigma))
        left = lead * _core_convolution(terms, f.sigma, z) + _weight_matrix(g, terms, True) @ residual
        for got, want in (
            (gfi_left(f, order).values, left),
            (gfi_right(f, order).values, _weight_matrix(g, terms, False) @ f.values),
        ):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_each_row_block_keeps_the_exponentials_its_distance_needs(self):
        from hkfrac.operators import (
            _EXP_CUT, _EXP_SUM_NODES, _exp_sum, _left_nodes, _plain_kernel, _right_nodes,
        )

        B, e = _BLOCK, 0.1
        g = make_graded_grid(make_params(e, 0.0, 2.0, 1.0, 2.0), 2048)
        for side, u in (("left", _left_nodes(g)), ("right", _right_nodes(g))):
            field = walked_table(g, _plain_kernel(e), side).field
            moments, decay, exps = zip(*(field.far_block(b) for b in range(len(field.far))))
            lengths = np.diff(u[B::B][:len(moments) + 1])  # of blocks 1, 2, ...
            s, _ = _exp_sum(e, float(lengths.min()), u[-1] - u[0])
            # the field's nodes are every order's
            assert np.array_equal(field.s, s)
            assert np.array_equal(_exp_sum(0.7, float(lengths.min()), u[-1] - u[0])[0], s)
            counts = [block.shape[1] for block in exps]  # N_k of row blocks 2, 3, ...
            assert counts == np.searchsorted(s, _EXP_CUT / lengths, side="right").tolist()
            # every far block keeps the low nodes, which lie at or below 1/z_top
            assert s[_EXP_SUM_NODES - 1] * (u[-1] - u[0]) <= 1.0 and min(counts) > _EXP_SUM_NODES
            # far block b = k - 2 keeps the exponentials of row block k, its nearest reader
            assert [m.shape for m in moments] == [(B + 1, N) for N in counts]
            assert [d.size for d in decay] == counts
            if side == "left":  # blocks grow away from a
                assert counts == sorted(counts, reverse=True) and 3 * counts[-1] < counts[0]
            else:  # the reflected blocks shrink toward a
                assert counts == sorted(counts)

    def test_band_and_far_row_tables_are_one_array_per_row_block(self):
        # n-row arrays of several MB landed in whatever heap hole the last
        # solve left, and moved peak RSS from one process to the next
        from hkfrac.operators import _kernel_rows, _plain_kernel

        B, n = _BLOCK, 3 * _BLOCK + 5
        g = make_graded_grid(_families()["hk"], n)
        _kernel_rows(g, _plain_kernel(0.5), "left", 0, n, np.ones(n + 1))
        table = g._cache[("left", _plain_kernel(0.5))]
        assert list(g._cache) == ["left", ("left", _plain_kernel(0.5))] and table.field is g._cache["left"]
        row_counts = [B, B, B, 5]
        assert [block.shape[0] for block in table.band] == row_counts
        # far block b holds the exponentials of row block b + 2, in its side's field
        assert [exps.shape[0] for _, _, exps in table.field.far] == row_counts[2:]

    def test_an_apply_reuses_the_blocks_its_grid_keeps(self, monkeypatch):
        # reconstruct at order 0.5 applies J^0.5 twice, inside D^0.5 and on
        # its result: a table that kept no blocks would build each one twice
        from hkfrac import operators

        built = {"band": [], "far": []}
        weight_rows = operators._weight_rows

        def band(u, terms, r0, *args, **kwargs):
            built["band"].append(r0 // _BLOCK)
            return weight_rows(u, terms, r0, *args, **kwargs)

        far_block = operators._FarField.far_block

        def far(self, b):
            if self.far[b] is None:
                built["far"].append(b)
            return far_block(self, b)

        monkeypatch.setattr(operators, "_weight_rows", band)
        monkeypatch.setattr(operators._FarField, "far_block", far)
        n = 1000
        g = make_graded_grid(make_params(0.5, 0.0, 2.0, 1.0, 2.0), n)
        z = g.nodes_z
        reconstruct(GridFn(g, -0.5, 0.8 + z**1.5), 0.5)
        blocks = -(-n // _BLOCK)
        assert list(g._cache) == ["left", ("left", operators._plain_kernel(0.5))]
        assert sorted(built["band"]) == list(range(blocks))
        assert sorted(built["far"]) == list(range(blocks - 2))
        built = {"band": [], "far": []}
        gfi_left(GridFn(g, 0.0, np.cos(z)), 0.5)
        assert built == {"band": [], "far": []}

    @pytest.mark.parametrize("family", ["hk", "hilfer", "hadamard"])
    @pytest.mark.parametrize("n", [3 * _BLOCK + 5, 1000])
    def test_exact_on_linear_functions(self, family, n):
        from hkfrac.operators import _kernel_rows, _plain_kernel

        g = make_graded_grid(_families()[family], n)
        z = g.nodes_z
        [(coef, e)] = terms = _plain_kernel(0.45)
        c0, c1 = 0.7, 1.3
        got = _kernel_rows(g, terms, "left", 0, n, c0 + c1 * np.concatenate(([0.0], z)))
        expected = coef * (c0 * z**e / e + c1 * z ** (e + 1.0) / (e * (e + 1.0)))
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_cold_apply_memory_is_far_below_the_dense_matrix(self):
        from hkfrac.operators import _plain_kernel, _weight_matrix

        for order in (0.5, 1.4):
            g, f, got = cold_apply_within(gfi_left, order, 24 * 2**20)
            W = _weight_matrix(g, _plain_kernel(order), left_sided=True)
            np.testing.assert_allclose(got, W @ np.concatenate(([0.0], f.values)), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_cold_apply_at_order_0_1_sizes_its_tables_per_row_block(self, side):
        # grading 20: one sum sized for every row took 39 MB here, and far
        # blocks that all kept every exponential 27 MB on the right
        from hkfrac.operators import _left_nodes, _plain_kernel, _right_nodes

        g, f, got = cold_apply_within(gfi_left if side == "left" else gfi_right, 0.1, 20 * 2**20, alpha=0.1)
        if side == "left":
            u, v = _left_nodes(g), np.concatenate(([0.0], f.values))
        else:  # row r of the reflected apply is the value at node n - 2 - r
            u, v, got = _right_nodes(g), f.values[::-1], got[-2::-1]
        m = u.size - 1  # rows
        for r0, r1 in ((2 * _BLOCK, 2 * _BLOCK + 5), (m // 2, m // 2 + 5), (m - 5, m)):
            want = weight_rows(u, _plain_kernel(0.1), r0, r1, np.zeros((r1 - r0, m + 1))) @ v
            assert np.max(np.abs(got[r0:r1] - want)) <= 1e-13 * np.max(np.abs(got))


class TestCompressedRightKernel:
    """The right integral as the compressed left apply on the reflected nodes -z_n, ..., -z_1."""

    @staticmethod
    def _close(got, want, scale=None):
        assert np.all(np.isfinite(got))
        scale = np.max(np.abs(want)) if scale is None else scale
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_weights_integrate_hat_functions_with_the_far_field_active(self):
        # rows i <= n - 2 - 2 B reach panels two blocks back in the reflected order
        n = 3 * _BLOCK + 5
        g = make_graded_grid(make_params(0.6, 0.0, 1.5, 1.0, 2.0), n, 3.0)
        order = 0.45
        nodes = g.nodes_z
        weights = np.column_stack([gfi_right(GridFn(g, 0.0, hat_values(nodes, j)), order).values
                                   for j in range(n)])
        for i in (0, n - 2 - 2 * _BLOCK, n - 1 - 2 * _BLOCK, n - 2):
            for j in range(i, n):
                def hat(u, j=j):
                    return np.interp(u, nodes, hat_values(nodes, j))
                expected = 0.0
                for k in (j - 1, j):  # the hat's support, within [z_i, z_n]
                    if i <= k < n - 1:
                        expected += singular_panel_integral(
                            -nodes[i], -nodes[k + 1], -nodes[k], lambda v, hat=hat: hat(-v), order
                        )
                expected /= math.gamma(order)
                assert weights[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("grading", [4.0, 2.0 / 0.3, 20.0])
    @pytest.mark.parametrize("family", ["hk", "hilfer", "hadamard", "katugampola"])
    @pytest.mark.parametrize("n", [3 * _BLOCK + 5, 1000])
    def test_matches_the_dense_oracle(self, family, n, grading):
        from hkfrac.operators import _plain_kernel, _weight_matrix

        p = _families()[family]
        g = make_graded_grid(p, n, grading)
        v = np.cos(3.0 * g.nodes_z) + np.sin(40.0 * g.nodes_z)
        W = _weight_matrix(g, _plain_kernel(p.alpha), left_sided=False)
        self._close(gfi_right(GridFn(g, 0.0, v), p.alpha).values, W @ v)

    @pytest.mark.parametrize("grading", [4.0, 2.0 / 0.3, 20.0])
    @pytest.mark.parametrize("family", ["hk", "hilfer", "hadamard", "katugampola"])
    def test_matches_the_dense_oracle_rows_at_4096(self, family, grading):
        # dense rows built alone: the first rows carry the longest far fields
        from hkfrac.operators import _plain_kernel, _right_nodes

        p = _families()[family]
        n = 4096
        g = make_graded_grid(p, n, grading)
        v = np.cos(3.0 * g.nodes_z) + np.sin(40.0 * g.nodes_z)
        got = gfi_right(GridFn(g, 0.0, v), p.alpha).values
        for r0, r1 in ((0, 6), (n // 2 - 3, n // 2 + 3), (n - 7, n - 1)):
            reflected = weight_rows(_right_nodes(g), _plain_kernel(p.alpha),
                                    n - 1 - r1, n - 1 - r0, np.zeros((r1 - r0, n)))
            self._close(got[r0:r1], (reflected @ v[::-1])[::-1], scale=np.max(np.abs(got)))
        assert got[-1] == 0.0

    def test_reflection_keeps_the_tiny_panels_near_a(self):
        # at grading 2/0.3 the first panels are far below the ulp of z_n: the
        # reflected nodes must keep them apart, and the far field must refer
        # to the reflected lower end, not to 0
        from hkfrac.operators import _plain_kernel, _weight_matrix

        p = make_params(0.3, 0.0, 2.0, 1.0, 2.0)
        g = make_graded_grid(p, 2048, 2.0 / 0.3)
        f = GridFn(g, 0.0, np.cos(3.0 * g.nodes_z) + 1.0)
        got = gfi_right(f, 0.5).values  # cold: a fresh grid
        self._close(got, _weight_matrix(g, _plain_kernel(0.5), left_sided=False) @ f.values)

    @pytest.mark.parametrize("order", [1.0, 1.4])
    def test_orders_of_one_and_above_take_the_dense_path(self, order):
        from hkfrac.operators import _CompressedLeft, _FarField, _kernel_rows, _plain_kernel, _weight_matrix

        g = make_graded_grid(make_params(0.5, 0.0, 2.0, 1.0, 2.0), 3 * _BLOCK + 5)
        f = GridFn(g, 0.0, 1.0 + g.nodes_z**2)
        got = gfi_right(f, order).values
        assert not g._cache  # dense rows are built per apply and kept nowhere
        _kernel_rows(g, _plain_kernel(0.5), "right", 0, g.n - 1, f.values[::-1])
        assert [type(table) for table in g._cache.values()] == [_FarField, _CompressedLeft]
        want = _weight_matrix(g, _plain_kernel(order), left_sided=False) @ f.values
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_cold_apply_memory_is_far_below_the_dense_matrix(self):
        from hkfrac.operators import _plain_kernel, _weight_matrix

        for order in (0.5, 1.4):
            g, f, got = cold_apply_within(gfi_right, order, 24 * 2**20)
            W = _weight_matrix(g, _plain_kernel(order), left_sided=False)
            np.testing.assert_allclose(got, W @ f.values, rtol=1e-13, atol=0.0)


class TestSharedFarField:
    """Every kernel order on one side of a grid shares the side's far field."""

    @staticmethod
    def _grid():
        return make_graded_grid(make_params(0.3, 0.0, 2.0, 1.0, 2.0), 2048)

    @pytest.mark.parametrize("op", [gfi_left, gfi_right])
    def test_an_orders_values_do_not_depend_on_the_orders_applied_before(self, op):
        def applied(orders):
            g = self._grid()
            f = GridFn(g, 0.0, np.cos(3.0 * g.nodes_z) + 1.0)
            return {order: op(f, order).values for order in orders}

        runs = applied((0.3, 0.7)), applied((0.7, 0.3)), applied((0.3,)), applied((0.7,))
        for order in (0.3, 0.7):
            got = [run[order] for run in runs if order in run]
            assert all(np.array_equal(got[0], other) for other in got[1:])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_the_second_order_on_a_side_builds_no_far_columns(self, side, monkeypatch):
        from hkfrac import operators

        columns = []
        hat_moments = operators._hat_moments

        def counted(h, s):
            columns.append(s.size)
            return hat_moments(h, s)

        monkeypatch.setattr(operators, "_hat_moments", counted)
        g = self._grid()
        f = GridFn(g, 0.0, np.cos(3.0 * g.nodes_z) + 1.0)
        op = gfi_left if side == "left" else gfi_right
        op(f, 0.3)
        first, columns[:] = list(columns), []
        op(f, 0.7)
        field = g._cache[side]
        # the first order builds the side's far field, one block at a time, and the second nothing
        assert first == field.counts and min(field.counts) > operators._EXP_SUM_NODES
        assert columns == []

    def test_a_multi_order_apply_keeps_one_far_field(self):
        # J^0.4 then D^(0.4,0.3) applies orders 0.4, 0.42 and 0.18 to one grid:
        # a far field per order took 30.5 MB of tracemalloc peak here, one shared
        # 20.1 MB with Gauss-Jacobi columns per order and 18.3 MB without
        g = make_graded_grid(make_params(0.4, 0.3, 2.0, 1.0, 2.0), 4096)
        f = GridFn(g, 0.0, np.cos(3.0 * g.nodes_z) + 1.0)
        tracemalloc.start()
        try:
            hk_derivative(gfi_left(f, 0.4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert [key for key in g._cache if isinstance(key, str)] == ["left"]


class TestPowerRuleAnalytic:
    def test_order_zero_is_identity(self):
        p = make_params(0.5, 0.0, 1.5, 1.0, 2.0)
        xs = np.linspace(1.1, 2.0, 7)
        z = np.asarray([1.5**-1 * (x**1.5 - 1.0) for x in xs])
        got = power_rule_analytic(1.7, 0.0, p, xs)
        assert np.allclose(got, z**0.7, rtol=1e-13)

    def test_half_integral_of_one_at_unit(self):
        p = make_params(0.5, 0.0, 1.0, 0.0, 1.0)
        got = power_rule_analytic(1.0, 0.5, p, 1.0)
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_generic_coefficient(self):
        p = make_params(0.3, 0.0, 2.0, 1.0, 3.0)
        x = 2.0
        z = (x**2 - 1.0) / 2.0
        assert power_rule_analytic(1.7, 0.3, p, x) == pytest.approx(rl_power(1.7, 0.3, z), rel=1e-13)

    def test_validation(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            power_rule_analytic(0.0, 0.5, p, 1.5)
        with pytest.raises(ValidationError):
            power_rule_analytic(1.0, -0.5, p, 1.5)

    @pytest.mark.parametrize("order", [math.inf, math.nan])
    def test_non_finite_order_is_refused_by_name(self, order):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError, match=r"order must satisfy 0 <= order < inf \(got"):
            power_rule_analytic(1.0, order, p, 1.5)


class TestLeftIntegral:
    def test_zero_in_zero_out(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 32)
        out = gfi_left(GridFn.constant(g, 0.0), 0.7)
        assert np.all(out.values == 0.0)

    def test_order_one_is_plain_integration(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 32)
        out = gfi_left(GridFn.constant(g, 1.0), 1.0)
        assert np.max(np.abs(out.values - (g.nodes_x - 1.0))) <= 1e-14

    def test_half_integral_of_one(self):
        p = make_params(0.5, 0.0, 1.0, 0.0, 1.0)
        g = make_graded_grid(p, 64)
        out = gfi_left(GridFn.constant(g, 1.0), 0.5)
        assert out.values[-1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_analytic_path_keeps_factored_form(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 32)
        out = gfi_left(GridFn.constant(g, 2.0, sigma=0.3), 0.5)
        assert out.sigma == pytest.approx(0.8)
        assert out.is_pure_power

    def test_sigma_carried_power_quadrature(self):
        p = make_params(0.3, 0.0, 2.0, 1.0, 2.0)
        g = make_graded_grid(p, 512, max(1.0, 2.0 / 0.3))
        f = GridFn(g, 0.7, np.ones(g.n))
        num = gfi_left(f, 0.3).values
        exact = gamma_ratio(1.7, 2.0) * g.nodes_z
        assert np.max(np.abs(num - exact)) / np.max(np.abs(exact)) <= 1e-4

    def test_sigma_carried_regular_part_quadrature(self):
        # z^0.7 (1 + z) has a non-constant regular part, so it goes through W
        p = make_params(0.3, 0.0, 2.0, 1.0, 2.0)
        g = make_graded_grid(p, 512, max(1.0, 2.0 / 0.3))
        z = g.nodes_z
        out = gfi_left(GridFn(g, 0.7, 1.0 + z), 0.3)
        exact = rl_power(1.7, 0.3, z) + rl_power(2.7, 0.3, z)
        assert out.sigma == 0.0
        assert np.max(np.abs(out.values - exact)) / np.max(np.abs(exact)) <= 1e-4

    @pytest.mark.parametrize("alpha,rho,xi", [(0.5, 1.0, 1.7), (0.3, 0.5, 2.5), (0.9, 2.0, 1.7)])
    def test_quadrature_converges_at_order_three_halves(self, alpha, rho, xi):
        p = make_params(alpha, 0.0, rho, 1.0, 2.0)
        errs = []
        for n in (256, 512):
            g = make_graded_grid(p, n, max(1.0, 2.0 / alpha))
            f = GridFn(g, 0.0, g.nodes_z ** (xi - 1.0))
            num = gfi_left(f, alpha).values
            exact = gamma_ratio(xi, alpha + xi) * g.nodes_z ** (alpha + xi - 1.0)
            errs.append(np.max(np.abs(num - exact)) / np.max(np.abs(exact)))
        assert errs[0] / errs[1] >= 2.0**1.5

    @pytest.mark.parametrize("alpha, bound", [(0.1, 5e-4), (0.15, 5e-5)])
    def test_small_order_power_rule_on_singular_data_node_by_node(self, alpha, bound):
        # z^(alpha-1) (1 + z^alpha) on the default grading 2/alpha: its values
        # span 1e54, so weights accurate only relative to each row's largest
        # miss by 9.5e9 (alpha = 0.1) and 1.2e-2 (alpha = 0.15); accurate
        # ones by 2.0e-4 and 1.8e-5
        g = make_graded_grid(make_params(alpha, 0.0, 2.0, 1.0, 2.0), 1024)
        z = g.nodes_z
        got = gfi_left(GridFn(g, alpha - 1.0, 1.0 + z**alpha), alpha).values
        want = rl_power(alpha, alpha, z) + rl_power(2.0 * alpha, alpha, z)
        assert np.max(np.abs(got - want) / want) <= bound

    def test_validation(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 16)
        with pytest.raises(ValidationError):
            gfi_left(GridFn.constant(g, 1.0), 0.0)
        with pytest.raises(ValidationError):
            gfi_left(GridFn.constant(g, 1.0, sigma=-1.0), 0.5)

    @pytest.mark.parametrize("order", [math.inf, math.nan])
    def test_non_finite_order_is_refused_by_name(self, order):
        # a pure power and a general function: both used to pass the check
        g = make_graded_grid(make_params(0.5, 0.0, 1.0, 1.0, 2.0), 16)
        for f in (GridFn.constant(g, 1.0, sigma=-0.3), GridFn.from_z_function(g, np.cos)):
            with pytest.raises(ValidationError, match=r"order must satisfy 0 < order < inf \(got"):
                gfi_left(f, order)


class TestRightIntegral:
    def test_zero(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 32)
        assert np.all(gfi_right(GridFn.constant(g, 0.0), 0.7).values == 0.0)

    @pytest.mark.parametrize("order", [0.0, math.inf, math.nan])
    def test_order_outside_zero_to_inf_is_refused_by_name(self, order):
        g = make_graded_grid(make_params(0.5, 0.0, 1.0, 1.0, 2.0), 16)
        with pytest.raises(ValidationError, match=r"order must satisfy 0 < order < inf \(got"):
            gfi_right(GridFn.from_z_function(g, np.cos), order)

    @pytest.mark.parametrize("order", [0.5, 1.5])
    def test_a_one_node_grid_gives_the_empty_integral_at_b(self, order):
        g = make_graded_grid(make_params(0.5, 0.0, 2.0, 1.0, 2.0), 1)
        assert gfi_right(GridFn.from_z_function(g, np.cos), order).values.tolist() == [0.0]

    def test_order_one_gives_distance_to_b(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 128, 1.0)
        out = gfi_right(GridFn.constant(g, 1.0), 1.0)
        assert np.max(np.abs(out.values - (2.0 - g.nodes_x))) <= 1e-13

    def test_hadamard_mode_order_one(self):
        p = make_params(0.5, 0.0, "hadamard", 1.0, 2.0)
        g = make_graded_grid(p, 128, 1.0)
        out = gfi_right(GridFn.constant(g, 1.0), 1.0)
        expected = math.log(2.0) - g.nodes_z
        assert np.max(np.abs(out.values - expected)) <= 1e-13

    def test_reflection_matches_left_integral(self):
        # rho = 1 on a uniform grid: the reflected nodes are grid nodes again
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 512, 1.0)
        f = GridFn.from_x_function(g, lambda x: np.exp(x))
        right = gfi_right(f, 0.6).values
        reflected = GridFn.from_x_function(g, lambda x: np.exp(3.0 - x))
        left = gfi_left(reflected, 0.6).values
        got = right[:-1]
        expected = left[::-1][1:]
        assert np.max(np.abs(got - expected)) / np.max(np.abs(got)) <= 1e-3


class TestGeneralizedDerivative:
    def test_zero_rule_is_exact(self):
        for alpha in (0.3, 0.5, 0.8):
            p = make_params(alpha, 0.0, 1.5, 1.0, 2.0)
            g = make_graded_grid(p, 64)
            f = GridFn.constant(g, 1.0, sigma=alpha - 1.0)
            assert np.all(gfd(f, alpha).values == 0.0)

    def test_half_derivative_of_sqrt_is_constant(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 64)
        out = gfd(GridFn.constant(g, 1.0, sigma=0.5), 0.5)
        assert np.allclose(out.values, math.gamma(1.5), rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_left_inverse_of_integral(self, alpha):
        p = make_params(alpha, 0.0, 1.5, 1.0, 2.0)
        g = make_graded_grid(p, 1024)
        smooth = GridFn.from_z_function(g, lambda u: np.exp(u) - 1.0)
        back = gfd(gfi_left(smooth, alpha), alpha)
        w = 1.0 - p.gamma
        assert weighted_norm(back - smooth, w) / weighted_norm(smooth, w) <= 1e-3

    def test_order_validation(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 16)
        with pytest.raises(ValidationError):
            gfd(GridFn.constant(g, 1.0), 1.0)


class TestHKDerivative:
    def test_beta_zero_is_bit_for_bit_gfd(self):
        p = make_params(0.6, 0.0, 2.0, 1.0, 2.0)
        g = make_graded_grid(p, 128)
        f = GridFn.from_z_function(g, lambda u: np.cos(u))
        assert np.array_equal(hk_derivative(f).values, gfd(f, 0.6).values)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_annihilates_the_singular_power(self, beta):
        p = make_params(0.6, beta, 2.0, 1.0, 2.0)
        g = make_graded_grid(p, 64)
        f = GridFn.constant(g, 3.3, sigma=p.gamma - 1.0)
        assert np.all(hk_derivative(f).values == 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_left_inverse_of_integral(self, beta):
        p = make_params(0.5, beta, 1.5, 1.0, 2.0)
        g = make_graded_grid(p, 1024)
        smooth = GridFn.from_z_function(g, lambda u: u)
        back = hk_derivative(gfi_left(smooth, 0.5))
        w = 1.0 - p.gamma
        assert weighted_norm(back - smooth, w) / weighted_norm(smooth, w) <= 1e-3


class TestSemigroup:
    @pytest.mark.parametrize("orders", [(0.3, 0.7), (0.4, 0.4)])
    def test_composition_matches_single_integral(self, orders):
        a, b = orders
        p = make_params(0.4, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 1024, max(1.0, 2.0 / min(a, b)))
        for fn in (lambda u: np.ones_like(u), lambda u: u, lambda u: np.exp(u) - 1.0):
            f = GridFn.from_z_function(g, fn)
            lhs = gfi_left(gfi_left(f, b), a)
            rhs = gfi_left(f, a + b)
            assert weighted_norm(lhs - rhs, 0.0) / weighted_norm(rhs, 0.0) <= 5e-4


class TestBoundaryBehavior:
    def test_first_node_vanishing_respects_the_analytic_bound(self):
        # f = z^(-gw) with gw < alpha: J^alpha f is continuous with value 0 at a
        alpha, gw = 0.7, 0.3
        p = make_params(alpha, 0.0, 1.0, 1.0, 2.0)
        previous = None
        for n in (128, 256, 512):
            g = make_graded_grid(p, n)
            f = GridFn.constant(g, 1.0, sigma=-gw)
            first = abs(gfi_left(f, alpha).values[0])
            bound = gamma_ratio(1.0 - gw, alpha - gw + 1.0) * g.nodes_z[0] ** (alpha - gw)
            assert first <= bound * 1.05
            if previous is not None:
                assert first < previous
            previous = first


class TestReconstruct:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.8])
    def test_smooth_function_reconstructs(self, alpha):
        p = make_params(alpha, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 1024)
        f = GridFn.from_z_function(g, lambda u: 1.0 + u**2)
        part, coeff = reconstruct(f, alpha)
        assert coeff == 0.0
        w = 1.0 - alpha
        assert weighted_norm(part - f, w) / weighted_norm(f, w) <= 2e-3

    def test_pure_power_boundary_term(self):
        alpha = 0.6
        p = make_params(alpha, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 64)
        f = GridFn.constant(g, 1.0, sigma=alpha - 1.0)
        part, coeff = reconstruct(f, alpha)
        assert np.all(part.values == 0.0)
        assert coeff == pytest.approx(math.gamma(alpha), rel=1e-13)
        # the identity J^a D^a f = f - coeff/Gamma(a) z^(a-1) closes exactly
        correction = coeff / math.gamma(alpha) * g.nodes_z ** (alpha - 1.0)
        assert np.allclose(part.values, f.values - correction, rtol=0, atol=1e-12)

    def test_zero_function(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 64)
        part, coeff = reconstruct(GridFn.constant(g, 0.0), 0.5)
        assert np.all(part.values == 0.0) and coeff == 0.0

    def test_boundary_coefficient_divergence(self):
        p = make_params(0.5, 0.0, 1.0, 1.0, 2.0)
        g = make_graded_grid(p, 64)
        with pytest.raises(DomainError):
            boundary_coefficient(GridFn.constant(g, 1.0, sigma=-0.9), 0.5)
