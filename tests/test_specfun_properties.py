"""Property tests of the Mittag-Leffler and Kilbas-Saigo series against mpmath."""

import math

import numpy as np
import pytest

from hkfrac.errors import ConvergenceError, DomainError, ValidationError
from hkfrac.specfun import SERIES_X_MAX, KSQuery, MLQuery, ml2, ml_ks

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")

st = hypothesis.strategies

REFUSALS = (DomainError, ConvergenceError, ValidationError)
SPECIAL_X = (0.0, -0.0, 1e-300, -1e-300, SERIES_X_MAX, -SERIES_X_MAX, 49.9, -49.9,
             math.nextafter(SERIES_X_MAX, 0.0), -math.nextafter(SERIES_X_MAX, 0.0))
MAGNITUDES = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)),
                       st.floats(-300.0, math.log10(SERIES_X_MAX)))
XS = st.lists(
    st.one_of(st.sampled_from(SPECIAL_X), st.floats(-SERIES_X_MAX, SERIES_X_MAX), MAGNITUDES),
    min_size=1, max_size=6,
)
# derandomized: the same examples on every run, about 1.5 s for both tests
SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None,
                               suppress_health_check=[hypothesis.HealthCheck.too_slow])


def mp_series(coefs, x):
    """(sum_k c_k x^k, sum_k c_k |x|^k, G) in 50-digit mpmath.

    ``coefs`` yields (c_k, g_k), g_k the |ln Gamma| that bounds the error of
    the package's long-double ln c_k; G is the largest g_k among the terms
    above 1e-17 of the largest.
    """
    with mp.workdps(50):  # the coefficients are drawn inside, at this precision too
        xm = mp.mpf(x)
        total = absolute = peak = mp.mpf(0)
        power = mp.mpf(1)
        sizes = []
        for k, (c, g) in enumerate(coefs):
            term = c * power
            total += term
            absolute += abs(term)
            sizes.append((abs(term), g))
            peak = max(peak, abs(term))
            # past the peak, once the terms are far below the largest
            if k > 2 and (term == 0 or abs(term) < mp.mpf(10) ** -45 * peak):
                return total, absolute, max(g for size, g in sizes if size >= 1e-17 * peak)
            power *= xm
    raise AssertionError("reference series did not converge")


def ml2_coefs(alpha, beta):
    a, b, k = mp.mpf(alpha), mp.mpf(beta), 0
    while True:
        log_gamma = mp.loggamma(a * k + b)
        yield mp.exp(-log_gamma), abs(float(log_gamma))
        k += 1


def ks_coefs(alpha, l, m):
    # ln c_k sums k differences of ln Gamma, so its error is about 1/m times
    # that of the largest ln Gamma, as the factors' arguments advance by alpha m
    spread = 1.0 / min(m, 1.0)
    a, l, m, c, g, j = mp.mpf(alpha), mp.mpf(l), mp.mpf(m), mp.mpf(1), 0.0, 0
    while True:
        yield c, g
        num, den = mp.loggamma(a * (j * m + l) + 1), mp.loggamma(a * (j * m + l + 1) + 1)
        c *= mp.exp(num - den)
        g = max(g, spread * abs(float(den)), spread * abs(float(num)))
        j += 1


class TestSeriesProperties:
    """Random parameters and mixed-magnitude arguments.

    An array gives bit for bit its per-element values and is refused when one
    of them is; every value that is not refused meets the module's accuracy
    claim against a 50-digit mpmath series: 3e-16 sum|t_k| / |sum|, plus
    1e-15, plus 1e-18 |ln Gamma| at the largest gamma argument behind the
    terms that matter; every refusal is typed.
    """

    @staticmethod
    def check(evaluate, xs, coefs):
        singles = []
        for x in xs:
            try:
                singles.append(evaluate(x))
            except REFUSALS:
                singles.append(None)
        if None in singles:
            with pytest.raises(REFUSALS):
                evaluate(np.array(xs))
        else:
            assert np.array_equal(evaluate(np.array(xs)), singles)
        for x, got in zip(xs, singles):
            if got is not None:
                total, absolute, g = mp_series(coefs(), x)
                claim = 3e-16 * absolute + (1e-15 + 1e-18 * g) * abs(total)
                assert abs(got - total) <= claim, (x, got, total)

    @hypothesis.given(alpha=st.floats(0.1, 2.0), beta=st.floats(0.1, 3.0), xs=XS)
    @SETTINGS
    def test_ml2(self, alpha, beta, xs):
        self.check(lambda x: ml2(MLQuery(alpha, beta, x)), xs, lambda: ml2_coefs(alpha, beta))

    @hypothesis.given(alpha=st.floats(0.1, 2.0), l=st.floats(-0.5, 2.0), m=st.floats(0.2, 3.0),
                      xs=XS)
    @SETTINGS
    def test_ml_ks(self, alpha, l, m, xs):
        self.check(lambda x: ml_ks(KSQuery(alpha, l, m, x)), xs, lambda: ks_coefs(alpha, l, m))
