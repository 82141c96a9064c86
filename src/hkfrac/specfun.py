"""Gamma and Mittag-Leffler special functions.

These are the oracles the rest of the package leans on.  Each takes its
argument x as a float (and returns a float) or as an ndarray (and returns an
ndarray of the same shape):

* ``log_gamma`` -- ln Gamma(x) on the positive axis via a fixed-coefficient
  Lanczos rational approximation (coefficients embedded below).
* ``ml2`` -- the two-parameter Mittag-Leffler function
  E_{alpha,beta}(x) = sum_k x^k / Gamma(alpha*k + beta), evaluated by its
  power series.
* ``ml_ks`` -- the three-parameter Kilbas-Saigo family E_{alpha,l,m}(x) with
  gamma-ratio product coefficients, accumulated in log space.

One Lanczos core serves both double and extended precision, and one series
loop serves both families: each supplies only the logs of its coefficients,
made once per call and only as far as some argument needs.  Term k is
t_(k-1) x c_k / c_(k-1), a running product along each chunk of terms, and
every partial sum continues the one before it, so an argument's value and
stopping point do not depend on how terms are chunked or arguments blocked:
an array gives bit for bit the values of the per-element calls.

Everything here is a pure function of its arguments; evaluation is
series-only over the fixed guard range |x| <= ``SERIES_X_MAX`` = 50 with at
most ``SERIES_MAX_TERMS`` = 10,000 terms, which keeps the implementations
provably convergent where the package actually uses them.
Complex arguments and negative gamma arguments are out of scope.

The series accumulate in 80-bit extended precision (``np.longdouble``) so the
running sum is error-free at double scale; on the negative axis the terms
alternate, and once the intrinsic cancellation sum|t_k| / |E| exceeds the
budget that extended precision can absorb, the evaluator refuses rather than
return silently degraded digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

__all__ = [
    "MLQuery",
    "KSQuery",
    "log_gamma",
    "gamma_ratio",
    "ml2",
    "ml_ks",
    "SERIES_X_MAX",
    "SERIES_MAX_TERMS",
]

# Guard rails for the series evaluators.
SERIES_X_MAX = 50.0
SERIES_MAX_TERMS = 10000

# Truncation rule: stop once |term| <= SERIES_EPS * |partial sum|.
SERIES_EPS = 1e-16

# Refuse an alternating sum once sum|t_k| > CANCEL_LIMIT * |sum t_k|; past
# that point even extended-precision terms cannot guarantee 1e-10 relative
# accuracy (measured error tracks ~3e-16 * cancellation ratio).
CANCEL_LIMIT = 3e5
# A term above e^709 would overflow a double; the series is refused there.
_TERM_MAX = np.exp(np.longdouble(709.0))

# Terms summed per step.  Most arguments stop within a few dozen terms.
_CHUNK = 32

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Evaluated in double it gives ~2e-15 scaled accuracy for ln Gamma on the
# positive axis.  Evaluated in long double its error against mpmath's loggamma
# grows with the argument: 1.4e-16 at 1.3, 3.6e-16 at 100.3, 1.4e-15 at 300.9,
# 1.9e-15 at 600.2 and 3.3e-15 at 1200.7, within 5e-16 + 1e-18 |ln Gamma(x)|
# on [1, 1200].
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Arguments summed together.  The (_BLOCK x _CHUNK) long-double work arrays
# hold 4096 elements; neither setting moves a value or a stopping point.
_BLOCK = 128


def _lanczos_log_gamma(x: np.ndarray) -> np.ndarray:
    """Lanczos core: ln Gamma(x) for a positive 1-d float64 or long-double array, in that dtype."""
    t = x.dtype.type
    # Recurrence Gamma(x) = Gamma(x+1)/x keeps the core away from its
    # accuracy cliff near the origin.
    small = x < 0.5
    xs = np.where(small, x + t(1.0), x)
    # The shift x + k - 1 rounds as (x + k) - 1 in double and as x + (k - 1)
    # in extended precision.  The verify records and the series values are
    # pinned to these orders: one ulp more or less in ln Gamma moves the
    # inversion suite's errors by up to 5e-14.
    k = np.arange(1, len(_LANCZOS_COEFFS), dtype=t)
    shifted = xs[:, None] + (k - t(1.0)) if t is np.longdouble else xs[:, None] + k - t(1.0)
    terms = np.asarray(_LANCZOS_COEFFS[1:], dtype=t) / shifted
    # cumsum adds left to right, as a loop would; np.sum's pairwise order
    # would move the last bits
    acc = np.cumsum(np.column_stack((np.full_like(xs, _LANCZOS_COEFFS[0]), terms)), axis=1)[:, -1]
    u = xs + t(_LANCZOS_G) - t(0.5)
    out = t(_LOG_SQRT_2PI) + (xs - t(0.5)) * np.log(u) - u + np.log(acc)
    return np.where(small, out - np.log(np.where(small, x, t(1.0))), out)


def log_gamma(x):
    """ln Gamma(x) for x > 0; a float gives a float, an ndarray an ndarray.

    Accuracy is ~2e-15 relative to max(1, |ln Gamma(x)|) for
    x in [1e-3, 170], and ln Gamma(1) = ln Gamma(2) = 0 exactly, so that
    1/Gamma(1) = 1 in E_(alpha,1)(0) and in every Caputo-type phi_0.
    Nonpositive (or NaN) input raises :class:`DomainError`.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0.0):
        raise DomainError("log_gamma requires x > 0")
    # always a 1-d call, so a float takes exactly the array arithmetic
    out = _lanczos_log_gamma(xa.reshape(-1)).reshape(xa.shape)
    out = np.where((xa == 1.0) | (xa == 2.0), 0.0, out)
    return out if isinstance(x, np.ndarray) else float(out)


def gamma_ratio(p, q):
    """Gamma(p)/Gamma(q) for p, q > 0, computed in log space."""
    if isinstance(p, np.ndarray) or isinstance(q, np.ndarray):
        return np.exp(log_gamma(np.asarray(p, dtype=float)) - log_gamma(np.asarray(q, dtype=float)))
    return math.exp(log_gamma(p) - log_gamma(q))


@dataclass(frozen=True)
class MLQuery:
    """Argument bundle for the two-parameter Mittag-Leffler function.

    ``x`` is a float or an ndarray of arguments.
    """

    alpha: float
    beta: float
    x: float | np.ndarray

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValidationError(f"MLQuery requires alpha > 0 (got {self.alpha})")
        if not self.beta > 0.0:
            raise ValidationError(f"MLQuery requires beta > 0 (got {self.beta})")


@dataclass(frozen=True)
class KSQuery:
    """Argument bundle for the Kilbas-Saigo function E_{alpha,l,m}.

    ``x`` is a float or an ndarray of arguments.  The coefficient product is
    c_0 = 1 and

        c_k = prod_{j=0}^{k-1} Gamma[alpha(j m + l) + 1] / Gamma[alpha(j m + l + 1) + 1].

    Gamma poles among the accumulated arguments (alpha(j m + l) a negative
    integer) are rejected per term during summation; an argument that makes a
    gamma argument merely nonpositive is rejected too, since negative gamma
    arguments are unsupported.  alpha(j m + l) = 0 is fine: Gamma(1) = 1.
    """

    alpha: float
    l: float
    m: float
    x: float | np.ndarray

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValidationError(f"KSQuery requires alpha > 0 (got {self.alpha})")
        if not self.m > 0.0:
            raise ValidationError(f"KSQuery requires m > 0 (got {self.m})")


def _power_series(log_coef_chunks, x, start: int, at_zero: float, what: str):
    """sum_k c_k x^k for a float or an ndarray x, from the logs of c_k.

    ``log_coef_chunks(ks_chunks)`` yields ln c_k for each successive chunk of
    term indices k = start, start + 1, ...; it is drawn once per call, only as
    far as some argument reaches, and every block of arguments reuses it.
    ``at_zero`` = c_0 is the value at x = 0; with ``start`` = 1 it is summed
    up front (and c_0 = 1 starts the recurrence).  Each argument stops at its
    own first term with k >= 1 and |t_k| <= SERIES_EPS |partial sum|.
    """
    xa = np.asarray(x, dtype=float)
    outside = ~(np.abs(xa) <= SERIES_X_MAX)  # NaN is outside too
    if np.any(outside):
        raise DomainError(
            f"series regime exceeded: x = {xa[outside].flat[0]} is outside |x| <= {SERIES_X_MAX}"
        )
    flat = xa.reshape(-1)
    out = np.full(flat.shape, at_zero)
    starts = range(start, SERIES_MAX_TERMS, _CHUNK)
    log_coefs = log_coef_chunks(np.arange(k, min(k + _CHUNK, SERIES_MAX_TERMS)) for k in starts)
    chunks, log_c = [], np.longdouble(0.0)  # (ks, c_k / c_(k-1)) per chunk made; c_(start-1) = 1
    head = np.longdouble(at_zero if start else 0.0)
    nonzero = np.flatnonzero(flat)
    for b in range(0, nonzero.size, _BLOCK):
        idx = nonzero[b:b + _BLOCK]
        xs = flat[idx].astype(np.longdouble)
        total, abssum = np.full(idx.size, head), np.full(idx.size, head)
        term = np.ones(idx.size, dtype=np.longdouble)  # t_(k-1), carried across chunks
        rows = np.arange(idx.size)  # the arguments still summing
        for i, k0 in enumerate(starts):
            if i == len(chunks):
                log_cs = next(log_coefs)
                ratio = np.exp(np.diff(log_cs, prepend=log_c))
                chunks.append((np.arange(k0, k0 + ratio.size), ratio))
                log_c = log_cs[-1]
            ks, ratio = chunks[i]
            # t_k = t_(k-1) x c_k / c_(k-1), one cumprod per row; t_0 = c_0
            steps = xs[rows, None] * ratio
            steps[:, 0] = ratio[0] if k0 == 0 else steps[:, 0] * term[rows]
            terms = np.cumprod(steps, axis=1)
            mags = np.abs(terms)
            over = mags > _TERM_MAX
            if np.any(over):
                raise DomainError("series regime exceeded: term overflows double range "
                                  f"(x = {flat[idx[rows[over.any(axis=1).argmax()]]]})")
            # running sums start from the carried total, so they do not depend on the chunking
            partial = np.cumsum(np.column_stack((total[rows], terms)), axis=1)[:, 1:]
            done = (ks >= 1) & (mags <= np.longdouble(SERIES_EPS) * np.abs(partial))
            hit = done.any(axis=1)
            last = np.where(hit, done.argmax(axis=1), ks.size - 1)
            at_last = np.arange(rows.size), last
            total[rows] = partial[at_last]
            abssum[rows] = np.cumsum(np.column_stack((abssum[rows], mags)), axis=1)[:, 1:][at_last]
            term[rows] = terms[:, -1]
            rows = rows[~hit]
            if not rows.size:
                break
        if rows.size:
            raise ConvergenceError(
                f"{what} series did not converge within {SERIES_MAX_TERMS} terms "
                f"(x={flat[idx[rows[0]]]})"
            )
        cancelled = abssum > CANCEL_LIMIT * np.abs(total)
        if np.any(cancelled):
            raise DomainError(f"series regime exceeded: cancellation in the {what} series leaves "
                              f"too few reliable digits (x = {flat[idx[cancelled.argmax()]]})")
        out[idx] = total.astype(float)
    out = out.reshape(xa.shape)
    return out if isinstance(x, np.ndarray) else float(out)


def ml2(q: MLQuery):
    """E_{alpha,beta}(x) by its power series; a float x gives a float, an ndarray an ndarray.

    The running sum accumulates in extended precision (the compensated-
    summation contract: the accumulator never loses double-scale digits; for
    x < 0 the terms alternate in sign).  Truncation, per argument:
    |term| <= 1e-16 |partial sum|, with a hard cap of ``SERIES_MAX_TERMS`` terms.
    Arguments beyond ``SERIES_X_MAX``, and NaN, are refused -- the series evaluator
    is not meant for the asymptotic regime.  An array is refused as a whole when
    any one of its arguments would be.
    """
    alpha, beta = np.longdouble(q.alpha), np.longdouble(q.beta)

    def log_coefs(ks_chunks):
        for ks in ks_chunks:
            yield -_lanczos_log_gamma(alpha * ks + beta)

    return _power_series(log_coefs, q.x, 0, math.exp(-log_gamma(q.beta)), "Mittag-Leffler")


def _ks_check_gamma_args(args: np.ndarray, what: str) -> None:
    bad = args <= 0.0
    if not np.any(bad):
        return
    value = float(args[np.argmax(bad)]) - 1.0  # the alpha(jm+l)-style quantity
    if abs(value - round(value)) < 1e-12:
        raise DomainError(f"Kilbas-Saigo pole: {what} = {value} is a negative integer")
    raise DomainError(
        f"Kilbas-Saigo coefficient needs Gamma({value + 1.0}); "
        "nonpositive gamma arguments are unsupported"
    )


def ml_ks(q: KSQuery):
    """Kilbas-Saigo function E_{alpha,l,m}(x) = sum_k c_k x^k; float or ndarray x as in :func:`ml2`.

    The gamma-ratio product c_k is accumulated incrementally in log space via
    the embedded Lanczos approximation (the individual Gamma ratios overflow
    for large k); truncation and refusals match :func:`ml2`.
    """
    alpha, l, m = np.longdouble(q.alpha), np.longdouble(q.l), np.longdouble(q.m)

    def log_coefs(ks_chunks):
        log_c = np.longdouble(0.0)
        for ks in ks_chunks:
            a_num = alpha * ((ks - 1).astype(np.longdouble) * m + l) + 1.0
            a_den = a_num + alpha
            _ks_check_gamma_args(a_num, "alpha(j m + l)")
            _ks_check_gamma_args(a_den, "alpha(j m + l + 1)")
            steps = _lanczos_log_gamma(a_num) - _lanczos_log_gamma(a_den)
            log_cs = np.cumsum(np.concatenate(([log_c], steps)))[1:]  # from the carried ln c
            log_c = log_cs[-1]
            yield log_cs

    return _power_series(log_coefs, q.x, 1, 1.0, "Kilbas-Saigo")
