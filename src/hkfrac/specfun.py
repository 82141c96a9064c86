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
loop serves both families: each supplies only the logs of its coefficients
c_0, c_1, ..., made once per call and only as far as some argument needs.
The number of terms an argument takes is fixed before anything is summed,
from those logs in double: it is the first k >= 1 whose term lies below
SERIES_EPS / CANCEL_LIMIT of the largest term before it, found at |x|
rounded up to a rung 2^(j/8).  Each argument is then summed by one
extended-precision Horner pass over its own terms.  The term count depends
on |x| alone and an argument's arithmetic on nothing else, so an array gives
bit for bit the values of the per-element calls.

Everything here is a pure function of its arguments; evaluation is
series-only over the fixed guard range |x| <= ``SERIES_X_MAX`` = 50 with at
most ``SERIES_MAX_TERMS`` = 10,000 terms, which keeps the implementations
provably convergent where the package actually uses them.
Complex arguments and negative gamma arguments are out of scope.

The series are summed in 80-bit extended precision (``np.longdouble``) so
the sum is error-free at double scale; on the negative axis the terms
alternate, and once the intrinsic cancellation sum|t_k| / |E| exceeds the
budget that extended precision can absorb, the evaluator refuses rather than
return silently degraded digits.  A value that is not refused is within about
3e-16 sum|t_k| / |E| + 1e-15 of the exact series, plus the long-double
ln Gamma error 1e-18 |ln Gamma| at the largest gamma argument behind the
terms that matter (about 2e-15 at x = 50, alpha = 0.6).
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

# Truncation rule: an argument takes the terms before the first k >= 1 with
# |t_k| <= SERIES_EPS / CANCEL_LIMIT * max_(j<=k) |t_j|.  A sum that is not
# refused has sum|t_k| <= CANCEL_LIMIT |sum t_k|, so the first dropped term is
# at most SERIES_EPS times the sum.
SERIES_EPS = 1e-16

# Refuse an alternating sum once sum|t_k| > CANCEL_LIMIT * |sum t_k|; past
# that point even extended-precision terms cannot guarantee 1e-10 relative
# accuracy (measured error tracks ~3e-16 * cancellation ratio).
CANCEL_LIMIT = 3e5
_LOG_TAIL = math.log(SERIES_EPS / CANCEL_LIMIT)
# A term above e^709 would overflow a double; the series is refused there.
_LOG_TERM_MAX = 709.0

# Coefficients made per step.  Most arguments stop within a few dozen terms.
_CHUNK = 32
# Term counts are found at |x| rounded up to the next e^(j _RUNG) = 2^(j/8).
# The count does not decrease as |x| grows, so the rung only adds terms.
_RUNG = math.log(2.0) / 8.0

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set), read
# into long doubles so that the extended-precision core gets all 20 of their
# digits (each rounds to the same double as its decimal string).  Rounded to
# double they would move every long-double ln Gamma by about -1.5e-16, which
# a cancelling series sum amplifies wherever one of its terms is exact
# (Gamma(1) = Gamma(2) = 1).
# Evaluated in double it gives ~2e-15 scaled accuracy for ln Gamma on the
# positive axis.  Evaluated in long double its error against mpmath's loggamma
# is below 1e-17 on [0.75, 10] and grows with the argument: 3e-17 at 50.7,
# 2.5e-16 at 100.3, 1.3e-15 at 300.9, 1.9e-15 at 600.2 and 2.4e-15 at 1200.7,
# within 5e-16 + 1e-18 |ln Gamma(x)| on [1, 1200].
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = tuple(np.longdouble(c) for c in (
    "0.99999999999999709182",
    "57.156235665862923517",
    "-59.597960355475491248",
    "14.136097974741747174",
    "-0.49191381609762019978",
    "0.33994649984811888699e-4",
    "0.46523628927048575665e-4",
    "-0.98374475304879564677e-4",
    "0.15808870322491248884e-3",
    "-0.21026444172410488319e-3",
    "0.21743961811521264320e-3",
    "-0.16431810653676389022e-3",
    "0.84418223983852743293e-4",
    "-0.26190838401581408670e-4",
    "0.36899182659531622704e-5",
))

# ln sqrt(2 pi): the double every double ln Gamma of the package has been
# computed with (one ulp below the correctly rounded value), and the long double
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SQRT_2PI_LONG = np.longdouble("0.91893853320467274178032973640561763986")


def _lanczos_log_gamma(x: np.ndarray) -> np.ndarray:
    """Lanczos core: ln Gamma(x) for a positive 1-d float64 or long-double array, in that dtype.

    ln Gamma(1) = ln Gamma(2) = 0 exactly in both precisions.
    """
    t = x.dtype.type
    coeffs = np.array(_LANCZOS_COEFFS, dtype=t)
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
    terms = coeffs[1:] / shifted
    # cumsum adds left to right, as a loop would; np.sum's pairwise order
    # would move the last bits
    acc = np.cumsum(np.column_stack((np.full_like(xs, coeffs[0]), terms)), axis=1)[:, -1]
    u = xs + t(_LANCZOS_G) - t(0.5)
    log_sqrt_2pi = _LOG_SQRT_2PI_LONG if t is np.longdouble else t(_LOG_SQRT_2PI)
    out = log_sqrt_2pi + (xs - t(0.5)) * np.log(u) - u + np.log(acc)
    out = np.where(small, out - np.log(np.where(small, x, t(1.0))), out)
    # Gamma(1) = Gamma(2) = 1 exactly: E_(alpha,1)(0) = 1, and every
    # Caputo-type phi_0 carries 1/Gamma(1)
    return np.where((x == 1.0) | (x == 2.0), t(0.0), out)


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
        # written so that NaN fails too
        if not 0.0 < self.alpha < math.inf:
            raise ValidationError(f"MLQuery requires a finite alpha > 0 (got {self.alpha})")
        if not 0.0 < self.beta < math.inf:
            raise ValidationError(f"MLQuery requires a finite beta > 0 (got {self.beta})")


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
        # written so that NaN fails too
        if not 0.0 < self.alpha < math.inf:
            raise ValidationError(f"KSQuery requires a finite alpha > 0 (got {self.alpha})")
        if not -math.inf < self.l < math.inf:
            raise ValidationError(f"KSQuery requires a finite l (got {self.l})")
        if not 0.0 < self.m < math.inf:
            raise ValidationError(f"KSQuery requires a finite m > 0 (got {self.m})")


def _horner(coefs, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_(k < counts_i) coefs_k x_i^k by Horner's rule, for x sorted by ascending counts.

    Step k runs over the arguments that take term k, a suffix of x, so the
    work is sum_i counts_i and no step is masked.  An argument enters at its
    own top term as 0 x + c_k = c_k, so its arithmetic does not depend on the
    other arguments.
    """
    acc = np.zeros_like(x)
    n_terms = int(counts[-1]) if counts.size else 0
    starts = np.searchsorted(counts, np.arange(n_terms), side="right")
    for k in range(n_terms - 1, -1, -1):
        part = acc[starts[k]:]
        part *= x[starts[k]:]
        part += coefs[k]
    return acc


def _power_series(log_coef_chunks, x, what: str):
    """sum_k c_k x^k for a float or an ndarray x, from the logs of c_k.

    ``log_coef_chunks(ks_chunks)`` yields ln c_k for each successive chunk of
    term indices k = 0, 1, ...; it is drawn once per call, only as far as the
    largest term count.  Argument x takes the terms k < K(|x|), K the first
    k >= 1 with

        ln c_k + k ln|x| <= ln(SERIES_EPS / CANCEL_LIMIT) + max_(j<=k) (ln c_j + j ln|x|),

    found in double at the rung e^(j _RUNG) at or above |x|; x = 0 takes c_0
    alone.  ln|t_k| is concave in k for both families (ln Gamma is convex),
    so the dropped terms fall at least geometrically from the first, which is
    at most SERIES_EPS |sum| in a sum that is not refused.

    The arguments are sorted by K and summed by :func:`_horner` in extended
    precision, over the even and odd terms in x^2, which also gives
    sum|t_k|.  Refused, each naming the first offending x: a term above
    e^709 (:class:`DomainError`), a K beyond ``SERIES_MAX_TERMS``
    (:class:`ConvergenceError`), and sum|t_k| > CANCEL_LIMIT |sum|
    (:class:`DomainError`).
    """
    xa = np.asarray(x, dtype=float)
    outside = ~(np.abs(xa) <= SERIES_X_MAX)  # NaN is outside too
    if np.any(outside):
        raise DomainError(
            f"series regime exceeded: x = {xa[outside].flat[0]} is outside |x| <= {SERIES_X_MAX}"
        )
    flat = xa.reshape(-1)
    nonzero = np.flatnonzero(flat)
    log_mag = np.log(np.abs(flat[nonzero]))
    rungs, rung_of = np.unique(np.ceil(log_mag / _RUNG), return_inverse=True)
    rungs *= _RUNG
    rung_counts = np.zeros(rungs.size, dtype=int)
    peak = np.full(rungs.size, -np.inf)  # max_(j<k) ln|t_j| at each rung, carried across chunks
    pending = np.arange(rungs.size)  # the rungs whose count is not yet found
    log_over = math.inf  # ln|x| above which some term made so far passes e^709
    starts = range(0, SERIES_MAX_TERMS, _CHUNK)
    chunks = (np.arange(k, min(k + _CHUNK, SERIES_MAX_TERMS)) for k in starts)
    log_coefs, k0 = [], 0
    for log_c in log_coef_chunks(chunks):
        log_coefs.append(log_c)
        ks = np.arange(k0, k0 + log_c.size)
        k0 += log_c.size
        log_c = log_c.astype(float)
        later = ks >= 1
        log_over = min(log_over, np.min((_LOG_TERM_MAX - log_c[later]) / ks[later], initial=np.inf))
        over = log_mag > log_over
        if np.any(over):
            raise DomainError("series regime exceeded: term overflows double range "
                              f"(x = {flat[nonzero[over.argmax()]]})")
        logs = log_c + ks * rungs[pending, None]  # ln|t_k| at each pending rung
        running = np.maximum.accumulate(np.maximum(logs, peak[pending, None]), axis=1)
        stop = later & (logs - running <= _LOG_TAIL)
        hit = stop.any(axis=1)
        rung_counts[pending[hit]] = ks[stop[hit].argmax(axis=1)]
        peak[pending] = running[:, -1]
        pending = pending[~hit]
        if not pending.size:
            break
    if pending.size:
        raise ConvergenceError(
            f"{what} series did not converge within {SERIES_MAX_TERMS} terms "
            f"(x={flat[nonzero[np.isin(rung_of, pending).argmax()]]})"
        )
    coefs = np.exp(np.concatenate(log_coefs))
    counts = np.ones(flat.size, dtype=int)  # x = 0 takes c_0 alone
    counts[nonzero] = rung_counts[rung_of]
    order = np.argsort(counts, kind="stable")
    xs, counts = flat[order].astype(np.longdouble), counts[order]
    # sum_k c_k x^k = even(x^2) + x odd(x^2), and sum_k c_k |x|^k = even + |x| odd:
    # the even and odd parts are sums of positive terms, so the pass gives the
    # absolute sum for the cancellation check at no extra cost
    u = xs * xs
    even = _horner(coefs[0::2], u, (counts + 1) // 2)
    odd = _horner(coefs[1::2], u, counts // 2)
    total, abssum = even + xs * odd, even + np.abs(xs) * odd
    cancelled = abssum > CANCEL_LIMIT * np.abs(total)
    if np.any(cancelled):
        raise DomainError(f"series regime exceeded: cancellation in the {what} series leaves "
                          f"too few reliable digits (x = {flat[order[cancelled].min()]})")
    out = np.empty(flat.size)
    out[order] = total
    out = out.reshape(xa.shape)
    return out if isinstance(x, np.ndarray) else float(out)


def ml2(q: MLQuery):
    """E_{alpha,beta}(x) by its power series; a float x gives a float, an ndarray an ndarray.

    Each argument is one Horner pass in extended precision, so the sum never
    loses double-scale digits to rounding (for x < 0 the terms alternate in
    sign).  Truncation, fixed per argument before summing: the terms before
    the first k >= 1 with |t_k| <= SERIES_EPS / CANCEL_LIMIT max_(j<=k) |t_j|,
    at most ``SERIES_MAX_TERMS`` of them.  The value at x = 0 is the series'
    own c_0, so it is the limit of the values at x -> 0.  Arguments beyond
    ``SERIES_X_MAX``, and NaN, are refused -- the series evaluator is not
    meant for the asymptotic regime.  An array is refused as a whole when any
    one of its arguments would be.
    """
    alpha, beta = np.longdouble(q.alpha), np.longdouble(q.beta)

    def log_coefs(ks_chunks):
        for ks in ks_chunks:
            yield -_lanczos_log_gamma(alpha * ks + beta)

    return _power_series(log_coefs, q.x, "Mittag-Leffler")


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
    for large k); c_0 = 1.  Truncation, fixed per argument before summing,
    and refusals match :func:`ml2`.
    """
    alpha, l, m = np.longdouble(q.alpha), np.longdouble(q.l), np.longdouble(q.m)

    def log_coefs(ks_chunks):
        log_c = np.longdouble(0.0)  # ln c_0
        for ks in ks_chunks:
            # c_k = c_(k-1) Gamma(a_num) / Gamma(a_den) with j = k - 1, for k >= 1
            a_num = alpha * ((ks[ks >= 1] - 1).astype(np.longdouble) * m + l) + 1.0
            a_den = a_num + alpha
            _ks_check_gamma_args(a_num, "alpha(j m + l)")
            _ks_check_gamma_args(a_den, "alpha(j m + l + 1)")
            steps = _lanczos_log_gamma(a_num) - _lanczos_log_gamma(a_den)
            # from the carried ln c_(k0-1), or from ln c_0 in the first chunk
            log_cs = np.cumsum(np.concatenate(([log_c], steps)))[-ks.size:]
            log_c = log_cs[-1]
            yield log_cs

    return _power_series(log_coefs, q.x, "Kilbas-Saigo")
