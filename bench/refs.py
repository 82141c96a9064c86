"""References computed apart from hkfrac.

Nothing here imports the package under test.  Gamma values come from the
standard library or mpmath, Mittag-Leffler and Kilbas-Saigo values from
mpmath series run at a working precision chosen from the argument, so
the alternating sums on the negative axis keep their digits.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

GUARD_DIGITS = 25
MAX_TERMS = 20000


def kernel_z(x, a: float, rho):
    """Kernel coordinate z(x): (x^rho - a^rho)/rho, or ln(x/a) for rho = "hadamard"."""
    x = np.asarray(x, dtype=float)
    if rho == "hadamard":
        return np.log(x / a)
    return a**rho * np.expm1(rho * np.log(x / a)) / rho


def power_rule(p: float, s: float) -> float:
    """Gamma(p+1)/Gamma(p+1+s): the factor in J^s z^p = factor * z^(p+s)."""
    return math.exp(math.lgamma(p + 1.0) - math.lgamma(p + 1.0 + s))


def derivative_power_factor(q: float, alpha: float) -> float:
    """Gamma(q+1)/Gamma(q+1-alpha): the factor in D^(alpha,beta) z^q."""
    return math.exp(math.lgamma(q + 1.0) - math.lgamma(q + 1.0 - alpha))


def _series_digits(abs_sum_log10: float) -> int:
    """Working digits so a sum whose terms reach 10^abs_sum_log10 keeps 1e-25."""
    return int(max(0.0, abs_sum_log10)) + GUARD_DIGITS


def _sum_series(log_abs_term, x) -> mpmath.mpf:
    """Sum_k sign(x)^k exp(log_abs_term(k)) until the terms stop mattering."""
    total = mpmath.mpf(0)
    negative = x < 0
    k = 0
    while k < MAX_TERMS:
        term = mpmath.exp(log_abs_term(k))
        total += -term if (negative and k % 2) else term
        if k > 2 and term < mpmath.eps * abs(total):
            return total
        k += 1
    raise ArithmeticError(f"reference series did not settle within {MAX_TERMS} terms")


def ml_series(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) = sum_k x^k / Gamma(alpha k + beta), by mpmath.

    The terms of the alternating sum reach about exp(|x|^(1/alpha)), so the
    precision is that many digits plus a guard.
    """
    if x == 0.0:
        return float(mpmath.rgamma(beta))
    digits = _series_digits(abs(x) ** (1.0 / alpha) / math.log(10.0))
    with mpmath.workdps(digits):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        log_ax = mpmath.log(abs(mpmath.mpf(x)))
        return float(_sum_series(lambda k: k * log_ax - mpmath.loggamma(a * k + b), x))


def ks_series(alpha: float, l: float, m: float, x: float) -> float:
    """Kilbas-Saigo E_{alpha,l,m}(x) = sum_k c_k x^k, by mpmath.

    c_0 = 1, c_k = prod_{j<k} Gamma(alpha(jm+l)+1) / Gamma(alpha(jm+l+1)+1).
    """
    if x == 0.0:
        return 1.0
    # For m >= 1, c_k decays at least as fast as 1/Gamma(alpha k + 1), so the
    # E_{alpha,beta} bound on the largest term holds here too.
    digits = _series_digits(abs(x) ** (1.0 / alpha) / math.log(10.0))
    with mpmath.workdps(digits):
        a, lm, mm = mpmath.mpf(alpha), mpmath.mpf(l), mpmath.mpf(m)
        log_ax = mpmath.log(abs(mpmath.mpf(x)))
        log_c = [mpmath.mpf(0)]

        def log_abs_term(k):
            while len(log_c) <= k:
                j = len(log_c) - 1
                log_c.append(log_c[-1] + mpmath.loggamma(a * (j * mm + lm) + 1)
                             - mpmath.loggamma(a * (j * mm + lm + 1) + 1))
            return log_c[k] + k * log_ax

        return float(_sum_series(log_abs_term, x))


def homogeneous_reference(alpha: float, gamma: float, lam: float, c: float, z) -> np.ndarray:
    """c z^(gamma-1) E_{alpha,gamma}(lam z^alpha) at each z."""
    return np.array([c * zz ** (gamma - 1.0) * ml_series(alpha, gamma, lam * zz**alpha)
                     for zz in np.asarray(z, dtype=float)])


def power_weighted_reference(alpha: float, xi: float, lam: float, c: float, z) -> np.ndarray:
    """c/Gamma(alpha) z^(alpha-1) E_{alpha,l,m}(lam z^(alpha+xi)), l = 1+(xi-1)/alpha, m = 1+xi/alpha."""
    l = 1.0 + (xi - 1.0) / alpha
    m = 1.0 + xi / alpha
    pref = c / math.gamma(alpha)
    return np.array([pref * zz ** (alpha - 1.0) * ks_series(alpha, l, m, lam * zz ** (alpha + xi))
                     for zz in np.asarray(z, dtype=float)])
