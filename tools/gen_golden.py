#!/usr/bin/env python3
"""Regenerate the frozen golden values in src/hkfrac/golden/golden.json.

All values come from extended-precision (60-digit) mpmath evaluations that
are independent of the package's own series/quadrature code paths:

* Mittag-Leffler values: direct 500-term series in mpmath.
* Kilbas-Saigo values: the defining gamma-ratio product, in mpmath.
* The linear-problem values: termwise integration of the source integral
  (closed form z^alpha E_{alpha,alpha+1}(lambda z^alpha) for a unit source,
  z^(alpha+1) E_{alpha,alpha+2}(lambda z^alpha) for the source z), each
  cross-checked against adaptive mpmath quadrature of the kernel integral
  before being written out.

Run from the repository root:  python3 tools/gen_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60

OUT = Path(__file__).resolve().parents[1] / "src" / "hkfrac" / "golden" / "golden.json"


def ml2_series(alpha, beta, x, terms=500):
    return sum(mp.mpf(x) ** k / mp.gamma(alpha * k + beta) for k in range(terms))


def ks_series(alpha, l, m, x, terms=300):
    total = mp.mpf(1)
    c = mp.mpf(1)
    for k in range(1, terms):
        j = k - 1
        c *= mp.gamma(alpha * (j * m + l) + 1) / mp.gamma(alpha * (j * m + l + 1) + 1)
        total += c * mp.mpf(x) ** k
    return total


def fmt(v) -> str:
    return mp.nstr(v, 22)


def main() -> None:
    golden = {"ml2": [], "ml_ks": [], "linear_solution": []}

    for alpha, beta, x, tol in [
        (0.5, 0.5, 0.3, 1e-10),
        (0.5, 1.0, 1.0, 1e-10),
        (0.5, 0.9, -3.0, 1e-10),
    ]:
        golden["ml2"].append(
            {"alpha": alpha, "beta": beta, "x": x,
             "value": fmt(ml2_series(alpha, beta, x)), "tol": tol}
        )

    for alpha, l, m, x, tol in [
        (0.5, 0.5, 2.0, 0.4, 1e-10),
        (0.7, 0.4, 1.0, 0.5, 1e-10),
    ]:
        golden["ml_ks"].append(
            {"alpha": alpha, "l": l, "m": m, "x": x,
             "value": fmt(ks_series(alpha, l, m, x)), "tol": tol}
        )

    # Linear problem: alpha=1/2, beta=0, rho=1, a=1, c=0, lambda=-1, unit
    # source, evaluated at x=2 (z=1).  Termwise: z^a E_{a,a+1}(lam z^a).
    alpha = mp.mpf("0.5")
    lam = mp.mpf(-1)
    series_value = sum(lam**k / mp.gamma(alpha * k + alpha + 1) for k in range(400))

    def ee(a, b, w, terms=300):
        return sum(mp.mpf(w) ** k / mp.gamma(a * k + b) for k in range(terms))

    quad_value = mp.quad(
        lambda t: (2 - t) ** (alpha - 1) * ee(alpha, alpha, -((2 - t) ** alpha)),
        [1, 2],
    )
    assert abs(series_value - quad_value) < mp.mpf("1e-25"), (series_value, quad_value)
    golden["linear_solution"].append(
        {
            "alpha": 0.5, "beta": 0.0, "rho": 1.0, "a": 1.0, "b": 2.0,
            "c": 0.0, "lambda": -1.0, "source": "1", "x": 2.0,
            "value": fmt(series_value), "tol": 1e-9,
        }
    )

    # The same problem with source z, whose integrand is not a pure power, so
    # the package's quadrature reaches its multi-term weights.  Termwise:
    # z^(a+1) E_{a,a+2}(lam z^a).
    series_value = sum(lam**k / mp.gamma(alpha * k + alpha + 2) for k in range(400))
    quad_value = mp.quad(
        lambda t: (2 - t) ** (alpha - 1) * ee(alpha, alpha, -((2 - t) ** alpha)) * (t - 1),
        [1, 2],
    )
    assert abs(series_value - quad_value) < mp.mpf("1e-25"), (series_value, quad_value)
    golden["linear_solution"].append(
        {
            "alpha": 0.5, "beta": 0.0, "rho": 1.0, "a": 1.0, "b": 2.0,
            "c": 0.0, "lambda": -1.0, "source": "z", "x": 2.0,
            "value": fmt(series_value), "tol": 1e-9,
        }
    )

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
