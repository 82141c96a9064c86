"""Seeded case lists for the four workloads.

A seed draws the manufactured coefficient c, the manufactured exponent q
(or the power weight xi) and the nodes at which outputs are checked.  It never changes n, lambda or the
family, so the work per case is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

WORKLOADS = ("solve-mild", "solve-stiff", "oracle", "operators")

A, B = 1.0, 2.0  # every case lives on [a, b] = [1, 2]


@dataclass(frozen=True)
class Family:
    """Order alpha, type beta and kernel exponent rho (a number or "hadamard")."""

    name: str
    alpha: float
    beta: float
    rho: Union[float, str]

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta * (1.0 - self.alpha)


@dataclass(frozen=True)
class CaseSpec:
    """One case: what is computed, on which family and grid size, with which data.

    ``name`` is the same for every seed; ``c``, ``q`` and ``checked`` are drawn
    from it.  ``q`` is the manufactured exponent, or the power weight xi for
    the power-weighted oracle.
    """

    name: str
    kind: str
    family: Family
    n: int
    lam: float
    c: float
    q: float
    checked: tuple


MILD_FAMILIES = (
    Family("hilfer-katugampola", 0.5, 0.5, 2.0),
    Family("hilfer", 0.6, 0.4, 1.0),
    Family("hilfer-hadamard", 0.5, 0.5, "hadamard"),
    Family("caputo-type", 0.6, 1.0, 2.0),
    Family("katugampola", 0.5, 0.0, 2.0),
)
MILD_SIZES = (1024, 2048, 4096)
MILD_LAMBDA = -1.0

STIFF_N = 512
STIFF_HOMOGENEOUS = (
    (Family("hilfer-katugampola", 0.5, 0.5, 2.0), -5.0),
    (Family("hilfer-hadamard", 0.5, 0.5, "hadamard"), -8.0),
    (Family("caputo", 0.7, 1.0, 1.0), -15.0),
)
STIFF_SINE = Family("hilfer-katugampola", 0.5, 0.5, 2.0)
SINE_COEFF = -3.0  # f(x, phi) = SINE_COEFF * sin(phi) + s(x)
# The nonlinear solve's Lipschitz estimate and sweep count follow the values of
# its solution, so its manufactured c and q are fixed: drawing them moved the
# sweep count by 30% between seeds.  Its seed draws the checked nodes only.
SINE_C, SINE_Q = 1.0, 1.5

ORACLE_N = 1024
ORACLE_ALPHAS = (0.5, 0.8)
ORACLE_LAMBDAS = (-2.0, -1.0, 0.7, 2.0)

OPERATOR_SIZES = (512, 1024, 2048)
OPERATOR_FAMILIES = {
    "semigroup": Family("katugampola", 0.4, 0.0, 2.0),
    "inversion": Family("hilfer-katugampola", 0.4, 0.5, 2.0),
    "right-power": Family("katugampola", 0.5, 0.0, 2.0),
    "reconstruct": Family("katugampola", 0.5, 0.0, 2.0),
}
SEMIGROUP_INNER = 0.3  # J^alpha J^SEMIGROUP_INNER f = J^(alpha + SEMIGROUP_INNER) f

# The accuracy of a manufactured case moves with its data (q near 1 makes the
# right-sided rule exact, q = 0.5 costs it two digits), so the draws stay in
# narrow ranges where correct_digits moves little between seeds.
C_RANGE = (0.8, 1.25)

CHECKED = {"solve-mild": 64, "solve-stiff": 24, "oracle": 24, "operators": 64}


def checked_nodes(rng: np.random.Generator, n: int, count: int) -> tuple:
    """One node index drawn from each of ``count`` equal blocks of 0..n-1.

    Stratifying keeps both ends of the graded grid in every subset, so the
    largest error found moves little from seed to seed.
    """
    edges = np.linspace(0, n, count + 1).astype(int)
    return tuple(int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:]))


def make_cases(workload: str, seed: int) -> list:
    """The workload's cases, in the order a round visits them.

    The order is the same for every seed.  Drawing it from the seed moved
    peak_rss_mb on operators between 364 and 388 MB, because the heap a case
    inherits from the one before it decides how much fresh memory it maps.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    count = CHECKED[workload]
    cases = []

    def add(name, kind, family, n, lam, q_range=(1.4, 1.6), fixed=None):
        c, q = float(rng.uniform(*C_RANGE)), float(rng.uniform(*q_range))
        c, q = fixed or (c, q)
        cases.append(CaseSpec(name=name, kind=kind, family=family, n=n, lam=lam,
                              c=c, q=q, checked=checked_nodes(rng, n, count)))

    if workload == "solve-mild":
        for fam in MILD_FAMILIES:
            for n in MILD_SIZES:
                add(f"{fam.name}/n={n}", "cli-manufactured", fam, n, MILD_LAMBDA)
    elif workload == "solve-stiff":
        for fam, lam in STIFF_HOMOGENEOUS:
            add(f"{fam.name}/lambda={lam:g}", "homogeneous", fam, STIFF_N, lam)
        add(f"{STIFF_SINE.name}/sine", "sine-manufactured", STIFF_SINE, STIFF_N, SINE_COEFF,
            fixed=(SINE_C, SINE_Q))
    elif workload == "oracle":
        for alpha in ORACLE_ALPHAS:
            for lam in ORACLE_LAMBDAS:
                add(f"homogeneous/alpha={alpha:g}/lambda={lam:g}", "oracle-homogeneous",
                    Family("hilfer-katugampola", alpha, 0.5, 2.0), ORACLE_N, lam)
                add(f"power-weighted/alpha={alpha:g}/lambda={lam:g}", "oracle-power-weighted",
                    Family("katugampola", alpha, 0.0, 2.0), ORACLE_N, lam, q_range=(0.4, 0.6))
    else:
        for kind, fam in OPERATOR_FAMILIES.items():
            for n in OPERATOR_SIZES:
                add(f"{kind}/n={n}", kind, fam, n, 0.0)
    return cases
