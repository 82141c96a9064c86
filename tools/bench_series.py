#!/usr/bin/env python3
"""Time ml2 and ml_ks against another checkout and measure their accuracy.

Two packages are imported side by side: this checkout's ``src/hkfrac`` as
"change" and the ``hkfrac`` under ``--parent`` (a ``src`` directory) as
"parent".  The script prints one JSON object with

* ``per_call``: for each of the 16 cases of the benchmark's oracle workload
  (``bench/cases.py``), the ml2 or ml_ks call its oracle makes on the
  1024-node grid, timed on both packages in alternation (median and
  quartiles in microseconds over ``--reps`` calls each);
* ``accuracy``: the largest and median relative error of each package
  against 50-digit mpmath series, on fixed-seed sweeps of (alpha, beta, x)
  and (alpha, xi, x) inside the range the series accept, on the alpha =
  beta = 0.5 line over [-2.4, 3], and on every 16th argument of the oracle
  cases.  Arguments either package refuses are counted, not measured.

mpmath is used here only, never by the package.  Run from the repository
root:  python3 tools/bench_series.py --parent ../parent/src > series.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from cases import A, B, make_cases  # noqa: E402

mp.mp.dps = 50
SEED = 16
SWEEP = 300


def load(src: Path, name: str):
    """Import the hkfrac package under ``src`` as module ``name``."""
    pkg = src / "hkfrac"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def oracle_calls(pkg, seed: int) -> list:
    """(case name, function, query) for the series call of each oracle case."""
    sf = pkg.specfun
    calls = []
    for case in make_cases("oracle", seed):
        fam = case.family
        params = pkg.make_params(fam.alpha, fam.beta, fam.rho, A, B)
        z = pkg.z_of_x(params, pkg.make_graded_grid(params, case.n).nodes_x)
        alpha = fam.alpha
        if case.kind == "oracle-homogeneous":
            query = sf.MLQuery(alpha, params.gamma, case.lam * z**alpha)
            calls.append((case.name, "ml2", query))
        else:
            xi = case.q
            l, m = 1.0 + (xi - 1.0) / alpha, 1.0 + xi / alpha
            calls.append((case.name, "ml_ks", sf.KSQuery(alpha, l, m, case.lam * z ** (alpha + xi))))
    return calls


def time_calls(pkgs: dict, seed: int, reps: int) -> dict:
    plans = {side: oracle_calls(pkg, seed) for side, pkg in pkgs.items()}
    out = {}
    for i, (name, fn, _) in enumerate(plans["change"]):
        samples = {side: [] for side in pkgs}
        for r in range(reps):
            order = list(pkgs) if r % 2 == 0 else list(pkgs)[::-1]
            for side in order:
                call = getattr(pkgs[side].specfun, fn)
                query = plans[side][i][2]
                t0 = time.perf_counter()
                call(query)
                samples[side].append(1e6 * (time.perf_counter() - t0))
        row = {"function": fn}
        for side, ts in samples.items():
            q1, med, q3 = np.percentile(ts, [25, 50, 75])
            row[side] = {"median_us": round(med, 1), "quartiles_us": [round(q1, 1), round(q3, 1)]}
        row["speedup"] = round(row["parent"]["median_us"] / row["change"]["median_us"], 2)
        out[name] = row
    return out


def ml2_ref(alpha: float, beta: float, x: float):
    alpha, beta, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)  # no double rounding in alpha k
    total, k = mp.mpf(0), 0
    while True:
        term = x**k / mp.gamma(alpha * k + beta)
        total += term
        if k > 4 and abs(term) < mp.mpf(10) ** -60 * max(abs(total), mp.mpf(10) ** -300):
            return total
        k += 1


def ks_ref(alpha: float, l: float, m: float, x: float):
    alpha, l, m, x = mp.mpf(alpha), mp.mpf(l), mp.mpf(m), mp.mpf(x)
    total = c = mp.mpf(1)
    k = 1
    while True:
        j = k - 1
        c *= mp.gamma(alpha * (j * m + l) + 1) / mp.gamma(alpha * (j * m + l + 1) + 1)
        term = c * x**k
        total += term
        if k > 4 and abs(term) < mp.mpf(10) ** -60 * abs(total):
            return total
        k += 1


def errors(pkgs: dict, points: list) -> dict:
    """Largest and median relative error per package over (function name, args) points."""
    errs = {side: [] for side in pkgs}
    refused = {side: 0 for side in pkgs}
    for fn, args in points:
        ref = None
        for side, pkg in pkgs.items():
            sf = pkg.specfun
            query = sf.MLQuery(*args) if fn == "ml2" else sf.KSQuery(*args)
            try:
                got = getattr(sf, fn)(query)
            except (pkg.DomainError, pkg.ConvergenceError):
                refused[side] += 1
                continue
            if ref is None:
                ref = ml2_ref(*args) if fn == "ml2" else ks_ref(*args)
            errs[side].append(float(abs((mp.mpf(got) - ref) / ref)))
    return {
        side: {
            "measured": len(e),
            "refused": refused[side],
            "max_rel_error": float(np.max(e)) if e else None,
            "median_rel_error": float(np.median(e)) if e else None,
        }
        for side, e in errs.items()
    }


def accuracy(pkgs: dict, seed: int) -> dict:
    rng = np.random.default_rng(SEED)
    ml2_sweep = [("ml2", (float(a), float(b), float(x))) for a, b, x in zip(
        rng.uniform(0.3, 1.5, SWEEP), rng.uniform(0.3, 2.0, SWEEP), rng.uniform(-4.0, 4.0, SWEEP))]
    ks_sweep = []
    for a, xi, x in zip(rng.uniform(0.3, 1.2, SWEEP), rng.uniform(0.0, 1.0, SWEEP),
                        rng.uniform(-4.0, 4.0, SWEEP)):
        a, xi = float(a), float(xi)
        ks_sweep.append(("ml_ks", (a, 1.0 + (xi - 1.0) / a, 1.0 + xi / a, float(x))))
    line = [("ml2", (0.5, 0.5, float(x))) for x in np.linspace(-2.4, 3.0, 200)]
    oracle = []
    for _, fn, query in oracle_calls(pkgs["change"], seed):
        head = (query.alpha, query.beta) if fn == "ml2" else (query.alpha, query.l, query.m)
        oracle += [(fn, (*head, float(x))) for x in query.x[::16]]
    return {
        "ml2 alpha in [0.3, 1.5], beta in [0.3, 2], x in [-4, 4]": errors(pkgs, ml2_sweep),
        "ml_ks power-weighted form, alpha in [0.3, 1.2], xi in [0, 1], x in [-4, 4]":
            errors(pkgs, ks_sweep),
        "ml2 alpha = beta = 0.5, x in [-2.4, 3]": errors(pkgs, line),
        "oracle cases, every 16th argument": errors(pkgs, oracle),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the other checkout's src/")
    parser.add_argument("--seed", type=int, default=1, help="oracle workload seed (draws xi)")
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args()
    pkgs = {"parent": load(args.parent.resolve(), "hkfrac_parent"),
            "change": load(ROOT / "src", "hkfrac")}
    print(json.dumps({
        "per_call": time_calls(pkgs, args.seed, args.reps),
        "accuracy": accuracy(pkgs, args.seed),
    }, indent=1))


if __name__ == "__main__":
    main()
