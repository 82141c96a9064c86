#!/usr/bin/env python3
"""Time the cold compressed-kernel apply against another checkout.

Two packages are imported side by side: this checkout's ``src/hkfrac`` as
"change" and the ``hkfrac`` under ``--parent`` (a ``src`` directory) as
"parent".  For each configuration a fresh grid is made and one vector
applied through ``operators._kernel_rows``, whose first call builds the
grid's ``_compressed`` table, or several orders applied to the one grid, on
both packages in alternation, ``--reps`` times each.  The module's ``_weight_rows`` and ``_hat_moments`` are wrapped
in timers during the apply, which splits it into the near band, the hat
moments and the rest (the exponentials, the table assembly, the sum of
exponentials itself and the apply).  The script prints one JSON object with

* ``per_config``: median and quartile milliseconds of each part, the
  median whole-build speed-up and, per package, ``peak_mb``, the
  ``tracemalloc`` peak of one more cold apply outside the timed ones, per
  configuration:
  - the 15 solve-mild configurations of the benchmark (``bench/cases.py``):
    the left kernel of order alpha that ``picard_solve`` builds;
  - alpha in {0.1, 0.5} (beta = 0, rho = 2) at n in {4096, 16384}, left and
    right kernels of order alpha;
  - several orders on one grid (rho = 2) at n in {4096, 16384}: J^0.4
    followed by D^(0.4,0.3) (``gfi_left`` then ``hk_derivative``, left
    kernels of orders 0.4, 0.42 and 0.18) on 1 + z, and the right kernels of
    orders 0.3 and 0.7 on a grid of alpha = 0.3;
  every grid on [1, 2] with the default grading;
* ``sums``: the medians summed over the solve-mild configurations;
* ``accuracy``, per configuration and package:
  - ``band_error``: the largest error of a near-band weight against the
    same weight in 250-digit mpmath, relative to that weight, over rows in
    the first band block past node 0, mid-grid and at the end;
  - ``closed_form_gap``: the largest error of ``gfi_left`` (left) or
    ``gfi_right`` (right) of order alpha on z^1.5 or (z_n - z)^1.5 against
    the power rule, relative to its largest value; for J^0.4 followed by
    D^(0.4,0.3) the same of D^(0.4,0.3) J^0.4 z^1.5 against z^1.5, and for
    two right orders the larger of their two gaps.
  On several orders, ``band_error`` is that of the first order's table.

Run from the repository root:
    python3 tools/bench_tables.py --parent ../parent/src > tables.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # one BLAS thread, as in bench/run.py

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from bench_series import load  # noqa: E402
from cases import A, B, MILD_FAMILIES, MILD_SIZES  # noqa: E402

TIMED = ("_weight_rows", "_hat_moments")


def configs() -> list:
    """(name, alpha, beta, rho, n, side) of every configuration timed; ``cold_apply`` reads side."""
    out = [(f"solve-mild {fam.name} n={n}", fam.alpha, fam.beta, fam.rho, n, "left")
           for fam in MILD_FAMILIES for n in MILD_SIZES]
    out += [(f"alpha={alpha} n={n} {side}", alpha, 0.0, 2.0, n, side)
            for alpha in (0.1, 0.5) for n in (4096, 16384) for side in ("left", "right")]
    for n in (4096, 16384):
        out += [(f"J^0.4 D^(0.4,0.3) n={n}", 0.4, 0.3, 2.0, n, "J D"),
                (f"right 0.3 and 0.7 n={n}", 0.3, 0.0, 2.0, n, "right x2")]
    return out


def orders(alpha: float, side: str) -> tuple:
    """The side of the kernels and the orders a "left", "right" or "right x2" configuration applies."""
    return ("right", (alpha, 1.0 - alpha)) if side == "right x2" else (side, (alpha,))


def cold_apply(pkg, grid, alpha: float, side: str) -> None:
    """A configuration's applies on a fresh grid; the first apply of each kernel builds its table.

    "left" and "right" apply that side's kernel of order alpha to ones at
    every node, "right x2" the right kernels of orders alpha and 1 - alpha,
    and "J D" applies J^alpha and then D^(alpha,beta) of the grid to 1 + z.
    """
    if side == "J D":
        pkg.hk_derivative(pkg.gfi_left(pkg.GridFn(grid, 0.0, 1.0 + grid.nodes_z), alpha))
        return
    ops = pkg.operators
    side, applied = orders(alpha, side)
    m = grid.n + (side == "left")  # the left nodes are [0, z_1, ..., z_n]
    for order in applied:
        ops._kernel_rows(grid, ops._plain_kernel(order), side, 0, m - 1, np.ones(m))


def cold_build(pkg, config) -> dict:
    """Milliseconds of one cold apply, split into band, hat moments and the rest."""
    _, alpha, beta, rho, n, side = config
    ops = pkg.operators
    grid = pkg.make_graded_grid(pkg.make_params(alpha, beta, rho, A, B), n)
    spent = dict.fromkeys(TIMED, 0.0)
    originals = {name: getattr(ops, name) for name in TIMED}

    def timer(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return timed

    for name, fn in originals.items():
        setattr(ops, name, timer(name, fn))
    try:
        t0 = time.perf_counter()
        cold_apply(pkg, grid, alpha, side)
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(ops, name, fn)
    band, hat = spent["_weight_rows"], spent["_hat_moments"]
    return {"total": 1e3 * total, "band": 1e3 * band, "hat_moments": 1e3 * hat,
            "rest": 1e3 * (total - band - hat)}


def cold_peak(pkg, config) -> float:
    """The tracemalloc peak, in MB, of one cold apply on a fresh grid."""
    _, alpha, beta, rho, n, side = config
    grid = pkg.make_graded_grid(pkg.make_params(alpha, beta, rho, A, B), n)
    tracemalloc.start()
    try:
        cold_apply(pkg, grid, alpha, side)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def mp_band_row(u: np.ndarray, coef: float, e: float, i: int, col0: int) -> np.ndarray:
    """Row i of coef w^(e-1)'s weights at nodes col0..i+1 in 250-digit mpmath, from the double nodes.

    Panels 1e-60 long at 1e-24 from the target cancel 108 digits in the
    closed form, so fewer digits are not enough.
    """
    with mpmath.workdps(250):
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


def accuracy(pkg, config) -> dict:
    _, alpha, beta, rho, n, applies = config
    ops = pkg.operators
    grid = pkg.make_graded_grid(pkg.make_params(alpha, beta, rho, A, B), n)
    [(coef, e)] = ops._plain_kernel(alpha)
    side, applied = orders(alpha, "left" if applies == "J D" else applies)
    u = ops._left_nodes(grid) if side == "left" else ops._right_nodes(grid)
    cold_apply(pkg, grid, alpha, applies)  # builds every block of the tables
    table, blk = ops._compressed(grid, ops._plain_kernel(alpha), side), ops._BLOCK
    worst = 0.0
    for i in (blk + blk // 2, table.n // 2, table.n - 1):
        k = i // blk
        col0 = max(k - 1, 0) * blk
        want = mp_band_row(u, coef, e, i, col0)
        got = table.band[k][i - k * blk, :want.size]
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    z = grid.nodes_z
    if applies == "J D":
        f = pkg.GridFn(grid, 0.0, z**1.5)
        pairs = [(pkg.hk_derivative(pkg.gfi_left(f, alpha)).values, z**1.5)]
    else:
        w = z if side == "left" else z[-1] - z
        op = pkg.gfi_left if side == "left" else pkg.gfi_right
        pairs = [(op(pkg.GridFn(grid, 0.0, w**1.5), order).values,
                  math.gamma(2.5) / math.gamma(2.5 + order) * w ** (1.5 + order)) for order in applied]
    gap = max(float(np.max(np.abs(got - want)) / np.max(np.abs(want))) for got, want in pairs)
    return {"band_error": worst, "closed_form_gap": gap}


def summary(samples: list) -> dict:
    out = {}
    for part in samples[0]:
        q1, med, q3 = np.percentile([s[part] for s in samples], [25, 50, 75])
        out[f"{part}_ms"] = round(float(med), 3)
        out[f"{part}_quartiles_ms"] = [round(float(q1), 3), round(float(q3), 3)]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the other checkout's src/")
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args()
    pkgs = {"parent": load(args.parent.resolve(), "hkfrac_parent"),
            "change": load(ROOT / "src", "hkfrac")}
    per_config, acc = {}, {}
    for config in configs():
        for pkg in pkgs.values():
            cold_build(pkg, config)  # warm-up: imports, caches, first-use code paths
        samples = {side: [] for side in pkgs}
        for r in range(args.reps):
            for side in (list(pkgs) if r % 2 == 0 else list(pkgs)[::-1]):
                samples[side].append(cold_build(pkgs[side], config))
        row = {side: summary(s) for side, s in samples.items()}
        for side, pkg in pkgs.items():
            row[side]["peak_mb"] = round(cold_peak(pkg, config), 2)
        row["speedup"] = round(row["parent"]["total_ms"] / row["change"]["total_ms"], 2)
        per_config[config[0]] = row
        acc[config[0]] = {side: accuracy(pkg, config) for side, pkg in pkgs.items()}
    mild = [row for name, row in per_config.items() if name.startswith("solve-mild")]
    sums = {side: {part: round(sum(row[side][f"{part}_ms"] for row in mild), 2)
                   for part in ("total", "band", "hat_moments", "rest")} for side in pkgs}
    sums["speedup"] = round(sums["parent"]["total"] / sums["change"]["total"], 2)
    print(json.dumps({"per_config": per_config, "sums_solve_mild_ms": sums, "accuracy": acc}, indent=1))


if __name__ == "__main__":
    main()
