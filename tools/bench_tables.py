#!/usr/bin/env python3
"""Time the cold compressed-kernel table build against another checkout.

Two packages are imported side by side: this checkout's ``src/hkfrac`` as
"change" and the ``hkfrac`` under ``--parent`` (a ``src`` directory) as
"parent".  For each configuration a fresh grid is made and its
``operators._compressed`` table built once, on both packages in
alternation, ``--reps`` times each.  The module's ``_weight_rows`` and
``_hat_moments`` are wrapped in timers during the build, which splits it
into the near band, the hat moments and the rest (the exponentials, the
table assembly and the sum of exponentials itself).  The script prints one
JSON object with

* ``per_config``: median and quartile milliseconds of each part, and the
  median whole-build speed-up, per configuration:
  - the 15 solve-mild configurations of the benchmark (``bench/cases.py``):
    the left kernel of order alpha that ``picard_solve`` builds;
  - alpha in {0.1, 0.5} (beta = 0, rho = 2) at n in {4096, 16384}, left and
    right kernels of order alpha;
  every grid on [1, 2] with the default grading;
* ``sums``: the medians summed over the solve-mild configurations;
* ``accuracy``, per configuration and package:
  - ``band_error``: the largest error of the near-band weights against a
    long-double evaluation of the same formula, relative to each row's
    largest weight;
  - ``closed_form_gap``: the largest error of ``gfi_left`` (left) or
    ``gfi_right`` (right) of order alpha on z^1.5 or (z_n - z)^1.5 against
    the power rule, relative to its largest value.

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
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # one BLAS thread, as in bench/run.py

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from bench_series import load  # noqa: E402
from cases import A, B, MILD_FAMILIES, MILD_SIZES  # noqa: E402

TIMED = ("_weight_rows", "_hat_moments")


def configs() -> list:
    """(name, alpha, beta, rho, n, side) of every configuration timed."""
    out = [(f"solve-mild {fam.name} n={n}", fam.alpha, fam.beta, fam.rho, n, "left")
           for fam in MILD_FAMILIES for n in MILD_SIZES]
    out += [(f"alpha={alpha} n={n} {side}", alpha, 0.0, 2.0, n, side)
            for alpha in (0.1, 0.5) for n in (4096, 16384) for side in ("left", "right")]
    return out


def cold_build(pkg, config) -> dict:
    """Milliseconds of one cold table build, split into band, hat moments and the rest."""
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
        ops._compressed(grid, ops._plain_kernel(alpha), side)
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(ops, name, fn)
    band, hat = spent["_weight_rows"], spent["_hat_moments"]
    return {"total": 1e3 * total, "band": 1e3 * band, "hat_moments": 1e3 * hat,
            "rest": 1e3 * (total - band - hat)}


def long_double_band(u: np.ndarray, coef: float, e: float, r0: int, r1: int, col0: int) -> np.ndarray:
    """Rows [r0, r1) of coef w^(e-1)'s weights over panels col0.. in long double, log1p/expm1 form."""
    U = u.astype(np.longdouble)
    e = np.longdouble(e)
    h = U[col0 + 1:r1 + 1] - U[col0:r1]
    past = np.arange(r0, r1)[:, None] < np.arange(col0, r1)
    w_far = np.where(past, 1, U[r0 + 1:r1 + 1, None] - U[col0:r1])
    rm1 = np.where(past, 0, -h / w_far)
    with np.errstate(divide="ignore"):
        log_q = np.log1p(rm1)
    em, em1 = np.expm1(e * log_q), np.expm1((e + 1) * log_q)
    scale = np.longdouble(coef) * w_far ** (e + 1) / h
    out = np.zeros((r1 - r0, r1 - col0 + 1), dtype=np.longdouble)
    out[:, :-1] += scale * ((1 + rm1) * em / e - em1 / (e + 1))
    out[:, 1:] += scale * (em1 / (e + 1) - em / e)
    return out


def accuracy(pkg, config) -> dict:
    _, alpha, beta, rho, n, side = config
    ops = pkg.operators
    grid = pkg.make_graded_grid(pkg.make_params(alpha, beta, rho, A, B), n)
    [(coef, e)] = ops._plain_kernel(alpha)
    u = ops._left_nodes(grid) if side == "left" else ops._right_nodes(grid)
    table = ops._compressed(grid, ops._plain_kernel(alpha), side)
    worst = 0.0
    for k, band in enumerate(table.band):
        r0 = k * ops._BLOCK
        col0 = max(r0 - ops._BLOCK, 0)
        ref = long_double_band(u, coef, e, r0, r0 + band.shape[0], col0)
        got = band[:, :ref.shape[1]]
        err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
        worst = max(worst, float(np.max(err)))
    z = grid.nodes_z
    power = math.gamma(2.5) / math.gamma(2.5 + alpha)
    if side == "left":
        got = pkg.gfi_left(pkg.GridFn(grid, 0.0, z**1.5), alpha).values
        want = power * z ** (1.5 + alpha)
    else:
        got = pkg.gfi_right(pkg.GridFn(grid, 0.0, (z[-1] - z) ** 1.5), alpha).values
        want = power * (z[-1] - z) ** (1.5 + alpha)
    gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
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
