"""Command-line surface.

    hkfrac ml --alpha A [--beta B] --x X        evaluate E_{alpha,beta}(x)
    hkfrac solve --config FILE --out FILE       solve a Cauchy problem
                 [--format csv|json]
    hkfrac verify --suite NAME [--json FILE]    run a verification suite

Exit codes: 0 success, 1 usage/config error, 2 domain error (including a
source that is not finite somewhere on the grid; solve writes no output),
3 convergence failure or tolerance violation (solve still writes its report
in that case).

The problem config is a flat key = value text file; ``#`` starts a comment.
Keys: alpha, beta, rho (number or "hadamard"), a, b, c, lambda, source
(an expression over x and z), xi (optional; switches the right-hand side to
lambda * z^xi * phi), n, grading, tol, max_iters, lipschitz.  Unknown keys
and non-finite numbers are rejected.  Example::

    alpha = 0.5
    beta = 0
    rho = 1
    a = 1
    b = 2
    c = 1
    lambda = -1
    source = 0
    n = 512
    tol = 1e-8
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import verify
from .errors import ConvergenceError, DomainError, ValidationError
from .frame import HKParams, z_of_x
from .solver import CauchyProblem, SolverConfig, picard_solve
from .sourceexpr import parse_source
from .specfun import MLQuery, ml2

__all__ = ["main", "console_main", "parse_config_text", "validate_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------- config file

_REQUIRED_KEYS = ("alpha", "beta", "rho", "a", "b", "c")
_OPTIONAL_KEYS = {
    "lambda": 0.0,
    "source": None,
    "xi": None,
    "n": 512,
    "grading": None,
    "tol": 1e-8,
    "max_iters": 200,
    "lipschitz": None,
}
_INT_KEYS = ("n", "max_iters")
_STRING_KEYS = ("source",)


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value format into a typed dict."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        if key in _STRING_KEYS:
            raw[key] = value
        elif key == "rho" and value == "hadamard":
            raw[key] = "hadamard"
        else:
            try:
                number = float(value)
            except ValueError:
                raise ValidationError(
                    f"config line {lineno}: key {key!r} needs a number (got {value!r})"
                ) from None
            if not math.isfinite(number):
                raise ValidationError(
                    f"config line {lineno}: key {key!r} needs a finite number (got {value!r})"
                )
            if key in _INT_KEYS:
                if number != int(number):
                    raise ValidationError(f"config line {lineno}: key {key!r} needs an integer")
                raw[key] = int(number)
            else:
                raw[key] = number
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ValidationError(f"config is missing required keys: {', '.join(missing)}")
    for key, default in _OPTIONAL_KEYS.items():
        raw.setdefault(key, default)
    return raw


def validate_config(config: dict) -> tuple:
    """Build (params, problem, solver config) from a typed config dict.

    Every referenced module invariant is revalidated here; the raised
    messages name the violated bound.
    """
    params = HKParams(config["alpha"], config["beta"], config["rho"], config["a"], config["b"])
    source_fn = None
    if config["source"] is not None:
        expr = parse_source(config["source"])

        def source_fn(x, _expr=expr, _params=params):
            return _expr.evaluate(x, z_of_x(_params, x))

    if config["xi"] is not None:
        problem = CauchyProblem.power_weighted(
            params, config["lambda"], config["xi"], config["c"], source_fn
        )
    else:
        problem = CauchyProblem.linear(params, config["lambda"], source_fn, config["c"])
    if config["lipschitz"] is not None:
        problem = dataclasses.replace(problem, lipschitz=config["lipschitz"])
    solver_config = SolverConfig(
        n=config["n"], grading=config["grading"],
        tol=config["tol"], max_iters=config["max_iters"],
    )
    return params, problem, solver_config


# ------------------------------------------------------------------- outputs

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _columns(report) -> dict:
    grid = report.grid
    gamma = grid.params.gamma
    values = report.solution.values
    weighted = grid.nodes_z ** (1.0 - gamma) * values
    return {
        "x": [float(v) for v in grid.nodes_x],
        "z": [float(v) for v in grid.nodes_z],
        "phi": [float(v) for v in values],
        "weighted_phi": [float(v) for v in weighted],
    }


def _write_csv(path: Path, report) -> None:
    cols = _columns(report)
    lines = ["x,z,phi,weighted_phi"]
    for row in zip(cols["x"], cols["z"], cols["phi"], cols["weighted_phi"]):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, config: dict, report) -> None:
    payload = {
        "config": config,
        "columns": _columns(report),
        "report": {
            "family": report.grid.params.family,
            "converged": bool(report.converged),
            "breakpoints": [float(v) for v in np.asarray(report.breakpoints)],
            "contraction_factors": [float(v) for v in report.contraction_factors],
            "residual_history": [[float(v) for v in h] for h in report.residual_history],
            "iterations": [int(v) for v in report.iterations],
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------ commands

def _cmd_ml(args) -> int:
    try:
        beta = 1.0 if args.beta is None else args.beta
        value = ml2(MLQuery(args.alpha, beta, args.x))
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    print(_fmt(value))
    return EXIT_OK


def _cmd_solve(args) -> int:
    try:
        config = parse_config_text(Path(args.config).read_text())
        params, problem, solver_config = validate_config(config)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out)
    try:
        report = picard_solve(problem, solver_config)
        code = EXIT_OK
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is None:
            return EXIT_CONVERGENCE
        code = EXIT_CONVERGENCE

    if args.format == "csv":
        _write_csv(out, report)
    else:
        _write_json(out, config, report)
    return code


def _cmd_verify(args) -> int:
    try:
        records = verify.run_suite(args.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['suite']}: {r['case']} "
              f"(error={r['error']:.3e}, tol={r['tolerance']:.1e})")
    ok = verify.all_passed(records)
    print(f"{'all passed' if ok else 'FAILED'}: "
          f"{sum(r['passed'] for r in records)}/{len(records)} cases")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"suite": args.suite, "passed": ok, "records": records},
                       indent=2, sort_keys=True) + "\n"
        )
    return EXIT_OK if ok else EXIT_CONVERGENCE


def _build_parser() -> _Parser:
    parser = _Parser(prog="hkfrac", description="Fractional operators, special functions and a Picard solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ml = sub.add_parser("ml", help="evaluate the two-parameter Mittag-Leffler function")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--beta", type=float, default=None, help="defaults to 1 (one-parameter family)")
    p_ml.add_argument("--x", type=float, required=True)
    p_ml.set_defaults(func=_cmd_ml)

    p_solve = sub.add_parser("solve", help="solve a Cauchy problem from a config file")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          help="one of: " + ", ".join(verify.SUITE_NAMES))
    p_verify.add_argument("--json", default=None, help="write the per-case records here")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
