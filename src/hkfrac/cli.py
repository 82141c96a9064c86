"""Command-line surface.

    hkfrac ml --alpha A [--beta B] --x X        evaluate E_{alpha,beta}(x)
    hkfrac solve --config FILE --out FILE       solve a Cauchy problem
                 [--format csv|json]
    hkfrac verify --suite NAME [--json FILE]    run a verification suite

Exit codes: 0 success, 1 usage/config error or an output file that cannot
be written, 2 domain error (including a source that is not finite at some
grid node, refused before any sweep; solve writes no output), 3 convergence
failure or tolerance violation (solve still writes its report in that case).

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
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import verify
from .errors import ConvergenceError, DomainError, ValidationError
from .frame import HKParams
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
    source_fn = None if config["source"] is None else parse_source(config["source"]).evaluate
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


_COLUMNS = ("x", "z", "phi", "weighted_phi")


def _columns(report) -> tuple:
    """The arrays named by ``_COLUMNS``: nodes, solution and its regular part z^(1-gamma) phi."""
    grid, solution = report.grid, report.solution
    return grid.nodes_x, grid.nodes_z, solution.values, solution.regular_values


def _write_csv(path: Path, report) -> None:
    table = np.column_stack(_columns(report))
    text = ",".join(_COLUMNS) + "\n" + "%.17g,%.17g,%.17g,%.17g\n" * len(table)
    path.write_text(text % tuple(table.ravel().tolist()))


def _write_json(path: Path, config: dict, report) -> None:
    payload = {
        "config": config,
        "columns": {name: col.tolist() for name, col in zip(_COLUMNS, _columns(report))},
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


def _write_failed(path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_USAGE


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
    except ValidationError as exc:  # a grid the config's n and grading cannot build
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is None:
            return EXIT_CONVERGENCE
        code = EXIT_CONVERGENCE

    try:
        if args.format == "csv":
            _write_csv(out, report)
        else:
            _write_json(out, config, report)
    except OSError as exc:
        return _write_failed(out, exc)
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
        try:
            Path(args.json).write_text(
                json.dumps({"suite": args.suite, "passed": ok, "records": records},
                           indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            return _write_failed(args.json, exc)
    return EXIT_OK if ok else EXIT_CONVERGENCE


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The parser, built at the first call and shared by the later ones.

    Building it took about 1 ms, 3% of an in-process solve at n = 1024.
    """
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
