"""Benchmark for hkfrac: four workloads over the solve, oracle and operator paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # each workload in its own process

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  One process runs one workload on one BLAS
thread.  It sets up (imports, input generation, warm-up), computes the
references, then runs whole rounds of the workload's cases until ``S``
seconds have passed, checks every output and prints one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``setup_s`` is the median set-up time of this process and of four fresh
processes that only set up (``--setup-only``) and exit.
See bench/README.md for the workloads, metrics and reference figures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "_runs"
WORKLOAD_NAMES = ("solve-mild", "solve-stiff", "oracle", "operators")
SETUP_SAMPLES = 5  # processes whose set-up time setup_s is the median of
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit (a setup_s sample)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_sample(args) -> float:
    """The set-up time of a fresh process that sets up the same workload and exits."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                           args.workload, "--seed", str(args.seed), "--setup-only"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_all(args) -> int:
    """Each workload in a child process; a summary JSON line at the end."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}", flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hkfrac" / "__init__.py").is_file():
        print(f"error: no hkfrac package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:  # read once, when numpy loads BLAS below
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import resource
    import shutil
    import statistics

    import hkfrac  # loads numpy, so its import counts as set-up
    if Path(hkfrac.__file__).resolve().parent != (SRC / "hkfrac").resolve():
        print(f"error: imported hkfrac from {hkfrac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import mpmath  # noqa: F401  (reference work: its import is kept out of setup_s)
    reference_import_s = time.perf_counter() - t0
    import cases as case_specs
    import stats
    import tracing
    import workloads

    workdir = RUNS_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        # Set-up: input generation and warm-up, once.  Its time counts from the
        # first statement of this file, less the reference library's import.
        specs = case_specs.make_cases(args.workload, args.seed)
        cases = [workloads.build_case(spec, workdir) for spec in specs]
        workloads.warm_up(specs, workdir)
        setup_s = time.perf_counter() - T_START - reference_import_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0

        for case in cases:  # references: outside set-up and outside the timed phase
            case.prepare()
        if tracer:
            tracer.instrument()
        else:
            samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            setup_s = statistics.median(samples)
        try:
            result = workloads.run_rounds(cases, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latency_ms = 1e3 * stats.gmean_of_medians(result["times"]) if result["times"] else math.nan
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": result["rounds"],
        "setup_s": setup_s, "latency_gmean_ms": latency_ms,
        "max_error": {k: max(v) for k, v in result["errors"].items()},
    }), flush=True)
    if tracer:
        metrics = tracer.layer_metrics(result["case_of_op"])
        tracer.write(RUNS_DIR / f"trace-{args.workload}-s{args.seed}.json", result["case_of_op"])
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "latency_gmean_ms": {"value": latency_ms, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "correct_digits": {"value": stats.mean_digits(result["errors"])
                               if result["errors"] else 0.0, "unit": "digits"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
