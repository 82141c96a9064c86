"""Run one workload under several seeds and report each metric's median, quartiles and spread.

    python3 bench/stability.py --workload oracle --seeds 101-110 [--seconds 20] [--trace 0]

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median.  The runs are made
one after another, each in its own process, so they do not compete for the
machine.  The reference figures in bench/README.md come from this script.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

RUN = Path(__file__).resolve().with_name("run.py")


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    results, walls = [], []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(f"seed {seed}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(results[-1])}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}, "
          f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:40s} median {statistics.median(values):.6g}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  spread {stats.spread(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
