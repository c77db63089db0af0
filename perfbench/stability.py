"""Run one workload several times, each with another seed, and print the
median and quartiles of each end-to-end metric.

    python3 perfbench/stability.py --workload NAME --runs 10 [--seconds S]

The spread is (Q3 - Q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them.  Bounds in BENCHMARK.json are
set so that each spread but that of `setup_s` is below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = {}
    if os.path.isfile(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec.get("run_seconds"))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.seconds is None:
        parser.error("--seconds is required without BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
        shares.add((result["failed"], result["attempted"]))
        line = [f"seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4f}")
        print(" ".join(line), flush=True)

    report = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"  bound {bound}: {'steady' if spread < bound / 3 else 'NOT below bound/3'}")
        print(f"{name}: median {med:.4f}  Q1 {q1:.4f}  Q3 {q3:.4f}  "
              f"spread {spread:.2%}{verdict}")
    failed_shares = sorted({f / a for f, a in shares})
    print(f"failed shares seen: {failed_shares}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
