"""Compare the end-to-end benchmark metrics of a parent revision and the
working tree in alternating pairs of runs.

    python3 tools/compare_bench.py PARENT_REV --workload W --pairs N [--seconds S]

Unpacks PARENT_REV with `git archive` into a temporary directory and copies
the working tree there beside it, without `.git` or any `__pycache__`, then
for pair i = 1..N runs `perfbench/run.py --workload W --seed i --seconds S
--trace 0` once in each copy, each with its own `perfbench/`, the parent
first in odd pairs and the working tree first in even ones.  S defaults to
`run_seconds` of `BENCHMARK.json`.  Both sides run with
`PYTHONDONTWRITEBYTECODE=1` and without `PYTHONPYCACHEPREFIX`, as in a fresh
checkout: every process compiles each package module it imports, and reads
the standard library's own bytecode.

For each end-to-end metric of `BENCHMARK.json` it prints each side's median
and quartiles, the pairs the change won (ties count for neither side), the
relative change of the median, and two verdicts:
- gain: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound.

The temporary directory is deleted on exit, and every run has ended by then.
Exits 1 if a run fails or reports a failed operation, else 0.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9  # the least share of pairs the change must win


def unpack(rev: str, into: str) -> None:
    """The files of commit `rev` of this repository, written under `into`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def copy_tree(into: str) -> None:
    """The working tree, written under `into` without `.git` or any
    `__pycache__`."""
    shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(".git", "__pycache__"))


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one `perfbench/run.py` run in
    `tree` that writes no bytecode."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=tree, timeout=600 + 20 * seconds,
        env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"run in {tree} printed nothing: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdicts(parent: list[float], change: list[float], better: str,
             bound: float) -> dict:
    """Pairs won, the relative change of the median and both verdicts of one
    metric; `better` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (p_med - c_med)  # > 0: the change is better
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "won": won, "pairs": len(parent),
        "relative": (c_med - p_med) / p_med if p_med else 0.0,
        "gain": won >= GAIN_SHARE * len(parent) and gap > p_q3 - p_q1,
        "regression": -gap > bound * abs(p_med),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    values = {"parent": {}, "change": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="compare_bench_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        unpack(args.parent_rev, trees["parent"])
        copy_tree(trees["change"])
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            line = [f"pair {seed}:"]
            for side in order:
                result = run(trees[side], args.workload, seed, args.seconds)
                ok &= result["failed"] == 0
                line.append(f"{side} failed={result['failed']}/{result['attempted']}")
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                    line.append(f"{name}={metric['value']:.5g}")
            print(" ".join(line), flush=True)

    print(f"{args.workload}: {args.pairs} pairs, {args.seconds:g} s each run")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = verdicts(values["parent"][name], values["change"][name],
                     metric["better"], metric["bound"])
        p, c = v["parent"], v["change"]
        print(f"  {name} [{metric['unit']}]: parent {p[1]:.5g} (q1 {p[0]:.5g}, "
              f"q3 {p[2]:.5g}), change {c[1]:.5g} (q1 {c[0]:.5g}, q3 {c[2]:.5g}), "
              f"{v['relative']:+.1%}, change won {v['won']}/{v['pairs']} pairs; "
              f"gain: {'yes' if v['gain'] else 'no'}, regression past the "
              f"{metric['bound']:.0%} bound: {'yes' if v['regression'] else 'no'}")
    if not ok:
        print("a run reported failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
