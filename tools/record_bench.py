"""Record every benchmark workload into one `BENCH_<n>.json` at the repo root.

    python3 tools/record_bench.py --number N

Runs `perfbench/run.py --seed 1 --seconds 30` as a subprocess for each
workload it lists, once with `--trace 0` (end-to-end metrics) and once with
`--trace 1` (per-layer metrics), and reads the JSON object on the last line
of each run's stdout.  The file holds, per workload and trace mode,
`correct`, `attempted`, `failed` and every metric with its unit, plus the
commit, the core count and the Python version.  Exits 1 if any run fails or
reports a failed operation; the file is still written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("char-yangian", "series-deep", "verify-all")
SEED, SECONDS = 1, 30  # the run length BENCHMARK.json sets
# Per-layer counters that read 0 by construction; they are recorded as they
# read.  Other zeros are layers a workload does not run.
ZERO_BY_CONSTRUCTION = (
    "Every workload: strips.kept and strips.kept_ratio count the "
    "yangian_decomposition -> strip_schur calls, and "
    "symfunc.strip_schur.calls, symfunc.littlewood_richardson.*, "
    "qseries.inverse.calls, affine.table_add.calls and "
    "partitions.conjugate.calls (it reads the method Partition.conjugate; "
    "a partition is a tuple, and conjugate is the module function "
    "partitions.conjugate) the calls of a function; none of these functions "
    "exists any longer.  char-yangian: "
    "strips.enumerated, "
    "strips.enumerate_border_strips.calls, strips.energy.calls and "
    "symfunc.weight_projection.calls, since the Yangian route is a "
    "transfer-matrix sum that enumerates no strip.  Other zeros are layers a "
    "workload does not run: char-yangian runs no qseries, partitions or "
    "verify code, and series-deep enumerates no strip and no partition and "
    "runs no symfunc code (partitions.partitions_of.yielded, "
    "symfunc.weight_projection.calls and symfunc.self_s read 0), since its "
    "rank-2 module sum is a transfer matrix over part sizes.  The tracer "
    "wraps only the layers loaded when it installs, and `cli` imports "
    "verify, strips and symfunc inside the command that runs them, so no "
    "function of theirs is wrapped: on verify-all every strips.* and "
    "symfunc.* metric, verify.self_s and verify.build_suite.s read 0, and on "
    "series-deep (its spinon-cut command) verify.self_s and "
    "verify.build_suite.s; their time is charged to cli.self_s.  "
    "verify.cases is read from the report and stays live."
)


def commit() -> str:
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": None,
                "exit": proc.returncode, "error": proc.stderr[-500:]}
    record["exit"] = proc.returncode
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True)
    args = parser.parse_args(argv)

    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run(workload, trace)
            runs[f"{workload} --trace {trace}"] = record
            print(f"{workload} --trace {trace}: exit {record['exit']}, "
                  f"failed {record['failed']}", file=sys.stderr)
    doc = {
        "commit": commit(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "command": f"perfbench/run.py --seed {SEED} --seconds {SECONDS}",
        "note": ZERO_BY_CONSTRUCTION,
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ok = all(r["exit"] == 0 and r["failed"] == 0 for r in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
