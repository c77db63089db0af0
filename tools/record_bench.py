"""Record every benchmark workload into one `BENCH_<n>.json` at the repo root.

    python3 tools/record_bench.py --number N

Runs `perfbench/run.py --seed 1 --seconds 30` as a subprocess for each
workload it lists, once with `--trace 0` (end-to-end metrics) and once with
`--trace 1` (per-layer metrics), and reads the JSON object on the last line
of each run's stdout.  The file holds, per workload and trace mode,
`correct`, `attempted`, `failed` and every metric with its unit, plus the
commit, the core count and the Python version.

It also times the Yangian route over the rank in process (`rank_sweep`):
`yangian_decomposition(n, k, 3)` for k = 0, 1 and n // 2 at n = 4, 8, ...,
128 and 200, each the best of three runs with the `_times_e` memo cleared,
and the least-squares slope of log(seconds) against log(n) for each k: a route
polynomial in the rank keeps that slope bounded, and an exponential one's
rises with n.  Likewise it times the rank-2 routes over the order
(`order_sweep`): `yangian.sl2_yangian_decomposition(k, q)`,
`yangian.yangian_decomposition(2, k, q)` and `affine.bosonic_character(2,
k, q)` for k = 0, 1 at q = 10, 20, 40, 80 and 160, each the best of three
runs with every memo they read cleared, and the slope of log(seconds)
against log(q) for each route and k.

It also records start-up (`startup`): for `spinonchars.cli` and
`spinonchars.verify`, the median over 20 fresh interpreters of the
cumulative `-X importtime` of importing the module, and the package modules
that the import loads.  Each interpreter runs with
`PYTHONDONTWRITEBYTECODE=1` and without `PYTHONPYCACHEPREFIX`, on a copy of
`src/` without `__pycache__`, so it compiles every package module it loads,
as the benchmark's processes do in a fresh checkout.

It times the table writer in process (`writer`): `cli._write_table` of
`char --kind bosonic --n 8 --k 0 --qmax 10` in json, csv and pretty, and of
the six `char --kind yangian` tables of the `char-yangian` workload in
json, each the best of five runs into `os.devnull`, with the table built
once beforehand.

Last it runs Tier-1 once (`tier1`), the command of ROADMAP.md with
`--durations=10` and without pytest's cache, and records its wall time, the
counts of its summary line (passed, failed, ...) and its ten slowest test
phases.

Exits 1 if any run fails or reports a failed operation; the file is still
written.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("char-yangian", "series-deep", "verify-all")
SEED, SECONDS = 1, 30  # the run length BENCHMARK.json sets
SWEEP_RANKS = (4, 8, 16, 32, 64, 128, 200)
SWEEP_QMAX, SWEEP_KS, SWEEP_REPEATS = 3, (0, 1), 3
# the classes of the rank sweep, each a function of the rank
RANK_SWEEP_KS = {"k=0": lambda n: 0, "k=1": lambda n: 1, "k=n//2": lambda n: n // 2}
SWEEP_ORDERS = (10, 20, 40, 80, 160)
# (kind, n, k, qmax, formats) of the writer timings, and the runs of each
WRITER_POINTS = (("bosonic", 8, 0, 10, ("json", "csv", "pretty")), *(
    ("yangian", n, k, qmax, ("json",))
    for n, k, qmax in ((2, 0, 11), (2, 1, 10), (3, 0, 6), (3, 1, 5), (4, 0, 4), (5, 0, 3))))
WRITER_REPEATS = 5
STARTUP_MODULES, STARTUP_RUNS = ("spinonchars.cli", "spinonchars.verify"), 20
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=10")
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
    "exists any longer.  So do qseries.mul.calls and qseries.add.calls: they "
    "read the operators QSeries.__mul__ and __add__, and a series is now a "
    "tuple, multiplied by the module function qseries.product and added "
    "coefficient by coefficient.  yangian.gz_schemes.calls and "
    "qseries.euler_inverse.s read functions that now live in symfunc, as "
    "symfunc.gz_schemes and symfunc.euler_inverse, so they read 0 too.  "
    "The tracer's METHODS entry "
    "affine.CharacterTable names a class that no longer exists (a character "
    "table is a plain dict of orbit rows), and install() skips it.  "
    "char-yangian: "
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
    "verify inside the command that runs it, and verify imports strips and "
    "symfunc inside the checks that read them, so no function of theirs is "
    "wrapped: on verify-all every strips.* and "
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


def best_seconds(call, memos, repeats: int = SWEEP_REPEATS) -> float:
    """The least of `repeats` timings of `call()`, each with `memos`
    cleared first."""
    best = math.inf
    for _ in range(repeats):
        for memo in memos:
            memo.cache_clear()
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def log_log_slope(xs, times) -> float:
    fit = statistics.linear_regression([math.log(x) for x in xs], [math.log(t) for t in times])
    return round(fit.slope, 3)


def rank_sweep() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spinonchars import yangian
    points, slopes = [], {}
    for label, k_of in RANK_SWEEP_KS.items():
        times = []
        for n in SWEEP_RANKS:
            k = k_of(n)
            best = best_seconds(lambda: yangian.yangian_decomposition(n, k, SWEEP_QMAX),
                                (yangian._times_e,))
            times.append(best)
            points.append({"n": n, "k": k, "qmax": SWEEP_QMAX, "seconds": round(best, 6)})
        slopes[label] = log_log_slope(SWEEP_RANKS, times)
    return {"route": "yangian.yangian_decomposition, in process, best of "
                     f"{SWEEP_REPEATS} with a cold _times_e memo",
            "points": points, "log_log_slope_in_n": slopes}


def order_sweep() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spinonchars import affine, qseries, yangian
    routes = {
        "sl2_yangian_decomposition": yangian.sl2_yangian_decomposition,
        "yangian_decomposition": lambda k, q: yangian.yangian_decomposition(2, k, q),
        "bosonic_character": lambda k, q: affine.bosonic_character(2, k, q),
    }
    memos = (yangian._times_e, qseries.inv_pochhammer, qseries._inv_pochhammer_product)
    points, slopes = [], {}
    for name, route in routes.items():
        for k in SWEEP_KS:
            times = []
            for q in SWEEP_ORDERS:
                best = best_seconds(lambda: route(k, q), memos)
                times.append(best)
                points.append({"route": name, "n": 2, "k": k, "qmax": q,
                               "seconds": round(best, 6)})
            slopes[f"{name} k={k}"] = log_log_slope(SWEEP_ORDERS, times)
    return {"routes": "the rank-2 routes in process, best of "
                      f"{SWEEP_REPEATS} with cold memos",
            "points": points, "log_log_slope_in_qmax": slopes}


def writer() -> dict:
    """The writer record (see the module docstring)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spinonchars import cli
    points = []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for kind, n, k, qmax, formats in WRITER_POINTS:
            table = cli._build_table(kind, n, k, qmax)
            for fmt in formats:
                best = best_seconds(lambda: cli._write_table(table, n, k, qmax, fmt, sink), (),
                                    WRITER_REPEATS)
                points.append({"kind": kind, "n": n, "k": k, "qmax": qmax, "format": fmt,
                               "seconds": round(best, 6)})
    return {"route": f"cli._write_table in process into os.devnull, best of {WRITER_REPEATS}",
            "points": points}


def startup() -> dict:
    """The start-up record of each module of STARTUP_MODULES (see the
    module docstring).  The cumulative time of an import is the sum over the
    top-level `-X importtime` lines of the package, the package root's and
    the module's, in microseconds."""
    probe = ("import importlib, sys\n"
             "importlib.import_module(sys.argv[1])\n"
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('spinonchars.'))))\n")
    record = {}
    with tempfile.TemporaryDirectory(prefix="record_bench_") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
        env.pop("PYTHONPYCACHEPREFIX", None)
        for module in STARTUP_MODULES:
            times, loads = [], set()
            for _ in range(STARTUP_RUNS):
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c", probe, module],
                                      capture_output=True, text=True, cwd=tmp, env=env,
                                      check=True)
                lines = [line.split("|") for line in proc.stderr.splitlines()
                         if line.startswith("import time:")]
                times.append(sum(int(cumulative) for _, cumulative, name in lines
                                 if name.startswith(" spinonchars")
                                 and not name.startswith("  ")))
                loads.add(proc.stdout.strip())
            record[module] = {"cumulative_us_median": statistics.median(times),
                              "runs": STARTUP_RUNS,
                              "loads": sorted(name for text in loads for name in text.split())}
    return record


def tier1() -> dict:
    """One Tier-1 run in a subprocess: its wall time, the counts of its
    summary line, and its ten slowest test phases as pytest prints them."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], capture_output=True, text=True,
                          cwd=ROOT, env=env)
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    counts = {word: int(count) for count, word in
              re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]} for m in
               (re.match(r"([0-9.]+)s (call|setup|teardown) +(\S.*)$", line) for line in lines)
               if m]
    return {"command": f"PYTHONPATH=src python {' '.join(TIER1)}", "exit": proc.returncode,
            "wall_s": round(wall, 3), "counts": counts, "slowest": slowest}


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
        "rank_sweep": rank_sweep(),
        "order_sweep": order_sweep(),
        "writer": writer(),
        "startup": startup(),
        "tier1": tier1(),
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ok = (all(r["exit"] == 0 and r["failed"] == 0 for r in runs.values())
          and doc["tier1"]["exit"] == 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
