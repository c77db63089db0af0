"""Benchmark of the `spinonchars` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI commands one after another (a closed loop with one
client), each in a fresh interpreter started by `child.py`, in whole rounds
for about S seconds (at least one round).  The seed only orders the commands within each
round.  Every output is checked: tables against the independent reference in
`reference.py` (and `--kind yangian` tables byte for byte against
`--kind bosonic`), verify reports case by case against the ids
`verify.build_suite` gives.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, and with `--trace 1` the per-layer metrics of traced rounds,
each run after an untraced round of the same order.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from reference import check_table
from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MARK = "PERFBENCH "

PROBES = 6  # set-up-only processes per run, so set-up has samples on every workload
# Times are scaled to the speed at which child.speed_slice() takes this long:
# the host's speed drifts by up to half again over seconds to minutes, and
# the program's own times drift with it (see child.py).
SLICE_REF_S = 0.0006
CHILD_TIMEOUT_S = 170


def char(kind: str, n: int, k: int, qmax: int) -> tuple[str, ...]:
    return ("char", "--kind", kind, "--n", str(n), "--k", str(k),
            "--qmax", str(qmax), "--format", "json")


WORKLOADS = {
    # one step past the acceptance bounds of the Yangian route
    "char-yangian": tuple(
        char("yangian", n, k, qmax)
        for n, k, qmax in ((2, 0, 11), (2, 1, 10), (3, 0, 6), (3, 1, 5),
                           (4, 0, 4), (5, 0, 3))
    ),
    # every other route at deep truncation; enumerates no strip
    "series-deep": (
        char("bosonic", 2, 0, 120),
        char("bosonic", 2, 1, 120),
        char("bosonic", 8, 0, 10),
        *(char(kind, 2, 1, 36) for kind in ("fermionic-root", "fermionic-spinon",
                                             "spinon-enum", "sl2-yangian")),
        ("verify", "--suite", "spinon-cut", "--qmax", "20", "--format", "json"),
    ),
    "verify-all": (
        ("verify", "--suite", "all", "--jobs", "1", "--format", "json"),
    ),
}


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _incl(name):
    return lambda s: s["incl_s"].get(name, 0.0)


def _self(layer):
    return lambda s: s["self_s"].get(layer, 0.0)


def _kept(s):
    """Strips past the energy filter: one `strip_schur` call each."""
    return s["edges"].get("yangian.yangian_decomposition>symfunc.strip_schur", 0)


def _enumerated(s):
    return s["items"].get("strips.enumerate_border_strips", 0)


# name -> (unit, how to read it from a summary of one traced round)
PER_LAYER = {
    "strips.self_s": ("s", _self("strips")),
    "strips.enumerate_border_strips.calls": ("count", _calls("strips.enumerate_border_strips")),
    "strips.enumerated": ("count", _enumerated),
    "strips.energy.calls": ("count", _calls("strips.energy")),
    "strips.kept": ("count", _kept),
    "strips.kept_ratio": ("ratio", lambda s: _kept(s) / max(_enumerated(s), 1)),
    "partitions.self_s": ("s", _self("partitions")),
    "partitions.conjugate.calls": ("count", _calls("partitions.Partition.conjugate")),
    "partitions.partitions_of.yielded": ("count", lambda s: s["items"].get("partitions.partitions_of", 0)),
    "symfunc.self_s": ("s", _self("symfunc")),
    "symfunc.strip_schur.calls": ("count", _calls("symfunc.strip_schur")),
    "symfunc.weight_projection.calls": ("count", _calls("symfunc.weight_projection")),
    "symfunc.schur_skew.calls": ("count", _calls("symfunc.schur_skew")),
    "symfunc.littlewood_richardson.calls": ("count", _calls("symfunc.littlewood_richardson")),
    "symfunc.littlewood_richardson.s": ("s", _incl("symfunc.littlewood_richardson")),
    "qseries.self_s": ("s", _self("qseries")),
    "qseries.mul.calls": ("count", _calls("qseries.QSeries.__mul__")),
    "qseries.add.calls": ("count", _calls("qseries.QSeries.__add__")),
    "qseries.inverse.calls": ("count", _calls("qseries.QSeries.inverse")),
    "qseries.euler_inverse.s": ("s", _incl("qseries.euler_inverse")),
    "qseries.inv_pochhammer.calls": ("count", _calls("qseries.inv_pochhammer")),
    "qseries.inv_pochhammer.misses": ("count", lambda s: s["misses"].get("qseries.inv_pochhammer", 0)),
    "affine.self_s": ("s", _self("affine")),
    "affine.table_add.calls": ("count", _calls("affine.CharacterTable.add")),
    "affine.bosonic_character.s": ("s", _incl("affine.bosonic_character")),
    "affine.spinon_string_function.calls": ("count", _calls("affine.spinon_string_function")),
    "yangian.self_s": ("s", _self("yangian")),
    "yangian.yangian_decomposition.s": ("s", _incl("yangian.yangian_decomposition")),
    "yangian.gz_schemes.calls": ("count", _calls("yangian.gz_schemes")),
    "verify.self_s": ("s", _self("verify")),
    "verify.build_suite.s": ("s", _incl("verify.build_suite")),
    "verify.cases": ("count", lambda s: s["cases"]),
    "cli.self_s": ("s", _self("cli")),
    "cli.output_bytes": ("bytes", lambda s: s["output_bytes"]),
}
TRACE_OVERHEAD = "trace.overhead_s"


class ChildError(Exception):
    pass


def spawn(mode: str, args=()) -> tuple[dict, bytes]:
    """Start child.py in a fresh interpreter; its record and stdout."""
    env = {k: v for k, v in os.environ.items() if k != "SPINONCHARS_JOBS"}
    spawn_ns = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, CHILD, str(spawn_ns), mode, *args],
        capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    last = proc.stderr.decode(errors="replace").rstrip().rsplit("\n", 1)[-1]
    if proc.returncode != 0 or not last.startswith(MARK):
        raise ChildError(f"{' '.join(args) or mode}: child exited "
                         f"{proc.returncode}: {last[-300:]}")
    return json.loads(last[len(MARK):]), proc.stdout


def _opts(args) -> dict:
    return dict(zip(args[1::2], args[2::2]))


class Checker:
    """Expected outputs, computed untimed once per run, and per-command
    accounting of operations (a table, or a verify case) attempted and failed."""

    def __init__(self, commands):
        self.case_ids: dict[tuple, Counter] = {}
        self.bosonic: dict[tuple, bytes] = {}
        self.verdicts: dict[tuple, str | None] = {}
        for args in commands:
            if args[0] == "verify":
                _, out = spawn("cases", args)
                self.case_ids[args] = Counter(json.loads(out))
            elif _opts(args)["--kind"] == "yangian":
                bos = tuple("bosonic" if a == "yangian" else a for a in args)
                record, out = spawn("plain", bos)
                if record["exit"] != 0:
                    raise ChildError(f"reference {' '.join(bos)} exited {record['exit']}")
                self.bosonic[args] = out

    def attempted(self, args) -> int:
        return sum(self.case_ids[args].values()) if args[0] == "verify" else 1

    def failed(self, args, exit_code, out: bytes) -> tuple[int, int, str | None]:
        """(operations failed, verify cases reported, first fault)."""
        if args[0] == "verify":
            return self._verify_failed(args, exit_code, out)
        if exit_code != 0:
            return 1, 0, f"exit code {exit_code}"
        if args in self.bosonic and out != self.bosonic[args]:
            return 1, 0, "differs from --kind bosonic"
        key = (args, hashlib.sha256(out).digest())
        if key not in self.verdicts:  # same bytes, same verdict
            opts = _opts(args)
            try:
                doc = json.loads(out)
                self.verdicts[key] = check_table(
                    doc, int(opts["--n"]), int(opts["--k"]), int(opts["--qmax"]))
            except (ValueError, KeyError, TypeError) as exc:
                self.verdicts[key] = f"unreadable table: {exc!r}"
        fault = self.verdicts[key]
        return (0 if fault is None else 1), 0, fault

    def _verify_failed(self, args, exit_code, out: bytes):
        expected = self.case_ids[args]
        everything = sum(expected.values())
        try:
            cases = json.loads(out)["cases"]
            passing = Counter(c["id"] for c in cases if c["pass"] is True)
            reported = Counter(c["id"] for c in cases)
        except (ValueError, KeyError, TypeError) as exc:
            return everything, 0, f"unreadable report: {exc!r}"
        if reported - expected:
            return everything, len(cases), f"unexpected case ids {sorted(reported - expected)[:3]}"
        if exit_code != (0 if passing == expected else 1):
            return everything, len(cases), f"exit code {exit_code}"
        missing = expected - passing
        fault = None if not missing else f"failed or missing: {sorted(missing)[:3]}"
        return sum(missing.values()), len(cases), fault


def run_round(commands, order, checker, trace_dir=None) -> dict:
    rnd = {"wall_s": 0.0, "raw_wall_s": 0.0, "setup_s": [], "peak_rss_mb": 0.0, "attempted": 0,
           "failed": 0, "cases": 0, "output_bytes": 0, "traces": {}}
    for idx in order:
        args = commands[idx]
        rnd["attempted"] += checker.attempted(args)
        path = None if trace_dir is None else os.path.join(trace_dir, f"c{idx}.spans")
        try:
            record, out = spawn("plain" if path is None else "trace:" + path, args)
        except (ChildError, subprocess.TimeoutExpired) as exc:
            rnd["failed"] += checker.attempted(args)
            print(f"FAIL {' '.join(args)}: {exc}", file=sys.stderr)
            continue
        scale = record["speed"] * SLICE_REF_S
        rnd["wall_s"] += record["wall_s"] * scale
        rnd["raw_wall_s"] += record["wall_s"]
        rnd["setup_s"].append(record["setup_s"] * record["setup_speed"] * SLICE_REF_S)
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], record["peak_rss_mb"])
        rnd["output_bytes"] += len(out)
        failed, cases, fault = checker.failed(args, record["exit"], out)
        rnd["failed"] += failed
        rnd["cases"] += cases
        if fault is not None:
            print(f"FAIL {' '.join(args)}: {fault}", file=sys.stderr)
        if path is not None:
            summary = summarize(path)
            for times in (summary["self_s"], summary["incl_s"]):
                times.update((k, v * scale) for k, v in times.items())
            summary.update(cases=cases, output_bytes=len(out))
            rnd["traces"][args] = summary
    return rnd


def merge(summaries) -> dict:
    """Sum per-command trace summaries into one for the round."""
    total: dict = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, dict):
                into = total.setdefault(key, {})
                for k, v in value.items():
                    into[k] = into.get(k, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(summary) -> dict:
    return {name: read(summary) for name, (_, read) in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinonchars", "cli.py")):
        print(f"perfbench: no spinonchars sources under {ROOT}/src", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload]
    checker = Checker(commands)
    setups = []
    for _ in range(PROBES):
        record, _ = spawn("probe")
        setups.append(record["setup_s"] * record["setup_speed"] * SLICE_REF_S)
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".perfbench", "trace", args.workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)

    rng = random.Random(args.seed)
    rounds, traced = [], []
    begin = time.perf_counter()
    while True:
        order = rng.sample(range(len(commands)), len(commands))
        rounds.append(run_round(commands, order, checker))
        if trace_dir is not None:
            traced.append(run_round(commands, order, checker, trace_dir))
        elapsed = time.perf_counter() - begin
        # start another round only if it should end within the run length
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    everything = rounds + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for i, r in enumerate(rounds):
        print(f"round {i + 1}: wall {r['wall_s']:.3f} s speed-scaled, "
              f"{r['raw_wall_s']:.3f} s measured, "
              f"{r['attempted'] - r['failed']}/{r['attempted']} operations correct")
    if trace_dir is None:
        metrics = {
            "setup_s": {"value": statistics.median(
                setups + [s for r in rounds for s in r["setup_s"]]), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    else:
        for args_, s in traced[0]["traces"].items():
            m = layer_metrics(s)
            print(f"trace {' '.join(args_)}: " + ", ".join(
                f"{k}={m[k]:.4g}" if isinstance(m[k], float) else f"{k}={m[k]}"
                for k in m if m[k]))
        per_round = [layer_metrics(merge(r["traces"].values())) for r in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        metrics[TRACE_OVERHEAD] = {
            "value": statistics.median(t["wall_s"] - r["wall_s"]
                                       for t, r in zip(traced, rounds)),
            "unit": "s"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
