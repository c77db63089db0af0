"""Run one `spinonchars` CLI command in this fresh interpreter.

    python3 child.py SPAWN_NS MODE [CLI ARGS...]

SPAWN_NS is the parent's `time.perf_counter_ns()` just before it started this
process; on Linux that clock (CLOCK_MONOTONIC) is shared between processes,
so set-up is measured from interpreter start to `spinonchars.cli` imported.
MODE is `probe` (set-up only), `plain`, `trace:PATH` (spans written to PATH)
or `cases` (print the case ids `verify.build_suite` gives for the verify
arguments).  The command's output goes to stdout after the timed region; the
last line of stderr is `PERFBENCH {json record}`.

The host's speed drifts by up to half again, per CPU, over seconds to
minutes, and the program's times drift with it.  So the process pins itself
to one CPU and times a fixed slice of interpreter work after set-up, after
the command and, through SIGALRM, every SAMPLE_EVERY_S while the command
runs.  It reports the mean speed (slices per second) so that the parent can
scale its times to a reference speed.
"""
import gc
import os
import signal
import sys
import time
from fractions import Fraction

MARK = "PERFBENCH "
SAMPLE_EVERY_S = 0.05


def speed_slice() -> float:
    """Seconds for one fixed slice of pure-Python work (about 0.6 ms): an
    integer and dict loop, then small tuples, generators and Fractions.  With
    both parts the scaled times of each command varied least."""
    start = time.perf_counter_ns()
    counts, total = {}, 0
    for i in range(2000):
        key = i % 251
        counts[key] = counts.get(key, 0) + i
        total += (i * i) % 7
    total += len([x * x for x in range(200)])
    rows, acc = [], Fraction(0)
    for i in range(60):
        row = tuple(j for j in range(i % 6 + 1))
        rows.append((row, sum(row), max(row)))
        acc += Fraction(i, 7)
    return (time.perf_counter_ns() - start) / 1e9


def speed(slices: int = 5) -> float:
    """Slices per second, from the median of a few slices."""
    return 1 / sorted(speed_slice() for _ in range(slices))[slices // 2]


class SpeedSampler:
    """Times one slice every SAMPLE_EVERY_S of wall time while active."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent_ns = 0  # time taken from the command by the samples

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        # with the collector off, the slice's short-lived objects cannot
        # trigger a collection, so the program's collections stay where
        # they would be without sampling (its peak RSS still moves by about
        # 1 MB, as the slice's objects take and free heap blocks)
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.speeds.append(1 / speed_slice())
        finally:
            if enabled:
                gc.enable()
        self.spent_ns += time.perf_counter_ns() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spawn_ns, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from spinonchars import cli
    ready_ns = time.perf_counter_ns()

    import io
    import json
    import resource

    before = speed()
    record = {"setup_s": (ready_ns - spawn_ns) / 1e9, "setup_speed": before}
    if mode == "cases":
        opts = dict(zip(argv[1::2], argv[2::2]))
        qmax = opts.get("--qmax")
        cases = cli.verify.build_suite(opts["--suite"], n=None,
                                       qmax=None if qmax is None else int(qmax))
        sys.stdout.write(json.dumps([c.id for c in cases]))
    elif mode != "probe":
        tracer = None
        if mode.startswith("trace:"):
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        captured, real = io.StringIO(), sys.stdout
        sys.stdout = captured
        with SpeedSampler() as sampler:
            start = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            finally:
                stop = time.perf_counter_ns()
                sys.stdout = real
        # samples taken during the command are evenly spread in time; a
        # command too short to be sampled gets the speed before and after it
        speeds = sampler.speeds or [before, speed()]
        record.update(
            wall_s=(stop - start - sampler.spent_ns) / 1e9,
            speed=sum(speeds) / len(speeds),
            exit=code,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            tracer.dump(mode[len("trace:"):])
        sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    sys.stderr.write("\n" + MARK + json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
