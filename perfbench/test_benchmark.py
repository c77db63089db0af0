"""Tests of the benchmark's own parts (run: python3 -m pytest perfbench)."""
import json
import os
import time

import run
from tracer import Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def test_benchmark_json_lists_every_metric_the_run_prints():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    printed[run.TRACE_OVERHEAD] = "s"
    assert per_layer == printed
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_self_time_excludes_child_spans(tmp_path):
    tracer = Tracer()

    def inner():
        time.sleep(0.02)
        return [1, 2, 3]

    inner = tracer._wrap(inner, "lower.inner")

    def outer():
        time.sleep(0.01)
        return inner() + inner()

    outer = tracer._wrap(outer, "upper.outer")

    def gen():
        for i in range(4):
            yield inner()[i % 3]

    gen = tracer._wrap(gen, "lower.gen")
    assert outer() == [1, 2, 3, 1, 2, 3]
    assert list(gen()) == [1, 2, 3, 1]
    path = tmp_path / "t.spans"
    tracer.dump(str(path))
    s = summarize(str(path))
    assert s["calls"] == {"lower.inner": 6, "upper.outer": 1, "lower.gen": 1}
    assert s["items"]["lower.inner"] == 18 and s["items"]["lower.gen"] == 4
    assert s["edges"]["upper.outer>lower.inner"] == 2
    assert s["edges"]["lower.gen>lower.inner"] == 4
    assert 0.01 <= s["self_s"]["upper"] < 0.03
    assert s["self_s"]["lower"] >= 0.12
    assert s["incl_s"]["upper.outer"] >= 0.05
