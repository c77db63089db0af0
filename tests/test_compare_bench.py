"""`tools/compare_bench.py` runs both sides as fresh checkouts."""
import importlib.util
import json
import os
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", TOOL)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def test_each_side_compiles_from_an_empty_bytecode_directory_of_its_own(monkeypatch, capsys):
    """Every run reads bytecode from an empty directory that is its side's
    alone and outside both trees, and writes none, so neither side starts
    from bytecode that an earlier process left in its tree."""
    runs = []

    def fake_run(argv, *, cwd, env, **kwargs):
        cache = env["PYTHONPYCACHEPREFIX"]
        runs.append((cwd, cache, env["PYTHONDONTWRITEBYTECODE"], os.listdir(cache)))
        metrics = {name: {"value": 1.0} for name in ("setup_s", "wall_s", "peak_rss_mb")}
        line = json.dumps({"failed": 0, "attempted": 1, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.setattr(compare_bench, "unpack", lambda rev, into: os.mkdir(into))
    monkeypatch.setattr(compare_bench.subprocess, "run", fake_run)
    assert compare_bench.main(["HEAD", "--workload", "char-yangian", "--pairs", "2",
                               "--seconds", "1"]) == 0
    capsys.readouterr()
    assert len(runs) == 4
    caches = {cwd: cache for cwd, cache, _, _ in runs}
    assert len(caches) == 2 and len(set(caches.values())) == 2
    for cwd, cache, no_write, listed in runs:
        assert (caches[cwd], no_write, listed) == (cache, "1", [])
        assert not any(cache.startswith(tree + os.sep) for tree in caches)
