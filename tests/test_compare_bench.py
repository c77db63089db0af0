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


def test_each_side_runs_a_fresh_copy_without_bytecode(monkeypatch, capsys, tmp_path):
    """Every run starts in a copy of its side's tree, outside the working
    tree, that holds no `.git` and no `__pycache__`, and it writes no
    bytecode and reads none from a `PYTHONPYCACHEPREFIX`, so that both sides
    compile each package module at every start, as a fresh checkout does,
    and read the standard library's own bytecode."""
    root = tmp_path / "root"
    for part in ("perfbench", "src/spinonchars/__pycache__", ".git"):
        (root / part).mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(Path(compare_bench.ROOT, "BENCHMARK.json").read_text())
    (root / "src" / "spinonchars" / "__pycache__" / "cli.cpython.pyc").write_text("")
    runs = []

    def fake_run(argv, *, cwd, env, **kwargs):
        held = {name for _, dirs, _ in os.walk(cwd) for name in dirs}
        runs.append((cwd, env.get("PYTHONDONTWRITEBYTECODE"),
                     "PYTHONPYCACHEPREFIX" in env, held))
        metrics = {name: {"value": 1.0} for name in ("setup_s", "wall_s", "peak_rss_mb")}
        line = json.dumps({"failed": 0, "attempted": 1, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(compare_bench, "ROOT", str(root))
    monkeypatch.setattr(compare_bench, "unpack", lambda rev, into: os.mkdir(into))
    monkeypatch.setattr(compare_bench.subprocess, "run", fake_run)
    assert compare_bench.main(["HEAD", "--workload", "char-yangian", "--pairs", "2",
                               "--seconds", "1"]) == 0
    capsys.readouterr()
    assert len(runs) == 4
    trees = {cwd for cwd, _, _, _ in runs}
    assert len(trees) == 2 and str(root) not in trees
    for cwd, no_write, prefixed, held in runs:
        assert (no_write, prefixed) == ("1", False)
        assert not held & {".git", "__pycache__"}
        assert not cwd.startswith(str(root) + os.sep)
