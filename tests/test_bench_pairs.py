"""The pair runner of tools/bench_pairs.py, on one tiny pair of one workload."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

needs_git = pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                               reason="needs a git checkout")


@needs_git
def test_one_tiny_pair_summarizes_every_end_to_end_metric(tmp_path):
    out = tmp_path / "BENCH.json"
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    run = subprocess.run(
        [sys.executable, str(TOOL), "--parent", "HEAD", "--pairs", "1", "--seconds", "0",
         "--workloads", "gradcheck", "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    bench = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["workloads"]["gradcheck"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for m in metrics.values():
        assert m["pairs"] == 1 and m["pairs_won"] in (0, 1)
        for side in ("parent", "change"):
            q1, q3 = m[side]["iqr"]
            assert len(m[side]["runs"]) == 1 and q1 == m[side]["median"] == q3
    assert metrics["success_ratio"]["ratio"] == 1.0
    assert bench["env"]["python"] and bench["pairs"] == 1
    # the parent is named by commit id, not by a revision that moves
    assert bench["parent"] == head


@needs_git
def test_parent_tree_is_the_committed_files(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tree = tool.export_tree("HEAD", tmp_path)
    assert (tree / "perfbench" / "run.py").is_file() and (tree / "src" / "sslasr").is_dir()
    assert not (tree / ".git").exists()
