"""The pair runner of tools/bench_pairs.py, on one tiny pair of one workload."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

needs_git = pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                               reason="needs a git checkout")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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
        assert m["pairs"] == 1 and m["pairs_won"] in (0, 1) and m["separated"] in (True, False)
        for side in ("parent", "change"):
            q1, q3 = m[side]["iqr"]
            assert len(m[side]["runs"]) == 1 and q1 == m[side]["median"] == q3
    assert metrics["success_ratio"]["ratio"] == 1.0
    assert bench["env"]["python"] and bench["pairs"] == 1
    # the parent is named by commit id, not by a revision that moves
    assert bench["parent"] == head
    # the summary closes the output: one line per end-to-end metric, in BENCHMARK.json's order
    summary = run.stdout.splitlines()[-len(spec["end_to_end"]):]
    assert [ln.split()[:3] for ln in summary] == [["#", "gradcheck", f"{m['name']}:"]
                                                  for m in spec["end_to_end"]]
    for line in summary:
        assert re.search(r"parent \S+ change \S+ ratio \S+, change won [01]/1, "
                         r"change median (in|out)side parent \[q1, q3\] \[\S+, \S+\], "
                         r"sides (separated|overlap)$", line), line


@needs_git
def test_parent_tree_is_the_committed_files(tmp_path):
    tree = _tool().export_tree("HEAD", tmp_path)
    assert (tree / "perfbench" / "run.py").is_file() and (tree / "src" / "sslasr").is_dir()
    assert not (tree / ".git").exists()


def test_summary_line_reads_the_claim_off():
    tool = _tool()
    parent, change = [51.2, 51.3, 51.1, 51.4, 51.2], [50.1, 50.0, 50.2, 51.3, 50.1]
    m = tool.summarize(parent, change, "lower")
    # one change run (51.3) is above the parent's lowest (51.1): the sides overlap
    assert m["pairs_won"] == 5 and m["outside_parent_iqr"] and not m["separated"]
    assert tool.summary_line("pretrain-objectives", "peak_rss_mb", m) == (
        "# pretrain-objectives peak_rss_mb: parent 51.2000 change 50.1000 ratio 0.979, "
        "change won 5/5, change median outside parent [q1, q3] [51.2000, 51.3000], sides overlap")
    m = tool.summarize(parent, [50.1, 50.0, 50.2, 51.0, 50.1], "lower")
    assert m["separated"] and tool.summary_line("x", "y", m).endswith(", sides separated")
    assert tool.summarize([1.0, 2.0], [2.5, 3.0], "higher")["separated"]
    # a higher-is-better metric that does not move, and a zero parent median
    m = tool.summarize([1.0, 1.0], [1.0, 1.0], "higher")
    assert m["pairs_won"] == 0 and not m["outside_parent_iqr"]
    assert tool.summary_line("gradcheck", "success_ratio", m).endswith(
        "ratio 1.000, change won 0/2, change median inside parent [q1, q3] [1.0000, 1.0000], "
        "sides overlap")
    assert not m["separated"]
    m = tool.summarize([0.0], [0.5], "lower")
    assert "ratio n/a, change won 0/1, change median outside" in tool.summary_line("x", "y", m)
