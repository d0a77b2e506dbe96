"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

A tiny-config run of every workload, untraced and traced, must print
every metric BENCHMARK.json names with its unit; a traced pass must leave
the same bytes as an untraced one; and the benchmark must refuse to run
without the package source next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import sslasr.training as training  # noqa: E402
from run import digest_dir  # noqa: E402
from tracing import END, NAME, START, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_named_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    printed = {ln.split()[2]: ln.split()[4] for ln in lines if ln.startswith("# metric ")}
    assert printed == {m["name"]: m["unit"] for m in spec}
    assert any(ln.startswith("# env ") for ln in lines)
    assert not (BENCH_DIR / ".work").exists()


@pytest.mark.parametrize("workload", ["pipeline-draft", "pretrain-objectives"])
def test_traced_pass_leaves_the_same_bytes(workload, tmp_path):
    wl = WORKLOADS[workload](seed=2, tiny=True)
    digests, files = [], []
    for name, tracer in (("plain", None), ("traced", Tracer())):
        workdir = tmp_path / name
        workdir.mkdir()
        if tracer is None:
            wl.run(wl.setup(), workdir, None, Checks(), [])
        else:
            with installed(tracer):
                wl.run(wl.setup(), workdir, tracer, Checks(), [])
            assert {s[NAME] for s in tracer.spans} >= {"engine.backward", "model.encoder_fwd",
                                                   "optim.adam_step", "io.metrics_append"}
        digests.append(digest_dir(workdir))
        files.append(sorted(p.name for p in workdir.rglob("*") if p.is_file()))
    assert files[0] == files[1] and any(f.endswith(".ckpt") for f in files[0])
    assert digests[0] == digests[1]


def test_wrappers_are_removed_after_a_traced_pass():
    originals = (training.backward, training.append_jsonl, vars(training.SSLBundle)["loss"])
    with installed(Tracer()):
        assert training.backward is not originals[0]
    assert (training.backward, training.append_jsonl,
            vars(training.SSLBundle)["loss"]) == originals


def test_self_time_excludes_children():
    tr = Tracer()
    outer = tr.begin("a")
    inner = tr.begin("b")
    tr.end(inner)
    tr.end(outer)
    st = tr.self_times()
    a, b = (s[END] - s[START] for s in tr.spans)
    assert st[("b", "", False)] == pytest.approx(b * 1e-9)
    assert st[("a", "", False)] == pytest.approx((a - b) * 1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = _run(tmp_path, "pipeline-draft", 0)
    assert out.returncode != 0
    assert not any(ln.startswith("{") for ln in out.stdout.splitlines())


def test_a_battery_that_raises_is_a_failed_operation(tmp_path, monkeypatch):
    import workloads

    def broken(seed):
        raise FloatingPointError("non-finite values produced by op 'log'")

    monkeypatch.setattr(workloads, "gradcheck_battery", broken)
    wl = WORKLOADS["gradcheck"](seed=3, tiny=True)
    checks, done = Checks(), []
    wl.run(None, tmp_path, None, checks, done)
    assert done == [f"loss_battery.{s}" for s in wl.seeds]
    assert wl.ops_per_pass - len(done) == len(wl.seeds)
