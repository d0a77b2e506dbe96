"""Alternating parent/change benchmark pairs, written as one BENCH JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 8 --out BENCH_12.json

The parent tree is `git archive <rev>` unpacked into a temporary
directory (the repository's .git is only read), and the output names it
by its full commit id. The change is the checkout this script sits in.
Each pair runs `perfbench/run.py --trace 0 --seed 0` once in each tree,
as separate processes, so all runs do the same work; the side that goes
first alternates from pair to pair, so a drifting machine favours
neither.

For every end-to-end metric BENCHMARK.json names, the output holds each
side's runs, median and [q1, q3], the change/parent ratio of the
medians, the pairs the change won (strictly better by the metric's
`better` direction), whether the change's median lies outside the
parent's [q1, q3], and whether the sides separate (`separated`: every
change run better than every parent run). `env` is the environment line
perfbench printed. The last lines printed summarize the same, one line
per workload and metric.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def resolve(rev: str) -> str:
    """The full commit id `rev` names, so the output outlives a moving HEAD."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def export_tree(rev: str, dest: Path) -> Path:
    """Unpack the committed files of `rev` into dest (git archive | tar -x)."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    # the "data" filter exists from Python 3.10.12 / 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **safe)
    return dest


def run_once(tree: Path, workload: str, seconds: float, tiny: bool) -> tuple:
    """One perfbench process in `tree`; returns (metric values, env line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), None)
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}, env


def summarize(parent: list, change: list, better: str) -> dict:
    def side(runs):
        q1, med, q3 = np.percentile(runs, [25, 50, 75])
        return {"median": float(med), "iqr": [float(q1), float(q3)], "runs": runs}

    p, c = side(parent), side(change)
    won = sum((b < a) if better == "lower" else (b > a) for a, b in zip(parent, change))
    separated = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    q1, q3 = p["iqr"]
    return {"parent": p, "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "pairs_won": int(won), "pairs": len(parent),
            "outside_parent_iqr": not q1 <= c["median"] <= q3, "separated": bool(separated)}


def summary_line(workload: str, metric: str, m: dict) -> str:
    """One printed line: both medians, their ratio, the pairs won, where
    the change's median sits against the parent's [q1, q3], and whether
    the sides separate."""
    ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
    q1, q3 = m["parent"]["iqr"]
    where = "outside" if m["outside_parent_iqr"] else "inside"
    return (f"# {workload} {metric}: parent {m['parent']['median']:.4f} "
            f"change {m['change']['median']:.4f} ratio {ratio}, "
            f"change won {m['pairs_won']}/{m['pairs']}, "
            f"change median {where} parent [q1, q3] [{q1:.4f}, {q3:.4f}], "
            f"sides {'separated' if m['separated'] else 'overlap'}")


def run_pairs(parent_tree: Path, workloads, pairs: int, seconds: float, tiny: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    env, result = None, {}
    for wl in workloads:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                tree = parent_tree if name == "parent" else ROOT
                values, run_env = run_once(tree, wl, seconds, tiny)
                env = env or run_env
                runs[name].append(values)
            print(f"# {wl} pair {i + 1}/{pairs}: pass_s parent {runs['parent'][-1]['pass_s']:.4f} "
                f"change {runs['change'][-1]['pass_s']:.4f}")
        result[wl] = {m: summarize([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]],
                                   better[m])
                      for m in better}
    return {"env": env, "workloads": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0, help="perfbench --seconds per run")
    ap.add_argument("--workloads", nargs="+",
                    default=["pipeline-draft", "pretrain-objectives", "gradcheck"])
    ap.add_argument("--tiny", action="store_true", help="perfbench --tiny (for tests)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    parent = resolve(args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        tree = export_tree(parent, Path(tmp))
        out = run_pairs(tree, args.workloads, args.pairs, args.seconds, args.tiny)
    out = {"parent": parent, "pairs": args.pairs, "seconds": args.seconds,
           "tiny": args.tiny, **out}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for wl, metrics in out["workloads"].items():
        for metric, m in metrics.items():
            print(summary_line(wl, metric, m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
