"""sslasr benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload pipeline-draft --seed 0 --seconds 30 --trace 0

Workloads: pipeline-draft, pretrain-objectives, gradcheck (see
workloads.py). The seed becomes the pipeline's training and corpus seed,
or picks the gradcheck battery seeds. Passes repeat until --seconds have
gone by (at least two), each in a fresh work directory under
perfbench/.work that is hashed and deleted after the pass; every pass
must leave the same bytes as the first.

--trace 0 prints the end-to-end metrics, measured untraced. --trace 1
alternates untraced and traced passes and prints the per-layer metrics:
self times from the traced passes, rates and the tracing overhead from
comparing the two kinds. Human-readable lines start with '#'; the last
line of stdout is the JSON result.
"""

from time import perf_counter

_T0 = perf_counter()  # setup_s counts from here, before numpy and sslasr load

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

TRAINING_SCOPES = ("pretrain", "adapt", "finetune",
                   "apc", "eapc", "biapc", "contrastive", "masked_cluster")
# layers that run inside a training step: (metric prefix, span name)
STEP_LAYERS = (
    ("engine.backward_s", "engine.backward"),
    ("model.encoder_fwd_s", "model.encoder_fwd"),
    ("objectives.loss_self_s", "objectives.loss"),
    ("ctc.loss_fwd_s", "ctc.loss_fwd"),
    ("optim.clip_s", "optim.clip"),
    ("optim.adam_step_s", "optim.adam_step"),
    ("data.pad_batch_s", "data.pad_batch"),
    ("io.metrics_append_s", "io.metrics_append"),
)
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def _per_layer_units() -> dict:
    units = {}
    for scope in TRAINING_SCOPES:
        units[f"training.steps_per_s.{scope}"] = "1/s"
        units[f"training.step_ms_p50.{scope}"] = "ms"
        units[f"training.step_ms_p90.{scope}"] = "ms"
        units[f"training.loop_self_s.{scope}"] = "s"
        units[f"engine.tape_nodes_per_step.{scope}"] = "count"
        for prefix, _ in STEP_LAYERS:
            if not prefix.startswith("ctc."):
                units[f"{prefix}.{scope}"] = "s"
        units[f"trace.accounted_pct.{scope}"] = "%"
    units.update({
        "ctc.loss_fwd_s": "s",
        "ctc.tape_nodes_per_step": "count",
        "ctc.decode_s": "s",
        "objectives.cluster_targets_s": "s",
        "data.corpus_build_s": "s",
        "io.checkpoint_save_s": "s",
        "io.checkpoint_load_s": "s",
        "io.checkpoint_bytes": "bytes",
        "gradcheck.seeds_per_s": "1/s",
        "gradcheck.primitive_battery_s": "s",
        "gradcheck.loss_battery_s": "s",
        "gradcheck.worst_rel_err": "ratio",
        "trace.accounted_pct.gradcheck": "%",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

IMPORT_REPEATS = 5


def _sslasr_modules() -> list:
    return [m for m in sys.modules if m == "sslasr" or m.startswith("sslasr.")]


def reimport_sslasr() -> float:
    """Wall time of one more import of the sslasr package into fresh module
    objects; the modules the benchmark already holds are put back after."""
    live = {m: sys.modules.pop(m) for m in _sslasr_modules()}
    try:
        t = perf_counter()
        importlib.import_module("sslasr")
        return perf_counter() - t
    finally:
        for m in _sslasr_modules():
            del sys.modules[m]
        sys.modules.update(live)


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def run_passes(wl, seconds: float, trace: bool, run_dir: Path):
    """Repeat passes until `seconds` have gone by; returns (passes, attempted, failed)."""
    from tracing import Tracer, installed
    from workloads import Checks

    passes, attempted, failed = [], 0, 0
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        k = len(passes)
        tracer = Tracer() if trace and k % 2 == 1 else None
        workdir = run_dir / f"pass{k}"
        workdir.mkdir(parents=True)
        checks, done = Checks(), []
        try:
            with installed(tracer) if tracer is not None else nullcontext():
                t0 = perf_counter()
                state = wl.setup()
                t1 = perf_counter()
                parts, info = wl.run(state, workdir, tracer, checks, done)
                t2 = perf_counter()
        except Exception:
            traceback.print_exc()
            attempted += wl.ops_per_pass + len(checks.items)
            failed += wl.ops_per_pass - len(done) + checks.failed
            print(f"# pass {k} failed after {len(done)} of {wl.ops_per_pass} operations")
            break
        digest = digest_dir(workdir)
        shutil.rmtree(workdir)
        if passes:
            name = "traced-identical" if tracer is not None else "rerun-identical"
            checks.add(name, digest == passes[0]["digest"], f"sha256 {digest[:16]}")
        attempted += wl.ops_per_pass + len(checks.items)
        failed += wl.ops_per_pass - len(done) + checks.failed
        passes.append({"setup_s": t1 - t0, "pass_s": t2 - t1, "parts": parts, "info": info,
                       "digest": digest, "tracer": tracer})
        kind = "traced" if tracer is not None else "untraced"
        print(f"# pass {k} ({kind}): setup {t1 - t0:.4f} s, pass {t2 - t1:.4f} s; "
              + ", ".join(f"{p} {v:.4f} s" for p, v in parts.items()))
        if len(done) < wl.ops_per_pass:
            print(f"#   {wl.ops_per_pass - len(done)} of {wl.ops_per_pass} operations failed")
        for name, ok, detail in checks.items:
            print(f"#   check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    return passes, attempted, failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(passes, import_s: float, attempted: int, failed: int) -> dict:
    untraced = [p for p in passes if p["tracer"] is None]
    return {
        "setup_s": import_s + _median([p["setup_s"] for p in untraced]),
        "pass_s": _median([p["pass_s"] for p in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (attempted - failed) / attempted,
    }


def stage_rates(wl, passes) -> dict:
    """Steps per second of each training stage (the configured steps over the
    wall time of the stage call, load and save included) and battery seeds
    per second of the gradcheck pass, from untraced passes."""
    untraced = [p for p in passes if p["tracer"] is None]
    rates = {scope: steps / _median([p["parts"][scope] for p in untraced])
             for scope, steps in wl.steps.items()}
    if wl.name == "gradcheck":
        rates["gradcheck"] = len(wl.seeds) / _median([p["pass_s"] for p in untraced])
    return rates


def details(wl, passes) -> dict:
    """The per-stage figures behind pass_s, under the names users know them by."""
    rates = stage_rates(wl, passes)
    if wl.name == "gradcheck":
        return {"gradcheck_seeds_per_s": rates["gradcheck"]}
    out = {f"{scope}_steps_per_s": rate for scope, rate in rates.items()}
    if wl.name == "pretrain-objectives":
        untraced = [p for p in passes if p["tracer"] is None]
        out["pretrain_steps_per_s"] = sum(wl.steps.values()) / _median(
            [sum(p["parts"].values()) for p in untraced])
    else:
        out["pipeline_s"] = _median([p["pass_s"] for p in passes if p["tracer"] is None])
    return out


def _traced_metrics(wl, p) -> dict:
    """Per-layer metrics from one traced pass."""
    tr = p["tracer"]
    st = tr.self_times()
    m = {}

    def in_steps(span, scope):
        return st.get((span, scope, True), 0.0)

    for scope in wl.scopes:
        steps = tr.step_times(scope)
        step_total = sum(steps)
        accounted = 0.0
        for prefix, span in STEP_LAYERS:
            v = in_steps(span, scope)
            accounted += v
            if not prefix.startswith("ctc."):
                m[f"{prefix}.{scope}"] = v
        m[f"training.step_ms_p50.{scope}"] = _percentile(steps, 50) * 1e3
        m[f"training.step_ms_p90.{scope}"] = _percentile(steps, 90) * 1e3
        m[f"training.loop_self_s.{scope}"] = step_total - accounted
        m[f"trace.accounted_pct.{scope}"] = 100.0 * accounted / step_total
        m[f"engine.tape_nodes_per_step.{scope}"] = \
            tr.counts[("engine.tape_nodes", scope)] / len(steps)
    if "finetune" in wl.scopes:
        m["ctc.loss_fwd_s"] = in_steps("ctc.loss_fwd", "finetune")
        m["ctc.tape_nodes_per_step"] = \
            tr.counts[("ctc.tape_nodes", "finetune")] / len(tr.step_times("finetune"))
    m["ctc.decode_s"] = tr.durations("ctc.decode")
    m["objectives.cluster_targets_s"] = tr.durations("objectives.cluster_targets")
    m["data.corpus_build_s"] = tr.durations("data.corpus_build")
    m["io.checkpoint_save_s"] = tr.durations("io.checkpoint_save")
    m["io.checkpoint_load_s"] = tr.durations("io.checkpoint_load")
    m["io.checkpoint_bytes"] = sum(v for (name, _), v in tr.counts.items()
                                   if name == "io.checkpoint_bytes")
    if wl.name == "gradcheck":
        n = len(wl.seeds)
        prim = tr.durations("gradcheck.primitive_battery")
        loss = tr.durations("gradcheck.loss_battery")
        m["gradcheck.primitive_battery_s"] = prim / n
        m["gradcheck.loss_battery_s"] = loss / n
        m["trace.accounted_pct.gradcheck"] = 100.0 * (prim + loss) / p["pass_s"]
    return m


def per_layer(wl, passes) -> dict:
    traced = [p for p in passes if p["tracer"] is not None]
    untraced = [p for p in passes if p["tracer"] is None]
    per_pass = [_traced_metrics(wl, p) for p in traced]
    m = {name: _median([pm[name] for pm in per_pass if name in pm]) for name in PER_LAYER}
    rates = stage_rates(wl, passes)
    for scope in wl.scopes:
        m[f"training.steps_per_s.{scope}"] = rates[scope]
        steps = [s for p in traced for s in p["tracer"].step_times(scope)]
        print(f"# {scope}: step p50 {m[f'training.step_ms_p50.{scope}']:.2f} ms, "
              f"p90 {m[f'training.step_ms_p90.{scope}']:.2f} ms over n={len(steps)} traced steps; "
              f"per-layer self times cover {m[f'trace.accounted_pct.{scope}']:.1f}% of step time, "
              f"unaccounted remainder (training loop self) "
              f"{m[f'training.loop_self_s.{scope}']:.4f} s")
    if wl.name == "gradcheck":
        m["gradcheck.seeds_per_s"] = rates["gradcheck"]
        m["gradcheck.worst_rel_err"] = max(p["info"]["worst_rel_err"] for p in passes)
    m["trace.overhead_s"] = (_median([p["pass_s"] for p in traced])
                             - _median([p["pass_s"] for p in untraced]))
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to seconds of work (for the benchmark's own tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sslasr" / "__init__.py").is_file():
        print(f"error: no sslasr package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy  # noqa: F401  (loaded once per process, so timed once)

    numpy_s = perf_counter() - _T0
    t = perf_counter()
    from workloads import WORKLOADS

    import_s = numpy_s + _median([perf_counter() - t] + [reimport_sslasr()
                                                       for _ in range(IMPORT_REPEATS - 1)])
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}; import {import_s:.4f} s")

    run_dir = WORK_DIR / f"{wl.name}-{os.getpid()}"
    try:
        passes, attempted, failed = run_passes(wl, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if not any(p["tracer"] is None for p in passes) or (args.trace and len(passes) < 2):
        print("error: no complete pass to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics, units = per_layer(wl, passes), PER_LAYER
    else:
        metrics, units = end_to_end(passes, import_s, attempted, failed), END_TO_END
        for name, value in details(wl, passes).items():
            print(f"# detail {name} {value!r} {'s' if name == 'pipeline_s' else '1/s'}")
    for name, value in metrics.items():
        print(f"# metric {name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
