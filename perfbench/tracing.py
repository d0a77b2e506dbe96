"""Span tracing for the benchmark, installed from outside the package.

Wrappers are patched onto the names that sslasr's own callers look up
(``training`` does ``from .engine import backward``, so the span goes on
``sslasr.training.backward``) and removed again when the traced pass
ends, so the package itself carries no tracing code. Spans live in memory
as flat records; self times are computed once, after the pass.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# span record fields
NAME, SCOPE, START, END, PARENT, IN_LOOP = range(6)


class Tracer:
    """Nested spans plus per-scope counters for one traced pass.

    ``scope`` names the stage (or objective) the workload is running; each
    span and counter is filed under the scope current when it began.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.scope = ""
        self.counts: dict = defaultdict(int)
        # scope -> list of per-loop lists of step end times (ns)
        self.step_ends: dict = defaultdict(list)
        self._loop_start: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, self.scope, perf_counter_ns(), 0, parent, bool(self._loop_start)])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter_ns()
        if self._open.pop() != idx:
            raise RuntimeError("span exit order violated")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[(name, self.scope)] += n

    def self_times(self) -> dict:
        """(name, scope, in_loop) -> summed self time in seconds."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[(s[NAME], s[SCOPE], s[IN_LOOP])] += (s[END] - s[START] - c) * 1e-9
        return out

    def durations(self, name: str) -> float:
        """Summed wall time of the outermost spans with this name, children included."""
        spans = self.spans
        return sum(s[END] - s[START] for s in spans
                   if s[NAME] == name and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != name)) * 1e-9

    def step_times(self, scope: str) -> list:
        """Per-step wall times (s) for a scope: each step runs from the end of
        the previous one (or the loop start) to the end of its metrics append."""
        out = []
        for loop in self.step_ends[scope]:
            out.extend((b - a) * 1e-9 for a, b in zip(loop, loop[1:]))
        return out

    # -- hooks for the few wrappers that record more than a span ------------

    def loop_begin(self) -> None:
        t = perf_counter_ns()
        self._loop_start.append(t)
        self.step_ends[self.scope].append([t])

    def loop_end(self) -> None:
        self._loop_start.pop()

    def step_end(self) -> None:
        if self._loop_start:
            self.step_ends[self.scope][-1].append(perf_counter_ns())


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ctx = before(args) if before else None
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
            if after:
                after(args, ctx)

    return wrapper


def _targets(tracer: Tracer):
    """(owner, attribute, span name, before, after) for every traced call site."""
    from sslasr import engine, model, optim, training

    def tape_nodes(args, _):
        tracer.count("engine.tape_nodes", len(args[1].nodes))

    def ctc_nodes_before(args):
        tape = engine._active_tape()
        return (tape, len(tape.nodes)) if tape is not None else None

    def ctc_nodes_after(args, ctx):
        if ctx is not None:
            tracer.count("ctc.tape_nodes", len(ctx[0].nodes) - ctx[1])

    def ckpt_bytes(args, _):
        tracer.count("io.checkpoint_bytes", os.path.getsize(args[0]))

    def step_end(args, _):
        tracer.step_end()

    def loop_begin(args):
        tracer.loop_begin()

    def loop_end(args, _):
        tracer.loop_end()

    return [
        (training, "_train_loop", "training.loop", loop_begin, loop_end),
        (training, "backward", "engine.backward", None, tape_nodes),
        (model.Encoder, "__call__", "model.encoder_fwd", None, None),
        (model.Encoder, "encode_latents", "model.encoder_fwd", None, None),
        (model.Encoder, "contextualize", "model.encoder_fwd", None, None),
        (training.SSLBundle, "loss", "objectives.loss", None, None),
        (training.SSLBundle, "prepare_cluster_targets", "objectives.cluster_targets", None, None),
        (training, "ctc_loss_batch", "ctc.loss_fwd", ctc_nodes_before, ctc_nodes_after),
        (training, "greedy_decode", "ctc.decode", None, None),
        (training, "edit_distance", "ctc.decode", None, None),
        (training, "error_rate", "ctc.decode", None, None),
        (training, "clip_global_norm", "optim.clip", None, None),
        (optim.Adam, "step", "optim.adam_step", None, None),
        (training, "make_corpus", "data.corpus_build", None, None),
        (training, "pad_batch", "data.pad_batch", None, None),
        (training, "save_checkpoint", "io.checkpoint_save", None, ckpt_bytes),
        (training, "load_checkpoint", "io.checkpoint_load", None, None),
        (training, "append_jsonl", "io.metrics_append", None, step_end),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced call site for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, before, after in _targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
