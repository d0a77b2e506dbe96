"""The benchmark's tracer patches named call sites in the package; a
refactor that drops or moves one must fail here, naming the site."""

import importlib.util
from pathlib import Path

from sslasr import model, optim, training

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_site_and_removes_itself():
    tracing = _load_tracing()
    owners = (training, training.SSLBundle, model.Encoder, optim.Adam)
    before = [dict(vars(o)) for o in owners]
    with tracing.installed(tracing.Tracer()):  # KeyError names a missing site
        pass
    for owner, saved in zip(owners, before):
        assert {k: v for k, v in vars(owner).items() if k in saved} == saved


def test_a_traced_pretrain_step_counts_its_tape_nodes(tmp_path, monkeypatch):
    # the tracer reads len(tape.nodes) after backward, which consumes the tape
    # but keeps its nodes
    tracing = _load_tracing()
    recorded = []

    def counting_backward(loss, tape, _backward=training.backward):
        recorded.append(len(tape.nodes))
        _backward(loss, tape)

    monkeypatch.setattr(training, "backward", counting_backward)
    cfg = training.PipelineConfig(vocab_size=5, d_feat=4, proto_len=8, min_tokens=3, max_tokens=4,
                                  n_train=8, d_model=16, n_heads=2, n_blocks=1, d_ffn=32,
                                  apc_lags=1, batch_size=4)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        training.run_pretrain(cfg, tmp_path, steps=1)
    assert len(recorded) == 1 and recorded[0] > 0
    assert tracer.counts[("engine.tape_nodes", "")] == recorded[0]
