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
