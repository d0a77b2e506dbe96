"""The byte-identity matrix runs end to end and digests every file it writes."""

import importlib.util
import json
import re
from pathlib import Path

from sslasr.training import FINETUNE_MODES, PIPELINES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_matrix.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_digests_every_written_file(tmp_path, monkeypatch):
    tool = _load_tool()
    run, leaked = tool.run_matrix, []

    def run_and_scan(root):
        # every file is read before main removes the run directory
        run(root)
        leaked.extend(p for p in Path(root).rglob("*")
                      if p.is_file() and str(root).encode() in p.read_bytes())

    monkeypatch.setattr(tool, "run_matrix", run_and_scan)
    out = tmp_path / "matrix.json"
    assert tool.main([str(out)]) == 0
    assert leaked == []
    table = json.loads(out.read_text())
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in table.values())
    for name in tool.recipes():
        assert f"{name}/pretrain.ckpt" in table
        assert f"{name}/scratch/pretrain.ckpt" in table
        for variant in PIPELINES:
            assert f"{name}/{variant}/finetune_full.ckpt" in table
            assert f"{name}/{variant}/report.json" in table
    for mode in FINETUNE_MODES:
        assert f"chain/finetune_{mode}.ckpt" in table
        assert f"chain/finetune_{mode}_metrics.jsonl" in table
        assert f"chain/report_{mode}.json" in table
    assert "spec_augment/finetune_full_metrics.jsonl" in table
    assert "spec_augment/report.json" in table
    assert "gradcheck.json" in table
    for name, files in [("features", ["feats/source_00003.feat"]),
                        ("task", ["feats/source_00003.feat"]),
                        ("waveform", ["wavs/target_00002.wav"]),
                        ("fbank", ["feats/target_00002.feat"])]:
        for path in ["manifest.tsv", *files]:
            assert f"corpus/{name}/{path}" in table
    for tag in ("pretrain", "adapt_draft", "finetune_full"):
        assert f"cli/{tag}.ckpt" in table
        assert f"cli/{tag}_metrics.jsonl" in table
    assert "cli/report.json" in table
    assert "cli/sweep/sweep.jsonl" in table
