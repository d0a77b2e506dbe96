"""End-to-end command-line workflows via main(argv)."""

import json
import re
import statistics
import struct
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import sslasr.cli
from sslasr.cli import GenCorpusSettings, main
from sslasr.data import load_corpus, write_wav
from sslasr.features import FeaturizerConfig
from sslasr.io import (
    CKPT_MAGIC,
    load_checkpoint,
    read_config,
    read_jsonl,
    read_manifest,
    save_checkpoint,
    write_feat,
    write_manifest,
)
from sslasr.training import PipelineConfig, run_pipeline, sweep

TINY = """\
n_train = 16
n_eval = 6
d_feat = 4
vocab_size = 5
proto_len = 8
min_tokens = 3
max_tokens = 4
d_model = 16
n_heads = 2
n_blocks = 1
d_ffn = 32
apc_lags = 1
pretrain_steps = 2
adapt_steps = 2
finetune_steps = 2
batch_size = 4
noam_warmup = 2
d_adapter = 4
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


class TestSettingDeclarations:
    def test_every_numeric_setting_declares_a_domain(self):
        for cls in (PipelineConfig, FeaturizerConfig, GenCorpusSettings):
            for f in fields(cls):
                if f.type in ("int", "float"):
                    assert f.metadata.keys() & {"lo", "hi", "above", "choices"}, \
                        f"{cls.__name__}.{f.name} declares no domain"
            with pytest.raises(FrozenInstanceError):
                setattr(cls(), fields(cls)[0].name, 1)

    def test_each_key_is_declared_once(self):
        # one config file can serve several commands, so no two classes share a key
        names = [f.name for cls in (PipelineConfig, FeaturizerConfig, GenCorpusSettings)
                 for f in fields(cls)]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("kwargs, rule", [
        ({"n_utterances": 0}, "must be >= 1, got 0"),
        ({"domain": "mars"}, "must be one of source, target, got 'mars'"),
        ({"emit": "video"}, "must be one of features, waveform, got 'video'"),
    ], ids=["n_utterances", "domain", "emit"])
    def test_gen_corpus_settings_check_themselves(self, kwargs, rule):
        (name,) = kwargs
        with pytest.raises(ValueError, match=re.escape(f"setting '{name}' {rule}")):
            GenCorpusSettings(**kwargs)


class TestCorpusCommands:
    def test_gen_corpus_prints_manifest(self, tmp_path, capsys):
        rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=4",
                   "--set", "domain=target", "--set", "seed=3"])
        assert rc == 0
        manifest = last_line(capsys)
        corpus = load_corpus(manifest, PipelineConfig())
        assert len(corpus) == 4
        assert all(u.domain == "target" for u in corpus)

    def test_last_set_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_utterances = 3\n")
        main(["gen-corpus", "--out", str(tmp_path / "a"), "--config", str(cfg)])
        assert len(read_manifest(last_line(capsys))) == 3
        main(["gen-corpus", "--out", str(tmp_path / "b"), "--config", str(cfg),
              "--set", "n_utterances=5"])
        assert len(read_manifest(last_line(capsys))) == 5
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--config", str(cfg),
              "--set", "n_utterances=5", "--set", "n_utterances=2"])
        assert len(read_manifest(last_line(capsys))) == 2

    def test_featurize_wav_corpus(self, tmp_path, capsys):
        main(["gen-corpus", "--out", str(tmp_path / "wav"), "--set", "n_utterances=2",
              "--set", "emit=waveform"])
        wav_manifest = last_line(capsys)
        rc = main(["featurize", "--manifest", wav_manifest,
                   "--out", str(tmp_path / "feat")])
        assert rc == 0
        corpus = load_corpus(last_line(capsys), PipelineConfig(d_feat=40))
        assert len(corpus) == 2
        assert corpus[0].feats.shape[1] == 40

    def test_featurize_rejects_feature_manifest(self, tmp_path, capsys):
        main(["gen-corpus", "--out", str(tmp_path / "f"), "--set", "n_utterances=1"])
        manifest = last_line(capsys)
        out = tmp_path / "o"
        rc = main(["featurize", "--manifest", manifest, "--out", str(out)])
        assert rc == 1
        assert (f"error: {manifest}: utterance 'source_00000': featurize expects .wav inputs"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_featurize_missing_manifest_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["featurize", "--manifest", str(tmp_path / "nope.tsv"), "--out", str(out)])
        assert rc == 1
        assert "nope.tsv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        ("suffix", "utterance 'source_00002': featurize expects .wav inputs, "
                   "got 'wavs/source_00002.npy'"),
        ("rate", "utterance 'source_00002': sampled at 8000 Hz, but the featurizer expects 16000"),
        ("junk", "utterance 'source_00002': {wavs}/source_00002.wav: not a mono 16-bit PCM WAV file"),
        ("stereo", "utterance 'source_00002': {wavs}/source_00002.wav: not a mono 16-bit PCM WAV file"),
        ("too_short", "utterance 'source_00002': signal shorter than one window"),
        ("missing", "utterance 'source_00002': {wavs}/source_00002.wav: No such file or directory"),
    ], ids=["suffix", "rate", "not_a_wav", "stereo", "too_short", "missing"])
    def test_featurize_checks_every_entry_before_writing(self, tmp_path, capsys, bad, message):
        main(["gen-corpus", "--out", str(tmp_path / "wav"), "--set", "n_utterances=3",
              "--set", "emit=waveform"])
        manifest = last_line(capsys)
        entries = read_manifest(manifest)
        wav = tmp_path / "wav" / entries[2].path
        if bad == "suffix":
            entries[2] = replace(entries[2], path="wavs/source_00002.npy")
            write_manifest(manifest, entries)
        elif bad == "rate":
            write_wav(wav, np.zeros(8000), sample_rate=8000)
        elif bad == "junk":
            wav.write_bytes(b"junk")
        elif bad == "too_short":
            write_wav(wav, np.zeros(100))
        elif bad == "missing":
            wav.unlink()
        else:  # the fmt chunk's channel count, at byte 22, set to 2
            wav.write_bytes(wav.read_bytes()[:22] + b"\x02" + wav.read_bytes()[23:])
        out = tmp_path / "feat"
        rc = main(["featurize", "--manifest", manifest, "--out", str(out)])
        assert rc == 1
        assert f"error: {manifest}: {message.format(wavs=wav.parent)}" in capsys.readouterr().err
        assert not out.exists()


class TestTrainingCommands:
    def test_full_stage_chain(self, tmp_path, tiny_config, capsys):
        work = str(tmp_path / "run")
        assert main(["pretrain", "--config", tiny_config, "--out", work]) == 0
        pre = last_line(capsys)
        assert main(["adapt", "--config", tiny_config, "--init", pre,
                     "--out", work, "--mode", "draft"]) == 0
        ada = last_line(capsys)
        assert main(["finetune", "--config", tiny_config, "--init", ada,
                     "--out", work, "--mode", "full"]) == 0
        fin = last_line(capsys)

        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--config", tiny_config, "--init", fin,
                     "--report", str(report_path)]) == 0
        on_stdout = json.loads(capsys.readouterr().out)
        on_disk = json.loads(report_path.read_text())
        assert on_stdout == on_disk
        assert np.isfinite(on_disk["ter"])
        assert on_disk["provenance"] == {"f": 4, "ada": 4, "g": 4}

    def test_same_chain_in_two_directories_writes_the_same_report(self, tmp_path, tiny_config, capsys):
        # the report names its checkpoint by file name, not by the --init path
        reports = []
        for name in ("a", "deeper/b"):
            work = str(tmp_path / name)
            assert main(["pretrain", "--config", tiny_config, "--out", work]) == 0
            assert main(["finetune", "--config", tiny_config, "--init", last_line(capsys),
                         "--out", work]) == 0
            report = tmp_path / name / "report.json"
            assert main(["evaluate", "--config", tiny_config, "--init", last_line(capsys),
                         "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["checkpoint"] == "finetune_full.ckpt"

    def test_checkpoint_carries_objective_forward(self, tmp_path, tiny_config, capsys):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work,
              "--set", "objective=apc"])
        pre = last_line(capsys)
        # no objective mentioned here: it must come from the checkpoint
        main(["adapt", "--config", tiny_config, "--init", pre, "--out", work])
        ada = last_line(capsys)
        assert load_checkpoint(ada).config["objective"] == "apc"

    def test_set_steps_overrides_config(self, tmp_path, tiny_config, capsys):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work, "--set", "pretrain_steps=1"])
        assert load_checkpoint(last_line(capsys)).provenance["f"] == 1

    def test_pretrain_from_manifest(self, tmp_path, tiny_config, capsys):
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=8",
              "--set", "d_feat=4", "--set", "proto_len=8",
              "--set", "min_tokens=3", "--set", "max_tokens=4",
              "--set", "vocab_size=5"])
        manifest = last_line(capsys)
        rc = main(["pretrain", "--config", tiny_config, "--out",
                   str(tmp_path / "run"), "--manifest", manifest, "--set", "pretrain_steps=1"])
        assert rc == 0

    def test_feature_dim_mismatch_fails(self, tmp_path, tiny_config, capsys):
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=4"])  # d_feat 8
        manifest = last_line(capsys)
        rc = main(["pretrain", "--config", tiny_config, "--out",
                   str(tmp_path / "run"), "--manifest", manifest])
        assert rc == 1
        assert "d_feat" in capsys.readouterr().err

    def test_mixed_feature_widths_name_the_utterance(self, tmp_path, tiny_config, capsys):
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=3",
              "--set", "d_feat=4", "--set", "vocab_size=5"])
        manifest = last_line(capsys)
        # the first utterance has the configured width; a later one does not
        write_feat(tmp_path / "c" / "feats" / "source_00001.feat",
                   np.zeros((20, 5), np.float32), shift_ms=0.0, window_ms=0.0)
        rc = main(["pretrain", "--config", tiny_config, "--out",
                   str(tmp_path / "run"), "--manifest", manifest])
        assert rc == 1
        err = capsys.readouterr().err
        assert "manifest.tsv" in err and "utterance 'source_00001'" in err
        assert "feature dim 5" in err and "d_feat=4" in err

    def test_wav_manifest_needs_featurize(self, tmp_path, tiny_config, capsys):
        main(["gen-corpus", "--out", str(tmp_path / "w"), "--set", "n_utterances=2",
              "--set", "emit=waveform"])
        manifest = last_line(capsys)
        rc = main(["pretrain", "--config", tiny_config, "--out",
                   str(tmp_path / "run"), "--manifest", manifest])
        assert rc == 1
        err = capsys.readouterr().err
        assert "run `sslasr featurize`" in err and "source_00000" in err

    @pytest.mark.parametrize("token,message", [
        ("9", "has token 9 outside the vocabulary [0, 5)"),
        ("x", "invalid literal for int() with base 10: 'x'"),
    ], ids=["out_of_vocabulary", "not_an_integer"])
    def test_bad_transcript_token_stops_every_stage(self, tmp_path, tiny_config, capsys,
                                                    token, message):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work, "--set", "pretrain_steps=1"])
        pre = last_line(capsys)
        main(["finetune", "--config", tiny_config, "--init", pre, "--out", work,
              "--set", "finetune_steps=1"])
        fin = last_line(capsys)
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=3",
              "--set", "d_feat=4", "--set", "proto_len=8", "--set", "vocab_size=5",
              "--set", "min_tokens=3", "--set", "max_tokens=4"])
        manifest = last_line(capsys)
        # every transcript starts with the bad token
        write_manifest(manifest, [replace(e, transcript=" ".join([token] + e.transcript.split()[1:]))
                                  for e in read_manifest(manifest)])
        bad = tmp_path / "bad"
        for argv in (["pretrain", "--out", str(bad)],
                     ["adapt", "--init", pre, "--out", str(bad)],
                     ["finetune", "--init", pre, "--out", str(bad)],
                     ["evaluate", "--init", fin, "--report", str(bad / "report.json")]):
            rc = main(argv + ["--config", tiny_config, "--manifest", manifest])
            assert rc == 1, argv[0]
            err = capsys.readouterr().err
            assert "manifest.tsv: utterance 'source_00000'" in err and message in err, err
            assert not bad.exists(), argv[0]

    def test_empty_transcript_stops_finetune_before_the_first_step(self, tmp_path, tiny_config,
                                                                   capsys):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work, "--set", "pretrain_steps=1"])
        pre = last_line(capsys)
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=3",
              "--set", "d_feat=4", "--set", "proto_len=8", "--set", "vocab_size=5",
              "--set", "min_tokens=3", "--set", "max_tokens=4"])
        manifest = last_line(capsys)
        entries = read_manifest(manifest)
        entries[2] = replace(entries[2], transcript="")
        write_manifest(manifest, entries)
        # the unlabeled stages read no transcript
        assert main(["pretrain", "--config", tiny_config, "--out", str(tmp_path / "ssl"),
                     "--manifest", manifest]) == 0
        capsys.readouterr()
        out = tmp_path / "ft"
        rc = main(["finetune", "--config", tiny_config, "--init", pre, "--out", str(out),
                   "--manifest", manifest])
        assert rc == 1
        assert capsys.readouterr().err == ("error: stage 'finetune': utterance 'source_00002' "
                                           "has an empty transcript\n")
        assert not out.exists()

    def test_checkpoint_in_the_older_header_format_runs(self, tmp_path, tiny_config, capsys):
        """A header that still holds `rng_state` and the config keys that are
        constants now loads with them ignored: finetune writes the same bytes,
        and evaluate reports the same numbers, as from the current header."""
        assert main(["pretrain", "--config", tiny_config, "--out", str(tmp_path / "run")]) == 0
        pre = last_line(capsys)
        raw = Path(pre).read_bytes()
        start = len(CKPT_MAGIC) + 4
        end = start + struct.unpack_from("<I", raw, len(CKPT_MAGIC))[0]
        header = json.loads(raw[start:end])
        assert "rng_state" not in header
        header["rng_state"] = {"seed": 0, "stage": "pretrain", "step": 2}
        header["config"].update(noam_factor=0.5, saft_lr_scale=0.5, ft_warmup_frac=0.1,
                                ft_hold_frac=0.4, ft_final_scale=0.05, clip_norm=5.0)
        older = json.dumps(header, sort_keys=True).encode()
        (tmp_path / "older.ckpt").write_bytes(CKPT_MAGIC + struct.pack("<I", len(older)) + older
                                              + raw[end:])
        outputs = []
        for init in (pre, str(tmp_path / "older.ckpt")):
            out = tmp_path / f"from_{Path(init).stem}"
            assert main(["finetune", "--config", tiny_config, "--init", init, "--out", str(out)]) == 0
            fin = last_line(capsys)
            assert main(["evaluate", "--config", tiny_config, "--init", fin]) == 0
            report = json.loads(capsys.readouterr().out)
            outputs.append((report, Path(fin).read_bytes(),
                            (out / "finetune_full_metrics.jsonl").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_config_mismatch_names_the_stage(self, tmp_path, tiny_config, capsys):
        main(["pretrain", "--config", tiny_config, "--out", str(tmp_path / "run"),
              "--set", "pretrain_steps=1"])
        pre = last_line(capsys)
        out = tmp_path / "ada"
        rc = main(["adapt", "--config", tiny_config, "--init", pre, "--out", str(out),
                   "--set", "d_model=32"])
        assert rc == 1
        assert capsys.readouterr().err == ("error: stage 'adapt': config mismatch with "
                                           "checkpoint on fields ['d_model']\n")
        assert not out.exists()

    def test_adapt_mode_error_names_the_stage(self, tmp_path, tiny_config, capsys):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work, "--set", "pretrain_steps=1"])
        main(["adapt", "--config", tiny_config, "--init", last_line(capsys), "--out", work,
              "--set", "adapt_steps=1"])
        ada = last_line(capsys)
        out = tmp_path / "saft"
        assert main(["adapt", "--config", tiny_config, "--init", ada, "--out", str(out),
                     "--mode", "saft"]) == 1
        assert capsys.readouterr().err == ("error: stage 'adapt': saft does not apply to a "
                                           "model with adapters\n")
        assert not out.exists()

    def test_evaluate_rejects_a_manifest_without_a_reference_token(self, tmp_path, tiny_config,
                                                                    capsys):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work, "--set", "pretrain_steps=1"])
        pre = last_line(capsys)
        main(["finetune", "--config", tiny_config, "--init", pre,
              "--out", work, "--set", "finetune_steps=1"])
        fin = last_line(capsys)
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=3",
              "--set", "d_feat=4", "--set", "proto_len=8", "--set", "vocab_size=5",
              "--set", "min_tokens=3", "--set", "max_tokens=4"])
        manifest = last_line(capsys)
        write_manifest(manifest, [replace(e, transcript="") for e in read_manifest(manifest)])
        report = tmp_path / "out" / "report.json"
        rc = main(["evaluate", "--config", tiny_config, "--init", fin,
                   "--manifest", manifest, "--report", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == "error: stage 'evaluate': every transcript is empty\n"
        assert not report.parent.exists()

    def test_evaluate_empty_manifest(self, tmp_path, tiny_config, capsys):
        work = str(tmp_path / "run")
        main(["pretrain", "--config", tiny_config, "--out", work, "--set", "pretrain_steps=1"])
        pre = last_line(capsys)
        main(["finetune", "--config", tiny_config, "--init", pre,
              "--out", work, "--set", "finetune_steps=1"])
        fin = last_line(capsys)
        empty = tmp_path / "empty.tsv"
        empty.write_text("# id\tpath\ttranscript\tdomain\n")
        report = tmp_path / "out" / "report.json"
        rc = main(["evaluate", "--config", tiny_config, "--init", fin,
                   "--manifest", str(empty), "--report", str(report)])
        assert rc == 1
        assert f"error: {empty}: no utterances" in capsys.readouterr().err
        assert not report.parent.exists()

    def test_unknown_file_type_names_the_manifest_and_utterance(self, tmp_path, tiny_config,
                                                               capsys):
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=3",
              "--set", "d_feat=4", "--set", "vocab_size=5"])
        manifest = last_line(capsys)
        entries = read_manifest(manifest)
        entries[1] = replace(entries[1], path="feats/source_00001.npy")
        write_manifest(manifest, entries)
        out = tmp_path / "run"
        rc = main(["pretrain", "--config", tiny_config, "--out", str(out), "--manifest", manifest])
        assert rc == 1
        assert (f"error: {manifest}: utterance 'source_00001' has unknown file type '.npy'"
                in capsys.readouterr().err)
        assert not out.exists()


class TestGradcheckCommand:
    def test_pass_exit_zero(self, capsys):
        rc = main(["gradcheck", "--seeds", "1", "--verbose"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "seed 0" in out

    def test_fail_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(sslasr.cli, "loss_gradcheck_battery", lambda seed: 2e-6)
        rc = main(["gradcheck", "--seeds", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "worst relative error 2.000e-06" in out and "FAIL" in out

    def test_threshold_is_not_an_option(self, capsys):
        # the 1e-6 gate is fixed; no flag loosens it
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--seeds", "1", "--threshold", "1e-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--threshold" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_a_usage_error(self, seeds, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--seeds", seeds])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--seeds" in captured.err and "PASS" not in captured.out


class TestSweepCommand:
    def test_sweep_writes_results(self, tmp_path, tiny_config, capsys):
        # the multi-seed comparison: every variant at each seed, on one pretrain
        out, variants = tmp_path / "sweep", ("draft", "no_adapt", "scratch")
        rc = main(["sweep", "--config", tiny_config, "--key", "seed", "--values", "0,1",
                   "--variants", ",".join(variants), "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        records = read_jsonl(out / "sweep.jsonl")
        assert [(r["key"], r["value"], r["variant"]) for r in records] == \
            [("seed", seed, v) for seed in (0, 1) for v in variants]
        for v in variants:
            median = statistics.median(r["ter"] for r in records if r["variant"] == v)
            assert f"{v}: median ter={median:.4f} over 2 values of seed" in lines
        assert lines[-1] == str(out / "sweep.jsonl")
        for seed in (0, 1):
            point = out / f"seed={seed}"
            assert sorted(str(p.relative_to(point)) for p in point.rglob("pretrain.ckpt")) == \
                ["pretrain.ckpt", "scratch/pretrain.ckpt"]
            assert load_checkpoint(point / "scratch/pretrain.ckpt").provenance == {"f": 0, "ada": 0, "g": 0}
        # each point's reports are a direct run_pipeline call's
        settings = read_config(tiny_config)
        for seed, reports in sweep(settings, "seed", [0, 1], tmp_path / "lib", variants):
            direct = run_pipeline(PipelineConfig(**settings, seed=seed), tmp_path / f"direct{seed}", variants)
            assert list(reports) == list(variants)
            for v in variants:
                assert reports[v]["checkpoint"] == "finetune_full.ckpt"
                assert reports[v] == direct[v]
                assert [r["ter"] for r in records if (r["value"], r["variant"]) == (seed, v)] == [direct[v]["ter"]]

    def test_an_error_names_the_point_and_the_variant(self, tmp_path, tiny_config):
        # one target utterance cannot seed 20 clusters at adapt; twelve can
        settings = {**read_config(tiny_config), "objective": "masked_cluster", "n_clusters": 20}
        points = sweep(settings, "n_target", [12, 1], tmp_path / "adapt", ("no_adapt", "draft"))
        assert next(points)[0] == 12
        with pytest.raises(ValueError, match=r"^n_target=1: draft: stage 'adapt': fewer points than "
                                             r"clusters: \d+ points, 20 clusters$"):
            next(points)
        # the shared pretrain names the point alone
        with pytest.raises(ValueError, match=r"^n_train=2: stage 'pretrain': fewer points than clusters: "):
            next(sweep(settings, "n_train", [2], tmp_path / "pretrain", ("draft",)))

    def test_command_error_names_the_point_and_the_variant(self, tmp_path, tiny_config, capsys):
        rc = main(["sweep", "--config", tiny_config, "--set", "objective=masked_cluster",
                   "--set", "n_target=1", "--set", "n_clusters=20", "--key", "seed", "--values", "0,1",
                   "--variants", "no_adapt,draft", "--out", str(tmp_path / "sweep")])
        assert rc == 1
        assert re.fullmatch(r"error: seed=0: draft: stage 'adapt': fewer points than clusters: "
                            r"\d+ points, 20 clusters\n", capsys.readouterr().err)

    def test_finetune_mode_is_not_a_sweep_option(self, tmp_path, tiny_config, capsys):
        # every variant finetunes in mode full; the ablations run through `finetune --mode`
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", tiny_config, "--key", "seed", "--values", "0",
                  "--finetune-mode", "full", "--out", str(tmp_path / "sweep")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --finetune-mode full" in capsys.readouterr().err

    def test_base_valid_only_with_the_swept_value_runs(self, tmp_path, tiny_config, capsys):
        # n_heads=3 does not divide the tiny config's d_model=16, but divides 48;
        # `--variant` is argparse's prefix of `--variants`
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", tiny_config, "--set", "n_heads=3", "--key", "d_model",
                   "--values", "48", "--variant", "no_adapt", "--out", str(out)])
        assert rc == 0
        assert [(r["value"], r["variant"]) for r in read_jsonl(out / "sweep.jsonl")] == [(48, "no_adapt")]
        assert (out / "d_model=48/no_adapt/finetune_full.ckpt").is_file()

    def test_repeated_value_is_rejected_before_the_first_point(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", tiny_config, "--key", "d_adapter", "--values", "2,4,2",
                   "--out", str(out)])
        assert rc == 1
        assert "sweep needs distinct values of 'd_adapter', got [2, 4, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,pair", [("100,101", "100 and 101"), ("107,100,103", "100 and 103"),
                                             ("100,104,106", "104 and 106")])
    def test_corpus_seeds_closer_than_4_are_rejected_before_the_first_point(
            self, tmp_path, tiny_config, capsys, values, pair):
        # corpus_seed + 0, 2 and 3 seed the three corpora: 100's target_eval is 101's target_train
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", tiny_config, "--key", "corpus_seed", "--values", values,
                   "--out", str(out)])
        assert rc == 1
        assert f"sweep values {pair} of 'corpus_seed' are closer than 4" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_seeds_4_apart_run(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", tiny_config, "--key", "corpus_seed", "--values", "100,104",
                   "--variants", "no_adapt", "--out", str(out)])
        assert rc == 0
        assert [r["value"] for r in read_jsonl(out / "sweep.jsonl")] == [100, 104]

    @pytest.mark.parametrize("variants", ["draft,nonesuch", "no_adapt,no_adapt", ""])
    def test_bad_variants_are_a_usage_error(self, tmp_path, tiny_config, capsys, variants):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", tiny_config, "--key", "seed", "--values", "0",
                  "--variants", variants, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --variants: expected distinct names from draft,saft,no_adapt,scratch" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_every_point_is_checked_before_the_first_runs(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", tiny_config, "--key", "d_adapter", "--values", "2,0",
                   "--out", str(out)])
        assert rc == 1
        assert "setting 'd_adapter' must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_sweep_key(self, tmp_path, capsys):
        rc = main(["sweep", "--key", "nonesuch", "--values", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown sweep key" in capsys.readouterr().err


# (--set values, objective, the rule the last one breaks); a rule of None
# marks settings that are now fixed constants, so the first key is unknown
OUT_OF_RANGE = [
    ("batch_size=0", "eapc", "must be >= 1, got 0"),
    ("n_heads=0", "eapc", "must be >= 1, got 0"),
    ("noam_warmup=0", "eapc", "must be >= 1, got 0"),
    ("n_clusters=0", "masked_cluster", "must be >= 1, got 0"),
    ("n_codes=0", "contrastive", "must be >= 1, got 0"),
    ("proto_len=0", "eapc", "must be >= 1, got 0"),
    ("min_tokens=0", "eapc", "must be >= 1, got 0"),
    # below the tiny config's min_tokens = 3
    ("max_tokens=2", "eapc", "must be >= min_tokens (3), got 2"),
    ("vocab_size=0", "eapc", "must be >= 1, got 0"),
    ("d_feat=0", "eapc", "must be >= 1, got 0"),
    ("d_ffn=0", "eapc", "must be >= 1, got 0"),
    ("n_negatives=0", "contrastive", "must be >= 1, got 0"),
    ("tau_cos=0", "contrastive", "must be > 0, got 0"),
    ("mask_prob=1.5", "masked_cluster", "must be <= 1, got 1.5"),
    ("clip_norm=-1", "eapc", None),
    ("noam_factor=-1", "eapc", None),
    ("d_adapter=0", "eapc", "must be >= 1, got 0"),
    ("ft_warmup_frac=0.8 ft_hold_frac=0.8", "eapc", None),
    # n_heads divides 9; the positions need an even width
    ("n_heads=3 d_model=9", "eapc", "must be even (sinusoidal positions), got 9"),
]

# (command, option, value): options that once declared a setting a second
# time; settings now reach a command only through --config and --set
REMOVED_FLAGS = [
    ("gen-corpus", "--n", "2"), ("gen-corpus", "--domain", "target"),
    ("gen-corpus", "--emit", "waveform"), ("gen-corpus", "--seed", "3"),
    ("pretrain", "--objective", "apc"), ("pretrain", "--steps", "1"), ("pretrain", "--seed", "3"),
    ("adapt", "--steps", "1"), ("adapt", "--seed", "3"),
    ("finetune", "--steps", "1"), ("finetune", "--seed", "3"),
    ("evaluate", "--seed", "3"),
]

# (command, key = value): a key of a settings class the command does not build,
# or of a setting that is a fixed constant now, at the value it last had (the
# constants OUT_OF_RANGE names are not repeated here)
FOREIGN_KEYS = [
    ("pretrain", "n_mels = 3"), ("pretrain", "emit = waveform"), ("featurize", "d_model = 8"),
    ("evaluate", "n_utterances = 2"), ("sweep", "window_ms = 30"),
    ("pretrain", "saft_lr_scale = 0.5"), ("pretrain", "ft_hold_frac = 0.4"),
    ("sweep", "ft_final_scale = 0.05"), ("featurize", "fmin = 0.0"), ("featurize", "fmax = 8000"),
]

# (command, key = value, the rule it breaks): settings the removed options carried
FORMER_FLAG_VALUES = [
    ("gen-corpus", "n_utterances = 0", "must be >= 1, got 0"),
    ("gen-corpus", "domain = nowhere", "must be one of source, target, got 'nowhere'"),
    ("gen-corpus", "emit = video", "must be one of features, waveform, got 'video'"),
    ("pretrain", "seed = -1", "must be >= 0, got -1"),
    ("pretrain", "objective = bogus", "must be one of apc, eapc, biapc, contrastive, "
                                      "masked_cluster, got 'bogus'"),
    ("pretrain", "pretrain_steps = abc", "expects int, got 'abc'"),
]


class TestErrorHandling:
    def test_nan_weight_fails_evaluate_naming_the_op(self, tmp_path, tiny_config, capsys):
        work = str(tmp_path / "run")
        assert main(["pretrain", "--config", tiny_config, "--out", work]) == 0
        assert main(["finetune", "--config", tiny_config, "--init", last_line(capsys),
                     "--out", work]) == 0
        ckpt = load_checkpoint(last_line(capsys))
        ckpt.params["model.conv.conv1.w"][1, 2, 3] = np.nan
        save_checkpoint(tmp_path / "nan.ckpt", ckpt.params, ckpt.config, ckpt.provenance)
        report = tmp_path / "report.json"
        with np.errstate(all="ignore"):
            assert main(["evaluate", "--config", tiny_config, "--init", str(tmp_path / "nan.ckpt"),
                         "--report", str(report)]) == 1
        assert capsys.readouterr().err == "error: stage 'evaluate': non-finite values produced by op 'conv1d'\n"
        assert not report.exists()

    def test_unknown_set_key(self, tmp_path, capsys):
        rc = main(["gen-corpus", "--out", str(tmp_path), "--set", "volume=11"])
        assert rc == 1
        assert "unknown config key 'volume' for gen-corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", FOREIGN_KEYS,
                             ids=[f"{c}-{line.partition(' ')[0]}" for c, line in FOREIGN_KEYS])
    def test_key_of_another_command_is_rejected(self, tmp_path, capsys, command, line):
        key, _, value = line.partition(" = ")
        cfg = tmp_path / "other.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        args = {
            "pretrain": ["--out", str(out)],
            "featurize": ["--manifest", str(tmp_path / "m.tsv"), "--out", str(out)],
            "evaluate": ["--init", str(tmp_path / "x.ckpt"), "--report", str(out / "r.json")],
            "sweep": ["--key", "d_adapter", "--values", "2", "--out", str(out)],
        }[command]
        for source in (["--config", str(cfg)], ["--set", f"{key}={value}"]):
            assert main([command, *args, *source]) == 1
            assert f"error: unknown config key '{key}' for {command}" in capsys.readouterr().err
            assert not out.exists()

    def test_ill_typed_setting_names_the_setting(self, tmp_path, capsys):
        cases = [
            (["pretrain", "--set", "d_model=abc"], "setting 'd_model' expects int, got 'abc'"),
            (["gen-corpus", "--set", "n_utterances=abc"], "'n_utterances' expects int, got 'abc'"),
            (["gen-corpus", "--set", "n_utterances=true"], "'n_utterances' expects int, got True"),
            (["pretrain", "--set", "causal=1"], "setting 'causal' expects bool, got 1"),
            (["pretrain", "--set", "noise_sigma=false"], "'noise_sigma' expects float, got False"),
            (["gen-corpus", "--set", "emit=3"], "setting 'emit' expects str, got 3"),
            (["featurize", "--manifest", "m.tsv", "--set", "window_ms=high"],
             "setting 'window_ms' expects float, got 'high'"),
            (["sweep", "--key", "d_model", "--values", "16,abc"],
             "setting 'd_model' expects int, got 'abc'"),
        ]
        for argv, message in cases:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 1
            assert message in capsys.readouterr().err
        # a float setting takes an int, and the run goes ahead
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("noise_sigma = 0\n")
        assert main(["gen-corpus", "--out", str(tmp_path / "c"), "--set", "n_utterances=2",
                     "--set", "emit=waveform", "--config", str(cfg)]) == 0
        cfg.write_text("window_ms = 25\n")
        assert main(["featurize", "--manifest", last_line(capsys), "--out", str(tmp_path / "f"),
                     "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("settings, objective, rule",
                             [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in OUT_OF_RANGE])
    def test_out_of_range_setting_names_the_setting(self, tmp_path, tiny_config, capsys,
                                                    settings, objective, rule):
        out = tmp_path / "run"
        sets = [arg for s in settings.split() for arg in ("--set", s)]
        rc = main(["pretrain", "--config", tiny_config, "--set", f"objective={objective}", *sets,
                   "--out", str(out)])
        assert rc == 1
        keys = [s.partition("=")[0] for s in settings.split()]
        expected = f"setting '{keys[-1]}' {rule}" if rule else f"unknown config key '{keys[0]}' for pretrain"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, rule", [
        ("n_mels=0", "must be >= 1, got 0"),
        ("shift_ms=0", "must be > 0, got 0"),
        ("log_floor=0", None),  # a fixed constant now: an unknown key
    ])
    def test_out_of_range_featurizer_setting_names_the_setting(self, tmp_path, capsys,
                                                               setting, rule):
        main(["gen-corpus", "--out", str(tmp_path / "wav"), "--set", "n_utterances=1",
              "--set", "emit=waveform"])
        out = tmp_path / "feat"
        rc = main(["featurize", "--manifest", last_line(capsys), "--set", setting,
                   "--out", str(out)])
        assert rc == 1
        name = setting.partition("=")[0]
        expected = f"setting '{name}' {rule}" if rule else f"unknown config key '{name}' for featurize"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS])
    def test_removed_setting_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        init = ["--init", str(tmp_path / "x.ckpt")] if command in ("adapt", "finetune", "evaluate") else []
        dest = ["--report", str(out / "report.json")] if command == "evaluate" else ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([command, *init, *dest, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: sslasr {command} " in err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, line, rule", FORMER_FLAG_VALUES,
                             ids=[line.partition(" ")[0] for _, line, _ in FORMER_FLAG_VALUES])
    def test_bad_value_names_the_setting_from_config_or_set(self, tmp_path, capsys,
                                                            command, line, rule):
        key, _, value = line.partition(" = ")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        for source in (["--config", str(cfg)], ["--set", f"{key}={value}"]):
            assert main([command, *source, "--out", str(out)]) == 1
            assert f"error: setting '{key}' {rule}" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["adapt", "--init", str(tmp_path / "nope.ckpt"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"steps = 2\n\xff\n")
        rc = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err and "not UTF-8" in err

    def test_missing_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "nope.cfg"
        rc = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: No such file or directory\n"
        assert not (tmp_path / "run").exists()

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["pretrain"])  # missing required --out
        assert exc.value.code == 2

    def test_malformed_set_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-corpus", "--out", "x", "--set", "novalue"])
        assert exc.value.code == 2
