"""Synthetic corpus generator: statistical contracts and disk round trips."""

from dataclasses import replace

import numpy as np
import pytest

from sslasr import data
from sslasr.data import (
    Batch,
    domain_transform,
    load_corpus,
    make_corpus,
    pad_batch,
    read_wav,
    token_prototypes,
    write_corpus,
    write_wav,
)
from sslasr.io import read_manifest, write_feat, write_manifest
from sslasr.training import PipelineConfig

TASK = PipelineConfig()


def expected_mean_shift(cfg: PipelineConfig) -> np.ndarray:
    """E[target frame] - E[source frame] = (A - I) mu_src + b for matched seeds."""
    protos = token_prototypes(cfg.proto_seed, cfg.vocab_size, cfg.proto_len, cfg.d_feat)
    a, b = domain_transform(cfg.proto_seed, cfg.d_feat)
    mu = protos.mean(axis=(0, 1))
    return (a - np.eye(cfg.d_feat)) @ mu + b


class TestGeneration:
    def test_same_seed_same_corpus(self):
        a = make_corpus(TASK, "source", 20, seed=4)
        b = make_corpus(TASK, "source", 20, seed=4)
        for u, v in zip(a, b):
            assert u.utt_id == v.utt_id
            assert u.tokens == v.tokens
            assert np.array_equal(u.feats, v.feats)

    def test_seed_changes_samples_not_task(self):
        a, b = make_corpus(TASK, "source", 10, seed=0), make_corpus(TASK, "source", 10, seed=1)
        assert any(not np.array_equal(u.feats, v.feats) for u, v in zip(a, b))
        # prototypes depend only on proto_seed
        assert np.array_equal(
            token_prototypes(7, 8, 8, 8), token_prototypes(7, 8, 8, 8)
        )

    def test_zero_noise_source_is_exact_prototypes(self):
        cfg = PipelineConfig(noise_sigma=0.0)
        protos = token_prototypes(cfg.proto_seed, cfg.vocab_size, cfg.proto_len, cfg.d_feat)
        for utt in make_corpus(cfg, "source", 5, seed=2):
            expected = np.concatenate([protos[t] for t in utt.tokens], axis=0)
            assert np.allclose(utt.feats, expected.astype(np.float32), atol=0)
            assert utt.feats.shape == (len(utt.tokens) * cfg.proto_len, cfg.d_feat)

    def test_token_count_bounds(self):
        cfg = PipelineConfig(min_tokens=3, max_tokens=5)
        counts = {len(u.tokens) for u in make_corpus(cfg, "source", 60, seed=6)}
        assert counts <= {3, 4, 5}
        assert len(counts) > 1

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain"):
            make_corpus(TASK, "mystery", 500, seed=0)


class TestDomainShift:
    def test_transform_is_spd_with_bounded_condition(self):
        for proto_seed in range(5):
            a, b = domain_transform(proto_seed, 8)
            assert np.allclose(a, a.T, atol=1e-12)
            eig = np.linalg.eigvalsh(a)
            assert eig.min() > 0
            assert eig.max() / eig.min() <= 10.0
            assert b.shape == (8,)

    def test_a_source_corpus_does_not_compute_the_target_map(self, monkeypatch):
        want = [u.feats.tobytes() for u in make_corpus(TASK, "source", 5, 0)]

        def refuse(*args):
            raise AssertionError("domain_transform called for a source corpus")

        monkeypatch.setattr(data, "domain_transform", refuse)
        assert [u.feats.tobytes() for u in make_corpus(TASK, "source", 5, 0)] == want
        with pytest.raises(AssertionError, match="called"):
            make_corpus(TASK, "target", 5, 0)

    def test_mean_shift_matches_prediction(self):
        n_utterances = 400
        src = np.concatenate([u.feats for u in make_corpus(TASK, "source", n_utterances, 0)], axis=0)
        tgt = np.concatenate([u.feats for u in make_corpus(TASK, "target", n_utterances, 0)], axis=0)
        shift = tgt.mean(axis=0) - src.mean(axis=0)
        predicted = expected_mean_shift(TASK)
        # frames are correlated within an utterance, so give the standard
        # error room: sigma_frame / sqrt(n_utterances) per dimension
        se = src.std(axis=0) / np.sqrt(n_utterances)
        assert np.all(np.abs(shift - predicted) < 3.0 * (se + 1e-3))

    def test_domains_are_linearly_separable(self):
        # least-squares domain probe fit on 1k frames must exceed 90%
        # held-out framewise accuracy: the shift has to actually exist
        for seed in range(3):
            frames, labels = [], []
            for domain, lab in (("source", -1.0), ("target", 1.0)):
                for u in make_corpus(TASK, domain, 60, seed):
                    frames.append(u.feats.astype(np.float64))
                    labels.append(np.full(u.feats.shape[0], lab))
            x = np.concatenate(frames, axis=0)
            y = np.concatenate(labels)
            xb = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
            idx = np.random.default_rng(seed).permutation(len(xb))
            fit, held = idx[:1000], idx[1000:]
            w = np.linalg.lstsq(xb[fit], y[fit], rcond=None)[0]
            acc = np.mean(np.sign(xb[held] @ w) == y[held])
            assert acc > 0.90, f"seed {seed}: domain probe accuracy {acc:.3f}"


class TestWaveforms:
    def test_wav_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = np.clip(rng.normal(scale=0.3, size=2000), -1.0, 1.0)
        p = tmp_path / "x.wav"
        write_wav(p, samples)
        back, rate = read_wav(p)
        assert rate == 16000
        assert np.max(np.abs(back - samples)) <= 1.0 / 32767.0 + 1e-12

    def test_waveform_corpus_is_rejected_until_featurized(self, tmp_path):
        # audio reaches a stage only through `sslasr featurize`, whose 40-mel
        # output test_cli's test_featurize_wav_corpus checks
        cfg = PipelineConfig(min_tokens=8, max_tokens=10)
        manifest = write_corpus(tmp_path, cfg, "source", 3, seed=1, emit="waveform")
        with pytest.raises(ValueError, match=r"manifest\.tsv: entry 'source_00000' is audio "
                                             r"\('wavs/source_00000\.wav'\); run `sslasr featurize`"):
            load_corpus(manifest, cfg)

    def test_unknown_emit_mode(self, tmp_path):
        with pytest.raises(ValueError, match="unknown emit mode"):
            write_corpus(tmp_path / "out", TASK, "source", 1, seed=0, emit="video")
        assert not (tmp_path / "out").exists()

    def test_unknown_domain_writes_nothing(self, tmp_path):
        for emit in ("features", "waveform"):
            with pytest.raises(ValueError, match="unknown domain 'mystery'"):
                write_corpus(tmp_path / "out", TASK, "mystery", 1, seed=0, emit=emit)
        assert not (tmp_path / "out").exists()


class TestDiskRoundTrip:
    def test_feature_corpus_roundtrip_is_exact(self, tmp_path):
        manifest = write_corpus(tmp_path, TASK, "source", 6, seed=3, emit="features")
        original = make_corpus(TASK, "source", 6, seed=3)
        loaded = load_corpus(manifest, TASK)
        assert len(loaded) == len(original)
        for u, v in zip(original, loaded):
            assert v.utt_id == u.utt_id
            assert v.tokens == u.tokens
            assert v.domain == u.domain
            assert np.array_equal(v.feats, u.feats)

    def test_non_integer_token_names_the_manifest_and_utterance(self, tmp_path):
        manifest = write_corpus(tmp_path, TASK, "source", 3, seed=3, emit="features")
        entries = read_manifest(manifest)
        entries[1] = replace(entries[1], transcript=entries[1].transcript + " 2x")
        write_manifest(manifest, entries)
        with pytest.raises(ValueError, match=r"manifest\.tsv: utterance 'source_00001': "
                                             r"invalid literal for int\(\) with base 10: '2x'"):
            load_corpus(manifest, TASK)

    def test_unknown_file_type_names_the_manifest_and_utterance(self, tmp_path):
        manifest = write_corpus(tmp_path, TASK, "source", 3, seed=3, emit="features")
        entries = read_manifest(manifest)
        entries[1] = replace(entries[1], path="feats/source_00001.npy")
        write_manifest(manifest, entries)
        with pytest.raises(ValueError, match=r"manifest\.tsv: utterance 'source_00001' has unknown "
                                             r"file type '\.npy' \('feats/source_00001\.npy'\)"):
            load_corpus(manifest, TASK)

    def test_unreadable_feature_file_names_the_manifest_utterance_and_file(self, tmp_path):
        manifest = write_corpus(tmp_path, TASK, "source", 3, seed=3, emit="features")
        bad = tmp_path / "feats" / "source_00001.feat"
        bad.write_bytes(b"junk")
        with pytest.raises(ValueError) as exc:
            load_corpus(manifest, TASK)
        assert str(exc.value) == f"{manifest}: utterance 'source_00001': {bad}: bad FEAT1 magic"

    def test_missing_feature_file_names_the_manifest_utterance_and_file(self, tmp_path):
        manifest = write_corpus(tmp_path, TASK, "source", 3, seed=3, emit="features")
        gone = tmp_path / "feats" / "source_00001.feat"
        gone.unlink()
        with pytest.raises(ValueError) as exc:
            load_corpus(manifest, TASK)
        assert str(exc.value) == f"{manifest}: utterance 'source_00001': {gone}: No such file or directory"

    def test_missing_manifest_names_the_file(self, tmp_path):
        manifest = tmp_path / "nope.tsv"
        with pytest.raises(ValueError) as exc:
            load_corpus(manifest, TASK)
        assert str(exc.value) == f"{manifest}: No such file or directory"

    def test_first_check_of_the_first_bad_entry_is_reported(self, tmp_path):
        # entry 1 is too wide and has a non-integer token; entry 2 is out of vocabulary
        manifest = write_corpus(tmp_path, TASK, "source", 3, seed=3, emit="features")
        write_feat(tmp_path / "feats" / "source_00001.feat",
                   np.zeros((20, TASK.d_feat + 1), np.float32), shift_ms=0.0, window_ms=0.0)
        entries = read_manifest(manifest)
        entries[1] = replace(entries[1], transcript="x")
        entries[2] = replace(entries[2], transcript=f"{TASK.vocab_size}")
        write_manifest(manifest, entries)
        with pytest.raises(ValueError, match=rf"manifest\.tsv: utterance 'source_00001' has feature "
                                             rf"dim {TASK.d_feat + 1} but config d_feat={TASK.d_feat}$"):
            load_corpus(manifest, TASK)

    def test_empty_manifest_is_an_error(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        write_manifest(manifest, [])
        with pytest.raises(ValueError, match=r"manifest\.tsv: no utterances"):
            load_corpus(manifest, TASK)

    def test_empty_transcript_loads_as_no_tokens(self, tmp_path):
        manifest = write_corpus(tmp_path, TASK, "source", 2, seed=3, emit="features")
        write_manifest(manifest, [replace(e, transcript="") for e in read_manifest(manifest)])
        assert [u.tokens for u in load_corpus(manifest, TASK)] == [[], []]

    def test_pad_batch_shapes(self):
        utts = make_corpus(TASK, "source", 4, seed=5)
        feats, lengths, tokens, _ = pad_batch(utts)
        tmax = max(u.feats.shape[0] for u in utts)
        assert feats.shape == (4, tmax, 8)
        for i, u in enumerate(utts):
            assert lengths[i] == u.feats.shape[0]
            assert np.array_equal(feats[i, : lengths[i]], u.feats)
            assert not feats[i, lengths[i]:].any()
        assert tokens == [u.tokens for u in utts]

    def test_pad_batch_keeps_utterance_ids_in_batch_order(self):
        utts = make_corpus(TASK, "source", 4, seed=5)[::-1]
        batch = pad_batch(utts)
        assert isinstance(batch, Batch)
        assert list(batch.utt_ids) == [u.utt_id for u in utts]
        assert list(batch.tokens) == [u.tokens for u in utts]

    def test_batch_from_arrays_has_no_tokens_or_ids(self):
        feats = np.zeros((2, 5, 3), dtype=np.float32)
        batch = Batch(feats, np.array([5, 4]))
        assert batch.tokens == () and batch.utt_ids == ()
        assert batch.feats is feats
