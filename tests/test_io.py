"""Round-trip and corruption tests for the on-disk formats."""

import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sslasr.io
from sslasr.engine import Tensor
from sslasr.features import FeaturizerConfig
from sslasr.io import (
    CKPT_MAGIC,
    FEAT_MAGIC,
    ManifestEntry,
    append_jsonl,
    check_setting,
    load_checkpoint,
    parse_value,
    read_config,
    read_feat,
    read_jsonl,
    read_manifest,
    save_checkpoint,
    write_feat,
    write_manifest,
)


def write_config(path, values: dict) -> None:
    """The `key = value` layout read_config parses, one sorted key a line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(values):
            fh.write(f"{key} = {values[key]}\n")


class TestFeatFiles:
    def test_roundtrip(self, tmp_path):
        feats = np.random.default_rng(0).normal(size=(17, 5)).astype(np.float32)
        p = tmp_path / "a.feat"
        write_feat(p, feats, shift_ms=10.0, window_ms=25.0)
        back, shift, window = read_feat(p)
        assert np.array_equal(back, feats)
        assert back.dtype == np.float32
        assert (shift, window) == (10.0, 25.0)

    def test_write_is_deterministic(self, tmp_path):
        feats = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_feat(tmp_path / "x.feat", feats, 10.0, 25.0)
        write_feat(tmp_path / "y.feat", feats, 10.0, 25.0)
        assert (tmp_path / "x.feat").read_bytes() == (tmp_path / "y.feat").read_bytes()

    def test_rejects_bad_rank(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_feat(tmp_path / "x.feat", np.zeros(4), 10.0, 25.0)

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "x.feat"
        p.write_bytes(b"NOPE!!" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_feat(p)

    def test_rejects_truncation(self, tmp_path):
        p = tmp_path / "x.feat"
        write_feat(p, np.ones((4, 3), dtype=np.float32), 10.0, 25.0)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_feat(p)

    @pytest.mark.parametrize("data, message", [
        (b"junk", "bad FEAT1 magic"),
        (FEAT_MAGIC + b"\x04\x00\x00", "truncated FEAT1 header: 9 bytes"),
        (FEAT_MAGIC + struct.pack("<IIff", 4, 3, 10.0, 25.0) + b"\x00" * 8, "truncated FEAT1 payload"),
    ], ids=["magic", "header", "payload"])
    def test_errors_name_the_file(self, tmp_path, data, message):
        p = tmp_path / "x.feat"
        p.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            read_feat(p)
        assert str(exc.value) == f"{p}: {message}"


class TestCheckpoints:
    def _params(self):
        rng = np.random.default_rng(1)
        return {
            "enc.w": rng.normal(size=(4, 6)).astype(np.float32),
            "enc.b": rng.normal(size=6),  # float64
            "head.w": Tensor(rng.normal(size=(6, 3)).astype(np.float32)),
        }

    def test_roundtrip(self, tmp_path):
        params = self._params()
        cfg = {"d_model": 6, "objective": "apc", "lr": 0.001}
        prov = {"pretrain_steps": 10, "stage": "pretrain"}
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, params, cfg, prov)
        ck = load_checkpoint(p)
        assert ck.config == cfg
        assert ck.provenance == prov
        assert set(ck.params) == set(params)
        for name, val in params.items():
            arr = val.data if isinstance(val, Tensor) else val
            assert ck.params[name].dtype == arr.dtype
            assert np.array_equal(ck.params[name], arr)

    def test_write_is_deterministic(self, tmp_path):
        params = self._params()
        save_checkpoint(tmp_path / "a.ckpt", params, {"k": 1}, {"s": 2})
        save_checkpoint(tmp_path / "b.ckpt", params, {"k": 1}, {"s": 2})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(TypeError, match="unsupported checkpoint dtype"):
            save_checkpoint(tmp_path / "x.ckpt", {"a": np.zeros(3, dtype=np.int32)}, {}, {})

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"SSLCKPT9" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_rejects_truncated_payload(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, {"a": np.ones((8, 8), dtype=np.float32)}, {}, {})
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(p)

    def test_rejects_short_file(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"SSLCKPT1\x01\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(p)

    @pytest.mark.parametrize("data, message", [
        (b"SSLCKPT9", "bad SSLCKPT1 magic"),
        (CKPT_MAGIC, "truncated SSLCKPT1 header"),
        (CKPT_MAGIC + struct.pack("<I", 3) + b"{x}", "Expecting property name"),
        (CKPT_MAGIC + struct.pack("<I", 1) + b"\xff", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["magic", "header", "not_json", "not_utf8"])
    def test_errors_name_the_file(self, tmp_path, data, message):
        p = tmp_path / "x.ckpt"
        p.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(p)
        assert str(exc.value).startswith(f"{p}: {message}")

    def test_rejects_header_without_tensors(self, tmp_path):
        p = tmp_path / "x.ckpt"
        header = json.dumps({"version": 1, "config": {}, "provenance": {}}).encode()
        p.write_bytes(b"SSLCKPT1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(ValueError, match="malformed.*tensors"):
            load_checkpoint(p)

    def test_rejects_unknown_dtype(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, {"a": np.ones(4, dtype=np.float32)}, {}, {})
        raw = p.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        header = raw[12 : 12 + hlen].replace(b'"float32"', b'"int8"   ')
        p.write_bytes(raw[:12] + header + raw[12 + hlen :])
        with pytest.raises(ValueError, match="unknown SSLCKPT1 dtype 'int8'"):
            load_checkpoint(p)

    def test_header_rng_state_is_ignored(self, tmp_path):
        # older files carry an `rng_state` header key; the writer no longer does
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, {}, {"a": 1}, {})
        assert b"rng_state" not in p.read_bytes()
        p.write_bytes(_ckpt_bytes({"version": 1, "config": {"a": 1}, "provenance": {"f": 2},
                                   "tensors": [], "rng_state": {"seed": 0, "step": 2}}))
        ck = load_checkpoint(p)
        assert (ck.params, ck.config, ck.provenance) == ({}, {"a": 1}, {"f": 2})


class TestManifests:
    def test_roundtrip_with_comments(self, tmp_path):
        entries = [
            ManifestEntry("utt0", "feats/utt0.feat", "3 1 4", "clean"),
            ManifestEntry("utt1", "feats/utt1.feat", "", "shifted"),
        ]
        p = tmp_path / "m.tsv"
        write_manifest(p, entries)
        assert read_manifest(p) == entries
        # header line starts with '#', so the file parses as pure data
        assert p.read_text().startswith("#")

    def test_field_count_enforced(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("utt0\tfeats/utt0.feat\tclean\n")
        with pytest.raises(ValueError, match="line 1.*4 tab-separated"):
            read_manifest(p)

    def test_line_errors_name_the_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("# header\na\tb\n")
        with pytest.raises(ValueError, match=r"m\.tsv: manifest line 2"):
            read_manifest(p)

    def test_manifest_that_is_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_bytes(b"u1\t/x.feat\t1 2\tchild\xff\n")
        with pytest.raises(ValueError, match=r"m\.tsv: not UTF-8 text") as exc:
            read_manifest(p)
        assert not isinstance(exc.value, UnicodeDecodeError)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "m.tsv"
        write_manifest(p, [
            ManifestEntry("dup", "a.feat", "1", "clean"),
            ManifestEntry("dup", "b.feat", "2", "clean"),
        ])
        with pytest.raises(ValueError, match="duplicate utterance id.*'dup'"):
            read_manifest(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("\n# note\nu0\tp\t1 2\tclean\n\n")
        assert len(read_manifest(p)) == 1


class TestJsonlAndConfig:
    def test_jsonl_appends(self, tmp_path):
        p = tmp_path / "log.jsonl"
        with open(p, "a", encoding="utf-8") as fh:
            append_jsonl(fh, {"step": 1, "loss": 2.5})
        # a second handle appends after the first's record
        with open(p, "a", encoding="utf-8") as fh:
            append_jsonl(fh, {"step": 2, "loss": 1.25})
        recs = read_jsonl(p)
        assert recs == [{"step": 1, "loss": 2.5}, {"step": 2, "loss": 1.25}]
        assert p.read_text() == '{"loss": 2.5, "step": 1}\n{"loss": 1.25, "step": 2}\n'

    def test_parse_value_coercions(self):
        assert parse_value("true") is True
        assert parse_value("False") is False
        assert parse_value("42") == 42 and isinstance(parse_value("42"), int)
        assert parse_value("2.5e-3") == pytest.approx(0.0025)
        assert parse_value(" apc ") == "apc"

    def test_config_roundtrip(self, tmp_path):
        values = {"d_model": 32, "lr": 0.001, "objective": "hubert", "causal": True}
        p = tmp_path / "run.cfg"
        write_config(p, values)
        assert read_config(p) == values

    def test_config_comments_and_errors(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# full line comment\nlr = 0.1  # trailing\n\nsteps = 20\n")
        assert read_config(p) == {"lr": 0.1, "steps": 20}
        p.write_text("lr 0.1\n")
        with pytest.raises(ValueError, match="line 1.*key = value"):
            read_config(p)

    def test_config_errors_name_the_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr = 0.1\nsteps 20\n")
        with pytest.raises(ValueError, match=r"run\.cfg: config line 2"):
            read_config(p)

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"lr = 0.1\n\xff\n")
        with pytest.raises(ValueError, match=r"bad\.cfg: not UTF-8 text.*byte 9") as exc:
            read_config(p)
        assert not isinstance(exc.value, UnicodeDecodeError)

    def test_check_setting_reads_the_declared_type_and_domain(self):
        declared = {f.name: f for f in fields(FeaturizerConfig)}
        check_setting(declared["window_ms"], 30)  # an int is a float
        for name, value, message in [
            ("window_ms", 0.0, "setting 'window_ms' must be > 0, got 0.0"),
            ("window_ms", None, "setting 'window_ms' expects float, got None"),
            ("shift_ms", float("nan"), "setting 'shift_ms' must be > 0, got nan"),
            ("n_mels", 40.0, "setting 'n_mels' expects int, got 40.0"),
            ("n_mels", True, "setting 'n_mels' expects int, got True"),
        ]:
            with pytest.raises(ValueError) as exc:
                check_setting(declared[name], value)
            assert str(exc.value) == message


def _ckpt_bytes(header, payload=b"") -> bytes:
    h = json.dumps(header).encode()
    return CKPT_MAGIC + struct.pack("<I", len(h)) + h + payload


def _entry(**kw):
    return {"name": "a", "dtype": "float32", "shape": [2], "offset": 0, **kw}


class TestMalformedFiles:
    """A malformed file makes its reader raise ValueError, never another error."""

    @pytest.mark.parametrize("header", [
        {"version": 1, "config": {}, "provenance": {}, "tensors": 5},
        {"version": 1, "config": [], "provenance": {}, "tensors": []},
        {"version": 1, "config": {}, "provenance": {}, "tensors": [_entry(shape=3)]},
        {"version": 1, "config": {}, "provenance": {}, "tensors": [_entry(offset="0")]},
        {"version": 1, "config": {}, "provenance": {}, "tensors": [_entry(dtype=["float32"])]},
        {"version": 1, "config": {}, "provenance": {}, "tensors": [_entry(offset=-4)]},
        {"version": 1, "config": {}, "provenance": {}, "tensors": [_entry(shape=[-1])]},
        {"version": 1, "config": {}, "provenance": {}, "tensors": [_entry(name=["a"])]},
    ])
    def test_checkpoint_fields_of_wrong_type_or_sign(self, tmp_path, header):
        p = tmp_path / "x.ckpt"
        p.write_bytes(_ckpt_bytes(header, b"\x00" * 16))
        with pytest.raises(ValueError, match="malformed|unknown SSLCKPT1 dtype"):
            load_checkpoint(p)

    @pytest.mark.parametrize("version", [7, "one", 1.0, True, None])
    def test_checkpoint_version_other_than_1(self, tmp_path, version):
        p = tmp_path / "x.ckpt"
        p.write_bytes(_ckpt_bytes({"version": version, "config": {}, "provenance": {},
                                   "tensors": []}, b""))
        with pytest.raises(ValueError, match=re.escape(f"unsupported SSLCKPT1 version {version!r}")):
            load_checkpoint(p)

    def test_checkpoint_header_nested_too_deeply(self, tmp_path):
        p = tmp_path / "x.ckpt"
        header = b"[" * 200_000
        p.write_bytes(CKPT_MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_checkpoint(p)

    def test_feat_with_short_header(self, tmp_path):
        p = tmp_path / "x.feat"
        p.write_bytes(FEAT_MAGIC + b"\x04\x00\x00")
        with pytest.raises(ValueError, match="truncated FEAT1 header"):
            read_feat(p)

    @staticmethod
    def _read(reader, path, data: bytes):
        path.write_bytes(data)
        try:
            reader(path)
        except ValueError:
            pass

    _fuzz = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

    @_fuzz
    @given(data=st.binary(max_size=96), magic=st.booleans())
    def test_read_feat_on_arbitrary_bytes(self, tmp_path, data, magic):
        self._read(read_feat, tmp_path / "x.feat", (FEAT_MAGIC if magic else b"") + data)

    @_fuzz
    @given(data=st.binary(max_size=96), magic=st.booleans())
    def test_load_checkpoint_on_arbitrary_bytes(self, tmp_path, data, magic):
        self._read(load_checkpoint, tmp_path / "x.ckpt", (CKPT_MAGIC if magic else b"") + data)

    _json = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )
    _entries = st.fixed_dictionaries({
        "name": st.text(max_size=3) | _json,
        "dtype": st.sampled_from(["float32", "float64"]) | _json,
        "shape": st.lists(st.integers(-2, 5), max_size=3) | _json,
        "offset": st.integers(-8, 48) | _json,
    })
    _headers = st.fixed_dictionaries({
        "version": _json,
        "config": st.just({}) | _json,
        "provenance": st.just({}) | _json,
        "tensors": st.lists(_entries | _json, max_size=3) | _json,
    }) | _json

    @_fuzz
    @given(header=_headers, payload=st.binary(max_size=48))
    def test_load_checkpoint_on_arbitrary_json_headers(self, tmp_path, header, payload):
        self._read(load_checkpoint, tmp_path / "x.ckpt", _ckpt_bytes(header, payload))

    @_fuzz
    @given(data=st.binary(max_size=96))
    def test_read_manifest_on_arbitrary_bytes(self, tmp_path, data):
        self._read(read_manifest, tmp_path / "m.tsv", data)

    @_fuzz
    @given(data=st.binary(max_size=96))
    def test_read_config_on_arbitrary_bytes(self, tmp_path, data):
        self._read(read_config, tmp_path / "run.cfg", data)


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda p, v: write_feat(p, np.full((3, 4), v, dtype=np.float32), 10.0, 25.0),
        lambda p, v: save_checkpoint(p, {"w": np.full(6, v, dtype=np.float32)}, {"v": v}, {}),
        lambda p, v: write_manifest(p, [ManifestEntry("u0", f"feats/{v}.feat", "1 2", "target")]),
    ], ids=["feat", "checkpoint", "manifest"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        p = tmp_path / "x.bin"
        write(p, 1.0)
        before = p.read_bytes()
        real_open = open

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(sslasr.io, "open", lambda *a, **k: HalfWrite(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            write(p, 2.0)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["x.bin"]
        monkeypatch.undo()
        write(p, 2.0)
        assert p.read_bytes() != before
        assert [q.name for q in tmp_path.iterdir()] == ["x.bin"]
