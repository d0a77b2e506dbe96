"""On-disk formats: FEAT1 feature files, SSLCKPT1 checkpoints, TSV
manifests, JSONL metric logs, and key=value config files.

All binary formats are little-endian regardless of host byte order.
Feature files, checkpoints and manifests are written atomically. Every
reader but read_jsonl raises a ValueError naming a malformed or unreadable file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from .engine import Tensor

FEAT_MAGIC = b"FEAT1\x00"
CKPT_MAGIC = b"SSLCKPT1"

_DTYPE_TO_CODE = {"float32": "<f4", "float64": "<f8"}
_HEADER_FIELDS = {"version", "config", "provenance", "tensors"}
_TENSOR_FIELDS = {"name", "dtype", "shape", "offset"}


def names_the_file(reader):
    """`reader(path)`, with the path put before any ValueError's message; a
    file that cannot be opened or read (an OSError) is a ValueError too."""
    @functools.wraps(reader)
    def read(path):
        try:
            return reader(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except OSError as exc:
            raise ValueError(f"{path}: {exc.strerror or exc}") from None
    return read


def _write_atomic(path, chunks) -> None:
    """Write byte chunks to a temp file beside `path`, then rename it into
    place, so a failed write leaves any previous file untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# FEAT1: single-utterance feature matrix
# ---------------------------------------------------------------------------


def write_feat(path, feats: np.ndarray, shift_ms: float, window_ms: float) -> None:
    """magic, u32 T, u32 D, f32 shift_ms, f32 window_ms, T*D float32 rows."""
    f = np.ascontiguousarray(np.asarray(feats, dtype=np.float32))
    if f.ndim != 2:
        raise ValueError("FEAT1 expects a 2-D (frames, dims) array")
    header = FEAT_MAGIC + struct.pack("<IIff", f.shape[0], f.shape[1], shift_ms, window_ms)
    _write_atomic(path, [header, f.astype("<f4", copy=False).tobytes(order="C")])


@names_the_file
def read_feat(path):
    """Returns (feats float32 (T, D), shift_ms, window_ms)."""
    raw = Path(path).read_bytes()
    if raw[: len(FEAT_MAGIC)] != FEAT_MAGIC:
        raise ValueError("bad FEAT1 magic")
    off = len(FEAT_MAGIC)
    if len(raw) < off + struct.calcsize("<IIff"):
        raise ValueError(f"truncated FEAT1 header: {len(raw)} bytes")
    t, d, shift_ms, window_ms = struct.unpack_from("<IIff", raw, off)
    off += struct.calcsize("<IIff")
    need = t * d * 4
    if len(raw) - off != need:
        raise ValueError("truncated FEAT1 payload")
    feats = np.frombuffer(raw, dtype="<f4", count=t * d, offset=off).reshape(t, d)
    return feats.astype(np.float32), float(shift_ms), float(window_ms)


# ---------------------------------------------------------------------------
# SSLCKPT1: named tensors + JSON header with config and provenance
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: dict  # name -> np.ndarray
    config: dict
    provenance: dict


def save_checkpoint(path, params: dict, config: dict, provenance: dict) -> None:
    """params maps name -> Tensor or ndarray (float32/float64 only)."""
    table = []
    payloads = []
    offset = 0
    for name in sorted(params):
        arr = params[name].data if isinstance(params[name], Tensor) else np.asarray(params[name])
        dtype = str(arr.dtype)
        if dtype not in _DTYPE_TO_CODE:
            raise TypeError(f"unsupported checkpoint dtype '{dtype}' for '{name}'")
        blob = np.ascontiguousarray(arr).astype(_DTYPE_TO_CODE[dtype], copy=False).tobytes(order="C")
        table.append({"name": name, "dtype": dtype, "shape": list(arr.shape), "offset": offset})
        payloads.append(blob)
        offset += len(blob)
    header = {
        "version": 1,
        "provenance": dict(provenance),
        "config": dict(config),
        "tensors": table,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    _write_atomic(path, [CKPT_MAGIC, struct.pack("<I", len(hbytes)), hbytes, *payloads])


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


@names_the_file
def load_checkpoint(path) -> Checkpoint:
    """Read an SSLCKPT1 file; a malformed one raises a ValueError naming it.
    A header key outside the format's fields (an older file's `rng_state`)
    is ignored."""
    raw = Path(path).read_bytes()
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError("bad SSLCKPT1 magic")
    off = len(CKPT_MAGIC) + 4
    hlen = int.from_bytes(raw[off - 4 : off], "little")
    if off + hlen > len(raw):  # a file cut inside the length field fails here too
        raise ValueError("truncated SSLCKPT1 header")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except RecursionError:
        raise ValueError("malformed SSLCKPT1 header: nested too deeply") from None
    if (not isinstance(header, dict) or not _HEADER_FIELDS <= header.keys()
            or not isinstance(header["tensors"], list)
            or not isinstance(header["config"], dict) or not isinstance(header["provenance"], dict)):
        raise ValueError(f"malformed SSLCKPT1 header: needs fields {sorted(_HEADER_FIELDS)}, "
                         "with dict config and provenance and a list of tensors")
    if type(header["version"]) is not int or header["version"] != 1:
        raise ValueError(f"unsupported SSLCKPT1 version {header['version']!r}")
    off += hlen
    params = {}
    for entry in header["tensors"]:
        if (not isinstance(entry, dict) or not _TENSOR_FIELDS <= entry.keys()
                or not isinstance(entry["name"], str) or not isinstance(entry["shape"], list)
                or not all(_is_count(v) for v in [entry["offset"], *entry["shape"]])):
            raise ValueError(f"malformed SSLCKPT1 tensor entry: {entry!r}")
        if not isinstance(entry["dtype"], str) or entry["dtype"] not in _DTYPE_TO_CODE:
            raise ValueError(f"unknown SSLCKPT1 dtype {entry['dtype']!r} for {entry['name']!r}")
        code = _DTYPE_TO_CODE[entry["dtype"]]
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        start = off + entry["offset"]
        end = start + count * np.dtype(code).itemsize
        if end > len(raw):
            raise ValueError("truncated SSLCKPT1 payload")
        arr = np.frombuffer(raw, dtype=code, count=count, offset=start).reshape(shape)
        params[entry["name"]] = arr.astype(entry["dtype"])
    return Checkpoint(params=params, config=header["config"], provenance=header["provenance"])


# ---------------------------------------------------------------------------
# TSV manifests
# ---------------------------------------------------------------------------


@dataclass
class ManifestEntry:
    utt_id: str
    path: str
    transcript: str  # space-separated token ids
    domain: str


def write_manifest(path, entries) -> None:
    lines = ["# id\tpath\ttranscript\tdomain\n"]
    lines += [f"{e.utt_id}\t{e.path}\t{e.transcript}\t{e.domain}\n" for e in entries]
    _write_atomic(path, ["".join(lines).encode("utf-8")])


def _text_lines(path) -> list:
    """The lines of a UTF-8 text file; other bytes are a ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


@names_the_file
def read_manifest(path) -> list:
    entries = []
    for lineno, line in enumerate(_text_lines(path), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"manifest line {lineno}: expected 4 tab-separated fields")
        entries.append(ManifestEntry(*fields))
    seen = set()
    for e in entries:
        if e.utt_id in seen:
            raise ValueError(f"duplicate utterance id in manifest: {e.utt_id!r}")
        seen.add(e.utt_id)
    return entries


# ---------------------------------------------------------------------------
# JSONL metric logs and key=value configs
# ---------------------------------------------------------------------------


def append_jsonl(fh, record: dict) -> None:
    """Append one record as a JSON line to an open text file."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def parse_value(raw: str):
    """Coerce a config token: bool literals, then int, then float, else str."""
    s = raw.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def setting(default, **domain):
    """A config field whose metadata is its domain: `lo` and `hi` (inclusive),
    `above` (exclusive) or `choices`. check_setting enforces it."""
    return field(default=default, metadata=domain)


_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def check_setting(f: Field, value) -> None:
    """Raise a ValueError naming the setting if `value` is not of the field's
    annotated type (a string) or lies outside its domain; NaN lies outside all."""
    if type(value) not in _KINDS[f.type]:
        raise ValueError(f"setting '{f.name}' expects {f.type}, got {value!r}")
    d = f.metadata
    if "choices" in d and value not in d["choices"]:
        rule = f"be one of {', '.join(map(str, d['choices']))}"
    elif "lo" in d and not value >= d["lo"]:
        rule = f"be >= {d['lo']}"
    elif "hi" in d and not value <= d["hi"]:
        rule = f"be <= {d['hi']}"
    elif "above" in d and not value > d["above"]:
        rule = f"be > {d['above']}"
    else:
        return
    raise ValueError(f"setting '{f.name}' must {rule}, got {value!r}")


class Settings:
    """Base of the frozen settings dataclasses: building one checks each
    field's value against its declaration."""

    def __post_init__(self):
        for f in fields(self):
            check_setting(f, getattr(self, f.name))


@names_the_file
def read_config(path) -> dict:
    """`key = value` lines; '#' starts a comment; blank lines ignored."""
    out = {}
    for lineno, line in enumerate(_text_lines(path), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        out[key.strip()] = parse_value(raw)
    return out

