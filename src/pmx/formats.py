"""Bit-exact binary container formats.

Dataset files (magic ``PMXD``, version 1) hold a fixed header, then one packed
record per sample: ``image`` (H, W, 3) f32, ``labels`` (H, W) u8, ``depth``
(H, W) f32 and ``normal`` (H, W, 3) f32.  Checkpoint files (magic ``PMXC``)
hold named f32 tensors, each name once in strictly increasing order (a
reader refuses any other order), and end in an 8-byte checksum of
everything before it: in version 2, the one written, the zlib CRC-32 of the
body with the upper 32 bits zero; in version 1, still read, FNV-1a 64.  Two
writes of the same content are byte-identical, and any flipped byte is
detected on read (CRC-32 catches every error burst of up to 32 bits).  Both
formats are little-endian and written atomically (temp file in the same
directory, then rename) from streamed parts, holding no copy of the file; a
dataset read holds one copy, its samples.

A dataset may carry a sidecar manifest: UTF-8 JSON at ``path + ".json"``
recording the generator seed, the scene configuration, class names, and
the normal-frame convention.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ContractError, CorruptionError, FormatError
from .scene import Sample

DATASET_MAGIC = b"PMXD"
CHECKPOINT_MAGIC = b"PMXC"
DATASET_VERSION = 1
CHECKPOINT_VERSION = 2
IGNORE_LABEL = 255  # the one label byte allowed at or above the header's class count

_U16, _U32, _F32_MAX = 0xFFFF, 0xFFFFFFFF, float(np.finfo(np.float32).max)  # header fields
_DATASET_HEADER = struct.Struct("<4sIIHHHff")  # magic, version, count, h, w, classes, depth range
_CHECKPOINT_HEADER = struct.Struct("<4sII")  # magic, version, entry count
_NAME_LEN, _RANK, _DIM = map(struct.Struct, ("<H", "<B", "<I"))  # entry: name, rank, dims, data
_CHECKPOINT_TRAILER = struct.Struct("<Q")  # checksum of everything before it

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


# checkpoint version -> checksum of the body; version 1 is read only
_CHECKSUMS = {1: fnv1a64, 2: zlib.crc32}


def _atomic_write(path: str, parts: Iterable) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


# ---- dataset ------------------------------------------------------------------


def _sample_dtype(h: int, w: int) -> np.dtype:
    """One packed sample record; its fields are in file order."""
    return np.dtype([("image", "<f4", (h, w, 3)), ("labels", "u1", (h, w)),
                     ("depth", "<f4", (h, w)), ("normal", "<f4", (h, w, 3))])


_MAX_PIXELS = (2**31 - 1) // _sample_dtype(1, 1).itemsize  # numpy's itemsize is a C int


@dataclass(frozen=True)
class DatasetHeader:
    count: int
    h: int
    w: int
    classes: int
    d_min: float
    d_max: float

    def validate(self) -> None:
        """A field the format cannot hold (or a reader refuses) raises ContractError."""
        for name, value, top in (("sample count", self.count, _U32), ("height", self.h, _U16),
                                 ("width", self.w, _U16), ("classes", self.classes, _U16),
                                 ("pixel count", self.h * self.w, _MAX_PIXELS)):
            if not 1 <= value <= top:
                raise ContractError(f"dataset {name} {value} outside the header's range 1..{top}")
        if not 0 < self.d_min < self.d_max <= _F32_MAX:
            raise ContractError(f"dataset depth range [{self.d_min}, {self.d_max}] "
                                f"not within (0, {_F32_MAX:g}]")


def write_dataset(path: str, samples: Sequence[Sample], classes: int, d_min: float,
                  d_max: float, manifest: dict = None) -> None:
    """A header field the format cannot hold (or a reader refuses) raises
    ContractError before anything is written."""
    if len(samples) == 0:
        raise ContractError("dataset must contain at least one sample")
    h, w = samples[0].labels.shape
    DatasetHeader(len(samples), h, w, classes, d_min, d_max).validate()
    rec = _sample_dtype(h, w)
    for i, s in enumerate(samples):
        if any(getattr(s, name).shape != rec[name].shape for name in rec.names):
            raise ContractError(f"sample {i} shape differs from sample 0")
    header = _DATASET_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(samples), h, w,
                                  classes, d_min, d_max)
    _atomic_write(path, itertools.chain([header], (
        np.ascontiguousarray(getattr(s, name), rec[name].base)
        for s in samples for name in rec.names)))
    if manifest is not None:
        _atomic_write(path + ".json", [json.dumps(manifest, sort_keys=True, indent=1).encode()])


def read_dataset(path: str) -> Tuple[DatasetHeader, List[Sample]]:
    """Header and samples; a malformed header, a wrong length or a label
    outside the header's classes (other than IGNORE_LABEL) is a FormatError."""
    with open(path, "rb") as fh:
        head = fh.read(_DATASET_HEADER.size)
        if head[:len(DATASET_MAGIC)] != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:len(DATASET_MAGIC)]!r}")
        if len(head) < _DATASET_HEADER.size:
            raise FormatError(f"{path}: truncated header at offset {len(head)}")
        _, version, count, h, w, classes, d_min, d_max = _DATASET_HEADER.unpack(head)
        if version != DATASET_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if not 1 <= h * w <= _MAX_PIXELS or classes < 1 or not 0 < d_min < d_max < math.inf:
            raise FormatError(f"{path}: header has {h}x{w} pixels, {classes} classes, "
                              f"depth range [{d_min}, {d_max}]")
        rec = _sample_dtype(h, w)
        need = len(head) + count * rec.itemsize
        try:  # pages are touched only as bytes arrive, so a short file costs only its length
            recs = np.empty(count, rec)
        except MemoryError as exc:
            raise FormatError(f"{path}: expected {need} bytes, more than fit in memory") from exc
        end = len(head) + fh.readinto(recs) + len(fh.read())
    if end != need:
        raise FormatError(f"{path}: expected {need} bytes, file ends at offset {end}")
    bad = ((recs["labels"] >= classes) & (recs["labels"] != IGNORE_LABEL)).any(axis=(1, 2))
    if bad.any():
        raise FormatError(f"{path}: sample {bad.argmax()} has labels outside "
                          f"the {classes} classes (ignore label {IGNORE_LABEL})")
    hdr = DatasetHeader(count, h, w, classes, d_min, d_max)
    return hdr, [Sample(*fields) for fields in zip(*(recs[name] for name in rec.names))]


def read_manifest(path: str) -> dict:
    with open(path + ".json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---- checkpoints -----------------------------------------------------------------


def write_checkpoint(path: str, tensors: Dict[str, np.ndarray]) -> None:
    """Named f32 tensors, sorted by name.  Reserved name prefixes: ``opt/``
    for optimizer state (moments, step count), ``meta/`` for scalar
    model-config entries and ``train/`` for the training settings a resume
    must share; all are ordinary tensors to this format."""
    names = sorted(tensors)
    parts = [_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(names))]
    for name in names:
        arr = np.asarray(tensors[name], dtype="<f4", order="C")
        enc = name.encode("utf-8")
        parts += [_NAME_LEN.pack(len(enc)), enc, _RANK.pack(arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CHECKPOINT_TRAILER.pack(crc))
    _atomic_write(path, parts)


def read_checkpoint(path: str) -> Dict[str, np.ndarray]:
    """Read a version 1 or 2 checkpoint; the version picks the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:len(CHECKPOINT_MAGIC)]!r}")
    if len(blob) < _CHECKPOINT_HEADER.size + _CHECKPOINT_TRAILER.size:
        raise FormatError(f"{path}: truncated at offset {len(blob)}")
    _, version, count = _CHECKPOINT_HEADER.unpack_from(blob)
    checksum = _CHECKSUMS.get(version)
    if checksum is None:
        raise FormatError(f"{path}: unsupported version {version}")
    body = memoryview(blob)[:-_CHECKPOINT_TRAILER.size]
    if checksum(body) != _CHECKPOINT_TRAILER.unpack_from(blob, len(body))[0]:
        raise CorruptionError(f"{path}: checksum mismatch")
    out: Dict[str, np.ndarray] = {}
    off = _CHECKPOINT_HEADER.size
    try:
        for _ in range(count):
            (nlen,) = _NAME_LEN.unpack_from(body, off)
            off += _NAME_LEN.size
            name = str(body[off:off + nlen], "utf-8")
            if out and name <= last:  # code-point order is UTF-8 byte order
                raise ValueError(f"name {name!r} does not sort after {last!r}")
            last = name
            off += nlen
            (rank,) = _RANK.unpack_from(body, off)
            off += _RANK.size
            shape = struct.unpack_from(f"<{rank}I", body, off)
            off += rank * _DIM.size
            arr = np.frombuffer(body, "<f4", math.prod(shape), off).reshape(shape)
            out[name] = arr.astype(np.float32)  # a copy, aligned for BLAS
            off += arr.nbytes
    except (struct.error, ValueError, OverflowError) as exc:  # ValueError: bad UTF-8 too
        raise FormatError(f"{path}: malformed entry {len(out)} of {count} "
                          f"at offset {off}: {exc}") from exc
    if off != len(body):
        raise FormatError(f"{path}: entries end at offset {off}, body at {len(body)}")
    return out
