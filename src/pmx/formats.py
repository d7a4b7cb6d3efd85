"""Bit-exact binary container formats.

Dataset files (magic ``PMXD``, version 1) hold a fixed header followed by
packed per-sample payloads.  Checkpoint files (magic ``PMXC``) hold named
f32 tensors sorted by name and end in an 8-byte little-endian checksum of
everything before it: in version 2, the one written, the zlib CRC-32 of
the body with the upper 32 bits zero; in version 1, still read, FNV-1a
64.  Two writes of the same content are byte-identical, and any flipped
byte is detected on read (CRC-32 catches every error burst of up to 32
bits).  Both formats are little-endian throughout and written atomically
(temp file in the same directory, then rename).

A dataset may carry a sidecar manifest: UTF-8 JSON at ``path + ".json"``
recording the generator seed, the scene configuration, class names, and
the normal-frame convention.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ContractError, CorruptionError, FormatError
from .scene import Sample

DATASET_MAGIC = b"PMXD"
CHECKPOINT_MAGIC = b"PMXC"
DATASET_VERSION = 1
CHECKPOINT_VERSION = 2
IGNORE_LABEL = 255  # the one label byte allowed at or above the header's class count

_U16, _U32, _F32_MAX = 0xFFFF, 0xFFFFFFFF, float(np.finfo(np.float32).max)  # header fields

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


def _atomic_write(path: str, blob: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---- dataset ------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetHeader:
    count: int
    h: int
    w: int
    classes: int
    d_min: float
    d_max: float


def write_dataset(
    path: str,
    samples: Sequence[Sample],
    classes: int,
    d_min: float,
    d_max: float,
    manifest: dict = None,
) -> None:
    """A header field the format cannot hold (or a reader refuses) raises
    ContractError before anything is written."""
    if len(samples) == 0:
        raise ContractError("dataset must contain at least one sample")
    h, w = samples[0].labels.shape
    for name, value, top in (("sample count", len(samples), _U32), ("height", h, _U16),
                             ("width", w, _U16), ("classes", classes, _U16)):
        if not 1 <= value <= top:
            raise ContractError(f"dataset {name} {value} outside the header's range 1..{top}")
    if not 0 < d_min < d_max <= _F32_MAX:
        raise ContractError(f"dataset depth range [{d_min}, {d_max}] not within (0, {_F32_MAX:g}]")
    parts = [
        DATASET_MAGIC,
        struct.pack("<IIHHH", DATASET_VERSION, len(samples), h, w, classes),
        struct.pack("<ff", d_min, d_max),
    ]
    for i, s in enumerate(samples):
        if s.image.shape != (h, w, 3) or s.labels.shape != (h, w) \
                or s.depth.shape != (h, w) or s.normal.shape != (h, w, 3):
            raise ContractError(f"sample {i} shape differs from sample 0")
        parts.append(s.image.astype("<f4").tobytes())
        parts.append(s.labels.astype(np.uint8).tobytes())
        parts.append(s.depth.astype("<f4").tobytes())
        parts.append(s.normal.astype("<f4").tobytes())
    _atomic_write(path, b"".join(parts))
    if manifest is not None:
        _atomic_write(path + ".json", json.dumps(manifest, sort_keys=True, indent=1).encode())


def read_dataset(path: str) -> Tuple[DatasetHeader, List[Sample]]:
    """Header and samples; a malformed header, a wrong length or a label
    outside the header's classes (other than IGNORE_LABEL) is a FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 26:
        raise FormatError(f"{path}: truncated header at offset {len(blob)}")
    version, count, h, w, classes = struct.unpack_from("<IIHHH", blob, 4)
    d_min, d_max = struct.unpack_from("<ff", blob, 18)
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if h < 1 or w < 1 or classes < 1 or not 0 < d_min < d_max < math.inf:
        raise FormatError(f"{path}: header has {h}x{w} pixels, {classes} classes, "
                          f"depth range [{d_min}, {d_max}]")
    hdr = DatasetHeader(count, h, w, classes, d_min, d_max)
    per = h * w * (3 * 4 + 1 + 4 + 3 * 4)
    need = 26 + per * count
    if len(blob) != need:
        raise FormatError(f"{path}: expected {need} bytes, file ends at offset {len(blob)}")
    samples = []
    off = 26
    hw = h * w
    for _ in range(count):
        image = np.frombuffer(blob, "<f4", hw * 3, off).reshape(h, w, 3).copy()
        off += hw * 12
        labels = np.frombuffer(blob, np.uint8, hw, off).reshape(h, w).copy()
        if labels.max() >= classes and (labels[labels != IGNORE_LABEL] >= classes).any():
            raise FormatError(f"{path}: sample {len(samples)} has labels outside "
                              f"the {classes} classes (ignore label {IGNORE_LABEL})")
        off += hw
        depth = np.frombuffer(blob, "<f4", hw, off).reshape(h, w).copy()
        off += hw * 4
        normal = np.frombuffer(blob, "<f4", hw * 3, off).reshape(h, w, 3).copy()
        off += hw * 12
        samples.append(Sample(image, labels, depth, normal))
    return hdr, samples


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
    if len(names) != len(set(names)):
        raise ContractError("duplicate tensor names")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(names))]
    for name in names:
        arr = np.asarray(tensors[name], dtype="<f4", order="C")
        enc = name.encode("utf-8")
        parts += [struct.pack("<H", len(enc)), enc, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<Q", crc))
    _atomic_write(path, b"".join(parts))


def read_checkpoint(path: str) -> Dict[str, np.ndarray]:
    """Read a version 1 or 2 checkpoint; the version picks the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated at offset {len(blob)}")
    version, count = struct.unpack_from("<II", blob, 4)
    checksum = _CHECKSUMS.get(version)
    if checksum is None:
        raise FormatError(f"{path}: unsupported version {version}")
    body = memoryview(blob)[:-8]
    if checksum(body) != struct.unpack_from("<Q", blob, len(body))[0]:
        raise CorruptionError(f"{path}: checksum mismatch")
    out: Dict[str, np.ndarray] = {}
    off = 12
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", body, off)
            off += 2
            name = str(body[off:off + nlen], "utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", body, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}I", body, off)
            off += 4 * rank
            n = math.prod(dims)
            out[name] = np.frombuffer(body, "<f4", n, off).reshape(dims).astype(np.float32)
            off += 4 * n
    except (struct.error, ValueError, OverflowError) as exc:  # ValueError: bad UTF-8 too
        raise FormatError(f"{path}: malformed entry {len(out)} of {count} "
                          f"at offset {off}: {exc}") from exc
    if off != len(body):
        raise FormatError(f"{path}: entries end at offset {off}, body at {len(body)}")
    return out
