"""Binary NetPBM image output (PGM P5, PPM P6) and minimal readers.

All quantization goes through one rule, round half up: u8 = floor(255 v + 0.5)
for v in [0, 1].  Normals are mapped (n + 1)/2 before quantization, so a
component of -1 lands at 0 and 0.0 lands at 128.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError


def quantize(v: np.ndarray) -> np.ndarray:
    """[0,1] floats to u8 by round-half-up."""
    return np.clip(np.floor(v * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_pgm(path: str, gray: np.ndarray) -> None:
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise FormatError(f"PGM needs a 2D uint8 array, got {gray.shape} {gray.dtype}")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(gray.tobytes())


def write_ppm(path: str, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise FormatError(f"PPM needs (H,W,3) uint8, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.tobytes())


# magic, then width, height and maxval as decimal fields separated by
# whitespace or comments, then exactly one whitespace byte before the raster
_SEP = rb"(?:\s|#[^\n]*\n)+"
_FIELDS = re.compile((_SEP + rb"(\d+)") * 3 + rb"\s")


def _read(path: str, magic: bytes, channels: int) -> np.ndarray:
    """The (H, W, channels) u8 raster of a binary NetPBM file; anything else
    raises FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    m = _FIELDS.match(blob, 2) if blob.startswith(magic) else None
    if m is None:
        raise FormatError(f"{path}: no {magic.decode()} header with three decimal fields")
    w, h, maxval = map(int, m.groups())
    n = h * w * channels
    if w < 1 or h < 1 or maxval != 255 or len(blob) - m.end() < n:
        raise FormatError(f"{path}: {w}x{h} maxval {maxval} with {len(blob) - m.end()} "
                          f"payload bytes; need a positive size, maxval 255, {n} bytes")
    return np.frombuffer(blob, np.uint8, n, m.end()).reshape(h, w, channels).copy()


def read_pgm(path: str) -> np.ndarray:
    return _read(path, b"P5", 1)[:, :, 0]


def read_ppm(path: str) -> np.ndarray:
    return _read(path, b"P6", 3)
