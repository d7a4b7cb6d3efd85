"""Pixel encoder-decoder and the query transformer decoder.

The convolutional path maps an image batch (B, 3, H, W) to per-pixel
embeddings F at stride 4: a two-conv stem to stride 4, a strided residual
stage to stride 8, a second residual stage at stride 8, then one bilinear
upsample back to stride 4 fused with a projected skip from the stem and
refined by a final residual block before the D-channel projection.

The transformer decoder path turns K learned query embeddings into cluster
centers Q by N_dec blocks of cross-attention over the stride-4 pixels,
self-attention across the K slots, and a two-layer FFN, each with residual
and layer norm.  Cross-attention has two variants:

  standard  soft read: softmax over pixels of Q F^T / sqrt(D), times F
  kmeans    hard read: each pixel is assigned to its argmax cluster (the
            assignment is a constant to the gradient), and a query absorbs
            the mean feature of its assigned pixels; a query with no pixels
            is left untouched by the cross-attention step

Every op stays inside the closed tensor op set, so the whole stack is
covered by finite-difference gradient checks.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .errors import ContractError
from .rng import SplitMix64
from .tensor import Tensor, bias_add, one_hot, parameter

STRIDE = 4  # pixels per feature-map cell along each axis


class Params:
    """Makes each parameter under its full checkpoint name and records it in
    ``made``, which every ``sub`` view shares.  ``source`` is a SplitMix64 to
    draw new weights from in creation order, or a checkpoint's entries, taken
    as stored; a missing entry or a wrong shape raises ContractError."""

    def __init__(self, source, made: Dict[str, Tensor] = None, prefix: str = ""):
        self.source = source
        self.made = {} if made is None else made
        self.prefix = prefix

    def sub(self, prefix: str) -> "Params":
        return Params(self.source, self.made, self.prefix + prefix)

    def normal(self, name: str, shape: Tuple[int, ...], std: float) -> Tensor:
        return self._make(name, shape,
                          lambda: self.source.normals(math.prod(shape)).reshape(shape) * std)

    def full(self, name: str, shape: Tuple[int, ...], value: float) -> Tensor:
        return self._make(name, shape, lambda: np.full(shape, value))

    def _make(self, name: str, shape: Tuple[int, ...], init) -> Tensor:
        name = self.prefix + name
        if isinstance(self.source, SplitMix64):
            arr = init()
        else:
            arr = self.source.get(name)
            if arr is None or arr.shape != shape:
                got = "missing" if arr is None else f"shape {arr.shape}"
                raise ContractError(f"checkpoint parameter {name}: {got}, model {shape}")
        self.made[name] = parameter(arr)
        return self.made[name]


class Conv3x3:
    def __init__(self, p: Params, cin: int, cout: int, stride: int = 1, std: float = None):
        self.stride = stride
        std = math.sqrt(2.0 / (cin * 9)) if std is None else std
        self.weight = p.normal("w", (cout, cin, 3, 3), std)
        self.bias = p.full("b", (cout,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return x.conv2d(self.weight, self.bias, stride=self.stride)


class Residual:
    """conv-relu-conv with an additive shortcut, relu after the join.
    The shortcut is identity when shape allows, else a strided 3x3 projection."""

    def __init__(self, p: Params, cin: int, cout: int, stride: int = 1):
        self.conv1 = Conv3x3(p.sub("c1."), cin, cout, stride)
        self.conv2 = Conv3x3(p.sub("c2."), cout, cout, 1)
        self.proj = None
        if stride != 1 or cin != cout:
            self.proj = Conv3x3(p.sub("proj."), cin, cout, stride)

    def __call__(self, x: Tensor) -> Tensor:
        y = self.conv2(self.conv1(x).relu())
        s = x if self.proj is None else self.proj(x)
        return (y + s).relu()


class Encoder:
    def __init__(self, p: Params, widths: Tuple[int, int, int], d: int):
        w0, w1, w2 = widths
        self.stem1 = Conv3x3(p.sub("stem1."), 3, w0, 2)
        self.stem2 = Conv3x3(p.sub("stem2."), w0, w0, 2)
        self.stage1 = Residual(p.sub("stage1."), w0, w1, 2)
        self.stage2 = Residual(p.sub("stage2."), w1, w2, 1)
        self.skip = Conv3x3(p.sub("skip."), w0, w2, 1)
        self.refine = Residual(p.sub("refine."), w2, w2, 1)
        # small init so the embedding-vs-query bilinear form starts near zero
        # and the cluster softmax opens up uniform instead of saturated
        self.out = Conv3x3(p.sub("out."), w2, d, 1, std=0.01)

    def __call__(self, images: Tensor) -> Tensor:
        """(B, 3, H, W) -> (B, D, H/4, W/4); H, W must be multiples of 4."""
        _, _, h, w = images.shape
        if h % STRIDE or w % STRIDE:
            raise ContractError(f"input {h}x{w} is not a multiple of {STRIDE}")
        s = self.stem2(self.stem1(images).relu()).relu()
        x = self.stage2(self.stage1(s))
        x = x.bilinear_upsample2x()
        # ceil division upstream can overshoot the skip by one row/col
        if x.shape[2] != s.shape[2]:
            x = x.narrow(2, 0, s.shape[2])
        if x.shape[3] != s.shape[3]:
            x = x.narrow(3, 0, s.shape[3])
        x = (x + self.skip(s)).relu()
        return self.out(self.refine(x))

    def rows(self, images: Tensor) -> Tuple[Tensor, Tuple[int, int]]:
        """Per-pixel embeddings as rows: (B, N, D) plus the feature grid size."""
        fmap = self(images)
        b, d, h4, w4 = fmap.shape
        return fmap.reshape(b, d, h4 * w4).transpose_last2(), (h4, w4)


class Linear:
    def __init__(self, p: Params, fan_in: int, fan_out: int, std: float = None):
        std = math.sqrt(2.0 / fan_in) if std is None else std
        self.weight = p.normal("w", (fan_in, fan_out), std)
        self.bias = p.full("b", (fan_out,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return bias_add(x.matmul(self.weight), self.bias)


class LayerNorm:
    def __init__(self, p: Params, d: int):
        self.gamma = p.full("g", (d,), 1.0)
        self.beta = p.full("b", (d,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return x.layernorm(self.gamma, self.beta)


def kmeans_read(q: Tensor, f: Tensor) -> Tensor:
    """Hard-assignment cross-attention read: mean feature of the pixels whose
    argmax cluster is this query; zero for empty clusters."""
    logits = f.matmul(q.transpose_last2())          # (B, N, K)
    assign = logits.data.argmax(axis=-1)            # constant to the gradient
    a = one_hot(assign, q.shape[1])                 # (B, N, K)
    counts = a.data.sum(axis=1)                     # (B, K)
    summed = a.transpose_last2().matmul(f)          # (B, K, D)
    denom = Tensor(np.maximum(counts, 1.0)[:, :, None])
    return summed / denom.expand_axis(2, q.shape[2])


def standard_read(q: Tensor, f: Tensor) -> Tensor:
    """Soft cross-attention read: softmax over pixels of Q F^T / sqrt(D)."""
    d = q.shape[-1]
    attn = (q.matmul(f.transpose_last2()) * (1.0 / math.sqrt(d))).softmax(axis=-1)
    return attn.matmul(f)


class DecoderBlock:
    def __init__(self, p: Params, d: int, variant: str):
        self.variant = variant
        self.d = d
        self.ln1 = LayerNorm(p.sub("ln1."), d)
        self.ln2 = LayerNorm(p.sub("ln2."), d)
        self.ln3 = LayerNorm(p.sub("ln3."), d)
        self.ffn1 = Linear(p.sub("ffn1."), d, 2 * d)
        self.ffn2 = Linear(p.sub("ffn2."), 2 * d, d, std=math.sqrt(1.0 / (2 * d)))

    def __call__(self, q: Tensor, f: Tensor) -> Tensor:
        if q.shape[1] < 1:
            raise ContractError("decoder block needs K >= 1 queries")
        read = kmeans_read(q, f) if self.variant == "kmeans" else standard_read(q, f)
        q = self.ln1(q + read)
        attn = (q.matmul(q.transpose_last2()) * (1.0 / math.sqrt(self.d))).softmax(axis=-1)
        q = self.ln2(q + attn.matmul(q))
        q = self.ln3(q + self.ffn2(self.ffn1(q).gelu()))
        return q


class Backbone:
    """Full image-to-(F, Q) stack: encoder, query table, decoder blocks."""

    def __init__(self, p: Params, widths: Tuple[int, int, int], d: int, n_dec: int, k: int,
                 variant: str):
        self.encoder = Encoder(p.sub("enc/"), widths, d)
        self.queries = p.normal("dec/queries", (k, d), 0.02)
        self.blocks = [DecoderBlock(p.sub(f"dec/block{i}."), d, variant) for i in range(n_dec)]

    def __call__(self, images: Tensor) -> Tuple[Tensor, Tensor, Tuple[int, int]]:
        f, grid = self.encoder.rows(images)
        q = self.queries.expand_leading(f.shape[0])
        for block in self.blocks:
            q = block(q, f)
        return f, q, grid
