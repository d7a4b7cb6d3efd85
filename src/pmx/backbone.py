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
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import ContractError
from .rng import SplitMix64
from .tensor import Tensor, bias_add, one_hot, parameter

STRIDE = 4  # pixels per feature-map cell along each axis


@dataclass(frozen=True)
class BackboneConfig:
    widths: Tuple[int, int, int] = (32, 64, 64)
    d: int = 64
    n_dec: int = 2
    k: int = 4
    variant: str = "kmeans"

    def validate(self) -> None:
        if any(w <= 0 for w in self.widths):
            raise ContractError(f"widths must be positive: {self.widths}")
        if self.n_dec < 1:
            raise ContractError(f"n_dec {self.n_dec} must be >= 1")
        if self.k < 1:
            raise ContractError(f"cluster count {self.k} must be >= 1")
        if self.variant not in ("kmeans", "standard"):
            raise ContractError(f"unknown attention variant {self.variant!r}")


def normal_param(gen: SplitMix64, shape: Tuple[int, ...], std: float) -> Tensor:
    n = int(np.prod(shape))
    return parameter(gen.normals(n).reshape(shape) * std)


class Conv3x3:
    def __init__(self, gen: SplitMix64, cin: int, cout: int, stride: int = 1,
                 std: float = None):
        self.stride = stride
        if std is None:
            std = math.sqrt(2.0 / (cin * 9))
        self.weight = normal_param(gen, (cout, cin, 3, 3), std)
        self.bias = parameter(np.zeros(cout))

    def __call__(self, x: Tensor) -> Tensor:
        return x.conv2d(self.weight, self.bias, stride=self.stride)

    def params(self, prefix: str) -> Dict[str, Tensor]:
        return {f"{prefix}.w": self.weight, f"{prefix}.b": self.bias}


class Residual:
    """conv-relu-conv with an additive shortcut, relu after the join.
    The shortcut is identity when shape allows, else a strided 3x3 projection."""

    def __init__(self, gen: SplitMix64, cin: int, cout: int, stride: int = 1):
        self.conv1 = Conv3x3(gen, cin, cout, stride)
        self.conv2 = Conv3x3(gen, cout, cout, 1)
        self.proj = None
        if stride != 1 or cin != cout:
            self.proj = Conv3x3(gen, cin, cout, stride)

    def __call__(self, x: Tensor) -> Tensor:
        y = self.conv2(self.conv1(x).relu())
        s = x if self.proj is None else self.proj(x)
        return (y + s).relu()

    def params(self, prefix: str) -> Dict[str, Tensor]:
        out = {}
        out.update(self.conv1.params(f"{prefix}.c1"))
        out.update(self.conv2.params(f"{prefix}.c2"))
        if self.proj is not None:
            out.update(self.proj.params(f"{prefix}.proj"))
        return out


class Encoder:
    def __init__(self, gen: SplitMix64, cfg: BackboneConfig):
        w0, w1, w2 = cfg.widths
        self.stem1 = Conv3x3(gen, 3, w0, 2)
        self.stem2 = Conv3x3(gen, w0, w0, 2)
        self.stage1 = Residual(gen, w0, w1, 2)
        self.stage2 = Residual(gen, w1, w2, 1)
        self.skip = Conv3x3(gen, w0, w2, 1)
        self.refine = Residual(gen, w2, w2, 1)
        # small init so the embedding-vs-query bilinear form starts near zero
        # and the cluster softmax opens up uniform instead of saturated
        self.out = Conv3x3(gen, w2, cfg.d, 1, std=0.01)

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

    def params(self) -> Dict[str, Tensor]:
        out = {}
        out.update(self.stem1.params("enc/stem1"))
        out.update(self.stem2.params("enc/stem2"))
        out.update(self.stage1.params("enc/stage1"))
        out.update(self.stage2.params("enc/stage2"))
        out.update(self.skip.params("enc/skip"))
        out.update(self.refine.params("enc/refine"))
        out.update(self.out.params("enc/out"))
        return out


class Linear:
    def __init__(self, gen: SplitMix64, fan_in: int, fan_out: int, std: float = None):
        if std is None:
            std = math.sqrt(2.0 / fan_in)
        self.weight = normal_param(gen, (fan_in, fan_out), std)
        self.bias = parameter(np.zeros(fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return bias_add(x.matmul(self.weight), self.bias)

    def params(self, prefix: str) -> Dict[str, Tensor]:
        return {f"{prefix}.w": self.weight, f"{prefix}.b": self.bias}


class LayerNorm:
    def __init__(self, d: int):
        self.gamma = parameter(np.ones(d))
        self.beta = parameter(np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return x.layernorm(self.gamma, self.beta)

    def params(self, prefix: str) -> Dict[str, Tensor]:
        return {f"{prefix}.g": self.gamma, f"{prefix}.b": self.beta}


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
    def __init__(self, gen: SplitMix64, d: int, variant: str):
        self.variant = variant
        self.d = d
        self.ln1 = LayerNorm(d)
        self.ln2 = LayerNorm(d)
        self.ln3 = LayerNorm(d)
        self.ffn1 = Linear(gen, d, 2 * d)
        self.ffn2 = Linear(gen, 2 * d, d, std=math.sqrt(1.0 / (2 * d)))

    def __call__(self, q: Tensor, f: Tensor) -> Tensor:
        if q.shape[1] < 1:
            raise ContractError("decoder block needs K >= 1 queries")
        read = kmeans_read(q, f) if self.variant == "kmeans" else standard_read(q, f)
        q = self.ln1(q + read)
        attn = (q.matmul(q.transpose_last2()) * (1.0 / math.sqrt(self.d))).softmax(axis=-1)
        q = self.ln2(q + attn.matmul(q))
        q = self.ln3(q + self.ffn2(self.ffn1(q).gelu()))
        return q

    def params(self, prefix: str) -> Dict[str, Tensor]:
        out = {}
        out.update(self.ln1.params(f"{prefix}.ln1"))
        out.update(self.ln2.params(f"{prefix}.ln2"))
        out.update(self.ln3.params(f"{prefix}.ln3"))
        out.update(self.ffn1.params(f"{prefix}.ffn1"))
        out.update(self.ffn2.params(f"{prefix}.ffn2"))
        return out


class Backbone:
    """Full image-to-(F, Q) stack: encoder, query table, decoder blocks."""

    def __init__(self, cfg: BackboneConfig, gen: SplitMix64):
        cfg.validate()
        self.cfg = cfg
        self.encoder = Encoder(gen, cfg)
        self.queries = normal_param(gen, (cfg.k, cfg.d), 0.02)
        self.blocks = [DecoderBlock(gen, cfg.d, cfg.variant) for _ in range(cfg.n_dec)]

    def __call__(self, images: Tensor) -> Tuple[Tensor, Tensor, Tuple[int, int]]:
        f, grid = self.encoder.rows(images)
        q = self.queries.expand_leading(f.shape[0])
        for block in self.blocks:
            q = block(q, f)
        return f, q, grid

    def params(self) -> Dict[str, Tensor]:
        out = self.encoder.params()
        out["dec/queries"] = self.queries
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"dec/block{i}"))
        return out
