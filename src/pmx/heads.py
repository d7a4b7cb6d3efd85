"""Cluster-prediction heads over a shared probability map.

All three dense tasks read the same per-pixel distribution over K clusters,

    P = softmax over K of (F Q^T),

and differ only in what each cluster stands for: a fixed class identity
(segmentation, K = C), a learned depth bin center (depth), or a learned
unit direction on the sphere (normals).  Continuous outputs are the
P-weighted linear combination of the cluster values.

P lives on the feature grid (stride 4).  Depth and normals compose there,
and only the composed channels are bilinearly upsampled 4x:

    depth   U(P) b = U(P b)
    normal  unit(U(P) v) = unit(U(P v))

Both hold because U acts on pixels and the composition on clusters, and
both are linear.  U's weights (0.25, 0.75, 1.0) are row-stochastic, so
depth stays a convex combination of bin centers.  No K-channel
full-resolution P is built for training, and the unit step comes after
the upsample.  Segmentation trains on the upsampled raw logits instead
(softmax order does not change the argmax, and cross-entropy wants
logits).

A per-pixel regression baseline head (one linear map from F, no clusters)
is included for comparison runs.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .backbone import Linear, Params
from .errors import ContractError, ShapeError
from .tensor import Tensor


def probability_map(f: Tensor, q: Tensor) -> Tensor:
    """softmax over K of F Q^T; accepts (N,D)/(K,D) or batched (B,N,D)/(B,K,D)."""
    if f.shape[-1] != q.shape[-1]:
        raise ShapeError(f"embedding dims differ: F {f.shape} vs Q {q.shape}")
    if f.ndim != q.ndim:
        raise ShapeError(f"F {f.shape} and Q {q.shape} must both be batched or both flat")
    return f.matmul(q.transpose_last2()).softmax(axis=-1)


def upsample_planes(rows: Tensor, grid: Tuple[int, int]) -> Tensor:
    """(B, h4*w4, C) row maps to (B, C, 16*h4*w4) channel planes by two
    bilinear doublings."""
    b, n, c = rows.shape
    h4, w4 = grid
    if n != h4 * w4:
        raise ShapeError(f"{n} rows do not tile a {h4}x{w4} grid")
    x = rows.transpose_last2().reshape(b, c, h4, w4)
    x = x.bilinear_upsample2x().bilinear_upsample2x()
    return x.reshape(b, c, 16 * h4 * w4)


def upsample_rows(rows: Tensor, grid: Tuple[int, int]) -> Tensor:
    """(B, h4*w4, C) row maps to (B, 16*h4*w4, C) rows by two bilinear doublings."""
    return upsample_planes(rows, grid).transpose_last2()


def seg_predict(p: Tensor, classes: int) -> np.ndarray:
    """Per-pixel argmax class; ties go to the lowest index.  K must equal C."""
    if p.shape[-1] != classes:
        raise ContractError(f"segmentation needs K = C: K={p.shape[-1]}, C={classes}")
    return p.data.argmax(axis=-1)


def bins_from_logits(logits: Tensor, d_min: float, d_max: float) -> Tuple[Tensor, Tensor]:
    """Adaptive bin centers from per-query scalars.

    Widths are the softmax of the logits scaled to the depth range, and
    center i sits at d_min + cumulative width up to i minus half its own
    width.  Centers are therefore strictly increasing and strictly inside
    (d_min, d_max) for any finite logits.
    """
    if not d_min < d_max:
        raise ContractError(f"depth range [{d_min}, {d_max}] invalid")
    w = logits.softmax(axis=-1) * (d_max - d_min)
    b = w.cumsum_last() - w * 0.5 + d_min
    return b, w


class BinsHead:
    """Two-layer MLP from each cluster center to a bin logit."""

    def __init__(self, p: Params, d: int):
        self.fc1 = Linear(p.sub("fc1."), d, d)
        self.fc2 = Linear(p.sub("fc2."), d, 1, std=math.sqrt(1.0 / d))

    def __call__(self, q: Tensor, d_min: float, d_max: float) -> Tuple[Tensor, Tensor]:
        logits = self.fc2(self.fc1(q).gelu())        # (B, K, 1)
        logits = logits.reshape(q.shape[0], q.shape[1])
        return bins_from_logits(logits, d_min, d_max)


def depth_compose(p: Tensor, b: Tensor, grid: Tuple[int, int]) -> Tensor:
    """d(pixel) = sum_i P(pixel, i) b_i: a convex combination of bin centers.

    p is the (B, h4*w4, K) map on the ``grid = (h4, w4)`` feature grid and b
    is (B, K); returns the upsampled depth, (B, 16*h4*w4).
    """
    if p.shape[-1] != b.shape[-1] or p.shape[0] != b.shape[0]:
        raise ShapeError(f"probability map {p.shape} vs bins {b.shape}")
    bk = b.reshape(b.shape[0], b.shape[1], 1)
    d = upsample_planes(p.matmul(bk), grid)               # (B, 1, HW)
    return d.reshape(d.shape[0], d.shape[2])


class NormalHead:
    """Two-layer MLP from each cluster center to a unit sphere-segment vector."""

    def __init__(self, p: Params, d: int):
        self.fc1 = Linear(p.sub("fc1."), d, d)
        self.fc2 = Linear(p.sub("fc2."), d, 3, std=math.sqrt(1.0 / d))

    def __call__(self, q: Tensor) -> Tensor:
        raw = self.fc2(self.fc1(q).gelu())           # (B, K, 3)
        return _unit(raw, axis=-1)


def _unit(v: Tensor, axis: int) -> Tensor:
    """v scaled to unit length along ``axis`` (norms clamped at 1e-8)."""
    norm = (v * v).sum(axis=axis, keepdims=True).sqrt().clamp_min(1e-8)
    return v / norm.expand_axis(axis, v.shape[axis])


def normal_compose(p: Tensor, v: Tensor, grid: Tuple[int, int]) -> Tuple[Tensor, np.ndarray]:
    """P-weighted sum of segment centers, upsampled, then unit length.

    p is the (B, h4*w4, K) map on the ``grid = (h4, w4)`` feature grid and v
    is (B, K, 3).  Returns the unit normal map (B, 16*h4*w4, 3) and the
    pre-normalization norms (B, 16*h4*w4) (numpy, no gradient) as a
    degeneracy diagnostic: a norm near zero means the combination collapsed
    (e.g. equal weight on antipodal centers) and the epsilon guard decided
    the direction.

    The norm and the division run on (B, 3, HW) component planes, and only
    the unit result turns back into rows.  Summing the three squares over
    the plane axis adds them in the same order as a row sum, (x² + y²) + z²,
    so the result has the same bits as normalizing rows.
    """
    if p.shape[-1] != v.shape[1] or p.shape[0] != v.shape[0]:
        raise ShapeError(f"probability map {p.shape} vs segment centers {v.shape}")
    raw = upsample_planes(p.matmul(v), grid)
    prenorm = np.sqrt((raw.data ** 2).sum(axis=1))
    return _unit(raw, axis=1).transpose_last2(), prenorm


class BaselineHead:
    """Per-pixel regression head: one linear map (a 1x1 convolution over the
    feature rows) straight from F, upsampled to full resolution.

    seg: C logits per pixel.  depth: sigmoid squashed into (d_min, d_max).
    normal: L2-normalized 3-vector.
    """

    def __init__(self, p: Params, d: int, task: str, classes: int,
                 d_min: float = 0.0, d_max: float = 1.0):
        self.task = task
        self.d_min = d_min
        self.d_max = d_max
        out_dim = {"seg": classes, "depth": 1, "normal": 3}[task]
        self.fc = Linear(p.sub("fc."), d, out_dim, std=math.sqrt(1.0 / d))

    def __call__(self, f: Tensor, grid: Tuple[int, int]) -> Tensor:
        planes = upsample_planes(self.fc(f), grid)        # (B, C, HW)
        if self.task == "seg":
            return planes.transpose_last2()               # (B, HW, C) logits
        if self.task == "depth":
            b, _, n = planes.shape
            s = planes.reshape(b, n).sigmoid()
            return s * (self.d_max - self.d_min) + self.d_min
        return _unit(planes, axis=1).transpose_last2()    # (B, HW, 3)
