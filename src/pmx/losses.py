"""Training objectives, composed from graph ops so gradients flow.

Masks are numpy float arrays of 0/1 over pixels.  Every loss that averages
over a mask raises ContractError when the mask is empty, except the two the
contract defines as error-free (charbonnier, multiscale gradient), which
contribute 0 instead.  The synthetic generator never emits invalid pixels,
but the machinery mirrors real datasets where it matters.

Depth losses take predictions as (B, N) rows at full resolution; normals as
(B, N, 3); segmentation as (..., C) logits, one row of C per pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import ContractError, ShapeError
from .formats import IGNORE_LABEL
from .tensor import Tensor, one_hot


@dataclass(frozen=True)
class LossConfig:
    silog_lambda: float = 0.5
    grad_scales: int = 4
    depth_weights: Tuple[float, float, float] = (1.0, 1.0, 1.0)  # silog, rel_sq, grad

    def __post_init__(self) -> None:
        if not 0.0 <= self.silog_lambda <= 1.0:
            raise ContractError(f"silog lambda {self.silog_lambda} outside [0,1]")
        if self.grad_scales < 1:
            raise ContractError("gradient loss needs at least one scale")
        if len(self.depth_weights) != 3 or min(self.depth_weights) < 0.0:
            raise ContractError(f"depth weights {self.depth_weights} must be three non-negative numbers")


def _safe_gt(gt: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # keep logs/divisions finite on masked-out pixels
    return np.where(mask > 0, gt, 1.0)


def silog(d_pred: Tensor, d_gt: np.ndarray, mask: np.ndarray, lam: float = 0.5) -> Tensor:
    """mean(g^2) - lam (mean g)^2 with g the masked log residual."""
    n = float(np.asarray(mask, dtype=np.float64).sum())
    if n == 0:
        raise ContractError("silog: empty mask")
    g = (d_pred.log() - Tensor(np.log(_safe_gt(d_gt, mask)))) * Tensor(mask)
    m1 = g.sum() * (1.0 / n)
    m2 = (g * g).sum() * (1.0 / n)
    return m2 - m1 * m1 * lam


def rel_sq(d_pred: Tensor, d_gt: np.ndarray, mask: np.ndarray) -> Tensor:
    """mean of ((d - d*)/d*)^2 over the mask."""
    n = float(np.asarray(mask, dtype=np.float64).sum())
    if n == 0:
        raise ContractError("rel_sq: empty mask")
    r = (d_pred - Tensor(d_gt)) * Tensor(mask) / Tensor(_safe_gt(d_gt, mask))
    return (r * r).sum() * (1.0 / n)


def charbonnier(d_pred: Tensor, d_gt: np.ndarray, mask: np.ndarray, eps: float = 1e-3) -> Tensor:
    """mean of sqrt(diff^2 + eps^2) - eps over the mask; 0 on an empty mask."""
    n = float(np.asarray(mask, dtype=np.float64).sum())
    if n == 0:
        return Tensor(0.0)
    diff = (d_pred - Tensor(d_gt)) * Tensor(mask)
    v = (diff * diff + eps * eps).sqrt() - eps
    return (v * Tensor(mask)).sum() * (1.0 / n)


def multiscale_grad(
    d_pred: Tensor,
    d_gt: np.ndarray,
    mask: np.ndarray,
    hw: Tuple[int, int],
    n_scales: int = 4,
) -> Tensor:
    """Sum over scales of mean |forward x-diff| + mean |forward y-diff| of the
    log residual, each scale average-pooled by 2^s.

    A pooled cell is valid only when all constituent pixels are valid, and a
    finite difference only counts when both cells are valid.  Scales with no
    valid pairs contribute 0.  H and W must divide by 2^(n_scales-1).
    """
    h, w = hw
    bsz = d_pred.shape[0]
    r = (d_pred.log() - Tensor(np.log(_safe_gt(d_gt, mask)))) * Tensor(mask)
    r = r.reshape(bsz, 1, h, w)
    m = np.asarray(mask, dtype=np.float64).reshape(bsz, 1, h, w)
    total = Tensor(0.0)
    rs = r
    for s in range(n_scales):
        if s > 0:
            # nested 2x pooling equals direct 2^s pooling for non-overlapping means
            rs = rs.avg_pool2d(2)
            hs, ws = rs.shape[2], rs.shape[3]
            ms = m.reshape(bsz, 1, hs, 2, ws, 2).mean(axis=(3, 5))
            m = np.where(ms >= 1.0 - 1e-9, 1.0, 0.0)
        valid = m
        for axis in (3, 2):
            size = rs.shape[axis]
            if size < 2:
                continue
            a = rs.narrow(axis, 1, size - 1)
            b = rs.narrow(axis, 0, size - 1)
            pair = np.take(valid, range(1, size), axis=axis) * np.take(valid, range(0, size - 1), axis=axis)
            pairs = float(pair.sum())
            if pairs == 0:
                continue
            total = total + ((a - b).abs() * Tensor(pair)).sum() * (1.0 / pairs)
    return total


def normal_l2(n_pred: Tensor, n_gt: np.ndarray, mask: np.ndarray) -> Tensor:
    """mean over the mask of the squared L2 distance between normals.

    n_pred (B, N, 3); mask (B, N).  Equals 2 - 2 cos(theta) on unit inputs.
    """
    n = float(np.asarray(mask, dtype=np.float64).sum())
    if n == 0:
        raise ContractError("normal_l2: empty mask")
    m3 = np.repeat(np.asarray(mask, dtype=np.float64)[..., None], 3, axis=-1)
    diff = (n_pred - Tensor(n_gt)) * Tensor(m3)
    per_pixel = (diff * diff).sum(axis=-1)
    return per_pixel.sum() * (1.0 / n)


def seg_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """mean over the pixels not labeled IGNORE_LABEL of -log softmax(logits)[label].

    logits (..., C); labels ints, one per row of C logits, in any shape of
    that many entries.
    """
    labels = np.asarray(labels)
    if labels.size * logits.shape[-1] != logits.data.size:
        raise ShapeError(f"cross entropy: {labels.size} labels for logits {logits.shape}")
    labels = labels.reshape(logits.shape[:-1])
    valid = labels != IGNORE_LABEL
    n = float(valid.sum())
    if n == 0:
        raise ContractError("cross entropy: every pixel is ignored")
    hot = one_hot(np.where(valid, labels, 0), logits.shape[-1]).data
    # -1 at each counted pixel's label and 0 elsewhere, so a row's sum is its NLL
    pick = Tensor(hot * np.where(valid, -1.0, 0.0).astype(hot.dtype)[..., None])
    nll = (logits.log_softmax() * pick).sum(axis=-1)
    return nll.sum() * (1.0 / n)


def total_loss(task: str, prediction, sample_arrays: Dict[str, np.ndarray],
               cfg: LossConfig, hw: Tuple[int, int]):
    """Per-task objective with a breakdown dict of float term values.

    seg: prediction is (..., C) logits, targets 'labels' with one per row.
    depth: prediction is (B, N) meters, targets 'depth' (B, N) + 'mask'.
    normal: prediction is (B, N, 3), targets 'normal' (B, N, 3) + 'mask'.
    """
    if task == "seg":
        loss = seg_cross_entropy(prediction, sample_arrays["labels"])
        return loss, {"ce": float(loss.data)}
    if task == "depth":
        gt = sample_arrays["depth"]
        mask = sample_arrays["mask"]
        ws, wr, wg = cfg.depth_weights
        t_si = silog(prediction, gt, mask, cfg.silog_lambda)
        t_rel = rel_sq(prediction, gt, mask)
        t_grad = multiscale_grad(prediction, gt, mask, hw, cfg.grad_scales)
        loss = t_si * ws + t_rel * wr + t_grad * wg
        return loss, {
            "silog": float(t_si.data),
            "rel_sq": float(t_rel.data),
            "grad": float(t_grad.data),
        }
    if task == "normal":
        loss = normal_l2(prediction, sample_arrays["normal"], sample_arrays["mask"])
        return loss, {"l2": float(loss.data)}
    raise ContractError(f"unknown task {task!r}")
