"""Evaluation metrics, pooled over all pixels of a split.

All computation is 64-bit numpy on plain arrays (no graphs).  Inlier
comparisons are strict less-than; the median of an even count takes the
lower of the two middles; classes absent from both prediction and ground
truth are excluded from mIoU.  Accumulation pools pixels across the whole
dataset rather than averaging per image.  Normals are scored as (3, N)
component planes, so each norm and dot product is three whole-array
multiplies and adds rather than a reduction over rows of length 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import ContractError
from .formats import IGNORE_LABEL

DEPTH_DELTA_BASE = 1.25
NORMAL_DEGREES = (11.5, 22.5, 30.0)

METRIC_KEYS = {
    "seg": ("miou",),
    "depth": ("rms", "a_rel", "log10", "delta1", "delta2", "delta3"),
    "normal": ("mean_deg", "median_deg", "rms_deg", "inlier_11", "inlier_22", "inlier_30"),
}

# (key, higher is better) used for best-checkpoint selection and ablations
PRIMARY_METRIC = {
    "seg": ("miou", True),
    "depth": ("delta1", True),
    "normal": ("mean_deg", False),
}


@dataclass(frozen=True)
class MetricReport:
    """Pooled scores of a split; a missing key or unordered depth deltas raise ContractError."""
    task: str
    metrics: Dict[str, float]
    pixels: int

    def __post_init__(self) -> None:
        missing = [k for k in METRIC_KEYS[self.task] if k not in self.metrics]
        if missing:
            raise ContractError(f"{self.task} report missing keys {missing}")
        if self.task == "depth":
            d1, d2, d3 = (self.metrics[f"delta{i}"] for i in (1, 2, 3))
            if not (d1 <= d2 <= d3):
                raise ContractError("delta inliers must be monotone")

    def to_json(self) -> str:
        payload = {"task": self.task, "pixels": self.pixels}
        payload.update({k: self.metrics[k] for k in METRIC_KEYS[self.task]})
        return json.dumps(payload, sort_keys=True)

    def primary(self) -> float:
        return self.metrics[PRIMARY_METRIC[self.task][0]]


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, classes: int) -> np.ndarray:
    """(classes, classes) counts, ground truth by row, over the pixels whose
    label is not ``IGNORE_LABEL``; any other label or prediction outside
    [0, classes) raises ContractError."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    valid = gt != IGNORE_LABEL
    g, p = gt[valid].astype(np.int64), pred[valid].astype(np.int64)
    for name, ids in (("label", g), ("prediction", p)):
        if ids.size and (ids.min() < 0 or ids.max() >= classes):
            raise ContractError(f"{name} ids span {ids.min()}..{ids.max()}, "
                                f"outside the {classes} classes")
    return np.bincount(g * classes + p, minlength=classes * classes).reshape(classes, classes)


def miou(pred: np.ndarray, gt: np.ndarray, classes: int) -> Tuple[np.ndarray, float]:
    """Per-class IoU (nan where the class is absent from both) and their mean."""
    con = confusion_matrix(pred, gt, classes).astype(np.float64)
    tp = np.diag(con)
    union = con.sum(axis=0) + con.sum(axis=1) - tp
    iou = np.where(union > 0, tp / np.where(union > 0, union, 1.0), np.nan)
    return iou, float(np.nanmean(iou))


def _selection(mask: np.ndarray, pixels: int, task: str) -> np.ndarray:
    """The mask as flat bools; an empty mask or one of another size raises."""
    sel = np.asarray(mask, dtype=bool).reshape(-1)
    if not sel.any():
        raise ContractError(f"{task} metrics: empty mask")
    if sel.size != pixels:
        raise ContractError(f"mask covers {sel.size} pixels, predictions {pixels}")
    return sel


def depth_metrics(d_pred: np.ndarray, d_gt: np.ndarray, mask: np.ndarray) -> Dict[str, float]:
    d = np.asarray(d_pred, dtype=np.float64).reshape(-1)
    g = np.asarray(d_gt, dtype=np.float64).reshape(-1)
    sel = _selection(mask, d.size, "depth")
    if not sel.all():
        d, g = d[sel], g[sel]
    diff = d - g
    ratio = np.maximum(d / g, g / d)
    out = {
        "rms": float(np.sqrt((diff ** 2).mean())),
        "a_rel": float((np.abs(diff) / g).mean()),
        "log10": float(np.abs(np.log10(d) - np.log10(g)).mean()),
    }
    for i in (1, 2, 3):
        out[f"delta{i}"] = float((ratio < DEPTH_DELTA_BASE ** i).mean())
    return out


def _lower_median(values: np.ndarray) -> float:
    k = (values.size - 1) // 2
    return float(np.partition(values, k)[k])


def _planes(n: np.ndarray) -> np.ndarray:
    """(..., 3) vectors as contiguous (3, N) float64 component planes."""
    return np.asarray(n).reshape(-1, 3).T.astype(np.float64, order="C")


def _normalize(v: np.ndarray) -> None:
    """Divide (3, N) planes in place by their column norms, floored at 1e-12."""
    norm = v[0] * v[0]
    norm += v[1] * v[1]
    norm += v[2] * v[2]
    np.sqrt(norm, out=norm)
    v /= np.maximum(norm, 1e-12, out=norm)


def _angles(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-column angle in degrees between (3, N) planes, after defensive
    renormalization; overwrites p and g.  Every three-term sum adds
    (x + y) + z, the order in which numpy reduces a length-3 row, so the
    result has the same bits as the row form."""
    _normalize(p)
    _normalize(g)
    dot = p[0] * g[0]
    dot += p[1] * g[1]
    dot += p[2] * g[2]
    np.clip(dot, -1.0, 1.0, out=dot)
    np.arccos(dot, out=dot)
    return np.degrees(dot, out=dot)


def angular_error_deg(n_pred: np.ndarray, n_gt: np.ndarray) -> np.ndarray:
    """Per-pixel angle in degrees after defensive renormalization."""
    return _angles(_planes(n_pred), _planes(n_gt))


def normal_metrics(n_pred: np.ndarray, n_gt: np.ndarray, mask: np.ndarray) -> Dict[str, float]:
    p, g = _planes(n_pred), _planes(n_gt)
    sel = _selection(mask, p.shape[1], "normal")
    if not sel.all():
        p, g = p[:, sel], g[:, sel]
    theta = _angles(p, g)
    out = {
        "mean_deg": float(theta.mean()),
        "median_deg": _lower_median(theta),
        "rms_deg": float(np.sqrt((theta ** 2).mean())),
    }
    for deg, key in zip(NORMAL_DEGREES, ("inlier_11", "inlier_22", "inlier_30")):
        out[key] = float((theta < deg).mean())
    return out

