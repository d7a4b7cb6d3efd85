"""Task models: backbone plus head, with checkpoint round-tripping.

Two head families share the same convolutional encoder-decoder:

  cluster   the full stack: transformer decoder produces cluster centers Q,
            the task reads the shared probability map P = softmax(F Q^T)
            (class identities / bin centers / sphere segments).
  baseline  per-pixel regression: one linear map straight from F, no
            queries, no clusters.

The network's sizes are the constants ``D``, ``N_DEC`` and ``WIDTHS``; the
cluster count K is the one size a run chooses.  Checkpoints store every
parameter under its name, the model config under ``meta/`` entries, and
(when given) optimizer state under ``opt/`` and the training settings a
resume must share under ``train/``, so a file alone reconstructs the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import formats, heads
from .backbone import Backbone, Encoder, Params
from .errors import ContractError
from .rng import SplitMix64, mix_seed_index
from .tensor import Tensor, no_grad

TASKS = ("seg", "depth", "normal")
VARIANTS = ("kmeans", "standard")
HEAD_KINDS = ("cluster", "baseline")
PRED_KEY = {"seg": "logits", "depth": "depth", "normal": "normal"}
D = 64                    # embedding width of F and Q
N_DEC = 2                 # transformer decoder blocks
WIDTHS = (32, 64, 64)     # encoder stem, stage1 and stage2 channels


@dataclass(frozen=True)
class ModelConfig:
    task: str
    k: int = 4
    variant: str = "kmeans"
    head: str = "cluster"
    classes: int = 4
    d_min: float = 0.5
    d_max: float = 10.0

    def __post_init__(self) -> None:
        for name, value, choices in (("task", self.task, TASKS),
                                     ("head kind", self.head, HEAD_KINDS),
                                     ("attention variant", self.variant, VARIANTS)):
            if value not in choices:
                raise ContractError(f"unknown {name} {value!r}")
        if self.task == "seg" and self.head == "cluster" and self.k != self.classes:
            raise ContractError(
                f"segmentation requires K = C (one query per class): K={self.k}, C={self.classes}")
        if min(self.k, self.classes) < 1:
            raise ContractError(f"K={self.k} and C={self.classes} must be >= 1")
        if max(self.k, self.classes) > formats.F32_EXACT_MAX:
            raise ContractError(f"K={self.k} and C={self.classes} must be <= {formats.F32_EXACT_MAX}")
        if not formats.f32_depth_range(self.d_min, self.d_max):
            raise ContractError(f"depth range [{self.d_min}, {self.d_max}] invalid")


def _modules(cfg: ModelConfig, p: Params, hp: Params):
    """The trunk (a Backbone, or an Encoder for the baseline head) with its
    parameters made through p, and the head (None for seg clusters) with
    its parameters made through hp; both record into one dict."""
    if cfg.head == "baseline":
        return (Encoder(p.sub("enc/"), WIDTHS, D),
                heads.BaselineHead(hp.sub("head/baseline."), D, cfg.task, cfg.classes,
                                   cfg.d_min, cfg.d_max))
    trunk = Backbone(p, WIDTHS, D, N_DEC, cfg.k, cfg.variant)
    if cfg.task == "depth":
        return trunk, heads.BinsHead(hp.sub("head/bins."), D)
    if cfg.task == "normal":
        return trunk, heads.NormalHead(hp.sub("head/normal."), D)
    return trunk, None


class Model:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        p = Params(SplitMix64(seed))
        hp = Params(SplitMix64(mix_seed_index(seed, 0x6EAD)), p.made)
        self.trunk, self.head = _modules(cfg, p, hp)
        self.cfg, self._params = cfg, p.made

    # ---- forward ---------------------------------------------------------

    def _features(self, images: Tensor):
        if self.cfg.head == "cluster":
            return self.trunk(images)
        f, grid = self.trunk(images)
        return f, None, grid

    def train_outputs(self, images: Tensor) -> Dict[str, Tensor]:
        """The graph tensor the loss consumes, at full resolution, under its
        task's ``PRED_KEY``:

        seg    'logits': (B, HW, C) upsampled raw logits
        depth  'depth':  (B, HW) meters
        normal 'normal': (B, HW, 3) unit rows

        The cluster heads compose depth and normals on the feature grid and
        upsample only the composed channels (see ``pmx.heads``).
        """
        cfg = self.cfg
        key = PRED_KEY[cfg.task]
        f, q, grid = self._features(images)
        if cfg.head == "baseline":
            return {key: self.head(f, grid)}
        if cfg.task == "seg":
            return {key: heads.upsample_rows(f.matmul(q.transpose_last2()), grid)}
        p = heads.probability_map(f, q)
        if cfg.task == "depth":
            b, _ = self.head(q, cfg.d_min, cfg.d_max)
            return {key: heads.depth_compose(p, b, grid)}
        return {key: heads.normal_compose(p, self.head(q), grid)[0]}

    def predict(self, images: Tensor) -> np.ndarray:
        """Numpy predictions, no graph.  seg: (B, H, W) class ids, the argmax
        of the upsampled probability map (cluster head, K = C; ties go to the
        lowest index) or of the upsampled logits (baseline); depth: (B, H, W)
        meters; normal: (B, H, W, 3) unit vectors."""
        if self.cfg.task == "seg" and self.cfg.head == "cluster":
            return self.probability_panels(images).argmax(axis=1)
        bsz, _, h, w = images.shape
        with no_grad():
            out = self.train_outputs(images)[PRED_KEY[self.cfg.task]].data
        if self.cfg.task == "seg":
            out = out.argmax(axis=-1)
        return out.reshape(bsz, h, w, *out.shape[2:])

    def probability_panels(self, images: Tensor) -> np.ndarray:
        """The upsampled probability map as (B, K, H, W) numpy, one panel per
        cluster (cluster head only).  Each pixel's K values sum to 1 up to
        float rounding, since the bilinear weights are row-stochastic."""
        if self.cfg.head != "cluster":
            raise ContractError("baseline head has no probability map")
        bsz, _, h, w = images.shape
        with no_grad():
            f, q, grid = self._features(images)
            planes = heads.upsample_planes(heads.probability_map(f, q), grid)
        return planes.data.reshape(bsz, self.cfg.k, h, w)

    def bin_centers(self, images: Tensor) -> np.ndarray:
        if not isinstance(self.head, heads.BinsHead):
            raise ContractError("model has no depth-bin head")
        with no_grad():
            _, q, _ = self._features(images)
            b, _ = self.head(q, self.cfg.d_min, self.cfg.d_max)
        return b.data

    # ---- parameters ------------------------------------------------------------

    def params(self) -> Dict[str, Tensor]:
        """Every parameter under its checkpoint name, in creation order."""
        return self._params


# ---- checkpoint glue ------------------------------------------------------------

def _meta_tensors(cfg: ModelConfig) -> Dict[str, np.ndarray]:
    return {
        "meta/task": np.float32(TASKS.index(cfg.task)),
        "meta/head": np.float32(HEAD_KINDS.index(cfg.head)),
        "meta/variant": np.float32(VARIANTS.index(cfg.variant)),
        "meta/k": np.float32(cfg.k),
        "meta/classes": np.float32(cfg.classes),
        "meta/drange": np.asarray([cfg.d_min, cfg.d_max], dtype=np.float32),
    }


def _values(tensors: Dict[str, np.ndarray], key: str, n: int) -> List[float]:
    arr = np.asarray(tensors[key]).reshape(-1)
    if arr.size != n:
        raise ContractError(f"checkpoint {key} holds {arr.size} values, expected {n}")
    return [float(v) for v in arr]


def _whole(tensors: Dict[str, np.ndarray], key: str, lo: int, hi: int) -> int:
    value = _values(tensors, key, 1)[0]
    if not (value.is_integer() and lo <= value <= hi):
        raise ContractError(f"checkpoint {key} = {value:g} is not a whole number in {lo}..{hi}")
    return int(value)


def config_from_meta(tensors: Dict[str, np.ndarray]) -> ModelConfig:
    """The ModelConfig a checkpoint's ``meta/`` entries describe; any missing
    or malformed entry raises ContractError.  The ``meta/d``, ``meta/n_dec``
    and ``meta/widths`` entries that older files hold are not read: the
    sizes are constants, and a parameter of another size fails its shape
    check in ``Params``."""
    try:
        d_min, d_max = _values(tensors, "meta/drange", 2)
        return ModelConfig(
            task=TASKS[_whole(tensors, "meta/task", 0, len(TASKS) - 1)],
            head=HEAD_KINDS[_whole(tensors, "meta/head", 0, len(HEAD_KINDS) - 1)],
            variant=VARIANTS[_whole(tensors, "meta/variant", 0, len(VARIANTS) - 1)],
            k=_whole(tensors, "meta/k", 1, formats.F32_EXACT_MAX),
            classes=_whole(tensors, "meta/classes", 1, formats.F32_EXACT_MAX),
            d_min=d_min,
            d_max=d_max,
        )
    except KeyError as exc:
        raise ContractError(f"checkpoint lacks model metadata: {exc}") from exc


def stored_config(cfg: ModelConfig) -> ModelConfig:
    """``cfg`` as a checkpoint stores and reloads it (the depth range in
    float32), to compare with a loaded model's config."""
    return config_from_meta(_meta_tensors(cfg))


def _run_tensors(run: Dict[str, Sequence[float]]) -> Dict[str, np.ndarray]:
    return {f"train/{n}": np.asarray(v, dtype=np.float32).reshape(-1) for n, v in run.items()}


def _run_values(tensors: Dict[str, np.ndarray]) -> Dict[str, List[float]]:
    return {n[len("train/"):]: [float(v) for v in np.asarray(a).reshape(-1)]
            for n, a in tensors.items() if n.startswith("train/")}


def stored_run(run: Dict[str, Sequence[float]]) -> Dict[str, List[float]]:
    """Training settings as a checkpoint stores and reloads them (float32
    values), to compare with those ``load_checkpoint`` returns."""
    return _run_values(_run_tensors(run))


def save_model(path: str, model: Model, opt_state: Dict[str, np.ndarray] = None,
               run: Dict[str, Sequence[float]] = None) -> None:
    """Write the parameters and ``meta/`` entries, plus optimizer state under
    ``opt/`` and named training settings under ``train/`` when given."""
    tensors: Dict[str, np.ndarray] = {n: p.data for n, p in model.params().items()}
    tensors.update(_meta_tensors(model.cfg))
    for name, arr in (opt_state or {}).items():
        tensors[f"opt/{name}"] = arr
    tensors.update(_run_tensors(run or {}))
    formats.write_checkpoint(path, tensors)


def load_checkpoint(path: str) -> Tuple[Model, Dict[str, np.ndarray], Dict[str, List[float]]]:
    """Rebuild a model from a checkpoint; returns it, its opt/ state and its
    train/ settings (either may be empty).  Each parameter takes its
    checkpoint entry as read: no weight is drawn or copied.  A missing or
    misshapen parameter, or an entry outside meta/, opt/ and train/ that no
    parameter takes, raises ContractError before any Model exists."""
    tensors = formats.read_checkpoint(path)
    cfg = config_from_meta(tensors)
    stored = Params(tensors)
    modules = _modules(cfg, stored, stored)
    for name in tensors:
        if name not in stored.made and not name.startswith(("meta/", "opt/", "train/")):
            raise ContractError(f"checkpoint entry {name} is not a parameter of a "
                                f"{cfg.task}/{cfg.head} model")
    model = Model.__new__(Model)
    model.trunk, model.head = modules
    model.cfg, model._params = cfg, stored.made
    opt = {n[4:]: a for n, a in tensors.items() if n.startswith("opt/")}
    return model, opt, _run_values(tensors)


def load_model(path: str) -> Tuple[Model, Dict[str, np.ndarray]]:
    """Rebuild a model from a checkpoint; returns it plus any opt/ state."""
    model, opt, _ = load_checkpoint(path)
    return model, opt
