"""Training and evaluation loops.

Determinism contract: everything downstream of (dataset bytes, TrainConfig)
is reproducible.  The sample order is a pure function of (seed, step) -
concatenated per-epoch Fisher-Yates permutations keyed by the run seed and
epoch index - so resuming from a checkpoint needs only the optimizer state
and step count, not a serialized cursor.

AdamW follows the decoupled form: the weight-decay shrink
p *= 1 - lr*WEIGHT_DECAY is applied before the bias-corrected adaptive
update.  Parameters whose names start with ``enc/`` (the convolutional
encoder-decoder) take the learning rate times ENC_LR_MULT.  Besides the
learning rate its settings are constants: WEIGHT_DECAY, ENC_LR_MULT,
BETA1/BETA2 and ADAM_EPS.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .backbone import STRIDE
from .errors import ContractError, TrainingDiverged
from .losses import LossConfig, total_loss
from .metrics import (PRIMARY_METRIC, MetricReport, depth_metrics, miou,
                      normal_metrics, report_for)
from .model import (PRED_KEY, Model, ModelConfig, load_checkpoint, save_model, stored_config,
                    stored_run)
from .rng import SplitMix64, mix_seed_index
from .scene import Sample
from .tensor import Tensor

LR_PRESETS = {"pretrain": 5e-4, "finetune": 5e-5}

WEIGHT_DECAY = 0.05
ENC_LR_MULT = 0.1
BETA1, BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    task: str
    steps: int = 1000
    batch: int = 8
    lr: float = LR_PRESETS["pretrain"]
    seed: int = 0
    k: int = 4
    variant: str = "kmeans"
    head: str = "cluster"
    eval_every: int = 0          # 0: evaluate only at the end
    clip_norm: float = 10.0      # 0 disables clipping

    def validate(self) -> None:
        if self.steps < 1 or self.batch < 1:
            raise ContractError("steps and batch size must be positive")
        if not 0 <= self.lr < math.inf:
            raise ContractError(f"lr {self.lr} must be finite and nonnegative")
        if self.eval_every < 0:
            raise ContractError(f"eval_every {self.eval_every} must be >= 0 (0: only at the end)")


class AdamW:
    def __init__(self, params: Dict[str, Tensor], lr: float):
        self.params = params
        self.names = sorted(params)
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}

    def _group_lr(self, name: str) -> float:
        return self.lr * (ENC_LR_MULT if name.startswith("enc/") else 1.0)

    def zero_grad(self) -> None:
        for n in self.names:
            self.params[n].grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for n in self.names:
            p = self.params[n]
            glr = self._group_lr(n)
            p.data *= 1.0 - glr * WEIGHT_DECAY
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[n] = BETA1 * self.m[n] + (1.0 - BETA1) * g
            self.v[n] = BETA2 * self.v[n] + (1.0 - BETA2) * g * g
            mhat = self.m[n] / c1
            vhat = self.v[n] / c2
            p.data -= glr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def clip_global_norm(self, max_norm: float) -> float:
        total = 0.0
        for n in self.names:
            g = self.params[n].grad
            if g is not None:
                total += float((g.astype(np.float64) ** 2).sum())
        norm = math.sqrt(total)
        if max_norm > 0 and norm > max_norm:
            scale = max_norm / norm
            for n in self.names:
                if self.params[n].grad is not None:
                    self.params[n].grad *= scale
        return norm

    def state(self) -> Dict[str, np.ndarray]:
        out = {"step": np.float32(self.t)}
        for n in self.names:
            out[f"m/{n}"] = self.m[n]
            out[f"v/{n}"] = self.v[n]
        return out

    def load(self, state: Dict[str, np.ndarray]) -> None:
        """Continue from a saved ``state()``.  An entry that is missing or
        names no parameter, a moment not of its parameter's shape, a moment
        that is not finite, a negative second moment or a step that is not a
        whole number >= 0 raises ContractError naming it.  A moment already
        of its parameter's dtype is kept, not copied."""
        step = np.asarray(state.get("step", []), dtype=np.float64).reshape(-1)
        if step.size != 1 or not (step[0] >= 0 and float(step[0]).is_integer()):
            raise ContractError(f"checkpoint opt/step {step.tolist()} is not a whole number >= 0")
        stray = set(state) - {"step"} - {f"{key}/{n}" for key in "mv" for n in self.names}
        if stray:
            raise ContractError(f"checkpoint opt/{min(stray)} names no parameter")
        self.t = int(step[0])
        for moments, key in ((self.m, "m"), (self.v, "v")):
            for n in self.names:
                arr, p = state.get(f"{key}/{n}"), self.params[n].data
                if arr is None or arr.shape != p.shape:
                    got = "missing" if arr is None else f"shape {arr.shape}"
                    raise ContractError(f"checkpoint opt/{key}/{n}: {got}, parameter {p.shape}")
                arr = np.asarray(arr, dtype=p.dtype)
                if not np.isfinite(arr).all():
                    raise ContractError(f"checkpoint opt/{key}/{n} holds a value that is not finite")
                if key == "v" and (arr < 0).any():
                    raise ContractError(f"checkpoint opt/v/{n} holds a negative second moment")
                moments[n] = arr


# ---- deterministic sample order -------------------------------------------------


@functools.lru_cache(maxsize=2)
def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """The read-only order of range(n) in one epoch; the two latest are memoized."""
    perm = SplitMix64(mix_seed_index(seed, 0xE90C + epoch)).permutation(n)
    perm.flags.writeable = False
    return perm


def batch_indices(seed: int, n: int, batch: int, step: int) -> np.ndarray:
    """The ``batch`` entries from step * batch onward of the per-epoch
    permutations of range(n) laid end to end."""
    start, stop = step * batch, (step + 1) * batch
    return np.concatenate([epoch_permutation(seed, e, n)[max(start - e * n, 0):stop - e * n]
                           for e in range(start // n, (stop - 1) // n + 1)])


# ---- batch assembly ---------------------------------------------------------------

GT_FIELD = {"seg": "labels", "depth": "depth", "normal": "normal"}


def _batch(samples: Sequence[Sample], idx: Sequence[int],
           task: str) -> Tuple[np.ndarray, np.ndarray]:
    """The NCHW images of samples[idx] and their ground truth for task."""
    images = np.stack([samples[i].image.transpose(2, 0, 1) for i in idx])
    gt = np.stack([getattr(samples[i], GT_FIELD[task]) for i in idx])
    return images, gt


def _targets(task: str, gt: np.ndarray) -> Dict[str, np.ndarray]:
    """The loss targets for a batch's ground truth."""
    if task == "seg":
        return {"labels": gt}
    b, h, w = gt.shape[:3]
    return {task: gt.reshape(b, h * w, *gt.shape[3:]),
            "mask": np.ones((b, h * w), dtype=np.float32)}


# ---- evaluation ----------------------------------------------------------------------


def evaluate(model: Optional[Model], samples: Sequence[Sample], task: str,
             batch: int = 8, classes: int = 4) -> MetricReport:
    """Pooled metrics over the split.  ``model=None`` scores the ground truth
    against itself over ``classes`` (a perfect-report bypass used to validate
    the pipeline); a model scores over its own classes."""
    if model is not None:
        if model.cfg.task != task:
            raise ContractError(f"checkpoint trained for {model.cfg.task!r}, not {task!r}")
        classes = model.cfg.classes
    if len(samples) == 0:
        raise ContractError("evaluation needs a nonempty dataset")
    preds: List[np.ndarray] = []
    gts: List[np.ndarray] = []
    for start in range(0, len(samples), batch):
        idx = np.arange(start, min(start + batch, len(samples)))
        images, gt = _batch(samples, idx, task)
        preds.append(gt if model is None else model.predict(Tensor(images)))
        gts.append(gt)
    pred, gt = np.concatenate(preds), np.concatenate(gts)
    pixels = gt.size // 3 if task == "normal" else gt.size
    if task == "seg":
        scores = {"miou": miou(pred, gt, classes)[1]}
    elif task == "depth":
        scores = depth_metrics(pred, gt, np.ones(pixels))
    else:
        scores = normal_metrics(pred, gt, np.ones(pixels))
    return report_for(task, scores, pixels)


# ---- training --------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    trace: List[Tuple[int, float, Dict[str, float]]]
    reports: List[Tuple[int, MetricReport]]
    final_report: Optional[MetricReport]
    best_step: int


def size_multiple(task: str) -> int:
    """What each side of a ``task`` training image must be a multiple of:
    the encoder stride, and for depth also the pooling of the gradient
    loss's coarsest scale."""
    if task == "depth":
        return math.lcm(STRIDE, 2 ** (LossConfig().grad_scales - 1))
    return STRIDE


def model_config(cfg: TrainConfig, classes: int, d_min: float, d_max: float) -> ModelConfig:
    """The model a fresh ``train`` run builds for cfg on a dataset with these
    classes and depth range."""
    return ModelConfig(task=cfg.task, k=cfg.k, variant=cfg.variant, head=cfg.head,
                       classes=classes, d_min=d_min, d_max=d_max)


_SEED_LIMBS = (48, 32, 16, 0)


def _run_settings(cfg: TrainConfig) -> Dict[str, List[float]]:
    """The settings besides the model that a resumed run must share with the
    run that saved its checkpoint (``steps`` and ``eval_every`` may differ).
    The seed is stored as four 16-bit limbs of its value mod 2**64, which
    float32 holds exactly; that value is all that the sample order and the
    weights depend on.  Older files may hold more ``train/`` entries, for
    settings that are now constants; they are not compared."""
    return {
        "seed": [(cfg.seed >> s) & 0xFFFF for s in _SEED_LIMBS],
        "batch": [cfg.batch],
        "lr": [cfg.lr],
        "clip_norm": [cfg.clip_norm],
    }


def _shown(name: str, values: Optional[List[float]]) -> str:
    if values is None:
        return "missing"
    if name == "seed" and len(values) == 4 and all(v.is_integer() for v in values):
        return str(sum(int(v) << s for v, s in zip(values, _SEED_LIMBS)))
    return ", ".join(f"{v:g}" for v in values)


def _check_resume(model: Model, stored: Dict[str, List[float]], cfg: TrainConfig,
                  classes: int, d_min: float, d_max: float) -> None:
    """Refuse a checkpoint whose model or training settings differ from this
    run's, naming each differing field.  Files without ``train/`` entries
    (version 1, or version 2 written before they existed) are checked for
    the model only."""
    want = stored_config(model_config(cfg, classes, d_min, d_max))
    diff = [f"{f.name} {getattr(model.cfg, f.name)!r} (this run: {getattr(want, f.name)!r})"
            for f in fields(ModelConfig) if getattr(model.cfg, f.name) != getattr(want, f.name)]
    if diff:
        raise ContractError("resume checkpoint is a different model: " + ", ".join(diff))
    if not stored:
        return
    diff = [f"{n} {_shown(n, stored.get(n))} (this run: {_shown(n, v)})"
            for n, v in stored_run(_run_settings(cfg)).items() if stored.get(n) != v]
    if diff:
        raise ContractError("resume checkpoint was trained with different settings: "
                            + ", ".join(diff))


def write_trace(path: str, trace: List[Tuple[int, float, Dict[str, float]]]) -> None:
    if not trace:
        return
    keys = sorted(trace[0][2])
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["step", "total"] + keys)
        for step, total, terms in trace:
            out.writerow([step, f"{total:.8g}"] + [f"{terms[k]:.8g}" for k in keys])


def train(samples: Sequence[Sample], cfg: TrainConfig, classes: int = 4,
          d_min: float = 0.5, d_max: float = 10.0,
          val_samples: Sequence[Sample] = None,
          out_path: str = None, trace_path: str = None,
          resume_from: str = None) -> TrainResult:
    cfg.validate()
    if len(samples) == 0:
        raise ContractError("training needs a nonempty dataset")
    h, w = samples[0].labels.shape
    multiple = size_multiple(cfg.task)
    if h % multiple or w % multiple:
        raise ContractError(f"{cfg.task} training needs image sides that are multiples of "
                            f"{multiple}, got {h}x{w}")
    if resume_from is None:
        model, opt_state = Model(model_config(cfg, classes, d_min, d_max), seed=cfg.seed), None
    else:
        model, opt_state, stored = load_checkpoint(resume_from)
        _check_resume(model, stored, cfg, classes, d_min, d_max)
    opt = AdamW(model.params(), cfg.lr)
    if opt_state is not None:
        opt.load(opt_state)     # a checkpoint without opt/ entries fails here
        if opt.t >= cfg.steps:
            raise ContractError(f"resume checkpoint is at step {opt.t}, so a run of "
                                f"{cfg.steps} steps has none left to train")
    trace: List[Tuple[int, float, Dict[str, float]]] = []
    reports: List[Tuple[int, MetricReport]] = []
    best: Tuple[float, int] = None
    best_hi = PRIMARY_METRIC[cfg.task][1]
    last_norm: Tuple[int, float] = None   # (step, pre-clip norm) of the last finite one

    def record(done: int, rep: MetricReport) -> None:
        """Log a validation report; on a new best score, save ``.best``."""
        nonlocal best
        reports.append((done, rep))
        score = rep.primary()
        if best is None or (score > best[0] if best_hi else score < best[0]):
            best = (score, done)
            if out_path:
                save_model(out_path + ".best", model, opt.state(), _run_settings(cfg))

    for step in range(opt.t, cfg.steps):
        idx = batch_indices(cfg.seed, len(samples), cfg.batch, step)
        images, gt = _batch(samples, idx, cfg.task)
        prediction = model.train_outputs(Tensor(images))[PRED_KEY[cfg.task]]
        loss, terms = total_loss(cfg.task, prediction, _targets(cfg.task, gt),
                                 LossConfig(), (h, w))
        value = float(loss.data)
        if not math.isfinite(value):
            grad = (f"last finite grad norm {last_norm[1]:.4g} at step {last_norm[0]}"
                    if last_norm else "no finite grad norm yet")
            raise TrainingDiverged(
                f"step {step}: loss {value}; terms {terms}; batch {idx.tolist()}; "
                f"|images| mean {float(np.abs(images).mean()):.4g}; {grad}")
        opt.zero_grad()
        loss.backward()
        norm = opt.clip_global_norm(cfg.clip_norm)
        if math.isfinite(norm):
            last_norm = (step, norm)
        opt.step()
        trace.append((step, value, terms))
        if (cfg.eval_every and val_samples is not None
                and (step + 1) % cfg.eval_every == 0 and step + 1 < cfg.steps):
            record(step + 1, evaluate(model, val_samples, cfg.task))

    final_report = evaluate(model, val_samples, cfg.task) if val_samples is not None else None
    if final_report is not None:
        record(cfg.steps, final_report)
    if out_path:
        save_model(out_path, model, opt.state(), _run_settings(cfg))
    if trace_path:
        write_trace(trace_path, trace)
    return TrainResult(model, trace, reports, final_report,
                       best[1] if best else cfg.steps)


# ---- harnesses ------------------------------------------------------------------------------


def ablate_k(samples: Sequence[Sample], cfg: TrainConfig, k_list: Sequence[int],
             val_samples: Sequence[Sample], **kw) -> List[Tuple[int, MetricReport]]:
    """One run per K with a shared seed and schedule."""
    if not k_list:
        raise ContractError("ablation needs at least one K")
    out = []
    for k in k_list:
        res = train(samples, replace(cfg, k=k), val_samples=val_samples, **kw)
        out.append((k, res.final_report))
    return out


def compare_baseline(samples: Sequence[Sample], cfg: TrainConfig,
                     val_samples: Sequence[Sample], **kw) -> Dict[str, MetricReport]:
    """Cluster head vs per-pixel regression baseline, same schedule."""
    cluster = train(samples, replace(cfg, head="cluster"), val_samples=val_samples, **kw)
    baseline = train(samples, replace(cfg, head="baseline"), val_samples=val_samples, **kw)
    return {"cluster": cluster.final_report, "baseline": baseline.final_report}
