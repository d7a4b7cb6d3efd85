"""Command-line interface.

Subcommands: generate, train, eval, predict, dump-probmaps, ablate-k,
compare-baseline.  Exit codes: 0 success, 1 runtime or data error (I/O,
corrupt files, diverged training, incompatible checkpoints), 2 usage error
(bad flags, contract violations in the request itself).

Defaults are aligned so `pmx generate && pmx train && pmx eval` works with
no flags.  Setting the environment variable PMX_VERIFY=1 switches every
tensor to 64-bit and enables per-op finiteness assertions.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import netpbm
from .backbone import STRIDE
from .errors import ContractError, FormatError, TrainingDiverged
from .formats import read_dataset, write_dataset
from .losses import LossConfig
from .metrics import METRIC_KEYS
from .model import HEAD_KINDS, TASKS, VARIANTS, load_model
from .scene import (CLASS_NAMES, D_MAX, D_MIN, LIGHT, N_CLASSES, NOISE_STD, NUM_PRIMS_MAX,
                    NUM_PRIMS_MIN, SceneConfig, generate_split)
from .tensor import Tensor
from .train import (LR_PRESETS, TrainConfig, ablate_k, compare_baseline,
                    evaluate, model_config, train)


class UsageError(Exception):
    pass


def _lr(value: str) -> float:
    if value in LR_PRESETS:
        return LR_PRESETS[value]
    return float(value)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pmx", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset + JSON manifest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", default="data.pmxd")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train one task")
    _train_flags(p)
    p.add_argument("--out", default="model.pmxc")
    p.add_argument("--trace", default=None, help="loss trace CSV path")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="print a MetricReport as one JSON line")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", default="data.pmxd")
    p.add_argument("--ckpt", default="model.pmxc")
    p.add_argument("--oracle", action="store_true",
                   help="score ground truth against itself (pipeline check)")
    p.add_argument("--report", default=None, help="also write the JSON line here")
    p.set_defaults(fn=cmd_eval)

    for name in ("predict", "dump-probmaps"):
        p = sub.add_parser(name, help=f"{name} for one sample into a directory")
        p.add_argument("--ckpt", default="model.pmxc")
        p.add_argument("--data", default="data.pmxd")
        p.add_argument("--index", type=int, default=0)
        p.add_argument("--out", default=".")
        p.set_defaults(fn=cmd_predict if name == "predict" else cmd_probmaps)

    p = sub.add_parser("ablate-k", help="train once per K, print a comparison table")
    _train_flags(p)
    p.add_argument("--k-list", default="4,8,16")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("compare-baseline", help="cluster head vs per-pixel regression")
    _train_flags(p)
    p.set_defaults(fn=cmd_compare)
    return top


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", default="data.pmxd")
    p.add_argument("--val", default=None, help="validation dataset path")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--variant", choices=VARIANTS, default="kmeans")
    p.add_argument("--head", choices=HEAD_KINDS, default="cluster")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=_lr, default=LR_PRESETS["pretrain"],
                   help="float, or preset name 'pretrain'/'finetune'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")


def cmd_generate(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    cfg = SceneConfig(size=args.size)
    try:
        cfg.validate()
    except ContractError as exc:
        raise UsageError(str(exc)) from exc
    # the coarsest scale of the depth gradient loss pools by 2^(scales - 1)
    pool = 2 ** (LossConfig().grad_scales - 1)
    multiple = math.lcm(STRIDE, pool)
    if args.size % multiple:
        raise UsageError(f"--size {args.size} is not a multiple of {multiple} "
                         f"(encoder stride {STRIDE}, depth gradient pooling {pool})")
    samples = generate_split(args.seed, args.count, cfg)
    manifest = {
        "seed": args.seed,
        "config": {"size": cfg.size, "num_prims_min": NUM_PRIMS_MIN,
                   "num_prims_max": NUM_PRIMS_MAX, "d_min": D_MIN, "d_max": D_MAX,
                   "light": LIGHT.tolist(), "noise_std": NOISE_STD},
        "classes": list(CLASS_NAMES),
        "normal_frame": "camera frame; visible hemisphere has n . ray < 0",
    }
    write_dataset(args.out, samples, N_CLASSES, D_MIN, D_MAX, manifest)
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def _train_config(args, header, **override) -> TrainConfig:
    """The TrainConfig the train-family flags ask for, with any override
    applied; a request train() would reject is a UsageError."""
    fields = dict(
        task=args.task, steps=args.steps, batch=args.batch, lr=args.lr,
        seed=args.seed, k=args.k, variant=args.variant, head=args.head,
        eval_every=args.eval_every, clip_norm=0.0 if args.no_clip else TrainConfig.clip_norm,
    )
    fields.update(override)
    cfg = TrainConfig(**fields)
    try:
        cfg.validate()
        model_config(cfg, header.classes, header.d_min, header.d_max).validate()
    except ContractError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def cmd_train(args) -> int:
    header, samples = read_dataset(args.data)
    cfg = _train_config(args, header)
    val = read_dataset(args.val)[1] if args.val else None
    result = train(samples, cfg, classes=header.classes, d_min=header.d_min,
                   d_max=header.d_max, val_samples=val, out_path=args.out,
                   trace_path=args.trace, resume_from=args.resume)
    last = result.trace[-1] if result.trace else (0, float("nan"), {})
    print(f"trained {cfg.task} for {cfg.steps} steps; final loss {last[1]:.6g}; "
          f"checkpoint {args.out}")
    if result.final_report is not None:
        print(result.final_report.to_json())
    return 0


def cmd_eval(args) -> int:
    header, samples = read_dataset(args.data)
    model = None if args.oracle else load_model(args.ckpt)[0]
    report = evaluate(model, samples, args.task, classes=header.classes)
    line = report.to_json()
    print(line)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(line + "\n")
    return 0


def _load_indexed(args):
    header, samples = read_dataset(args.data)
    if not 0 <= args.index < header.count:
        raise UsageError(f"--index {args.index} outside dataset of {header.count}")
    model, _ = load_model(args.ckpt)
    sample = samples[args.index]
    images = Tensor(sample.image.transpose(2, 0, 1)[None])
    return header, model, sample, images


def cmd_predict(args) -> int:
    header, model, sample, images = _load_indexed(args)
    task = model.cfg.task
    pred = model.predict(images)[0]
    os.makedirs(args.out, exist_ok=True)
    if task == "seg":
        gray = netpbm.quantize(pred.astype(np.float64) / max(header.classes - 1, 1))
        path = os.path.join(args.out, "pred_labels.pgm")
        netpbm.write_pgm(path, gray)
    elif task == "depth":
        unit = (pred - header.d_min) / (header.d_max - header.d_min)
        path = os.path.join(args.out, "pred_depth.pgm")
        netpbm.write_pgm(path, netpbm.quantize(unit))
    else:
        path = os.path.join(args.out, "pred_normal.ppm")
        netpbm.write_ppm(path, netpbm.quantize((pred + 1.0) / 2.0))
    print(f"wrote {path}")
    return 0


def cmd_probmaps(args) -> int:
    _, model, sample, images = _load_indexed(args)
    panels = model.probability_panels(images)[0]          # (K, H, W)
    sums = panels.sum(axis=0)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ContractError(f"probability panels sum to {sums.min()}..{sums.max()}")
    os.makedirs(args.out, exist_ok=True)
    for k in range(panels.shape[0]):
        path = os.path.join(args.out, f"probmap_{model.cfg.task}_{k}.pgm")
        netpbm.write_pgm(path, netpbm.quantize(panels[k]))
    print(f"wrote {panels.shape[0]} panels to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    header, samples = read_dataset(args.data)
    try:
        k_list = [int(x) for x in args.k_list.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"bad --k-list: {exc}") from exc
    if not k_list:
        raise UsageError("--k-list is empty")
    for k in k_list:
        cfg = _train_config(args, header, k=k)
    val = read_dataset(args.val)[1] if args.val else samples
    rows = ablate_k(samples, cfg, k_list, val,
                    classes=header.classes, d_min=header.d_min, d_max=header.d_max)
    for k, report in rows:
        print(f"K={k} {report.to_json()}")
    return 0


def cmd_compare(args) -> int:
    header, samples = read_dataset(args.data)
    # the cluster run's checks include the baseline's
    cfg = _train_config(args, header, head="cluster")
    val = read_dataset(args.val)[1] if args.val else samples
    pair = compare_baseline(samples, cfg, val,
                            classes=header.classes, d_min=header.d_min, d_max=header.d_max)
    for name in ("cluster", "baseline"):
        print(f"{name} {pair[name].to_json()}")
    for key in METRIC_KEYS[args.task]:
        delta = pair["cluster"].metrics[key] - pair["baseline"].metrics[key]
        print(f"delta {key} {delta:+.6f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ContractError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
