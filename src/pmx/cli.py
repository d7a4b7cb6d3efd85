"""Command-line interface.

Subcommands: generate, train, eval, predict, dump-probmaps, ablate-k,
compare-baseline.  Exit codes: 0 success, 1 runtime or data error (I/O,
corrupt files, diverged training, incompatible checkpoints, running out of
memory), 2 usage error (bad flags, contract violations in the request
itself).

Defaults are aligned so `pmx generate && pmx train && pmx eval` works with
no flags.  A subcommand runs in float32; the 64-bit mode with per-op
finiteness assertions is ``pmx.precision.verify()``, for library callers.
Numpy's floating-point warnings are silenced for the subcommand, so a
diverging run reports its one error line and nothing else.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from typing import List, Optional

import numpy as np

from . import netpbm
from .backbone import STRIDE
from .errors import ContractError, FormatError, TrainingDiverged
from .formats import DatasetHeader, read_dataset, write_dataset
from .metrics import METRIC_KEYS
from .model import HEAD_KINDS, TASKS, VARIANTS, load_model
from .scene import (CLASS_NAMES, D_MAX, D_MIN, LIGHT, N_CLASSES, NOISE_STD, NUM_PRIMS_MAX,
                    NUM_PRIMS_MIN, SceneConfig, generate_split)
from .tensor import Tensor
from .train import (LR_PRESETS, TrainConfig, _batch, ablate_k, compare_baseline,
                    evaluate, model_config, size_multiple, train)


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


def _check_outputs(args, *flags: str) -> None:
    """Refuse an output file whose directory is missing before any work."""
    for flag in flags:
        path = getattr(args, flag)
        parent = os.path.dirname(path or "") or "."
        if path is not None and not os.path.isdir(parent):
            raise FileNotFoundError(f"--{flag} {path}: no such directory {parent!r}")


def cmd_generate(args) -> int:
    _check_outputs(args, "out")
    cfg = SceneConfig(size=args.size)
    try:
        cfg.validate()
        DatasetHeader(args.count, cfg.size, cfg.size, N_CLASSES, D_MIN, D_MAX).validate()
    except ContractError as exc:
        raise UsageError(str(exc)) from exc
    multiple = size_multiple("depth")
    if args.size % multiple:
        raise UsageError(f"--size {args.size} is not a multiple of {multiple}, "
                         f"which depth training needs")
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


def _read_val(args, header: DatasetHeader, default=None):
    """The --val samples, or ``default`` without --val.  A set no run could
    score is refused, naming --val, before any training."""
    if not args.val:
        return default
    val_header, val = read_dataset(args.val)
    if val_header.count == 0:
        problem = "holds no samples"
    elif val_header.classes > header.classes:
        problem = f"has {val_header.classes} classes, more than the {header.classes} of --data"
    elif val_header.h % STRIDE or val_header.w % STRIDE:
        problem = (f"images are {val_header.h}x{val_header.w}, "
                   f"not a multiple of the encoder stride {STRIDE}")
    else:
        return val
    raise ContractError(f"--val {args.val}: {problem}")


def cmd_train(args) -> int:
    _check_outputs(args, "out", "trace")
    header, samples = read_dataset(args.data)
    cfg = _train_config(args, header)
    val = _read_val(args, header)
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
    _check_outputs(args, "report")
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
    images, _ = _batch(samples, [args.index], model.cfg.task)
    return header, model, Tensor(images)


def cmd_predict(args) -> int:
    header, model, images = _load_indexed(args)
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
    _, model, images = _load_indexed(args)
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
    val = _read_val(args, header, samples)
    rows = ablate_k(samples, cfg, k_list, val,
                    classes=header.classes, d_min=header.d_min, d_max=header.d_max)
    for k, report in rows:
        print(f"K={k} {report.to_json()}")
    return 0


def cmd_compare(args) -> int:
    header, samples = read_dataset(args.data)
    # the cluster run's checks include the baseline's
    cfg = _train_config(args, header, head="cluster")
    val = _read_val(args, header, samples)
    pair = compare_baseline(samples, cfg, val,
                            classes=header.classes, d_min=header.d_min, d_max=header.d_max)
    for name in ("cluster", "baseline"):
        print(f"{name} {pair[name].to_json()}")
    for key in METRIC_KEYS[args.task]:
        delta = pair["cluster"].metrics[key] - pair["baseline"].metrics[key]
        print(f"delta {key} {delta:+.6f}")
    return 0


def pin_heap_thresholds() -> bool:
    """Make glibc keep the heap that each step frees for the next one.

    A train step or an eval batch frees most of its arrays at the end and
    allocates the same sizes again, and glibc's dynamic thresholds hand
    that memory back to the OS in between, so the next pass faults it in
    page by page.  This keeps up to 1 GiB of free heap (M_TRIM_THRESHOLD)
    and serves blocks below 32 MiB from the heap (M_MMAP_THRESHOLD); set
    explicitly, neither threshold moves again.  It changes how memory is
    obtained, never a computed value.  A process-wide setting: call it
    from an entry point, never at import.  Returns whether both were set;
    without glibc or ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    return all([mallopt(m_trim_threshold, 1 << 30), mallopt(m_mmap_threshold, 32 << 20)])


def main(argv: Optional[List[str]] = None) -> int:
    pin_heap_thresholds()
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ContractError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
