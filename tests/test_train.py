"""Optimizer behavior, deterministic ordering, resume, and the harnesses."""

import csv
import re
import struct

import numpy as np
import pytest

from pmx.errors import ContractError, TrainingDiverged
from pmx.formats import fnv1a64, read_checkpoint, write_checkpoint
from pmx.metrics import miou
from pmx.model import Model, ModelConfig, load_checkpoint, save_model
from pmx.tensor import Tensor, parameter
from pmx.train import (ENC_LR_MULT, WEIGHT_DECAY, AdamW, TrainConfig, _Order,
                       compare_baseline, ablate_k, epoch_permutation, evaluate, train,
                       write_trace)


# ---- AdamW -------------------------------------------------------------------------


def test_adamw_zero_grad_step_is_pure_decay():
    p = parameter(np.array([1.0], dtype=np.float32))
    opt = AdamW({"dec/x": p}, lr=0.1)
    opt.step()
    assert abs(float(p.data[0]) - (1.0 - 0.1 * WEIGHT_DECAY)) < 1e-7


def test_adamw_first_step_moves_by_lr_signed():
    p = parameter(np.array([1.0, 1.0], dtype=np.float32))
    opt = AdamW({"dec/x": p}, lr=0.01)
    p.grad = np.array([3.0, -0.5], dtype=np.float32)
    opt.step()
    # after the decay, the bias-corrected first step is lr * g / (|g| + eps),
    # i.e. nearly lr * sign(g)
    decayed = 1.0 - 0.01 * WEIGHT_DECAY
    assert abs(float(p.data[0]) - (decayed - 0.01)) < 1e-6
    assert abs(float(p.data[1]) - (decayed + 0.01)) < 1e-6


def test_adamw_backbone_prefix_gets_reduced_lr():
    pe = parameter(np.array([1.0], dtype=np.float32))
    pd = parameter(np.array([1.0], dtype=np.float32))
    opt = AdamW({"enc/a": pe, "dec/b": pd}, lr=0.01)
    pe.grad = np.array([1.0], dtype=np.float32)
    pd.grad = np.array([1.0], dtype=np.float32)
    opt.step()
    # each group decays by its own lr, then steps by it
    moved_e = (1.0 - 0.01 * ENC_LR_MULT * WEIGHT_DECAY) - float(pe.data[0])
    moved_d = (1.0 - 0.01 * WEIGHT_DECAY) - float(pd.data[0])
    assert abs(moved_d - 0.01) < 1e-6
    assert abs(moved_e / moved_d - 0.1) < 1e-3


def test_clip_global_norm_scales_to_bound():
    pa = parameter(np.array([1.0], dtype=np.float32))
    pb = parameter(np.array([1.0], dtype=np.float32))
    opt = AdamW({"dec/a": pa, "dec/b": pb}, lr=0.01)
    pa.grad = np.array([3.0], dtype=np.float32)
    pb.grad = np.array([4.0], dtype=np.float32)
    norm = opt.clip_global_norm(1.0)
    assert abs(norm - 5.0) < 1e-6
    assert abs(float(pa.grad[0]) - 0.6) < 1e-6
    assert abs(float(pb.grad[0]) - 0.8) < 1e-6


def test_clip_global_norm_no_op_below_bound_and_when_disabled():
    pa = parameter(np.array([1.0], dtype=np.float32))
    opt = AdamW({"dec/a": pa}, lr=0.01)
    pa.grad = np.array([3.0], dtype=np.float32)
    opt.clip_global_norm(10.0)
    assert float(pa.grad[0]) == 3.0
    opt.clip_global_norm(0.0)
    assert float(pa.grad[0]) == 3.0


def test_adamw_state_roundtrip():
    p = parameter(np.array([1.0, 2.0], dtype=np.float32))
    opt = AdamW({"dec/x": p}, lr=0.01)
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt.step()
    state = {k: v.copy() if hasattr(v, "copy") else v for k, v in opt.state().items()}
    other = AdamW({"dec/x": parameter(np.array([1.0, 2.0], dtype=np.float32))}, lr=0.01)
    other.load(state)
    assert other.t == 1
    np.testing.assert_array_equal(other.m["dec/x"], opt.m["dec/x"])
    np.testing.assert_array_equal(other.v["dec/x"], opt.v["dec/x"])


def _saved_adamw_state():
    p = parameter(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    opt = AdamW({"dec/x": p}, lr=0.01)
    p.grad = np.array([[0.5, -0.5], [0.25, 1.0]], dtype=np.float32)
    opt.step()
    return {k: np.asarray(v, dtype=np.float32).copy() for k, v in opt.state().items()}


def test_adamw_load_keeps_the_given_moments():
    state = _saved_adamw_state()
    other = AdamW({"dec/x": parameter(np.zeros((2, 2), dtype=np.float32))}, lr=0.01)
    other.load(state)
    assert other.m["dec/x"] is state["m/dec/x"] and other.v["dec/x"] is state["v/dec/x"]


@pytest.mark.parametrize("change,named", [
    (dict(step=None), "opt/step []"),
    (dict(step=np.float32("nan")), "opt/step [nan]"),
    (dict(step=np.float32(-3)), "opt/step [-3.0]"),
    (dict(step=np.float32(1.5)), "opt/step [1.5]"),
    (dict(step=np.float32("inf")), "opt/step [inf]"),
    (dict(step=np.zeros(2, dtype=np.float32)), "opt/step [0.0, 0.0]"),
    ({"m/dec/x": None}, "opt/m/dec/x: missing"),
    ({"v/dec/x": None}, "opt/v/dec/x: missing"),
    ({"m/dec/x": np.zeros(3, dtype=np.float32)}, "opt/m/dec/x: shape (3,), parameter (2, 2)"),
    ({"v/dec/x": np.zeros(4, dtype=np.float32)}, "opt/v/dec/x: shape (4,), parameter (2, 2)"),
    ({"m/dec/x": np.full((2, 2), np.nan, dtype=np.float32)},
     "opt/m/dec/x holds a value that is not finite"),
    ({"v/dec/x": np.full((2, 2), np.inf, dtype=np.float32)},
     "opt/v/dec/x holds a value that is not finite"),
    ({"v/dec/x": np.full((2, 2), -1.0, dtype=np.float32)},
     "opt/v/dec/x holds a negative second moment"),
    ({"m/dec/y": np.zeros((2, 2), dtype=np.float32)}, "opt/m/dec/y names no parameter"),
    ({"lr": np.float32(0.01)}, "opt/lr names no parameter"),
])
def test_adamw_load_rejects_a_malformed_entry(change, named):
    state = _saved_adamw_state()
    for key, value in change.items():
        if value is None:
            del state[key]
        else:
            state[key] = value
    other = AdamW({"dec/x": parameter(np.zeros((2, 2), dtype=np.float32))}, lr=0.01)
    with pytest.raises(ContractError, match=re.escape(named)):
        other.load(state)


# ---- deterministic ordering ----------------------------------------------------------


def test_epoch_permutation_is_a_permutation_and_seeded():
    a = epoch_permutation(3, 0, 10)
    b = epoch_permutation(3, 0, 10)
    c = epoch_permutation(3, 1, 10)
    d = epoch_permutation(4, 0, 10)
    np.testing.assert_array_equal(a, b)
    assert sorted(a.tolist()) == list(range(10))
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


def test_order_covers_every_sample_once_per_epoch():
    order = _Order(seed=5, n=8, batch=4)
    seen = np.concatenate([order.batch_indices(s) for s in range(4)])
    first, second = seen[:8], seen[8:]
    assert sorted(first.tolist()) == list(range(8))
    assert sorted(second.tolist()) == list(range(8))


def test_order_wraps_across_epoch_boundary():
    order = _Order(seed=5, n=4, batch=3)
    flat = np.concatenate([order.batch_indices(s) for s in range(4)])
    assert sorted(flat[:4].tolist()) == list(range(4))
    assert sorted(flat[4:8].tolist()) == list(range(4))
    assert sorted(flat[8:].tolist()) == list(range(4))


# ---- config ------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    TrainConfig(task="depth", steps=0),
    TrainConfig(task="depth", batch=0),
    TrainConfig(task="depth", lr=-1.0),
    TrainConfig(task="depth", lr=float("nan")),
    TrainConfig(task="depth", lr=float("inf")),
    TrainConfig(task="depth", lr=float("-inf")),
    TrainConfig(task="depth", eval_every=-1),
])
def test_train_config_validation(bad):
    with pytest.raises(ContractError):
        bad.validate()


def test_train_empty_dataset_raises():
    with pytest.raises(ContractError):
        train([], TrainConfig(task="depth", steps=1))


# ---- evaluation --------------------------------------------------------------------


def test_evaluate_oracle_is_perfect(tiny_split):
    samples, _ = tiny_split
    seg = evaluate(None, samples, "seg")
    depth = evaluate(None, samples, "depth")
    normal = evaluate(None, samples, "normal")
    assert seg.metrics["miou"] == 1.0
    assert depth.metrics["delta1"] == 1.0 and depth.metrics["rms"] == 0.0
    assert normal.metrics["mean_deg"] < 1e-5


def test_evaluate_seg_scores_through_metrics_miou(tiny_split):
    samples, _ = tiny_split                  # 8 samples, batch 3: last chunk has 2
    model = Model(ModelConfig(task="seg"), seed=0)
    report = evaluate(model, samples, "seg", batch=3)
    pred = np.concatenate([model.predict(Tensor(np.stack(
        [s.image.transpose(2, 0, 1) for s in samples[i:i + 3]]))) for i in range(0, 8, 3)])
    gt = np.stack([s.labels for s in samples])
    assert report.metrics["miou"] == miou(pred, gt, 4)[1]
    assert report.pixels == gt.size


def test_evaluate_empty_split_raises():
    with pytest.raises(ContractError):
        evaluate(None, [], "seg")


def test_evaluate_task_mismatch_raises(tiny_split):
    samples, _ = tiny_split
    model = Model(ModelConfig(task="depth"), seed=0)
    with pytest.raises(ContractError):
        evaluate(model, samples, "seg")


# ---- training loop ------------------------------------------------------------------


def test_identical_seeds_identical_traces(tiny_split):
    samples, _ = tiny_split
    cfg = TrainConfig(task="depth", steps=8, batch=4, seed=11)
    a = train(samples, cfg)
    b = train(samples, cfg)
    assert [t[1] for t in a.trace] == [t[1] for t in b.trace]


def test_different_seeds_different_traces(tiny_split):
    samples, _ = tiny_split
    a = train(samples, TrainConfig(task="depth", steps=4, batch=4, seed=0))
    b = train(samples, TrainConfig(task="depth", steps=4, batch=4, seed=1))
    assert [t[1] for t in a.trace] != [t[1] for t in b.trace]


def test_resume_matches_uninterrupted(tiny_split, tmp_path):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "mid.ckpt")
    cfg_half = TrainConfig(task="depth", steps=10, batch=4, seed=3)
    cfg_full = TrainConfig(task="depth", steps=20, batch=4, seed=3)
    train(samples, cfg_half, out_path=ckpt)
    resumed = train(samples, cfg_full, resume_from=ckpt)
    solid = train(samples, cfg_full)
    tail = {s: v for s, v, _ in solid.trace if s >= 10}
    got = {s: v for s, v, _ in resumed.trace}
    assert sorted(got) == sorted(tail)
    for s in tail:
        assert abs(got[s] - tail[s]) < 1e-6
    assert abs(resumed.trace[-1][1] - solid.trace[-1][1]) < 1e-6


def test_resume_task_mismatch_raises(tiny_split, tmp_path):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "seg.ckpt")
    train(samples, TrainConfig(task="seg", steps=2, batch=4), out_path=ckpt)
    with pytest.raises(ContractError):
        train(samples, TrainConfig(task="depth", steps=4, batch=4), resume_from=ckpt)


@pytest.mark.parametrize("change,named", [
    (dict(cfg=dict(k=8)), ["k 4"]),
    (dict(cfg=dict(variant="standard", head="baseline")), ["variant", "head"]),
    (dict(classes=5), ["classes 4"]),
    (dict(d_min=0.25, d_max=12.0), ["d_min 0.5", "d_max 10.0"]),
])
def test_resume_refuses_a_different_model(tiny_split, tmp_path, change, named):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "depth.ckpt")
    train(samples, TrainConfig(task="depth", steps=2, batch=4), out_path=ckpt)
    cfg = TrainConfig(task="depth", steps=4, batch=4, **change.pop("cfg", {}))
    with pytest.raises(ContractError, match="different model") as err:
        train(samples, cfg, resume_from=ckpt, **change)
    for word in named:
        assert word in str(err.value)
    assert "task" not in str(err.value)


def test_resume_with_float32_inexact_depth_range_continues_bit_identically(tiny_split, tmp_path):
    # 0.3 and 9.7 are not float32 values; the checkpoint stores their roundings
    samples, _ = tiny_split
    rng = dict(d_min=0.3, d_max=9.7)
    ckpt = str(tmp_path / "mid.ckpt")
    train(samples, TrainConfig(task="depth", steps=3, batch=4, seed=2), out_path=ckpt, **rng)
    full = TrainConfig(task="depth", steps=6, batch=4, seed=2)
    resumed = train(samples, full, resume_from=ckpt, **rng)
    solid = train(samples, full, **rng)
    assert resumed.trace == [t for t in solid.trace if t[0] >= 3]


@pytest.mark.parametrize("change,named", [
    (dict(seed=1), ["seed 0 (this run: 1)"]),
    (dict(batch=2), ["batch 4 (this run: 2)"]),
    (dict(lr=1e-3), ["lr 0.0005 (this run: 0.001)"]),
    (dict(clip_norm=0.0), ["clip_norm 10 (this run: 0)"]),
])
def test_resume_refuses_different_training_settings(tiny_split, tmp_path, change, named):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "depth.ckpt")
    train(samples, TrainConfig(task="depth", steps=2, batch=4), out_path=ckpt)
    with pytest.raises(ContractError, match="different settings") as err:
        train(samples, TrainConfig(task="depth", steps=4, **{"batch": 4, **change}),
              resume_from=ckpt)
    for words in named:
        assert words in str(err.value)
    assert "steps" not in str(err.value)


def test_resume_tells_apart_seeds_float32_cannot(tiny_split, tmp_path):
    # 2**40 and 2**40 + 1 are the same float32; the seed's 16-bit limbs are not
    samples, _ = tiny_split
    ckpt = str(tmp_path / "depth.ckpt")
    train(samples, TrainConfig(task="depth", steps=1, batch=4, seed=2**40), out_path=ckpt)
    with pytest.raises(ContractError, match=f"seed {2**40} \\(this run: {2**40 + 1}\\)"):
        train(samples, TrainConfig(task="depth", steps=2, batch=4, seed=2**40 + 1),
              resume_from=ckpt)
    resumed = train(samples, TrainConfig(task="depth", steps=2, batch=4, seed=2**40),
                    resume_from=ckpt)
    assert [t[0] for t in resumed.trace] == [1]


def test_resume_allows_different_steps_and_eval_every(tiny_split, tmp_path):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "depth.ckpt")
    train(samples, TrainConfig(task="depth", steps=2, batch=4, seed=4), out_path=ckpt)
    full = TrainConfig(task="depth", steps=4, batch=4, seed=4, eval_every=1)
    resumed = train(samples, full, val_samples=samples[:2], resume_from=ckpt)
    assert [t[0] for t in resumed.trace] == [2, 3]
    assert [step for step, _ in resumed.reports] == [3, 4]


def _without_run_settings(path, version):
    """Rewrite a checkpoint without its train/ entries, as a file written
    before they existed: version 2 (CRC-32) or version 1 (FNV-1a)."""
    tensors = {n: a for n, a in read_checkpoint(path).items() if not n.startswith("train/")}
    write_checkpoint(path, tensors)
    if version == 1:
        blob = bytearray(open(path, "rb").read()[:-8])
        blob[4:8] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(blob) + struct.pack("<Q", fnv1a64(bytes(blob))))


def test_resume_with_a_forged_opt_entry_raises(tiny_split, tmp_path):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "mid.ckpt")
    cfg = TrainConfig(task="depth", steps=2, batch=4)
    train(samples, cfg, out_path=ckpt)
    tensors = read_checkpoint(ckpt)
    tensors["opt/step"] = np.float32(-3)
    write_checkpoint(ckpt, tensors)
    with pytest.raises(ContractError, match=re.escape("opt/step [-3.0]")):
        train(samples, TrainConfig(task="depth", steps=4, batch=4), resume_from=ckpt)


def test_resume_without_optimizer_state_raises(tiny_split, tmp_path):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "mid.ckpt")
    cfg = TrainConfig(task="depth", steps=2, batch=4)
    model = train(samples, cfg, out_path=ckpt).model
    save_model(ckpt, model, None, load_checkpoint(ckpt)[2])
    with pytest.raises(ContractError, match=re.escape("opt/step []")):
        train(samples, TrainConfig(task="depth", steps=3, batch=4), resume_from=ckpt)


def test_resume_from_a_file_with_the_old_ten_settings_continues(tiny_split, tmp_path):
    # checkpoints once also stored the AdamW and loss settings, now constants
    samples, _ = tiny_split
    ckpt = str(tmp_path / "mid.ckpt")
    train(samples, TrainConfig(task="depth", steps=2, batch=4, seed=6), out_path=ckpt)
    tensors = read_checkpoint(ckpt)
    tensors.update({f"train/{n}": np.asarray(v, dtype=np.float32) for n, v in (
        ("weight_decay", [0.05]), ("backbone_lr_mult", [0.1]), ("loss.silog_lambda", [0.5]),
        ("loss.grad_scales", [4]), ("loss.ignore_label", [255]),
        ("loss.depth_weights", [1.0, 1.0, 1.0]))})
    write_checkpoint(ckpt, tensors)
    assert sum(n.startswith("train/") for n in read_checkpoint(ckpt)) == 10
    full = TrainConfig(task="depth", steps=4, batch=4, seed=6)
    resumed = train(samples, full, resume_from=ckpt)
    assert resumed.trace == [t for t in train(samples, full).trace if t[0] >= 2]


@pytest.mark.parametrize("version", [1, 2])
def test_resume_from_a_file_without_run_settings_continues(tiny_split, tmp_path, version):
    samples, _ = tiny_split
    ckpt = str(tmp_path / "mid.ckpt")
    train(samples, TrainConfig(task="depth", steps=2, batch=4, seed=6), out_path=ckpt)
    _without_run_settings(ckpt, version)
    assert not any(n.startswith("train/") for n in read_checkpoint(ckpt))
    full = TrainConfig(task="depth", steps=4, batch=4, seed=6)
    resumed = train(samples, full, resume_from=ckpt)
    assert resumed.trace == [t for t in train(samples, full).trace if t[0] >= 2]


def test_short_depth_training_reduces_loss(tiny_split):
    samples, _ = tiny_split
    res = train(samples, TrainConfig(task="depth", steps=60, batch=4, seed=0))
    first = res.trace[0][1]
    last_five = [v for _, v, _ in res.trace[-5:]]
    assert sum(last_five) / 5 < first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported(tiny_split):
    samples, _ = tiny_split
    cfg = TrainConfig(task="seg", steps=50, batch=4, lr=1e5, clip_norm=0.0)
    with pytest.raises(TrainingDiverged, match="grad norm"):
        train(samples, cfg)


def test_eval_cadence_and_best_checkpoint(tiny_split, tmp_path):
    samples, _ = tiny_split
    out = str(tmp_path / "model.ckpt")
    cfg = TrainConfig(task="depth", steps=6, batch=4, eval_every=2)
    res = train(samples, cfg, val_samples=samples[:4], out_path=out)
    steps = [s for s, _ in res.reports]
    assert steps == [2, 4, 6]
    assert res.final_report is res.reports[-1][1]
    assert (tmp_path / "model.ckpt").exists()
    assert (tmp_path / "model.ckpt.best").exists()
    assert res.best_step in steps


def test_write_trace_roundtrip(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace(path, [(0, 1.5, {"silog": 1.0, "rel_sq": 0.5}),
                       (1, 1.2, {"silog": 0.9, "rel_sq": 0.3})])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "total", "rel_sq", "silog"]
    assert len(rows) == 3
    assert abs(float(rows[1][1]) - 1.5) < 1e-9


# ---- harnesses ---------------------------------------------------------------------


def test_ablate_k_runs_each_k(tiny_split):
    samples, _ = tiny_split
    cfg = TrainConfig(task="depth", steps=2, batch=4)
    out = ablate_k(samples, cfg, [2, 4], val_samples=samples[:4])
    assert [k for k, _ in out] == [2, 4]
    assert all(rep.task == "depth" for _, rep in out)


def test_ablate_k_empty_list_raises(tiny_split):
    samples, _ = tiny_split
    with pytest.raises(ContractError):
        ablate_k(samples, TrainConfig(task="depth", steps=1), [], val_samples=samples)


def test_compare_baseline_returns_both(tiny_split):
    samples, _ = tiny_split
    cfg = TrainConfig(task="depth", steps=2, batch=4)
    out = compare_baseline(samples, cfg, val_samples=samples[:4])
    assert set(out) == {"cluster", "baseline"}
    assert out["cluster"].task == "depth" and out["baseline"].task == "depth"
