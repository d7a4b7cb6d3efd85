"""Model assembly, prediction shapes, and checkpoint reconstruction."""

import re
import tracemalloc
import zlib

import numpy as np
import pytest

from pmx.errors import ContractError, FormatError
from pmx.formats import read_checkpoint, write_checkpoint
from pmx.losses import LossConfig, total_loss
from pmx.model import (PRED_KEY, Model, ModelConfig, config_from_meta, load_model,
                       save_model)
from pmx.rng import SplitMix64
from pmx.tensor import Tensor


def _images(rng, n=2, size=16):
    return Tensor(rng.uniform(0.0, 1.0, size=(n, 3, size, size)))


# ---- config ------------------------------------------------------------------------


def test_config_rejects_unknown_task_and_head():
    with pytest.raises(ContractError):
        ModelConfig(task="pose").validate()
    with pytest.raises(ContractError):
        ModelConfig(task="seg", head="mlp").validate()


def test_seg_cluster_requires_one_query_per_class():
    with pytest.raises(ContractError):
        ModelConfig(task="seg", k=8, classes=4).validate()
    ModelConfig(task="seg", k=8, classes=4, head="baseline").validate()


# ---- prediction shapes ---------------------------------------------------------------


@pytest.mark.parametrize("task,head", [
    ("seg", "cluster"), ("seg", "baseline"),
    ("depth", "cluster"), ("depth", "baseline"),
    ("normal", "cluster"), ("normal", "baseline"),
])
def test_predict_shapes_and_ranges(task, head, rng):
    model = Model(ModelConfig(task=task, head=head), seed=0)
    pred = model.predict(_images(rng))
    if task == "seg":
        assert pred.shape == (2, 16, 16)
        assert set(np.unique(pred)) <= set(range(4))
    elif task == "depth":
        assert pred.shape == (2, 16, 16)
        assert np.all(pred > 0.5) and np.all(pred < 10.0)
    else:
        assert pred.shape == (2, 16, 16, 3)
        norms = np.linalg.norm(pred, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-5)


def test_probability_panels_cluster_only(rng):
    model = Model(ModelConfig(task="depth"), seed=0)
    panels = model.probability_panels(_images(rng))
    assert panels.shape == (2, 4, 16, 16)
    assert np.allclose(panels.sum(axis=1), 1.0, atol=1e-5)
    baseline = Model(ModelConfig(task="depth", head="baseline"), seed=0)
    with pytest.raises(ContractError):
        baseline.probability_panels(_images(rng))


def test_bin_centers_depth_only(rng):
    model = Model(ModelConfig(task="depth"), seed=0)
    b = model.bin_centers(_images(rng))
    assert b.shape == (2, 4)
    assert np.all(np.diff(b, axis=-1) > 0)
    assert np.all(b > 0.5) and np.all(b < 10.0)
    seg = Model(ModelConfig(task="seg"), seed=0)
    with pytest.raises(ContractError):
        seg.bin_centers(_images(rng))


# ---- checkpoints -------------------------------------------------------------------


def test_save_load_roundtrip_bitexact(tmp_path, rng):
    path = str(tmp_path / "model.pmxc")
    cfg = ModelConfig(task="depth", k=8, d=32, n_dec=3, widths=(16, 32, 32),
                      variant="standard", d_min=1.0, d_max=8.0)
    model = Model(cfg, seed=7)
    save_model(path, model)
    loaded, opt = load_model(path)
    assert loaded.cfg == cfg
    assert opt == {}
    fresh = loaded.params()
    for name, p in model.params().items():
        np.testing.assert_array_equal(fresh[name].data, p.data)


def test_save_load_preserves_predictions(tmp_path, rng):
    path = str(tmp_path / "model.pmxc")
    model = Model(ModelConfig(task="normal"), seed=3)
    images = _images(rng)
    before = model.predict(images)
    save_model(path, model)
    loaded, _ = load_model(path)
    np.testing.assert_array_equal(loaded.predict(images), before)


def test_opt_state_roundtrip(tmp_path):
    path = str(tmp_path / "model.pmxc")
    model = Model(ModelConfig(task="depth"), seed=0)
    state = {"step": np.float32(5.0),
             "m/enc/stem1.weight": np.ones((4,), dtype=np.float32)}
    save_model(path, model, state)
    _, opt = load_model(path)
    assert int(opt["step"]) == 5
    np.testing.assert_array_equal(opt["m/enc/stem1.weight"], np.ones(4, dtype=np.float32))


@pytest.mark.parametrize("task,head", [("seg", "cluster"), ("depth", "cluster"),
                                       ("normal", "cluster"), ("normal", "baseline")])
def test_load_model_draws_no_weights(tmp_path, monkeypatch, task, head):
    path = str(tmp_path / "model.pmxc")
    model = Model(ModelConfig(task=task, head=head), seed=4)
    state = {"step": np.float32(3.0), "m/enc/out.w": np.full(5, 0.25, dtype=np.float32)}
    save_model(path, model, state)

    def no_draw(self, n):
        raise AssertionError("load_model drew seeded weights")
    monkeypatch.setattr(SplitMix64, "normals", no_draw)
    loaded, opt = load_model(path)
    fresh = loaded.params()
    assert sorted(fresh) == sorted(model.params())
    for name, p in model.params().items():
        assert fresh[name].data.dtype == p.data.dtype
        assert np.array_equal(fresh[name].data, p.data), name
    assert set(opt) == set(state)
    for name, arr in state.items():
        assert np.array_equal(opt[name], arr)


def _normal_step_loss(rng):
    model = Model(ModelConfig(task="normal"), seed=0)
    out = model.train_outputs(_images(rng))["normal"]
    target = Tensor(rng.normal(size=out.shape))
    return model, ((out - target) * (out - target)).mean()


def test_training_step_gradients_share_no_memory(rng, made_grads):
    _, loss = _normal_step_loss(rng)
    loss.backward()
    assert len(made_grads) > 100
    for i, a in enumerate(made_grads):
        for b in made_grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_training_step_backward_leaves_only_leaves(rng):
    model, loss = _normal_step_loss(rng)
    loss.backward()
    stack = [loss]
    while stack:
        node = stack.pop()
        assert node._backfn is None
        stack.extend(node._parents or ())
    for name, p in model.params().items():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name


def test_recorded_training_forward_holds_at_most_20_mb(rng):
    # graph nodes keep only the arrays their backward reads; when every op
    # output kept its own array this forward plus loss held 26.7 MB
    model = Model(ModelConfig(task="depth"), seed=0)
    images = _images(rng, n=8, size=64)
    gt = rng.uniform(1.0, 5.0, size=(8, 64 * 64)).astype(np.float32)
    targets = {"depth": gt, "mask": np.ones_like(gt)}
    tracemalloc.start()
    try:
        pred = model.train_outputs(images)[PRED_KEY["depth"]]
        loss, _ = total_loss("depth", pred, targets, LossConfig(), (64, 64))
        del pred
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad and held <= 20e6


def test_load_missing_and_mismatched_parameter(tmp_path):
    path = str(tmp_path / "model.pmxc")
    save_model(path, Model(ModelConfig(task="depth"), seed=0))
    saved = read_checkpoint(path)
    name = "dec/block0.ffn1.b"
    tensors = dict(saved)
    del tensors[name]
    write_checkpoint(path, tensors)
    with pytest.raises(ContractError, match=f"parameter {name}: missing"):
        load_model(path)
    tensors = dict(saved)
    tensors[name] = np.zeros((1, 1), dtype=np.float32)
    write_checkpoint(path, tensors)
    with pytest.raises(ContractError, match=re.escape(f"parameter {name}: shape (1, 1), model (128,)")):
        load_model(path)


# CRC-32 of each saved body (the file minus its 8-byte trailer, which holds
# that same CRC, so a whole file's CRC-32 is one constant residue), taken
# before parameters were made through backbone.Params: any change to a
# parameter's name, shape, init or draw order changes the bytes.
GOLDEN_CRC = {
    ("seg", "cluster", "kmeans"): 0x01BC54DF,
    ("depth", "cluster", "standard"): 0xF52E6BB9,
    ("normal", "baseline", "kmeans"): 0xC8797579,
}


@pytest.mark.parametrize("task,head,variant", sorted(GOLDEN_CRC))
def test_saved_parameters_match_golden_crc(tmp_path, task, head, variant):
    path = str(tmp_path / "model.pmxc")
    save_model(path, Model(ModelConfig(task=task, head=head, variant=variant), seed=11))
    with open(path, "rb") as fh:
        body = fh.read()[:-8]
    assert zlib.crc32(body) == GOLDEN_CRC[task, head, variant]


def test_checkpoint_without_metadata_rejected(tmp_path):
    path = str(tmp_path / "stray.pmxc")
    write_checkpoint(path, {"weights": np.zeros(3, dtype=np.float32)})
    with pytest.raises(ContractError):
        load_model(path)


def test_config_from_meta_roundtrips_nondefaults():
    cfg = ModelConfig(task="normal", head="baseline", variant="standard",
                      k=16, d=48, n_dec=1, classes=4, widths=(8, 16, 24),
                      d_min=0.25, d_max=64.0)
    model = Model(cfg, seed=0)
    from pmx.model import _meta_tensors
    assert config_from_meta(_meta_tensors(cfg)) == cfg


@pytest.mark.parametrize("key", ["meta/task", "meta/head", "meta/variant"])
@pytest.mark.parametrize("value", [7.0, -1.0, 0.5, float("nan")])
def test_config_from_meta_rejects_bad_indices(key, value):
    from pmx.model import _meta_tensors
    tensors = _meta_tensors(ModelConfig(task="depth"))
    tensors[key] = np.float32(value)
    with pytest.raises(ContractError, match=key):
        config_from_meta(tensors)


@pytest.mark.parametrize("key,value", [
    ("meta/k", np.float32("nan")),
    ("meta/k", np.zeros(2, dtype=np.float32)),
    ("meta/d", np.float32(0)),
    ("meta/n_dec", np.float32(0.5)),
    ("meta/classes", np.float32(-1)),
    ("meta/widths", np.asarray([32, 64], dtype=np.float32)),
    ("meta/widths", np.asarray([32, 0, 64], dtype=np.float32)),
])
def test_config_from_meta_rejects_bad_counts(key, value):
    from pmx.model import _meta_tensors
    tensors = _meta_tensors(ModelConfig(task="depth"))
    tensors[key] = value
    with pytest.raises(ContractError, match=key):
        config_from_meta(tensors)


@pytest.mark.parametrize("drange", [[10.0, 0.5], [0.0, 10.0], [0.5, float("nan")],
                                    [0.5, float("inf")], [0.5]])
def test_config_from_meta_rejects_bad_depth_range(drange):
    from pmx.model import _meta_tensors
    tensors = _meta_tensors(ModelConfig(task="depth"))
    tensors["meta/drange"] = np.asarray(drange, dtype=np.float32)
    with pytest.raises(ContractError, match="range|meta/drange"):
        config_from_meta(tensors)


@pytest.mark.parametrize("bad", [
    ModelConfig(task="depth", d=0),
    ModelConfig(task="depth", classes=0),
    ModelConfig(task="depth", widths=(32, 64)),
    ModelConfig(task="depth", d_min=2.0, d_max=1.0),
])
def test_config_rejects_bad_sizes_and_depth_range(bad):
    with pytest.raises(ContractError):
        bad.validate()


@pytest.mark.parametrize("task,head,key,value", [
    ("depth", "cluster", "meta/widths", [32, 64, 4096]),
    ("depth", "cluster", "meta/widths", [16, 64, 64]),
    ("depth", "cluster", "meta/widths", [32, 48, 64]),
    ("depth", "cluster", "meta/d", 4096),
    ("depth", "cluster", "meta/k", 4096),
    ("depth", "cluster", "meta/n_dec", 64),
    ("depth", "cluster", "meta/n_dec", 1),
    ("seg", "baseline", "meta/classes", 10**6),
    ("normal", "baseline", "meta/d", 4096),
])
def test_forged_meta_dimension_fails_before_any_model_is_built(tmp_path, monkeypatch,
                                                                task, head, key, value):
    import pmx.model as model_mod
    path = str(tmp_path / "forged.pmxc")
    save_model(path, Model(ModelConfig(task=task, head=head), seed=0))
    tensors = read_checkpoint(path)
    tensors[key] = np.asarray(value, dtype=np.float32)
    write_checkpoint(path, tensors)

    def no_model(*args, **kwargs):
        raise AssertionError("a Model was built from forged metadata")

    monkeypatch.setattr(model_mod, "Model", no_model)
    with pytest.raises(ContractError):
        load_model(path)


@pytest.mark.parametrize("task,head,name", [
    ("normal", "baseline", "head/bins.fc1.w"),
    ("normal", "baseline", "enc/extra.w"),
    ("normal", "baseline", "dec/queries"),
    ("depth", "cluster", "head/normal.fc1.w"),
    ("seg", "cluster", "weights"),
])
def test_entry_no_parameter_takes_is_refused_before_any_model_is_built(tmp_path, monkeypatch,
                                                                        task, head, name):
    import pmx.model as model_mod
    path = str(tmp_path / "stray.pmxc")
    save_model(path, Model(ModelConfig(task=task, head=head), seed=0),
               {"step": np.float32(1)}, {"lr": [5e-4]})
    tensors = read_checkpoint(path)
    tensors[name] = np.zeros((64, 64), dtype=np.float32)
    write_checkpoint(path, tensors)

    def no_model(*args, **kwargs):
        raise AssertionError("a Model was built from a checkpoint with a stray entry")

    monkeypatch.setattr(model_mod, "Model", no_model)
    with pytest.raises(ContractError, match=re.escape(f"checkpoint entry {name} ")):
        load_model(path)


# ---- seeded checkpoint forgery -------------------------------------------------------

_STRAY_NAMES = ("enc/extra.w", "head/bins.fc1.w", "head/normal.fc2.b", "head/baseline.fc.w",
                "dec/queries", "dec/block0.ln1.g", "weights", "meta", "opt", "train.lr")
_PARAM_FORGERIES = ("drop", "rename", "reshape", "stray", "add block", "remove block")


def _forged(saved, block, gen):
    """One SplitMix64-drawn forgery of a checkpoint's entries: its kind and
    the new entries.  ``block`` maps each decoder-block entry suffix to an
    array of its shape."""
    kinds = _PARAM_FORGERIES + ("meta",)
    kind = kinds[gen.next_below(len(kinds))]
    tensors = dict(saved)
    params = sorted(n for n in saved if not n.startswith(("meta/", "opt/", "train/")))
    name = params[gen.next_below(len(params))]
    blocks = sorted({n.split(".")[0] for n in params if n.startswith("dec/block")})
    if kind == "drop" or (kind == "remove block" and not blocks):
        del tensors[name]
    elif kind == "rename":
        at = gen.next_below(len(name) + 1)
        new = name[:at] + "xyz_"[gen.next_below(4)] + name[at:]
        assert new not in saved
        tensors[new] = tensors.pop(name)
    elif kind == "reshape":
        shape = list(saved[name].shape)
        axis = gen.next_below(len(shape))
        how = gen.next_below(3)
        if how == 0:
            shape.append(1)
        elif how == 1 and shape[axis] > 1:
            shape[axis] -= 1
        else:
            shape[axis] += 1
        tensors[name] = np.zeros(shape, dtype=np.float32)
    elif kind == "stray":
        new = _STRAY_NAMES[gen.next_below(len(_STRAY_NAMES))]
        while new in saved:
            new += "x"
        tensors[new] = np.zeros(1 + gen.next_below(9), dtype=np.float32)
    elif kind == "add block":
        tensors.update({f"dec/block{len(blocks)}.{n}": a for n, a in block.items()})
    elif kind == "remove block":
        for n in params:
            if n.startswith(blocks[-1] + "."):
                del tensors[n]
    else:
        keys = sorted(n for n in saved if n.startswith("meta/"))
        key = keys[gen.next_below(len(keys))]
        arr = np.array(saved[key], dtype=np.float32).reshape(-1)
        arr[gen.next_below(arr.size)] = (
            gen.next_below(12) - 2, gen.next_float() * 10, (gen.next_float() - 0.5) * 2e6,
            float("nan"), float("inf"), -float("inf"))[gen.next_below(6)]
        tensors[key] = arr.reshape(np.shape(saved[key]))
    return kind, tensors


@pytest.mark.parametrize("seed,task,head", [(1, "seg", "cluster"), (2, "depth", "cluster"),
                                            (3, "normal", "baseline")])
def test_seeded_forgeries_load_or_fail_with_a_contract_error(tmp_path, seed, task, head):
    small = dict(d=8, widths=(4, 8, 8))
    path = str(tmp_path / "forged.pmxc")
    save_model(path, Model(ModelConfig(task=task, head=head, **small), seed=0),
               {"step": np.float32(2)}, {"lr": [5e-4]})
    saved = read_checkpoint(path)
    block = {n.split(".", 1)[1]: p.data for n, p in
             Model(ModelConfig(task="depth", **small), seed=0).params().items()
             if n.startswith("dec/block0.")}
    gen = SplitMix64(seed)
    seen, wrong = set(), []
    for case in range(100):
        kind, tensors = _forged(saved, block, gen)
        seen.add(kind)
        write_checkpoint(path, tensors)
        try:
            load_model(path)
            outcome = "loaded"
        except (ContractError, FormatError) as exc:
            outcome = type(exc).__name__
        if kind != "meta" and outcome != "ContractError":
            wrong.append((case, kind, outcome))
    assert seen == set(_PARAM_FORGERIES) | {"meta"}
    assert wrong == []
