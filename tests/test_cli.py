"""End-to-end command-line flows on tiny datasets."""

import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest

from pmx.cli import main
from pmx.formats import (fnv1a64, read_checkpoint, read_dataset, write_checkpoint,
                         write_dataset)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A tiny generated dataset reused by every CLI test."""
    root = tmp_path_factory.mktemp("cli")
    path = str(root / "tiny.pmxd")
    assert main(["generate", "--seed", "0", "--count", "8", "--size", "16",
                 "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def depth_ckpt(data, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    path = str(root / "depth.pmxc")
    assert main(["train", "--task", "depth", "--data", data, "--steps", "2",
                 "--batch", "4", "--out", path]) == 0
    return path


# ---- generate ----------------------------------------------------------------------


def test_generate_writes_dataset_and_manifest(data):
    assert os.path.exists(data)
    manifest = json.load(open(data + ".json"))
    assert manifest["classes"] == ["back_wall", "floor", "sphere", "box"]
    assert manifest["config"]["size"] == 16


def test_generate_output_bytes_golden(tmp_path):
    # the dataset file (header, then every sample) and its manifest, byte for byte
    out = tmp_path / "g.pmxd"
    assert main(["generate", "--count", "2", "--size", "16", "--seed", "3",
                 "--out", str(out)]) == 0
    want = {
        "g.pmxd": "e3d7d9733d0719bdd0e7d8d824be309f28ff16def6d690d297a2f193f2de09eb",
        "g.pmxd.json": "6cb3e466a18902460254616fcd5a44c5c9161de31173dfc690372f7ea3f441f3",
    }
    for name, digest in want.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_generate_rejects_bad_count(tmp_path):
    code = main(["generate", "--count", "0", "--out", str(tmp_path / "x.pmxd")])
    assert code == 2


def test_generate_rejects_bad_size(tmp_path):
    code = main(["generate", "--size", "3", "--out", str(tmp_path / "x.pmxd")])
    assert code == 2


def test_generate_onto_directory_is_one_line_runtime_error(tmp_path, capsys):
    out = tmp_path / "x.pmxd"
    out.mkdir()
    assert main(["generate", "--count", "1", "--size", "16", "--out", str(out)]) == 1
    assert _single_line_error(capsys)
    assert [f for f in os.listdir(tmp_path) if ".tmp." in f] == []


def test_generate_size_the_header_cannot_hold_is_usage_error(tmp_path, capsys, monkeypatch):
    # refused before any scene is cast: a 65536-pixel side would be 2**32 rays
    def no_work(*args, **kwargs):
        raise AssertionError("generate_split ran")
    monkeypatch.setattr("pmx.cli.generate_split", no_work)
    out = tmp_path / "x.pmxd"
    assert main(["generate", "--size", "65536", "--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "65535" in err
    assert not out.exists()


@pytest.mark.parametrize("size", ["20", "18"])
def test_generate_rejects_size_depth_training_cannot_use(tmp_path, capsys, size):
    out = tmp_path / "x.pmxd"
    assert main(["generate", "--size", size, "--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --size") and err.count("\n") == 1
    assert not out.exists()


# ---- train / eval ------------------------------------------------------------------


def test_train_writes_checkpoint_and_trace(data, tmp_path, capsys):
    out = str(tmp_path / "m.pmxc")
    trace = str(tmp_path / "trace.csv")
    code = main(["train", "--task", "depth", "--data", data, "--steps", "2",
                 "--batch", "4", "--out", out, "--trace", trace])
    assert code == 0
    assert os.path.exists(out) and os.path.exists(trace)
    stdout = capsys.readouterr().out
    assert "final loss" in stdout


def test_train_seg_k_mismatch_is_usage_error(data):
    assert main(["train", "--task", "seg", "--data", data, "--k", "8",
                 "--steps", "1"]) == 2


def test_train_missing_data_is_runtime_error(tmp_path):
    assert main(["train", "--task", "depth", "--data",
                 str(tmp_path / "absent.pmxd"), "--steps", "1"]) == 1


def test_train_zero_size_dataset_is_one_line_runtime_error(tmp_path, capsys):
    path = tmp_path / "zero.pmxd"
    path.write_bytes(b"PMXD" + struct.pack("<IIHHHff", 1, 1, 0, 0, 4, 0.5, 10.0))
    assert main(["train", "--task", "depth", "--variant", "standard",
                 "--data", str(path), "--steps", "1"]) == 1
    assert _single_line_error(capsys)


def test_train_resume_of_a_different_model_is_one_line_runtime_error(data, depth_ckpt,
                                                                     tmp_path, capsys):
    out = tmp_path / "m.pmxc"
    assert main(["train", "--task", "depth", "--data", data, "--steps", "3", "--batch", "4",
                 "--k", "8", "--variant", "standard", "--head", "baseline",
                 "--resume", depth_ckpt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    for name in ("k 4", "variant 'kmeans'", "head 'cluster'"):
        assert name in err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--seed", "3"], ["seed 0 (this run: 3)"]),
    (["--lr", "finetune", "--no-clip"], ["lr 0.0005 (this run: 5e-05)", "clip_norm 10 (this run: 0)"]),
    (["--batch", "2"], ["batch 4 (this run: 2)"]),
])
def test_train_resume_with_different_settings_is_one_line_runtime_error(
        data, depth_ckpt, tmp_path, capsys, flags, named):
    out = tmp_path / "m.pmxc"
    args = ["train", "--task", "depth", "--data", data, "--steps", "3", "--batch", "4",
            "--resume", depth_ckpt, "--out", str(out)]
    assert main(args + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    for words in named:
        assert words in err
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"opt/m/enc/out.w": None},
    {"opt/step": None},
    {"opt/v/dec/queries": np.zeros(3, dtype=np.float32)},
    {"opt/step": np.float32("nan")},
    {"opt/step": np.float32(-3)},
    {"opt/step": np.float32(1.5)},
    {"opt/v/enc/out.w": np.full((64, 64, 3, 3), -1.0, dtype=np.float32)},
    {"opt/m/dec/queries": np.full((4, 64), np.inf, dtype=np.float32)},
    {"opt/m/enc/extra.w": np.zeros(3, dtype=np.float32)},
])
def test_train_resume_with_a_forged_opt_entry_is_one_line_runtime_error(
        data, depth_ckpt, tmp_path, capsys, change):
    forged = tmp_path / "forged.pmxc"
    tensors = read_checkpoint(depth_ckpt)
    for name, value in change.items():
        if value is None:
            del tensors[name]
        else:
            tensors[name] = value
    write_checkpoint(str(forged), tensors)
    out = tmp_path / "m.pmxc"
    assert main(["train", "--task", "depth", "--data", data, "--steps", "3", "--batch", "4",
                 "--resume", str(forged), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert next(iter(change)) in err
    assert not out.exists()


def test_train_resume_of_the_same_model_continues(data, depth_ckpt, tmp_path):
    out = tmp_path / "m.pmxc"
    assert main(["train", "--task", "depth", "--data", data, "--steps", "3", "--batch", "4",
                 "--resume", depth_ckpt, "--out", str(out)]) == 0
    assert out.exists()


def test_eval_prints_report_json(data, depth_ckpt, capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    code = main(["eval", "--task", "depth", "--data", data,
                 "--ckpt", depth_ckpt, "--report", report_path])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    payload = json.loads(line)
    assert payload["task"] == "depth"
    assert 0.0 <= payload["delta1"] <= 1.0
    assert json.load(open(report_path)) == payload


def test_eval_oracle_is_perfect(data, capsys):
    assert main(["eval", "--task", "seg", "--data", data, "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["miou"] == 1.0


def test_eval_task_mismatch_is_runtime_error(data, depth_ckpt):
    assert main(["eval", "--task", "seg", "--data", data,
                 "--ckpt", depth_ckpt]) == 1


def test_eval_missing_checkpoint_is_runtime_error(data, tmp_path):
    assert main(["eval", "--task", "depth", "--data", data,
                 "--ckpt", str(tmp_path / "none.pmxc")]) == 1


def _single_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _relabeled(data, path, label, classes):
    """A copy of the dataset with one pixel relabeled and the header's class
    count set to ``classes``."""
    header, samples = read_dataset(data)
    samples[2].labels[5, 6] = label
    write_dataset(str(path), samples, classes, header.d_min, header.d_max)
    return str(path)


def test_eval_oracle_label_outside_the_classes_is_one_line_runtime_error(data, tmp_path,
                                                                         capsys):
    bad = _relabeled(data, tmp_path / "bad.pmxd", 7, 4)
    assert main(["eval", "--task", "seg", "--data", bad, "--oracle"]) == 1
    assert _single_line_error(capsys)


def test_train_label_outside_the_classes_is_one_line_runtime_error(data, tmp_path, capsys):
    bad = _relabeled(data, tmp_path / "bad.pmxd", 7, 4)
    out = tmp_path / "m.pmxc"
    assert main(["train", "--task", "seg", "--data", bad, "--steps", "1", "--batch", "4",
                 "--out", str(out)]) == 1
    assert _single_line_error(capsys)
    assert not out.exists()


def test_eval_seg_checkpoint_on_more_classes_is_one_line_runtime_error(data, tmp_path,
                                                                       capsys):
    ckpt = str(tmp_path / "seg.pmxc")
    assert main(["train", "--task", "seg", "--data", data, "--steps", "1", "--batch", "4",
                 "--out", ckpt]) == 0
    five = _relabeled(data, tmp_path / "five.pmxd", 4, 5)
    capsys.readouterr()
    assert main(["eval", "--task", "seg", "--data", five, "--ckpt", ckpt]) == 1
    assert _single_line_error(capsys)


def test_eval_malformed_checkpoint_is_one_line_runtime_error(data, tmp_path, capsys):
    # checksum-valid file with one 2-float entry whose header claims 5 entries
    body = (b"PMXC" + struct.pack("<II", 1, 5) + struct.pack("<H", 1) + b"x"
            + struct.pack("<BI", 1, 2) + b"\0" * 8)
    path = tmp_path / "forged.pmxc"
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
    assert main(["eval", "--task", "depth", "--data", data, "--ckpt", str(path)]) == 1
    assert _single_line_error(capsys)


def test_eval_unsupported_checkpoint_version_is_one_line_runtime_error(data, tmp_path, capsys):
    body = (b"PMXC" + struct.pack("<II", 3, 1) + struct.pack("<H", 1) + b"x"
            + struct.pack("<BI", 1, 2) + b"\0" * 8)
    path = tmp_path / "v3.pmxc"
    path.write_bytes(body + struct.pack("<Q", zlib.crc32(body)))
    assert main(["eval", "--task", "depth", "--data", data, "--ckpt", str(path)]) == 1
    assert _single_line_error(capsys)


def test_eval_out_of_range_meta_index_is_one_line_runtime_error(data, depth_ckpt, tmp_path,
                                                                 capsys):
    tensors = {n: a for n, a in read_checkpoint(depth_ckpt).items() if not n.startswith("opt/")}
    tensors["meta/task"] = np.float32(7)
    path = str(tmp_path / "bad_meta.pmxc")
    write_checkpoint(path, tensors)
    assert main(["eval", "--task", "depth", "--data", data, "--ckpt", path]) == 1
    assert _single_line_error(capsys)


@pytest.mark.parametrize("key,value", [
    ("meta/k", np.float32("nan")),
    ("meta/widths", np.asarray([32, 64], dtype=np.float32)),
    ("meta/d", np.float32(0)),
])
def test_eval_malformed_meta_count_is_one_line_runtime_error(data, depth_ckpt, tmp_path,
                                                             capsys, key, value):
    tensors = {n: a for n, a in read_checkpoint(depth_ckpt).items() if not n.startswith("opt/")}
    tensors[key] = value
    path = str(tmp_path / "bad_meta.pmxc")
    write_checkpoint(path, tensors)
    assert main(["eval", "--task", "depth", "--data", data, "--ckpt", path]) == 1
    assert _single_line_error(capsys)


def test_eval_forged_meta_widths_is_one_line_runtime_error(data, depth_ckpt, tmp_path, capsys):
    # checksum-valid; the entries still hold the (32, 64, 64) encoder
    tensors = read_checkpoint(depth_ckpt)
    tensors["meta/widths"] = np.asarray([32, 64, 4096], dtype=np.float32)
    path = str(tmp_path / "forged_widths.pmxc")
    write_checkpoint(path, tensors)
    assert main(["eval", "--task", "depth", "--data", data, "--ckpt", path]) == 1
    assert _single_line_error(capsys)


@pytest.mark.parametrize("name", ["enc/extra.w", "head/normal.fc1.w", "dec/block2.ln1.g"])
def test_eval_entry_no_parameter_takes_is_one_line_runtime_error(data, depth_ckpt, tmp_path,
                                                                   capsys, name):
    tensors = read_checkpoint(depth_ckpt)
    tensors[name] = np.zeros(64, dtype=np.float32)
    path = str(tmp_path / "stray.pmxc")
    write_checkpoint(path, tensors)
    capsys.readouterr()
    assert main(["eval", "--task", "depth", "--data", data, "--ckpt", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert name in err


@pytest.mark.parametrize("command", ["train", "ablate-k", "compare-baseline"])
@pytest.mark.parametrize("flags", [
    ["--steps", "0"], ["--batch", "0"], ["--k", "0"], ["--lr", "nan"],
    ["--eval-every", "-1"],
])
def test_train_family_bad_flag_is_one_line_usage_error(data, tmp_path, capsys, command, flags):
    if command == "ablate-k" and flags[0] == "--k":
        flags = ["--k-list", "4,0"]
    argv = [command, "--task", "depth", "--data", data, "--steps", "1", "--batch", "4"]
    if command == "train":
        argv += ["--out", str(tmp_path / "m.pmxc")]
    assert main(argv + flags) == 2
    assert _single_line_error(capsys)
    assert not (tmp_path / "m.pmxc").exists()


# ---- predict / probability maps ------------------------------------------------------


def test_predict_writes_depth_panel(data, depth_ckpt, tmp_path):
    out = str(tmp_path / "viz")
    assert main(["predict", "--ckpt", depth_ckpt, "--data", data,
                 "--index", "1", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "pred_depth.pgm"))


def test_predict_index_out_of_range(data, depth_ckpt, tmp_path):
    assert main(["predict", "--ckpt", depth_ckpt, "--data", data,
                 "--index", "99", "--out", str(tmp_path)]) == 2


def test_probmaps_write_one_panel_per_cluster(data, depth_ckpt, tmp_path):
    out = str(tmp_path / "panels")
    assert main(["dump-probmaps", "--ckpt", depth_ckpt, "--data", data,
                 "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == [f"probmap_depth_{k}.pgm" for k in range(4)]


def test_probmaps_on_baseline_is_runtime_error(data, tmp_path):
    ckpt = str(tmp_path / "base.pmxc")
    assert main(["train", "--task", "depth", "--data", data, "--steps", "1",
                 "--batch", "4", "--head", "baseline", "--out", ckpt]) == 0
    assert main(["dump-probmaps", "--ckpt", ckpt, "--data", data,
                 "--out", str(tmp_path / "p")]) == 1


# ---- harness subcommands -------------------------------------------------------------


def test_ablate_k_prints_one_line_per_k(data, capsys):
    code = main(["ablate-k", "--task", "depth", "--data", data, "--steps", "1",
                 "--batch", "4", "--k-list", "2,4"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("K=")]
    assert len(lines) == 2 and lines[0].startswith("K=2") and lines[1].startswith("K=4")


def test_ablate_k_bad_list_is_usage_error(data):
    assert main(["ablate-k", "--task", "depth", "--data", data,
                 "--k-list", "four"]) == 2
    assert main(["ablate-k", "--task", "depth", "--data", data,
                 "--k-list", ","]) == 2


def test_compare_baseline_prints_both_and_deltas(data, capsys):
    code = main(["compare-baseline", "--task", "depth", "--data", data,
                 "--steps", "1", "--batch", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cluster {" in out and "baseline {" in out
    assert "delta delta1" in out


def test_missing_required_flag_exits_two(data):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", data])
    assert exc.value.code == 2


def test_lr_preset_names_accepted(data, tmp_path):
    assert main(["train", "--task", "depth", "--data", data, "--steps", "1",
                 "--batch", "4", "--lr", "finetune",
                 "--out", str(tmp_path / "m.pmxc")]) == 0
