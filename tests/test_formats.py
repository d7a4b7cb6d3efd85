"""Binary persistence: roundtrips, corruption detection, image dumps."""

import os
import struct
import zlib

import numpy as np
import pytest

from pmx.errors import ContractError, CorruptionError, FormatError
from pmx.formats import (
    CHECKPOINT_MAGIC,
    DATASET_MAGIC,
    fnv1a64,
    read_checkpoint,
    read_dataset,
    read_manifest,
    write_checkpoint,
    write_dataset,
)
from pmx.netpbm import quantize, read_pgm, read_ppm, write_pgm, write_ppm
from pmx.scene import Sample


def _write(tmp_path, samples, name="d.pmxd", manifest=None):
    path = str(tmp_path / name)
    write_dataset(path, samples, classes=4, d_min=0.5, d_max=10.0, manifest=manifest)
    return path


# ---- dataset files ------------------------------------------------------------


def test_dataset_roundtrip_bit_identical(tmp_path, small_split):
    path = _write(tmp_path, small_split)
    hdr, got = read_dataset(path)
    assert (hdr.count, hdr.h, hdr.w, hdr.classes) == (16, 64, 64, 4)
    assert hdr.d_min == np.float32(0.5) and hdr.d_max == np.float32(10.0)
    for a, b in zip(small_split, got):
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.normal, b.normal)


def test_dataset_writes_are_byte_stable(tmp_path, small_split):
    p1 = _write(tmp_path, small_split, "a.pmxd")
    p2 = _write(tmp_path, small_split, "b.pmxd")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_bad_magic_rejected(tmp_path, small_split):
    path = _write(tmp_path, small_split)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"WHAT"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        read_dataset(path)


def test_dataset_truncation_reports_offset(tmp_path, small_split):
    path = _write(tmp_path, small_split)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="offset"):
        read_dataset(path)


def test_dataset_unsupported_version_rejected(tmp_path, small_split):
    path = _write(tmp_path, small_split)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 99)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_dataset(path)


@pytest.mark.parametrize("classes,d_min,d_max", [
    (0, 0.5, 10.0), (4, 10.0, 0.5), (4, 0.0, 10.0), (4, 0.5, float("inf")),
    (4, float("nan"), 10.0),
])
def test_dataset_header_out_of_range_rejected(tmp_path, small_split, classes, d_min, d_max):
    path = _write(tmp_path, small_split)
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<Hff", blob, 16, classes, d_min, d_max)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError, match="header"):
        read_dataset(path)


@pytest.mark.parametrize("h,w", [(0, 0), (0, 16), (16, 0)])
def test_dataset_header_zero_size_rejected(tmp_path, h, w):
    # one sample of h*w = 0 pixels: the 26-byte file is exactly as long as it claims
    path = tmp_path / "z.pmxd"
    path.write_bytes(DATASET_MAGIC + struct.pack("<IIHHHff", 1, 1, h, w, 4, 0.5, 10.0))
    with pytest.raises(FormatError, match="header"):
        read_dataset(str(path))


def _with_label(sample, label):
    import dataclasses
    labels = sample.labels.copy()
    labels[3, 5] = label
    return dataclasses.replace(sample, labels=labels)


@pytest.mark.parametrize("label", [4, 7, 254])
def test_dataset_label_outside_the_classes_rejected(tmp_path, small_split, label):
    samples = [small_split[0], _with_label(small_split[1], label)]
    with pytest.raises(FormatError, match="sample 1 has labels outside the 4 classes"):
        read_dataset(_write(tmp_path, samples))


def test_dataset_ignore_label_accepted(tmp_path, small_split):
    samples = [_with_label(small_split[0], 255)]
    _, got = read_dataset(_write(tmp_path, samples))
    assert np.array_equal(got[0].labels, samples[0].labels)


def test_dataset_rejects_empty_and_ragged(tmp_path, small_split):
    with pytest.raises(ContractError):
        write_dataset(str(tmp_path / "e.pmxd"), [], 4, 0.5, 10.0)
    ragged = list(small_split[:2])
    import dataclasses
    ragged[1] = dataclasses.replace(ragged[1], labels=ragged[1].labels[:32])
    with pytest.raises(ContractError):
        write_dataset(str(tmp_path / "r.pmxd"), ragged, 4, 0.5, 10.0)


def _one_row(w):
    return Sample(image=np.zeros((1, w, 3), np.float32), labels=np.zeros((1, w), np.uint8),
                  depth=np.ones((1, w), np.float32), normal=np.zeros((1, w, 3), np.float32))


def test_dataset_header_field_out_of_range_is_a_contract_error(tmp_path):
    # H, W and classes are u16 in the header: a 1 x 65536 sample cannot be written
    path = tmp_path / "w.pmxd"
    with pytest.raises(ContractError, match="width 65536"):
        write_dataset(str(path), [_one_row(65536)], 4, 0.5, 10.0)
    for classes, d_min, d_max in ((65536, 0.5, 10.0), (0, 0.5, 10.0), (4, 10.0, 0.5),
                                  (4, 0.0, 10.0), (4, 0.5, 1e39)):
        with pytest.raises(ContractError):
            write_dataset(str(path), [_one_row(4)], classes, d_min, d_max)
    assert not path.exists()
    write_dataset(str(path), [_one_row(4)], 65535, 0.5, 10.0)
    assert read_dataset(str(path))[0].classes == 65535


def test_manifest_sidecar_roundtrip(tmp_path, small_split):
    manifest = {"seed": 7, "count": 16, "why": "test"}
    path = _write(tmp_path, small_split, manifest=manifest)
    assert read_manifest(path) == manifest
    assert os.path.exists(path + ".json")


def test_no_temp_files_left_behind(tmp_path, small_split):
    _write(tmp_path, small_split)
    leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
    assert leftovers == []


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_failed_write_onto_directory_leaves_no_temp_file(tmp_path, small_split, kind):
    target = tmp_path / ("out.pmxd" if kind == "dataset" else "out.pmxc")
    target.mkdir()
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(OSError):
        if kind == "dataset":
            write_dataset(str(target), small_split[:2], 4, 0.5, 10.0)
        else:
            write_checkpoint(str(target), _tensors())
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(target) == []


# ---- checkpoint files -----------------------------------------------------------


def _tensors():
    gen = np.random.default_rng(0)
    return {
        "enc/w": gen.normal(size=(4, 3, 3, 3)).astype(np.float32),
        "dec/q": gen.normal(size=(4, 8)).astype(np.float32),
        "meta/k": np.array(4.0, dtype=np.float32),
        "opt/step": np.array(12.0, dtype=np.float32),
    }


def test_checkpoint_roundtrip_exact(tmp_path):
    path = str(tmp_path / "m.pmxc")
    tensors = _tensors()
    write_checkpoint(path, tensors)
    got = read_checkpoint(path)
    assert sorted(got) == sorted(tensors)
    for name in tensors:
        assert got[name].dtype == np.float32
        assert np.array_equal(got[name], tensors[name])


def test_checkpoint_checksum_detects_bit_flip(tmp_path):
    path = str(tmp_path / "m.pmxc")
    write_checkpoint(path, _tensors())
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x40
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CorruptionError, match="checksum"):
        read_checkpoint(path)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = str(tmp_path / "m.pmxc")
    write_checkpoint(path, _tensors())
    blob = open(path, "rb").read()
    open(path, "wb").write(b"NOPE" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        read_checkpoint(path)
    open(path, "wb").write(blob[:10])
    with pytest.raises(FormatError):
        read_checkpoint(path)


def test_checkpoint_zero_dim_scalar_roundtrip(tmp_path):
    path = str(tmp_path / "s.pmxc")
    write_checkpoint(path, {"x": np.array(3.5, dtype=np.float32)})
    got = read_checkpoint(path)
    assert got["x"].shape == () and float(got["x"]) == 3.5


def _forge(path, count, entries, version=1, checksum=fnv1a64):
    """A checkpoint whose header claims ``count`` entries, with a valid checksum."""
    body = b"PMXC" + struct.pack("<II", version, count) + entries
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<Q", checksum(body)))


def _entry(name, dims, payload):
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


_MALFORMED = pytest.mark.parametrize("count,entries", [
    (5, _entry(b"x", (2,), b"\0" * 8)),
    (1, struct.pack("<H", 1) + b"x" + struct.pack("<BI", 3, 2)),
    (1, _entry(b"\xff\xfe", (), b"\0" * 4)),
    (1, _entry(b"x", (1000,), b"\0" * 8)),
    (1, _entry(b"x", (2**32 - 1, 2**32 - 1), b"")),
], ids=["count_overrun", "truncated_dims", "bad_utf8_name", "payload_overrun",
        "element_count_overflow"])


@_MALFORMED
def test_checkpoint_malformed_entries_raise_format_error(tmp_path, count, entries):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, count, entries)
    with pytest.raises(FormatError):
        read_checkpoint(path)


def test_checkpoint_forged_valid_entry_reads(tmp_path):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, 1, _entry(b"x", (2,), struct.pack("<2f", 1.5, -2.0)))
    assert read_checkpoint(path)["x"].tolist() == [1.5, -2.0]


@_MALFORMED
def test_checkpoint_v2_malformed_entries_raise_format_error(tmp_path, count, entries):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, count, entries, 2, zlib.crc32)
    with pytest.raises(FormatError):
        read_checkpoint(path)


def test_checkpoint_v2_forged_valid_entry_reads(tmp_path):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, 1, _entry(b"x", (2,), struct.pack("<2f", 1.5, -2.0)), 2, zlib.crc32)
    assert read_checkpoint(path)["x"].tolist() == [1.5, -2.0]


@pytest.mark.parametrize("version", [0, 3])
def test_checkpoint_unknown_version_rejected(tmp_path, version):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, 1, _entry(b"x", (2,), b"\0" * 8), version, zlib.crc32)
    with pytest.raises(FormatError, match="unsupported version"):
        read_checkpoint(path)


def test_checkpoint_v2_golden_bytes(tmp_path):
    tensors = {"b": np.array([1.5, -2.0], dtype=np.float32), "a": np.float32(0.25)}
    body = (CHECKPOINT_MAGIC + struct.pack("<II", 2, 2)
            + _entry(b"a", (), struct.pack("<f", 0.25))
            + _entry(b"b", (2,), struct.pack("<2f", 1.5, -2.0)))
    p1, p2 = str(tmp_path / "1.pmxc"), str(tmp_path / "2.pmxc")
    write_checkpoint(p1, tensors)
    write_checkpoint(p2, dict(reversed(list(tensors.items()))))
    blob = open(p1, "rb").read()
    assert blob[:4] == CHECKPOINT_MAGIC
    assert struct.unpack_from("<II", blob, 4) == (2, 2)
    assert blob == body + struct.pack("<Q", zlib.crc32(body))
    assert zlib.crc32(body) == 0x755978F8
    assert open(p2, "rb").read() == blob


def test_checkpoint_v2_every_bit_flip_raises(tmp_path):
    path = str(tmp_path / "m.pmxc")
    write_checkpoint(path, {"v": np.array([1.5, -2.0], dtype=np.float32),
                            "s": np.float32(3.0)})
    blob = open(path, "rb").read()
    for off in range(len(blob)):
        for bit in range(8):
            bad = bytearray(blob)
            bad[off] ^= 1 << bit
            with open(path, "wb") as fh:
                fh.write(bad)
            with pytest.raises(CorruptionError if off >= 8 else FormatError):
                read_checkpoint(path)


def test_fnv1a64_reference_values():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


# ---- netpbm dumps -----------------------------------------------------------------


def test_quantize_rounds_half_up_and_clips():
    v = np.array([0.0, 0.5, 1.0, -0.2, 1.7, 127.4 / 255.0, 127.6 / 255.0])
    q = quantize(v)
    assert q.dtype == np.uint8
    assert q.tolist() == [0, 128, 255, 0, 255, 127, 128]


def test_pgm_roundtrip(tmp_path):
    img = quantize(np.arange(64, dtype=np.float64).reshape(8, 8) / 63.0)
    path = str(tmp_path / "g.pgm")
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_ppm_roundtrip_and_header(tmp_path):
    rng = np.random.default_rng(4)
    img = quantize(rng.random((6, 5, 3)))
    path = str(tmp_path / "c.ppm")
    write_ppm(path, img)
    blob = open(path, "rb").read()
    assert blob.startswith(b"P6")
    got = read_ppm(path)
    assert got.shape == (6, 5, 3)
    assert np.array_equal(got, img)


def test_pgm_header_tolerates_comments(tmp_path):
    path = str(tmp_path / "c.pgm")
    body = bytes(range(6))
    open(path, "wb").write(b"P5\n# a comment\n3 2\n255\n" + body)
    got = read_pgm(path)
    assert got.shape == (2, 3)
    assert got.tobytes() == body


@pytest.mark.parametrize("magic,channels", [(b"P5", 1), (b"P6", 3)], ids=["pgm", "ppm"])
@pytest.mark.parametrize("header,payload", [
    (b"\n4", 0),
    (b"\nab 4\n255\n", 16),
    (b"\n4 4\n255\n", 15),
    (b"\n-4 4\n255\n", 16),
    (b"\n4 0\n255\n", 0),
    (b"\n4 4\n65535\n", 32),
], ids=["truncated-header", "non-numeric", "short-payload", "negative-width",
        "zero-height", "maxval-65535"])
def test_netpbm_malformed_input_raises_format_error(tmp_path, magic, channels, header, payload):
    path = str(tmp_path / "bad.pnm")
    open(path, "wb").write(magic + header + bytes(payload * channels))
    read = read_pgm if magic == b"P5" else read_ppm
    with pytest.raises(FormatError):
        read(path)


def test_flat_normal_encodes_to_half_gray():
    # unit normal (0,0,-1) mapped by (n+1)/2 lands on the 127/128 rounding edge
    n = np.array([[[0.0, 0.0, -1.0]]])
    enc = quantize((n + 1.0) / 2.0)
    assert enc[0, 0, 0] in (127, 128)
    assert enc[0, 0, 1] in (127, 128)
    assert enc[0, 0, 2] == 0
