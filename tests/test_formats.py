"""Binary persistence: roundtrips, corruption detection, image dumps."""

import os
import struct
import threading
import tracemalloc
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
from pmx.rng import SplitMix64, mix_seed_index
from pmx.scene import Sample, SceneConfig, generate_split


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


def test_dataset_count_zero_reads_as_an_empty_split(tmp_path):
    path = tmp_path / "empty.pmxd"
    path.write_bytes(DATASET_MAGIC + struct.pack("<IIHHHff", 1, 0, 16, 16, 4, 0.5, 10.0))
    hdr, got = read_dataset(str(path))
    assert (hdr.count, hdr.h, hdr.w, hdr.classes) == (0, 16, 16, 4) and got == []


@pytest.mark.parametrize("count,h,w", [(2**32 - 1, 8000, 8000), (1, 65535, 65535)],
                         ids=["count", "pixels"])
def test_dataset_forged_size_is_a_format_error(tmp_path, count, h, w):
    # neither header's records fit in memory, and 65535 x 65535 is past numpy's dtype limit
    path = tmp_path / "forged.pmxd"
    path.write_bytes(DATASET_MAGIC + struct.pack("<IIHHHff", 1, count, h, w, 4, 0.5, 10.0)
                     + bytes(64))
    with pytest.raises(FormatError):
        read_dataset(str(path))


def test_dataset_trailing_bytes_report_offset(tmp_path, small_split):
    path = _write(tmp_path, small_split[:2])
    size = os.path.getsize(path)
    with open(path, "ab") as fh:
        fh.write(b"\0\0\0")
    with pytest.raises(FormatError, match=f"expected {size} bytes, file ends at offset {size + 3}"):
        read_dataset(path)


def _random_samples(count, h, w, seed=0):
    gen = np.random.default_rng(seed)
    return [Sample(image=gen.random((h, w, 3), dtype=np.float32),
                   labels=gen.integers(0, 4, (h, w), dtype=np.uint8),
                   depth=gen.uniform(0.5, 10.0, (h, w)).astype(np.float32),
                   normal=gen.normal(size=(h, w, 3)).astype(np.float32))
            for _ in range(count)]


def test_dataset_with_unaligned_fields_roundtrips_bit_exact(tmp_path):
    # h*w = 35 is odd, so every field after the first image starts off a 4-byte boundary
    samples = _random_samples(3, 5, 7)
    hdr, got = read_dataset(_write(tmp_path, samples))
    assert (hdr.count, hdr.h, hdr.w) == (3, 5, 7)
    for a, b in zip(samples, got):
        for name in ("image", "labels", "depth", "normal"):
            x, y = getattr(a, name), getattr(b, name)
            assert y.dtype == x.dtype and y.shape == x.shape and y.tobytes() == x.tobytes()


def test_dataset_samples_read_back_are_writable_and_disjoint(tmp_path):
    _, got = read_dataset(_write(tmp_path, _random_samples(3, 8, 8)))
    arrays = [getattr(s, name) for s in got for name in ("image", "labels", "depth", "normal")]
    assert all(a.flags.writeable for a in arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    got[0].depth[:] = -1.0
    assert (got[1].depth > 0).all()


@pytest.mark.parametrize("extra", [0, -1, 1], ids=["whole", "truncated", "trailing"])
def test_dataset_reads_through_a_pipe(tmp_path, extra):
    # a pipe has no length to check up front: the reader checks where its bytes end
    samples = _random_samples(2, 8, 8)
    blob = open(_write(tmp_path, samples), "rb").read()
    fifo = tmp_path / "pipe.pmxd"
    os.mkfifo(fifo)
    sent = blob[:len(blob) + extra] if extra < 0 else blob + b"\0" * extra
    feeder = threading.Thread(target=fifo.write_bytes, args=(sent,), daemon=True)
    feeder.start()
    try:
        if extra:
            with pytest.raises(FormatError, match=f"file ends at offset {len(sent)}$"):
                read_dataset(str(fifo))
        else:
            _, got = read_dataset(str(fifo))
            assert all(np.array_equal(a.normal, b.normal) for a, b in zip(samples, got))
    finally:
        feeder.join(timeout=10)
    assert not feeder.is_alive()


# ---- allocations: a read or a write holds about one copy of the file ------------------


@pytest.fixture(scope="module")
def split_32():
    return generate_split(seed=2, count=64, cfg=SceneConfig(size=32))


def _peak_bytes(fn):
    """Peak bytes traced while ``fn`` runs, above what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_write_dataset_allocates_no_copy_of_the_file(tmp_path, split_32):
    path = str(tmp_path / "d.pmxd")
    peak = _peak_bytes(lambda: write_dataset(path, split_32, 4, 0.5, 10.0))
    assert peak < 0.25 * os.path.getsize(path)


def test_read_dataset_allocates_about_one_copy_of_the_file(tmp_path, split_32):
    path = _write(tmp_path, split_32)
    peak = _peak_bytes(lambda: read_dataset(path))
    assert peak < 1.25 * os.path.getsize(path)


def test_write_checkpoint_allocates_no_copy_of_the_file(tmp_path):
    gen = np.random.default_rng(3)
    tensors = {f"t{i}": gen.normal(size=(64, 32, 4 + i)).astype(np.float32) for i in range(8)}
    path = str(tmp_path / "m.pmxc")
    peak = _peak_bytes(lambda: write_checkpoint(path, tensors))
    assert peak < 0.25 * os.path.getsize(path)


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


def test_failed_write_names_the_path_not_the_temp_file(tmp_path):
    path = str(tmp_path / "nodir" / "m.pmxc")
    with pytest.raises(FileNotFoundError) as exc:
        write_checkpoint(path, _tensors())
    assert exc.value.filename == path and ".tmp." not in str(exc.value)
    assert os.listdir(tmp_path) == []


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
    (2, _entry(b"a/x", (1,), struct.pack("<f", 1.0)) * 2),
    (2, _entry(b"b/x", (1,), b"\0" * 4) + _entry(b"a/y", (1,), b"\0" * 4)),
], ids=["count_overrun", "truncated_dims", "bad_utf8_name", "payload_overrun",
        "element_count_overflow", "duplicate_name", "descending_names"])


@_MALFORMED
def test_checkpoint_malformed_entries_raise_format_error(tmp_path, count, entries):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, count, entries)
    with pytest.raises(FormatError):
        read_checkpoint(path)


@pytest.mark.parametrize("first,second", [(b"a/x", b"a/x"), (b"b/x", b"a/y")],
                         ids=["duplicate", "descending"])
def test_checkpoint_name_out_of_order_is_refused_by_name(tmp_path, first, second):
    path = str(tmp_path / "forged.pmxc")
    _forge(path, 2, _entry(first, (1,), b"\0" * 4) + _entry(second, (1,), b"\0" * 4),
           2, zlib.crc32)
    with pytest.raises(FormatError, match=f"entry 1 of 2 .*'{second.decode()}'"):
        read_checkpoint(path)


def test_checkpoint_names_order_by_utf8_bytes(tmp_path):
    # the writer sorts by code point, which is the order of the UTF-8 bytes
    path = str(tmp_path / "u.pmxc")
    write_checkpoint(path, {"\u00e9": np.zeros(1), "z": np.ones(1), "\u20ac": np.zeros(2)})
    assert list(read_checkpoint(path)) == ["z", "\u00e9", "\u20ac"]


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


@pytest.mark.parametrize("write,raster", [
    (write_pgm, np.zeros((4, 5), np.uint8)),
    (write_ppm, np.zeros((4, 5, 3), np.uint8)),
], ids=["pgm", "ppm"])
def test_failed_image_write_keeps_the_old_file(tmp_path, monkeypatch, write, raster):
    path = str(tmp_path / "panel.pnm")
    open(path, "wb").write(b"old")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src)
    monkeypatch.setattr("pmx.formats.os.replace", refuse)
    with pytest.raises(PermissionError) as exc:
        write(path, raster)
    assert exc.value.filename == path
    assert open(path, "rb").read() == b"old"
    assert os.listdir(tmp_path) == ["panel.pnm"]


# ---- byte-level fuzz: every reader loads or refuses with FormatError/ContractError ---------


def _checkpoint_fields(tensors):
    """(offset, size) of every header and entry field of write_checkpoint(tensors),
    and of every entry's name."""
    fields, names, off = [(4, 4), (8, 4)], [], 12
    for name in sorted(tensors):
        rank = np.ndim(tensors[name])
        fields += [(off, 2), (off + 2 + len(name), 1)]
        names.append((off + 2, len(name)))
        off += 3 + len(name)
        fields += [(off + 4 * d, 4) for d in range(rank)]
        off += 4 * rank + 4 * np.size(tensors[name])
    return fields, names


def _fuzz_checkpoint(tmp_path):
    path = str(tmp_path / "f.pmxc")
    tensors = _tensors()
    write_checkpoint(path, tensors)
    return path, open(path, "rb").read(), _checkpoint_fields(tensors)[0]


def _fuzz_dataset(tmp_path):
    gen = np.random.default_rng(1)
    samples = [Sample(gen.random((3, 2, 3), dtype=np.float32),
                      gen.integers(0, 4, (3, 2), dtype=np.uint8),
                      gen.uniform(0.5, 10.0, (3, 2)).astype(np.float32),
                      gen.normal(size=(3, 2, 3)).astype(np.float32)) for _ in range(2)]
    path = _write(tmp_path, samples, name="f.pmxd")
    fields = [(4, 4), (8, 4), (12, 2), (14, 2), (16, 2), (18, 4), (22, 4)]
    return path, open(path, "rb").read(), fields


def _fuzz_netpbm(magic, channels):
    def make(tmp_path):
        path = str(tmp_path / "f.pnm")
        blob = magic + b"\n# c\n3 2\n255\n" + bytes(range(6 * channels))
        open(path, "wb").write(blob)
        return path, blob, [(7, 1), (9, 1), (11, 3)]   # width, height, maxval
    return make


def _forged_value(gen, size):
    top = 256 ** size - 1
    return (0, 1, 2, top, top - 1, gen.next_u64() & top, gen.next_below(64))[gen.next_below(7)]


def _fuzz_case(gen, blob, fields, crc, text):
    """A truncation, a bit flip or a forged field.  A checkpoint case gets a
    valid CRC again, so that it reaches the entry parser."""
    kind = gen.next_below(3)
    out = bytearray(blob[:gen.next_below(len(blob))] if kind == 0 else blob)
    if kind == 1:
        out[gen.next_below(len(out))] ^= 1 << gen.next_below(8)
    elif kind == 2:
        off, size = fields[gen.next_below(len(fields))]
        value = _forged_value(gen, size)
        if not text:
            out[off:off + size] = value.to_bytes(size, "little")
        elif gen.next_below(4):   # netpbm fields are decimal: forge digits, or junk
            out[off:off + size] = (str(value).encode() + b" " * size)[:size]
        else:
            out[off:off + size] = bytes(b"0123456789 -#\n\x00"[gen.next_below(15)]
                                        for _ in range(size))
    if crc and len(out) > 8:
        out[-8:] = struct.pack("<Q", zlib.crc32(bytes(out[:-8])))
    return bytes(out)


@pytest.mark.parametrize("make,read,crc,text", [
    (_fuzz_checkpoint, read_checkpoint, True, False),
    (_fuzz_dataset, read_dataset, False, False),
    (_fuzz_netpbm(b"P5", 1), read_pgm, False, True),
    (_fuzz_netpbm(b"P6", 3), read_ppm, False, True),
], ids=["checkpoint", "dataset", "pgm", "ppm"])
def test_reader_byte_fuzz_loads_or_raises_format_or_contract_error(tmp_path, make, read, crc,
                                                                   text):
    path, blob, fields = make(tmp_path)
    gen = SplitMix64(mix_seed_index(15, len(blob)))
    outcomes = {"loaded": 0, "refused": 0}
    for case in range(2000):
        mutated = _fuzz_case(gen, blob, fields, crc, text)
        with open(path, "wb") as fh:
            fh.write(mutated)
        try:
            read(path)
            outcomes["loaded"] += 1
        except (FormatError, ContractError):
            outcomes["refused"] += 1
        except Exception as exc:   # any other exception fails, naming the case
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}; bytes {mutated.hex()}")
    assert min(outcomes.values()) > 0, outcomes


def _name_case(gen, blob, names):
    """One entry name copied over another of its length, two such names
    swapped, or one name's bytes redrawn from a small alphabet; the CRC is
    made valid again, so that the case reaches the entry parser."""
    out = bytearray(blob)
    kind = gen.next_below(3)
    if kind < 2:
        pairs = [(a, b) for a in names for b in names if a != b and a[1] == b[1]]
        (a, size), (b, _) = pairs[gen.next_below(len(pairs))]
        first, second = out[a:a + size], out[b:b + size]
        out[b:b + size] = first
        if kind == 1:
            out[a:a + size] = second
    else:
        off, size = names[gen.next_below(len(names))]
        out[off:off + size] = bytes(b"abcxyz/"[gen.next_below(7)] for _ in range(size))
    out[-8:] = struct.pack("<Q", zlib.crc32(bytes(out[:-8])))
    return bytes(out)


def test_checkpoint_name_fuzz_loads_every_entry_or_raises_format_error(tmp_path):
    # on top of the byte fuzz above: a file that loads keeps one entry per name, in order
    path = str(tmp_path / "n.pmxc")
    tensors = {name: np.full(2, k, dtype=np.float32)
               for k, name in enumerate(["a/u", "a/v", "b/u", "c/w", "meta/k"])}
    write_checkpoint(path, tensors)
    blob = open(path, "rb").read()
    names = _checkpoint_fields(tensors)[1]
    gen = SplitMix64(mix_seed_index(16, len(blob)))
    outcomes = {"loaded": 0, "refused": 0}
    for case in range(500):
        mutated = _name_case(gen, blob, names)
        with open(path, "wb") as fh:
            fh.write(mutated)
        try:
            got = read_checkpoint(path)
        except FormatError:
            outcomes["refused"] += 1
            continue
        assert len(got) == len(tensors) and list(got) == sorted(got), (case, list(got))
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 0, outcomes
