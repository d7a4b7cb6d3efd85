"""Encoder-decoder stack: shapes, attention variants, gradient checks."""

import numpy as np
import pytest

from pmx import precision
from pmx.backbone import (
    Backbone,
    DecoderBlock,
    Encoder,
    Params,
    kmeans_read,
    standard_read,
)
from pmx.errors import ContractError
from pmx.rng import SplitMix64
from pmx.tensor import Tensor

from gradcheck import gradcheck

GC_TOL = 1e-5


def _backbone(seed, variant="kmeans"):
    return Backbone(Params(SplitMix64(seed)), (8, 12, 12), 8, 2, 4, variant)


def _n(seed, *shape):
    gen = SplitMix64(seed)
    return gen.normals(int(np.prod(shape))).reshape(shape)


# ---- encoder ---------------------------------------------------------------------


def test_encoder_output_is_stride_4():
    enc = Encoder(Params(SplitMix64(0)), (8, 12, 12), 8)
    y = enc(Tensor(_n(1, 2, 3, 64, 64)))
    assert y.shape == (2, 8, 16, 16)


def test_encoder_rejects_non_multiple_of_4():
    enc = Encoder(Params(SplitMix64(0)), (8, 12, 12), 8)
    with pytest.raises(ContractError):
        enc(Tensor(_n(2, 1, 3, 62, 64)))


def test_encoder_zero_image_finite():
    enc = Encoder(Params(SplitMix64(3)), (8, 12, 12), 8)
    y = enc(Tensor(np.zeros((1, 3, 32, 32))))
    assert np.isfinite(y.data).all()


def test_encoder_batch_independence():
    enc = Encoder(Params(SplitMix64(4)), (8, 12, 12), 8)
    x = _n(5, 1, 3, 32, 32)
    both = enc(Tensor(np.concatenate([x, x], axis=0)))
    np.testing.assert_allclose(both.data[0], both.data[1], atol=1e-6)


# ---- attention reads ----------------------------------------------------------------


def test_kmeans_read_single_cluster_is_mean_feature():
    f = Tensor(_n(6, 1, 10, 4))
    q = Tensor(_n(7, 1, 1, 4))
    got = kmeans_read(q, f)
    np.testing.assert_allclose(got.data[0, 0], f.data[0].mean(axis=0), atol=1e-5)


def test_kmeans_read_empty_cluster_contributes_zero():
    # two queries, all pixels aligned with query 0: query 1's read is zero,
    # so the residual add leaves query 1 unchanged through cross-attention
    f = Tensor(np.tile(np.array([[1.0, 0.0]]), (6, 1))[None])
    q = Tensor(np.array([[[2.0, 0.0], [-2.0, 0.0]]]))
    got = kmeans_read(q, f)
    np.testing.assert_allclose(got.data[0, 0], [1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(got.data[0, 1], [0.0, 0.0], atol=1e-6)


def test_kmeans_assignment_invariant_to_logit_scaling():
    f = Tensor(_n(8, 1, 20, 4))
    q1 = Tensor(_n(9, 1, 3, 4))
    q2 = Tensor(q1.data * 7.0)  # same argmax
    a1 = kmeans_read(q1, f).data
    a2 = kmeans_read(q2, f).data
    np.testing.assert_allclose(a1, a2, atol=1e-5)


def test_standard_read_uniform_features_gives_uniform_read():
    f = Tensor(np.tile(_n(10, 1, 1, 4), (1, 12, 1)))
    q = Tensor(_n(11, 1, 3, 4))
    got = standard_read(q, f)
    for k in range(3):
        np.testing.assert_allclose(got.data[0, k], f.data[0, 0], atol=1e-5)


# ---- decoder blocks ------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["standard", "kmeans"])
def test_block_gradcheck_tiny(variant):
    with precision.verify():
        p = Params(SplitMix64(3))
        blk = DecoderBlock(p, 4, variant)
    q = _n(11, 1, 2, 4)
    f = _n(12, 1, 64, 4)  # 8x8 feature grid
    err = gradcheck(lambda qq, ff: blk(qq, ff), [q, f],
                    params=list(p.made.values()))
    assert err < GC_TOL, f"{variant}: {err:.3e}"


def test_block_rejects_zero_queries():
    blk = DecoderBlock(Params(SplitMix64(0)), 4, "kmeans")
    with pytest.raises(ContractError):
        blk(Tensor(np.zeros((1, 0, 4))), Tensor(_n(13, 1, 8, 4)))


def test_full_stack_shapes_and_determinism():
    bb = _backbone(5)
    x = Tensor(_n(14, 2, 3, 32, 32))
    f1, q1, grid = bb(x)
    f2, q2, _ = bb(x)
    assert grid == (8, 8)
    assert f1.shape == (2, 64, 8) and q1.shape == (2, 4, 8)
    assert np.array_equal(f1.data, f2.data) and np.array_equal(q1.data, q2.data)


def test_query_slot_permutation_equivariance():
    b1 = _backbone(6, "standard")
    b2 = _backbone(6, "standard")
    perm = np.array([2, 0, 3, 1])
    b2.queries.data[...] = b1.queries.data[perm]
    x = Tensor(_n(15, 1, 3, 32, 32))
    _, qa, _ = b1(x)
    _, qb, _ = b2(x)
    np.testing.assert_allclose(qb.data[0], qa.data[0][perm], atol=1e-4)


def test_param_names_are_prefixed_and_unique():
    p = Params(SplitMix64(0))
    Backbone(p, (8, 12, 12), 8, 2, 4, "kmeans")
    names = list(p.made)
    assert len(names) == len(set(names))
    assert all(n.startswith(("enc/", "dec/")) for n in names)
    assert "dec/queries" in names


def test_params_take_stored_entries_as_they_are():
    stored = np.ones((2, 3), dtype=precision.dtype())
    p = Params({"x.w": stored}).sub("x.")
    w = p.normal("w", (2, 3), 1.0)
    assert w.data is stored and p.made == {"x.w": w}
    with pytest.raises(ContractError, match="x.b: missing"):
        p.full("b", (3,), 0.0)
    with pytest.raises(ContractError, match=r"x.w: shape \(2, 3\), model \(3, 2\)"):
        Params({"x.w": stored}).normal("x.w", (3, 2), 1.0)
