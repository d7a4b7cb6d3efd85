"""Cluster heads: shared probability map, bins, sphere segments, baseline."""

import contextlib

import numpy as np
import pytest

from pmx import precision
from pmx.backbone import Params
from pmx.errors import ContractError, ShapeError
from pmx.heads import (
    BaselineHead,
    BinsHead,
    NormalHead,
    bins_from_logits,
    depth_compose,
    normal_compose,
    probability_map,
    seg_predict,
    upsample_planes,
    upsample_rows,
)
from pmx.rng import SplitMix64
from pmx.tensor import Tensor


def _n(seed, *shape):
    gen = SplitMix64(seed)
    return gen.normals(int(np.prod(shape))).reshape(shape)


# ---- probability map ------------------------------------------------------------


def test_probability_map_two_query_example():
    f = Tensor([[1.0, 0.0]])
    q = Tensor([[1.0, 0.0], [0.0, 1.0]])
    p = probability_map(f, q)
    np.testing.assert_allclose(p.data[0], [0.73105858, 0.26894142], atol=1e-6)


def test_probability_map_identical_queries_uniform():
    f = Tensor(_n(1, 6, 4))
    q = Tensor(np.tile(_n(2, 1, 4), (5, 1)))
    p = probability_map(f, q)
    np.testing.assert_allclose(p.data, 0.2, atol=1e-6)


def test_probability_map_rows_sum_to_one():
    p = probability_map(Tensor(_n(3, 2, 50, 8)), Tensor(_n(4, 2, 6, 8)))
    np.testing.assert_allclose(p.data.sum(-1), 1.0, atol=1e-6)


def test_probability_map_rejects_mismatched_dims():
    with pytest.raises(ShapeError):
        probability_map(Tensor(_n(5, 4, 8)), Tensor(_n(6, 3, 7)))


def test_upsampled_map_rows_still_sum_to_one():
    p4 = probability_map(Tensor(_n(7, 1, 16, 8)), Tensor(_n(8, 1, 4, 8)))
    p = upsample_rows(p4, (4, 4))
    assert p.shape == (1, 256, 4)
    np.testing.assert_allclose(p.data.sum(-1), 1.0, atol=1e-6)


def test_upsample_rows_rejects_bad_grid():
    with pytest.raises(ShapeError):
        upsample_rows(Tensor(_n(9, 1, 15, 2)), (4, 4))


# ---- segmentation ---------------------------------------------------------------


def test_seg_predict_one_hot_rows():
    p = Tensor(np.eye(4)[[2, 0, 3, 3, 1]])
    np.testing.assert_array_equal(seg_predict(p, 4), [2, 0, 3, 3, 1])


def test_seg_predict_matches_raw_logit_argmax():
    f = Tensor(_n(11, 100, 8))
    q = Tensor(_n(12, 4, 8))
    logits = f.matmul(q.transpose_last2())
    p = logits.softmax(axis=-1)
    np.testing.assert_array_equal(seg_predict(p, 4), logits.data.argmax(-1))


def test_seg_predict_tie_takes_lowest_index():
    p = Tensor(np.array([[0.1, 0.4, 0.1, 0.4]]))
    assert seg_predict(p, 4)[0] == 1


def test_seg_predict_enforces_k_equals_c():
    with pytest.raises(ContractError):
        seg_predict(Tensor(np.full((2, 5), 0.2)), 4)


# ---- depth bins ------------------------------------------------------------------


def test_equal_logits_k4_reference_bins_64bit_one_ulp():
    # the real-arithmetic centers are exactly these decimals (widths 2.475
    # each), but fl(0.1) and fl(9.9) carry representation error, so the
    # correctly rounded float64 result can land one double away from the
    # decimal parse regardless of evaluation order; one ulp is the
    # tightest achievable bound and still rules out any formula slip
    with precision.verify():
        b, w = bins_from_logits(Tensor(np.zeros(4)), 0.1, 10.0)
        ref = np.array([1.3375, 3.8125, 6.2875, 8.7625])
        assert np.all(np.abs(b.data - ref) <= np.spacing(ref))
        np.testing.assert_allclose(w.data.sum(), 9.9, atol=1e-12)


def test_single_bin_is_range_midpoint():
    b, _ = bins_from_logits(Tensor(np.zeros(1)), 0.5, 10.0)
    np.testing.assert_allclose(b.data, [5.25], atol=1e-6)


def test_bins_strictly_increasing_inside_range_for_random_logits():
    gen = SplitMix64(13)
    for _ in range(200):
        logits = Tensor(gen.normals(6) * 3.0)
        b, w = bins_from_logits(logits, 0.5, 10.0)
        v = b.data.astype(np.float64)
        assert (np.diff(v) > 0).all()
        assert v.min() > 0.5 and v.max() < 10.0
        np.testing.assert_allclose(w.data.sum(), 9.5, rtol=1e-5)


def test_bins_invariant_to_logit_shift():
    logits = _n(14, 5)
    b1, _ = bins_from_logits(Tensor(logits), 0.5, 10.0)
    b2, _ = bins_from_logits(Tensor(logits + 3.0), 0.5, 10.0)
    np.testing.assert_allclose(b1.data, b2.data, atol=1e-5)


def test_depth_compose_dot_product_example():
    p = Tensor(np.array([[[0.25, 0.75]]]))
    b = Tensor(np.array([[2.0, 4.0]]))
    # a 1x1 grid upsamples to 16 identical pixels
    np.testing.assert_allclose(depth_compose(p, b, (1, 1)).data, np.full((1, 16), 3.5),
                               atol=1e-7)


def test_depth_compose_one_hot_and_uniform():
    b = Tensor(np.array([[1.0, 3.0]]))
    one_hot = Tensor(np.array([[[0.0, 1.0]]]))
    np.testing.assert_allclose(depth_compose(one_hot, b, (1, 1)).data, np.full((1, 16), 3.0),
                               atol=1e-7)
    uniform = Tensor(np.array([[[0.5, 0.5]]]))
    np.testing.assert_allclose(depth_compose(uniform, b, (1, 1)).data, np.full((1, 16), 2.0),
                               atol=1e-7)


def test_depth_compose_stays_convex_for_random_draws():
    gen = SplitMix64(15)
    head = BinsHead(Params(SplitMix64(16)), 8)
    for _ in range(50):
        q = Tensor(gen.normals(2 * 3 * 8).reshape(2, 3, 8))
        b, _ = head(q, 0.5, 10.0)
        p = probability_map(Tensor(gen.normals(2 * 20 * 8).reshape(2, 20, 8)),
                            q)
        d = depth_compose(p, b, (4, 5)).data
        lo = b.data.min(axis=1, keepdims=True)
        hi = b.data.max(axis=1, keepdims=True)
        assert (d >= lo - 1e-5).all() and (d <= hi + 1e-5).all()


# ---- surface normals ---------------------------------------------------------------


def test_normal_head_rows_are_unit():
    head = NormalHead(Params(SplitMix64(17)), 8)
    v = head(Tensor(_n(18, 2, 5, 8)))
    np.testing.assert_allclose(np.linalg.norm(v.data, axis=-1), 1.0, atol=1e-5)


def test_normal_compose_blend_example():
    p = Tensor(np.array([[[0.5, 0.5]]]))
    v = Tensor(np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]))
    n, prenorm = normal_compose(p, v, (1, 1))
    s = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(n.data[0, 0], [s, s, 0.0], atol=1e-6)
    np.testing.assert_allclose(prenorm[0, 0], np.sqrt(0.5), atol=1e-6)


def test_normal_compose_antipodal_degenerate_is_finite_and_flagged():
    p = Tensor(np.array([[[0.5, 0.5]]]))
    v = Tensor(np.array([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]]))
    n, prenorm = normal_compose(p, v, (1, 1))
    assert np.isfinite(n.data).all()
    assert prenorm[0, 0] < 1e-7


def test_normal_compose_one_hot_returns_center():
    p = Tensor(np.array([[[0.0, 1.0]]]))
    v = Tensor(np.array([[[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]]))
    n, _ = normal_compose(p, v, (1, 1))
    np.testing.assert_allclose(n.data[0, 0], [0.0, 0.6, 0.8], atol=1e-6)


def test_grid_composition_matches_full_resolution_map():
    # oracle: upsample the K-channel map first, renormalize its rows, then
    # compose; the shipped order composes on the non-square 3x5 grid first
    with precision.verify():
        gen = SplitMix64(24)
        p4 = probability_map(Tensor(gen.normals(2 * 15 * 8).reshape(2, 15, 8)),
                             Tensor(gen.normals(2 * 4 * 8).reshape(2, 4, 8)))
        u = upsample_rows(p4, (3, 5)).data
        assert u.shape == (2, 240, 4)
        b, _ = bins_from_logits(Tensor(gen.normals(8).reshape(2, 4)), 0.5, 10.0)
        want_d = ((u / u.sum(-1, keepdims=True)) @ b.data[..., None])[..., 0]
        np.testing.assert_allclose(depth_compose(p4, b, (3, 5)).data, want_d, rtol=1e-12)
        v = Tensor(gen.normals(2 * 4 * 3).reshape(2, 4, 3))
        raw = u @ v.data
        norm = np.linalg.norm(raw, axis=-1)
        n, prenorm = normal_compose(p4, v, (3, 5))
        np.testing.assert_allclose(prenorm, norm, rtol=1e-12)
        np.testing.assert_allclose(n.data, raw / norm[..., None], rtol=0, atol=1e-12)


# ---- row-layout oracles for the plane-wise normal heads -------------------------------
# The normal heads normalize (B, 3, HW) planes and turn only the unit result
# back into rows.  These oracles are the row-layout code they replaced; a sum
# over the plane axis adds (x² + y²) + z² in the same order as a row sum, so
# outputs, prenorm and gradients must match bit for bit.


def _row_unit(v):
    norm = (v * v).sum(axis=-1, keepdims=True).sqrt().clamp_min(1e-8)
    return v / norm.expand_axis(v.ndim - 1, v.shape[-1])


def _row_normal_compose(p, v, grid):
    raw = upsample_rows(p.matmul(v), grid)
    return _row_unit(raw), np.sqrt((raw.data ** 2).sum(axis=-1))


def _leaves(seed, *shapes):
    gen = SplitMix64(seed)
    return [Tensor(gen.normals(int(np.prod(s))).reshape(s), requires_grad=True) for s in shapes]


def _grads_after(out, leaves, seed):
    w = Tensor(SplitMix64(seed).normals(out.data.size).reshape(out.shape))
    for t in leaves:
        t.grad = None
    (out * w).sum().backward()
    return [t.grad.copy() for t in leaves]


@pytest.mark.parametrize("verify", [False, True])
def test_normal_compose_matches_row_oracle_bit_for_bit(verify):
    with precision.verify() if verify else contextlib.nullcontext():
        f, q, v = _leaves(31, (2, 15, 8), (2, 4, 8), (2, 4, 3))
        v.data[0, 1] = -v.data[0, 0]            # an antipodal pair of centers
        # each side gets its own P, so the two backward passes share no node
        n, prenorm = normal_compose(probability_map(f, q), v, (3, 5))
        want, want_pre = _row_normal_compose(probability_map(f, q), v, (3, 5))
        assert n.data.dtype == precision.dtype() and n.shape == (2, 240, 3)
        assert np.array_equal(n.data, want.data)
        assert np.array_equal(prenorm, want_pre)
        got = _grads_after(n, (f, q, v), 32)
        for g, w in zip(got, _grads_after(want, (f, q, v), 32)):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("verify", [False, True])
def test_baseline_normal_matches_row_oracle_bit_for_bit(verify):
    with precision.verify() if verify else contextlib.nullcontext():
        head = BaselineHead(Params(SplitMix64(33)), 8, "normal", 4)
        (f,) = _leaves(34, (2, 12, 8))
        out = head(f, (3, 4))
        want = _row_unit(upsample_rows(head.fc(f), (3, 4)))
        assert out.data.dtype == precision.dtype() and out.shape == (2, 192, 3)
        assert np.array_equal(out.data, want.data)
        leaves = (f, head.fc.weight, head.fc.bias)
        for g, w in zip(_grads_after(out, leaves, 35), _grads_after(want, leaves, 35)):
            assert np.array_equal(g, w)


def test_upsample_planes_are_the_transposed_rows():
    rows = Tensor(_n(36, 2, 6, 5))
    planes = upsample_planes(rows, (2, 3))
    assert planes.shape == (2, 5, 96)
    assert np.array_equal(planes.data.swapaxes(-1, -2), upsample_rows(rows, (2, 3)).data)


# ---- baseline head -------------------------------------------------------------------


def test_baseline_depth_zero_weights_gives_midpoint():
    head = BaselineHead(Params(SplitMix64(19)), 8, "depth", 4, 0.5, 10.0)
    head.fc.weight.data[...] = 0.0
    head.fc.bias.data[...] = 0.0
    out = head(Tensor(_n(20, 1, 16, 8)), (4, 4))
    np.testing.assert_allclose(out.data, 5.25, atol=1e-5)


def test_baseline_normal_outputs_unit_rows():
    head = BaselineHead(Params(SplitMix64(21)), 8, "normal", 4)
    out = head(Tensor(_n(22, 1, 16, 8)), (4, 4))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-5)


def test_baseline_seg_identity_weights_recover_class():
    head = BaselineHead(Params(SplitMix64(23)), 4, "seg", 4)
    head.fc.weight.data[...] = np.eye(4)
    head.fc.bias.data[...] = 0.0
    f = np.zeros((1, 16, 4))
    f[0, :, 2] = 5.0  # every pixel's feature points at class 2
    out = head(Tensor(f), (4, 4))
    assert (out.data.argmax(-1) == 2).all()
