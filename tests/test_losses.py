"""Training objectives: pinned closed-form values, invariances, oracles."""

import math

import numpy as np
import pytest

from pmx import precision
from pmx.errors import ContractError, ShapeError
from pmx.losses import (LossConfig, charbonnier, multiscale_grad, normal_l2,
                        rel_sq, seg_cross_entropy, silog, total_loss)
from pmx.metrics import angular_error_deg
from pmx.tensor import Tensor, parameter

from gradcheck import gradcheck


def _ones(*shape):
    return np.ones(shape)


# ---- zero at perfect prediction ----------------------------------------------------


def test_every_loss_is_zero_at_perfect_prediction(rng):
    with precision.verify():
        d = rng.uniform(0.5, 10.0, size=(2, 16))
        mask = _ones(2, 16)
        assert abs(float(silog(Tensor(d), d, mask).data)) < 1e-12
        assert abs(float(rel_sq(Tensor(d), d, mask).data)) < 1e-12
        assert abs(float(charbonnier(Tensor(d), d, mask).data)) < 1e-12
        assert abs(float(multiscale_grad(Tensor(d), d, mask, (4, 4), 2).data)) < 1e-12
        n = rng.normal(size=(2, 16, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        assert abs(float(normal_l2(Tensor(n), n, mask).data)) < 1e-12
        hot = np.full((8, 4), -50.0)
        labels = rng.integers(0, 4, size=8)
        hot[np.arange(8), labels] = 50.0
        assert float(seg_cross_entropy(Tensor(hot), labels).data) < 1e-6


# ---- silog -------------------------------------------------------------------------


def test_silog_doubled_prediction_lambda_one_is_zero():
    gt = np.linspace(1.0, 5.0, 12).reshape(1, 12)
    v = silog(Tensor(2.0 * gt), gt, _ones(1, 12), lam=1.0)
    assert abs(float(v.data)) < 1e-12


def test_silog_doubled_prediction_lambda_half_closed_form():
    # g is ln2 everywhere, so mean(g^2) - 0.5 (mean g)^2 = 0.5 ln^2 2
    gt = np.linspace(1.0, 5.0, 12).reshape(1, 12)
    v = silog(Tensor(2.0 * gt), gt, _ones(1, 12), lam=0.5)
    assert abs(float(v.data) - 0.5 * math.log(2.0) ** 2) < 1e-7


def test_silog_lambda_one_invariant_to_prediction_scale(rng):
    with precision.verify():
        gt = rng.uniform(0.5, 8.0, size=(1, 64))
        pred = rng.uniform(0.5, 8.0, size=(1, 64))
        mask = _ones(1, 64)
        base = float(silog(Tensor(pred), gt, mask, lam=1.0).data)
        for alpha in (0.1, 3.7, 42.0):
            scaled = float(silog(Tensor(alpha * pred), gt, mask, lam=1.0).data)
            assert abs(scaled - base) < 1e-10


def test_silog_respects_mask(rng):
    gt = rng.uniform(1.0, 5.0, size=(1, 8))
    pred = rng.uniform(1.0, 5.0, size=(1, 8))
    mask = np.array([[1, 1, 1, 1, 0, 0, 0, 0]], dtype=np.float64)
    full = silog(Tensor(pred[:, :4]), gt[:, :4], _ones(1, 4))
    masked = silog(Tensor(pred), gt, mask)
    assert abs(float(full.data) - float(masked.data)) < 1e-10


def test_silog_empty_mask_raises():
    with pytest.raises(ContractError):
        silog(Tensor(_ones(1, 4)), _ones(1, 4), np.zeros((1, 4)))


# ---- rel_sq ------------------------------------------------------------------------


def test_rel_sq_pinned_example():
    v = rel_sq(Tensor(np.array([[1.1]])), np.array([[1.0]]), _ones(1, 1))
    assert abs(float(v.data) - 0.01) < 1e-7


def test_rel_sq_joint_rescale_invariance(rng):
    with precision.verify():
        gt = rng.uniform(0.5, 8.0, size=(1, 32))
        pred = rng.uniform(0.5, 8.0, size=(1, 32))
        mask = _ones(1, 32)
        base = float(rel_sq(Tensor(pred), gt, mask).data)
        scaled = float(rel_sq(Tensor(5.0 * pred), 5.0 * gt, mask).data)
        assert abs(scaled - base) < 1e-10


def test_rel_sq_empty_mask_raises():
    with pytest.raises(ContractError):
        rel_sq(Tensor(_ones(1, 4)), _ones(1, 4), np.zeros((1, 4)))


# ---- charbonnier -------------------------------------------------------------------


def test_charbonnier_diff_equal_eps():
    with precision.verify():
        eps = 1e-3
        v = charbonnier(Tensor(np.array([[1.0 + eps]])), np.array([[1.0]]), _ones(1, 1), eps)
        assert abs(float(v.data) - (math.sqrt(2.0) - 1.0) * eps) < 1e-9


def test_charbonnier_diff_three():
    with precision.verify():
        v = charbonnier(Tensor(np.array([[4.0]])), np.array([[1.0]]), _ones(1, 1), 1e-3)
        assert abs(float(v.data) - (math.sqrt(9.0 + 1e-6) - 1e-3)) < 1e-9


def test_charbonnier_empty_mask_is_zero():
    v = charbonnier(Tensor(_ones(1, 4)), 2.0 * _ones(1, 4), np.zeros((1, 4)))
    assert float(v.data) == 0.0


# ---- multiscale gradient -----------------------------------------------------------


def test_grad_constant_log_offset_is_zero(rng):
    with precision.verify():
        gt = rng.uniform(0.5, 8.0, size=(1, 64))
        v = multiscale_grad(Tensor(3.0 * gt), gt, _ones(1, 64), (8, 8), 3)
        assert abs(float(v.data)) < 1e-12


def test_grad_linear_ramp_single_scale():
    with precision.verify():
        c = 0.1
        ramp = c * np.arange(8.0)
        r = np.tile(ramp, (8, 1)).reshape(1, 64)
        v = multiscale_grad(Tensor(np.exp(r)), _ones(1, 64), _ones(1, 64), (8, 8), 1)
        assert abs(float(v.data) - c) < 1e-12


def _grad_oracle(pred, gt, mask, h, w, n_scales):
    """Direct per-pixel reimplementation used only as a cross-check."""
    r = (np.log(pred) - np.log(np.where(mask > 0, gt, 1.0))) * mask
    r = r.reshape(-1, h, w).astype(np.float64)
    m = mask.reshape(-1, h, w).astype(np.float64)
    total = 0.0
    for s in range(n_scales):
        if s > 0:
            b, hs, ws = r.shape
            r = r.reshape(b, hs // 2, 2, ws // 2, 2).mean(axis=(2, 4))
            mm = m.reshape(b, hs // 2, 2, ws // 2, 2).mean(axis=(2, 4))
            m = (mm >= 1.0 - 1e-9).astype(np.float64)
        dx = np.abs(r[:, :, 1:] - r[:, :, :-1])
        px = m[:, :, 1:] * m[:, :, :-1]
        dy = np.abs(r[:, 1:, :] - r[:, :-1, :])
        py = m[:, 1:, :] * m[:, :-1, :]
        if px.sum() > 0:
            total += (dx * px).sum() / px.sum()
        if py.sum() > 0:
            total += (dy * py).sum() / py.sum()
    return total


def test_grad_matches_loop_oracle_on_random_masked_fields(rng):
    with precision.verify():
        for _ in range(10):
            pred = rng.uniform(0.5, 8.0, size=(2, 256))
            gt = rng.uniform(0.5, 8.0, size=(2, 256))
            mask = (rng.uniform(size=(2, 256)) > 0.2).astype(np.float64)
            got = float(multiscale_grad(Tensor(pred), gt, mask, (16, 16), 4).data)
            want = _grad_oracle(pred, gt, mask, 16, 16, 4)
            assert abs(got - want) < 1e-10


def test_grad_empty_mask_is_zero():
    v = multiscale_grad(Tensor(_ones(1, 16)), _ones(1, 16), np.zeros((1, 16)), (4, 4), 2)
    assert float(v.data) == 0.0


# ---- normal L2 ---------------------------------------------------------------------


def test_normal_l2_orthogonal_is_two():
    p = np.array([[[1.0, 0.0, 0.0]]])
    g = np.array([[[0.0, 1.0, 0.0]]])
    assert abs(float(normal_l2(Tensor(p), g, _ones(1, 1)).data) - 2.0) < 1e-12


def test_normal_l2_antipodal_is_four():
    p = np.array([[[0.0, 0.0, 1.0]]])
    assert abs(float(normal_l2(Tensor(p), -p, _ones(1, 1)).data) - 4.0) < 1e-12


def test_normal_l2_equals_two_minus_two_cos_theta(rng):
    with precision.verify():
        p = rng.normal(size=(1, 64, 3))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        g = rng.normal(size=(1, 64, 3))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        got = float(normal_l2(Tensor(p), g, _ones(1, 64)).data)
        theta = np.radians(angular_error_deg(p.reshape(-1, 3), g.reshape(-1, 3)))
        want = float((2.0 - 2.0 * np.cos(theta)).mean())
        assert abs(got - want) < 1e-6


def test_normal_l2_empty_mask_raises():
    p = np.zeros((1, 4, 3))
    with pytest.raises(ContractError):
        normal_l2(Tensor(p), p, np.zeros((1, 4)))


# ---- cross entropy -----------------------------------------------------------------


def test_ce_uniform_logits_is_log_c():
    logits = np.zeros((6, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    v = seg_cross_entropy(Tensor(logits), labels)
    assert abs(float(v.data) - math.log(4.0)) < 1e-7


def test_ce_confident_true_class_is_near_zero():
    logits = np.zeros((3, 4))
    labels = np.array([2, 0, 3])
    logits[np.arange(3), labels] = 100.0
    assert float(seg_cross_entropy(Tensor(logits), labels).data) < 1e-6


def test_ce_ignored_pixels_do_not_contribute(rng):
    logits = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    mixed = labels.copy()
    mixed[4:] = 255
    kept = seg_cross_entropy(Tensor(logits[:4]), labels[:4])
    masked = seg_cross_entropy(Tensor(logits), mixed)
    assert abs(float(kept.data) - float(masked.data)) < 1e-6


def test_ce_all_ignored_raises():
    with pytest.raises(ContractError):
        seg_cross_entropy(Tensor(np.zeros((4, 4))), np.full(4, 255))


def test_ce_batched_logits_match_the_flattened_call_bit_for_bit(rng):
    # (B, N, C) logits, as the seg heads return them, against (B*N, C) rows;
    # the labels flat, or stacked per image as (B, H, W)
    b, h, w, c = 3, 20, 35, 4
    x = (rng.normal(size=(b, h * w, c)) * 4.0).astype(np.float32)
    labels = rng.integers(0, c, size=b * h * w)
    labels[rng.random(b * h * w) < 0.2] = 255
    got = []
    for shape, lab in (((b * h * w, c), labels), ((b, h * w, c), labels),
                       ((b, h * w, c), labels.reshape(b, h, w))):
        p = parameter(x.reshape(shape))
        loss = seg_cross_entropy(p, lab)
        loss.backward()
        got.append((loss.data.tobytes(), p.grad.tobytes()))
    assert got[1] == got[0] and got[2] == got[0]


def test_ce_value_and_gradient_match_the_float64_analytic_form(rng):
    # d/dz of the mean NLL is (softmax(z) - onehot) * valid / n
    m, c = 50, 5
    x = rng.normal(size=(m, c)) * 3.0
    labels = rng.integers(0, c, size=m)
    labels[::7] = 255
    valid = labels != 255
    z = x - x.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    safe = np.where(valid, labels, 0)
    n = valid.sum()
    want = -(logp[np.arange(m), safe] * valid).sum() / n
    want_grad = (np.exp(logp) - np.eye(c)[safe]) * valid[:, None] / n
    with precision.verify():
        p = parameter(x)
        loss = seg_cross_entropy(p, labels)
        loss.backward()
    assert abs(float(loss.data) - want) < 1e-12
    np.testing.assert_allclose(p.grad, want_grad, rtol=0, atol=1e-12)
    assert (p.grad[~valid] == 0).all()


def test_ce_label_count_not_the_row_count_raises():
    with pytest.raises(ShapeError):
        seg_cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(5, dtype=int))


# ---- assembly ----------------------------------------------------------------------


def test_total_loss_depth_breakdown_sums_to_total(rng):
    pred = rng.uniform(0.5, 8.0, size=(1, 64))
    arrays = {"depth": rng.uniform(0.5, 8.0, size=(1, 64)), "mask": _ones(1, 64)}
    cfg = LossConfig(depth_weights=(1.0, 2.0, 0.5))
    loss, terms = total_loss("depth", Tensor(pred), arrays, cfg, (8, 8))
    want = terms["silog"] * 1.0 + terms["rel_sq"] * 2.0 + terms["grad"] * 0.5
    assert abs(float(loss.data) - want) < 1e-6


def test_total_loss_zero_weights_kill_terms(rng):
    pred = rng.uniform(0.5, 8.0, size=(1, 64))
    arrays = {"depth": rng.uniform(0.5, 8.0, size=(1, 64)), "mask": _ones(1, 64)}
    cfg = LossConfig(depth_weights=(0.0, 1.0, 0.0))
    loss, terms = total_loss("depth", Tensor(pred), arrays, cfg, (8, 8))
    assert abs(float(loss.data) - terms["rel_sq"]) < 1e-6


def test_total_loss_unknown_task_raises():
    with pytest.raises(ContractError):
        total_loss("pose", Tensor(np.zeros((1, 4))), {}, LossConfig(), (2, 2))


@pytest.mark.parametrize("bad", [
    dict(silog_lambda=-0.1),
    dict(silog_lambda=1.5),
    dict(grad_scales=0),
    dict(depth_weights=(1.0, -1.0, 1.0)),
])
def test_loss_config_validation(bad):
    with pytest.raises(ContractError):
        LossConfig(**bad)


# ---- gradients ---------------------------------------------------------------------


def _mk(rng, *shape):
    return rng.uniform(0.7, 3.0, size=shape)


@pytest.mark.parametrize("name", ["silog", "rel_sq", "charbonnier", "grad", "normal", "ce"])
def test_loss_gradients(name, rng):
    gt = _mk(rng, 1, 16)
    mask = _ones(1, 16)
    if name == "silog":
        fn, arrays = lambda d: silog(d, gt, mask, 0.5), [_mk(rng, 1, 16)]
    elif name == "rel_sq":
        fn, arrays = lambda d: rel_sq(d, gt, mask), [_mk(rng, 1, 16)]
    elif name == "charbonnier":
        fn, arrays = lambda d: charbonnier(d, gt, mask), [_mk(rng, 1, 16)]
    elif name == "grad":
        fn, arrays = lambda d: multiscale_grad(d, gt, mask, (4, 4), 2), [_mk(rng, 1, 16)]
    elif name == "normal":
        gt3 = rng.normal(size=(1, 16, 3))
        gt3 /= np.linalg.norm(gt3, axis=-1, keepdims=True)
        fn, arrays = lambda n: normal_l2(n, gt3, mask), [rng.normal(size=(1, 16, 3))]
    else:
        labels = rng.integers(0, 4, size=16)
        fn, arrays = lambda z: seg_cross_entropy(z, labels), [rng.normal(size=(16, 4))]
    assert gradcheck(fn, arrays, seed=3) < 1e-5
