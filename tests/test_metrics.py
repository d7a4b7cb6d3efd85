"""Evaluation metrics against hand examples and naive per-pixel oracles."""

import math

import numpy as np
import pytest

from pmx.errors import ContractError
from pmx.metrics import (MetricReport, _lower_median, angular_error_deg, confusion_matrix,
                         depth_metrics, miou, normal_metrics)


# ---- mIoU --------------------------------------------------------------------------


def test_miou_perfect_is_one(rng):
    labels = rng.integers(0, 4, size=(16, 16))
    _, m = miou(labels, labels, 4)
    assert m == 1.0


def test_miou_disjoint_two_class_is_zero():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 0, 0])
    _, m = miou(pred, gt, 2)
    assert m == 0.0


def test_miou_hand_confusion_example():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    iou, m = miou(pred, gt, 2)
    assert abs(iou[0] - 0.5) < 1e-15
    assert abs(iou[1] - 2.0 / 3.0) < 1e-15
    assert abs(m - 7.0 / 12.0) < 1e-15


def test_miou_absent_class_excluded():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    iou, m = miou(pred, gt, 3)
    assert np.isnan(iou[2])
    assert m == 1.0


def test_miou_ignore_label_excluded():
    gt = np.array([0, 255, 1, 255])
    pred = np.array([0, 1, 1, 0])
    _, m = miou(pred, gt, 2)
    assert m == 1.0


def test_miou_relabel_permutation_symmetry(rng):
    gt = rng.integers(0, 4, size=256)
    pred = rng.integers(0, 4, size=256)
    _, base = miou(pred, gt, 4)
    perm = rng.permutation(4)
    _, relabeled = miou(perm[pred], perm[gt], 4)
    assert abs(base - relabeled) < 1e-12


def test_confusion_matrix_counts():
    gt = np.array([0, 0, 1, 1, 1])
    pred = np.array([0, 1, 1, 1, 0])
    con = confusion_matrix(pred, gt, 2)
    assert con.tolist() == [[1, 1], [1, 2]]


@pytest.mark.parametrize("pred,gt,named", [
    ([0, 1, 2], [0, 1, 1], "prediction ids span 0..2"),
    ([0, 1, 1], [0, 7, 1], "label ids span 0..7"),
    ([0, -1, 1], [0, 1, 1], "prediction ids span -1..1"),
    ([0, 1, 1], [0, 1, 254], "label ids span 0..254"),
])
def test_confusion_matrix_rejects_ids_outside_the_classes(pred, gt, named):
    with pytest.raises(ContractError, match=named):
        confusion_matrix(np.array(pred), np.array(gt), 2)


def test_confusion_matrix_ignores_any_prediction_at_ignored_pixels():
    con = confusion_matrix(np.array([0, 255, -4, 1]), np.array([0, 255, 255, 1]), 2)
    assert con.tolist() == [[1, 0], [0, 1]]


# ---- depth -------------------------------------------------------------------------


def test_depth_perfect(rng):
    d = rng.uniform(0.5, 10.0, size=64)
    out = depth_metrics(d, d, np.ones(64))
    assert out["rms"] == 0.0 and out["a_rel"] == 0.0 and out["log10"] == 0.0
    assert out["delta1"] == out["delta2"] == out["delta3"] == 1.0


def test_depth_boundary_ratio_is_delta2_only():
    out = depth_metrics(np.array([1.3]), np.array([1.0]), np.ones(1))
    assert out["delta1"] == 0.0
    assert out["delta2"] == 1.0
    assert out["delta3"] == 1.0


def test_depth_rms_hand_example():
    out = depth_metrics(np.array([1.0, 3.0]), np.array([1.0, 1.0]), np.ones(2))
    assert abs(out["rms"] - math.sqrt(2.0)) < 1e-15


def test_depth_empty_mask_raises():
    with pytest.raises(ContractError):
        depth_metrics(np.ones(4), np.ones(4), np.zeros(4))


def test_depth_delta_monotone(rng):
    for _ in range(20):
        d = rng.uniform(0.5, 10.0, size=256)
        g = rng.uniform(0.5, 10.0, size=256)
        out = depth_metrics(d, g, np.ones(256))
        assert out["delta1"] <= out["delta2"] <= out["delta3"]


def _depth_oracle(d, g, mask):
    sums = {"sq": 0.0, "rel": 0.0, "l10": 0.0, "d1": 0, "d2": 0, "d3": 0}
    n = 0
    for i in range(d.size):
        if not mask.flat[i]:
            continue
        n += 1
        di, gi = float(d.flat[i]), float(g.flat[i])
        sums["sq"] += (di - gi) ** 2
        sums["rel"] += abs(di - gi) / gi
        sums["l10"] += abs(math.log10(di) - math.log10(gi))
        ratio = max(di / gi, gi / di)
        for j, key in enumerate(("d1", "d2", "d3"), start=1):
            if ratio < 1.25 ** j:
                sums[key] += 1
    return {
        "rms": math.sqrt(sums["sq"] / n),
        "a_rel": sums["rel"] / n,
        "log10": sums["l10"] / n,
        "delta1": sums["d1"] / n,
        "delta2": sums["d2"] / n,
        "delta3": sums["d3"] / n,
    }


def test_depth_matches_loop_oracle(rng):
    for _ in range(5):
        d = rng.uniform(0.5, 10.0, size=(16, 16))
        g = rng.uniform(0.5, 10.0, size=(16, 16))
        mask = rng.uniform(size=(16, 16)) > 0.2
        got = depth_metrics(d, g, mask)
        want = _depth_oracle(d, g, mask)
        for k, v in want.items():
            assert abs(got[k] - v) < 1e-10, k


# ---- normals -----------------------------------------------------------------------


def _unit(rng, *shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_normal_perfect(rng):
    n = _unit(rng, 64)
    out = normal_metrics(n, n, np.ones(64))
    assert out["mean_deg"] < 1e-5 and out["rms_deg"] < 1e-5
    assert out["inlier_11"] == out["inlier_22"] == out["inlier_30"] == 1.0


def test_normal_orthogonal_pair_is_ninety():
    p = np.array([[1.0, 0.0, 0.0]])
    g = np.array([[0.0, 1.0, 0.0]])
    assert abs(angular_error_deg(p, g)[0] - 90.0) < 1e-10


def test_normal_thirty_degree_pair():
    # the sin/cos/arccos round trip lands a few ulp shy of 30, so an exact
    # threshold hit is unreachable end-to-end; the strict rule is pinned by
    # the bracketing test below
    p = np.array([[0.0, 0.0, 1.0]])
    g = np.array([[0.0, math.sin(math.radians(30.0)), math.cos(math.radians(30.0))]])
    out = normal_metrics(p, g, np.ones(1))
    assert abs(out["mean_deg"] - 30.0) < 1e-9
    assert out["inlier_22"] == 0.0


def test_normal_inlier_rule_brackets_every_threshold():
    for deg, key in ((11.5, "inlier_11"), (22.5, "inlier_22"), (30.0, "inlier_30")):
        for offset, want in ((-0.01, 1.0), (0.01, 0.0)):
            a = math.radians(deg + offset)
            p = np.array([[0.0, 0.0, 1.0]])
            g = np.array([[0.0, math.sin(a), math.cos(a)]])
            out = normal_metrics(p, g, np.ones(1))
            assert out[key] == want, (deg, offset)


def test_normal_lower_median_even_count():
    p = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    g = np.stack([
        [0.0, math.sin(math.radians(10.0)), math.cos(math.radians(10.0))],
        [0.0, math.sin(math.radians(20.0)), math.cos(math.radians(20.0))],
    ])
    out = normal_metrics(p, g, np.ones(2))
    assert abs(out["median_deg"] - 10.0) < 1e-9


def test_normal_empty_mask_raises():
    with pytest.raises(ContractError):
        normal_metrics(np.ones((4, 3)), np.ones((4, 3)), np.zeros(4))


def _normal_oracle(p, g, mask):
    thetas = []
    for i in range(mask.size):
        if not mask.flat[i]:
            continue
        pv = p.reshape(-1, 3)[i].astype(np.float64)
        gv = g.reshape(-1, 3)[i].astype(np.float64)
        pv = pv / max(np.linalg.norm(pv), 1e-12)
        gv = gv / max(np.linalg.norm(gv), 1e-12)
        dot = min(1.0, max(-1.0, float(pv @ gv)))
        thetas.append(math.degrees(math.acos(dot)))
    thetas.sort()
    n = len(thetas)
    return {
        "mean_deg": sum(thetas) / n,
        "median_deg": thetas[(n - 1) // 2],
        "rms_deg": math.sqrt(sum(t * t for t in thetas) / n),
        "inlier_11": sum(1 for t in thetas if t < 11.5) / n,
        "inlier_22": sum(1 for t in thetas if t < 22.5) / n,
        "inlier_30": sum(1 for t in thetas if t < 30.0) / n,
    }


def test_normal_matches_loop_oracle(rng):
    for _ in range(5):
        p = _unit(rng, 256) * rng.uniform(0.5, 2.0, size=(256, 1))
        g = _unit(rng, 256)
        mask = rng.uniform(size=256) > 0.2
        got = normal_metrics(p, g, mask)
        want = _normal_oracle(p, g, mask)
        for k, v in want.items():
            assert abs(got[k] - v) < 1e-10, k


def test_normal_inlier_monotone(rng):
    for _ in range(10):
        p = _unit(rng, 128)
        g = _unit(rng, 128)
        out = normal_metrics(p, g, np.ones(128))
        assert out["inlier_11"] <= out["inlier_22"] <= out["inlier_30"]


# ---- row-layout oracles for the plane-wise normal metrics ----------------------------
# These are the (N, 3) row formulas the metrics used before they moved to (3, N)
# planes.  Sums over a length-3 row and the planar (x + y) + z agree bit for
# bit, so the comparisons use array_equal, not a tolerance.


def _row_angles(n_pred, n_gt):
    p = np.asarray(n_pred, dtype=np.float64).reshape(-1, 3)
    g = np.asarray(n_gt, dtype=np.float64).reshape(-1, 3)
    p = p / np.maximum(np.linalg.norm(p, axis=-1, keepdims=True), 1e-12)
    g = g / np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-12)
    dot = np.clip((p * g).sum(axis=-1), -1.0, 1.0)
    return np.degrees(np.arccos(dot))


def _row_normal_metrics(n_pred, n_gt, mask):
    sel = np.asarray(mask, dtype=bool).reshape(-1)
    theta = _row_angles(np.asarray(n_pred).reshape(-1, 3)[sel],
                        np.asarray(n_gt).reshape(-1, 3)[sel])
    out = {
        "mean_deg": float(theta.mean()),
        "median_deg": float(np.sort(theta)[(theta.size - 1) // 2]),
        "rms_deg": float(np.sqrt((theta ** 2).mean())),
    }
    for deg, key in ((11.5, "inlier_11"), (22.5, "inlier_22"), (30.0, "inlier_30")):
        out[key] = float((theta < deg).mean())
    return out


def _vector_cases(rng):
    """(pred, gt, mask) triples: random float32 and float64 maps with
    tiny, huge and zero vectors, antipodal and identical pairs."""
    cases = []
    for dtype in (np.float32, np.float64):
        p = rng.normal(size=(4, 16, 16, 3)).astype(dtype)
        g = rng.normal(size=(4, 16, 16, 3)).astype(dtype)
        p[0, 0] *= 1e-20
        p[0, 1] *= 1e15
        p[1, 0] = 0.0
        cases.append((p, g, rng.uniform(size=4 * 256) > 0.3))
        cases.append((p, g, np.ones(4 * 256)))
        cases.append((p, -p, np.ones(4 * 256)))
        cases.append((g, g, np.ones(4 * 256)))
    return cases


def test_angular_error_matches_row_oracle_bit_for_bit(rng):
    for p, g, _ in _vector_cases(rng):
        assert np.array_equal(angular_error_deg(p, g), _row_angles(p, g))
    empty = np.zeros((0, 3))
    assert angular_error_deg(empty, empty).shape == (0,)
    assert np.array_equal(angular_error_deg(empty, empty), _row_angles(empty, empty))


def test_normal_metrics_match_row_oracle_bit_for_bit(rng):
    for p, g, mask in _vector_cases(rng):
        assert normal_metrics(p, g, mask) == _row_normal_metrics(p, g, mask)


def test_normal_metrics_zero_length_raises():
    with pytest.raises(ContractError):
        normal_metrics(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))


@pytest.mark.parametrize("fn", [depth_metrics, normal_metrics])
def test_metrics_reject_a_mask_of_the_wrong_size(fn):
    pred = np.ones((4, 3)) if fn is normal_metrics else np.ones(4)
    with pytest.raises(ContractError, match="mask"):
        fn(pred, pred, np.ones(5))


def test_lower_median_matches_sorted_middle_with_ties(rng):
    for n in list(range(1, 12)) + [100, 101]:
        for _ in range(5):
            values = rng.integers(0, 4, size=n).astype(np.float64)
            assert _lower_median(values) == np.sort(values)[(n - 1) // 2], n
    assert _lower_median(np.array([3.0, 1.0, 2.0, 4.0])) == 2.0
    assert _lower_median(np.array([5.0, 5.0, 1.0])) == 5.0


@pytest.mark.parametrize("fn,shape", [(depth_metrics, (4, 256)), (normal_metrics, (4, 256, 3))])
def test_masked_and_full_mask_paths_agree(rng, fn, shape):
    # a mask that drops the first pixel scores the same as the full mask on
    # the other pixels: the selecting path and the no-copy path agree
    pred = rng.uniform(0.5, 10.0, size=shape).astype(np.float32)
    gt = rng.uniform(0.5, 10.0, size=shape).astype(np.float32)
    mask = np.ones(4 * 256, dtype=bool)
    mask[0] = False
    width = 3 if fn is normal_metrics else 1
    rest = pred.reshape(-1)[width:], gt.reshape(-1)[width:]
    assert fn(pred, gt, mask) == fn(*rest, np.ones(4 * 256 - 1))


# ---- miou loop oracle ---------------------------------------------------------------


def _miou_oracle(pred, gt, classes):
    ious = []
    for c in range(classes):
        tp = fp = fn = 0
        for i in range(gt.size):
            if gt.flat[i] == 255:
                continue
            p_is = pred.flat[i] == c
            g_is = gt.flat[i] == c
            tp += p_is and g_is
            fp += p_is and not g_is
            fn += g_is and not p_is
        union = tp + fp + fn
        if union > 0:
            ious.append(tp / union)
    return sum(ious) / len(ious)


def test_miou_matches_loop_oracle(rng):
    for _ in range(5):
        gt = rng.integers(0, 4, size=(16, 16))
        pred = rng.integers(0, 4, size=(16, 16))
        gt[rng.uniform(size=(16, 16)) > 0.9] = 255
        _, got = miou(pred, gt, 4)
        assert abs(got - _miou_oracle(pred, gt, 4)) < 1e-10


# ---- reports -----------------------------------------------------------------------


def test_report_missing_key_raises():
    with pytest.raises(ContractError):
        MetricReport("depth", {"rms": 0.0}, 10)


def test_report_non_monotone_delta_raises():
    bad = {"rms": 0.0, "a_rel": 0.0, "log10": 0.0,
           "delta1": 0.9, "delta2": 0.5, "delta3": 1.0}
    with pytest.raises(ContractError):
        MetricReport("depth", bad, 10)


def test_report_json_and_primary(rng):
    d = rng.uniform(0.5, 10.0, size=64)
    rep = MetricReport("depth", depth_metrics(d, d, np.ones(64)), 64)
    assert rep.primary() == 1.0
    import json
    payload = json.loads(rep.to_json())
    assert payload["task"] == "depth" and payload["pixels"] == 64
    assert payload["delta1"] == 1.0
