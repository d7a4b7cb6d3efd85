"""One test per shipped guarantee, in a fixed order.

The first six tests run in seconds.  The last four share a module-scoped
training matrix (17 full runs, roughly six minutes on a 2-vCPU VM) so
the quality floors, the baseline comparison, the K ablation, and the
panel check all see the same models.  Every tolerance here is pinned to
a measured margin, not a guess; the margins come from seeded runs, so
reruns see the exact same numbers.
"""

import math
import statistics
import time

import numpy as np
import pytest

from pmx import precision
from pmx.backbone import Params
from pmx.heads import (BinsHead, NormalHead, bins_from_logits, depth_compose,
                       normal_compose, probability_map, upsample_rows)
from pmx.losses import (LossConfig, charbonnier, multiscale_grad, normal_l2,
                        rel_sq, seg_cross_entropy, silog, total_loss)
from pmx.metrics import angular_error_deg, depth_metrics, miou, normal_metrics
from pmx.model import Model, ModelConfig
from pmx.rng import SplitMix64
from pmx.scene import SceneConfig, generate_split
from pmx.tensor import Tensor, bias_add, one_hot
from pmx.train import TrainConfig, ablate_k, evaluate, train

from gradcheck import gradcheck

pytestmark = pytest.mark.slow

TRAIN_STEPS = 350          # <= 5000 budget; margins measured at this depth
SEEDS = (0, 1, 2)


# ---- 1: gradients --------------------------------------------------------------------


def test_gradient_check_all_ops_and_composed_head_losses():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)

    def signed(*shape):
        # magnitudes in [0.2, 1.5], bounded away from the relu/abs kink
        return rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    def positive(*shape):
        return rng.uniform(0.5, 2.0, size=shape)

    a34, b34 = signed(3, 4), signed(3, 4)
    ops = [
        ("add", lambda a, b: a + b, [a34, b34]),
        ("sub", lambda a, b: a - b, [a34, b34]),
        ("mul", lambda a, b: a * b, [a34, b34]),
        ("div", lambda a, b: a / b, [a34, positive(3, 4)]),
        ("scalar_mix", lambda a: (a * 2.5 + 1.0 - 0.25) / 3.0, [a34]),
        ("relu", lambda a: a.relu(), [signed(3, 4)]),
        ("gelu", lambda a: a.gelu(), [signed(3, 4)]),
        ("sigmoid", lambda a: a.sigmoid(), [signed(3, 4)]),
        ("exp", lambda a: a.exp(), [signed(3, 4)]),
        ("log", lambda a: a.log(), [positive(3, 4)]),
        ("sqrt", lambda a: a.sqrt(), [positive(3, 4)]),
        ("abs", lambda a: a.abs(), [signed(3, 4)]),
        ("clamp", lambda a: a.clamp(-1.7, 1.6), [signed(3, 4)]),
        ("clamp_min", lambda a: a.clamp_min(0.1), [positive(3, 4)]),
        ("matmul_2d", lambda a, b: a.matmul(b), [signed(3, 4), signed(4, 2)]),
        ("matmul_batched", lambda a, b: a.matmul(b), [signed(2, 3, 4), signed(2, 4, 2)]),
        ("transpose_last2", lambda a: a.transpose_last2(), [signed(2, 3, 4)]),
        ("softmax", lambda a: a.softmax(axis=-1), [signed(3, 5)]),
        ("layernorm", lambda a, g, b: a.layernorm(g, b), [signed(2, 3, 4), positive(4), signed(4)]),
        ("reshape", lambda a: a.reshape(2, 6), [signed(3, 4)]),
        ("expand_axis", lambda a: a.expand_axis(1, 4), [signed(3, 1)]),
        ("expand_leading", lambda a: a.expand_leading(3), [signed(2, 4)]),
        ("narrow", lambda a: a.narrow(1, 1, 2), [signed(2, 4, 3)]),
        ("cumsum_last", lambda a: a.cumsum_last(), [signed(3, 5)]),
        ("sum_all", lambda a: a.sum(), [signed(3, 4)]),
        ("sum_axis", lambda a: a.sum(axis=1, keepdims=True), [signed(2, 3, 4)]),
        ("mean_all", lambda a: a.mean(), [signed(3, 4)]),
        ("mean_axis", lambda a: a.mean(axis=-1), [signed(2, 3, 4)]),
        ("log_softmax", lambda a: a.log_softmax(), [signed(4, 5)]),
        ("conv2d", lambda x, w, b: x.conv2d(w, b), [signed(1, 2, 6, 6), signed(3, 2, 3, 3), signed(3)]),
        ("conv2d_stride2", lambda x, w: x.conv2d(w, stride=2), [signed(1, 2, 6, 6), signed(2, 2, 3, 3)]),
        ("bilinear_upsample2x", lambda a: a.bilinear_upsample2x(), [signed(1, 2, 4, 4)]),
        ("avg_pool2d", lambda a: a.avg_pool2d(2), [signed(1, 2, 4, 4)]),
        ("bias_add", lambda a, b: bias_add(a, b), [signed(2, 3, 4), signed(4)]),
    ]
    errs = {}
    for i, (name, fn, arrays) in enumerate(ops):
        errs[name] = gradcheck(fn, arrays, seed=i)

    # composed head + loss paths on an 8x8 image (quarter grid 2x2), D=4
    comp = np.random.default_rng(77)
    for k in (2, 4):
        f0 = comp.standard_normal((1, 4, 4))
        q0 = comp.standard_normal((1, k, 4))
        if k == 4:
            labels = comp.integers(0, 4, size=(64,))
            labels[:3] = 255

            def seg_fn(f, q):
                logits = upsample_rows(f.matmul(q.transpose_last2()), (2, 2))
                return total_loss("seg", logits.reshape(64, 4), {"labels": labels},
                                  LossConfig(), (8, 8))[0]

            errs["composed_seg_k4"] = gradcheck(seg_fn, [f0, q0], seed=1)
        gt_d = comp.uniform(0.8, 9.5, size=(1, 64))
        mask = (comp.random((1, 64)) > 0.1).astype(np.float64)
        with precision.verify():
            bins_p = Params(SplitMix64(5))
            bh = BinsHead(bins_p, 4)

        def depth_fn(f, q):
            b, _ = bh(q, 0.5, 10.0)
            return total_loss("depth", depth_compose(probability_map(f, q), b, (2, 2)),
                              {"depth": gt_d, "mask": mask}, LossConfig(), (8, 8))[0]

        errs[f"composed_depth_k{k}"] = gradcheck(
            depth_fn, [f0, q0], seed=2, params=list(bins_p.made.values()))
        gt_n = comp.standard_normal((1, 64, 3))
        gt_n /= np.linalg.norm(gt_n, axis=-1, keepdims=True)
        with precision.verify():
            normal_p = Params(SplitMix64(6))
            nh = NormalHead(normal_p, 4)

        def normal_fn(f, q):
            n, _ = normal_compose(probability_map(f, q), nh(q), (2, 2))
            return total_loss("normal", n, {"normal": gt_n, "mask": mask},
                              LossConfig(), (8, 8))[0]

        errs[f"composed_normal_k{k}"] = gradcheck(
            normal_fn, [f0, q0], seed=3, params=list(normal_p.made.values()))

    worst = max(errs, key=errs.get)
    assert errs[worst] < 1e-5, f"{worst}: {errs[worst]:.3e}"
    assert time.monotonic() - t0 < 60.0


# ---- 2: probability rows -------------------------------------------------------------


def test_probability_rows_sum_to_one_and_preserve_argmax():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        k = int(rng.choice([2, 3, 4, 8, 16]))
        d = int(rng.choice([3, 8, 16]))
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        f = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        q = (rng.standard_normal((k, d)) * scale).astype(np.float32)
        p = probability_map(Tensor(f), Tensor(q))
        # measured worst deviation on these draws: 2.4e-7
        assert np.abs(p.data.sum(axis=-1) - 1.0).max() < 1e-6
        raw = f.astype(np.float64) @ q.astype(np.float64).T
        assert np.array_equal(p.data.argmax(axis=-1), raw.argmax(axis=-1))


# ---- 3: bin geometry -----------------------------------------------------------------


def test_bin_centers_ordered_in_range_and_depth_contained():
    rng = np.random.default_rng(31)
    with precision.verify():
        for _ in range(1000):
            k = int(rng.integers(2, 17))
            d_min = float(rng.uniform(0.05, 5.0))
            d_max = d_min + float(rng.uniform(0.5, 15.0))
            b, w = bins_from_logits(Tensor(rng.standard_normal(k) * 3), d_min, d_max)
            assert np.all(np.diff(b.data) > 0)
            assert b.data.min() > d_min and b.data.max() < d_max
            n = int(rng.integers(1, 17))
            p = Tensor(rng.standard_normal((n, k)) * 2).softmax(axis=-1)
            d = depth_compose(p.reshape(1, n, k), b.reshape(1, k), (n, 1)).data
            # convex combination; zero observed violation at 64 bit
            assert d.min() >= b.data.min() and d.max() <= b.data.max()

        # equal logits over [0.1, 10]: real-arithmetic centers are these
        # decimals, but the inputs carry float64 representation error, so
        # the correctly rounded result can sit one double away from the
        # parsed literals; one ulp is the tightest sound bound and still
        # rules out any formula slip by 14 orders of magnitude
        b, w = bins_from_logits(Tensor(np.zeros(4)), 0.1, 10.0)
        ref = np.array([1.3375, 3.8125, 6.2875, 8.7625])
        assert np.all(np.abs(b.data - ref) <= np.spacing(ref))
        assert abs(w.data.sum() - 9.9) <= 1e-12


# ---- 4: metric oracles ---------------------------------------------------------------


def _loop_miou(pred, gt, classes):
    tp = [0] * classes
    fp = [0] * classes
    fn = [0] * classes
    for p, g in zip(pred.reshape(-1).tolist(), gt.reshape(-1).tolist()):
        if g == 255:
            continue
        if p == g:
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    ious = [tp[c] / (tp[c] + fp[c] + fn[c])
            for c in range(classes) if tp[c] + fp[c] + fn[c] > 0]
    return sum(ious) / len(ious)


def _loop_depth(d_pred, d_gt, mask):
    d = [float(x) for x, m in zip(d_pred.reshape(-1), mask.reshape(-1)) if m]
    g = [float(x) for x, m in zip(d_gt.reshape(-1), mask.reshape(-1)) if m]
    n = len(d)
    out = {
        "rms": math.sqrt(sum((a - b) ** 2 for a, b in zip(d, g)) / n),
        "a_rel": sum(abs(a - b) / b for a, b in zip(d, g)) / n,
        "log10": sum(abs(math.log10(a) - math.log10(b)) for a, b in zip(d, g)) / n,
    }
    for i in (1, 2, 3):
        out[f"delta{i}"] = sum(max(a / b, b / a) < 1.25 ** i for a, b in zip(d, g)) / n
    return out


def _loop_normal(n_pred, n_gt, mask):
    thetas = []
    for p, g, m in zip(n_pred.reshape(-1, 3), n_gt.reshape(-1, 3), mask.reshape(-1)):
        if not m:
            continue
        pn = math.sqrt(sum(float(x) ** 2 for x in p))
        gn = math.sqrt(sum(float(x) ** 2 for x in g))
        dot = sum(float(a) / pn * float(b) / gn for a, b in zip(p, g))
        thetas.append(math.degrees(math.acos(min(1.0, max(-1.0, dot)))))
    n = len(thetas)
    out = {
        "mean_deg": sum(thetas) / n,
        "median_deg": sorted(thetas)[(n - 1) // 2],
        "rms_deg": math.sqrt(sum(t ** 2 for t in thetas) / n),
    }
    for deg, key in ((11.5, "inlier_11"), (22.5, "inlier_22"), (30.0, "inlier_30")):
        out[key] = sum(t < deg for t in thetas) / n
    return out


def test_metrics_match_naive_loops_and_boundary_cases():
    rng = np.random.default_rng(5150)
    for _ in range(50):
        mask = (rng.random((16, 16)) > 0.15).astype(np.float64)
        mask.flat[0] = 1.0
        d_pred = rng.uniform(0.3, 12.0, size=(16, 16))
        d_gt = rng.uniform(0.5, 10.0, size=(16, 16))
        got = depth_metrics(d_pred, d_gt, mask)
        want = _loop_depth(d_pred, d_gt, mask)
        for key, val in want.items():
            assert abs(got[key] - val) < 1e-10, key
        assert got["delta1"] <= got["delta2"] <= got["delta3"]

        gt_l = rng.integers(0, 4, size=(16, 16))
        gt_l[rng.random((16, 16)) < 0.05] = 255
        pred_l = rng.integers(0, 4, size=(16, 16))
        _, got_miou = miou(pred_l, gt_l, 4)
        assert abs(got_miou - _loop_miou(pred_l, gt_l, 4)) < 1e-10

        n_gt = rng.standard_normal((16, 16, 3))
        n_gt /= np.linalg.norm(n_gt, axis=-1, keepdims=True)
        n_pred = rng.standard_normal((16, 16, 3)) * 2.0   # non-unit on purpose
        got = normal_metrics(n_pred, n_gt, mask)
        want = _loop_normal(n_pred, n_gt, mask)
        for key, val in want.items():
            assert abs(got[key] - val) < 1e-10, key
        assert got["inlier_11"] <= got["inlier_22"] <= got["inlier_30"]

    # ratio 1.3 clears 1.5625 but not 1.25: second inlier band only
    got = depth_metrics(np.array([1.3]), np.array([1.0]), np.array([1.0]))
    assert got["delta1"] == 0.0 and got["delta2"] == 1.0 and got["delta3"] == 1.0


# ---- 5: loss identities --------------------------------------------------------------


def test_loss_identities():
    rng = np.random.default_rng(99)
    with precision.verify():
        gt = rng.uniform(0.5, 9.5, size=(1, 64))
        mask = np.ones((1, 64))
        mask[0, :5] = 0.0
        for loss in (
            silog(Tensor(gt.copy()), gt, mask, 1.0),
            rel_sq(Tensor(gt.copy()), gt, mask),
            charbonnier(Tensor(gt.copy()), gt, mask),
            multiscale_grad(Tensor(gt.copy()), gt, mask, (8, 8)),
        ):
            assert abs(float(loss.data)) < 1e-12
        n_gt = rng.standard_normal((1, 64, 3))
        n_gt /= np.linalg.norm(n_gt, axis=-1, keepdims=True)
        assert abs(float(normal_l2(Tensor(n_gt.copy()), n_gt, mask).data)) < 1e-12
        labels = rng.integers(0, 4, size=32)
        peaked = one_hot(labels, 4) * 100.0
        assert float(seg_cross_entropy(peaked, labels).data) < 1e-6

        pred = Tensor(rng.uniform(0.4, 11.0, size=(1, 64)))
        base = float(silog(pred, gt, mask, 1.0).data)
        for alpha in (0.1, 3.7, 42.0):
            scaled = float(silog(pred * alpha, gt, mask, 1.0).data)
            assert abs(scaled - base) < 1e-10

        n_pred = rng.standard_normal((1, 64, 3))
        n_pred /= np.linalg.norm(n_pred, axis=-1, keepdims=True)
        full = np.ones((1, 64))
        theta = angular_error_deg(n_pred, n_gt)
        want = float((2.0 - 2.0 * np.cos(np.radians(theta))).mean())
        got = float(normal_l2(Tensor(n_pred), n_gt, full).data)
        assert abs(got - want) < 1e-6


# ---- 6: determinism and resume --------------------------------------------------------


def test_determinism_and_resume(tmp_path):
    first = generate_split(3, 6, SceneConfig())
    second = generate_split(3, 6, SceneConfig())
    for a, b in zip(first, second):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.depth.tobytes() == b.depth.tobytes()
        assert a.normal.tobytes() == b.normal.tobytes()

    small = generate_split(5, 8, SceneConfig(size=16))
    cfg = TrainConfig(ModelConfig("depth"), steps=12, batch=4, seed=3)
    t1 = train(small, cfg).trace
    t2 = train(small, cfg).trace
    assert [(s, v) for s, v, _ in t1] == [(s, v) for s, v, _ in t2]

    ckpt = str(tmp_path / "mid.ckpt")
    train(small, TrainConfig(ModelConfig("depth"), steps=10, batch=4, seed=3), out_path=ckpt)
    resumed = train(small, TrainConfig(ModelConfig("depth"), steps=20, batch=4, seed=3),
                    resume_from=ckpt)
    solid = train(small, TrainConfig(ModelConfig("depth"), steps=20, batch=4, seed=3))
    assert abs(resumed.trace[-1][1] - solid.trace[-1][1]) < 1e-6


# ---- 7-10: trained models ------------------------------------------------------------


@pytest.fixture(scope="module")
def matrix():
    """Trains every model the quality tests need, once."""
    train_s = generate_split(0, 1000, SceneConfig())
    val_s = generate_split(1, 100, SceneConfig())
    runs = {}
    longest = 0.0
    depth_model = None
    for head in ("cluster", "baseline"):
        for task in ("seg", "depth", "normal"):
            if head == "baseline" and task == "normal":
                continue
            for seed in SEEDS:
                cfg = TrainConfig(ModelConfig(task, head=head), steps=TRAIN_STEPS, seed=seed)
                t0 = time.monotonic()
                res = train(train_s, cfg, val_samples=val_s)
                longest = max(longest, time.monotonic() - t0)
                runs[(head, task, seed)] = res.final_report
                if head == "cluster" and task == "depth" and seed == 0:
                    depth_model = res.model
    # K=4 is the default, so its ablation run would repeat the ("cluster",
    # "depth", 0) run above (same TrainConfig, data, and seed): reuse it
    ablation = [(4, runs[("cluster", "depth", 0)])] + ablate_k(
        train_s, TrainConfig(ModelConfig("depth"), steps=TRAIN_STEPS, seed=0), (8, 16), val_s)
    untrained = {task: evaluate(Model(ModelConfig(task=task), seed=0), val_s, task)
                 for task in ("seg", "depth", "normal")}
    return {"runs": runs, "ablation": ablation, "untrained": untrained,
            "depth_model": depth_model, "val": val_s, "longest_run_s": longest}


def _median(matrix, head, task, key):
    return statistics.median(
        matrix["runs"][(head, task, s)].metrics[key] for s in SEEDS)


def test_trained_models_clear_quality_floors(matrix):
    assert TRAIN_STEPS <= 5000
    assert matrix["longest_run_s"] < 1800.0
    seg = _median(matrix, "cluster", "seg", "miou")
    d1 = _median(matrix, "cluster", "depth", "delta1")
    deg = _median(matrix, "cluster", "normal", "mean_deg")
    # measured at 350 steps: 0.8915 / 0.9516 / 5.78
    assert seg >= 0.60, f"seg miou {seg:.4f}"
    assert d1 >= 0.80, f"depth delta1 {d1:.4f}"
    assert deg <= 20.0, f"normal mean {deg:.2f} deg"
    cold = matrix["untrained"]
    assert cold["seg"].metrics["miou"] < 0.60
    assert cold["depth"].metrics["delta1"] < 0.80
    assert cold["normal"].metrics["mean_deg"] > 20.0


def test_cluster_heads_match_or_beat_pixel_baseline(matrix):
    # measured at 350 steps: miou 0.8915 vs 0.8851, delta1 0.9516 vs 0.9450
    c_miou = _median(matrix, "cluster", "seg", "miou")
    b_miou = _median(matrix, "baseline", "seg", "miou")
    c_d1 = _median(matrix, "cluster", "depth", "delta1")
    b_d1 = _median(matrix, "baseline", "depth", "delta1")
    assert c_miou >= b_miou, f"miou {c_miou:.4f} < {b_miou:.4f}"
    assert c_d1 >= b_d1, f"delta1 {c_d1:.4f} < {b_d1:.4f}"


def test_k_ablation_insensitivity(matrix):
    ks = [k for k, _ in matrix["ablation"]]
    assert ks == [4, 8, 16]
    vals = [rep.metrics["delta1"] for _, rep in matrix["ablation"]]
    spread = max(vals) - min(vals)
    mean = sum(vals) / len(vals)
    # measured spread: 0.47% of mean
    assert spread <= 0.20 * mean, f"spread {spread:.4f} vs mean {mean:.4f}"


def test_smallest_bin_panel_highlights_nearest_pixels(matrix):
    sample = matrix["val"][0]
    images = Tensor(sample.image.transpose(2, 0, 1)[None])
    model = matrix["depth_model"]
    panels = model.probability_panels(images)[0]
    bins = model.bin_centers(images)[0]
    assert panels.shape[0] == 4
    sums = panels.sum(axis=0)
    # measured worst deviation 1.2e-7
    assert np.abs(sums - 1.0).max() < 1e-5
    means = []
    for k in range(4):
        flat = panels[k].reshape(-1)
        top = np.argsort(flat)[-int(0.1 * flat.size):]
        means.append(float(sample.depth.reshape(-1)[top].mean()))
    assert int(np.argmin(means)) == int(np.argmin(bins)), (
        f"bins {np.round(bins, 2).tolist()} top-10% depth means "
        f"{np.round(means, 2).tolist()}")
