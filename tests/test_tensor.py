"""Autodiff engine: op semantics, pinned reference values, gradient checks."""

import tracemalloc
import weakref

import numpy as np
import pytest

from pmx import precision
from pmx import tensor as tensor_mod
from pmx.errors import ContractError, ShapeError
from pmx.model import PRED_KEY, Model, ModelConfig
from pmx.rng import SplitMix64
from pmx.tensor import Tensor, _Node, bias_add, no_grad, one_hot, parameter

from gradcheck import gradcheck

GC_TOL = 1e-5


def _n(seed, *shape):
    gen = SplitMix64(seed)
    return gen.normals(int(np.prod(shape))).reshape(shape)


def _away_from(x, points, margin=0.05):
    # nudge values off non-differentiable kinks so central differences are clean
    x = x.copy()
    for p in points:
        close = np.abs(x - p) < margin
        x[close] = p + margin * np.where(x[close] >= p, 1.0, -1.0) * 2
    return x


# ---- pinned forward values -------------------------------------------------


def test_matmul_2x2_reference():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(a.matmul(b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_softmax_log3_gives_quarter_three_quarters():
    y = Tensor([0.0, float(np.log(3.0))]).softmax()
    np.testing.assert_allclose(y.data, [0.25, 0.75], atol=1e-7)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = _n(3, 5, 7)
    y = Tensor(x).softmax(axis=-1)
    np.testing.assert_allclose(y.data.sum(-1), 1.0, atol=1e-6)
    y2 = Tensor(x + 100.0).softmax(axis=-1)
    np.testing.assert_allclose(y.data, y2.data, atol=1e-6)


def test_layernorm_two_point_row():
    g = Tensor([1.0, 1.0])
    b = Tensor([0.0, 0.0])
    y = Tensor([2.0, 4.0]).layernorm(g, b)
    want = 1.0 / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(y.data, [-want, want], rtol=1e-6)
    assert abs(want - 0.9999950) < 1e-6


def test_layernorm_rows_standardized():
    x = _n(4, 6, 16)
    y = Tensor(x).layernorm(Tensor(np.ones(16)), Tensor(np.zeros(16)))
    np.testing.assert_allclose(y.data.mean(-1), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.data.var(-1), 1.0, atol=1e-3)


def test_bilinear_upsample_1x2_row():
    x = Tensor(np.array([[[[0.0, 1.0], [0.0, 1.0]]]]))
    y = x.bilinear_upsample2x()
    assert y.shape == (1, 1, 4, 4)
    np.testing.assert_allclose(y.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-7)


def test_bilinear_upsample_constant_stays_constant():
    x = Tensor(np.full((2, 3, 4, 4), 0.7))
    y = x.bilinear_upsample2x()
    np.testing.assert_allclose(y.data, 0.7, atol=1e-6)


def test_conv2d_identity_kernel_passthrough():
    x = _n(5, 1, 1, 6, 6)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = Tensor(x).conv2d(Tensor(w))
    np.testing.assert_allclose(y.data, x, atol=1e-6)


def test_conv2d_stride2_ceil_shapes():
    w = Tensor(np.zeros((2, 3, 3, 3)))
    assert Tensor(np.zeros((1, 3, 8, 8))).conv2d(w, stride=2).shape == (1, 2, 4, 4)
    assert Tensor(np.zeros((1, 3, 7, 9))).conv2d(w, stride=2).shape == (1, 2, 4, 5)


def test_conv2d_matches_direct_loop():
    x = _n(6, 1, 2, 5, 5)
    w = _n(7, 3, 2, 3, 3)
    y = Tensor(x).conv2d(Tensor(w)).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros((1, 3, 5, 5))
    for co in range(3):
        for i in range(5):
            for j in range(5):
                want[0, co, i, j] = (xp[0, :, i:i + 3, j:j + 3] * w[co]).sum()
    np.testing.assert_allclose(y, want, rtol=1e-4, atol=1e-5)


# ---- conv2d against direct loops ----------------------------------------------
#
# The references loop over output pixels and taps in float64.  Tolerances are
# fixed from the dtype: a float64 kernel must agree to a few hundred ulps, and
# a float32 kernel must stay inside the worst-case rounding bound of its
# dot products, eps32 * (terms summed) * (the same sum over absolute values).


def _conv_loop(xp, w, b, stride, ho, wo):
    """Forward reference on a padded input: one 3x3 window per output pixel."""
    bsz, cout = xp.shape[0], w.shape[0]
    y = np.zeros((bsz, cout, ho, wo))
    for oi in range(ho):
        for oj in range(wo):
            win = xp[:, :, oi * stride:oi * stride + 3, oj * stride:oj * stride + 3]
            y[:, :, oi, oj] = np.einsum("bcij,ocij->bo", win, w) + b
    return y


def _conv_loop_vjp(xp, w, g, stride):
    """dx, dW, db of the forward above for upstream gradient g."""
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for oi in range(g.shape[2]):
        for oj in range(g.shape[3]):
            rows = slice(oi * stride, oi * stride + 3)
            cols = slice(oj * stride, oj * stride + 3)
            dw += np.einsum("bo,bcij->ocij", g[:, :, oi, oj], xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("bo,ocij->bcij", g[:, :, oi, oj], w)
    return dxp[:, :, 1:-1, 1:-1], dw, g.sum(axis=(0, 2, 3))


def _conv_case(seed, bsz, cin, cout, h, w, stride):
    x, wt, b = _n(seed, bsz, cin, h, w), _n(seed + 1, cout, cin, 3, 3), _n(seed + 2, cout)
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    return x, wt, b, _n(seed + 3, bsz, cout, ho, wo)


def _run_conv(x, wt, b, g, stride):
    xt, wtt, bt = parameter(x), parameter(wt), parameter(b)
    y = xt.conv2d(wtt, bt, stride=stride)
    (y * Tensor(g)).sum().backward()
    return y.data, xt.grad, wtt.grad, bt.grad


F64_TOL = 256 * np.finfo(np.float64).eps


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_float64_matches_loop_forward_with_bias(stride):
    x, wt, b, _ = _conv_case(70, 2, 3, 4, 7, 9, stride)
    ho, wo = (7 - 1) // stride + 1, (9 - 1) // stride + 1
    with precision.verify():
        y = Tensor(x).conv2d(Tensor(wt), Tensor(b), stride=stride).data
    assert y.dtype == np.float64 and y.shape == (2, 4, ho, wo) and ho != wo
    want = _conv_loop(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), wt, b, stride, ho, wo)
    np.testing.assert_allclose(y, want, rtol=F64_TOL, atol=F64_TOL)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_float64_vjp_matches_loop(stride):
    x, wt, b, g = _conv_case(80, 2, 3, 4, 7, 9, stride)
    with precision.verify():
        _, dx, dw, db = _run_conv(x, wt, b, g, stride)
    want_dx, want_dw, want_db = _conv_loop_vjp(
        np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), wt, g, stride)
    for got, want in ((dx, want_dx), (dw, want_dw), (db, want_db)):
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=F64_TOL, atol=F64_TOL)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("cin,cout", [(1, 1), (1, 3), (3, 1), (3, 3)])
def test_conv2d_float64_sweep_matches_loop(stride, cin, cout):
    # tiny and non-square images leave phase planes with empty rows or columns
    sizes = (1, 2, 3, 5, 8)
    for h in sizes:
        for w in sizes:
            x, wt, b, g = _conv_case(100 + 10 * h + w, 2, cin, cout, h, w, stride)
            with precision.verify():
                y, dx, dw, db = _run_conv(x, wt, b, g, stride)
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            want = (_conv_loop(xp, wt, b, stride, *g.shape[2:]),
                    *_conv_loop_vjp(xp, wt, g, stride))
            for got, ref in zip((y, dx, dw, db), want):
                assert got.shape == ref.shape, (h, w)
                np.testing.assert_allclose(got, ref, rtol=F64_TOL, atol=F64_TOL, err_msg=f"{h}x{w}")


@pytest.mark.parametrize("cin,cout,size,stride",
                         [(3, 32, 64, 2), (32, 32, 32, 2), (64, 64, 16, 1), (64, 64, 8, 1),
                          (32, 64, 16, 1)])
def test_conv2d_float32_within_rounding_bound_of_float64(cin, cout, size, stride):
    # encoder shapes at batch 8: the two stem convs, a refine conv, a stage-2
    # conv, whose wide grid (8 x 10) adds the most columns, and the skip conv,
    # a stride-1 conv with Cin < Cout
    x, wt, b, g = (a.astype(np.float32) for a in _conv_case(90, 8, cin, cout, size, size, stride))
    y32, dx32, dw32, db32 = _run_conv(x, wt, b, g, stride)
    assert y32.dtype == np.float32
    with precision.verify():
        y64, dx64, dw64, db64 = _run_conv(x, wt, b, g, stride)
        # the same sums over absolute values bound the rounding error of each
        sy, sdx, sdw, sdb = _run_conv(np.abs(x), np.abs(wt), np.abs(b), np.abs(g), stride)
    eps = float(np.finfo(np.float32).eps)
    bsz, _, ho, wo = g.shape
    bounds = (
        (y32, y64, eps * (cin * 9 + 1) * sy),
        (dx32, dx64, eps * cout * 9 * sdx),
        (dw32, dw64, eps * bsz * ho * wo * sdw),
        (db32, db64, eps * bsz * ho * wo * sdb),
    )
    for got, want, bound in bounds:
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_repeated_call_is_bit_identical(stride):
    x, wt, b, g = (a.astype(np.float32) for a in _conv_case(95, 4, 8, 16, 12, 10, stride))
    first, second = _run_conv(x, wt, b, g, stride), _run_conv(x, wt, b, g, stride)
    for a, c in zip(first, second):
        assert a.dtype == np.float32 and np.array_equal(a, c)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("cin,cout", [(5, 3), (3, 5)], ids=["cin_ge_cout", "cin_lt_cout"])
def test_conv2d_reads_only_initialized_memory(monkeypatch, stride, cin, cout):
    # every np.empty/np.empty_like array starts as NaN.  The wrapped columns
    # of a shifted view read the next image or the buffer's slack, and
    # backward multiplies them by a zero gradient: 0 * NaN would show in dW.
    # The forward without a graph copies the same row taps
    x, wt, b, g = (a.astype(np.float32) for a in _conv_case(97, 3, cin, cout, 9, 7, stride))
    clean = _run_conv(x, wt, b, g, stride)

    def forward():
        with no_grad():
            return Tensor(x).conv2d(Tensor(wt), Tensor(b), stride=stride).data
    clean_forward = forward()
    real_empty, real_empty_like = np.empty, np.empty_like

    def poisoned(make):
        def make_nan(*args, **kwargs):
            out = make(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out
        return make_nan
    monkeypatch.setattr(np, "empty", poisoned(real_empty))
    monkeypatch.setattr(np, "empty_like", poisoned(real_empty_like))
    assert np.isnan(np.empty(1)).all()
    for a, c in zip(clean, _run_conv(x, wt, b, g, stride)):
        assert np.array_equal(a, c)
    assert np.array_equal(forward(), clean_forward)


def _conv_forwards(stride, cin, cout):
    x, wt, b, _ = (a.astype(np.float32) for a in _conv_case(98, 3, cin, cout, 9, 7, stride))
    with no_grad():
        plain = Tensor(x).conv2d(Tensor(wt), Tensor(b), stride=stride)
    recorded = parameter(x).conv2d(parameter(wt), parameter(b), stride=stride)
    return plain, recorded


def _predict_forwards(task):
    model = Model(ModelConfig(task=task), seed=0)
    images = Tensor(np.random.default_rng(7).uniform(0.0, 1.0, size=(2, 3, 16, 16)))
    recorded = model.train_outputs(images)[PRED_KEY[task]]
    plain = model.predict(images)
    return Tensor(plain), recorded.reshape(plain.shape)


@pytest.mark.parametrize("forwards", [
    pytest.param(lambda: _conv_forwards(1, 5, 3), id="conv_s1_cin_ge_cout"),
    pytest.param(lambda: _conv_forwards(1, 3, 5), id="conv_s1_cin_lt_cout"),
    pytest.param(lambda: _conv_forwards(2, 5, 3), id="conv_s2_cin_ge_cout"),
    pytest.param(lambda: _conv_forwards(2, 3, 5), id="conv_s2_cin_lt_cout"),
    pytest.param(lambda: _predict_forwards("depth"), id="predict_depth"),
    pytest.param(lambda: _predict_forwards("normal"), id="predict_normal"),
])
def test_forward_without_a_graph_matches_the_recorded_one(forwards):
    plain, recorded = forwards()
    assert recorded.requires_grad and not plain.requires_grad
    assert plain.dtype == recorded.dtype == np.float32
    assert np.array_equal(plain.data, recorded.data)


def _held_bytes(fn):
    """Bytes traced as still allocated once ``fn`` has returned, its result alive."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = fn()  # alive while the bytes are counted
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_conv2d_keeps_three_row_taps_for_backward():
    # a 64 -> 64 stride-1 conv keeps its three row taps (3x the input) and
    # its output (1x) until backward, not all nine taps (11x with the output)
    gen = np.random.default_rng(5)
    x = parameter(gen.normal(size=(8, 64, 16, 16)).astype(np.float32))
    wt = parameter(gen.normal(size=(64, 64, 3, 3)).astype(np.float32))
    b = parameter(np.zeros(64, dtype=np.float32))
    assert _held_bytes(lambda: x.conv2d(wt, b)) <= 5 * x.data.nbytes


def test_avg_pool_2x_means_blocks():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    y = Tensor(x).avg_pool2d(2)
    np.testing.assert_allclose(y.data, [[[[2.5, 4.5], [10.5, 12.5]]]])


def test_cumsum_last_and_narrow():
    x = Tensor([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(x.cumsum_last().data, [[1.0, 3.0, 6.0]])
    np.testing.assert_allclose(x.narrow(1, 1, 2).data, [[2.0, 3.0]])


def test_log_softmax_matches_float64_reference_and_stays_finite():
    x = _n(63, 6, 5).astype(np.float32) * 3.0
    x[0] = [1e4, -1e4, 0.0, 1e4, -1e4]
    x[1] = -1e4
    for axis in (-1, 0):
        ref = x.astype(np.float64)
        ref = ref - ref.max(axis=axis, keepdims=True)
        ref = ref - np.log(np.exp(ref).sum(axis=axis, keepdims=True))
        p = parameter(x)
        y = p.log_softmax(axis=axis)
        assert y.data.dtype == np.float32 and np.isfinite(y.data).all()
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-6)
        sums = np.exp(y.data.astype(np.float64)).sum(axis=axis)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert y._parents == (p,)  # one node, straight on its input


@pytest.mark.parametrize("shape", [(6, 1), (6, 2), (5, 3, 4), (4, 8), (4, 9), (2, 3, 256)])
def test_short_axis_max_is_bit_identical_to_a_reduction(shape):
    # a last axis of at most 8 entries takes its max as a chain of
    # np.maximum, a longer or inner one as a reduction: the same bits either way
    x = _n(64, *shape).astype(np.float32) * 3.0
    rows = x.reshape(-1, shape[-1])
    rows[0] = rows[0, 0]  # every entry tied
    rows[1, ::2] = 1.5e38  # large finite magnitudes, a tie among them
    rows[1, 1::2] = -1.5e38
    rows[2, :2] = -0.0
    rows[2, 2:] = -1e-40  # subnormal
    rows[3, -1] = 100.0  # the max in the last entry
    edges = np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max, 0.0, -0.0])
    for a in (x, np.resize(edges, shape).astype(np.float32)):
        for axis in range(-a.ndim, a.ndim):
            want = a.max(axis=axis, keepdims=True)
            got = tensor_mod._axis_max(a, axis)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    t = e.sum(axis=-1, keepdims=True)
    assert np.array_equal(Tensor(x).softmax(axis=-1).data, e / t)
    assert np.array_equal(Tensor(x).log_softmax(axis=-1).data, shifted - np.log(t))


def test_one_hot_is_constant_and_exact():
    t = one_hot(np.array([[0, 2]]), 3)
    assert t._backfn is None and not t.requires_grad
    np.testing.assert_array_equal(t.data, [[[1, 0, 0], [0, 0, 1]]])


def test_scalar_zero_dim_shapes_survive():
    t = Tensor(0.5)
    assert t.shape == ()
    assert (t * Tensor(2.0)).shape == ()


# ---- graph mechanics ---------------------------------------------------------


def test_backward_rejects_non_scalar():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_no_grad_blocks_graph_recording():
    a = parameter(np.ones(3))
    with no_grad():
        y = (a * 2.0).sum()
    assert y._backfn is None and y._parents == ()


def test_grad_accumulates_over_reuse():
    a = parameter(np.array([3.0]))
    y = (a * 2.0 + a * 5.0).sum()
    y.backward()
    np.testing.assert_allclose(a.grad, [7.0])


def _copying_accum(self, g, owned=False):
    # oracle: the accumulation before ops could hand over their own arrays
    if self.grad is None:
        self.grad = g.astype(self.dtype, copy=True)
    else:
        self.grad += g


def _copy_every_gradient(monkeypatch):
    for kind in (_Node, Tensor):  # op outputs' nodes and leaves
        monkeypatch.setattr(kind, "_accum", _copying_accum)


def _op_outputs(monkeypatch):
    """A list that collects a weakref to the array of every op output made
    from here on, in the order the ops ran."""
    refs = []
    result = tensor_mod._result

    def recording(*args):
        out = result(*args)
        refs.append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(tensor_mod, "_result", recording)
    return refs


def _graph(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _conv_fan_out():
    """x feeds two convs and an add; returns the leaves and the loss."""
    x = parameter(_n(40, 2, 3, 8, 8))
    w1, w2 = parameter(_n(41, 4, 3, 3, 3)), parameter(_n(42, 4, 3, 3, 3))
    b1, b2 = parameter(_n(43, 4)), parameter(_n(44, 4))
    y = x.conv2d(w1, b1) + x.conv2d(w2, b2, stride=2).bilinear_upsample2x()
    head = y.reshape(2, 4 * 64).matmul(Tensor(_n(45, 256, 5)))
    loss = (y * y).sum() + (x + x * 0.5).relu().sum() + head.sum()
    return (x, w1, w2, b1, b2), loss


def test_conv_fan_out_graph_node_count_is_pinned():
    # one node per recorded op plus its leaves and constants, as the
    # benchmark's tensor.graph_nodes counts them by walking _parents
    _, loss = _conv_fan_out()
    assert len(_graph(loss)) == 21


def test_owned_gradients_are_bit_identical_to_copies(monkeypatch):
    leaves, loss = _conv_fan_out()
    loss.backward()
    got = [t.grad for t in leaves]
    _copy_every_gradient(monkeypatch)
    leaves, loss = _conv_fan_out()
    loss.backward()
    for g, t in zip(got, leaves):
        assert g.dtype == t.grad.dtype and np.array_equal(g, t.grad)


def test_no_two_gradients_share_memory(made_grads):
    _, loss = _conv_fan_out()
    loss.backward()
    assert len(made_grads) > 10
    for i, a in enumerate(made_grads):
        for b in made_grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_backward_frees_interior_activations(monkeypatch):
    made = _op_outputs(monkeypatch)
    leaves, loss = _conv_fan_out()
    interior = made[::-1]   # newest first
    assert len(interior) > 10
    assert any(r() is not None for r in interior[1:])   # closures still hold some
    loss.backward()
    assert [r for r in interior[1:] if r() is not None] == []   # [0] is the loss's own
    assert loss.grad is None and loss._parents is None
    for t in leaves:
        assert t.grad is not None and np.all(np.isfinite(t.grad))


def _conv_relu_conv():
    x = parameter(_n(70, 2, 3, 8, 8))
    w1, w2 = parameter(_n(71, 4, 3, 3, 3)), parameter(_n(72, 5, 4, 3, 3))
    b1, b2 = parameter(_n(73, 4)), parameter(_n(74, 5))
    return (x, w1, w2, b1, b2), x.conv2d(w1, b1).relu().conv2d(w2, b2)


def test_op_outputs_no_backward_reads_are_freed_in_the_forward(monkeypatch):
    made = _op_outputs(monkeypatch)
    leaves, y = _conv_relu_conv()
    first_conv, relu, _ = made
    assert first_conv() is None and relu() is None
    (y * y).sum().backward()
    got = [t.grad for t in leaves]
    _copy_every_gradient(monkeypatch)
    leaves, y = _conv_relu_conv()
    (y * y).sum().backward()
    for g, t in zip(got, leaves):
        assert g.dtype == t.grad.dtype and np.array_equal(g, t.grad)


def test_second_backward_on_a_graph_raises():
    leaves, loss = _conv_fan_out()
    loss.backward()
    grads = [t.grad.copy() for t in leaves]
    with pytest.raises(ContractError, match="already backpropagated"):
        loss.backward()
    for g, t in zip(grads, leaves):
        assert np.array_equal(g, t.grad)


def test_backward_through_a_released_node_raises():
    a = parameter(np.array([3.0]))
    y = a * 2.0
    y.sum().backward()
    with pytest.raises(ContractError):
        (y * 5.0).sum().backward()
    np.testing.assert_allclose(a.grad, [2.0])


def test_long_chain_backward_is_iterative():
    a = parameter(np.array([1.0]))
    y = a
    for _ in range(3000):
        y = y + 0.001
    y.sum().backward()
    np.testing.assert_allclose(a.grad, [1.0])


def test_default_dtype_float32_verify_float64():
    assert Tensor([1.0]).data.dtype == np.float32
    with precision.verify():
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32


# ---- gradient checks, one per differentiable op -------------------------------


def test_gradcheck_linear_is_exact():
    assert gradcheck(lambda t: (t * 3.0).sum(), [_n(0, 4)]) < 1e-10


@pytest.mark.parametrize(
    "name,fn,arrays",
    [
        ("add", lambda a, b: a + b, [_n(10, 3, 4), _n(11, 3, 4)]),
        ("sub", lambda a, b: a - b, [_n(12, 3, 4), _n(13, 3, 4)]),
        ("mul", lambda a, b: a * b, [_n(14, 3, 4), _n(15, 3, 4)]),
        ("div", lambda a, b: a / (b * b + 1.0), [_n(16, 3, 4), _n(17, 3, 4)]),
        ("sub_scalar", lambda a: a - 1.0, [_n(18, 5)]),
        ("div_scalar", lambda a: a / 4.0, [_n(19, 5)]),
        ("neg", lambda a: -a, [_n(20, 5)]),
        ("matmul2d", lambda a, b: a.matmul(b), [_n(21, 3, 4), _n(22, 4, 2)]),
        ("matmul3d", lambda a, b: a.matmul(b), [_n(23, 2, 3, 4), _n(24, 2, 4, 2)]),
        ("matmul3d_2d", lambda a, b: a.matmul(b), [_n(25, 2, 3, 4), _n(26, 4, 2)]),
        ("softmax", lambda a: a.softmax(axis=-1), [_n(27, 4, 5)]),
        ("relu", lambda a: a.relu(), [_away_from(_n(28, 4, 5), [0.0])]),
        ("gelu", lambda a: a.gelu(), [_n(29, 4, 5)]),
        ("sigmoid", lambda a: a.sigmoid(), [_n(30, 4, 5)]),
        ("exp", lambda a: a.exp(), [_n(31, 4, 5)]),
        ("log", lambda a: (a * a + 0.5).log(), [_n(32, 4, 5)]),
        ("sqrt", lambda a: (a * a + 0.5).sqrt(), [_n(33, 4, 5)]),
        ("abs", lambda a: a.abs(), [_away_from(_n(34, 4, 5), [0.0])]),
        ("clamp", lambda a: a.clamp(-0.5, 0.5), [_away_from(_n(35, 4, 5), [-0.5, 0.5])]),
        ("clamp_min", lambda a: a.clamp_min(0.1), [_away_from(_n(36, 4, 5), [0.1])]),
        ("sum_all", lambda a: a.sum(), [_n(37, 3, 4)]),
        ("sum_axis", lambda a: a.sum(axis=0), [_n(38, 3, 4)]),
        ("sum_keepdims", lambda a: a.sum(axis=-1, keepdims=True), [_n(39, 3, 4)]),
        ("mean_all", lambda a: a.mean(), [_n(40, 3, 4)]),
        ("mean_axis", lambda a: a.mean(axis=1), [_n(41, 3, 4)]),
        ("reshape", lambda a: a.reshape(6, 2), [_n(42, 3, 4)]),
        ("transpose", lambda a: a.transpose_last2(), [_n(43, 2, 3, 4)]),
        ("expand_axis", lambda a: a.expand_axis(1, 3), [_n(44, 4, 1)]),
        ("expand_leading", lambda a: a.expand_leading(3), [_n(45, 4, 5)]),
        ("narrow", lambda a: a.narrow(1, 1, 2), [_n(46, 3, 4)]),
        ("cumsum", lambda a: a.cumsum_last(), [_n(47, 3, 4)]),
        ("log_softmax", lambda a: a.log_softmax(axis=-1), [_n(48, 4, 5)]),
        ("layernorm", lambda a, g, b: a.layernorm(g, b),
         [_n(49, 4, 6), _n(50, 6), _n(51, 6)]),
        ("bias_add", lambda a, b: bias_add(a, b), [_n(52, 3, 4, 5), _n(53, 5)]),
        ("conv_s1", lambda x, w, b: x.conv2d(w, b, stride=1),
         [_n(54, 2, 2, 5, 5), _n(55, 3, 2, 3, 3), _n(56, 3)]),
        ("conv_s2", lambda x, w, b: x.conv2d(w, b, stride=2),
         [_n(57, 2, 2, 5, 5), _n(58, 3, 2, 3, 3), _n(59, 3)]),
        ("upsample", lambda x: x.bilinear_upsample2x(), [_n(60, 2, 2, 4, 4)]),
        ("avgpool", lambda x: x.avg_pool2d(2), [_n(61, 2, 2, 4, 4)]),
    ],
)
def test_gradcheck_op(name, fn, arrays):
    err = gradcheck(fn, arrays)
    assert err < GC_TOL, f"{name}: rel err {err:.3e}"


def test_gradcheck_catches_a_wrong_gradient():
    # a deliberately broken composition: analytic path sees x, numeric sees 2x
    def broken(a):
        return Tensor(a.data * 2.0) + a * 0.0
    assert gradcheck(broken, [_n(62, 4)]) > 0.5
