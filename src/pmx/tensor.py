"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps one contiguous float ndarray.  An op computes its output
array, defines a backward closure, and hands both to ``_result``.  ``_result``
records a graph node only when graph recording is on and some parent
requires grad; otherwise the output is a plain constant and the closure is
dropped.  The node is a small object apart from the output ``Tensor``: it
holds the gradient, the closure, the parents' nodes, and the output's shape
and dtype, but never its ``.data``.  A leaf (a parameter, an input or a
constant) is its own node.  The closure receives the parents' nodes as
arguments and captures only the arrays its backward reads (relu a bool
mask, reshape or a sum nothing but static sizes), so an op output whose
array no backward reads is freed once the forward code drops its
``Tensor``.  Calling ``backward()`` on a scalar loss runs the closures in
reverse topological order, adding each input's share into its node's
``.grad``, and frees the graph as the walk passes it: once a node's closure
has run, its ``.grad``, closure and parents are dropped, so only leaves
(parameters and inputs) keep ``.grad``, and a graph backpropagates once.

The op set is deliberately closed: elementwise arithmetic, matmul (2D, batched
3D, and 3D @ 2D), NCHW 3x3 convolution at stride 1 or 2 with padding 1 (the
padded input held as flat polyphase planes, so that each im2col and col2im
tap is one contiguous slice; taps lowered in groups that copy only the
three row taps and read each column tap a column or two on; one gemm per
group over the whole batch on an output grid a column or two wider than
the image), softmax and log-softmax, layer norm over the last axis,
bilinear 2x upsampling, reductions, and a small set of shape ops.
There is no general broadcasting; the only sanctioned broadcast is the
trailing bias add in ``bias_add`` and the explicit ``expand_axis`` /
``expand_leading`` repeats, whose backward is a sum.

Integer payloads (class labels) stay plain numpy arrays and never enter
the graph.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import precision
from .errors import ContractError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, metric eval)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _records(parents: Sequence["Tensor"]) -> bool:
    """Whether an op on ``parents`` records a graph node: recording is on
    and some parent requires grad."""
    return _grad_enabled and any(p.requires_grad for p in parents)


class _Node:
    """The graph node of a recorded op output: its gradient, the backward
    closure, the parents' nodes, and the output's shape and dtype.  The
    closure is called as ``backfn(grad, *parents)`` and adds each parent's
    share through ``parent._accum``."""
    __slots__ = ("grad", "shape", "dtype", "_parents", "_backfn")
    requires_grad = True

    def __init__(self, data: np.ndarray, parents: Tuple["Node", ...],
                 backfn: Callable[..., None]):
        self.grad: Optional[np.ndarray] = None
        self.shape, self.dtype = data.shape, data.dtype
        self._parents = parents
        self._backfn = backfn

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into .grad.  The first accumulation copies g, unless the op
        says it built g for this input alone (``owned``): then .grad takes
        the array itself.  Closures that pass their incoming gradient
        through, or a view of it, must not claim ownership."""
        if self.grad is None:
            if owned and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = g.astype(self.dtype, copy=True)
        else:
            self.grad += g


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        """Leaf node, cast to the active precision."""
        self._set(np.asarray(data, dtype=precision.dtype()), bool(requires_grad), None)

    def _set(self, arr: np.ndarray, requires_grad: bool, node: Optional[_Node]) -> None:
        # ascontiguousarray would promote 0-d to shape (1,); keep scalars 0-d
        self.data: np.ndarray = arr if arr.flags["C_CONTIGUOUS"] else arr.copy(order="C")
        self.grad: Optional[np.ndarray] = None  # a leaf's; an op output's lives on its node
        self.requires_grad = requires_grad
        self._node = node  # None: a leaf, which is its own node

    # ---- plumbing ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def _parents(self) -> Optional[Tuple["Node", ...]]:
        """The parents' nodes: () for a leaf, None once backpropagated."""
        return () if self._node is None else self._node._parents

    @property
    def _backfn(self) -> Optional[Callable[..., None]]:
        return None if self._node is None else self._node._backfn

    _accum = _Node._accum

    def backward(self) -> None:
        """Backprop from a scalar, freeing the graph on the way.

        The walk runs over nodes: a recorded op output's ``_Node``, which
        holds its ``.grad``, closure and parents' nodes but not its
        ``.data``, or a leaf ``Tensor``, which is its own node.  Each node's
        closure runs once all its consumers have added their share into its
        ``.grad``; then the node drops its ``.grad``, closure and parents
        (``_parents`` becomes None, unlike a leaf's ``()``).  Leaves keep
        ``.grad``.  Raises ShapeError on a non-scalar and ContractError on a
        graph that has already been backpropagated.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        root = _node_of(self)
        order: List[Node] = []
        seen = set()
        stack: List[Tuple[Node, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ContractError("backward() reached a graph that was already backpropagated")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backfn is not None:
                if node.grad is not None:
                    node._backfn(node.grad, *node._parents)
                node.grad = node._backfn = node._parents = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "add")
            return _binary(self, other, self.data + other.data, lambda g: g, lambda g: g)
        return _result(self.data + other, (self,), lambda g, xn: xn._accum(g))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "sub")
            return _binary(self, other, self.data - other.data, lambda g: g, lambda g: -g)
        return self.__add__(-other)

    def __neg__(self):
        return _result(-self.data, (self,), lambda g, xn: xn._accum(-g, owned=True))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "mul")
            a, b = self.data, other.data
            return _binary(self, other, a * b, lambda g: g * b, lambda g: g * a, owned=True)
        return _result(self.data * other, (self,),
                       lambda g, xn: xn._accum(g * other, owned=True))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "div")
            a, b = self.data, other.data
            return _binary(self, other, a / b, lambda g: g / b,
                           lambda g: -g * a / (b * b), owned=True)
        return self.__mul__(1.0 / other)

    # ---- unary elementwise --------------------------------------------------

    def relu(self) -> "Tensor":
        y = np.maximum(self.data, 0)
        return _scaled(self, y, lambda: y > 0)

    def gelu(self) -> "Tensor":
        """Tanh-approximation gelu: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)

        def back(g, xn):
            dinner = c * (1.0 + 3.0 * 0.044715 * x * x)
            xn._accum(g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner), owned=True)
        return _result(0.5 * x * (1.0 + t), (self,), back)

    def sigmoid(self) -> "Tensor":
        # exp on the negative half only, to stay finite for large |x|
        x = self.data
        s = np.empty_like(x)
        pos = x >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        s[~pos] = e / (1.0 + e)
        return _result(s, (self,), lambda g, xn: xn._accum(g * s * (1.0 - s), owned=True))

    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        return _result(y, (self,), lambda g, xn: xn._accum(g * y, owned=True))

    def log(self) -> "Tensor":
        x = self.data
        return _result(np.log(x), (self,), lambda g, xn: xn._accum(g / x, owned=True))

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        return _result(y, (self,), lambda g, xn: xn._accum(g * 0.5 / y, owned=True))

    def abs(self) -> "Tensor":
        return _scaled(self, np.abs(self.data), lambda: np.sign(self.data))

    def clamp(self, lo: Optional[float] = None, hi: Optional[float] = None) -> "Tensor":
        """Clip to [lo, hi]; gradient passes where lo <= x <= hi (subgradient 1
        at the boundary)."""
        x = self.data

        def inside():
            mask = np.ones_like(x, dtype=bool)
            if lo is not None:
                mask &= x >= lo
            if hi is not None:
                mask &= x <= hi
            return mask
        return _scaled(self, np.clip(x, lo, hi), inside)

    def clamp_min(self, lo: float) -> "Tensor":
        return self.clamp(lo=lo)

    # ---- linear algebra -----------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        """2D @ 2D, batched 3D @ 3D, or 3D @ 2D (a weight shared by the batch)."""
        a, b = self.data, other.data
        if (a.ndim, b.ndim) not in ((2, 2), (3, 3), (3, 2)):
            raise ShapeError(f"matmul unsupported for ndim {a.ndim} @ {b.ndim}")
        if a.shape[-1] != b.shape[-2] or (b.ndim == 3 and a.shape[0] != b.shape[0]):
            raise ShapeError(f"matmul {a.shape} @ {b.shape}")
        shared, cols = a.ndim != b.ndim, b.shape[-1]

        def grad_other(g):
            if shared:
                return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, cols)
            return a.swapaxes(-1, -2) @ g
        return _binary(self, other, a @ b, lambda g: g @ b.swapaxes(-1, -2), grad_other,
                       owned=True)

    def transpose_last2(self) -> "Tensor":
        if self.ndim < 2:
            raise ShapeError("transpose_last2 needs ndim >= 2")
        return _result(np.ascontiguousarray(self.data.swapaxes(-1, -2)), (self,),
                       lambda g, xn: xn._accum(np.ascontiguousarray(g.swapaxes(-1, -2))))

    # ---- normalization ------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        x = self.data
        shifted = x - _axis_max(x, axis)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def back(g, xn):
            dot = (g * y).sum(axis=axis, keepdims=True)
            xn._accum(y * (g - dot), owned=True)
        return _result(y, (self,), back)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """x - max - log(sum(exp(x - max))) over one axis, as one node; the
        shift by the detached max leaves the gradient exact."""
        x = self.data
        shifted = x - _axis_max(x, axis)
        e = np.exp(shifted)
        t = e.sum(axis=axis, keepdims=True)

        def back(g, xn):
            xn._accum(g - e * (g.sum(axis=axis, keepdims=True) / t), owned=True)
        return _result(shifted - np.log(t), (self,), back)

    def layernorm(self, gamma: "Tensor", beta: "Tensor", eps: float = 1e-5) -> "Tensor":
        """Normalize over the last axis, then scale and shift.

        gamma and beta are 1D of the feature size; their gradients sum over
        all leading axes.
        """
        d = self.shape[-1]
        if gamma.shape != (d,) or beta.shape != (d,):
            raise ShapeError(f"layernorm affine shapes {gamma.shape}/{beta.shape} for feature {d}")
        x, scale = self.data, gamma.data
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv

        def back(g, xn, gn, bn):
            if gn.requires_grad:
                gn._accum((g * xhat).reshape(-1, d).sum(axis=0), owned=True)
            if bn.requires_grad:
                bn._accum(g.reshape(-1, d).sum(axis=0), owned=True)
            if xn.requires_grad:
                dxhat = g * scale
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                xn._accum(inv * (dxhat - m1 - xhat * m2), owned=True)
        return _result(xhat * scale + beta.data, (self, gamma, beta), back)

    # ---- shape ops ------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _result(self.data.reshape(shape), (self,),
                       lambda g, xn: xn._accum(g.reshape(xn.shape)))

    def expand_axis(self, axis: int, n: int) -> "Tensor":
        """Repeat a size-1 axis n times.  Backward sums over that axis."""
        if self.shape[axis] != 1:
            raise ShapeError(f"expand_axis needs size 1 at axis {axis}, got {self.shape}")
        return _result(np.repeat(self.data, n, axis=axis), (self,),
                       lambda g, xn: xn._accum(g.sum(axis=axis, keepdims=True), owned=True))

    def expand_leading(self, n: int) -> "Tensor":
        """Prepend a new leading axis of size n.  Backward sums over it."""
        return _result(np.ascontiguousarray(np.broadcast_to(self.data, (n,) + self.shape)),
                       (self,), lambda g, xn: xn._accum(g.sum(axis=0), owned=True))

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        """Contiguous slice along one axis.  Backward zero-pads."""
        idx = [slice(None)] * self.ndim
        idx[axis] = slice(start, start + length)
        idx = tuple(idx)

        def back(g, xn):
            full = np.zeros(xn.shape, dtype=xn.dtype)
            full[idx] = g
            xn._accum(full, owned=True)
        return _result(np.ascontiguousarray(self.data[idx]), (self,), back)

    def cumsum_last(self) -> "Tensor":
        return _result(np.cumsum(self.data, axis=-1), (self,), lambda g, xn: xn._accum(
            np.flip(np.cumsum(np.flip(g, axis=-1), axis=-1), axis=-1)))

    # ---- reductions -----------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return _result(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                       lambda g, xn: xn._accum(_spread(g, axis, keepdims, xn.shape), owned=True))

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.shape[axis]
        return _result(self.data.mean(axis=axis, keepdims=keepdims), (self,),
                       lambda g, xn: xn._accum(_spread(g, axis, keepdims, xn.shape) / n,
                                             owned=True))

    # ---- spatial ops ---------------------------------------------------------

    def conv2d(self, weight: "Tensor", bias: Optional["Tensor"] = None, stride: int = 1) -> "Tensor":
        """3x3 convolution with padding 1 at stride s = 1 or 2, NCHW layout.

        The zero-padded input is stored as its s² polyphase planes, laid out
        (Cin, s², B, hq*wq + 2): each plane a flat (hq, wq) grid with hq, wq =
        ho + 2//s, wo + 2//s, plus two floats of slack.  Tap (i, j) of every
        output pixel is then one contiguous run of ho*wq floats per image:
        plane (i%s)*s + j%s from offset (i//s)*wq + j//s.  The run covers a
        "wide" (ho, wq) output grid whose last wq - wo columns wrap into the
        next row.

        The taps are lowered in one group per column phase c < s.  A group
        copies the runs of the three row taps (i, c), images end to end, into
        a buffer of rows (Cin, 3) and columns B*ho*wq, plus one zeroed float
        per shift past the first; the buffer read k columns on is then tap
        (i, c + s*k), so column tap j is read at shift j//s: 3 runs copied
        instead of 9 at stride 1, and 6 instead of 9 at stride 2.  A conv
        that records a graph holds the groups for backward; one without a
        graph drops them with the forward.

        Each product is one gemm per group over the whole batch, with the
        weights of every shift stacked: forward multiplies (shifts*Cout,
        Cin*3) weights by the buffer and sums row block k read k columns
        on, then crops the wide result to (B, Cout, ho, wo) and adds the
        bias.  Backward widens g with zero columns and stacks it once
        per shift, block k moved k columns on; dW is that stack times the
        bufferᵀ, and the stacked weightsᵀ times it is the buffer's gradient,
        whose rows are added back into the planes at each row tap's
        offset before s² strided copies gather dx.  The wrapped columns of a
        shifted read land on the next row, the next image or the slack, all
        initialized input, and meet only the zero columns of g, so they add
        exactly 0 to dW and dx.
        """
        if stride not in (1, 2):
            raise ShapeError(f"conv2d stride must be 1 or 2, got {stride}")
        x, w = self.data, weight.data
        if x.ndim != 4 or w.ndim != 4 or w.shape[2:] != (3, 3):
            raise ShapeError(f"conv2d input {x.shape} weight {w.shape}")
        bsz, cin, h, wd = x.shape
        cout = w.shape[0]
        if w.shape[1] != cin:
            raise ShapeError(f"conv2d channels: input {cin}, weight {w.shape[1]}")
        if bias is not None and bias.shape != (cout,):
            raise ShapeError(f"conv2d bias shape {bias.shape} for {cout} filters")
        ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
        hq, wq = ho + 2 // stride, wo + 2 // stride
        n = ho * wq
        m = bsz * n
        planes = (cin, stride * stride, bsz, hq * wq + 2)

        def span(phase, size):
            # x index k is padded index k + 1: along an axis, one phase holds
            # x[k0::s], at plane indices from (k0 + 1) // s
            k0 = (phase - 1) % stride
            q0 = (k0 + 1) // stride
            return slice(k0, None, stride), slice(q0, q0 + len(range(k0, size, stride)))
        phases = [(p, span(p // stride, h), span(p % stride, wd)) for p in range(stride * stride)]

        def tap(i, j):
            return (i % stride) * stride + j % stride, (i // stride) * wq + j // stride
        parents = (self, weight) if bias is None else (self, weight, bias)

        def by_group(a):
            # (Cout, Cin, 3, 3) weights as one (shifts, Cout, Cin, 3) view per column phase
            return [a.transpose(3, 0, 1, 2)[c::stride] for c in range(stride)]

        def grid(buf):
            return buf[..., :hq * wq].reshape(cin, stride * stride, bsz, hq, wq)
        xq = np.zeros(planes, dtype=x.dtype)
        xgrid = grid(xq)
        for p, (xr, qr), (xc, qc) in phases:
            xgrid[:, p, :, qr, qc] = x[:, :, xr, xc].transpose(1, 0, 2, 3)
        groups = []  # group c: (shifts, weights (shifts*Cout, Cin*3), buffer)
        for c, wg in enumerate(by_group(w)):  # copies taps (i, c), reads (i, c + s*k) at shift k
            shifts = len(wg)
            buf = np.empty((cin * 3, m + shifts - 1), dtype=x.dtype)
            buf[:, m:] = 0
            rows = buf[:, :m].reshape(cin, 3, bsz, n)
            for i in range(3):
                p, off = tap(i, c)
                rows[:, i] = xq[:, p, :, off:off + n]
            groups.append((shifts, np.ascontiguousarray(wg).reshape(shifts * cout, -1), buf))
        del xq, xgrid, rows  # the backward closure keeps only the groups
        yw = None
        for shifts, wg, buf in groups:
            prod = wg @ buf  # row block k: the output of the taps read at shift k
            for k in range(shifts):
                block = prod[k * cout:(k + 1) * cout, k:k + m]
                yw = block if yw is None else np.add(yw, block, out=yw)
        y = np.ascontiguousarray(yw.reshape(cout, bsz, ho, wq)[..., :wo].transpose(1, 0, 2, 3))
        if bias is not None:
            y += bias.data[:, None, None]

        def back(g, xn, wn, bn=None):
            if bn is not None and bn.requires_grad:
                bn._accum(g.reshape(bsz, cout, ho * wo).sum(axis=(0, 2)), owned=True)
            # row block k: g on the wide grid, k columns on, zero in the wrapped columns
            most = max(shifts for shifts, _, _ in groups)
            gk = np.zeros((most, cout, m + most - 1), dtype=g.dtype)
            gk[0, :, :m].reshape(cout, bsz, ho, wq)[..., :wo] = g.transpose(1, 0, 2, 3)
            for k in range(1, most):
                gk[k, :, k:k + m] = gk[0, :, :m]
            if wn.requires_grad:
                dw = np.empty(wn.shape, dtype=np.result_type(g, xn.dtype))
                for (shifts, _, buf), dv in zip(groups, by_group(dw)):
                    g2 = gk[:shifts, :, :m + shifts - 1].reshape(shifts * cout, -1)
                    dv[...] = (g2 @ buf.T).reshape(shifts, cout, cin, 3)
                wn._accum(dw, owned=True)
            if xn.requires_grad:
                dxq = np.zeros(planes, dtype=np.result_type(g, wn.dtype))
                for c, (shifts, wg, _) in enumerate(groups):
                    g2 = gk[:shifts, :, :m + shifts - 1].reshape(shifts * cout, -1)
                    dbuf = (wg.T @ g2)[:, :m].reshape(cin, 3, bsz, n)
                    for i in range(3):
                        p, off = tap(i, c)
                        dxq[:, p, :, off:off + n] += dbuf[:, i]
                    del dbuf
                del gk, g2  # free them before dx is allocated
                dgrid = grid(dxq)
                dx = np.empty(xn.shape, dtype=xn.dtype)
                for p, (xr, qr), (xc, qc) in phases:
                    dx[:, :, xr, xc] = dgrid[:, p, :, qr, qc].transpose(1, 0, 2, 3)
                xn._accum(dx, owned=True)
        return _result(y, parents, back)

    def bilinear_upsample2x(self) -> "Tensor":
        """Double H and W of an NCHW tensor with align_corners=False bilinear
        interpolation.  Separable: y = L_h @ x @ L_w^T, so backward is the
        exact transpose."""
        if self.ndim != 4:
            raise ShapeError(f"bilinear_upsample2x needs NCHW, got {self.shape}")
        bsz, c, h, w = self.shape
        lh = _interp_matrix(h, self.data.dtype)
        lw = _interp_matrix(w, self.data.dtype)
        y2 = lh @ self.data.reshape(bsz * c, h, w) @ lw.T

        def back(g, xn):
            g2 = g.reshape(bsz * c, 2 * h, 2 * w)
            xn._accum((lh.T @ g2 @ lw).reshape(bsz, c, h, w), owned=True)
        return _result(y2.reshape(bsz, c, 2 * h, 2 * w), (self,), back)

    def avg_pool2d(self, factor: int) -> "Tensor":
        """Non-overlapping mean pooling; H and W must divide by factor."""
        if self.ndim != 4:
            raise ShapeError(f"avg_pool2d needs NCHW, got {self.shape}")
        bsz, c, h, w = self.shape
        if h % factor or w % factor:
            raise ShapeError(f"avg_pool2d factor {factor} does not divide {h}x{w}")
        y = self.data.reshape(bsz, c, h // factor, factor, w // factor, factor).mean(axis=(3, 5))

        def back(g, xn):
            up = np.repeat(np.repeat(g, factor, axis=2), factor, axis=3)
            xn._accum(up / (factor * factor), owned=True)
        return _result(y, (self,), back)


Node = Union[_Node, Tensor]


def _node_of(t: Tensor) -> Node:
    return t if t._node is None else t._node


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backfn: Optional[Callable[..., None]]) -> Tensor:
    """Op output.  Keeps numpy's dtype; records a node holding backfn and the
    parents' nodes only when backfn is given, some parent requires grad and
    recording is on."""
    if precision.debug() and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values in op output")
    out = Tensor.__new__(Tensor)
    arr = np.asarray(data)
    if backfn is not None and _records(parents):
        out._set(arr, True, _Node(arr, tuple(_node_of(p) for p in parents), backfn))
    else:
        out._set(arr, False, None)
    return out


def _scaled(x: Tensor, data: np.ndarray, factor: Callable[[], np.ndarray]) -> Tensor:
    """Output of a one-input op whose input gradient is g * factor().  The
    factor, a mask or a sign, is built and kept only when the op records a
    graph, so the op holds neither its input nor its output."""
    if not _records((x,)):
        return _result(data, (x,), None)
    f = factor()
    return _result(data, (x,), lambda g, xn: xn._accum(g * f, owned=True))


def _binary(a: Tensor, b: Tensor, data: np.ndarray,
            grad_a: Callable[[np.ndarray], np.ndarray],
            grad_b: Callable[[np.ndarray], np.ndarray], owned: bool = False) -> Tensor:
    """Two-input op whose backward sends grad_a(g) to a and grad_b(g) to b,
    each computed only if that input requires grad.  ``owned``: both
    functions return a new array (see ``_Node._accum``)."""
    if not _records((a, b)):
        return _result(data, (a, b), None)
    # keep only the gradient functions that will run, with the arrays they read
    ga = grad_a if a.requires_grad else None
    gb = grad_b if b.requires_grad else None

    def back(g, an, bn):
        if ga is not None:
            an._accum(ga(g), owned)
        if gb is not None:
            bn._accum(gb(g), owned)
    return _result(data, (a, b), back)


def _spread(g: np.ndarray, axis: Optional[int], keepdims: bool,
            shape: Tuple[int, ...]) -> np.ndarray:
    """Broadcast a reduction's gradient back over the reduced axis."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def _axis_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis=axis, keepdims=True)``, which numpy reduces slowly over
    a short last axis: over a last axis of at most 8 entries, a chain of
    ``np.maximum`` over its slices.  Max is exact, so both give the same bits."""
    n = x.shape[axis]
    if not 0 < n <= 8 or axis % x.ndim != x.ndim - 1:
        return x.max(axis=axis, keepdims=True)
    return functools.reduce(np.maximum, [x[..., k:k + 1] for k in range(n)])


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


@functools.lru_cache(maxsize=16)
def _interp_matrix(n: int, dtype) -> np.ndarray:
    """Read-only (2n, n) row-stochastic matrix for 2x bilinear upsampling
    with align_corners=False: output i samples input coordinate
    (i+0.5)/2 - 0.5, clamped to the edges."""
    mat = np.zeros((2 * n, n), dtype=dtype)
    for i in range(2 * n):
        src = (i + 0.5) / 2.0 - 0.5
        i0 = math.floor(src)
        t = src - i0
        mat[i, min(max(i0, 0), n - 1)] += 1.0 - t
        mat[i, min(max(i0 + 1, 0), n - 1)] += t
    mat.flags.writeable = False
    return mat


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """x + b with b broadcast over the leading axes; db sums over them."""
    d = x.shape[-1]
    if b.shape != (d,):
        raise ShapeError(f"bias_add: bias {b.shape} for feature size {d}")
    return _binary(x, b, x.data + b.data, lambda g: g, lambda g: g.reshape(-1, d).sum(axis=0))


def one_hot(indices: np.ndarray, k: int) -> Tensor:
    """Constant one-hot tensor of shape indices.shape + (k,)."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros(idx.shape + (k,), dtype=precision.dtype())
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return Tensor(out)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)
