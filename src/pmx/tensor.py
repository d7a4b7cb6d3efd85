"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps one contiguous float ndarray plus an optional gradient.
Every op computes its output array, defines a backward closure over its
inputs, and hands both to ``_result``.  ``_result`` keeps the parents and
the closure only when graph recording is on and some parent requires grad;
otherwise the output is a plain constant and the closure is dropped.
Calling ``backward()`` on a scalar loss runs the closures in reverse
topological order, adding each input's share into its ``.grad``, and frees
the graph as the walk passes it: once an interior node's closure has run,
its ``.grad``, closure and parents are dropped, so only leaves (parameters
and inputs) keep ``.grad``, and a graph backpropagates once.

The op set is deliberately closed: elementwise arithmetic, matmul (2D, batched
3D, and 3D @ 2D), NCHW 3x3 convolution at stride 1 or 2 with padding 1 (the
padded input held as flat polyphase planes, so that each im2col and col2im
tap is one contiguous slice, and one gemm over the batch on an output grid a
column or two wider than the image), softmax, layer norm over the last axis,
bilinear 2x upsampling, reductions, and a small set of shape/indexing ops.
There is no general broadcasting; the only sanctioned broadcast is the
trailing bias add in ``bias_add`` and the explicit ``expand_axis`` /
``expand_leading`` repeats, whose backward is a sum.

Integer payloads (class labels, gather indices) stay plain numpy arrays and
never enter the graph.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, List, Optional, Sequence, Tuple

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backfn")

    def __init__(self, data, requires_grad: bool = False):
        """Leaf node, cast to the active precision."""
        self._set(np.asarray(data, dtype=precision.dtype()), bool(requires_grad), (), None)

    def _set(self, arr: np.ndarray, requires_grad: bool, parents: Tuple["Tensor", ...],
             backfn: Optional[Callable[[np.ndarray], None]]) -> None:
        # ascontiguousarray would promote 0-d to shape (1,); keep scalars 0-d
        self.data: np.ndarray = arr if arr.flags["C_CONTIGUOUS"] else arr.copy(order="C")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backfn = backfn

    # ---- plumbing ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into .grad.  The first accumulation copies g, unless the op
        says it built g for this input alone (``owned``): then .grad takes
        the array itself.  Closures that pass their incoming gradient
        through, or a view of it, must not claim ownership."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backprop from a scalar, freeing the graph on the way.

        Each interior node's closure runs once all its consumers have added
        their share into its ``.grad``; then the node drops its ``.grad``,
        closure and parents (``_parents`` becomes None, unlike a leaf's
        ``()``).  Leaves keep ``.grad``.  Raises ShapeError on a non-scalar
        and ContractError on a graph that has already been backpropagated.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backfn is not None:
                if node.grad is not None:
                    node._backfn(node.grad)
                node.grad = node._backfn = node._parents = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "add")
            return _binary(self, other, self.data + other.data, lambda g: g, lambda g: g)
        return _result(self.data + other, (self,), lambda g: self._accum(g))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "sub")
            return _binary(self, other, self.data - other.data, lambda g: g, lambda g: -g)
        return self.__add__(-other)

    def __neg__(self):
        return _result(-self.data, (self,), lambda g: self._accum(-g, owned=True))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "mul")
            return _binary(self, other, self.data * other.data,
                           lambda g: g * other.data, lambda g: g * self.data, owned=True)
        return _result(self.data * other, (self,), lambda g: self._accum(g * other, owned=True))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "div")
            return _binary(self, other, self.data / other.data, lambda g: g / other.data,
                           lambda g: -g * self.data / (other.data * other.data), owned=True)
        return self.__mul__(1.0 / other)

    # ---- unary elementwise --------------------------------------------------

    def relu(self) -> "Tensor":
        return _result(np.maximum(self.data, 0), (self,),
                       lambda g: self._accum(g * (self.data > 0), owned=True))

    def gelu(self) -> "Tensor":
        """Tanh-approximation gelu: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)

        def back(g):
            xx = self.data
            dinner = c * (1.0 + 3.0 * 0.044715 * xx * xx)
            self._accum(g * (0.5 * (1.0 + t) + 0.5 * xx * (1.0 - t * t) * dinner), owned=True)
        return _result(0.5 * x * (1.0 + t), (self,), back)

    def sigmoid(self) -> "Tensor":
        # exp on the negative half only, to stay finite for large |x|
        x = self.data
        s = np.empty_like(x)
        pos = x >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        s[~pos] = e / (1.0 + e)
        return _result(s, (self,), lambda g: self._accum(g * s * (1.0 - s), owned=True))

    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        return _result(y, (self,), lambda g: self._accum(g * y, owned=True))

    def log(self) -> "Tensor":
        return _result(np.log(self.data), (self,), lambda g: self._accum(g / self.data, owned=True))

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        return _result(y, (self,), lambda g: self._accum(g * 0.5 / y, owned=True))

    def abs(self) -> "Tensor":
        return _result(np.abs(self.data), (self,),
                       lambda g: self._accum(g * np.sign(self.data), owned=True))

    def clamp(self, lo: Optional[float] = None, hi: Optional[float] = None) -> "Tensor":
        """Clip to [lo, hi]; gradient passes where lo <= x <= hi (subgradient 1
        at the boundary)."""
        def back(g):
            mask = np.ones_like(self.data, dtype=bool)
            if lo is not None:
                mask &= self.data >= lo
            if hi is not None:
                mask &= self.data <= hi
            self._accum(g * mask, owned=True)
        return _result(np.clip(self.data, lo, hi), (self,), back)

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

        def grad_other(g):
            s = self.data
            if s.ndim == other.ndim:
                return s.swapaxes(-1, -2) @ g
            return s.reshape(-1, s.shape[-1]).T @ g.reshape(-1, other.shape[-1])
        return _binary(self, other, a @ b,
                       lambda g: g @ other.data.swapaxes(-1, -2), grad_other, owned=True)

    def transpose_last2(self) -> "Tensor":
        if self.ndim < 2:
            raise ShapeError("transpose_last2 needs ndim >= 2")
        return _result(np.ascontiguousarray(self.data.swapaxes(-1, -2)), (self,),
                       lambda g: self._accum(np.ascontiguousarray(g.swapaxes(-1, -2))))

    # ---- normalization ------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        x = self.data
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def back(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            self._accum(y * (g - dot), owned=True)
        return _result(y, (self,), back)

    def layernorm(self, gamma: "Tensor", beta: "Tensor", eps: float = 1e-5) -> "Tensor":
        """Normalize over the last axis, then scale and shift.

        gamma and beta are 1D of the feature size; their gradients sum over
        all leading axes.
        """
        d = self.shape[-1]
        if gamma.shape != (d,) or beta.shape != (d,):
            raise ShapeError(f"layernorm affine shapes {gamma.shape}/{beta.shape} for feature {d}")
        x = self.data
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv

        def back(g):
            if gamma.requires_grad:
                gamma._accum((g * xhat).reshape(-1, d).sum(axis=0), owned=True)
            if beta.requires_grad:
                beta._accum(g.reshape(-1, d).sum(axis=0), owned=True)
            if self.requires_grad:
                dxhat = g * gamma.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                self._accum(inv * (dxhat - m1 - xhat * m2), owned=True)
        return _result(xhat * gamma.data + beta.data, (self, gamma, beta), back)

    # ---- shape ops ------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return _result(self.data.reshape(shape), (self,), lambda g: self._accum(g.reshape(old)))

    def expand_axis(self, axis: int, n: int) -> "Tensor":
        """Repeat a size-1 axis n times.  Backward sums over that axis."""
        if self.shape[axis] != 1:
            raise ShapeError(f"expand_axis needs size 1 at axis {axis}, got {self.shape}")
        return _result(np.repeat(self.data, n, axis=axis), (self,),
                       lambda g: self._accum(g.sum(axis=axis, keepdims=True), owned=True))

    def expand_leading(self, n: int) -> "Tensor":
        """Prepend a new leading axis of size n.  Backward sums over it."""
        return _result(np.ascontiguousarray(np.broadcast_to(self.data, (n,) + self.shape)),
                       (self,), lambda g: self._accum(g.sum(axis=0), owned=True))

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        """Contiguous slice along one axis.  Backward zero-pads."""
        idx = [slice(None)] * self.ndim
        idx[axis] = slice(start, start + length)
        idx = tuple(idx)

        def back(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            self._accum(full, owned=True)
        return _result(np.ascontiguousarray(self.data[idx]), (self,), back)

    def cumsum_last(self) -> "Tensor":
        return _result(np.cumsum(self.data, axis=-1), (self,), lambda g: self._accum(
            np.flip(np.cumsum(np.flip(g, axis=-1), axis=-1), axis=-1)))

    # ---- reductions -----------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return _result(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                       lambda g: self._accum(_spread(g, axis, keepdims, self.shape), owned=True))

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.shape[axis]
        return _result(self.data.mean(axis=axis, keepdims=keepdims), (self,),
                       lambda g: self._accum(_spread(g, axis, keepdims, self.shape) / n,
                                             owned=True))

    # ---- indexing ---------------------------------------------------------------

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Pick one column per row: out[i] = x[i, indices[i]].  x is 2D."""
        if self.ndim != 2:
            raise ShapeError(f"gather_rows needs a 2D tensor, got {self.shape}")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.shape != (self.shape[0],):
            raise ShapeError(f"gather_rows indices {idx.shape} for tensor {self.shape}")
        rows = np.arange(self.shape[0])

        def back(g):
            full = np.zeros_like(self.data)
            np.add.at(full, (rows, idx), g)
            self._accum(full, owned=True)
        return _result(self.data[rows, idx], (self,), back)

    # ---- spatial ops ---------------------------------------------------------

    def conv2d(self, weight: "Tensor", bias: Optional["Tensor"] = None, stride: int = 1) -> "Tensor":
        """3x3 convolution with padding 1 at stride s = 1 or 2, NCHW layout.

        The zero-padded input is stored as its s² polyphase planes, laid out
        (Cin, s², B, hq*wq + 2): each plane a flat (hq, wq) grid with hq, wq =
        ho + 2//s, wo + 2//s, plus two floats of slack.  Tap (i, j) of every
        output pixel is then one contiguous run of ho*wq floats per image:
        plane (i%s)*s + j%s from offset (i//s)*wq + j//s.  The run covers a
        "wide" (ho, wq) output grid whose last wq - wo columns wrap into the
        next row.  Forward copies the nine runs into cols (Cin*9, B*ho*wq),
        runs one gemm W (Cout, Cin*9) @ cols over the whole batch, and crops
        the wide result to (B, Cout, ho, wo).  Backward widens g with zero
        columns, so the wrapped columns add exactly 0 to dW and dx; dW is one
        gemm g @ colsᵀ, col2im adds the nine runs of Wᵀg back into the planes,
        and s² strided copies gather dx from them.
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
        planes = (cin, stride * stride, bsz, hq * wq + 2)

        def span(phase, size):
            # x index k is padded index k + 1: along an axis, one phase holds
            # x[k0::s], at plane indices from (k0 + 1) // s
            k0 = (phase - 1) % stride
            q0 = (k0 + 1) // stride
            return slice(k0, None, stride), slice(q0, q0 + len(range(k0, size, stride)))
        phases = [(p, span(p // stride, h), span(p % stride, wd)) for p in range(stride * stride)]
        taps = [((i % stride) * stride + j % stride, (i // stride) * wq + j // stride)
                for i in range(3) for j in range(3)]

        def grid(buf):
            return buf[..., :hq * wq].reshape(cin, stride * stride, bsz, hq, wq)
        xq = np.zeros(planes, dtype=x.dtype)
        xgrid = grid(xq)
        for p, (xr, qr), (xc, qc) in phases:
            xgrid[:, p, :, qr, qc] = x[:, :, xr, xc].transpose(1, 0, 2, 3)
        cols = np.empty((cin, 9, bsz, n), dtype=x.dtype)
        for t, (p, off) in enumerate(taps):
            cols[:, t] = xq[:, p, :, off:off + n]
        del xq, xgrid  # the backward closure keeps only cols and wmat
        cols = cols.reshape(cin * 9, bsz * n)
        wmat = w.reshape(cout, cin * 9)
        y = (wmat @ cols).reshape(cout, bsz, ho, wq)[..., :wo]
        y = np.ascontiguousarray(y.transpose(1, 0, 2, 3))
        if bias is not None:
            y += bias.data[:, None, None]

        def back(g):
            if bias is not None and bias.requires_grad:
                bias._accum(g.reshape(bsz, cout, ho * wo).sum(axis=(0, 2)), owned=True)
            gw = np.zeros((cout, bsz, ho, wq), dtype=g.dtype)
            gw[..., :wo] = g.transpose(1, 0, 2, 3)
            g2 = gw.reshape(cout, bsz * n)
            if weight.requires_grad:
                weight._accum((g2 @ cols.T).reshape(cout, cin, 3, 3), owned=True)
            if self.requires_grad:
                dcols = (wmat.T @ g2).reshape(cin, 9, bsz, n)
                dxq = np.zeros(planes, dtype=dcols.dtype)
                for t, (p, off) in enumerate(taps):
                    dxq[:, p, :, off:off + n] += dcols[:, t]
                del dcols, gw, g2  # free them before dx is allocated
                dgrid = grid(dxq)
                dx = np.empty_like(x)
                for p, (xr, qr), (xc, qc) in phases:
                    dx[:, :, xr, xc] = dgrid[:, p, :, qr, qc].transpose(1, 0, 2, 3)
                self._accum(dx, owned=True)
        parents = (self, weight) if bias is None else (self, weight, bias)
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

        def back(g):
            g2 = g.reshape(bsz * c, 2 * h, 2 * w)
            self._accum((lh.T @ g2 @ lw).reshape(bsz, c, h, w), owned=True)
        return _result(y2.reshape(bsz, c, 2 * h, 2 * w), (self,), back)

    def avg_pool2d(self, factor: int) -> "Tensor":
        """Non-overlapping mean pooling; H and W must divide by factor."""
        if self.ndim != 4:
            raise ShapeError(f"avg_pool2d needs NCHW, got {self.shape}")
        bsz, c, h, w = self.shape
        if h % factor or w % factor:
            raise ShapeError(f"avg_pool2d factor {factor} does not divide {h}x{w}")
        y = self.data.reshape(bsz, c, h // factor, factor, w // factor, factor).mean(axis=(3, 5))

        def back(g):
            up = np.repeat(np.repeat(g, factor, axis=2), factor, axis=3)
            self._accum(up / (factor * factor), owned=True)
        return _result(y, (self,), back)


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backfn: Callable[[np.ndarray], None]) -> Tensor:
    """Op output node.  Keeps numpy's dtype; records parents and backfn only
    when some parent requires grad and recording is on."""
    if precision.debug() and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values in op output")
    out = Tensor.__new__(Tensor)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out._set(np.asarray(data), True, tuple(parents), backfn)
    else:
        out._set(np.asarray(data), False, (), None)
    return out


def _binary(a: Tensor, b: Tensor, data: np.ndarray,
            grad_a: Callable[[np.ndarray], np.ndarray],
            grad_b: Callable[[np.ndarray], np.ndarray], owned: bool = False) -> Tensor:
    """Two-input op whose backward sends grad_a(g) to a and grad_b(g) to b,
    each computed only if that input requires grad.  ``owned``: both
    functions return a new array (see ``Tensor._accum``)."""
    def back(g):
        if a.requires_grad:
            a._accum(grad_a(g), owned)
        if b.requires_grad:
            b._accum(grad_b(g), owned)
    return _result(data, (a, b), back)


def _spread(g: np.ndarray, axis: Optional[int], keepdims: bool,
            shape: Tuple[int, ...]) -> np.ndarray:
    """Broadcast a reduction's gradient back over the reduced axis."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


_interp_cache: dict = {}


def _interp_matrix(n: int, dtype) -> np.ndarray:
    """(2n, n) row-stochastic matrix for 2x bilinear upsampling with
    align_corners=False: output i samples input coordinate (i+0.5)/2 - 0.5,
    clamped to the edges."""
    key = (n, np.dtype(dtype).str)
    hit = _interp_cache.get(key)
    if hit is not None:
        return hit
    mat = np.zeros((2 * n, n), dtype=dtype)
    for i in range(2 * n):
        src = (i + 0.5) / 2.0 - 0.5
        i0 = math.floor(src)
        t = src - i0
        mat[i, min(max(i0, 0), n - 1)] += 1.0 - t
        mat[i, min(max(i0 + 1, 0), n - 1)] += t
    _interp_cache[key] = mat
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
