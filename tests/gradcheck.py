"""Finite-difference verification of the autodiff graph.

``gradcheck`` evaluates a tensor-valued function twice: once through the
graph to collect analytic gradients, and once per perturbed input element
with 64-bit central differences (f(x+e) - f(x-e)) / 2e.

The output is scalarized against a fixed random projection vector rather
than a plain sum: compositions like sum(softmax(x)) are identically constant,
so their true gradient is zero everywhere and a sum-based check would pass
vacuously.  The projection is drawn from the deterministic generator, so the
check itself is reproducible.

Module parameters (leaves the function closes over rather than receives)
are checked by passing them as ``params``: their gradients are read after
backward and their numeric gradients come from perturbing their storage in
place.  Build such modules in 64-bit mode (``with precision.verify(): ...``)
so the central differences are not drowned by f32 rounding.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from pmx import precision
from pmx.rng import SplitMix64, mix_seed_index
from pmx.tensor import Tensor, no_grad, parameter


def gradcheck(
    fn: Callable[..., Tensor],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-4,
    seed: int = 0,
    params: Sequence[Tensor] = (),
) -> float:
    """Max relative error between analytic and numeric gradients of fn.

    fn takes len(arrays) Tensors and returns one Tensor; it must be pure
    given those inputs and the (optional) watched ``params``.  Relative
    error is |a - n| / max(1, |a|, |n|) per element; the calling tests
    treat values below 1e-5 as a pass.
    """
    with precision.verify():
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        inputs = [parameter(a) for a in arrays]
        for p in params:
            p.grad = None
        out = fn(*inputs)
        gen = SplitMix64(mix_seed_index(seed, 0xC3EC))
        proj = gen.normals(out.data.size).reshape(out.shape)
        loss = (out * Tensor(proj)).sum()
        loss.backward()

        def grad_of(t: Tensor) -> np.ndarray:
            return np.zeros_like(t.data) if t.grad is None else t.grad.copy()

        analytic = [grad_of(t) for t in inputs] + [grad_of(p) for p in params]

        def scalar() -> float:
            with no_grad():
                y = fn(*[Tensor(a) for a in arrays])
            return float((y.data * proj).sum())

        storages = arrays + [p.data for p in params]
        worst = 0.0
        for which, base in enumerate(storages):
            numeric = np.zeros_like(base)
            flat = base.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = scalar()
                flat[i] = orig - eps
                lo = scalar()
                flat[i] = orig
                nflat[i] = (hi - lo) / (2.0 * eps)
            a = analytic[which]
            if a.size:
                denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
                worst = max(worst, float((np.abs(a - numeric) / denom).max()))
        return worst
