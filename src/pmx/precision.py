"""Global compute-precision switch.

Training runs in float32.  Verification (finite-difference gradient checks,
metric oracles) runs in float64 with debug assertions on, inside the
:func:`verify` context manager.
"""

from __future__ import annotations

import contextlib

import numpy as np

_verify = False


def dtype() -> type:
    """Active floating-point dtype for newly created tensors."""
    return np.float64 if _verify else np.float32


def debug() -> bool:
    """Whether per-op finiteness assertions are enabled."""
    return _verify


@contextlib.contextmanager
def verify():
    """Temporarily switch to float64 with debug assertions."""
    global _verify
    prev, _verify = _verify, True
    try:
        yield
    finally:
        _verify = prev
