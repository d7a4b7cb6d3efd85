"""Unified cluster-prediction dense heads on a minimal reverse-mode tensor engine.

One backbone produces per-pixel embeddings and a set of learned cluster
centers; three output heads compose the shared pixel-to-cluster probability
map with class identities, adaptive depth bins, or unit sphere-segment
centers.  Ships with a deterministic ray-cast scene generator, binary
dataset/checkpoint formats, training/evaluation harnesses, and a CLI.
"""

__version__ = "0.1.0"

import ctypes

from .errors import (ContractError, CorruptionError, FormatError, ShapeError,
                     TrainingDiverged)
from .tensor import Tensor, no_grad

__all__ = [
    "ContractError",
    "CorruptionError",
    "FormatError",
    "ShapeError",
    "Tensor",
    "TrainingDiverged",
    "no_grad",
    "pin_heap_thresholds",
    "__version__",
]


def pin_heap_thresholds() -> bool:
    """Make glibc keep the heap that each step frees for the next one.

    Every pmx workload (a train step or an eval batch, from the CLI, a
    script or a test) frees most of its arrays and then allocates the same
    sizes again, and glibc's dynamic thresholds hand that memory back to
    the OS in between, so the next pass faults it in page by page.  This
    keeps up to 1 GiB of free heap (M_TRIM_THRESHOLD) and serves blocks
    below 32 MiB from the heap (M_MMAP_THRESHOLD); set explicitly, neither
    threshold moves again.  It changes how memory is obtained, never a
    computed value, so ``import pmx`` calls it once.  Returns whether both
    were set; without glibc or ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    return all([mallopt(m_trim_threshold, 1 << 30), mallopt(m_mmap_threshold, 32 << 20)])


pin_heap_thresholds()
