import numpy as np
import pytest

from pmx.scene import SceneConfig, generate_split
from pmx.tensor import Tensor


@pytest.fixture(scope="session")
def small_split():
    """16 training scenes at the default 64x64, shared across tests."""
    return generate_split(seed=7, count=16, cfg=SceneConfig())


@pytest.fixture(scope="session")
def tiny_split():
    """16x16 scenes keep graph-heavy tests fast."""
    cfg = SceneConfig(size=16)
    return generate_split(seed=5, count=8, cfg=cfg), cfg


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def made_grads(monkeypatch):
    """Every array that becomes some tensor's ``.grad`` during the test, once
    per tensor that takes it.

    ``backward()`` drops interior gradients as it goes, so aliasing is
    checked as the gradients are made.  Holding each array keeps its buffer
    from being freed and handed to a later gradient."""
    made = []
    accum = Tensor._accum

    def recording(self, g, owned=False):
        fresh = self.grad is None
        accum(self, g, owned)
        if fresh:
            made.append(self.grad)
    monkeypatch.setattr(Tensor, "_accum", recording)
    return made
