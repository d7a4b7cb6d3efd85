"""Spans around calls into each pmx layer, installed from outside the package.

The traced run replaces a fixed list of public functions and methods with
wrappers that record a span (name, start, end, parent, op id) per call;
``uninstall`` puts the originals back, so untraced rounds run the program
exactly as shipped.  Spans stay in memory and are written out once at the
end.  A layer's self time is its span's duration minus the time covered by
its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from pmx import backbone, formats, heads, losses, metrics, model, netpbm, rng, scene, train
from pmx.tensor import Tensor

Span = List  # [name, start, end, parent index or -1, op id or -1]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        # counter name -> [total, events, ops seen]
        self.counters: Dict[str, list] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # ---- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float) -> None:
        entry = self.counters.setdefault(name, [0.0, 0, set()])
        entry[0] += value
        entry[1] += 1
        entry[2].add(self.op)

    def wrap(self, name, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """fn with a span around each call.  ``name`` is a string or a
        function of the call's arguments; ``hook(tracer, *args)`` runs first
        inside its own ``trace.hook`` span so its cost is charged to no layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                h = tracer.open("trace.hook")
                try:
                    hook(tracer, *args, **kwargs)
                finally:
                    tracer.close(h)
            idx = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    # ---- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer target, including aliases made by ``from x import f``."""
        if self._saved:
            return
        pmx_modules = [m for n, m in sys.modules.items() if n == "pmx" or n.startswith("pmx.")]
        for owner, attr, name, hook in layer_targets():
            # a target the program no longer has is skipped; its metrics read 0
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            traced = self.wrap(name, orig, hook)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [m for m in pmx_modules
                            if m is not owner and getattr(m, attr, None) is orig]
            for holder in holders:
                self._saved.append((holder, attr, orig))
                setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved = []

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced rounds: records nothing."""

    op = -1

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


# ---- what is wrapped ----------------------------------------------------------


def _conv_hook(tracer: Tracer, x: Tensor, weight: Tensor, bias=None, stride: int = 1) -> None:
    b, cin, h, w = x.shape
    cout = weight.shape[0]
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    rows = b * ho * wo
    tracer.count("tensor.conv2d.gflop", 2.0 * rows * cin * 9 * cout / 1e9)
    tracer.count("tensor.conv2d.im2col_mb", rows * cin * 9 * x.data.itemsize / 1e6)


def _kmeans_hook(tracer: Tracer, q: Tensor, f: Tensor) -> None:
    assign = (f.data @ q.data.swapaxes(-1, -2)).argmax(axis=-1)   # (B, N)
    k = q.shape[1]
    for row in assign:
        tracer.count("backbone.kmeans_occupied_ratio", len(np.unique(row)) / k)


def _loss_name(task, *args, **kwargs) -> str:
    return f"losses.total_loss.{task}"


def layer_targets() -> Sequence[Tuple[object, str, object, Optional[Callable]]]:
    """(owner, attribute, span name, hook) for every wrapped call."""
    return [
        (Tensor, "conv2d", "tensor.conv2d", _conv_hook),
        (Tensor, "matmul", "tensor.matmul", None),
        (Tensor, "softmax", "tensor.softmax", None),
        (Tensor, "bilinear_upsample2x", "tensor.bilinear_upsample2x", None),
        (Tensor, "backward", "tensor.backward", None),
        (backbone.Encoder, "__call__", "backbone.encoder", None),
        (backbone.DecoderBlock, "__call__", "backbone.decoder_block", None),
        (backbone, "kmeans_read", "backbone.kmeans_read", _kmeans_hook),
        (backbone, "standard_read", "backbone.standard_read", None),
        (heads, "probability_map", "heads.probability_map", None),
        (heads, "upsample_probability_map", "heads.upsample_probability_map", None),
        (heads, "upsample_rows", "heads.upsample_rows", None),
        (heads, "depth_compose", "heads.depth_compose", None),
        (heads, "normal_compose", "heads.normal_compose", None),
        (losses, "total_loss", _loss_name, None),
        (metrics, "confusion_matrix", "metrics.confusion_matrix", None),
        (metrics, "miou", "metrics.miou", None),
        (metrics, "depth_metrics", "metrics.depth_metrics", None),
        (metrics, "normal_metrics", "metrics.normal_metrics", None),
        (metrics, "report_for", "metrics.report_for", None),
        (train, "evaluate", "train.evaluate", None),
        (model.Model, "predict", "model.predict", None),
        (model, "save_model", "model.save", None),
        (model, "load_model", "model.load", None),
        (formats, "write_checkpoint", "formats.write_checkpoint", None),
        (formats, "read_checkpoint", "formats.read_checkpoint", None),
        (formats, "fnv1a64", "formats.fnv1a64", None),
        (formats, "write_dataset", "formats.write_dataset", None),
        (formats, "read_dataset", "formats.read_dataset", None),
        (scene, "generate_sample", "scene.generate_sample", None),
        (scene, "cast_scene", "scene.cast_scene", None),
        (scene, "shade", "scene.shade", None),
        (rng.SplitMix64, "normals", "rng.normals", None),
        (netpbm, "write_pgm", "netpbm.write_pgm", None),
        (netpbm, "read_pgm", "netpbm.read_pgm", None),
    ]


# ---- per-layer metrics ---------------------------------------------------------

# (metric, unit, kind, source).  Kinds: self/op and total/op are ms per operation
# of the workload that ran the span (train step, eval batch, io call);
# self/call and total/call are ms per call; calls/op counts calls per
# operation; count/op and count/call divide a counter by the operations it
# was recorded in or by its events.  A source ending in "." matches every
# span name with that prefix.  Spans the benchmark opens around its own
# loop phases (train.*) report total time; spans around program calls
# report self time.
LAYER_METRICS = (
    ("tensor.conv2d.fwd_ms", "ms", "self/op", "tensor.conv2d"),
    ("tensor.conv2d.calls", "count", "calls/op", "tensor.conv2d"),
    ("tensor.conv2d.gflop", "GFLOP", "count/op", "tensor.conv2d.gflop"),
    ("tensor.conv2d.im2col_mb", "MB", "count/op", "tensor.conv2d.im2col_mb"),
    ("tensor.matmul.fwd_ms", "ms", "self/op", "tensor.matmul"),
    ("tensor.softmax.fwd_ms", "ms", "self/op", "tensor.softmax"),
    ("tensor.bilinear_upsample2x.fwd_ms", "ms", "self/op", "tensor.bilinear_upsample2x"),
    ("tensor.backward_ms", "ms", "self/op", "tensor.backward"),
    ("tensor.graph_nodes", "count", "count/op", "tensor.graph_nodes"),
    ("backbone.encoder_ms", "ms", "self/op", "backbone.encoder"),
    ("backbone.decoder_block_ms", "ms", "self/op", "backbone.decoder_block"),
    ("backbone.kmeans_read_ms", "ms", "self/op", "backbone.kmeans_read"),
    ("backbone.standard_read_ms", "ms", "self/op", "backbone.standard_read"),
    ("backbone.kmeans_occupied_ratio", "ratio", "count/call", "backbone.kmeans_occupied_ratio"),
    ("heads.probability_map_ms", "ms", "self/op", "heads.probability_map"),
    ("heads.upsample_probability_map_ms", "ms", "self/op", "heads.upsample_probability_map"),
    ("heads.upsample_rows_ms", "ms", "self/op", "heads.upsample_rows"),
    ("heads.depth_compose_ms", "ms", "self/op", "heads.depth_compose"),
    ("heads.normal_compose_ms", "ms", "self/op", "heads.normal_compose"),
    ("losses.total_loss_ms.seg", "ms", "self/call", "losses.total_loss.seg"),
    ("losses.total_loss_ms.depth", "ms", "self/call", "losses.total_loss.depth"),
    ("losses.total_loss_ms.normal", "ms", "self/call", "losses.total_loss.normal"),
    ("train.batch_ms", "ms", "total/op", "train.batch"),
    ("train.forward_ms", "ms", "total/op", "train.forward"),
    ("train.optimizer_ms", "ms", "total/op", "train.optimizer"),
    ("train.clip_fired_ratio", "ratio", "count/call", "train.clip_fired"),
    ("train.step_ms.seg-kmeans", "ms", "total/call", "train.step.seg-kmeans"),
    ("train.step_ms.seg-standard", "ms", "total/call", "train.step.seg-standard"),
    ("train.step_ms.depth-kmeans", "ms", "total/call", "train.step.depth-kmeans"),
    ("train.step_ms.depth-standard", "ms", "total/call", "train.step.depth-standard"),
    ("train.step_ms.normal-kmeans", "ms", "total/call", "train.step.normal-kmeans"),
    ("train.step_ms.normal-standard", "ms", "total/call", "train.step.normal-standard"),
    ("metrics.ms", "ms", "self/op", "metrics."),
    ("model.predict_ms", "ms", "self/call", "model.predict"),
    ("model.save_ms", "ms", "self/call", "model.save"),
    ("model.load_ms", "ms", "self/call", "model.load"),
    ("formats.write_checkpoint_ms", "ms", "self/call", "formats.write_checkpoint"),
    ("formats.read_checkpoint_ms", "ms", "self/call", "formats.read_checkpoint"),
    ("formats.fnv1a64_ms", "ms", "self/call", "formats.fnv1a64"),
    ("formats.checkpoint_mb", "MB", "count/call", "formats.checkpoint_mb"),
    ("formats.write_dataset_ms", "ms", "self/call", "formats.write_dataset"),
    ("formats.read_dataset_ms", "ms", "self/call", "formats.read_dataset"),
    ("formats.dataset_mb", "MB", "count/call", "formats.dataset_mb"),
    ("scene.generate_sample_ms", "ms", "self/call", "scene.generate_sample"),
    ("scene.cast_scene_ms", "ms", "self/call", "scene.cast_scene"),
    ("scene.shade_ms", "ms", "self/call", "scene.shade"),
    ("rng.normals_ms", "ms", "self/call", "rng.normals"),
    ("netpbm.write_pgm_ms", "ms", "self/call", "netpbm.write_pgm"),
    ("netpbm.read_pgm_ms", "ms", "self/call", "netpbm.read_pgm"),
)

# computed by the workload from traced and untraced rounds, not from spans
OVERHEAD_METRICS = (("trace.overhead_ms", "ms"), ("trace.overhead_ratio", "ratio"))


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def layer_metrics(spans: Sequence[Span], counters: Dict[str, list]) -> Dict[str, float]:
    """Every LAYER_METRICS value; 0 where the workload never reached the source."""
    by_name: Dict[str, list] = {}       # name -> [(op, self seconds, total seconds)]
    for s, own in zip(spans, self_times(spans)):
        if s[4] >= 0:
            by_name.setdefault(s[0], []).append((s[4], own, s[2] - s[1]))
    out: Dict[str, float] = {}
    for metric, _, kind, source in LAYER_METRICS:
        if kind.startswith("count/"):
            total, events, ops = counters.get(source, (0.0, 0, set()))
            denom = len(ops) if kind == "count/op" else events
            out[metric] = total / denom if denom else 0.0
            continue
        picked = [x for name, xs in by_name.items()
                  if (name.startswith(source) if source.endswith(".") else name == source)
                  for x in xs]
        if not picked:
            out[metric] = 0.0
            continue
        ops = len({op for op, _, _ in picked})
        if kind == "calls/op":
            out[metric] = len(picked) / ops
            continue
        secs = sum(own if kind.startswith("self") else total for _, own, total in picked)
        out[metric] = 1e3 * secs / (ops if kind.endswith("/op") else len(picked))
    return out
