"""The train, eval and io workloads and the closed loop that measures them.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returns.  All inputs (scenes, model weights,
sample order) derive from the workload seed.  A workload is built by
``setup`` (repeated, the median is ``setup_s``), then runs whole rounds of
operations until the window has passed; a round covers every config, so
the mix of operations is the same in every run.  Outputs are checked
outside the timed region, and failures are counted against attempts.

With tracing on, rounds alternate untraced and traced; the per-layer
numbers come from traced rounds and the tracing overhead is the
difference between the two.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from pmx import formats, losses, metrics, model, netpbm, scene, train
from pmx.errors import CorruptionError
from pmx.rng import mix_seed_index
from pmx.tensor import Tensor

import stats
from stats import Tally
from tracer import NullTracer, Tracer, layer_metrics

TASKS = ("seg", "depth", "normal")
CLASSES = scene.N_CLASSES
D_MIN, D_MAX = 0.5, 10.0
BATCH = 8
SETUP_REPEATS = 5
PRED_KEY = {"seg": "logits", "depth": "depth", "normal": "normal"}
GT_FIELD = {"seg": "labels", "depth": "depth", "normal": "normal"}


@dataclass
class Op:
    kind: str
    seconds: float
    items: int
    traced: bool
    parts: Dict[str, float]


@dataclass
class Loop:
    """Per-run bookkeeping shared by the workloads' rounds."""
    tally: Tally
    tracer: object = field(default_factory=NullTracer)
    traced: bool = False
    ops: List[Op] = field(default_factory=list)
    next_op: int = 0

    def timed(self, kind: str, fn, items: int = 0, part: Optional[str] = None):
        """Run fn as one operation; ``part`` names its time within the op."""
        self.ops.append(Op(kind, 0.0, items, self.traced, {}))
        self.next_op += 1
        return self.more(part or kind, fn)

    def more(self, part: str, fn):
        """Run fn as a further part of the last operation."""
        op = self.ops[-1]
        self.tracer.op = self.next_op - 1
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.tracer.op = -1
        op.seconds += dt
        op.parts[part] = dt
        return out


# ---- checks --------------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.


def check_loss(value: float) -> List[str]:
    return [] if np.isfinite(value) else [f"loss {value} is not finite"]


def check_close(got: float, want: float, rtol: float) -> List[str]:
    if not (np.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-12)):
        return [f"{got!r} differs from reference {want!r} by more than {rtol:g} relative"]
    return []


def check_report(report, task: str, pixels: int) -> List[str]:
    """Range checks on a MetricReport from train.evaluate."""
    out = []
    vals = report.metrics
    if report.task != task or report.pixels != pixels:
        out.append(f"report for {report.task!r} over {report.pixels} pixels")
    if not all(np.isfinite(v) for v in vals.values()):
        out.append(f"non-finite metric in {vals}")
    elif task == "seg" and not 0.0 <= vals["miou"] <= 1.0:
        out.append(f"miou {vals['miou']} outside [0, 1]")
    elif task == "depth" and not 0.0 <= vals["delta1"] <= vals["delta2"] <= vals["delta3"] <= 1.0:
        out.append("delta ratios not monotone in [0, 1]")
    elif task == "normal" and not 0.0 <= vals["mean_deg"] <= 180.0:
        out.append(f"mean angle {vals['mean_deg']} outside [0, 180]")
    return out


def check_prediction(task: str, pred: np.ndarray, bins: Optional[np.ndarray] = None,
                     panels: Optional[np.ndarray] = None) -> List[str]:
    """The paper's invariants on Model outputs.

    seg labels lie in [0, C); depth lies inside [min b, max b] of its own
    image's bin centers (or the head's range for the baseline), up to 1e-6
    relative for float32 rounding; normals are unit length; probability
    panels sum to 1 over clusters at every pixel.
    """
    out = []
    if task == "seg":
        if pred.min() < 0 or pred.max() >= CLASSES:
            out.append(f"labels span [{pred.min()}, {pred.max()}], not [0, {CLASSES})")
    elif task == "depth":
        if bins is not None:
            lo, hi = bins.min(axis=1), bins.max(axis=1)
        else:
            lo, hi = np.full(len(pred), D_MIN), np.full(len(pred), D_MAX)
        flat = pred.reshape(len(pred), -1)
        slack = 1e-6 * hi
        if np.any(flat.min(axis=1) < lo - slack) or np.any(flat.max(axis=1) > hi + slack):
            out.append("depth leaves the range of its bin centers")
    else:
        err = np.abs(np.linalg.norm(pred.astype(np.float64), axis=-1) - 1.0).max()
        if not err <= 1e-4:
            out.append(f"normals off unit length by {err:.3g}")
    if panels is not None:
        err = np.abs(panels.astype(np.float64).sum(axis=1) - 1.0).max()
        if not err <= 1e-5:
            out.append(f"probability panels sum to 1 only within {err:.3g}")
    return out


def check_samples(samples: Sequence[scene.Sample], size: int) -> List[str]:
    for i, s in enumerate(samples):
        if (s.image.shape != (size, size, 3) or s.labels.shape != (size, size)
                or s.depth.shape != (size, size) or s.normal.shape != (size, size, 3)):
            return [f"sample {i} has wrong shapes"]
        if not (0.0 <= s.image.min() and s.image.max() <= 1.0):
            return [f"sample {i} image leaves [0, 1]"]
        if s.labels.max() >= CLASSES:
            return [f"sample {i} label {s.labels.max()} >= {CLASSES}"]
        if not (D_MIN <= s.depth.min() and s.depth.max() <= D_MAX):
            return [f"sample {i} depth leaves [{D_MIN}, {D_MAX}]"]
        if np.abs(np.linalg.norm(s.normal, axis=-1) - 1.0).max() > 1e-5:
            return [f"sample {i} normals are not unit length"]
    return []


def check_same_arrays(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> List[str]:
    if sorted(got) != sorted(want):
        return [f"names differ: {sorted(set(got) ^ set(want))[:3]}"]
    for name in want:
        if got[name].shape != want[name].shape or not np.array_equal(got[name], want[name]):
            return [f"{name} differs after the round trip"]
    return []


def sample_arrays(samples: Sequence[scene.Sample]) -> Dict[str, np.ndarray]:
    return {f"{i}/{k}": getattr(s, k) for i, s in enumerate(samples)
            for k in ("image", "labels", "depth", "normal")}


# ---- train -----------------------------------------------------------------------


TRAIN_SIZE = 64
TRAIN_SAMPLES = 64
CLIP_NORM = 10.0
LOSS = losses.LossConfig()

# Loss after REFERENCE_STEPS AdamW steps on the fixed reference batch
# (scene seed 0, model seed 0), recorded at the commit that added this
# benchmark.  The probe does not depend on the workload seed.
REFERENCE_STEPS = 3
REFERENCE_RTOL = 1e-3
REFERENCE_LOSS = {
    "seg-kmeans": 1.2040767669677734,
    "seg-standard": 1.351575255393982,
    "depth-kmeans": 1.4650766849517822,
    "depth-standard": 1.5079524517059326,
    "normal-kmeans": 0.7447478175163269,
    "normal-standard": 0.8270529508590698,
}


@dataclass
class Trainee:
    name: str
    task: str
    model: model.Model
    opt: train.AdamW
    seed: int
    step: int = 0
    epoch: int = -1
    perm: Optional[np.ndarray] = None

    def batch_indices(self, n: int) -> np.ndarray:
        """Same order as train.train: per-epoch permutations keyed by seed."""
        epoch, off = divmod(self.step * BATCH, n)
        if epoch != self.epoch:
            self.epoch, self.perm = epoch, train.epoch_permutation(self.seed, epoch, n)
        return self.perm[off:off + BATCH]


def new_trainee(task: str, variant: str, seed: int) -> Trainee:
    cfg = model.ModelConfig(task=task, k=4, variant=variant, head="cluster",
                            classes=CLASSES, d_min=D_MIN, d_max=D_MAX)
    m = model.Model(cfg, seed=seed)
    opt = train.AdamW(m.params(), train.LR_PRESETS["pretrain"])
    return Trainee(f"{task}-{variant}", task, m, opt, seed)


def _graph_nodes(loss: Tensor) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def batch_targets(task: str, chosen: Sequence[scene.Sample]) -> Dict[str, np.ndarray]:
    """The loss targets train.train builds for a batch."""
    if task == "seg":
        return {"labels": np.stack([s.labels for s in chosen]).reshape(-1)}
    b = len(chosen)
    hw = chosen[0].labels.size
    gt = np.stack([getattr(s, task) for s in chosen])
    return {task: gt.reshape((b, hw) if task == "depth" else (b, hw, 3)),
            "mask": np.ones((b, hw), dtype=np.float32)}


def warm_up(t: Trainee, samples: Sequence[scene.Sample]) -> None:
    """One step on ``samples``, then the sample order starts over.  Pays
    first-call allocations and caches in set-up; a one-sample batch has
    the shapes of a real step at a fraction of its cost."""
    train_step(t, samples, NullTracer())
    t.step, t.epoch = 0, -1


def train_step(t: Trainee, samples: Sequence[scene.Sample], tracer) -> float:
    """One step as the loop body of train.train runs it; returns the loss."""
    with tracer.span("train.batch"):
        chosen = [samples[i] for i in t.batch_indices(len(samples))]
        images = np.stack([s.image.transpose(2, 0, 1) for s in chosen])
        targets = batch_targets(t.task, chosen)
        h, w = chosen[0].labels.shape
    with tracer.span("train.forward"):
        outputs = t.model.train_outputs(Tensor(images))
        pred = outputs[PRED_KEY[t.task]]
        if t.task == "seg":
            pred = pred.reshape(pred.shape[0] * pred.shape[1], pred.shape[2])
        loss, _ = losses.total_loss(t.task, pred, targets, LOSS, (h, w))
    value = float(loss.data)
    if isinstance(tracer, Tracer):
        with tracer.span("trace.hook"):
            tracer.count("tensor.graph_nodes", _graph_nodes(loss))
    t.opt.zero_grad()
    loss.backward()
    with tracer.span("train.optimizer"):
        norm = t.opt.clip_global_norm(CLIP_NORM)
        t.opt.step()
    tracer.count("train.clip_fired", float(norm > CLIP_NORM))
    t.step += 1
    return value


class TrainWorkload:
    """Back-to-back AdamW steps at 64x64, batch 8, K=4, cluster head, over
    {seg, depth, normal} x {kmeans, standard}, one step of each per round."""

    name = "train"
    aliases = {"items_per_s": "train_samples_per_s", "op_ms_p50": "train_step_ms_p50",
               "op_ms_p90": "train_step_ms_p90"}

    def setup(self, seed: int):
        samples = scene.generate_split(mix_seed_index(seed, 1), TRAIN_SAMPLES,
                                       scene.SceneConfig(size=TRAIN_SIZE))
        trainees = [new_trainee(task, variant, mix_seed_index(seed, 2))
                    for task in TASKS for variant in ("kmeans", "standard")]
        for t in trainees:
            warm_up(t, samples[:1])
        return samples, trainees

    def round(self, state, loop: Loop) -> None:
        samples, trainees = state
        for t in trainees:
            def step(t=t):
                with loop.tracer.span(f"train.step.{t.name}"):
                    return train_step(t, samples, loop.tracer)
            value = loop.timed("step", step, BATCH)
            loop.tally.check(f"{t.name} step {t.step}", check_loss(value))

    def finish(self, state, tally: Tally) -> Dict[str, float]:
        for name, value in reference_losses().items():
            tally.check(f"{name} reference loss", check_close(value, REFERENCE_LOSS[name],
                                                              REFERENCE_RTOL))
        return {}

    def extra(self, ops: List[Op]) -> Dict[str, Tuple[float, str]]:
        return {}


def reference_losses() -> Dict[str, float]:
    """Each config's loss after REFERENCE_STEPS steps on the fixed batch."""
    samples = scene.generate_split(0, BATCH, scene.SceneConfig(size=TRAIN_SIZE))
    out = {}
    for task in TASKS:
        for variant in ("kmeans", "standard"):
            t = new_trainee(task, variant, 0)
            for _ in range(REFERENCE_STEPS):
                t.step = 0                      # the same batch every step
                value = train_step(t, samples, NullTracer())
            out[t.name] = value
    return out


# ---- eval ------------------------------------------------------------------------


EVAL_SIZE = 128
EVAL_BATCHES = 2


class EvalWorkload:
    """train.evaluate over one batch of 8 at 128x128 per operation, for
    {seg, depth, normal} x {cluster, baseline} with kmeans attention."""

    name = "eval"
    aliases = {"items_per_s": "eval_images_per_s", "op_ms_p50": "eval_batch_ms_p50",
               "op_ms_p90": "eval_batch_ms_p90"}

    def setup(self, seed: int):
        samples = scene.generate_split(mix_seed_index(seed, 3), EVAL_BATCHES * BATCH,
                                       scene.SceneConfig(size=EVAL_SIZE))
        batches = [samples[i * BATCH:(i + 1) * BATCH] for i in range(EVAL_BATCHES)]
        models = []
        for task in TASKS:
            for head in ("cluster", "baseline"):
                cfg = model.ModelConfig(task=task, k=4, variant="kmeans", head=head,
                                        classes=CLASSES, d_min=D_MIN, d_max=D_MAX)
                m = model.Model(cfg, seed=mix_seed_index(seed, 4))
                train.evaluate(m, batches[0][:1], task)      # warm-up, one image
                models.append((f"{task}-{head}", task, m))
        return batches, models, {}

    def round(self, state, loop: Loop) -> None:
        batches, models, first = state
        pixels = BATCH * EVAL_SIZE * EVAL_SIZE
        for bi, batch in enumerate(batches):
            for name, task, m in models:
                rep = loop.timed("batch", lambda: train.evaluate(m, batch, task), BATCH)
                problems = check_report(rep, task, pixels)
                ref = first.setdefault((name, bi), rep)
                for key, want in ref.metrics.items():
                    problems += check_close(rep.metrics[key], want, 1e-6)
                loop.tally.check(f"{name} batch {bi}", problems)

    def finish(self, state, tally: Tally) -> Dict[str, float]:
        """Invariants on the predictions behind every (config, batch) seen,
        and the evaluate report recomputed from them with pmx.metrics."""
        batches, models, first = state
        for (name, bi), rep in sorted(first.items()):
            _, task, m = next(x for x in models if x[0] == name)
            batch = batches[bi]
            images = Tensor(np.stack([s.image.transpose(2, 0, 1) for s in batch]))
            pred = m.predict(images)
            cluster = m.cfg.head == "cluster"
            bins = m.bin_centers(images) if cluster and task == "depth" else None
            panels = m.probability_panels(images) if cluster else None
            problems = check_prediction(task, pred, bins, panels)
            gt = np.stack([getattr(s, GT_FIELD[task]) for s in batch])
            if task == "seg":
                want = {"miou": metrics.miou(pred, gt, CLASSES)[1]}
            elif task == "depth":
                want = metrics.depth_metrics(pred.reshape(-1), gt.reshape(-1), np.ones(pred.size))
            else:
                want = metrics.normal_metrics(pred.reshape(-1, 3), gt.reshape(-1, 3),
                                              np.ones(pred.size // 3))
            for key, value in want.items():
                problems += check_close(rep.metrics[key], value, 1e-6)
            tally.check(f"{name} batch {bi} invariants", problems)
        return {}

    def extra(self, ops: List[Op]) -> Dict[str, Tuple[float, str]]:
        return {}


# ---- io ----------------------------------------------------------------------------


IO_SIZE = 64
IO_SAMPLES = 16
PANELS = 4


class IoWorkload:
    """Data and state paths with no model forward, one cycle of five
    operations per round: generate 16 scenes at 64x64; write them as a
    dataset plus four PGM depth panels; read both back; save a depth
    checkpoint with AdamW state; load it.  With two faster and two slower
    operations around generation, the median operation is a generation and
    the 90th percentile a checkpoint save or load."""

    name = "io"
    aliases = {"items_per_s": "generate_samples_per_s"}

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: int):
        t = new_trainee("depth", "kmeans", mix_seed_index(seed, 5))
        warm_up(t, scene.generate_split(mix_seed_index(seed, 6), BATCH,
                                        scene.SceneConfig(size=IO_SIZE)))   # AdamW moments
        os.makedirs(self.workdir, exist_ok=True)
        return {"seed": seed, "trainee": t, "cycle": 0, "sizes": {}}

    def round(self, state, loop: Loop) -> None:
        t = state["trainee"]
        cycle = state["cycle"]
        state["cycle"] += 1
        d = self.workdir
        data_path, ckpt_path = os.path.join(d, "data.pmxd"), os.path.join(d, "model.pmxc")
        gen_seed = mix_seed_index(state["seed"], 1000 + cycle)
        samples = loop.timed("generate", lambda: scene.generate_split(
            gen_seed, IO_SAMPLES, scene.SceneConfig(size=IO_SIZE)), IO_SAMPLES)
        loop.tally.check(f"cycle {cycle} generate", check_samples(samples, IO_SIZE))

        panels = {os.path.join(d, f"panel{k}.pgm"): netpbm.quantize(
            (s.depth - D_MIN) / (D_MAX - D_MIN)) for k, s in enumerate(samples[:PANELS])}

        def write_panels():
            for path, gray in panels.items():
                netpbm.write_pgm(path, gray)

        loop.timed("write", lambda: formats.write_dataset(
            data_path, samples, CLASSES, D_MIN, D_MAX), part="write_dataset")
        loop.more("write_panels", write_panels)
        loop.tracer.count("formats.dataset_mb", os.path.getsize(data_path) / 1e6)
        hdr, back = loop.timed("read", lambda: formats.read_dataset(data_path),
                               part="read_dataset")
        gray = loop.more("read_panels", lambda: {p: netpbm.read_pgm(p) for p in panels})
        loop.tally.check(f"cycle {cycle} panel round trip", check_same_arrays(gray, panels))
        problems = [] if (hdr.count, hdr.h, hdr.w, hdr.classes) == (
            IO_SAMPLES, IO_SIZE, IO_SIZE, CLASSES) else [f"header {hdr}"]
        loop.tally.check(f"cycle {cycle} dataset round trip",
                         problems + check_same_arrays(sample_arrays(back), sample_arrays(samples)))

        opt_state = t.opt.state()
        loop.timed("save_model", lambda: model.save_model(ckpt_path, t.model, opt_state))
        loop.tracer.count("formats.checkpoint_mb", os.path.getsize(ckpt_path) / 1e6)
        m2, opt2 = loop.timed("load_model", lambda: model.load_model(ckpt_path))
        want = {n: p.data for n, p in t.model.params().items()}
        want.update({f"opt/{n}": np.asarray(a, dtype=np.float32) for n, a in opt_state.items()})
        got = {n: p.data for n, p in m2.params().items()}
        got.update({f"opt/{n}": a for n, a in opt2.items()})
        problems = [] if m2.cfg == t.model.cfg else [f"config {m2.cfg}"]
        loop.tally.check(f"cycle {cycle} checkpoint round trip",
                         problems + check_same_arrays(got, want))

        state["sizes"] = {"dataset_mb": os.path.getsize(data_path) / 1e6,
                          "checkpoint_mb": os.path.getsize(ckpt_path) / 1e6}

    def finish(self, state, tally: Tally) -> Dict[str, float]:
        """A checkpoint with one flipped byte must raise CorruptionError."""
        ckpt_path = os.path.join(self.workdir, "model.pmxc")
        bad_path = os.path.join(self.workdir, "flipped.pmxc")
        with open(ckpt_path, "rb") as fh:
            blob = bytearray(fh.read())
        pos = 12 + mix_seed_index(state["seed"], 7) % (len(blob) - 20)
        blob[pos] ^= 0x40
        with open(bad_path, "wb") as fh:
            fh.write(blob)
        try:
            formats.read_checkpoint(bad_path)
            problems = [f"flipped byte {pos} was not detected"]
        except CorruptionError:
            problems = []
        tally.check("flipped checkpoint byte", problems)
        return state["sizes"]

    def extra(self, ops: List[Op]) -> Dict[str, Tuple[float, str]]:
        """Median seconds of each data-path call."""
        return {metric: (stats.median([o.parts[part] for o in ops if part in o.parts]), "s")
                for metric, part in (("dataset_write_s", "write_dataset"),
                                     ("dataset_read_s", "read_dataset"),
                                     ("ckpt_save_s", "save_model"),
                                     ("ckpt_load_s", "load_model"))}


# ---- the measured run ------------------------------------------------------------------


def make(name: str, workdir: str):
    if name == "train":
        return TrainWorkload()
    if name == "eval":
        return EvalWorkload()
    if name == "io":
        return IoWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "eval", "io")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, spans_path: str) -> dict:
    """Set up, measure for ``seconds`` and check; returns the result dict."""
    w = make(name, workdir)
    tally = Tally()
    loop = Loop(tally)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = None                 # drop the previous build before the next
            state = w.setup(seed)
            setups.append(time.perf_counter() - t0)
        tracer = Tracer() if trace else None
        # p90 needs this many samples to have ten beyond it
        need = 0 if trace else stats.samples_needed(900)
        cap = max(seconds, min(3 * seconds, 120.0))
        rounds = 0
        start = time.perf_counter()
        while True:
            loop.traced = trace and rounds % 2 == 1
            loop.tracer = tracer if loop.traced else NullTracer()
            if loop.traced:
                tracer.install()
            try:
                w.round(state, loop)
            finally:
                if loop.traced:
                    tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - start
            untraced = [o for o in loop.ops if not o.traced]
            done = (elapsed >= seconds and len(untraced) >= need) or elapsed >= cap
            if done and (not trace or rounds % 2 == 0):    # traced runs end on a traced round
                break
        sizes = w.finish(state, tally)
    finally:
        if name == "io":
            shutil.rmtree(workdir, ignore_errors=True)

    untraced = [o for o in loop.ops if not o.traced]
    secs = [o.seconds for o in untraced]
    with_items = [o for o in untraced if o.items]
    tail = stats.tail_percentile(len(secs))
    result = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "samples": len(secs),
        "tail_percentile": tail / 10 if tail else None,
        "sizes": sizes,
        "end_to_end": {
            "setup_s": (stats.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "items_per_s": (sum(o.items for o in with_items)
                            / sum(o.seconds for o in with_items), "1/s"),
            "op_ms_p50": (1e3 * stats.percentile(secs, 50), "ms"),
            "op_ms_p90": (1e3 * stats.percentile(secs, 90), "ms"),
        },
    }
    # the same figures under the workload's own names, plus its extra ones
    named = {w.aliases.get(k, k): v for k, v in result["end_to_end"].items()
             if k in w.aliases or k in ("setup_s", "peak_rss_mb")}
    named.update(w.extra(untraced))
    named["ops_failed_ratio"] = (tally.ratio(), "ratio")
    result["named"] = named
    if trace:
        # traced and untraced rounds run the same mix, so their mean
        # operation times differ by what tracing costs
        traced = [o.seconds for o in loop.ops if o.traced]
        layers = layer_metrics(tracer.spans, tracer.counters)
        base = sum(secs) / len(secs)
        over = sum(traced) / len(traced) - base
        layers["trace.overhead_ms"] = 1e3 * over
        layers["trace.overhead_ratio"] = over / base
        result["per_layer"] = layers
        tracer.write(spans_path)
        result["spans"] = len(tracer.spans)
    return result
