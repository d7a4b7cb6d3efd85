"""The benchmark in ``perfbench/`` still runs against ``src/``.

The bench calls the library directly: ``Model.train_outputs`` and its
prediction keys, the seg row layout, ``total_loss`` with a ``LossConfig``,
``predict``, ``bin_centers``, ``probability_panels``, the dataset and
checkpoint readers and writers, and ``CorruptionError``.  These tests run
its reference-loss probe, one eval round and one io round, so a change to
any of those fails here and not only in a bench run.  The bench also
copies ``train``'s loop body; one test checks that the copy and the
shipped loop give the same loss bits.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402

from pmx.model import ModelConfig  # noqa: E402
from pmx.scene import SceneConfig, generate_split  # noqa: E402
from pmx.train import TrainConfig, train  # noqa: E402


def test_reference_losses_match_the_bench_record():
    got = workloads.reference_losses()
    assert sorted(got) == sorted(workloads.REFERENCE_LOSS)
    for name, value in got.items():
        assert workloads.check_close(value, workloads.REFERENCE_LOSS[name],
                                     workloads.REFERENCE_RTOL) == [], name


def test_bench_steps_give_the_shipped_loop_s_loss_bits():
    # 16 scenes are two whole batches: only when the batch divides the
    # sample count does the bench's sample order match train's
    samples = generate_split(0, 2 * workloads.BATCH, SceneConfig(size=workloads.TRAIN_SIZE))
    for task in workloads.TASKS:
        for variant in ("kmeans", "standard"):
            t = workloads.new_trainee(task, variant, 0)
            bench = [workloads.train_step(t, samples, NullTracer()) for _ in range(3)]
            cfg = TrainConfig(ModelConfig(task, variant=variant), steps=3,
                              batch=workloads.BATCH, seed=0)
            assert [value for _, value, _ in train(samples, cfg).trace] == bench, t.name


def test_one_eval_round_passes_every_bench_check():
    w = workloads.EvalWorkload()
    state = w.setup(0)
    loop = workloads.Loop(stats.Tally())
    w.round(state, loop)
    w.finish(state, loop.tally)
    assert loop.tally.attempted > 0
    assert loop.tally.failed == 0, loop.tally.problems


def test_one_io_round_passes_every_bench_check(tmp_path):
    w = workloads.IoWorkload(str(tmp_path))
    state = w.setup(0)
    loop = workloads.Loop(stats.Tally())
    w.round(state, loop)
    w.finish(state, loop.tally)
    assert loop.tally.attempted > 0
    assert loop.tally.failed == 0, loop.tally.problems
