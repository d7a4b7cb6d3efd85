"""The benchmark in ``perfbench/`` still runs against ``src/``.

The bench calls the library directly: ``Model.train_outputs`` and its
prediction keys, the seg row layout, ``total_loss`` with a ``LossConfig``,
``predict``, ``bin_centers`` and ``probability_panels``.  These tests run
its reference-loss probe and one eval round, so a change to any of those
fails here and not only in a bench run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import workloads  # noqa: E402


def test_reference_losses_match_the_bench_record():
    got = workloads.reference_losses()
    assert sorted(got) == sorted(workloads.REFERENCE_LOSS)
    for name, value in got.items():
        assert workloads.check_close(value, workloads.REFERENCE_LOSS[name],
                                     workloads.REFERENCE_RTOL) == [], name


def test_one_eval_round_passes_every_bench_check():
    w = workloads.EvalWorkload()
    state = w.setup(0)
    loop = workloads.Loop(stats.Tally())
    w.round(state, loop)
    w.finish(state, loop.tally)
    assert loop.tally.attempted > 0
    assert loop.tally.failed == 0, loop.tally.problems
