"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pmx import netpbm  # noqa: E402


# ---- percentile and sample-count rule -------------------------------------------


@pytest.mark.parametrize("n, want", [(19, None), (20, 500), (99, 500), (100, 900),
                                     (999, 900), (1000, 990), (9999, 990), (10000, 999)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want
    if want is not None:
        assert stats.beyond(n, want) >= stats.MIN_BEYOND


def test_samples_needed_is_the_smallest_sufficient_count():
    for q10 in stats.LADDER:
        n = stats.samples_needed(q10)
        assert stats.beyond(n, q10) >= stats.MIN_BEYOND > stats.beyond(n - 1, q10)
    assert stats.samples_needed(900) == 100


def test_percentile_matches_numpy_linear_rule():
    xs = list(np.random.default_rng(3).exponential(size=37))
    for q in (0, 10, 50, 90, 99, 100):
        assert math.isclose(stats.percentile(xs, q), float(np.percentile(xs, q)))
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5


# ---- span self time --------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics_normalize_per_op_and_per_call():
    spans = [
        ["tensor.conv2d", 0.0, 0.002, -1, 0],
        ["tensor.conv2d", 0.003, 0.004, -1, 0],
        ["tensor.conv2d", 1.0, 1.003, -1, 1],
        ["model.save", 2.0, 2.010, -1, 2],
        ["formats.fnv1a64", 2.001, 2.009, 3, 2],
        ["tensor.conv2d", 5.0, 6.0, -1, -1],          # outside any op: ignored
    ]
    counters = {"formats.checkpoint_mb": [8.0, 2, {-1}]}
    got = tracer.layer_metrics(spans, counters)
    assert math.isclose(got["tensor.conv2d.fwd_ms"], 3.0)      # 6 ms over 2 ops
    assert got["tensor.conv2d.calls"] == 1.5
    assert math.isclose(got["model.save_ms"], 2.0)             # self: 10 - 8
    assert math.isclose(got["formats.fnv1a64_ms"], 8.0)
    assert got["formats.checkpoint_mb"] == 4.0
    assert got["tensor.backward_ms"] == 0.0


def test_wrapped_calls_nest_and_uninstall_restores():
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = t.wrap("inner", inner)
    t.op = 7
    assert t.wrap("outer", outer)(1) == 4
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]
    before = workloads.train.evaluate
    t.install()
    assert workloads.train.evaluate is not before
    t.uninstall()
    assert workloads.train.evaluate is before


# ---- planted wrong outputs -------------------------------------------------------


def test_planted_wrong_outputs_fail_their_checks():
    bins = np.array([[1.0, 2.0, 3.0]])
    good = np.full((1, 4, 4), 2.0)
    assert workloads.check_prediction("depth", good, bins) == []
    bad = good.copy()
    bad[0, 1, 2] = 3.5
    assert workloads.check_prediction("depth", bad, bins)
    assert workloads.check_prediction("seg", np.array([[0, 4]]))
    assert workloads.check_prediction("normal", np.ones((2, 3)))
    panels = np.full((1, 4, 2, 2), 0.25)
    assert workloads.check_prediction("seg", np.zeros((1, 2, 2), int), panels=panels) == []
    panels[0, 0, 1, 1] = 0.3
    assert workloads.check_prediction("seg", np.zeros((1, 2, 2), int), panels=panels)
    assert workloads.check_loss(float("nan"))
    assert workloads.check_close(1.01, 1.0, 1e-3)


def test_planted_wrong_round_trip_is_counted(tmp_path, monkeypatch):
    real = netpbm.read_pgm

    def corrupt(path):
        gray = real(path)
        gray[0, 0] ^= 1
        return gray

    monkeypatch.setattr(netpbm, "read_pgm", corrupt)
    w = workloads.IoWorkload(str(tmp_path))
    state = w.setup(0)
    loop = workloads.Loop(stats.Tally())
    w.round(state, loop)
    assert loop.tally.failed == 1
    assert "panel round trip" in loop.tally.problems[0]
    assert loop.tally.attempted == 4


# ---- names agree with BENCHMARK.json ------------------------------------------------


def test_metric_and_workload_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {n: u for n, u, *_ in tracer.LAYER_METRICS + tracer.OVERHEAD_METRICS}

    res = workloads.run("io", 0, 0.01, False, str(tmp_path / "w"), str(tmp_path / "s"))
    assert {n: u for n, (_, u) in res["end_to_end"].items()} == e2e
    assert all(v > 0 for v, _ in res["end_to_end"].values())
    assert res["failed"] == 0

    res = workloads.run("io", 0, 0.01, True, str(tmp_path / "w"), str(tmp_path / "s"))
    assert set(res["per_layer"]) == set(layer)
    assert res["per_layer"]["formats.checkpoint_mb"] > 3.0
    assert res["per_layer"]["tensor.conv2d.fwd_ms"] == 0.0
