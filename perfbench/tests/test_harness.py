"""Tests of the benchmark itself: generators, names and the breakdown check.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import re
import threading

import numpy as np
import pytest

from harness.gen import HOLDOUT_SEED, WORKLOADS, Feed, ServeOps
from harness.layers import PER_LAYER
from harness.report import END_TO_END, TAIL_BEYOND, Op, Phase, tail_percentile, window_rates
from harness.spans import (
    BreakdownError,
    Span,
    SpanRecorder,
    aggregate,
    check_spans,
    check_tree,
    find,
    wrap,
)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["explain-paper", "serve-hot"])
def test_serve_ops_are_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first, second = ServeOps(workload, 3), ServeOps(workload, 3)
    for phase in ("warmup", "gate", "closed", "open"):
        for index in (0, 1, 17, 250):
            assert first.op(phase, index) == second.op(phase, index)
            instance_id = first.op(phase, index).instance_id
            np.testing.assert_array_equal(first.instance(instance_id), second.instance(instance_id))


@pytest.mark.parametrize("name", ["explain-paper", "serve-hot"])
def test_serve_ops_differ_across_seeds_and_phases(name):
    workload = WORKLOADS[name]
    ops = ServeOps(workload, 3)
    bodies = {ops.op("closed", index).body for index in range(20)}
    other_seed = {ServeOps(workload, HOLDOUT_SEED).op("closed", index).body for index in range(20)}
    other_phase = {ops.op("open", index).body for index in range(20)}
    assert not bodies & other_seed
    assert len(bodies & other_phase) < len(bodies)


def test_serve_hot_mix_follows_its_shares():
    workload = WORKLOADS["serve-hot"]
    generator = ServeOps(workload, 0)
    ops = [generator.op("closed", index) for index in range(2000)]
    classify = sum(op.path == "/classify" for op in ops) / len(ops)
    explains = [op for op in ops if op.path == "/explain"]
    omitted = sum(op.class_id is None for op in explains) / len(explains)
    assert abs(classify - workload.classify_share) < 0.05
    assert abs(omitted - workload.omit_class_share) < 0.07
    assert len({op.instance_id for op in ops}) < workload.pool_size


def test_feed_is_deterministic_and_rebuilds_windows():
    workload = WORKLOADS["stream-hop"]
    left, right = Feed(workload, 5, "main"), Feed(workload, 5, "main")
    first = left.first_window()
    np.testing.assert_array_equal(first, right.first_window())
    for _ in range(3):
        np.testing.assert_array_equal(left.next(), right.next())
    end = left.pushed
    window = left.window(end)
    assert window.shape == (workload.n_dimensions, workload.length)
    np.testing.assert_array_equal(window[:, -workload.hop:], left.block(len(left._blocks) - 1))
    assert not np.array_equal(Feed(workload, 6, "main").block(0), Feed(workload, 5, "main").block(0))


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------
def test_metric_and_workload_names_are_valid():
    spec = _benchmark_json()
    names = [metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]]
    names += [workload["name"] for workload in spec["workloads"]]
    names += list(PER_LAYER) + list(WORKLOADS)
    for name in names:
        assert NAME.match(name), name
    assert len({metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]}) == len(
        spec["end_to_end"] + spec["per_layer"]
    )


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    assert {"explain-paper", "stream-hop"} <= set(names)
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == PER_LAYER
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == END_TO_END
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"][0]
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])


# ---------------------------------------------------------------------------
# Breakdown check
# ---------------------------------------------------------------------------
def _tree(parent_total, self_s, child_totals):
    return {
        "calls": 0, "total_s": parent_total, "self_s": 0.0, "attrs": {},
        "children": {
            "parent": {
                "calls": 1, "total_s": parent_total, "self_s": self_s, "attrs": {},
                "children": {
                    f"child{index}": {"calls": 1, "total_s": total, "self_s": total,
                                      "attrs": {}, "children": {}}
                    for index, total in enumerate(child_totals)
                },
            }
        },
    }


def test_check_tree_accepts_a_tree_that_adds_up():
    check_tree(_tree(1.0, 0.25, [0.5, 0.25]))


@pytest.mark.parametrize("self_s, children", [(0.5, [0.5, 0.25]), (-0.25, [0.75, 0.5])])
def test_check_tree_rejects_a_tree_that_does_not_add_up(self_s, children):
    with pytest.raises(BreakdownError):
        check_tree(_tree(1.0, self_s, children))


def test_check_spans_rejects_children_outside_or_overlapping():
    parent = Span("p", 0.0, 1.0, -1, "r0")
    assert not check_spans([parent, Span("a", 0.1, 0.4, 0, "r0"), Span("b", 0.5, 0.9, 0, "r0")])
    assert check_spans([parent, Span("a", 0.1, 1.2, 0, "r0")])
    assert check_spans([parent, Span("a", 0.1, 0.6, 0, "r0"), Span("b", 0.5, 0.9, 0, "r0")])


def test_recorded_spans_nest_per_thread_and_add_up():
    recorder = SpanRecorder()

    class Layers:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            return sum(range(2000))

    wrap(recorder, Layers, "outer", "outer")
    wrap(recorder, Layers, "inner", "inner", lambda attrs, *_: attrs.update(items=1.0))
    threads = [threading.Thread(target=Layers().outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert not check_spans(recorder.spans)
    tree = aggregate(recorder.spans)
    check_tree(tree)
    inner = find(tree, "inner", parent="outer")
    assert inner["calls"] == 8 and inner["attrs"]["items"] == 8.0
    outer = find(tree, "outer")
    assert outer["calls"] == 4
    assert outer["total_s"] == pytest.approx(outer["self_s"] + inner["total_s"], abs=1e-6)
    assert len({span.rid for span in recorder.spans}) == 4


def test_tail_percentile_leaves_exactly_ten_beyond():
    samples = list(range(100))
    tail = tail_percentile(samples)
    assert sum(sample > tail["value"] for sample in samples) == TAIL_BEYOND
    assert tail["percentile"] == 90.0
    short = tail_percentile(list(range(TAIL_BEYOND)))
    assert short["value"] == TAIL_BEYOND - 1 and short["beyond"] == 0


def test_a_phase_in_stretches_has_one_rate_per_stretch():
    phase = Phase("closed", "closed", started=0.0, ended=5.0,
                  stretches=[(0.0, 1.0), (3.0, 5.0)])
    phase.ops = [Op(index, t, t, t, ok=True) for index, t in enumerate([0.5, 0.9, 3.5, 4.0])]
    phase.ops.append(Op(4, 4.5, 4.5, 4.5, ok=False))
    assert window_rates(phase) == [2.0, 1.0]
    assert phase.elapsed == 3.0
