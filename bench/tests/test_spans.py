"""Span arithmetic of the traced run, on synthetic span trees."""

import json
import types
from pathlib import Path

import pytest

import layers
import workloads
from spans import (Span, Tracer, child_calls, instrumented, nested_ns,
                   self_times, totals, unattributed_ns)


def tree():
    """A [0,100] holds B [10,60] (which holds C [20,30]) and D [70,90];
    E [110,130] is a second root."""
    return [Span("m.A", -1, 0, 100), Span("m.B", 0, 10, 60),
            Span("m.C", 1, 20, 30), Span("m.D", 0, 70, 90),
            Span("m.E", -1, 110, 130)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(tree()) == [30, 40, 10, 20, 20]


def test_totals_group_by_name():
    spans = tree() + [Span("m.C", -1, 140, 145)]
    t = totals(spans)
    assert t["m.C"] == {"calls": 2, "total_ns": 15, "self_ns": 15}
    assert t["m.A"] == {"calls": 1, "total_ns": 100, "self_ns": 30}


def test_unattributed_is_wall_minus_roots():
    spans = tree()
    assert unattributed_ns(spans, 150) == 30
    assert unattributed_ns(spans, 150) == 150 - sum(self_times(spans))


def test_nested_counts_outermost_inner_span_under_an_outer_span():
    spans = [Span("rbm.train_binary", -1, 0, 100),
             Span("rbm.classify_rbm", 0, 10, 40),
             Span("dnn.predict", 1, 15, 35),       # inside the probe: not again
             Span("rbm.classify_rbm", -1, 200, 210)]  # not under training
    assert nested_ns(spans, layers.is_probe, layers.TRAINING.__contains__) == 30


def fake_modules():
    """`low` defines f; `high` imports f and calls it from h; `low.g`
    calls f through its own namespace."""
    low = types.ModuleType("pkg.low")
    exec("def f(x):\n    return x + 1\n"
         "def g(x):\n    return f(x) * 2\n", low.__dict__)
    high = types.ModuleType("pkg.high")
    high.f = low.f
    exec("def h(x):\n    return f(x) - 1\n", high.__dict__)
    return low, high


class StepClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


def test_one_name_rebound_in_several_modules_keeps_its_callers():
    low, high = fake_modules()
    original = low.f
    tracer = Tracer(clock=StepClock())
    with instrumented(tracer, [low, high], [low, high]):
        assert high.f is low.f and low.f is not original
        assert high.h(1) == 1 and low.g(1) == 4
    assert low.f is original and high.f is original
    names = [(s.name, tracer.spans[s.parent].name if s.parent >= 0 else None)
             for s in tracer.spans]
    assert names == [("high.h", None), ("low.f", "high.h"),
                     ("low.g", None), ("low.f", "low.g")]
    assert child_calls(tracer.spans, "high.h", "low.f") == 1
    # the clock ticks 10 per reading: each f span lasts 10, each parent 30
    assert self_times(tracer.spans) == [20, 10, 20, 10]


def test_counters_are_recorded_on_spans():
    low, _ = fake_modules()
    tracer = Tracer(clock=StepClock())
    with instrumented(tracer, [low], [low],
                      {"low.f": lambda a, k, r: {"elements": a[0]}}):
        low.g(5)
    assert [s.info for s in tracer.spans] == [{}, {"elements": 5}]


def test_sweeps_per_call_from_child_sigmoid_calls():
    # two calls on a 2-layer DBM: 3 and 5 sweeps after the bottom-up pass
    spans = []
    for sweeps, start in ((3, 0), (5, 1000)):
        parent = len(spans)
        spans.append(Span("dbm.mean_field_states", -1, start, start + 500,
                          {"rows": 30, "layers": 2}))
        spans += [Span("core.sigmoid", parent, start + 1 + i, start + 2 + i)
                  for i in range(2 * (1 + sweeps))]
    m = layers.pass_metrics(spans, 2000)
    assert m["dbm.mean_field_states.sweeps_per_call"] == 4
    assert m["dbm.mean_field_states.rows"] == 60
    assert m["dbm.mean_field_states.calls"] == 2
    assert m["core.sigmoid.calls"] == 20
    assert m["trace.unattributed_ms"] == pytest.approx(1000 / 1e6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(workloads.__file__).parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END.items())
