"""Span self-time arithmetic and the accounting closure."""

import pytest

from perfbench import trace


def span(sid, name, start, end, parent=None):
    return (sid, name, start, end, parent, None)


def test_covered_merges_overlapping_children():
    assert trace.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0


def test_covered_clips_children_to_the_interval():
    assert trace.covered((2.0, 5.0), [(0.0, 3.0), (4.0, 9.0), (6.0, 8.0)]) == 2.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 5.0, parent=1),
        span(3, "b", 2.0, 4.0, parent=2),
        span(4, "a", 6.0, 7.0, parent=1),
    ]
    table = trace.self_times(spans)
    assert table["root"] == {"self": 5.0, "total": 10.0, "calls": 1}
    assert table["a"] == {"self": 3.0, "total": 5.0, "calls": 2}
    assert table["b"] == {"self": 2.0, "total": 2.0, "calls": 1}


def test_closure_adds_up_to_wall():
    spans = [
        span(1, "harness.job", 0.0, 8.0),
        span(2, "decode", 1.0, 3.0, parent=1),
        span(3, "lint", 3.0, 7.0, parent=1),
        span(4, "check", 4.0, 5.0, parent=3),
        span(5, "outside", 8.0, 9.0),  # not under a harness root
        span(6, "inside-outside", 8.2, 8.4, parent=5),
    ]
    out = trace.closure(spans)
    assert out["wall"] == 8.0
    assert out["attributed"] == 6.0
    assert out["unattributed"] == 2.0
    assert out["unattributed_share"] == 0.25
    assert out["residual"] == pytest.approx(0.0)


def test_wrap_records_nesting_and_request_id():
    tracer = trace.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.request_id = "r1"
    assert outer(1) == 4
    (i_sid, i_name, *_rest, i_parent, i_rid), (o_sid, o_name, *_o, o_parent, _) = tracer.spans
    assert (i_name, o_name) == ("inner", "outer")
    assert i_parent == o_sid and o_parent is None and i_rid == "r1"
    assert tracer.wrap("again", outer) is outer


def test_patch_method_handles_descriptors():
    tracer = trace.Tracer()

    class Thing:
        def method(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

        @property
        def value(self):
            return 2

    for attr in ("method", "make", "value"):
        trace.patch_method(tracer, Thing, attr, "thing")
    thing = Thing.make()
    assert thing.method() == 1 and thing.value == 2
    assert trace.self_times(tracer.spans)["thing"]["calls"] == 3
