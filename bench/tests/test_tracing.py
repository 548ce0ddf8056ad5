"""Span nesting, outermost-only folding and self time."""

from __future__ import annotations

import time

import pytest

from bench.tracing import SpanRecorder, self_times, span


class Base:
    def resolve(self, work):
        time.sleep(work)
        return "base"


class Derived(Base):
    def resolve(self, work):
        # Like MEUSI/RMO delegating to MesiProtocol.resolve_slow.
        return Base.resolve(self, work)


class Layer:
    def outer(self, inner_work):
        time.sleep(0.01)
        return self.inner(inner_work)

    def inner(self, work):
        time.sleep(work)
        return work


def test_nested_spans_record_parent_key_and_self_time():
    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "layer.outer", key=lambda self, work: f"point-{work}")
    recorder.wrap(Layer, "inner", "layer.inner", info=lambda result: {"work": result})
    try:
        assert Layer().outer(0.02) == 0.02
    finally:
        recorder.uninstall()
    outer, inner = recorder.spans
    assert (outer.name, outer.parent, inner.parent) == ("layer.outer", None, 0)
    assert inner.key == outer.key == "point-0.02"  # children inherit the point key
    assert inner.info == {"work": 0.02}
    own = self_times(recorder.spans)
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert own[1] == pytest.approx(inner.end - inner.start)
    assert Layer.outer.__qualname__ == "Layer.outer"  # uninstall restored the originals


def test_folded_spans_count_outermost_calls_only():
    recorder = SpanRecorder()
    recorder.wrap_folded(Base, "resolve", "core.resolve")
    recorder.wrap_folded(Derived, "resolve", "core.resolve")
    try:
        with span(recorder, "sim.run"):
            Derived().resolve(0.01)  # nests into Base.resolve: one span
            Base().resolve(0.01)
            Derived().resolve(0.01)
        Base().resolve(0.0)  # outside any span: not recorded
    finally:
        recorder.uninstall()
    (run,) = recorder.spans
    count, total = run.folded["core.resolve"]
    assert count == 3
    assert 0.03 <= total <= run.end - run.start
    assert self_times(recorder.spans)[0] == pytest.approx((run.end - run.start) - total)


def test_groups_tag_spans_by_unit():
    recorder = SpanRecorder()
    with span(recorder, "setup.step"):
        pass
    recorder.group = "A0"
    with span(recorder, "unit.step"):
        pass
    assert [s.group for s in recorder.spans] == ["setup", "A0"]
