import asyncio

import pytest

from spans import Tracer, covered, in_window, self_times


def span(name, start, end, parent=-1, req=None, wall=False):
    return [name, start, end, parent, req, wall]


def test_nested_and_sibling_self_times():
    #  0: apply   [0, 10]
    #  1:   send     [1, 4]      child of 0
    #  2:     encode   [2, 3]    child of 1
    #  3:   check    [5, 9]      child of 0, sibling of 1
    spans = [span("apply", 0, 10), span("send", 1, 4, 0),
             span("encode", 2, 3, 1), span("check", 5, 9, 0)]
    out = self_times(spans)
    assert out[("apply", False)] == {"calls": 1, "total": 10, "self": 3}
    assert out[("send", False)] == {"calls": 1, "total": 3, "self": 2}
    assert out[("encode", False)]["self"] == 1
    assert out[("check", False)]["self"] == 4
    # Self times of a tree add up to the root's duration.
    assert sum(row["self"] for row in out.values()) == 10


def test_same_name_spans_aggregate():
    spans = [span("h", 0, 2), span("h", 5, 9), span("x", 6, 7, 1)]
    out = self_times(spans)
    assert out[("h", False)] == {"calls": 2, "total": 6, "self": 5}


def test_overlapping_async_children_are_not_counted_twice():
    # One client call (req 7) served by two overlapping server-side wall
    # spans, plus an unrelated request (req 8) overlapping in time.
    spans = [
        span("call", 0, 10, req=7, wall=True),
        span("session", 1, 6, 0, req=7, wall=True),
        span("acquire", 4, 9, 0, req=7, wall=True),
        span("call", 2, 12, req=8, wall=True),
        span("session", 3, 11, 3, req=8, wall=True),
    ]
    out = self_times(spans)
    # req 7: children cover [1, 9] -> self = 10 - 8; req 8: 10 - 8.
    assert out[("call", True)] == {"calls": 2, "total": 20, "self": 4}
    assert out[("session", True)]["total"] == 5 + 8


def test_cpu_and_wall_spans_do_not_shield_each_other():
    spans = [span("session", 0, 10, wall=True),
             span("session", 0, 1, 0),            # a step of it (cpu)
             span("encode", 0.2, 0.7, 1)]
    out = self_times(spans)
    assert out[("session", True)]["self"] == 10    # cpu child ignored
    assert out[("session", False)]["self"] == pytest.approx(0.5)


def test_keep_mask_drops_rows_but_children_still_shield():
    spans = [span("apply", 0, 10), span("send", 1, 4, 0)]
    out = self_times(spans, keep=[True, False])
    assert out == {("apply", False): {"calls": 1, "total": 10, "self": 7}}


def test_covered_clips_and_merges():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 20), (-4, 0.5)]) == 0.5 + 4 + 2
    assert covered(0, 10, []) == 0


def test_in_window_needs_a_finished_span_that_started_inside():
    spans = [span("a", 1, 2), span("b", 5, 0.0), span("c", 9, 12),
             span("d", 0.5, 3)]
    assert in_window(spans, 1, 10) == [True, False, True, False]


class _Layer:
    def inner(self, x):
        return x + 1

    def outer(self, x):
        return self.inner(x) * 2

    async def serve(self, req_id):
        await asyncio.sleep(0)
        value = self.outer(req_id)
        await asyncio.sleep(0)
        return value


def _ticking_clock():
    state = {"now": 0.0}

    def clock():
        state["now"] += 1.0
        return state["now"]

    return clock


def test_wrappers_record_parents_steps_and_requests():
    tracer = Tracer(clock=_ticking_clock())
    tracer.wrap_sync(_Layer, "inner", "layer.inner")
    tracer.wrap_sync(_Layer, "outer", "layer.outer")
    tracer.wrap_async(_Layer, "serve", "layer.serve",
                      req_of=lambda self, req_id: req_id)
    try:
        assert asyncio.run(_Layer().serve(41)) == 84
    finally:
        tracer.unwrap_all()
    assert _Layer().outer(1) == 4            # originals are back
    names = [(rec[0], rec[5]) for rec in tracer.spans]
    # one wall span, three steps (two awaits), outer and inner in step 2
    assert names.count(("layer.serve", True)) == 1
    assert names.count(("layer.serve", False)) == 3
    outer = next(r for r in tracer.spans if r[0] == "layer.outer")
    inner = next(r for r in tracer.spans if r[0] == "layer.inner")
    assert tracer.spans[inner[3]] is outer
    assert tracer.spans[outer[3]][0] == "layer.serve"
    assert {rec[4] for rec in tracer.spans} == {41}
    out = self_times(tracer.spans)
    assert out[("layer.outer", False)]["calls"] == 1
    assert out[("layer.inner", False)]["self"] == 1.0


def test_step_timing_passes_exceptions_through():
    class Boom:
        async def go(self):
            await asyncio.sleep(0)
            raise KeyError("x")

    tracer = Tracer()
    tracer.wrap_async(Boom, "go", "boom")
    try:
        with pytest.raises(KeyError):
            asyncio.run(Boom().go())
    finally:
        tracer.unwrap_all()
    assert tracer._stack == []
    assert all(rec[2] >= rec[1] for rec in tracer.spans)
