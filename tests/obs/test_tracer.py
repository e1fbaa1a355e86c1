"""Tracer unit tests: nesting, counter absorption, exports."""

import json

from repro import obs
from repro.algebra.evaluation import CostCounter
from repro.obs.tracer import NULL_HANDLE, NullTracer, Tracer


def test_spans_nest_through_the_thread_local_stack():
    tracer = Tracer()
    with tracer.span("outer", view="V"):
        with tracer.span("inner"):
            pass
        with tracer.span("sibling"):
            pass
    assert [root.name for root in tracer.roots] == ["outer"]
    outer = tracer.roots[0]
    assert [child.name for child in outer.children] == ["inner", "sibling"]
    assert outer.attrs["view"] == "V"
    assert outer.duration_s >= 0.0


def test_span_absorbs_cost_counter_delta():
    tracer = Tracer()
    counter = CostCounter()
    counter.record("setup", 5)
    with tracer.span("work", counter=counter):
        counter.record("select", 7)
        counter.record("project", 3)
    assert tracer.roots[0].attrs["tuple_ops"] == 10


def test_in_flight_root_is_visible():
    # The demo renders while the root is still open; _push must register
    # roots immediately rather than on exit.
    tracer = Tracer()
    with tracer.span("txn"):
        assert [root.name for root in tracer.roots] == ["txn"]


def test_find_set_and_event():
    tracer = Tracer()
    with tracer.span("refresh") as handle:
        handle.set(view="V", watermark=12)
        handle.event("lock_acquired", resource="__mv__V")
    (refresh,) = tracer.find("refresh")
    assert refresh.attrs == {"view": "V", "watermark": 12}
    assert tracer.find("lock_acquired")[0].attrs["resource"] == "__mv__V"
    assert tracer.find("missing") == []


def test_structure_drops_timing_but_to_dict_keeps_it():
    tracer = Tracer()
    counter = CostCounter()
    with tracer.span("refresh", view="V", counter=counter):
        counter.record("select", 4)
    span = tracer.roots[0]
    assert span.to_dict()["attrs"]["tuple_ops"] == 4
    assert "tuple_ops" not in span.structure()["attrs"]
    assert "duration_s" not in span.structure()
    assert span.structure()["attrs"] == {"view": "V"}


def test_write_round_trips_json(tmp_path):
    tracer = Tracer()
    with tracer.span("txn", tables="sales"):
        with tracer.span("apply", assignments=2):
            pass
    path = tracer.write(tmp_path / "trace.json")
    document = json.loads(path.read_text())
    assert document["format"] == "repro-trace-v1"
    assert document["spans"][0]["children"][0]["name"] == "apply"


def test_null_tracer_is_inert_and_shared():
    tracer = NullTracer()
    handle = tracer.span("anything", counter=CostCounter())
    assert handle is NULL_HANDLE
    with handle:
        handle.set(view="V").event("x")
    assert tracer.active() is None
    assert tracer.to_dict()["spans"] == []
    assert tracer.find("anything") == []


def test_disabled_helpers_dispatch_to_null():
    obs.disable()
    assert not obs.is_enabled()
    with obs.span("refresh", view="V"):
        obs.metric_inc("refreshes")
        obs.accountant().mark_fresh("V")
    assert obs.current().tracer.to_dict()["spans"] == []


def test_observed_restores_previous_stack():
    obs.disable()
    with obs.observed() as stack:
        assert obs.is_enabled()
        assert obs.current() is stack
        with obs.span("txn"):
            pass
        assert len(stack.tracer.roots) == 1
    assert not obs.is_enabled()
