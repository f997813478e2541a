"""Spans, phase aggregation, top-K queries and observation windows."""

import pickle

import pytest

from repro.errors import BudgetExhausted
from repro.obs import trace
from repro.obs.metrics import metrics
from repro.parallel import PARALLEL_STATS


@pytest.fixture(autouse=True)
def clean_trace_state():
    """Each test starts and ends with empty aggregates."""
    trace._clear_aggregates()
    yield
    trace._clear_aggregates()


class TestSpanModes:
    def test_off_flag_nulls_all_spans(self, monkeypatch):
        monkeypatch.setattr(trace, "OFF", True)
        assert trace.span("x") is trace._NULL
        trace.record_phase("f", "solve", 1.0)
        assert trace.phase_table() == {}

    def test_coarse_span_aggregates_without_tracing(self):
        with trace.span("symex", function="f"):
            pass
        phases = trace.phase_table()
        assert phases["f"]["symex"]["calls"] == 1


class TestAttribution:
    def test_function_inherited_from_enclosing_span(self):
        with trace.span("verify", function="outer_fn"):
            assert trace.current_function() == "outer_fn"
            with trace.span("symex"):
                trace.record_phase(trace.current_function(), "solve", 0.25)
        phases = trace.phase_table()
        assert "solve" in phases["outer_fn"]
        assert phases["outer_fn"]["solve"]["total"] == pytest.approx(0.25)

    def test_self_time_excludes_children(self):
        with trace.span("symex", function="f"):
            trace.record_phase("f", "solve", 0.25)
        p = trace.phase_table()["f"]
        # symex self = symex total - the 0.25s credited to solve.
        assert p["symex"]["total"] - p["symex"]["self"] == pytest.approx(0.25)


class TestTopQueries:
    def test_topk_keeps_slowest_and_is_lazy(self):
        described = []

        def describe(i):
            def _d():
                described.append(i)
                return f"q{i}"
            return _d

        # Ascending durations: every query enters the heap (evicting
        # the fastest) until only the slowest TOP_K remain.
        for i in range(trace.TOP_K_QUERIES + 10):
            trace.record_query(0.001 * (i + 1), describe(i))
        rows = trace.top_queries()
        assert len(rows) == trace.TOP_K_QUERIES
        assert rows[0]["query"] == f"q{trace.TOP_K_QUERIES + 9}"
        assert rows[0]["seconds"] >= rows[-1]["seconds"]

        # A query faster than everything in the full table must not
        # call its (potentially expensive) describe callback.
        described.clear()
        trace.record_query(1e-9, describe(999))
        assert described == []


class TestBudgetExhausted:
    def test_raising_span_leaves_the_phase_table_balanced(self):
        # A budget stop unwinds every open span: each still records its
        # call, the parent still subtracts its child's time, and no
        # span is left open to swallow later attribution.
        with pytest.raises(BudgetExhausted):
            with trace.span("verify", function="f"):
                with trace.span("symex"):
                    trace.record_phase(trace.current_function(), "solve", 0.25)
                    raise BudgetExhausted("deadline")
        assert trace.current_function() is None
        p = trace.phase_table()["f"]
        assert {name: rec["calls"] for name, rec in p.items()} == {
            "verify": 1, "symex": 1, "solve": 1
        }
        assert p["symex"]["total"] - p["symex"]["self"] == pytest.approx(0.25)
        assert p["verify"]["total"] - p["verify"]["self"] == pytest.approx(
            p["symex"]["total"]
        )
        with trace.span("verify", function="g"):
            pass
        assert set(trace.phase_table()) == {"f", "g"}


class TestWorkerDelta:
    def test_roundtrip_merges_phases_and_queries(self):
        with trace.span("verify", function="pre-existing"):
            pass
        with trace.window() as worker:
            with trace.span("verify", function="worker-fn"):
                trace.record_phase("worker-fn", "solve", 0.5)
            trace.record_query(0.5, lambda: "worker query")
        # The delta is plain data: it crosses the pool's pipe.
        delta = pickle.loads(pickle.dumps(worker.delta))

        # Simulate the parent: fresh aggregates, then merge.
        trace._clear_aggregates()
        trace.merge(delta)
        phases = trace.phase_table()
        assert phases["worker-fn"]["solve"]["total"] == pytest.approx(0.5)
        assert "pre-existing" not in phases
        assert any(q["query"] == "worker query" for q in trace.top_queries())

    def test_merge_deduplicates_queries_by_shape(self):
        # Same query shape from two processes (distinct SSA counters):
        # the slower observation wins, the top-K holds one entry.
        with trace.window() as worker:
            trace.record_query(0.9, lambda: "sv_q_f#99 = none")
        trace._clear_aggregates()
        trace.record_query(0.5, lambda: "sv_q_f#12 = none")
        trace.merge(worker.delta)
        matching = [
            q for q in trace.top_queries() if q["query"].startswith("sv_q_f#")
        ]
        assert len(matching) == 1
        assert matching[0]["seconds"] == pytest.approx(0.9)

    def test_metrics_travel_with_the_delta(self):
        with trace.window() as worker:
            metrics.inc("test.delta_counter", 3)
        metrics.reset()
        trace.merge(worker.delta)
        assert metrics.counter("test.delta_counter") == 3
        metrics.reset()

    def test_off_delta_still_carries_counters(self, monkeypatch):
        monkeypatch.setattr(trace, "OFF", True)
        with trace.window() as worker:
            with trace.span("verify", function="f"):
                trace.record_query(0.5, lambda: "q")
            metrics.inc("test.off_counter", 2)
            PARALLEL_STATS["serial_fallbacks"] += 1
        delta = worker.delta
        assert delta["counters"] == {"test.off_counter": 2}
        assert delta["groups"] == {"parallel": {"serial_fallbacks": 1}}
        assert delta["phases"] == {} and delta["queries"] == {}
        metrics.reset()


class TestNestedWindows:
    def test_inner_records_reach_the_enclosing_window(self):
        with trace.span("verify", function="before"):
            pass
        trace.record_query(5.0, lambda: "before the windows")
        with trace.window() as outer:
            with trace.span("verify", function="outer-fn"):
                pass
            with trace.window() as inner:
                with trace.span("verify", function="inner-fn"):
                    trace.record_phase("inner-fn", "solve", 0.25)
                trace.record_query(0.5, lambda: "inner query")
            assert set(trace.phase_table()) == {"outer-fn", "inner-fn"}
        assert set(trace.phase_table(inner.delta["phases"])) == {"inner-fn"}
        outer_phases = trace.phase_table(outer.delta["phases"])
        assert set(outer_phases) == {"outer-fn", "inner-fn"}
        assert outer_phases["inner-fn"]["solve"]["total"] == pytest.approx(0.25)
        assert [q["query"] for q in trace.top_queries(outer.delta["queries"])] == [
            "inner query"
        ]
        # The process's own tables hold everything, earlier work too.
        assert {"before", "outer-fn", "inner-fn"} <= set(trace.phase_table())
        assert [q["query"] for q in trace.top_queries()] == [
            "before the windows", "inner query"
        ]

    def test_each_window_keeps_its_own_top_k(self):
        # A slow query recorded earlier cannot crowd a window's faster
        # queries of the same shape out of the window's table.
        trace.record_query(9.0, lambda: "q#1")
        with trace.window() as w:
            trace.record_query(0.1, lambda: "q#2")
        assert [q["query"] for q in trace.top_queries(w.delta["queries"])] == [
            "q#2"
        ]
        assert [q["query"] for q in trace.top_queries()] == ["q#1"]

    def test_window_restores_tables_on_exception(self):
        outer_phases = trace._PHASES
        with pytest.raises(RuntimeError):
            with trace.window():
                with trace.span("verify", function="f"):
                    raise RuntimeError("boom")
        assert trace._PHASES is outer_phases
        assert "f" in trace.phase_table()
