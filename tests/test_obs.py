"""The telemetry core: spans, counters, probes, scoping, and exports."""

from __future__ import annotations

import contextlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    CORE_COUNTERS,
    NULL,
    PROBE_SITES,
    TRACE_SCHEMA_VERSION,
    NullTelemetry,
    Telemetry,
    register_probe,
    registered_probes,
    unregister_probe,
)


class TestNullObject:
    def test_active_defaults_to_the_null_singleton(self):
        assert obs.active() is NULL
        assert isinstance(obs.active(), NullTelemetry)
        assert obs.active().enabled is False

    def test_null_span_is_one_shared_noop_context_manager(self):
        first = NULL.span("anything", tag=1)
        second = NULL.span("else")
        assert first is second  # no per-call allocation on the hot path
        with first as entered:
            assert entered is first

    def test_null_methods_do_nothing(self):
        NULL.count("x")
        NULL.count("x", 5)
        NULL.gauge("g", 1.0, tag="t")
        NULL.probe("round", evaluator=None)

    def test_null_probe_never_fires_registered_samplers(self):
        calls = []

        @register_probe("round", name="never")
        def sampler(telemetry, **context):
            calls.append(context)

        try:
            NULL.probe("round", value=1)
            assert calls == []
        finally:
            unregister_probe(sampler)


class TestScoping:
    def test_use_installs_and_restores(self):
        telemetry = Telemetry()
        assert obs.active() is NULL
        with obs.use(telemetry) as installed:
            assert installed is telemetry
            assert obs.active() is telemetry
        assert obs.active() is NULL

    def test_use_nests(self):
        outer, inner = Telemetry(), Telemetry()
        with obs.use(outer):
            with obs.use(inner):
                assert obs.active() is inner
            assert obs.active() is outer

    def test_use_restores_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with obs.use(telemetry):
                raise RuntimeError("boom")
        assert obs.active() is NULL

    def test_use_rejects_non_telemetry(self):
        with pytest.raises(TypeError, match="Telemetry"):
            with obs.use(object()):  # pragma: no cover - never entered
                pass


class TestSpansAndCounters:
    def test_span_records_duration_and_depth(self):
        telemetry = Telemetry()
        with telemetry.span("outer", engine="loop"):
            with telemetry.span("inner"):
                pass
        events = telemetry.span_events()
        # Completion order: inner exits first.
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner, outer = events
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert 0.0 <= inner["dur_us"] <= outer["dur_us"]
        assert outer["tags"] == {"engine": "loop"}

    def test_span_records_on_exception_and_restores_depth(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("failing"):
                raise ValueError("boom")
        assert telemetry.span_events()[0]["name"] == "failing"
        assert telemetry._depth == 0
        assert telemetry.spans_entered == telemetry.spans_exited == 1

    def test_core_counters_predeclared_at_zero(self):
        counters = Telemetry().counters
        assert set(CORE_COUNTERS) <= set(counters)
        assert all(counters[name] == 0 for name in CORE_COUNTERS)

    def test_count_accumulates(self):
        telemetry = Telemetry()
        telemetry.count("custom.thing")
        telemetry.count("custom.thing", 4)
        assert telemetry.counters["custom.thing"] == 5

    def test_span_totals_aggregate_per_name(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.span("phase"):
                pass
        totals = telemetry.span_totals()
        assert totals["phase"]["count"] == 3
        assert totals["phase"]["total_us"] >= 0.0

    def test_buffer_bound_drops_new_events_and_counts_them(self):
        telemetry = Telemetry(max_events=2)
        for index in range(5):
            with telemetry.span(f"s{index}"):
                pass
        assert len(telemetry.span_events()) == 2
        # The *first* events are kept (the run's structure), new ones drop.
        assert [e["name"] for e in telemetry.span_events()] == ["s0", "s1"]
        assert telemetry.dropped_events == 3
        # Counters keep counting regardless of the event buffer.
        telemetry.count("still.counting")
        assert telemetry.counters["still.counting"] == 1

    def test_span_totals_count_spans_past_the_buffer(self, tmp_path):
        telemetry = Telemetry(max_events=2)
        for __ in range(5):
            with telemetry.span("phase"):
                pass
        assert telemetry.dropped_events == 3
        assert telemetry.span_totals()["phase"]["count"] == 5
        summary = telemetry.summary()
        assert summary.span_totals["phase"]["count"] == 5
        assert summary.dropped_events == 3
        payload = json.loads(telemetry.write_metrics(tmp_path / "m.json").read_text())
        assert payload["span_totals"]["phase"]["count"] == 5

    def test_span_totals_sum_durations_past_the_buffer(self):
        telemetry = Telemetry(max_events=2)
        for __ in range(5):
            with telemetry.span("phase"):
                time.sleep(0.001)
        buffered_us = sum(e["dur_us"] for e in telemetry.span_events())
        total_us = telemetry.span_totals()["phase"]["total_us"]
        assert total_us >= 5 * 1000.0
        assert total_us > buffered_us

    def test_span_totals_returns_a_copy(self):
        telemetry = Telemetry()
        with telemetry.span("phase"):
            pass
        telemetry.span_totals()["phase"]["count"] = 99
        telemetry.span_totals().clear()
        assert telemetry.span_totals()["phase"]["count"] == 1

    def test_nested_spans_fold_their_own_inclusive_totals(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            for __ in range(2):
                with telemetry.span("inner"):
                    time.sleep(0.001)
        totals = telemetry.span_totals()
        assert totals["outer"]["count"] == 1
        assert totals["inner"]["count"] == 2
        assert totals["outer"]["total_us"] >= totals["inner"]["total_us"]

    def test_clear_resets_everything(self):
        telemetry = Telemetry()
        with telemetry.span("s"):
            telemetry.count("c")
        telemetry.clear()
        assert telemetry.span_events() == []
        assert telemetry.span_totals() == {}
        assert "c" not in telemetry.counters
        assert telemetry.spans_entered == 0

    def test_summary_snapshot(self):
        telemetry = Telemetry()
        with telemetry.span("phase"):
            telemetry.count("engine.rounds", 7)
        summary = telemetry.summary()
        assert summary.counter("engine.rounds") == 7
        assert summary.counter("never.touched") == 0
        assert summary.span_total_us("phase") > 0.0
        assert summary.span_total_us("absent") == 0.0
        assert summary.n_events == 1 and summary.dropped_events == 0


class TestSpanBalanceProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.recursive(
            st.booleans(),  # leaf: True raises inside the span
            lambda children: st.lists(children, min_size=1, max_size=4),
            max_leaves=12,
        )
    )
    def test_nested_spans_balance_even_when_blocks_raise(self, tree):
        """enter == exit and depth returns to zero, raises included."""
        telemetry = Telemetry()

        def run(node):
            with telemetry.span("node"):
                if node is True:
                    raise RuntimeError("leaf failure")
                if isinstance(node, list):
                    for child in node:
                        with contextlib.suppress(RuntimeError):
                            run(child)

        with contextlib.suppress(RuntimeError):
            run(tree)
        assert telemetry.spans_entered == telemetry.spans_exited
        assert telemetry.spans_entered > 0
        assert telemetry._depth == 0
        # Every recorded depth is consistent with a balanced tree.
        assert all(e["depth"] >= 0 for e in telemetry.span_events())


class TestProbes:
    def test_register_probe_fires_on_enabled_telemetry(self):
        telemetry = Telemetry()
        seen = []

        @register_probe("round", name="collect")
        def sampler(active_telemetry, **context):
            assert active_telemetry is telemetry
            seen.append(context)
            active_telemetry.gauge("probe.gauge", context["value"])

        try:
            assert "collect" in registered_probes("round")
            telemetry.probe("round", value=3)
            assert seen == [{"value": 3}]
            assert any(
                event[0] == "gauge" for event in telemetry._events
            )
        finally:
            unregister_probe(sampler)
        assert "collect" not in registered_probes("round")

    def test_documented_queue_depth_sampler_runs_on_a_round_engine(self):
        """The :func:`register_probe` docstring's example, verbatim, on a
        one-item Poisson round engine: it records one gauge per round."""
        from repro.sim.batch import MacMode, RoundBasedEvaluatorBatch
        from repro.topology.deployment import AntennaMode
        from repro.topology.scenarios import office_b, single_ap_scenario

        @register_probe("round")
        def queue_depth(obs, log=None, round_index=0, **ctx):
            obs.gauge("queue_bytes", float(log.queue_bytes[round_index].sum()))

        telemetry = Telemetry()
        scenario = single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[3])
        try:
            with obs.use(telemetry):
                [result] = RoundBasedEvaluatorBatch(
                    scenario, MacMode.CAS, seeds=[3],
                    traffic="poisson", traffic_kwargs={"rate_mbps": 40.0},
                ).run(4)
        finally:
            unregister_probe(queue_depth)
        samples = [
            event[3]
            for event in telemetry._events
            if event[0] == "gauge" and event[1] == "queue_bytes"
        ]
        assert samples == result.column("queue_bytes").tolist()
        assert "queue_depth" not in registered_probes("round")

    def test_probe_sites_documented(self):
        assert PROBE_SITES == ("round", "txop", "shard")


class TestExports:
    def _traced(self) -> Telemetry:
        telemetry = Telemetry()
        with telemetry.span("engine.run", engine="loop"):
            with telemetry.span("precode"):
                pass
            telemetry.count("engine.rounds", 2)
            telemetry.gauge("queue_depth", 5.0)
        return telemetry

    def test_jsonl_schema(self):
        telemetry = self._traced()
        lines = [json.loads(line) for line in telemetry.jsonl_lines()]
        meta = lines[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA_VERSION
        assert meta["unit"] == "us" and meta["clock"] == "perf_counter_ns"
        spans = [l for l in lines if l["type"] == "span"]
        assert {s["name"] for s in spans} == {"engine.run", "precode"}
        for span in spans:
            assert span["dur_us"] >= 0.0 and span["ts_us"] >= 0.0
            assert span["depth"] >= 0
        gauges = [l for l in lines if l["type"] == "gauge"]
        assert gauges[0]["name"] == "queue_depth" and gauges[0]["value"] == 5.0
        counters = {l["name"]: l["value"] for l in lines if l["type"] == "counter"}
        assert counters["engine.rounds"] == 2
        assert set(CORE_COUNTERS) <= set(counters)  # zeros always exported

    def test_write_jsonl_atomic(self, tmp_path):
        telemetry = self._traced()
        path = telemetry.write_jsonl(tmp_path / "sub" / "trace.jsonl")
        assert path.exists()
        assert not list(path.parent.glob(".*tmp*"))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"

    def test_chrome_trace_export(self, tmp_path):
        telemetry = self._traced()
        trace = telemetry.chrome_trace()
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"X", "C"}
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"engine.run", "precode"}
        path = telemetry.write_chrome_trace(tmp_path / "trace.trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["schema"] == TRACE_SCHEMA_VERSION

    def test_write_metrics(self, tmp_path):
        telemetry = self._traced()
        path = telemetry.write_metrics(tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        assert payload["counters"]["engine.rounds"] == 2
        assert payload["span_totals"]["engine.run"]["count"] == 1
        assert payload["meta"]["schema"] == TRACE_SCHEMA_VERSION

    def test_max_events_validation(self):
        with pytest.raises(ValueError, match="max_events"):
            Telemetry(max_events=0)
