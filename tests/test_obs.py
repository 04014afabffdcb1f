"""Tests for the unified telemetry layer (``repro.obs``)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.trace import proposal_round_records
from repro.congest.message import Message
from repro.congest.protocols import run_congest_asm
from repro.congest.simulator import Simulator
from repro.core.asm import asm
from repro.core.almost_regular import almost_regular_asm
from repro.core.rand_asm import rand_asm
from repro.errors import InvalidParameterError
from repro.graphs import Graph
from repro.io import load_events, load_metrics, save_events, save_metrics
from repro.obs import (
    EVENT_KINDS,
    EventLog,
    MetricsObserver,
    MetricsRegistry,
    NULL_TELEMETRY,
    RunManifest,
    Telemetry,
    histogram_summary,
    percentile,
)
from repro.trace import CausalTrace, CausalTracer
from repro.trace.analysis import count_by
from repro.workloads.generators import complete_uniform, gnp_incomplete


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 0)
        assert reg.counters == {"a": 5, "b": 0}

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.5)
        assert reg.gauges["g"] == 2.5

    def test_histogram_summary_stats(self):
        reg = MetricsRegistry()
        for v in [3.0, 1.0, 2.0, 4.0]:
            reg.observe("h", v)
        summary = reg.to_dict()["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p95"] == 4.0
        assert summary["mean"] == 2.5

    def test_percentile_nearest_rank(self):
        values = sorted(float(i) for i in range(1, 101))
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([7.0], 50.0) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_histogram_summary_helper(self):
        assert histogram_summary([2.0])["p95"] == 2.0

    def test_timer_records_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("t") as timer:
            pass
        assert timer.elapsed is not None and timer.elapsed >= 0.0
        assert reg.to_dict()["histograms"]["t"]["count"] == 1

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        with reg.timer("t"):
            pass
        assert reg.counters == {}
        assert reg.gauges == {}
        assert reg.histograms == {}

    def test_disabled_timer_is_shared_singleton(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.timer("a") is reg.timer("b")


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("congest_round", round=1, messages=2, bits=16)
        log.emit("message_batch", round=1, kinds={"PING": 2})
        assert len(log) == 2
        assert [e.kind for e in log.by_kind("congest_round")] == [
            "congest_round"
        ]
        assert log.count_by_kind() == {"congest_round": 1, "message_batch": 1}

    def test_schema_is_closed(self):
        log = EventLog()
        with pytest.raises(InvalidParameterError):
            log.emit("not_a_kind")

    def test_timestamps_monotone_and_seq_dense(self):
        log = EventLog()
        for i in range(5):
            log.emit("congest_round", round=i)
        ts = [e.t for e in log.events]
        assert ts == sorted(ts)
        assert [e.seq for e in log.events] == list(range(5))

    def test_disabled_log_drops_everything(self):
        log = EventLog(enabled=False)
        log.emit("congest_round", round=1)
        log.emit("not_even_validated")
        assert len(log) == 0

    def test_records_are_flat_and_json_safe(self):
        log = EventLog()
        log.emit("congest_round", round=3, messages=1, bits=8)
        record = log.to_records()[0]
        assert record["kind"] == "congest_round"
        assert record["round"] == 3
        json.dumps(record)  # must not raise

    def test_schema_constant(self):
        assert EVENT_KINDS == {
            "proposal_round",
            "quantile_match",
            "outer_iteration",
            "congest_round",
            "message_batch",
            "trial_chunk",
            "fault",
            "slo_sample",
            "slo_violation",
            "dynamic_delta",
            "dynamic_fallback",
        }


class TestRunManifest:
    def test_capture_and_finish(self):
        m = RunManifest.capture(
            algorithm="asm", workload="complete", n=16, seed=3,
            params={"eps": 0.5}, note="test",
        )
        assert m.finished_at is None
        m.finish()
        d = m.to_dict()
        assert d["algorithm"] == "asm"
        assert d["params"] == {"eps": 0.5}
        assert d["extra"] == {"note": "test"}
        assert d["started_at"] <= d["finished_at"]
        assert d["python_version"].count(".") == 2

    def test_round_trip(self):
        m = RunManifest.capture(algorithm="rand-asm", n=8)
        m.finish()
        again = RunManifest.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    def test_record_fault_plan(self):
        from repro.faults.harness import fault_plan_for_profile
        from repro.workloads.generators import complete_uniform

        prefs = complete_uniform(6, seed=0)
        plan = fault_plan_for_profile(
            prefs,
            fault_seed=7,
            drop_rate=0.2,
            delay_rate=0.1,
            crash_nodes=1,
            crash_round=3,
            restart_after=2,
        )
        m = RunManifest.capture(algorithm="congest-asm", n=6)
        m.record_fault_plan(plan)
        faults = m.to_dict()["extra"]["faults"]
        assert faults["seed"] == 7
        assert faults["drop_rate"] == 0.2
        assert faults["delay_rate"] == 0.1
        assert len(faults["crashes"]) == 1
        crash = faults["crashes"][0]
        assert crash["round"] == 3
        assert crash["restart_round"] == 5
        json.dumps(faults)  # must be JSON-safe


class TestTelemetry:
    def test_null_telemetry_disabled(self):
        assert not NULL_TELEMETRY.enabled
        with NULL_TELEMETRY.timer("x"):
            pass
        NULL_TELEMETRY.events.emit("anything-goes-here")  # no-op, unvalidated
        assert NULL_TELEMETRY.metrics.histograms == {}

    def test_create_enabled(self):
        tel = Telemetry.create()
        assert tel.enabled
        with tel.timer("x"):
            pass
        assert "x" in tel.metrics.histograms


class TestEnginePhaseTiming:
    def test_phases_timed_when_enabled(self):
        tel = Telemetry.create()
        result = asm(complete_uniform(12, seed=0), eps=0.5, telemetry=tel)
        hists = tel.metrics.histogram_summaries()
        for phase in (
            "asm.phase.propose",
            "asm.phase.accept_reject",
            "asm.phase.maximal_matching",
        ):
            assert phase in hists
            assert hists[phase]["count"] >= result.proposal_rounds_executed
            assert {"p50", "p95", "max"} <= set(hists[phase])

    def test_no_telemetry_means_no_observation(self):
        result = asm(complete_uniform(12, seed=0), eps=0.5)
        assert result.matching  # engine default is the shared null bundle
        assert NULL_TELEMETRY.metrics.histograms == {}

    def test_telemetry_does_not_change_behavior(self):
        prefs = gnp_incomplete(16, 0.5, seed=7)
        plain = asm(prefs, 0.3)
        timed = asm(prefs, 0.3, telemetry=Telemetry.create())
        assert plain.matching == timed.matching
        assert plain.rounds_active == timed.rounds_active

    def test_variants_accept_telemetry(self):
        prefs = complete_uniform(12, seed=1)
        for runner in (
            lambda tel: rand_asm(prefs, 0.4, seed=1, telemetry=tel),
            lambda tel: almost_regular_asm(prefs, 0.4, seed=1, telemetry=tel),
        ):
            tel = Telemetry.create()
            runner(tel)
            assert "asm.phase.propose" in tel.metrics.histograms


class TestMetricsObserver:
    def test_counters_match_result(self):
        obs = MetricsObserver()
        result = asm(complete_uniform(16, seed=2), eps=0.4, observer=obs)
        counters = obs.telemetry.metrics.counters
        assert counters["asm.messages.proposes"] == result.messages.proposes
        assert counters["asm.messages.accepts"] == result.messages.accepts
        assert counters["asm.messages.rejects"] == result.messages.rejects
        assert counters["asm.proposal_rounds"] == (
            result.proposal_rounds_executed
        )
        assert counters["asm.quantile_match_calls"] == (
            result.quantile_match_calls_executed
        )
        assert counters["asm.outer_iterations"] == len(
            result.outer_iterations
        )

    def test_event_stream_schema(self):
        obs = MetricsObserver()
        result = asm(complete_uniform(12, seed=3), eps=0.5, observer=obs)
        log = obs.telemetry.events
        assert len(log.by_kind("proposal_round")) == (
            result.proposal_rounds_executed
        )
        assert len(log.by_kind("quantile_match")) == (
            result.quantile_match_calls_executed
        )
        assert len(log.by_kind("outer_iteration")) == len(
            result.outer_iterations
        )
        first = log.by_kind("proposal_round")[0]
        assert {"proposals", "accepts", "rejects", "matching_size"} <= set(
            first.fields
        )

    def test_final_gauges(self):
        obs = MetricsObserver()
        result = asm(complete_uniform(12, seed=4), eps=0.5, observer=obs)
        gauges = obs.telemetry.metrics.gauges
        assert gauges["asm.matching_size"] == len(result.matching)
        assert gauges["asm.good_men"] == len(result.good_men)


class TestSimulatorTelemetry:
    def _run_ping(self, telemetry=None):
        g = Graph()
        g.add_edge("a", "b")

        def pinger():
            for _ in range(3):
                yield {"b": Message("PING")}

        def listener():
            for _ in range(3):
                yield {}

        sim = Simulator(
            g, {"a": pinger(), "b": listener()}, telemetry=telemetry,
        )
        sim.run()
        return sim

    def test_round_events_and_counters(self):
        tel = Telemetry.create()
        sim = self._run_ping(telemetry=tel)
        counters = tel.metrics.counters
        assert counters["congest.rounds"] == sim.stats.rounds
        assert counters["congest.messages"] == sim.stats.messages
        assert counters["congest.bits"] == sim.stats.total_bits
        rounds = tel.events.by_kind("congest_round")
        assert len(rounds) == sim.stats.rounds
        assert [e.fields["messages"] for e in rounds] == (
            sim.stats.messages_per_round
        )
        assert all(e.fields["seconds"] >= 0.0 for e in rounds)
        hist = tel.metrics.histogram_summaries()["congest.round_seconds"]
        assert hist["count"] == sim.stats.rounds

    def test_message_batches_match_recorder(self):
        tracer = CausalTracer()
        tel = Telemetry.create(tracer=tracer)
        self._run_ping(telemetry=tel)
        batches = tel.events.by_kind("message_batch")
        total_by_kind = {}
        for e in batches:
            for kind, count in e.fields["kinds"].items():
                total_by_kind[kind] = total_by_kind.get(kind, 0) + count
        delivered = CausalTrace(tracer.records).delivered()
        assert total_by_kind == count_by(delivered, "kind") == {"PING": 3}

    def test_no_telemetry_default(self):
        sim = self._run_ping()
        assert sim.telemetry is NULL_TELEMETRY
        assert sim.stats.messages == 3

    def test_congest_asm_driver_threads_telemetry(self):
        tel = Telemetry.create()
        result = run_congest_asm(
            complete_uniform(4, seed=0), eps=0.5,
            inner_iterations=2, outer_iterations=2, mm_iterations=4,
            telemetry=tel,
        )
        assert tel.metrics.counters["congest.rounds"] == result.stats.rounds
        assert tel.metrics.counters["congest.messages"] == (
            result.stats.messages
        )


class TestIORoundTrip:
    def test_metrics_round_trip(self, tmp_path):
        tel = Telemetry.create(
            RunManifest.capture(algorithm="asm", n=12, params={"eps": 0.5})
        )
        obs = MetricsObserver(tel)
        result = asm(
            complete_uniform(12, seed=5), eps=0.5,
            observer=obs, telemetry=tel,
        )
        tel.manifest.finish()
        path = tmp_path / "metrics.json"
        save_metrics(tel.metrics, path, tel.manifest)
        doc = load_metrics(path)
        assert doc["manifest"]["algorithm"] == "asm"
        counters = doc["metrics"]["counters"]
        assert counters["asm.messages.proposes"] == result.messages.proposes
        for phase in ("propose", "accept_reject", "maximal_matching"):
            hist = doc["metrics"]["histograms"][f"asm.phase.{phase}"]
            assert {"p50", "p95", "max"} <= set(hist)

    def test_events_round_trip_cross_checks_trace(self, tmp_path):
        tel = Telemetry.create(RunManifest.capture(algorithm="asm", n=16))
        observer = MetricsObserver(tel)
        result = asm(
            complete_uniform(16, seed=6), eps=0.4, observer=observer
        )
        path = tmp_path / "events.jsonl"
        save_events(tel.events, path, tel.manifest)
        manifest, records = load_events(path)
        assert manifest["algorithm"] == "asm"
        loaded_rounds = [r for r in records if r["kind"] == "proposal_round"]
        assert len(loaded_rounds) == len(proposal_round_records(tel.events))
        assert sum(r["proposals"] for r in loaded_rounds) == (
            result.messages.proposes
        )
        assert loaded_rounds[-1]["matching_size"] == len(result.matching)

    def test_events_round_trip_cross_checks_recorder(self, tmp_path):
        tracer = CausalTracer()
        tel = Telemetry.create(
            RunManifest.capture(algorithm="congest-asm", n=4), tracer=tracer
        )
        result = run_congest_asm(
            complete_uniform(4, seed=1), eps=0.5,
            inner_iterations=2, outer_iterations=2, mm_iterations=4,
            telemetry=tel,
        )
        path = tmp_path / "events.jsonl"
        save_events(tel.events, path, tel.manifest)
        _, records = load_events(path)
        batch_total = sum(
            count
            for r in records
            if r["kind"] == "message_batch"
            for count in r["kinds"].values()
        )
        delivered = CausalTrace(tracer.records).delivered()
        assert batch_total == len(delivered) == result.stats.messages
        round_total = sum(
            r["messages"] for r in records if r["kind"] == "congest_round"
        )
        assert round_total == result.stats.messages

    def test_load_events_rejects_garbage(self, tmp_path):
        from repro.io import FileFormatError

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(FileFormatError):
            load_events(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(FileFormatError):
            load_events(empty)
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text(json.dumps({"format": "repro", "version": 1,
                                     "kind": "metrics"}) + "\n")
        with pytest.raises(FileFormatError):
            load_events(wrong)
