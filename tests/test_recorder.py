"""Tests for the delivered-message view of a causal trace.

The :class:`~repro.trace.span.CausalTracer` is the one recorder of
CONGEST message traffic; :meth:`~repro.trace.analysis.CausalTrace.
delivered` and the summaries over it replace a separate message log.
"""

from __future__ import annotations

from repro.congest.message import Message
from repro.congest.simulator import Simulator
from repro.graphs import Graph
from repro.obs import Telemetry
from repro.trace import CausalTrace, CausalTracer
from repro.trace.analysis import busiest_round, count_by, sequence_table


def traced_run(graph, programs):
    """Run ``programs`` traced; returns the simulator and the trace."""
    tracer = CausalTracer()
    sim = Simulator(
        graph, programs, telemetry=Telemetry.tracing(tracer=tracer)
    )
    sim.run()
    return sim, CausalTrace(tracer.records)


def ping_pong_setup():
    """Two nodes: a pings for 3 rounds, b pongs back."""
    g = Graph()
    g.add_edge("a", "b")

    def pinger():
        for _ in range(3):
            yield {"b": Message("PING")}
        yield {}

    def ponger_responsive():
        outbox = {}
        for _ in range(4):
            inbox = yield outbox
            outbox = (
                {"a": Message("PONG", (1,))}
                if any(m.kind == "PING" for m in inbox.values())
                else {}
            )
        return None

    return traced_run(g, {"a": pinger(), "b": ponger_responsive()})


class TestRecorder:
    def test_records_all_messages(self):
        sim, trace = ping_pong_setup()
        delivered = trace.delivered()
        assert len(delivered) == sim.stats.messages == 6
        assert count_by(delivered, "kind") == {"PING": 3, "PONG": 3}

    def test_event_fields(self):
        _, trace = ping_pong_setup()
        first = trace.delivered()[0]
        assert first["kind"] == "PING"
        assert first["from"] == repr("a") and first["to"] == repr("b")
        assert first["round"] == 1
        assert trace.message(first["id"])["fate"] == "delivered"

    def test_events_for_node(self):
        _, trace = ping_pong_setup()
        delivered = trace.delivered()
        a = repr("a")
        assert len([e for e in delivered if e["from"] == a]) == 3
        assert len([e for e in delivered if e["to"] == a]) == 3
        assert len(trace.messages_between(a, repr("b"))) == 6

    def test_busiest_round(self):
        _, trace = ping_pong_setup()
        delivered = trace.delivered()
        assert busiest_round(delivered) in count_by(delivered, "round")
        assert busiest_round([]) is None

    def test_tables(self):
        _, trace = ping_pong_setup()
        seq = sequence_table(trace.delivered(), limit=3)
        assert "message sequence" in seq
        assert "... 3 more deliveries" in seq

    def test_attached_to_congest_asm(self):
        """A traced full ASM protocol run delivers the algorithm's
        message kinds with consistent totals."""
        from repro.congest.protocols.asm_protocol import run_congest_asm
        from repro.workloads.generators import complete_uniform

        tracer = CausalTracer()
        prefs = complete_uniform(5, seed=1)
        result = run_congest_asm(
            prefs,
            0.5,
            k=3,
            inner_iterations=3,
            outer_iterations=2,
            mm_iterations=10,
            telemetry=Telemetry.tracing(tracer=tracer),
        )
        delivered = CausalTrace(tracer.records).delivered()
        by_kind = count_by(delivered, "kind")
        assert len(delivered) == result.stats.messages
        assert by_kind["PROPOSE"] > 0
        assert by_kind["ACCEPT"] > 0
        assert "MM_POINT" in by_kind

    def test_busiest_round_prefers_earliest_on_tie(self):
        _, trace = ping_pong_setup()
        delivered = trace.delivered()
        per_round = count_by(delivered, "round")
        # Rounds 2 and 3 both carry PING+PONG (2 messages each);
        # ties break toward the earliest round.
        assert per_round[2] == per_round[3] == 2
        assert busiest_round(delivered) == 2

    def test_counts_by_round_kind(self):
        _, trace = ping_pong_setup()
        delivered = trace.delivered()
        pings = [e for e in delivered if e["kind"] == "PING"]
        pongs = [e for e in delivered if e["kind"] == "PONG"]
        assert count_by(pings, "round") == {1: 1, 2: 1, 3: 1}
        assert count_by(pongs, "round") == {2: 1, 3: 1, 4: 1}

    def test_minimal_protocol_plumbing(self):
        g = Graph()
        g.add_edge("x", "y")

        def talk():
            yield {"y": Message("PROPOSE")}

        def listen():
            yield {}

        _, trace = traced_run(g, {"x": talk(), "y": listen()})
        assert count_by(trace.delivered(), "kind") == {"PROPOSE": 1}
