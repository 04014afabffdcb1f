"""Tests for the CONGEST simulator and message model."""

from __future__ import annotations

import random

import pytest

from repro.congest.message import TAG_BITS, Message
from repro.congest.simulator import Idle, Simulator
from repro.congest.transport import AsyncEventTransport
from repro.errors import ProtocolViolationError, SimulationError
from repro.faults import FaultPlan
from repro.graphs import Graph
from repro.obs import Telemetry
from repro.trace import CausalTrace, CausalTracer
from repro.trace.profiler import PhaseProfiler
from repro.workloads import parse_latency


def line_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


def silent(rounds):
    """A program that listens for `rounds` rounds and returns them."""

    def program():
        seen = []
        for _ in range(rounds):
            inbox = yield {}
            seen.append(dict(inbox))
        return seen

    return program()


class TestMessage:
    def test_size_no_payload(self):
        assert Message("X").size_bits(100) == TAG_BITS

    def test_size_with_payload(self):
        msg = Message("X", (3, 4))
        assert msg.size_bits(256) == TAG_BITS + 2 * (8 + 1)

    def test_size_grows_with_n(self):
        msg = Message("X", (3,))
        assert msg.size_bits(2 ** 20) > msg.size_bits(4)

    def test_frozen(self):
        msg = Message("X")
        with pytest.raises(AttributeError):
            msg.kind = "Y"


class TestDelivery:
    def test_one_hop_delivery(self):
        g = line_graph()

        def sender():
            yield {"b": Message("PING")}
            yield {}

        programs = {"a": sender(), "b": silent(2), "c": silent(2)}
        sim = Simulator(g, programs)
        sim.run()
        # b's first round inbox contains the PING from a.
        assert sim.results["b"][0] == {"a": Message("PING")}
        assert sim.results["b"][1] == {}
        assert sim.results["c"] == [{}, {}]

    def test_same_round_exchange(self):
        """Messages sent in round t arrive at the end of round t."""
        g = line_graph()

        def talker(to):
            def program():
                inbox = yield {to: Message("HI")}
                return inbox

            return program()

        programs = {"a": talker("b"), "b": talker("a"), "c": silent(1)}
        sim = Simulator(g, programs)
        sim.run()
        assert sim.results["a"] == {"b": Message("HI")}
        assert sim.results["b"] == {"a": Message("HI")}

    def test_stats_counting(self):
        g = line_graph()

        def sender():
            yield {"b": Message("PING"), }
            yield {"b": Message("PONG", (1,))}

        programs = {"a": sender(), "b": silent(2), "c": silent(2)}
        sim = Simulator(g, programs)
        stats = sim.run()
        assert stats.messages == 2
        assert stats.rounds >= 2
        assert stats.total_bits == Message("PING").size_bits(3) + Message(
            "PONG", (1,)
        ).size_bits(3)
        assert stats.max_message_bits == Message("PONG", (1,)).size_bits(3)


class TestValidation:
    def test_non_neighbor_send_rejected(self):
        g = line_graph()

        def bad():
            yield {"c": Message("X")}  # a and c are not adjacent

        programs = {"a": bad(), "b": silent(1), "c": silent(1)}
        sim = Simulator(g, programs)
        with pytest.raises(ProtocolViolationError, match="non-neighbor"):
            sim.run()

    def test_non_message_rejected(self):
        g = line_graph()

        def bad():
            yield {"b": "raw string"}

        programs = {"a": bad(), "b": silent(1), "c": silent(1)}
        with pytest.raises(ProtocolViolationError, match="non-Message"):
            Simulator(g, programs).run()

    def test_oversized_message_rejected(self):
        g = line_graph()
        big = Message("X", tuple(range(100)))

        def bad():
            yield {"b": big}

        programs = {"a": bad(), "b": silent(1), "c": silent(1)}
        with pytest.raises(ProtocolViolationError, match="bits"):
            Simulator(g, programs).run()

    def test_missing_program_rejected(self):
        g = line_graph()
        with pytest.raises(SimulationError, match="no program"):
            Simulator(g, {"a": silent(1)})

    def test_unknown_node_program_rejected(self):
        g = line_graph()
        programs = {
            "a": silent(1),
            "b": silent(1),
            "c": silent(1),
            "zz": silent(1),
        }
        with pytest.raises(SimulationError, match="unknown node"):
            Simulator(g, programs)

    def test_max_rounds_exceeded(self):
        g = line_graph()

        def forever():
            while True:
                yield {}

        programs = {"a": forever(), "b": forever(), "c": forever()}
        sim = Simulator(g, programs)
        with pytest.raises(SimulationError, match="still running"):
            sim.run(max_rounds=5)

    def test_finished_property(self):
        g = line_graph()
        programs = {"a": silent(1), "b": silent(1), "c": silent(1)}
        sim = Simulator(g, programs)
        assert not sim.finished
        sim.run()
        assert sim.finished
        # Stepping a finished simulation is a no-op returning False.
        assert sim.step() is False


def sleeper(rounds, log):
    """Sleeps ``rounds`` rounds, logging every resume."""

    def program():
        log.append("start")
        yield Idle(rounds)
        log.append("woke")
        yield {}
        return "done"

    return program()


class TestIdle:
    def test_sleeper_not_resumed_while_asleep(self):
        g = line_graph()
        log = []
        programs = {"a": sleeper(3, log), "b": silent(6), "c": silent(6)}
        sim = Simulator(g, programs)
        for _ in range(3):
            assert sim.step()
            assert log == ["start"]
        # Yielded Idle(3) in round 1: resumed in round 4.
        assert sim.step()
        assert log == ["start", "woke"]
        sim.run()
        assert sim.results["a"] == "done"
        assert sim.stats.rounds == 7

    def test_step_advances_one_round(self):
        g = line_graph()
        log = []
        programs = {"a": sleeper(5, log), "b": sleeper(5, []),
                    "c": sleeper(5, [])}
        sim = Simulator(g, programs)
        for expected in range(1, 5):
            assert sim.step()
            assert sim.stats.rounds == expected
            assert sim.stats.messages_per_round == [0] * expected

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "3", True, None])
    def test_invalid_idle_rejected(self, bad):
        g = line_graph()

        def program():
            yield {}
            yield Idle(bad)

        programs = {"a": program(), "b": silent(3), "c": silent(3)}
        sim = Simulator(g, programs)
        with pytest.raises(ProtocolViolationError, match=r"^round 2: .*Idle"):
            sim.run()

    def test_all_asleep_times_out_at_cap(self):
        g = line_graph()
        programs = {v: sleeper(100, []) for v in "abc"}
        sim = Simulator(g, programs)
        stats = sim.run(max_rounds=7, on_timeout="stop")
        assert stats.outcome == "timeout"
        assert stats.rounds == 7
        assert stats.messages_per_round == [0] * 7
        assert stats.unfinished_nodes == 3

    def test_all_asleep_jump_lands_on_wake_round(self):
        g = line_graph()
        logs = {v: [] for v in "abc"}
        programs = {v: sleeper(50, logs[v]) for v in "abc"}
        profiler = PhaseProfiler()
        sim = Simulator(
            g, programs, telemetry=Telemetry.create(profiler=profiler)
        )
        stats = sim.run(max_rounds=52)
        # Idle in round 1, woken in round 51, and every program returns
        # in round 52; skipped rounds keep their per-round bookkeeping.
        assert stats.outcome == "converged"
        assert stats.rounds == 52
        assert stats.messages_per_round == [0] * 52
        assert all(log == ["start", "woke"] for log in logs.values())
        rounds = [r for r in profiler.records if r["name"] == "congest.round"]
        assert len(rounds) == 52
        events = sim.telemetry.events.to_records()
        assert [e["round"] for e in events if e["kind"] == "congest_round"] == (
            list(range(1, 53))
        )


def _random_script(seed, rounds):
    """A random graph on 6 nodes and, per node and round, a random
    outbox whose payload is the send round."""
    rng = random.Random(seed)
    g = Graph()
    nodes = list(range(6))
    for v in nodes:
        g.add_node(v)
    for u in nodes:
        for v in nodes:
            if u < v and rng.random() < 0.5:
                g.add_edge(u, v)
    plan = {}
    for v in nodes:
        plan[v] = []
        for t in range(1, rounds + 1):
            plan[v].append(
                {
                    u: Message("M", (t,))
                    for u in sorted(g.neighbors(v))
                    if rng.random() < 0.4
                }
            )
    return g, plan


def _logging_program(outboxes, rounds, log):
    """Never sleeps: sends ``outboxes`` in turn, then listens, until
    ``rounds`` rounds are done; logs every inbox it receives."""

    def run():
        for t in range(rounds):
            inbox = yield outboxes[t] if t < len(outboxes) else {}
            log.append(dict(inbox))

    return run()


class TestDeliveryProperty:
    def test_random_delivery_model_check(self):
        """Model-based check: for random graphs and random scripted
        outboxes, every sent message (and nothing else) is delivered to
        exactly the right node in the right round."""
        rounds = 4
        for seed in range(5):
            g, plan = _random_script(seed, rounds)
            received = {v: [] for v in plan}
            tracer = CausalTracer()
            sim = Simulator(
                g,
                {
                    v: _logging_program(plan[v], rounds, received[v])
                    for v in plan
                },
                telemetry=Telemetry.tracing(tracer=tracer),
            )
            sim.run()
            # Check exact delivery.
            expected_total = 0
            for v in plan:
                for t in range(rounds):
                    for u, msg in plan[v][t].items():
                        expected_total += 1
                        assert received[u][t][v] == msg
            assert sim.stats.messages == expected_total
            delivered = CausalTrace(tracer.records).delivered()
            assert len(delivered) == expected_total

    @pytest.mark.parametrize(
        "plan",
        [None, FaultPlan(seed=3, drop_rate=0.2, delay_rate=0.3,
                         duplicate_rate=0.3, max_delay=3)],
        ids=["clean", "lossy"],
    )
    @pytest.mark.parametrize("latency", ["sync", "uniform:0-3"])
    def test_delivered_view_is_what_programs_received(self, latency, plan):
        """``CausalTrace.delivered()`` lists, round by round, exactly the
        copies deposited in inboxes: replaying a round's entries in
        order into ``{sender: message}`` (an inbox keeps the last copy
        from each sender) rebuilds every inbox a program received."""
        sending, rounds = 5, 12
        for seed in range(4):
            g, script = _random_script(seed, sending)
            received = {v: [] for v in script}
            tracer = CausalTracer()
            transport = (
                None
                if latency == "sync"
                else AsyncEventTransport(
                    parse_latency(latency), link_seed=seed
                )
            )
            Simulator(
                g,
                {
                    v: _logging_program(script[v], rounds, received[v])
                    for v in script
                },
                telemetry=Telemetry.tracing(tracer=tracer),
                faults=plan, transport=transport,
            ).run()
            trace = CausalTrace(tracer.records)
            delivered = trace.delivered()
            assert all(e["round"] <= rounds for e in delivered)
            if plan is None and transport is None:
                sent = [
                    (t, repr(v), repr(u), m.kind)
                    for t in range(1, sending + 1)
                    for v in sorted(script)
                    for u, m in sorted(script[v][t - 1].items())
                ]
                assert sorted(
                    (e["round"], e["from"], e["to"], e["kind"])
                    for e in delivered
                ) == sorted(sent)
            for t in range(1, rounds + 1):
                rebuilt = {repr(v): {} for v in script}
                for e in delivered:
                    if e["round"] == t:
                        sent_round = trace.message(e["id"])["round"]
                        rebuilt[e["to"]][e["from"]] = (e["kind"], sent_round)
                seen = {
                    repr(v): {
                        repr(u): (m.kind, m.payload[0])
                        for u, m in received[v][t - 1].items()
                    }
                    for v in script
                }
                assert seen == rebuilt, f"seed {seed}, round {t}"


class TestBitCap:
    def test_cap_scales_with_factor(self):
        g = line_graph()
        a = Simulator(
            g, {"a": silent(1), "b": silent(1), "c": silent(1)},
            bit_cap_factor=2,
        )
        b = Simulator(
            g, {"a": silent(1), "b": silent(1), "c": silent(1)},
            bit_cap_factor=16,
        )
        assert b.max_message_bits == 8 * a.max_message_bits
