"""Sleeping nodes (``yield Idle(n)``) are invisible in every output.

The simulator's sleep contract says ``Idle(n)`` yielded in round ``t``
stands for ``n`` plain ``yield {}`` whose inboxes the program ignores.
The differential check here holds the simulator to it: every run is
repeated with each program wrapped in :func:`expand_idle`, which turns
every ``Idle(n)`` back into ``n`` lockstep ``yield {}`` (forwarding the
inboxes), so the expanded run is the all-nodes-every-round semantics.
The two runs must agree on the matching, the stats, the causal trace
(and so on the messages delivered), the fault trace, the event log
and the profiler's per-round records — across protocols, transports
and fault plans.
"""

from __future__ import annotations

import ast
import inspect
import random
import textwrap
from dataclasses import asdict

import pytest

from repro.congest import (
    AsyncEventTransport,
    Idle,
    Message,
    Simulator,
)
from repro.congest.protocols import (
    asm_protocol,
    israeli_itai_fragment,
    pointer_matching_fragment,
    port_order_fragment,
)
from repro.congest.protocols.asm_protocol import (
    run_congest_almost_regular_asm,
    run_congest_asm,
    run_congest_rand_asm,
)
from repro.faults import FaultPlan, NodeCrash
from repro.graphs import (
    Graph,
    bipartite_graph_from_edges,
    is_man_node,
    man_node,
    woman_node,
)
from repro.obs import Telemetry
from repro.trace import CausalTracer
from repro.trace.profiler import PhaseProfiler
from repro.workloads import FixedLatency, parse_latency
from repro.workloads.generators import gnp_incomplete


def expand_idle(program):
    """Run ``program`` with every ``Idle(n)`` expanded into ``n`` rounds.

    Each expanded round yields ``{}``; the inbox of the last one is
    what the wrapped program receives, exactly as the simulator hands a
    woken sleeper the inbox of the round before it wakes.
    """
    try:
        out = next(program)
        while True:
            if isinstance(out, Idle):
                for _ in range(out.rounds):
                    inbox = yield {}
            else:
                inbox = yield out
            out = program.send(inbox)
    except StopIteration as stop:
        return stop.value


class LockstepSimulator(Simulator):
    """A simulator whose programs never sleep (every Idle expanded)."""

    def __init__(self, graph, programs, **kwargs):
        super().__init__(
            graph,
            {v: expand_idle(p) for v, p in programs.items()},
            **kwargs,
        )


# ----------------------------------------------------------------------
# The ASM sweep: protocols x transports x fault plans
# ----------------------------------------------------------------------

_PREFS = gnp_incomplete(8, 0.4, seed=5)


def _asm(mm_kind):
    def run(**kw):
        return run_congest_asm(
            _PREFS, 0.5, k=3, inner_iterations=3, outer_iterations=2,
            mm_iterations=8, mm_kind=mm_kind, **kw,
        )

    return run


def _rand_asm(**kw):
    return run_congest_rand_asm(
        _PREFS, 0.5, failure_prob=0.2, seed=3, inner_iterations=3,
        outer_iterations=2, mm_iterations=4, **kw,
    )


def _almost_regular(**kw):
    return run_congest_almost_regular_asm(
        _PREFS, 0.5, failure_prob=0.2, seed=3,
        quantile_match_iterations=4, mm_iterations=4, **kw,
    )


_PROTOCOLS = {
    "asm-pointer": _asm("pointer"),
    "asm-port-order": _asm("port_order"),
    "rand-asm": _rand_asm,
    "almost-regular": _almost_regular,
}

_TRANSPORTS = {
    "sync": lambda: None,
    "uniform:0-1": lambda: AsyncEventTransport(
        parse_latency("uniform:0-1"), link_seed=1
    ),
    "geometric:0.1:2": lambda: AsyncEventTransport(
        parse_latency("geometric:0.1:2"), link_seed=2
    ),
}

_PLANS = {
    "none": None,
    "lossy": FaultPlan(
        seed=4, drop_rate=0.1, delay_rate=0.1, duplicate_rate=0.1
    ),
    # Rounds 6 and 9 fall inside the first matching phase, where most
    # nodes are asleep.
    "crash": FaultPlan(
        crashes=(
            NodeCrash(man_node(1), 6),
            NodeCrash(woman_node(2), 9),
        )
    ),
    "crash-restart": FaultPlan(
        crashes=(NodeCrash(woman_node(0), 5, restart_round=20),)
    ),
}


def _scrub(records, drop):
    return [{k: v for k, v in r.items() if k not in drop} for r in records]


def _fingerprint(runner, transport, plan):
    """Every observable output of one run, wall-clock fields removed."""
    tracer = CausalTracer()
    profiler = PhaseProfiler()
    telemetry = Telemetry.create(tracer=tracer, profiler=profiler)
    result = runner(telemetry=telemetry, faults=plan, transport=transport)
    state = telemetry.metrics.raw_state()
    return {
        "pairs": sorted(result.matching.pairs()),
        "unresolved": (result.unresolved_men, result.unresolved_women),
        "crashed": result.crashed_nodes,
        "retries": result.retries,
        "stats": asdict(result.stats),
        "trace": tracer.to_records(),
        "faults": list(result.fault_trace),
        "events": _scrub(telemetry.events.to_records(), ("t", "seconds")),
        "counters": state["counters"],
        "profile": _scrub(profiler.records, ("ts", "dur")),
    }


@pytest.mark.parametrize("plan", sorted(_PLANS))
@pytest.mark.parametrize("transport", sorted(_TRANSPORTS))
@pytest.mark.parametrize("proto", sorted(_PROTOCOLS))
def test_sleeping_matches_lockstep(monkeypatch, proto, transport, plan):
    runner = _PROTOCOLS[proto]
    sleeping = _fingerprint(runner, _TRANSPORTS[transport](), _PLANS[plan])
    monkeypatch.setattr(asm_protocol, "Simulator", LockstepSimulator)
    lockstep = _fingerprint(runner, _TRANSPORTS[transport](), _PLANS[plan])
    assert sleeping == lockstep


def test_sweep_exercises_sleep(monkeypatch):
    """The sweep's instance really sleeps: most node-rounds are skipped."""
    resumed = []

    class Counting(Simulator):
        def _advance(self, v):
            resumed.append(v)
            return super()._advance(v)

    monkeypatch.setattr(asm_protocol, "Simulator", Counting)
    result = _asm("pointer")()
    node_rounds = result.stats.rounds * (_PREFS.n_men + _PREFS.n_women)
    assert len(resumed) < node_rounds / 2


# ----------------------------------------------------------------------
# Where the fragments sleep: against their never-sleeping selves
# ----------------------------------------------------------------------
#
# The expansion above holds the simulator to the contract but keeps
# each program's choice of where to sleep.  That choice is checked
# here: each fragment is recompiled with its sleep blocks removed —
# the plain lockstep program — and run against the real one with
# latencies and fault delays long enough to carry a message past the
# round it was meant for, which is what an unsafe sleep would miss.


def without_sleep(fragment):
    """``fragment`` recompiled with every ``if ...: yield Idle(...)``
    block removed."""

    class StripSleep(ast.NodeTransformer):
        def visit_If(self, node):
            if any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "Idle"
                for n in ast.walk(node)
            ):
                return None
            return self.generic_visit(node)

    lines, first_line = inspect.getsourcelines(fragment)
    tree = StripSleep().visit(ast.parse(textwrap.dedent("".join(lines))))
    ast.increment_lineno(tree, first_line - 1)
    namespace = dict(fragment.__globals__)
    exec(compile(tree, inspect.getsourcefile(fragment), "exec"), namespace)
    return namespace[fragment.__name__]


_FRAGMENTS = {
    "pointer": pointer_matching_fragment,
    "port_order": port_order_fragment,
    "israeli_itai": israeli_itai_fragment,
}


def _fragment_programs(kind, fragment, graph):
    programs = {}
    for v in graph.nodes():
        nbrs = graph.neighbors(v)
        if kind == "port_order":
            programs[v] = fragment(nbrs, 12, is_left=is_man_node(v))
        elif kind == "israeli_itai":
            programs[v] = fragment(nbrs, 8, random.Random(repr(v)))
        else:
            programs[v] = fragment(nbrs, 12)
    return programs


_HEAVY_PLAN = FaultPlan(
    seed=9, drop_rate=0.05, delay_rate=0.3, duplicate_rate=0.3, max_delay=4
)


def test_without_sleep_strips_every_idle():
    for fragment in _FRAGMENTS.values():
        assert "Idle" in fragment.__code__.co_names
        assert "Idle" not in without_sleep(fragment).__code__.co_names


@pytest.mark.parametrize("plan", [None, _HEAVY_PLAN], ids=["clean", "heavy"])
@pytest.mark.parametrize("latency", ["zero", "fixed:1", "fixed:2", "uniform:0-3"])
@pytest.mark.parametrize("kind", sorted(_FRAGMENTS))
def test_fragment_sleeps_only_where_inbox_is_ignored(kind, latency, plan):
    sleeping_fragment = _FRAGMENTS[kind]
    awake_fragment = without_sleep(sleeping_fragment)

    def run(fragment, graph, link_seed):
        tracer = CausalTracer()
        sim = Simulator(
            graph, _fragment_programs(kind, fragment, graph),
            telemetry=Telemetry.tracing(tracer=tracer), faults=plan,
            transport=AsyncEventTransport(
                parse_latency(latency), link_seed=link_seed
            ),
        )
        stats = sim.run(200, on_timeout="stop")
        return {
            "results": sorted(
                (repr(v), repr(p)) for v, p in sim.results.items()
            ),
            "stats": asdict(stats),
            "trace": tracer.to_records(),
        }

    for seed in range(4):
        graph = bipartite_graph_from_edges(
            gnp_incomplete(10, 0.3, seed=seed).iter_edges(), 10, 10
        )
        assert run(sleeping_fragment, graph, seed) == run(
            awake_fragment, graph, seed
        )


# ----------------------------------------------------------------------
# Directed cases: late mail to a sleeper, a crash during sleep
# ----------------------------------------------------------------------


def _pair_graph():
    g = Graph()
    g.add_edge("a", "b")
    return g


def _sleeper(rounds):
    """Sleeps ``rounds`` rounds, then reports the inbox it woke with."""

    def program():
        woke_with = yield Idle(rounds)
        return dict(woke_with)

    return program()


def _sender(rounds):
    """PINGs ``a`` every round."""

    def program():
        for _ in range(rounds):
            yield {"a": Message("PING")}

    return program()


def _directed(sim_cls, programs, **kwargs):
    tracer = CausalTracer()
    sim = sim_cls(
        _pair_graph(), programs(),
        telemetry=Telemetry.tracing(tracer=tracer), **kwargs,
    )
    stats = sim.run(20, on_timeout="stop")
    return sim, {
        "stats": asdict(stats),
        "trace": tracer.to_records(),
        "crashed": dict(sim.crashed),
        "faults": list(sim.faults.records) if sim.faults else [],
    }


def test_late_message_lands_at_sleeper():
    def programs():
        return {"a": _sleeper(4), "b": _sender(2)}

    def transport():
        return AsyncEventTransport(FixedLatency(1))

    sim, sleeping = _directed(Simulator, programs, transport=transport())
    _, lockstep = _directed(
        LockstepSimulator, programs, transport=transport()
    )
    assert sleeping == lockstep
    # Both PINGs were deferred a round and deposited (rounds 2 and 3)
    # while ``a`` slept through rounds 1-4.
    assert sim.transport.delivered_late == 2
    assert sim.results["a"] == {}
    assert sleeping["stats"]["rounds"] == 5


def test_crash_while_asleep():
    closed = []

    def victim():
        try:
            yield Idle(10)
        finally:
            closed.append(True)

    def programs():
        return {"a": victim(), "b": _sender(3)}

    plan = FaultPlan(crashes=(NodeCrash("a", 4),))
    sim, sleeping = _directed(Simulator, programs, faults=plan)
    assert closed == [True]
    _, lockstep = _directed(LockstepSimulator, programs, faults=plan)
    assert sleeping == lockstep
    assert sim.crashed == {"a": 4}
    assert sleeping["stats"]["outcome"] == "degraded"


# ----------------------------------------------------------------------
# Exact round counts: sleeping and jumping never change the schedule
# ----------------------------------------------------------------------

_PIN_PREFS = gnp_incomplete(12, 0.3, seed=3)

_PINNED = {
    "asm-pointer": lambda: run_congest_asm(
        _PIN_PREFS, 0.5, k=4, inner_iterations=4, outer_iterations=4
    ),
    "asm-port-order": lambda: run_congest_asm(
        _PIN_PREFS, 0.5, k=4, inner_iterations=4, outer_iterations=4,
        mm_iterations=5, mm_kind="port_order",
    ),
    "rand-asm": lambda: run_congest_rand_asm(
        _PIN_PREFS, 0.5, inner_iterations=2, outer_iterations=2,
        mm_iterations=3,
    ),
    "almost-regular": lambda: run_congest_almost_regular_asm(
        _PIN_PREFS, 0.5, quantile_match_iterations=4, mm_iterations=2,
    ),
}


@pytest.mark.parametrize("proto", sorted(_PINNED))
def test_fault_free_sync_round_count_is_exact(proto):
    result = _PINNED[proto]()
    stats = result.stats
    # Every program yields the full schedule; the simulator spends one
    # more round observing them return.
    assert stats.rounds == asm_protocol.schedule_round_bound(
        result.schedule
    ) - 1
    assert len(stats.messages_per_round) == stats.rounds
