"""Trace analysis: chain reconstruction, critical path, fault impact,
and blocking-pair explanations — the acceptance surface of the causal
trace layer (every blocking pair and every dropped message must be
explainable from a pinned seeded run)."""

from __future__ import annotations

import pytest

from repro.analysis.stability import find_blocking_pairs
from repro.congest.protocols import run_congest_asm
from repro.faults import FaultPlan, NodeCrash
from repro.faults.harness import fault_plan_for_profile
from repro.graphs import man_node, woman_node
from repro.obs.telemetry import Telemetry
from repro.trace.analysis import CausalTrace, explain_blocking_pairs
from repro.trace.span import DROP_ACTIONS, CausalTracer
from repro.workloads.generators import complete_uniform
from tests import test_congest_idle as grid


@pytest.fixture(scope="module")
def faulty_run():
    """One pinned seeded faulty run, traced (n=4, drop_rate=0.25)."""
    prefs = complete_uniform(4, seed=0)
    tracer = CausalTracer()
    plan = fault_plan_for_profile(prefs, fault_seed=7, drop_rate=0.25)
    result = run_congest_asm(
        prefs,
        0.5,
        k=2,
        inner_iterations=2,
        outer_iterations=2,
        mm_iterations=4,
        telemetry=Telemetry.tracing(tracer=tracer),
        faults=plan,
    )
    return prefs, result, CausalTrace(tracer.to_records())


class TestChains:
    def test_every_dropped_message_has_a_full_chain(self, faulty_run):
        _, _, trace = faulty_run
        dropped = trace.dropped()
        assert dropped, "the pinned run must drop messages"
        for record in dropped:
            chain = trace.chain(record["id"])
            assert chain[-1]["id"] == record["id"]
            # Root-first and fully resolved back to a chain root.
            assert chain[0]["parent"] == ""
            for parent, child in zip(chain, chain[1:]):
                assert child["parent"] == parent["id"]
            rounds = [r["round"] for r in chain]
            assert rounds == sorted(rounds)

    def test_descendants_are_downstream(self, faulty_run):
        _, _, trace = faulty_run
        roots = [m for m in trace.messages() if m["parent"] == ""]
        assert roots
        root = roots[0]
        for tid in trace.descendants(root["id"]):
            descendant = trace.message(tid)
            assert descendant["round"] >= root["round"]
            assert root["id"] in [r["id"] for r in trace.chain(tid)]

    def test_critical_path_is_a_chain(self, faulty_run):
        _, _, trace = faulty_run
        path = trace.critical_path()
        assert len(path) >= 2
        for parent, child in zip(path, path[1:]):
            assert child["parent"] == parent["id"]
        # It is maximal: no message has a longer chain.
        longest = max(
            len(trace.chain(m["id"])) for m in trace.messages()
        )
        assert len(path) == longest

    def test_chain_of_unknown_id_is_empty(self, faulty_run):
        _, _, trace = faulty_run
        assert trace.chain("0000000000000000") == []


def _heavy(*crashes):
    return FaultPlan(
        seed=9, drop_rate=0.05, delay_rate=0.3, duplicate_rate=0.3,
        max_delay=4, crashes=crashes,
    )


# Plans under which one message takes several injector actions: the
# heavy ones add delay+duplicate pairs, and their crash-restart windows
# drop some deferred copies late (a duplicate's with the first, a
# delayed message's with the second).
_MULTI_FAULT_PLANS = {
    "lossy": grid._PLANS["lossy"],
    "heavy-late-duplicate": _heavy(
        NodeCrash(woman_node(0), 2, restart_round=8),
        NodeCrash(man_node(1), 3, restart_round=12),
    ),
    "heavy-late-delay": _heavy(
        NodeCrash(woman_node(0), 3, restart_round=9),
        NodeCrash(man_node(1), 4, restart_round=13),
    ),
}


class TestFaultImpact:
    def test_impact_report(self, faulty_run):
        _, result, trace = faulty_run
        impact = trace.fault_impact()
        assert impact["by_action"].get("drop", 0) > 0
        assert (
            len(impact["dropped_messages"])
            == result.fault_stats.messages_dropped
        )
        for entry in impact["dropped_messages"]:
            assert entry["chain_depth"] >= 1
            assert entry["descendants"] >= 0
            assert entry["fault"] in ("drop", "drop_late")

    @pytest.mark.parametrize("plan", sorted(_MULTI_FAULT_PLANS))
    @pytest.mark.parametrize("transport", sorted(grid._TRANSPORTS))
    @pytest.mark.parametrize("proto", sorted(grid._PROTOCOLS))
    def test_by_action_matches_injector_counters(self, proto, transport, plan):
        """Every injector action lands on its message record, also when
        one message is delayed and duplicated, or deferred and then
        dropped late."""
        tracer = CausalTracer()
        link = grid._TRANSPORTS[transport]()
        result = grid._PROTOCOLS[proto](
            telemetry=Telemetry.tracing(tracer=tracer),
            faults=_MULTI_FAULT_PLANS[plan], transport=link,
        )
        trace = CausalTrace(tracer.to_records())
        by_action = trace.fault_impact()["by_action"]
        stats = result.fault_stats
        assert by_action.get("delay", 0) == stats.messages_delayed
        assert by_action.get("duplicate", 0) == stats.messages_duplicated
        # The transport's own late drops (mail in flight to a node that
        # went down) are traced as drop_late too.
        lost_in_flight = getattr(link, "dropped_late", 0)
        assert sum(
            count for action, count in by_action.items()
            if action in DROP_ACTIONS
        ) == stats.messages_dropped + lost_in_flight
        if transport == "sync":
            # A late drop loses the message only if no copy landed at
            # send time.
            fates = {"delay": "dropped", "duplicate": "delivered"}
            for record in trace.messages():
                if record.get("faults", [])[-1:] == ["drop_late"]:
                    first = record["faults"][0]
                    assert record["fate"] == fates[first], record

    def test_messages_between_accepts_tuples_and_reprs(self, faulty_run):
        _, _, trace = faulty_run
        via_tuple = trace.messages_between(("M", 0), ("W", 0))
        via_repr = trace.messages_between(repr(("M", 0)), repr(("W", 0)))
        assert via_tuple == via_repr
        rounds = [r["round"] for r in via_tuple]
        assert rounds == sorted(rounds)

    def test_no_unclosed_spans(self, faulty_run):
        _, _, trace = faulty_run
        assert trace.unclosed_spans() == []


class TestExplainBlockingPairs:
    def test_every_blocking_pair_is_explained(self, faulty_run):
        prefs, result, trace = faulty_run
        pairs = sorted(find_blocking_pairs(prefs, result.matching))
        assert pairs, "the pinned faulty run must leave blocking pairs"
        explanations = explain_blocking_pairs(
            trace, prefs, result.matching
        )
        assert [tuple(e["pair"]) for e in explanations] == pairs
        for explanation in explanations:
            verdict = explanation["verdict"]
            assert (
                verdict == "no-contact"
                or verdict.startswith("dropped:")
                or verdict.startswith("delivered:")
            )
            if verdict == "no-contact":
                assert explanation["messages"] == []
            else:
                # The last message's chain is reconstructed in full.
                chain = explanation["last_chain"]
                assert chain
                assert chain[0]["parent"] == ""
                assert (
                    chain[-1]["id"] == explanation["messages"][-1]["id"]
                )

    def test_verdict_names_the_fault_when_dropped(self, faulty_run):
        prefs, result, trace = faulty_run
        for m, w in sorted(find_blocking_pairs(prefs, result.matching)):
            explanation = trace.explain_blocking_pair(m, w)
            if explanation["verdict"].startswith("dropped:"):
                last = explanation["messages"][-1]
                assert last["fault"]
                break

    def test_unknown_pair_is_no_contact(self, faulty_run):
        _, _, trace = faulty_run
        explanation = trace.explain_blocking_pair(97, 98)
        assert explanation["verdict"] == "no-contact"
        assert explanation["messages"] == []
        assert explanation["last_chain"] == []


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
