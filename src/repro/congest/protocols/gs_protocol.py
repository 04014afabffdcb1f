"""Distributed Gale–Shapley as a CONGEST protocol.

The natural distributed interpretation the paper's introduction
describes: every free man proposes to the best woman who has not yet
rejected him; every woman keeps the best suitor she has seen and
rejects the rest.  Two rounds per iteration (PROPOSE, then
ACCEPT/REJECT).

CONGEST has no global termination detection, so the programs run a
fixed ``iterations`` schedule supplied by the driver (the driver
defaults it to the quiescence point computed by the logical
:func:`repro.baselines.gale_shapley.parallel_gale_shapley`, plus one
idle iteration).  The final matching equals the (man-optimal) stable
matching of the centralized algorithm, which the test suite checks.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.baselines.gale_shapley import parallel_gale_shapley
from repro.congest.message import Message
from repro.congest.simulator import Simulator
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.faults.plan import FaultPlan, RetryTally
from repro.graphs import (
    NodeId,
    bipartite_graph_from_edges,
    man_node,
    node_index,
    woman_node,
)

__all__ = ["run_congest_gale_shapley"]


def _man_program(
    m: int, pref_list: Tuple[int, ...], iterations: int
) -> Generator:
    """Man's side: propose down the list until accepted; wait if engaged."""
    next_choice = 0
    engaged_to: Optional[int] = None
    for _ in range(iterations):
        outbox: Dict[NodeId, Message] = {}
        if engaged_to is None and next_choice < len(pref_list):
            outbox = {
                woman_node(pref_list[next_choice]): Message("PROPOSE")
            }
        inbox = yield outbox
        # Women never write in the propose round; responses come next.
        inbox = yield {}
        for sender, msg in inbox.items():
            w = node_index(sender)
            if msg.kind == "ACCEPT":
                engaged_to = w
            elif msg.kind == "REJECT":
                if engaged_to == w:
                    engaged_to = None
                if (
                    next_choice < len(pref_list)
                    and pref_list[next_choice] == w
                ):
                    next_choice += 1
    return engaged_to


def _woman_program(
    w: int,
    pref_rank: Dict[int, int],
    iterations: int,
    tally: Optional[RetryTally] = None,
) -> Generator:
    """Woman's side: keep the best suitor seen so far, reject the rest.

    Fault tolerance: a proposal from her current fiancé is evidence
    that her ACCEPT was lost (engaged men never propose fault-free),
    so she retransmits it; ``tally`` counts the retries.  Proposals
    from worse men are already re-rejected by the normal flow.
    """
    fiance: Optional[int] = None
    for _ in range(iterations):
        inbox = yield {}
        suitors = [
            node_index(s)
            for s, msg in inbox.items()
            if msg.kind == "PROPOSE"
        ]
        outbox: Dict[NodeId, Message] = {}
        if suitors:
            candidates = suitors if fiance is None else suitors + [fiance]
            best = min(candidates, key=lambda m: pref_rank[m])
            if best != fiance:
                if fiance is not None:
                    outbox[man_node(fiance)] = Message("REJECT")
                fiance = best
                outbox[man_node(best)] = Message("ACCEPT")
            elif best in suitors:
                # Lost-ACCEPT retransmission; never fires fault-free.
                outbox[man_node(best)] = Message("ACCEPT")
                if tally is not None:
                    tally.count += 1
            for m in suitors:
                if m != best:
                    outbox[man_node(m)] = Message("REJECT")
        yield outbox
    return fiance


def run_congest_gale_shapley(
    prefs: PreferenceProfile,
    iterations: Optional[int] = None,
    *,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> Tuple[Matching, "Simulator"]:
    """Run distributed Gale–Shapley over the simulator.

    Returns the final matching and the simulator (whose ``stats`` carry
    rounds/messages/bits).  ``iterations`` defaults to one past the
    logical engine's quiescence point.

    With ``faults``, delivery runs through the injector and the final
    matching keeps only mutually confirmed engagements (a one-sided
    view — e.g. a man whose fiancée moved on while his REJECT was in
    flight — contributes no pair); the simulator's ``faults`` injector
    and ``stats.outcome`` carry the degradation details.
    """
    if iterations is None:
        iterations = parallel_gale_shapley(prefs).iterations + 1
    graph = bipartite_graph_from_edges(
        prefs.iter_edges(), prefs.n_men, prefs.n_women
    )
    programs: Dict[NodeId, Generator] = {}
    tally = RetryTally()
    for m in range(prefs.n_men):
        programs[man_node(m)] = _man_program(
            m, prefs.man_list(m), iterations
        )
    for w in range(prefs.n_women):
        rank = {m: prefs.rank_of_man(w, m) for m in prefs.woman_list(w)}
        programs[woman_node(w)] = _woman_program(w, rank, iterations, tally)
    sim = Simulator(
        graph, programs, telemetry=telemetry, faults=faults,
        transport=transport,
    )
    # Reordered delivery (nonzero transport latency) degrades runs the
    # same way fault injection does — keep only mutually confirmed
    # engagements (docs/transport.md).
    reordering = transport is not None and transport.reorders
    tracer = telemetry.tracer if telemetry is not None else None
    span_id = (
        tracer.open_span(
            "protocol.gale_shapley",
            iterations=iterations,
            faulty=faults is not None,
        )
        if tracer is not None
        else None
    )
    try:
        sim.run()
    finally:
        if span_id is not None:
            tracer.close_span(
                span_id,
                outcome=sim.stats.outcome,
                rounds=sim.stats.rounds,
                retries=tally.count,
            )
    if telemetry is not None and telemetry.enabled and tally.count > 0:
        telemetry.metrics.inc("congest.retries", tally.count)
    pairs = []
    for w in range(prefs.n_women):
        node = woman_node(w)
        if node not in sim.results:
            continue
        m = sim.results[node]
        if m is None:
            continue
        if faults is not None or reordering:
            mnode = man_node(m)
            if mnode in sim.crashed or sim.results.get(mnode) != w:
                continue
        pairs.append((m, w))
    return Matching(pairs), sim
