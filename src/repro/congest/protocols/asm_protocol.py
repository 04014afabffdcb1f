"""ASM as a true CONGEST message-passing protocol.

Every player is a generator node program holding only its own
preference list and the global parameters (``k``, loop lengths, the
maximal-matching phase budget) — all derivable from ``ε`` and the
public upper bound on ``n``, as the paper requires (Section 3.1: "the
only global information known to each processor is n").

Round layout of one ProposalRound (both genders yield in lockstep):

====  =======================================  =====================
slot  men                                      women
====  =======================================  =====================
1     send PROPOSE to every w ∈ A              (listen)
2     (listen)                                 send ACCEPT to best
                                               proposing quantile
3..   maximal-matching fragment on G₀          same fragment
last  (listen)                                 send REJECT to every
                                               weakly-worse suitor
====  =======================================  =====================

With the deterministic pointer fragment and a sufficient
maximal-matching budget, the final matching is *identical* to the
logical :class:`repro.core.asm.ASMEngine` run with the matching
deterministic oracle — the cross-validation test of DESIGN.md §4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.congest.message import Message
from repro.congest.protocols.fragments import (
    israeli_itai_fragment,
    pointer_matching_fragment,
    port_order_fragment,
)
from repro.congest.simulator import SimulationStats, Simulator
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import QuantizedList
from repro.core.asm import params_for_eps
from repro.errors import InvalidParameterError, SimulationError
from repro.faults.injector import FaultStats
from repro.faults.plan import FaultPlan, RetryTally
from repro.graphs import (
    NodeId,
    bipartite_graph_from_edges,
    man_node,
    node_index,
    woman_node,
)

__all__ = [
    "CongestASMResult",
    "run_congest_asm",
    "run_congest_rand_asm",
    "run_congest_almost_regular_asm",
    "schedule_round_bound",
]


@dataclass(frozen=True)
class ASMSchedule:
    """The fixed global schedule every node follows.

    ``flat_schedule`` selects AlmostRegularASM's loop structure: no
    degree-threshold outer loop (``outer_iterations`` acts as the total
    QuantileMatch count and ``inner_iterations`` must be 1).
    ``remove_violators`` adds one extra round per ProposalRound in
    which women left unmatched by the (almost-)maximal matching notify
    their accepted suitors (``MM_FREE``); a man both unmatched and
    notified is a Definition-3 violator and removes himself from play
    (the footnote to Theorem 6).
    """

    k: int
    outer_iterations: int
    inner_iterations: int
    mm_iterations: int
    mm_kind: str  # "pointer" | "port_order" | "israeli_itai"
    seed: int = 0
    flat_schedule: bool = False
    remove_violators: bool = False


def _mm_fragment(sched: ASMSchedule, g0_neighbors, rng, is_left: bool):
    """Instantiate one maximal-matching phase fragment."""
    if sched.mm_kind == "pointer":
        return pointer_matching_fragment(g0_neighbors, sched.mm_iterations)
    if sched.mm_kind == "port_order":
        return port_order_fragment(
            g0_neighbors, sched.mm_iterations, is_left
        )
    if sched.mm_kind == "israeli_itai":
        return israeli_itai_fragment(g0_neighbors, sched.mm_iterations, rng)
    raise InvalidParameterError(f"unknown mm_kind {sched.mm_kind!r}")


def _man_program(
    m: int,
    pref_list: Tuple[int, ...],
    sched: ASMSchedule,
    rng: Optional[random.Random],
) -> Generator:
    """The man's side of ASM (Algorithms 1–3, male role)."""
    q = QuantizedList(pref_list, sched.k)
    partner: Optional[int] = None
    active: set = set()
    removed = False
    for i in range(sched.outer_iterations):
        threshold = 1 if sched.flat_schedule else 2 ** i
        for _ in range(sched.inner_iterations):
            # --- QuantileMatch: refill A if participating & unmatched.
            if (
                not removed
                and partner is None
                and q.remaining >= threshold
            ):
                best = q.best_nonempty_quantile()
                active = set(q.members_of(best)) if best is not None else set()
            for _ in range(sched.k):
                # --- ProposalRound slot 1: propose.
                inbox = yield {
                    woman_node(w): Message("PROPOSE") for w in active
                }
                # --- slot 2: receive ACCEPTs.
                inbox = yield {}
                accepted_by = {
                    node_index(s)
                    for s, msg in inbox.items()
                    if msg.kind == "ACCEPT"
                }
                # --- maximal-matching phase on G0.
                g0_nbrs = {woman_node(w) for w in accepted_by}
                mm_partner = yield from _mm_fragment(
                    sched, g0_nbrs, rng, is_left=True
                )
                if mm_partner is not None:
                    partner = node_index(mm_partner)
                    active = set()
                if sched.remove_violators:
                    # --- removal slot: unmatched women announce MM_FREE;
                    # an unmatched accepted man is a Def-3 violator.
                    inbox = yield {}
                    got_free = any(
                        msg.kind == "MM_FREE" for msg in inbox.values()
                    )
                    if mm_partner is None and got_free and not removed:
                        removed = True
                        active = set()
                # --- final slot: receive REJECTs.
                inbox = yield {}
                for s, msg in inbox.items():
                    if msg.kind == "REJECT":
                        w = node_index(s)
                        q.remove(w)
                        active.discard(w)
                        if partner == w:
                            partner = None
    return partner


def _woman_program(
    w: int,
    pref_list: Tuple[int, ...],
    sched: ASMSchedule,
    rng: Optional[random.Random],
    tally: Optional[RetryTally] = None,
) -> Generator:
    """The woman's side of ASM (Algorithms 1–3, female role).

    Fault tolerance: a proposal from a man she has already removed
    from ``Q`` is evidence his REJECT was lost (fault-free, a rejected
    man never proposes again), so she retransmits the REJECT in the
    final slot.  The retry fires only on that evidence, keeping
    fault-free runs bit-identical; ``tally`` counts the retries.
    """
    q = QuantizedList(pref_list, sched.k)
    partner: Optional[int] = None
    for _ in range(sched.outer_iterations):
        for _ in range(sched.inner_iterations):
            for _ in range(sched.k):
                # --- slot 1: receive proposals.
                inbox = yield {}
                suitors = [
                    node_index(s)
                    for s, msg in inbox.items()
                    if msg.kind == "PROPOSE"
                ]
                stale = sorted(m for m in suitors if not q.contains(m))
                best = q.best_nonempty_among(suitors)
                accepted = (
                    {
                        m
                        for m in suitors
                        if q.contains(m) and q.quantile_of(m) == best
                    }
                    if best is not None
                    else set()
                )
                # --- slot 2: send ACCEPTs.
                inbox = yield {
                    man_node(m): Message("ACCEPT") for m in accepted
                }
                # --- maximal-matching phase on G0.
                g0_nbrs = {man_node(m) for m in accepted}
                mm_partner = yield from _mm_fragment(
                    sched, g0_nbrs, rng, is_left=False
                )
                if sched.remove_violators:
                    # --- removal slot: announce freedom to accepted men.
                    free_outbox: Dict[NodeId, Message] = {}
                    if mm_partner is None:
                        free_outbox = {
                            man_node(m): Message("MM_FREE") for m in accepted
                        }
                    yield free_outbox
                # --- final slot: reject weakly-worse suitors.
                outbox: Dict[NodeId, Message] = {}
                # The q.contains guard is for faulty runs only: a
                # stray delayed message can marry the fragment to a
                # man she never accepted (hence already removed).
                if mm_partner is not None and q.contains(
                    node_index(mm_partner)
                ):
                    m0 = node_index(mm_partner)
                    q0 = q.quantile_of(m0)
                    rejected = q.members_at_least(q0) - {m0}
                    for m in rejected:
                        q.remove(m)
                        outbox[man_node(m)] = Message("REJECT")
                    partner = m0
                # Retransmit lost REJECTs to stale suitors (see
                # docstring); never reached in a fault-free run.
                for m in stale:
                    node = man_node(m)
                    if node not in outbox:
                        outbox[node] = Message("REJECT")
                        if tally is not None:
                            tally.count += 1
                yield outbox
    return partner


@dataclass
class CongestASMResult:
    """Output of a message-level ASM run.

    The fault-related fields are populated only when the run carried a
    :class:`~repro.faults.plan.FaultPlan`; a fault-free run leaves them
    at their defaults.  ``matching`` then holds only *mutually
    confirmed* pairs, with every node whose final view is missing
    (crashed / timed out) or inconsistent reported in
    ``unresolved_men`` / ``unresolved_women``; the achieved
    blocking-pair fraction of the degraded matching is what
    ``repro.analysis.stability`` computes over it.
    """

    matching: Matching
    stats: SimulationStats
    schedule: ASMSchedule
    unresolved_men: Tuple[int, ...] = ()
    unresolved_women: Tuple[int, ...] = ()
    crashed_nodes: Tuple[str, ...] = ()
    retries: int = 0
    fault_stats: Optional[FaultStats] = None
    fault_trace: Tuple[Dict[str, object], ...] = ()


def _rounds_per_proposal_round(sched: ASMSchedule) -> int:
    """Exact synchronous rounds one ProposalRound consumes."""
    per_mm_iteration = 4 if sched.mm_kind == "israeli_itai" else 2
    return (
        2  # propose + accept slots
        + sched.mm_iterations * per_mm_iteration
        + (1 if sched.remove_violators else 0)
        + 1  # final reject slot
    )


def schedule_round_bound(sched: ASMSchedule) -> int:
    """An upper bound on the simulator rounds ``sched`` can take.

    Programs execute a fixed number of yields (the full schedule), and
    the simulator spends one extra round observing every program
    return; a little slack covers that plus trailing deferred
    deliveries under fault injection.
    """
    yields = (
        sched.outer_iterations
        * sched.inner_iterations
        * sched.k
        * _rounds_per_proposal_round(sched)
    )
    return yields + 2


def run_congest_asm(
    prefs: PreferenceProfile,
    eps: float,
    *,
    k: Optional[int] = None,
    delta: Optional[float] = None,
    inner_iterations: Optional[int] = None,
    outer_iterations: Optional[int] = None,
    mm_iterations: Optional[int] = None,
    mm_kind: str = "pointer",
    seed: int = 0,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """Run ASM at the message level over the CONGEST simulator.

    With ``faults``, the run degrades gracefully instead of raising on
    inconsistency: the result reports the mutually confirmed matching,
    unresolved nodes, retry counts, and the deterministic fault trace
    (see :class:`CongestASMResult` and ``docs/robustness.md``).  A
    ``transport`` that reorders delivery (nonzero latency — see
    ``docs/transport.md``) gets the same tolerant treatment.

    Defaults follow the paper: ``k = ⌈8/ε⌉``, ``δ = ε/8``, inner loop
    ``⌈2δ⁻¹k⌉``, outer loop ``⌈log₂ n⌉ + 1``, and a maximal-matching
    budget of ``n_men + n_women`` pointer iterations (always enough for
    exact maximality).  These schedules are long, but most of each
    matching budget is slept through (a node without ``G₀`` edges, or
    already matched, yields ``Idle``), and the simulator jumps over
    rounds in which every node sleeps — so the cost tracks the rounds
    that do work.  The proposal and reject slots still wake every node
    once per ProposalRound, so use the overrides for anything beyond
    small ``n`` (the logical engine exists precisely to run the big
    cases; this protocol exists to prove the algorithm really is a
    CONGEST protocol and to cross-validate).
    """
    import math

    default_k, default_delta = params_for_eps(eps)
    k = default_k if k is None else k
    delta = default_delta if delta is None else delta
    if inner_iterations is None:
        inner_iterations = math.ceil(2.0 * k / delta)
    if outer_iterations is None:
        n = max(2, prefs.n_men, prefs.n_women)
        outer_iterations = math.ceil(math.log2(n)) + 1
    if mm_iterations is None:
        mm_iterations = prefs.n_men + prefs.n_women
    sched = ASMSchedule(
        k=k,
        outer_iterations=outer_iterations,
        inner_iterations=inner_iterations,
        mm_iterations=mm_iterations,
        mm_kind=mm_kind,
        seed=seed,
    )
    return _run_with_schedule(
        prefs, sched, telemetry=telemetry, faults=faults, transport=transport,
    )


def run_congest_rand_asm(
    prefs: PreferenceProfile,
    eps: float,
    failure_prob: float = 0.1,
    seed: int = 0,
    *,
    inner_iterations: Optional[int] = None,
    outer_iterations: Optional[int] = None,
    mm_iterations: Optional[int] = None,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """RandASM (Theorem 5) at the message level.

    ASM's schedule with truncated Israeli–Itai matching phases; the
    per-phase iteration budget defaults to the plan of
    :func:`repro.core.rand_asm.plan_rand_asm` (``O(log(n/δε³))``
    MatchingRounds), with per-node local randomness derived from
    ``seed``.  Use the overrides for small test schedules.
    """
    from repro.core.rand_asm import plan_rand_asm

    plan = plan_rand_asm(prefs, eps, failure_prob)
    return run_congest_asm(
        prefs,
        eps,
        k=plan.k,
        delta=plan.delta_quantile,
        inner_iterations=inner_iterations,
        outer_iterations=outer_iterations,
        mm_iterations=(
            plan.iterations_per_call
            if mm_iterations is None
            else mm_iterations
        ),
        mm_kind="israeli_itai",
        seed=seed,
        telemetry=telemetry,
        faults=faults,
        transport=transport,
    )


def run_congest_almost_regular_asm(
    prefs: PreferenceProfile,
    eps: float,
    failure_prob: float = 0.1,
    alpha: Optional[float] = None,
    seed: int = 0,
    *,
    quantile_match_iterations: Optional[int] = None,
    mm_iterations: Optional[int] = None,
    mm_kind: str = "israeli_itai",
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """AlmostRegularASM (Theorem 6) at the message level.

    Flat QuantileMatch schedule (no degree thresholds), truncated
    maximal-matching phases, and local Definition-3 violator removal:
    after each matching phase, women left unmatched announce
    ``MM_FREE`` to their accepted suitors; a man both unmatched and
    notified withdraws from play — exactly the logical engine's
    ``remove_unmatched_violators`` semantics, implemented with one
    extra communication round per ProposalRound.

    Defaults derive from :func:`repro.core.almost_regular.
    plan_almost_regular`; use the overrides for small test schedules.
    """
    from repro.core.almost_regular import plan_almost_regular

    plan = plan_almost_regular(prefs, eps, failure_prob, alpha)
    if quantile_match_iterations is None:
        quantile_match_iterations = plan.quantile_match_iterations
    if mm_iterations is None:
        mm_iterations = plan.amm_iterations_per_call
    sched = ASMSchedule(
        k=plan.k,
        outer_iterations=quantile_match_iterations,
        inner_iterations=1,
        mm_iterations=mm_iterations,
        mm_kind=mm_kind,
        seed=seed,
        flat_schedule=True,
        remove_violators=True,
    )
    return _run_with_schedule(
        prefs, sched, telemetry=telemetry, faults=faults, transport=transport,
    )


def _run_with_schedule(
    prefs: PreferenceProfile,
    sched: ASMSchedule,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """Build the node programs for ``sched`` and run the simulation."""
    graph = bipartite_graph_from_edges(
        prefs.iter_edges(), prefs.n_men, prefs.n_women
    )
    programs: Dict[NodeId, Generator] = {}
    randomized = sched.mm_kind == "israeli_itai"
    seed = sched.seed
    tally = RetryTally()
    for m in range(prefs.n_men):
        rng = random.Random(f"{seed}-M-{m}") if randomized else None
        programs[man_node(m)] = _man_program(
            m, prefs.man_list(m), sched, rng
        )
    for w in range(prefs.n_women):
        rng = random.Random(f"{seed}-W-{w}") if randomized else None
        programs[woman_node(w)] = _woman_program(
            w, prefs.woman_list(w), sched, rng, tally
        )
    sim = Simulator(
        graph, programs, telemetry=telemetry, faults=faults,
        transport=transport,
    )
    # A reordering transport (nonzero latency) degrades runs the same
    # way fault injection does: late messages can leave one-sided
    # views, so assembly must be tolerant.  Zero-latency transports
    # keep the strict path — and its bit-identity to the sync default.
    reordering = transport is not None and transport.reorders
    tracer = telemetry.tracer if telemetry is not None else None
    span_id = (
        tracer.open_span(
            "protocol.asm",
            k=sched.k,
            outer=sched.outer_iterations,
            inner=sched.inner_iterations,
            mm_kind=sched.mm_kind,
            faulty=faults is not None,
        )
        if tracer is not None
        else None
    )
    try:
        if faults is not None or reordering:
            # The schedule is finite, so the run always terminates; the
            # bound is a backstop, and "stop" keeps degraded runs
            # reporting instead of raising.
            stats = sim.run(schedule_round_bound(sched), on_timeout="stop")
        else:
            stats = sim.run()
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
    if faults is None and not reordering:
        # Assemble the matching from the women's outputs and
        # cross-check against the men's view.
        pairs = []
        for w in range(prefs.n_women):
            m = sim.results[woman_node(w)]
            if m is not None:
                pairs.append((m, w))
        matching = Matching(pairs)
        for m in range(prefs.n_men):
            his = sim.results[man_node(m)]
            if matching.partner_of_man(m) != his:
                raise SimulationError(
                    f"inconsistent final state: man {m} believes his "
                    f"partner is {his}, women's side says "
                    f"{matching.partner_of_man(m)}"
                )
        return CongestASMResult(
            matching=matching,
            stats=stats,
            schedule=sched,
            retries=tally.count,
        )
    # Tolerant assembly under fault injection or reordered delivery:
    # keep only mutually confirmed pairs; report everyone else
    # (crashed, timed out, or with a one-sided view) as unresolved.
    crashed = sim.crashed
    pairs = []
    confirmed: Dict[int, int] = {}
    unresolved_men = []
    unresolved_women = []
    for w in range(prefs.n_women):
        node = woman_node(w)
        if node in crashed or node not in sim.results:
            unresolved_women.append(w)
            continue
        m = sim.results[node]
        if m is None:
            continue
        mnode = man_node(m)
        if (
            mnode not in crashed
            and sim.results.get(mnode, _NO_RESULT) == w
        ):
            pairs.append((m, w))
            confirmed[m] = w
        else:
            unresolved_women.append(w)
    for m in range(prefs.n_men):
        node = man_node(m)
        if node in crashed or node not in sim.results:
            unresolved_men.append(m)
            continue
        his = sim.results[node]
        if his is not None and m not in confirmed:
            unresolved_men.append(m)
    injector = sim.faults
    return CongestASMResult(
        matching=Matching(pairs),
        stats=stats,
        schedule=sched,
        unresolved_men=tuple(sorted(unresolved_men)),
        unresolved_women=tuple(sorted(unresolved_women)),
        crashed_nodes=tuple(sorted(repr(v) for v in crashed)),
        retries=tally.count,
        fault_stats=injector.stats if injector is not None else None,
        fault_trace=tuple(injector.records) if injector is not None else (),
    )


#: Sentinel distinguishing "no result" from a result of ``None``.
_NO_RESULT = object()
