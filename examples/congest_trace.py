#!/usr/bin/env python3
"""Scenario: watch ASM run as a true message-passing protocol.

Runs the message-level CONGEST implementation of ASM on a small
instance — every player is an independent node program exchanging
O(log n)-bit PROPOSE / ACCEPT / REJECT / MM_POINT / MM_TAKEN messages
through the synchronous simulator — and verifies the outcome matches
the logical engine exactly (DESIGN.md §4 cross-validation).  A causal
tracer records the traffic; the delivered-message view over its trace
gives the per-kind counts and the message-sequence table.

Run:  python examples/congest_trace.py
"""

from __future__ import annotations

from repro import complete_uniform, instability
from repro.analysis.tables import format_table
from repro.congest.protocols import run_congest_asm
from repro.core.asm import ASMEngine
from repro.mm.deterministic import deterministic_maximal_matching
from repro.obs import Telemetry
from repro.trace import CausalTrace, CausalTracer
from repro.trace.analysis import busiest_round, count_by, sequence_table


def main() -> None:
    n, eps = 8, 0.5
    prefs = complete_uniform(n, seed=4)
    k, inner, outer, mm_iters = 4, 6, 4, 2 * n

    print(f"Running message-level ASM on n={n} (k={k}) ...")
    tracer = CausalTracer()
    congest = run_congest_asm(
        prefs,
        eps,
        k=k,
        inner_iterations=inner,
        outer_iterations=outer,
        mm_iterations=mm_iters,
        telemetry=Telemetry.tracing(tracer),
    )
    stats = congest.stats
    delivered = CausalTrace(tracer.records).delivered()
    per_round = count_by(delivered, "round")

    print(f"  communication rounds : {stats.rounds}")
    print(f"  messages sent        : {stats.messages}")
    print(f"  total bits           : {stats.total_bits}")
    print(f"  largest message      : {stats.max_message_bits} bits "
          f"(CONGEST cap per message: O(log n))")
    busiest = busiest_round(delivered)
    print(f"  busiest round        : #{busiest} "
          f"({per_round[busiest]} messages)")

    print("\nmessages by kind:")
    print(format_table(
        [{"kind": kind, "messages": count}
         for kind, count in count_by(delivered, "kind").items()]
    ))
    print("\nfirst delivered messages:")
    print(sequence_table(delivered, limit=8))

    engine = ASMEngine(
        prefs,
        eps,
        k=k,
        inner_iterations=inner,
        outer_iterations=outer,
        mm_oracle=lambda g: deterministic_maximal_matching(
            g, max_iterations=mm_iters
        ),
    )
    logical = engine.run()

    print("\nfinal matching (man -> woman):")
    for m, w in congest.matching.pairs():
        print(f"  m{m} -> w{w}")
    print(f"\ninstability: {instability(prefs, congest.matching):.4f} "
          f"(bound {eps})")
    same = congest.matching == logical.matching
    print(f"identical to logical engine: {same}")
    assert same


if __name__ == "__main__":
    main()
