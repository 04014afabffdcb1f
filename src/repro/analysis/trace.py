"""Proposal-round timelines of ASM runs, as views over an event log.

A :class:`~repro.obs.observer.MetricsObserver` attached to an ASM run
writes one ``proposal_round`` record per executed ProposalRound into
its :class:`~repro.obs.events.EventLog` (proposals, accepts, rejects,
the accepted-proposal graph size, the matching size so far, good/bad
men).  The functions here read those records back: as plain dicts, as
an ASCII table, and as a convergence summary.  They work the same on a
log reloaded from an events file.

Example
-------
>>> from repro.core.asm import asm
>>> from repro.obs.observer import MetricsObserver
>>> from repro.workloads.generators import complete_uniform
>>> observer = MetricsObserver()
>>> _ = asm(complete_uniform(16, seed=0), eps=0.5, observer=observer)
>>> len(proposal_round_records(observer.telemetry.events)) > 0
True
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.tables import format_table
from repro.obs.events import EventLog

__all__ = ["convergence_summary", "proposal_round_records", "timeline_table"]

#: The ``proposal_round`` fields a timeline row shows, in column order.
_ROW_FIELDS = (
    "index",
    "proposals",
    "accepts",
    "rejects",
    "g0_nodes",
    "g0_edges",
    "matched_in_m0",
    "mm_rounds",
    "max_player_work",
    "matching_size",
    "good_men",
    "bad_men",
)


def proposal_round_records(events: EventLog) -> List[Dict[str, Any]]:
    """One dict per executed ProposalRound, in order."""
    return [
        {name: e.fields[name] for name in _ROW_FIELDS}
        for e in events.by_kind("proposal_round")
    ]


def timeline_table(events: EventLog, max_rows: int = 50) -> str:
    """The first ``max_rows`` proposal rounds as a table."""
    records = proposal_round_records(events)
    suffix = ""
    if len(records) > max_rows:
        suffix = f"\n... {len(records) - max_rows} more rounds"
    return (
        format_table(records[:max_rows], title="ASM proposal-round timeline")
        + suffix
    )


def convergence_summary(events: EventLog) -> Dict[str, Any]:
    """Headline facts about how the run converged.

    ``rounds_to_90pct_matched`` is ``None`` when nothing was ever
    matched — an empty final matching has no meaningful "90% of final
    size" round (every round trivially satisfies ``|M| ≥ 0``).
    """
    rounds = proposal_round_records(events)
    if not rounds:
        return {
            "proposal_rounds": 0,
            "final_matching_size": 0,
            "rounds_to_90pct_matched": None,
            "total_proposals": 0,
        }
    final = rounds[-1]["matching_size"]
    reach: Optional[int] = None
    if final:
        target = 0.9 * final
        reach = next(
            r["index"] + 1 for r in rounds if r["matching_size"] >= target
        )
    return {
        "proposal_rounds": len(rounds),
        "final_matching_size": final,
        "rounds_to_90pct_matched": reach,
        "total_proposals": sum(r["proposals"] for r in rounds),
    }
