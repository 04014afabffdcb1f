"""The :class:`MetricsObserver` — engine hooks feeding the telemetry.

Plugs into :class:`~repro.core.asm.ASMEngine`'s observer interface and
translates every hook into (a) counter/gauge updates on the bundle's
:class:`~repro.obs.metrics.MetricsRegistry` and (b) structured
records in its :class:`~repro.obs.events.EventLog`:

* ``on_proposal_round_end`` → a ``proposal_round`` event carrying the
  full :class:`~repro.core.asm.ProposalRoundStats` payload plus the
  engine-state snapshot (matching size, good/bad men);
* ``on_quantile_match_end`` → a ``quantile_match`` event;
* ``on_outer_iteration_end`` → an ``outer_iteration`` event carrying
  :class:`~repro.core.asm.OuterIterationStats`.

:mod:`repro.analysis.trace` reads the per-round timeline back out of
that log (records, the timeline table, the convergence summary).

Example
-------
>>> from repro.core.asm import asm
>>> from repro.workloads.generators import complete_uniform
>>> obs = MetricsObserver()
>>> result = asm(complete_uniform(12, seed=0), eps=0.5, observer=obs)
>>> obs.telemetry.metrics.counters["asm.messages.proposes"] == (
...     result.messages.proposes)
True
>>> len(obs.telemetry.events.by_kind("proposal_round")) == (
...     result.proposal_rounds_executed)
True
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from repro.core.asm import (
    ASMEngine,
    ASMObserver,
    OuterIterationStats,
    ProposalRoundStats,
)
from repro.obs.telemetry import Telemetry

__all__ = ["MetricsObserver"]


class MetricsObserver(ASMObserver):
    """Feeds the metrics registry and event log from engine hooks.

    Parameters
    ----------
    telemetry:
        The bundle to feed; a fresh enabled
        :meth:`~repro.obs.telemetry.Telemetry.create` by default.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.create()
        )
        self._proposal_rounds_seen = 0
        self._quantile_matches_seen = 0

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def on_proposal_round_end(
        self, engine: ASMEngine, stats: ProposalRoundStats
    ) -> None:
        tel = self.telemetry
        matching_size = len(engine.current_matching())
        good = len(engine.good_men())
        bad = len(engine.bad_men())
        metrics = tel.metrics
        metrics.inc("asm.proposal_rounds")
        metrics.inc("asm.messages.proposes", stats.proposals)
        metrics.inc("asm.messages.accepts", stats.accepts)
        metrics.inc("asm.messages.rejects", stats.rejects)
        metrics.inc("asm.men_removed", stats.men_removed)
        metrics.set_gauge("asm.matching_size", matching_size)
        metrics.set_gauge("asm.good_men", good)
        metrics.set_gauge("asm.bad_men", bad)
        tel.events.emit(
            "proposal_round",
            index=self._proposal_rounds_seen,
            **asdict(stats),
            matching_size=matching_size,
            good_men=good,
            bad_men=bad,
        )
        self._proposal_rounds_seen += 1

    def on_quantile_match_end(self, engine: ASMEngine) -> None:
        self.telemetry.metrics.inc("asm.quantile_match_calls")
        self.telemetry.events.emit(
            "quantile_match",
            index=self._quantile_matches_seen,
            proposal_rounds_so_far=self._proposal_rounds_seen,
        )
        self._quantile_matches_seen += 1

    def on_outer_iteration_end(
        self, engine: ASMEngine, stats: OuterIterationStats
    ) -> None:
        self.telemetry.metrics.inc("asm.outer_iterations")
        self.telemetry.events.emit("outer_iteration", **asdict(stats))
