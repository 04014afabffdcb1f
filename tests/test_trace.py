"""Tests for the proposal-round timeline views over an event log."""

from __future__ import annotations

from repro.analysis.trace import (
    convergence_summary,
    proposal_round_records,
    timeline_table,
)
from repro.core.asm import asm
from repro.core.rand_asm import rand_asm
from repro.obs import EventLog, MetricsObserver
from repro.workloads.generators import complete_uniform, gnp_incomplete


def _observed(run, prefs, *args, **kwargs):
    """Run ``run`` with a MetricsObserver; returns (result, events)."""
    observer = MetricsObserver()
    result = run(prefs, *args, observer=observer, **kwargs)
    return result, observer.telemetry.events


class TestTraceObserver:
    def test_records_proposal_rounds(self):
        run, events = _observed(asm, complete_uniform(16, seed=0), eps=0.5)
        records = proposal_round_records(events)
        assert len(records) == run.proposal_rounds_executed
        assert [r["index"] for r in records] == list(range(len(records)))

    def test_matching_size_monotone(self):
        """Lemma 1 seen through the trace: |M| never decreases."""
        _, events = _observed(asm, gnp_incomplete(20, 0.4, seed=1), eps=0.3)
        sizes = [r["matching_size"] for r in proposal_round_records(events)]
        assert sizes == sorted(sizes)

    def test_good_men_monotone(self):
        """Good men never become bad (Lemma 6's proof observation)."""
        _, events = _observed(asm, complete_uniform(20, seed=2), eps=0.4)
        goods = [r["good_men"] for r in proposal_round_records(events)]
        assert goods == sorted(goods)

    def test_quantile_match_boundaries(self):
        run, events = _observed(asm, complete_uniform(12, seed=3), eps=0.5)
        boundaries = [
            e.fields["proposal_rounds_so_far"]
            for e in events.by_kind("quantile_match")
        ]
        assert len(boundaries) == run.quantile_match_calls_executed
        assert boundaries == sorted(boundaries)

    def test_outer_iteration_stats(self):
        run, events = _observed(asm, complete_uniform(12, seed=3), eps=0.5)
        assert len(events.by_kind("outer_iteration")) == len(
            run.outer_iterations
        )

    def test_records_and_table(self):
        _, events = _observed(asm, complete_uniform(12, seed=4), eps=0.5)
        records = proposal_round_records(events)
        assert records and isinstance(records[0], dict)
        text = timeline_table(events, max_rows=3)
        assert "timeline" in text
        if len(records) > 3:
            assert "more rounds" in text

    def test_convergence_summary(self):
        _, events = _observed(asm, complete_uniform(16, seed=5), eps=0.3)
        summary = convergence_summary(events)
        assert summary["final_matching_size"] == 16
        assert 1 <= summary["rounds_to_90pct_matched"] <= summary[
            "proposal_rounds"
        ]
        assert summary["total_proposals"] > 0

    def test_empty_trace_summary(self):
        summary = convergence_summary(EventLog())
        assert summary["proposal_rounds"] == 0
        assert summary["rounds_to_90pct_matched"] is None

    def test_observer_does_not_change_behavior(self):
        prefs = gnp_incomplete(16, 0.5, seed=7)
        plain = asm(prefs, 0.3)
        traced, _ = _observed(asm, prefs, 0.3)
        assert plain.matching == traced.matching
        assert plain.rounds_active == traced.rounds_active

    def test_works_with_rand_asm(self):
        _, events = _observed(rand_asm, complete_uniform(12, seed=6), 0.4,
                              seed=1)
        assert proposal_round_records(events)

    def test_all_unmatched_summary_has_no_90pct_round(self):
        """Regression: a run whose final matching is empty must report
        ``rounds_to_90pct_matched = None``, not round 1 (0.9 * 0 == 0 is
        trivially reached immediately)."""
        events = EventLog()
        fields = (
            "proposals", "accepts", "rejects", "g0_nodes", "g0_edges",
            "matched_in_m0", "mm_rounds", "max_player_work",
            "matching_size", "good_men", "bad_men",
        )
        for i in range(3):
            events.emit(
                "proposal_round", index=i, **{name: 0 for name in fields}
            )
        summary = convergence_summary(events)
        assert summary["proposal_rounds"] == 3
        assert summary["final_matching_size"] == 0
        assert summary["rounds_to_90pct_matched"] is None
