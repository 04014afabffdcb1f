"""ε-stability SLO monitor: trajectory tracking, violation events,
and the satisfied/deadline semantics."""

from __future__ import annotations

import json

import pytest

from repro.core.asm import asm
from repro.errors import InvalidParameterError
from repro.obs.events import EventLog
from repro.trace.slo import SLOMonitor, StabilitySLO
from repro.workloads.generators import complete_uniform


def _run(n=12, eps=0.25, seed=0, **monitor_kwargs):
    prefs = complete_uniform(n, seed=seed)
    slo = monitor_kwargs.pop("slo", StabilitySLO(eps))
    monitor = SLOMonitor(prefs, slo, **monitor_kwargs)
    result = asm(prefs, eps, observer=monitor)
    return prefs, result, monitor


class TestStabilitySLO:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            StabilitySLO(1.5)
        with pytest.raises(InvalidParameterError):
            StabilitySLO(-0.1)
        with pytest.raises(InvalidParameterError):
            StabilitySLO(0.2, deadline_rounds=-1)

    def test_in_effect(self):
        assert not StabilitySLO(0.2).in_effect(100)
        slo = StabilitySLO(0.2, deadline_rounds=3)
        assert not slo.in_effect(3)
        assert slo.in_effect(4)

    def test_monitor_rejects_bad_cadence(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            SLOMonitor(prefs, StabilitySLO(0.2), sample_every=0)


class TestSLOMonitor:
    def test_trajectory_is_recorded(self):
        _, _, monitor = _run()
        assert monitor.trajectory
        rounds = [r for r, _, _ in monitor.trajectory]
        assert rounds == sorted(rounds)
        assert all(0.0 <= eps <= 1.0 for _, eps, _ in monitor.trajectory)

    def test_final_matching_meets_target(self):
        # Complete uniform instances converge to eps-stability, so the
        # no-deadline SLO must be satisfied.
        _, _, monitor = _run()
        assert monitor.satisfied
        assert monitor.final_eps is not None
        assert monitor.final_eps <= 0.25
        assert not monitor.violations

    def test_strict_deadline_catches_violations(self):
        _, _, monitor = _run(
            slo=StabilitySLO(0.001, deadline_rounds=0)
        )
        # With the bound binding from round 1, early rounds (almost
        # empty matchings) must breach it.
        assert monitor.violations
        assert not monitor.satisfied
        violation = monitor.violations[0]
        assert violation["eps"] > violation["target_eps"]

    def test_events_emitted(self):
        events = EventLog(enabled=True)
        _, _, monitor = _run(
            slo=StabilitySLO(0.001, deadline_rounds=0), events=events
        )
        kinds = [e.kind for e in events.events]
        assert "slo_sample" in kinds
        assert "slo_violation" in kinds
        sample = next(e for e in events.events if e.kind == "slo_sample")
        assert sample.fields["binding"] is True

    def test_sample_every_thins_samples(self):
        events_all = EventLog(enabled=True)
        _, _, monitor_all = _run(events=events_all)
        events_thin = EventLog(enabled=True)
        _, _, monitor_thin = _run(events=events_thin, sample_every=3)
        n_all = sum(
            1 for e in events_all.events if e.kind == "slo_sample"
        )
        n_thin = sum(
            1 for e in events_thin.events if e.kind == "slo_sample"
        )
        assert n_all == len(monitor_all.trajectory)
        assert n_thin == len(monitor_thin.trajectory) // 3

    def test_vacuous_without_observation(self):
        prefs = complete_uniform(4, seed=0)
        monitor = SLOMonitor(prefs, StabilitySLO(0.2))
        assert monitor.final_eps is None
        assert monitor.satisfied

    def test_report_is_json_safe(self):
        _, _, monitor = _run()
        report = monitor.report()
        json.dumps(report)
        assert report["satisfied"] is True
        assert report["rounds_observed"] == len(report["trajectory"])
        assert report["worst_eps"] >= report["final_eps"]
        for entry, (r, eps, blocking) in zip(
            report["trajectory"], monitor.trajectory
        ):
            assert entry == {
                "round": r, "eps": eps, "blocking_pairs": blocking
            }

    def test_deterministic(self):
        _, _, a = _run()
        _, _, b = _run()
        assert a.trajectory == b.trajectory


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
