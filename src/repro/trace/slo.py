"""ε-stability SLO monitor.

Theorem 3 is a trajectory claim: after the ASM loop's rounds the
matching is ε-stable.  The monitor makes that claim operational — you
declare a :class:`StabilitySLO` (target ε, optionally a round deadline
by which it must hold) and attach an :class:`SLOMonitor` as an ASM
observer.  After every ProposalRound it measures
ε(round) = blocking_pairs / |E| with an incrementally maintained
:class:`~repro.perf.blocking_index.BlockingPairIndex` (O(n + deg·Δ)
per round, not a full edge scan), records the trajectory, and emits
``slo_sample`` / ``slo_violation`` events into the run's
:class:`~repro.obs.events.EventLog` when one is supplied.

This is the ROADMAP's dynamic-engine groundwork: a dynamic engine
re-stabilizing after preference churn needs exactly this signal —
"ε climbed above target at round r, recovered at round r'".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.asm import ASMEngine, ASMObserver, ProposalRoundStats
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError
from repro.perf.blocking_index import BlockingPairIndex

__all__ = ["StabilitySLO", "SLOMonitor"]


@dataclass(frozen=True)
class StabilitySLO:
    """A declared stability objective.

    Parameters
    ----------
    target_eps:
        The instability bound: blocking_pairs / |E| must not exceed
        this.
    deadline_rounds:
        ProposalRound count after which the bound must hold.  ``None``
        means the bound applies only to the final matching; ``0``
        means it must hold from the first round.
    """

    target_eps: float
    deadline_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_eps <= 1.0:
            raise InvalidParameterError(
                f"target_eps must be in [0, 1], got {self.target_eps}"
            )
        if self.deadline_rounds is not None and self.deadline_rounds < 0:
            raise InvalidParameterError(
                f"deadline_rounds must be >= 0, got {self.deadline_rounds}"
            )

    def in_effect(self, rounds_done: int) -> bool:
        """Whether the bound is binding after ``rounds_done`` rounds."""
        return (
            self.deadline_rounds is not None
            and rounds_done > self.deadline_rounds
        )


class SLOMonitor(ASMObserver):
    """ASM observer tracking ε(round) against a :class:`StabilitySLO`.

    Attributes
    ----------
    trajectory:
        ``(round, eps, blocking_pairs)`` after each ProposalRound, in
        order.
    violations:
        One dict per round where the SLO was binding and breached:
        ``{"round", "eps", "target_eps", "blocking_pairs"}``.

    Parameters
    ----------
    prefs:
        The instance being solved (fixes |E| and the rank tables).
    slo:
        The objective to check.
    events:
        Optional :class:`~repro.obs.events.EventLog`; violations are
        emitted as ``slo_violation`` events, and every
        ``sample_every``-th round as ``slo_sample``.
    sample_every:
        Cadence of ``slo_sample`` events (1 = every round).
    """

    def __init__(
        self,
        prefs: PreferenceProfile,
        slo: StabilitySLO,
        *,
        events: Optional[Any] = None,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise InvalidParameterError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.slo = slo
        self.index = BlockingPairIndex(prefs)
        self.trajectory: List[Tuple[int, float, int]] = []
        self.violations: List[Dict[str, Any]] = []
        self._events = events
        self._sample_every = sample_every
        self._rounds = 0
        self._num_edges = prefs.num_edges

    # -- observer hooks ------------------------------------------------

    def on_proposal_round_end(
        self, engine: ASMEngine, stats: ProposalRoundStats
    ) -> None:
        self._rounds += 1
        self.index.update_from_partner_lists(engine.man_partners())
        blocking = len(self.index)
        eps = blocking / self._num_edges if self._num_edges else 0.0
        self.trajectory.append((self._rounds, eps, blocking))
        binding = self.slo.in_effect(self._rounds)
        if self._events is not None and (
            self._rounds % self._sample_every == 0
        ):
            self._events.emit(
                "slo_sample",
                round=self._rounds,
                eps=eps,
                blocking_pairs=blocking,
                target_eps=self.slo.target_eps,
                binding=binding,
            )
        if binding and eps > self.slo.target_eps:
            violation = {
                "round": self._rounds,
                "eps": eps,
                "target_eps": self.slo.target_eps,
                "blocking_pairs": blocking,
            }
            self.violations.append(violation)
            if self._events is not None:
                self._events.emit("slo_violation", **violation)

    # -- reporting -----------------------------------------------------

    @property
    def final_eps(self) -> Optional[float]:
        """ε after the last observed round (``None`` before any)."""
        if not self.trajectory:
            return None
        return self.trajectory[-1][1]

    @property
    def satisfied(self) -> bool:
        """Whether the SLO held.

        With a deadline: no binding round breached the target.
        Without one: the final observed ε meets the target (vacuously
        true when nothing was observed).
        """
        if self.slo.deadline_rounds is not None:
            return not self.violations
        final = self.final_eps
        return final is None or final <= self.slo.target_eps

    def report(self) -> Dict[str, Any]:
        """JSON-shaped summary of the trajectory and verdict."""
        worst = max((eps for _, eps, _ in self.trajectory), default=0.0)
        return {
            "target_eps": self.slo.target_eps,
            "deadline_rounds": self.slo.deadline_rounds,
            "rounds_observed": self._rounds,
            "final_eps": self.final_eps,
            "worst_eps": worst,
            "violations": list(self.violations),
            "satisfied": self.satisfied,
            "trajectory": [
                {"round": r, "eps": eps, "blocking_pairs": blocking}
                for r, eps, blocking in self.trajectory
            ],
        }
