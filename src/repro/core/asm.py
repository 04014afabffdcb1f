"""The ASM almost-stable-matching algorithm (Algorithms 1–3 of the paper).

This module implements the paper's primary contribution as a *logical
engine*: the algorithm runs as centralized code over global state, but
performs only operations the distributed processors could perform, and
maintains exact communication-round accounting (see
:mod:`repro.core.rounds`).  A message-level CONGEST implementation of
the same protocol lives in :mod:`repro.congest.protocols` and is
cross-validated against this engine.

Structure (paper Section 3):

* ``ProposalRound(Q, k, A)`` — Algorithm 1, the five-step
  propose/accept/maximal-match/reject round.
* ``QuantileMatch(Q, k)`` — Algorithm 2, iterates ProposalRound ``k``
  times; afterwards every man's active set ``A`` is empty (Lemma 2).
* ``ASM(P, ε, n)`` — Algorithm 3, the degree-thresholded outer loop
  (men participate in iteration ``i`` only while ``|Q| ≥ 2^i``) around
  an inner loop of ``2δ⁻¹k`` QuantileMatch calls, with ``k = ⌈8/ε⌉``
  and ``δ = ε/8``.

Guarantees reproduced (and checked by the test suite):

* Theorem 3 — the output has at most ``ε·|E|`` blocking pairs.
* Theorem 4 — ``O(ε⁻³ log⁵ n)`` scheduled rounds under the HKP cost
  model.
* Lemma 1 — matched women never become unmatched and only trade up.
* Lemma 2 — ``A = ∅`` for every man after each QuantileMatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import QuantizedList
from repro.core.rounds import (
    CONSTANT_ROUNDS_PER_PROPOSAL_ROUND,
    HKPCost,
    MMCostModel,
    RoundCounter,
)
from repro.errors import InvalidParameterError, SimulationError
from repro.graphs import Graph, is_man_node, man_node, node_index, woman_node
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.oracles import MMOracle, deterministic_oracle
from repro.mm.result import MMResult
from repro.mm.verify import violating_vertices
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "params_for_eps",
    "ProposalRoundStats",
    "OuterIterationStats",
    "MessageStats",
    "ASMResult",
    "ASMObserver",
    "ASMEngine",
    "asm",
]


def params_for_eps(eps: float) -> Tuple[int, float]:
    """The paper's parameter choices: ``k = ⌈8/ε⌉`` and ``δ = ε/8``.

    Theorem 3's accounting: good men contribute at most ``4|E|/k ≤
    ε|E|/2`` blocking pairs (Lemmas 3–4) and bad men at most
    ``4δ|E| = ε|E|/2`` (Lemma 5).

    ``eps`` must satisfy ``0 < eps ≤ 1``: beyond 1 the guarantee is
    vacuous (every matching has ≤ |E| blocking pairs) while the derived
    parameters break the accounting — ``k = ⌈8/ε⌉`` collapses toward 1
    (no quantile structure left for Lemma 3) and ``δ = ε/8`` exceeds
    the 1/8 ceiling Lemma 5's ``4δ|E| ≤ ε|E|/2`` split relies on.
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError(
            f"eps must satisfy 0 < eps <= 1, got {eps}"
        )
    return math.ceil(8.0 / eps), eps / 8.0


@dataclass
class MessageStats:
    """Counts of algorithm-level messages (CONGEST payloads)."""

    proposes: int = 0
    accepts: int = 0
    rejects: int = 0

    @property
    def total(self) -> int:
        """All PROPOSE + ACCEPT + REJECT messages sent."""
        return self.proposes + self.accepts + self.rejects


@dataclass
class ProposalRoundStats:
    """Per-ProposalRound instrumentation."""

    proposals: int
    accepts: int
    rejects: int
    g0_nodes: int
    g0_edges: int
    matched_in_m0: int
    mm_rounds: int
    men_removed: int = 0
    max_player_work: int = 0


@dataclass
class OuterIterationStats:
    """Per-outer-iteration instrumentation (Algorithm 3's ``i`` loop)."""

    index: int
    threshold: int
    participating_men_start: int
    participating_men_end: int
    bad_participating_men_end: int
    bad_in_start_set_end: int
    quantile_match_calls_executed: int
    quantile_match_calls_scheduled: int

    @property
    def bad_fraction_end(self) -> float:
        """Bad men as a fraction of participating men at iteration end."""
        if self.participating_men_end == 0:
            return 0.0
        return self.bad_participating_men_end / self.participating_men_end

    @property
    def lemma6_bad_fraction(self) -> float:
        """Lemma 6's quantity: bad men within the iteration's starting
        active set ``A``, as a fraction of ``|A|`` — bounded by δ after
        the full ``2δ⁻¹k`` inner loop."""
        if self.participating_men_start == 0:
            return 0.0
        return self.bad_in_start_set_end / self.participating_men_start


@dataclass
class ASMResult:
    """Everything ASM (or a variant) produced, plus instrumentation.

    ``good_men`` are men who are matched or have been rejected by every
    acceptable partner at termination; ``bad_men`` are the rest
    (Section 4's ``G`` and ``B``); ``removed_men`` only appears in the
    almost-regular variant (violators of Definition 3 removed from
    play — they are counted separately, not as good or bad).
    """

    matching: Matching
    eps: float
    k: int
    delta: float
    n_men: int
    n_women: int
    num_edges: int
    good_men: FrozenSet[int]
    bad_men: FrozenSet[int]
    removed_men: FrozenSet[int]
    rounds: RoundCounter
    messages: MessageStats
    proposal_rounds_executed: int
    proposal_rounds_scheduled: int
    quantile_match_calls_executed: int
    quantile_match_calls_scheduled: int
    synchronous_time: int = 0
    outer_iterations: List[OuterIterationStats] = field(default_factory=list)

    @property
    def rounds_active(self) -> int:
        """Rounds in which at least one message was exchanged."""
        return self.rounds.rounds_active

    @property
    def rounds_scheduled(self) -> int:
        """Rounds of the paper's fixed worst-case schedule."""
        return self.rounds.rounds_scheduled

    @property
    def good_fraction(self) -> float:
        """Fraction of men that are good at termination."""
        if self.n_men == 0:
            return 1.0
        return len(self.good_men) / self.n_men

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable summary of the run (for the CLI/export)."""
        return {
            "matching": self.matching.to_dict(),
            "eps": self.eps,
            "k": self.k,
            "delta": self.delta,
            "n_men": self.n_men,
            "n_women": self.n_women,
            "num_edges": self.num_edges,
            "good_men": sorted(self.good_men),
            "bad_men": sorted(self.bad_men),
            "removed_men": sorted(self.removed_men),
            "rounds_active": self.rounds_active,
            "rounds_scheduled": self.rounds_scheduled,
            "synchronous_time": self.synchronous_time,
            "proposal_rounds_executed": self.proposal_rounds_executed,
            "proposal_rounds_scheduled": self.proposal_rounds_scheduled,
            "messages": {
                "proposes": self.messages.proposes,
                "accepts": self.messages.accepts,
                "rejects": self.messages.rejects,
            },
        }


class ASMObserver:
    """Hook points for instrumentation; subclass and override as needed.

    The engine calls these synchronously at well-defined protocol
    moments; observers must not mutate engine state.
    """

    def on_proposal_round_end(
        self, engine: "ASMEngine", stats: ProposalRoundStats
    ) -> None:
        """Called after each executed ProposalRound."""

    def on_quantile_match_end(self, engine: "ASMEngine") -> None:
        """Called after each executed QuantileMatch."""

    def on_outer_iteration_end(
        self, engine: "ASMEngine", stats: OuterIterationStats
    ) -> None:
        """Called after each outer-loop iteration of Algorithm 3."""


class ASMEngine:
    """Executable state of one ASM run (see module docstring).

    Parameters
    ----------
    prefs:
        The preference profile (defines the communication graph).
    eps:
        Approximation parameter; the output has ≤ ``eps·|E|`` blocking
        pairs (Theorem 3).
    k, delta:
        Override the paper's defaults ``k = ⌈8/ε⌉``, ``δ = ε/8``
        (used by ablations and the almost-regular variant).
    mm_oracle:
        Maximal-matching subroutine for Step 3 (default: deterministic
        oracle — the paper's choice for ASM).
    mm_cost_model:
        How scheduled rounds charge each oracle call (default:
        :class:`~repro.core.rounds.HKPCost`, the bound of Theorem 2).
    remove_unmatched_violators:
        Almost-regular mode — men violating Definition 3 in ``G₀``
        after an almost-maximal matching are removed from play
        (footnote to Theorem 6).
    check_invariants:
        Enable O(state)-cost internal assertions (Lemmas 1 and 2 and
        proposal-consistency invariants).  Used by the test suite.
    observer:
        Optional :class:`ASMObserver` for instrumentation.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        provided (and enabled), the engine times the propose /
        accept-reject / maximal-matching phases of every executed
        ProposalRound into its metrics registry
        (``asm.phase.propose`` / ``asm.phase.accept_reject`` /
        ``asm.phase.maximal_matching`` histograms).  Defaults to the
        shared no-op bundle, which costs (nearly) nothing.
    optimized:
        Engine selector.  There are two engines, and both produce
        bit-identical :class:`ASMResult` bundles:

        * ``False`` — the pure-Python reference engine.  It is the
          equivalence oracle, and the only engine for RandASM,
          AlmostRegularASM and installs without numpy.
        * ``"vec"`` — the numpy struct-of-arrays engine
          (:mod:`repro.vec`): the profile is compiled to flat CSR /
          quantile arrays and every ProposalRound step runs as batched
          array ops over all active men at once.  Requires numpy
          (``pip install repro[fast]``; raises
          :class:`~repro.errors.VecUnavailableError` without it),
          supports only the deterministic maximal-matching oracle
          (its tie-breaking is compiled in) and not
          ``remove_unmatched_violators``.
        * ``True`` (default) — vec when this call can run on it
          (numpy is importable, ``mm_oracle`` is unset and
          ``remove_unmatched_violators`` is false), else the reference
          engine.

        Observers receive the engine on either path; its mutable state
        differs in form (on vec, ``man_partner`` is an int array with
        ``-1`` = unmatched), so read partners through
        :meth:`man_partners`.  The equivalence suites run both engines
        over the workload grid and assert identical result bundles
        (``tests/test_vec_equivalence.py``).
    """

    def __init__(
        self,
        prefs: PreferenceProfile,
        eps: float,
        *,
        k: Optional[int] = None,
        delta: Optional[float] = None,
        mm_oracle: Optional[MMOracle] = None,
        mm_cost_model: Optional[MMCostModel] = None,
        remove_unmatched_violators: bool = False,
        check_invariants: bool = False,
        observer: Optional[ASMObserver] = None,
        telemetry: Optional[Telemetry] = None,
        optimized: Union[bool, str] = True,
        inner_iterations: Optional[int] = None,
        outer_iterations: Optional[int] = None,
    ) -> None:
        default_k, default_delta = params_for_eps(eps)
        self.prefs = prefs
        self.eps = eps
        self.k = default_k if k is None else k
        self.delta = default_delta if delta is None else delta
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.delta <= 0:
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")
        self.mm_oracle = mm_oracle if mm_oracle is not None else deterministic_oracle()
        self.mm_cost_model = (
            mm_cost_model if mm_cost_model is not None else HKPCost()
        )
        self.remove_unmatched_violators = remove_unmatched_violators
        self.check_invariants = check_invariants
        self.observer = observer
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Schedule overrides (used by ablations and the CONGEST
        # cross-validation, which needs small fixed schedules).
        self._inner_iterations_override = inner_iterations
        self._outer_iterations_override = outer_iterations

        self.n_men = prefs.n_men
        self.n_women = prefs.n_women
        if not isinstance(optimized, bool) and optimized != "vec":
            raise InvalidParameterError(
                "optimized must be True, False, or 'vec', "
                f"got {optimized!r}"
            )
        if optimized is True:
            from repro import vec

            optimized = (
                "vec"
                if vec.HAS_NUMPY
                and mm_oracle is None
                and not remove_unmatched_violators
                else False
            )
        #: The engine this run uses: ``"vec"`` or ``False`` (reference).
        self.optimized = optimized
        if optimized == "vec":
            # Struct-of-arrays backend: compile once (cached on the
            # profile), skip the per-player Python state entirely.
            if remove_unmatched_violators:
                raise InvalidParameterError(
                    "optimized='vec' does not support "
                    "remove_unmatched_violators; use the reference "
                    "engine for the almost-regular variant"
                )
            if self.mm_oracle is not deterministic_maximal_matching:
                raise InvalidParameterError(
                    "optimized='vec' supports only the deterministic "
                    "maximal-matching oracle (its tie-breaking order is "
                    "compiled into the struct-of-arrays form); leave "
                    "mm_oracle unset"
                )
            from repro.vec import require_numpy

            require_numpy()
            from repro.vec.compile import compile_profile
            from repro.vec.engine import VecState

            self._vec: Optional["VecState"] = VecState(
                compile_profile(prefs, self.k), check_invariants
            )
            # Observer-visible aliases of the array state (documented in
            # the class docstring: -1 means unmatched here, not None).
            self.man_partner = self._vec.man_partner
            self.woman_partner = self._vec.woman_partner
        else:
            self._vec = None
            # Quantized preferences (Section 3.1 state).
            self.men_q: List[QuantizedList] = [
                QuantizedList(prefs.man_list(m), self.k)
                for m in range(self.n_men)
            ]
            self.women_q: List[QuantizedList] = [
                QuantizedList(prefs.woman_list(w), self.k)
                for w in range(self.n_women)
            ]
            # Partners p(v); None = unmatched.
            self.man_partner: List[Optional[int]] = [None] * self.n_men
            self.woman_partner: List[Optional[int]] = [None] * self.n_women
            # Active proposal sets A (men only), kept as insertion-ordered
            # dicts built ascending, so A replays in the canonical sorted
            # order however it shrinks (DET001 stays satisfied
            # structurally).
            self.active: List[Dict[int, None]] = [{} for _ in range(self.n_men)]
            # Almost-regular mode: men removed from play.
            self.removed: List[bool] = [False] * self.n_men

        self.counter = RoundCounter()
        self.messages = MessageStats()
        # Remark 4 accounting: sum over executed rounds of the maximum
        # per-processor local work (see ProposalRoundStats.max_player_work).
        self.synchronous_time = 0
        self.proposal_rounds_executed = 0
        self.proposal_rounds_scheduled = 0
        self.quantile_match_calls_executed = 0
        self.quantile_match_calls_scheduled = 0
        self.outer_stats: List[OuterIterationStats] = []

    # ------------------------------------------------------------------
    # Player classification (Section 4)
    # ------------------------------------------------------------------

    def man_partners(self) -> List[Optional[int]]:
        """The man → partner table, ``None`` for unmatched, on both engines."""
        if self._vec is not None:
            return [
                None if w < 0 else w for w in self._vec.man_partner.tolist()
            ]
        return list(self.man_partner)

    def man_is_good(self, m: int) -> bool:
        """Good = matched, or rejected by every acceptable partner."""
        if self._vec is not None:
            return bool(
                self._vec.man_partner[m] != -1
                or self._vec.m_remaining[m] == 0
            )
        return self.man_partner[m] is not None or self.men_q[m].remaining == 0

    def good_men(self) -> FrozenSet[int]:
        """All currently good men (excluding removed men)."""
        if self._vec is not None:
            return self._vec.good_men_set()
        return frozenset(
            m
            for m in range(self.n_men)
            if not self.removed[m] and self.man_is_good(m)
        )

    def bad_men(self) -> FrozenSet[int]:
        """All currently bad men (excluding removed men)."""
        if self._vec is not None:
            return self._vec.bad_men_set()
        return frozenset(
            m
            for m in range(self.n_men)
            if not self.removed[m] and not self.man_is_good(m)
        )

    def removed_men(self) -> FrozenSet[int]:
        """Men removed from play (almost-regular mode only)."""
        if self._vec is not None:
            return frozenset()  # vec mode rejects the almost-regular flag
        return frozenset(m for m in range(self.n_men) if self.removed[m])

    def current_matching(self) -> Matching:
        """The partial matching ``M = {(p(w), w) | p(w) ≠ ∅}``."""
        if self._vec is not None:
            return Matching(self._vec.matching_pairs())
        return Matching(
            (m, w)
            for w, m in enumerate(self.woman_partner)
            if m is not None
        )

    # ------------------------------------------------------------------
    # Algorithm 1: ProposalRound
    # ------------------------------------------------------------------

    def proposal_round(self) -> Optional[ProposalRoundStats]:
        """One ProposalRound; returns ``None`` when no proposals exist.

        A ``None`` return means no messages would flow this round and
        (since active sets only shrink between QuantileMatch calls) no
        state can change — callers charge the scheduled rounds and skip.

        Dispatches to the vec or reference engine per ``optimized``;
        both produce bit-identical state transitions and stats.
        """
        if self._vec is not None:
            return self._proposal_round_vec()
        return self._proposal_round_reference()

    def _proposal_round_vec(self) -> Optional[ProposalRoundStats]:
        """Batched ProposalRound over the struct-of-arrays state.

        The five steps run as whole-array operations in
        :class:`repro.vec.engine.VecState`; this wrapper owns what the
        reference path owns — phase timers, message/round accounting, the
        profiler counter, and the observer hook — so both engines share
        one implementation of the instrumentation contract.
        """
        telemetry = self.telemetry
        vec = self._vec
        with telemetry.timer("asm.phase.propose"):
            step1 = vec.step_propose()
        if step1 is None:
            return None
        n_proposals, max_work = step1
        with telemetry.timer("asm.phase.accept_reject"):
            n_accepts, step_max = vec.step_accept()
            if step_max > max_work:
                max_work = step_max
        with telemetry.timer("asm.phase.maximal_matching"):
            mm_result, g0, mm_work = vec.step_maximal_matching()
            if mm_work > max_work:
                max_work = mm_work
        with telemetry.timer("asm.phase.accept_reject"):
            n_rejects, matched_in_m0, step_max = vec.step_reject()
            if step_max > max_work:
                max_work = step_max
        return self._finalize_round(
            n_proposals,
            n_accepts,
            n_rejects,
            g0,
            mm_result,
            matched_in_m0,
            0,
            max_work,
        )

    def _mm_phase(self, g0: Graph) -> Tuple[MMResult, int, int]:
        """Step 3 of the reference path: maximal matching on ``G₀``.

        Returns ``(mm_result, men_removed, mm_work)`` where ``mm_work``
        is the Remark-4 proxy for the subroutine's per-processor work.
        """
        mm_result: MMResult = self.mm_oracle(g0)
        # Remark 4 proxy for subroutine-local work: each MM round
        # costs a processor at most its G0 degree.
        mm_work = 0
        if g0.num_nodes:
            max_g0_deg = max(g0.degree(v) for v in g0.nodes())
            mm_work = mm_result.rounds * max_g0_deg

        # Almost-regular mode (Theorem 6 footnote): men violating
        # Definition 3 after an almost-maximal matching leave the game.
        men_removed = 0
        if self.remove_unmatched_violators:
            for v in violating_vertices(g0, mm_result.partner):
                if is_man_node(v):
                    mi = node_index(v)
                    if not self.removed[mi]:
                        self.removed[mi] = True
                        self.active[mi] = {}
                        men_removed += 1
        return mm_result, men_removed, mm_work

    def _finalize_round(
        self,
        n_proposals: int,
        n_accepts: int,
        n_rejects: int,
        g0: Graph,
        mm_result: MMResult,
        matched_in_m0: int,
        men_removed: int,
        max_work: int,
    ) -> ProposalRoundStats:
        """Message stats, Remark-4 time, round charges, observer hook."""
        self.messages.proposes += n_proposals
        self.messages.accepts += n_accepts
        self.messages.rejects += n_rejects
        self.synchronous_time += CONSTANT_ROUNDS_PER_PROPOSAL_ROUND + max_work
        stats = ProposalRoundStats(
            proposals=n_proposals,
            accepts=n_accepts,
            rejects=n_rejects,
            g0_nodes=g0.num_nodes,
            g0_edges=g0.num_edges,
            matched_in_m0=matched_in_m0,
            mm_rounds=mm_result.rounds,
            men_removed=men_removed,
            max_player_work=max_work,
        )
        self._charge_executed(mm_result)
        profiler = self.telemetry.profiler
        if profiler is not None:
            profiler.count(
                "asm.proposal_round",
                proposals=n_proposals,
                accepts=n_accepts,
                rejects=n_rejects,
                g0_edges=g0.num_edges,
                mm_rounds=mm_result.rounds,
                matched=matched_in_m0,
            )
        if self.observer is not None:
            self.observer.on_proposal_round_end(self, stats)
        return stats

    def _proposal_round_reference(self) -> Optional[ProposalRoundStats]:
        """The seed implementation: per-round dict rebuilds throughout.

        Kept verbatim (modulo the active-set container change) as the
        equivalence oracle for the vec engine.
        """
        telemetry = self.telemetry
        # Step 1: men propose to every woman in A.
        with telemetry.timer("asm.phase.propose"):
            proposals: Dict[int, List[int]] = {}
            n_proposals = 0
            max_work = 0  # Remark 4: max per-processor work this round
            for m in range(self.n_men):
                if self.removed[m] or not self.active[m]:
                    continue
                # Canonical (sorted) proposal order: the run must replay
                # identically regardless of how A was assembled (DET001).
                for w in sorted(self.active[m]):
                    proposals.setdefault(w, []).append(m)
                n_proposals += len(self.active[m])
                max_work = max(max_work, len(self.active[m]))
        if not proposals:
            return None

        # Step 2: each woman accepts her best proposing quantile.
        with telemetry.timer("asm.phase.accept_reject"):
            g0 = Graph()
            n_accepts = 0
            for w, suitors in proposals.items():
                max_work = max(max_work, len(suitors))
                wq = self.women_q[w]
                if self.check_invariants:
                    for m in suitors:
                        if not wq.contains(m):
                            raise SimulationError(
                                f"man {m} proposed to woman {w} after "
                                f"removal from her list"
                            )
                best = wq.best_nonempty_among(suitors)
                if best is None:
                    raise SimulationError(
                        f"woman {w} received proposals only from removed men"
                    )
                for m in suitors:
                    if wq.contains(m) and wq.quantile_of(m) == best:
                        g0.add_edge(man_node(m), woman_node(w))
                        n_accepts += 1

        with telemetry.timer("asm.phase.maximal_matching"):
            # Step 3: maximal matching on the accepted-proposal graph G0.
            mm_result, men_removed, mm_work = self._mm_phase(g0)
            max_work = max(max_work, mm_work)

        with telemetry.timer("asm.phase.accept_reject"):
            # Step 4: newly matched women reject all weakly-worse suitors.
            rejections: Dict[int, List[int]] = {}
            n_rejects = 0
            matched_pairs: List[Tuple[int, int]] = []
            for u, v in mm_result.pairs():
                m0, w = (
                    (node_index(u), node_index(v))
                    if is_man_node(u)
                    else (node_index(v), node_index(u))
                )
                matched_pairs.append((m0, w))
            for m0, w in matched_pairs:
                wq = self.women_q[w]
                q0 = wq.quantile_of(m0)
                rejected = wq.members_at_least(q0) - {m0}
                max_work = max(max_work, len(rejected))
                old = self.woman_partner[w]
                if (
                    self.check_invariants
                    and old is not None
                    and old not in rejected
                ):
                    raise SimulationError(
                        f"woman {w} traded up to man {m0} but did not "
                        f"reject previous partner {old}"
                    )
                # Sorted so the rejections dict has canonical insertion
                # order no matter how the quantile sets hash (DET001).
                for m in sorted(rejected):
                    wq.remove(m)
                    rejections.setdefault(m, []).append(w)
                n_rejects += len(rejected)
                self.woman_partner[w] = m0
                self.man_partner[m0] = w
                self.active[m0] = {}

            # Step 5: men process rejections.
            for m, rejecting in rejections.items():
                mq = self.men_q[m]
                for w in rejecting:
                    mq.remove(w)
                    self.active[m].pop(w, None)
                    if self.man_partner[m] == w:
                        self.man_partner[m] = None

        return self._finalize_round(
            n_proposals,
            n_accepts,
            n_rejects,
            g0,
            mm_result,
            len(matched_pairs),
            men_removed,
            max_work,
        )

    def _charge_executed(self, mm_result: MMResult) -> None:
        """Round accounting for one executed ProposalRound."""
        self.proposal_rounds_executed += 1
        self.proposal_rounds_scheduled += 1
        self.counter.charge_active(
            CONSTANT_ROUNDS_PER_PROPOSAL_ROUND, "proposal_round"
        )
        self.counter.charge_active(mm_result.rounds, "maximal_matching")
        self.counter.charge_scheduled(
            CONSTANT_ROUNDS_PER_PROPOSAL_ROUND, "proposal_round"
        )
        self.counter.charge_scheduled(
            self.mm_cost_model.charge(
                self.prefs.n_players, mm_result
            ),
            "maximal_matching",
        )

    def _charge_skipped_proposal_rounds(self, count: int) -> None:
        """Scheduled-only accounting for message-free ProposalRounds."""
        if count <= 0:
            return
        self.proposal_rounds_scheduled += count
        self.counter.charge_scheduled(
            count * CONSTANT_ROUNDS_PER_PROPOSAL_ROUND, "proposal_round"
        )
        self.counter.charge_scheduled(
            count * self.mm_cost_model.charge(self.prefs.n_players, None),
            "maximal_matching",
        )

    # ------------------------------------------------------------------
    # Algorithm 2: QuantileMatch
    # ------------------------------------------------------------------

    def quantile_match(self, participating: Sequence[int]) -> bool:
        """One QuantileMatch over ``participating`` men.

        Unmatched participating men activate their best nonempty
        quantile, then ProposalRound runs ``k`` times (stopping early —
        with scheduled rounds still charged — once no proposals remain).
        Returns whether any communication happened.

        In vec mode ``participating`` may also be a boolean mask over
        men (the outer loop's native form); integer sequences are
        accepted on every path.
        """
        if self._vec is not None:
            mask = self._vec.as_mask(participating)
            count = int(mask.sum())
            profiler = self.telemetry.profiler
            if profiler is not None:
                with profiler.phase(
                    "asm.quantile_match", participating=count
                ):
                    return self._quantile_match_vec(mask)
            return self._quantile_match_vec(mask)
        profiler = self.telemetry.profiler
        if profiler is not None:
            with profiler.phase(
                "asm.quantile_match", participating=len(participating)
            ):
                return self._quantile_match_impl(participating)
        return self._quantile_match_impl(participating)

    def _quantile_match_vec(self, part_mask: object) -> bool:
        """Vec-mode QuantileMatch body (activation + ``k`` rounds)."""
        vec = self._vec
        vec.activate(part_mask)
        self.quantile_match_calls_executed += 1
        self.quantile_match_calls_scheduled += 1
        any_communication = False
        for j in range(self.k):
            stats = self.proposal_round()
            if stats is None:
                self._charge_skipped_proposal_rounds(self.k - j)
                break
            any_communication = True
        if self.check_invariants and not vec.lemma2_holds():
            raise SimulationError(
                "Lemma 2 violated: some man has A ≠ ∅ after QuantileMatch"
            )
        if self.observer is not None:
            self.observer.on_quantile_match_end(self)
        return any_communication

    def _quantile_match_impl(self, participating: Sequence[int]) -> bool:
        for m in participating:
            if self.removed[m] or self.man_partner[m] is not None:
                continue
            best = self.men_q[m].best_nonempty_quantile()
            if best is not None:
                self.active[m] = dict.fromkeys(
                    self.men_q[m].members_of_sorted(best)
                )
            else:
                self.active[m] = {}
        self.quantile_match_calls_executed += 1
        self.quantile_match_calls_scheduled += 1
        any_communication = False
        for j in range(self.k):
            stats = self.proposal_round()
            if stats is None:
                self._charge_skipped_proposal_rounds(self.k - j)
                break
            any_communication = True
        if self.check_invariants:
            for m in range(self.n_men):
                if self.active[m]:
                    raise SimulationError(
                        f"Lemma 2 violated: man {m} has A ≠ ∅ after "
                        f"QuantileMatch"
                    )
        if self.observer is not None:
            self.observer.on_quantile_match_end(self)
        return any_communication

    def _charge_skipped_quantile_matches(self, count: int) -> None:
        """Scheduled-only accounting for entire no-op QuantileMatch calls."""
        if count <= 0:
            return
        self.quantile_match_calls_scheduled += count
        self._charge_skipped_proposal_rounds(count * self.k)

    # ------------------------------------------------------------------
    # Algorithm 3: ASM outer structure
    # ------------------------------------------------------------------

    def outer_iteration_count(self) -> int:
        """Number of outer-loop iterations: ``i = 0 .. ⌈log₂ n⌉``."""
        if self._outer_iterations_override is not None:
            return self._outer_iterations_override
        n = max(2, self.n_men, self.n_women)
        return math.ceil(math.log2(n)) + 1

    def inner_iteration_count(self) -> int:
        """Inner-loop length ``⌈2δ⁻¹k⌉`` (Algorithm 3)."""
        if self._inner_iterations_override is not None:
            return self._inner_iterations_override
        return math.ceil(2.0 * self.k / self.delta)

    def _participating(self, threshold: int) -> List[int]:
        """Men active in this outer iteration: ``|Q| ≥ 2^i``, not removed."""
        return [
            m
            for m in range(self.n_men)
            if not self.removed[m] and self.men_q[m].remaining >= threshold
        ]

    def _needs_run(self, participating: Sequence[int]) -> bool:
        """Whether any participating man would actually propose."""
        return any(
            self.man_partner[m] is None and self.men_q[m].remaining > 0
            for m in participating
        )

    def run_outer_iteration(self, i: int) -> OuterIterationStats:
        """One iteration of Algorithm 3's outer loop (threshold ``2^i``)."""
        profiler = self.telemetry.profiler
        if profiler is not None:
            # The iteration index is implicit in call order; passing it
            # as a count would pollute the deterministic counters.
            with profiler.phase("asm.outer_iteration"):
                return self._run_outer_iteration_impl(i)
        return self._run_outer_iteration_impl(i)

    def _run_outer_iteration_impl(self, i: int) -> OuterIterationStats:
        if self._vec is not None:
            return self._run_outer_iteration_vec(i)
        threshold = 2 ** i
        inner = self.inner_iteration_count()
        participating_start = self._participating(threshold)
        executed = 0
        for j in range(inner):
            participating = self._participating(threshold)
            if not self._needs_run(participating):
                # No proposals can occur: the state is frozen for the
                # rest of the inner loop; charge the fixed schedule.
                self._charge_skipped_quantile_matches(inner - j)
                break
            self.quantile_match(participating)
            executed += 1
        participating_end = self._participating(threshold)
        stats = OuterIterationStats(
            index=i,
            threshold=threshold,
            participating_men_start=len(participating_start),
            participating_men_end=len(participating_end),
            bad_participating_men_end=sum(
                1 for m in participating_end if not self.man_is_good(m)
            ),
            bad_in_start_set_end=sum(
                1 for m in participating_start if not self.man_is_good(m)
            ),
            quantile_match_calls_executed=executed,
            quantile_match_calls_scheduled=inner,
        )
        self.outer_stats.append(stats)
        if self.observer is not None:
            self.observer.on_outer_iteration_end(self, stats)
        return stats

    def _run_outer_iteration_vec(self, i: int) -> OuterIterationStats:
        """Vec-mode outer iteration: O(n) array scans replace the
        per-man Python loops of the generic implementation (which would
        dominate the run at n >= 10^5)."""
        vec = self._vec
        threshold = 2 ** i
        inner = self.inner_iteration_count()
        start_mask = vec.participating_mask(threshold)
        executed = 0
        for j in range(inner):
            part = vec.participating_mask(threshold)
            if not vec.needs_run(part):
                self._charge_skipped_quantile_matches(inner - j)
                break
            self.quantile_match(part)
            executed += 1
        end_mask = vec.participating_mask(threshold)
        bad = vec.bad_mask()
        stats = OuterIterationStats(
            index=i,
            threshold=threshold,
            participating_men_start=int(start_mask.sum()),
            participating_men_end=int(end_mask.sum()),
            bad_participating_men_end=int((end_mask & bad).sum()),
            bad_in_start_set_end=int((start_mask & bad).sum()),
            quantile_match_calls_executed=executed,
            quantile_match_calls_scheduled=inner,
        )
        self.outer_stats.append(stats)
        if self.observer is not None:
            self.observer.on_outer_iteration_end(self, stats)
        return stats

    def run(self) -> ASMResult:
        """Execute ASM to completion and return the result bundle."""
        for i in range(self.outer_iteration_count()):
            self.run_outer_iteration(i)
        return self._result()

    def run_flat(self, iterations: int) -> ASMResult:
        """Iterate QuantileMatch ``iterations`` times with *all* men.

        This is the structure of ``AlmostRegularASM`` (Theorem 6): no
        degree-threshold outer loop — by almost-regularity, bounding the
        *number* of bad men suffices, so ``O(αε⁻²)`` QuantileMatch
        iterations with everyone participating do the job.
        """
        if iterations < 1:
            raise InvalidParameterError(
                f"iterations must be >= 1, got {iterations}"
            )
        executed = 0
        if self._vec is not None:
            vec = self._vec
            all_mask = vec.participating_mask(0)  # every man participates
            for j in range(iterations):
                if not vec.needs_run(all_mask):
                    self._charge_skipped_quantile_matches(iterations - j)
                    break
                self.quantile_match(all_mask)
                executed += 1
        else:
            for j in range(iterations):
                participating = [
                    m for m in range(self.n_men) if not self.removed[m]
                ]
                if not self._needs_run(participating):
                    self._charge_skipped_quantile_matches(iterations - j)
                    break
                self.quantile_match(participating)
                executed += 1
        self.outer_stats.append(
            OuterIterationStats(
                index=0,
                threshold=1,
                participating_men_start=self.n_men,
                participating_men_end=self.n_men - len(self.removed_men()),
                bad_participating_men_end=len(self.bad_men()),
                bad_in_start_set_end=len(self.bad_men()),
                quantile_match_calls_executed=executed,
                quantile_match_calls_scheduled=iterations,
            )
        )
        return self._result()

    def _result(self) -> ASMResult:
        return ASMResult(
            matching=self.current_matching(),
            eps=self.eps,
            k=self.k,
            delta=self.delta,
            n_men=self.n_men,
            n_women=self.n_women,
            num_edges=self.prefs.num_edges,
            good_men=self.good_men(),
            bad_men=self.bad_men(),
            removed_men=self.removed_men(),
            rounds=self.counter,
            messages=self.messages,
            proposal_rounds_executed=self.proposal_rounds_executed,
            proposal_rounds_scheduled=self.proposal_rounds_scheduled,
            quantile_match_calls_executed=self.quantile_match_calls_executed,
            quantile_match_calls_scheduled=self.quantile_match_calls_scheduled,
            synchronous_time=self.synchronous_time,
            outer_iterations=list(self.outer_stats),
        )


def asm(
    prefs: PreferenceProfile,
    eps: float,
    *,
    k: Optional[int] = None,
    delta: Optional[float] = None,
    mm_oracle: Optional[MMOracle] = None,
    mm_cost_model: Optional[MMCostModel] = None,
    check_invariants: bool = False,
    observer: Optional[ASMObserver] = None,
    telemetry: Optional[Telemetry] = None,
    optimized: Union[bool, str] = True,
) -> ASMResult:
    """Run deterministic ``ASM(P, ε, n)`` (Theorem 1 / Theorem 3).

    Returns an :class:`ASMResult` whose matching has at most ``ε·|E|``
    blocking pairs.  ``rounds_scheduled`` (under the default HKP cost
    model) follows the ``O(ε⁻³ log⁵ n)`` bound of Theorem 4;
    ``rounds_active`` reports the rounds in which messages actually
    flowed.

    Examples
    --------
    >>> from repro.workloads.generators import complete_uniform
    >>> from repro.analysis.stability import instability
    >>> prefs = complete_uniform(16, seed=1)
    >>> result = asm(prefs, eps=0.25)
    >>> instability(prefs, result.matching) <= 0.25
    True
    """
    engine = ASMEngine(
        prefs,
        eps,
        k=k,
        delta=delta,
        mm_oracle=mm_oracle,
        mm_cost_model=mm_cost_model,
        check_invariants=check_invariants,
        observer=observer,
        telemetry=telemetry,
        optimized=optimized,
    )
    return engine.run()
