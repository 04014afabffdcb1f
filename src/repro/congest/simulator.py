"""The synchronous CONGEST round simulator.

Drives a set of node *programs* — generators whose every
``inbox = yield outbox`` statement is one synchronous communication
round.  The simulator:

* advances all programs in lockstep,
* validates that every message targets a neighbor and respects the
  configured bit cap (:class:`~repro.errors.ProtocolViolationError`
  otherwise),
* delivers each round's messages as ``{sender: Message}`` dicts,
* collects per-run statistics (rounds, messages, bits), and
* captures each program's return value as the node's local output.

Round semantics: the outbox a program yields in round ``t`` is
delivered at the *same* yield's return — i.e. ``inbox = yield outbox``
sends ``outbox`` and then receives everything the neighbors sent in
that round.  A program that needs to "think" without sending yields an
empty dict.

Sleeping: a program may ``yield Idle(n)`` (``n`` an int ``>= 1``)
instead of an outbox.  Yielded in round ``t``, it stands for ``n``
consecutive ``yield {}`` whose inboxes the program ignores: the
simulator does not resume the node until round ``t + n``, and the
value sent in then (that round's inbox) is ignored too.  Messages
addressed to a sleeper take the normal path — validation, faults,
transport, deposit, tracer — and are recycled unread.  A
program may sleep **only** where its code provably ignores every inbox
for those rounds under *any* transport and fault plan; otherwise a late
or duplicated message would be lost and the run would diverge from
lockstep.  Sleeping never changes a run's output, stats, or traces —
only how much work the simulator does: a round costs
``O(awake + woken)`` nodes, and a fault-free run with nothing awake
and nothing in flight jumps straight to the next wake-up, doing the
bookkeeping of each skipped empty round.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional, Tuple, Union

from repro.congest.message import Message
from repro.congest.transport import SyncTransport, Transport
from repro.errors import (
    InvalidParameterError,
    ProtocolViolationError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphs import Graph, NodeId
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["Idle", "NodeProgram", "SimulationStats", "Simulator"]


@dataclass(frozen=True)
class Idle:
    """Yielded instead of an outbox: sleep for ``rounds`` rounds.

    Equivalent to ``rounds`` consecutive ``yield {}`` whose inboxes
    the program ignores (see the module docstring for the contract).
    The simulator checks ``rounds`` is an int ``>= 1``.
    """

    rounds: int


# A node program yields {neighbor: Message} (or Idle) and receives
# {sender: Message}.
NodeProgram = Generator[
    Union[Dict[NodeId, Message], Idle], Dict[NodeId, Message], Any
]


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulation run.

    ``messages``/``total_bits``/``messages_per_round`` count messages
    at *send* time (after validation), so fault injection — which may
    drop or defer a sent message — never changes them for the same
    protocol evolution.  ``outcome`` distinguishes how the run ended:
    ``"converged"`` (every program returned), ``"degraded"`` (every
    surviving program returned but nodes crashed), or ``"timeout"``
    (the ``max_rounds`` cap elapsed with programs still running).
    """

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    messages_per_round: List[int] = field(default_factory=list)
    outcome: str = "running"
    crashed_nodes: int = 0
    unfinished_nodes: int = 0


class Simulator:
    """Runs node programs over a communication graph in lockstep.

    Parameters
    ----------
    graph:
        The communication graph; every program's node id must be a node.
    programs:
        ``{node_id: generator}`` — one program per node.  Nodes of the
        graph without a program are passive (never send; messages to
        them are silently delivered nowhere) — by default every node
        must have a program.
    max_message_bits:
        Per-message bit cap (default ``8·(⌈log₂ n⌉ + 1) + TAG_BITS``-ish
        via ``bit_cap_factor``); violations raise
        :class:`ProtocolViolationError`.
    bit_cap_factor:
        The ``O(·)`` constant of the ``O(log n)`` cap: messages may use
        at most ``bit_cap_factor · (⌈log₂ n⌉ + 1)`` bits.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        enabled, every round is timed (``congest.round_seconds``
        histogram), message/bit totals accumulate as counters, and the
        event log receives one ``congest_round`` record per round plus
        a ``message_batch`` record (per-kind counts) for every round
        that carried messages.  A bundle carrying a
        :class:`~repro.trace.span.CausalTracer` gets every validated
        send recorded with a causal trace id (fault fates included;
        :meth:`~repro.trace.analysis.CausalTrace.delivered` lists what
        reached each inbox), and one carrying a
        :class:`~repro.trace.profiler.PhaseProfiler` gets a
        ``congest.round`` wall/ops record per round; both hooks are
        skipped entirely when absent.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; when given, a
        :class:`~repro.faults.injector.FaultInjector` mediates every
        delivery (drop/duplicate/delay/partition) and applies node
        crashes at round starts.  A plan with zero rates and no
        crashes leaves the run bit-identical to ``faults=None``.
    transport:
        Optional :class:`~repro.congest.transport.Transport` governing
        *when* sent messages land in inboxes (default
        :class:`~repro.congest.transport.SyncTransport`, the lockstep
        semantics above).  See ``docs/transport.md``.
    """

    def __init__(
        self,
        graph: Graph,
        programs: Mapping[NodeId, NodeProgram],
        *,
        bit_cap_factor: int = 8,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultPlan] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.graph = graph
        for v in programs:
            if not graph.has_node(v):
                raise SimulationError(f"program for unknown node {v!r}")
        missing = [v for v in graph.nodes() if v not in programs]
        if missing:
            raise SimulationError(
                f"{len(missing)} node(s) have no program, e.g. {missing[0]!r}"
            )
        self.programs: Dict[NodeId, NodeProgram] = dict(programs)
        self.n = graph.num_nodes
        log_n = max(1, math.ceil(math.log2(max(2, self.n)))) + 1
        self.max_message_bits = bit_cap_factor * log_n
        self.stats = SimulationStats()
        self.results: Dict[NodeId, Any] = {}
        # Persistent per-node inbox pools: one dict per node for the
        # whole run, cleared lazily (only nodes that received messages
        # last round) instead of rebuilding {v: {}} every round.  An
        # inbox dict is therefore only valid until the receiving
        # program's next ``yield`` — programs must consume it before
        # yielding again, which the round semantics already imply.
        self._inboxes: Dict[NodeId, Dict[NodeId, Message]] = {
            v: {} for v in self.programs
        }
        self._touched_inboxes: List[NodeId] = []
        # Deterministic scheduling order, precomputed once: step() used
        # to re-sort the live set by repr every round.
        self._order: Dict[NodeId, int] = {
            v: i for i, v in enumerate(sorted(self.programs, key=repr))
        }
        self._started_map: Dict[NodeId, bool] = {}
        # Nodes to resume next round, in canonical order, and sleepers
        # keyed (wake round, canonical index, node): the unique index
        # breaks ties, so node ids are never compared.
        self._awake: List[NodeId] = list(self._order)
        self._sleepers: List[Tuple[int, int, NodeId]] = []
        # Optional telemetry bundle (see repro.obs): per-round timings
        # and message counts flow into its registry and event log.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Optional fault injection (see repro.faults): crashes close
        # programs, and every delivery is routed through the injector.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(faults, telemetry=self.telemetry)
            if faults is not None
            else None
        )
        # Crashed nodes in crash order (node -> round it crashed in).
        # An insertion-ordered dict, not a set: membership and len are
        # what the hot path needs, and anything that iterates it (crash
        # reports, result assembly) sees a deterministic order instead
        # of a PYTHONHASHSEED-dependent one — the bug shape the lint
        # FLOW rules exist to catch.
        self.crashed: Dict[NodeId, int] = {}
        # Delivery policy; the default is the lockstep semantics this
        # module documents.  bind() makes the transport a friend of
        # this simulator for the duration of the run.
        self.transport: Transport = (
            transport if transport is not None else SyncTransport()
        )
        self.transport.bind(self)

    @property
    def finished(self) -> bool:
        """Whether every surviving program has returned."""
        return len(self.results) + len(self.crashed) == len(self.programs)

    def _advance(
        self, v: NodeId
    ) -> Optional[Union[Dict[NodeId, Message], Idle]]:
        """Advance one program a single round; capture its return value."""
        gen = self.programs[v]
        try:
            if not self._started_map.get(v, False):
                self._started_map[v] = True
                return next(gen)
            return gen.send(self._inboxes[v])
        except StopIteration as stop:
            self.results[v] = stop.value
            # The program may have returned (a structure holding) its
            # final inbox dict; detach it from the pool so recycling
            # never mutates a captured result.
            self._inboxes[v] = {}
            return None

    def _deposit(
        self, sender: NodeId, recipient: NodeId, msg: Message
    ) -> None:
        """Place one message in the recipient's inbox."""
        inboxes = self._inboxes
        if recipient in inboxes:
            box = inboxes[recipient]
            if not box:
                self._touched_inboxes.append(recipient)
            box[sender] = msg

    def _validate(
        self,
        executing_round: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Message,
    ) -> int:
        """Check one outgoing message; returns its size in bits.

        Raises :class:`ProtocolViolationError` on a non-Message
        payload, a non-neighbor recipient, or a bit-cap violation —
        the three CONGEST-model invariants, each pointing at the
        static rule that would have caught it pre-run.
        """
        if not isinstance(msg, Message):
            raise ProtocolViolationError(
                f"round {executing_round}: node {sender!r} sent a "
                f"non-Message object ({type(msg).__name__}) to "
                f"{recipient!r} [static check: repro.lint rule "
                f"MSG001; see docs/static_analysis.md]"
            )
        if not self.graph.has_edge(sender, recipient):
            raise ProtocolViolationError(
                f"round {executing_round}: node {sender!r} sent a "
                f"message to non-neighbor {recipient!r} — CONGEST "
                f"locality violation [static check: repro.lint rule "
                f"CONGEST002; see docs/static_analysis.md]"
            )
        bits = msg.size_bits(self.n)
        if bits > self.max_message_bits:
            raise ProtocolViolationError(
                f"round {executing_round}: message {msg.kind!r} "
                f"from {sender!r} to {recipient!r} uses {bits} "
                f"bits; cap is {self.max_message_bits} (O(log n)) "
                f"[static check: repro.lint rule MSG002/MSG003 "
                f"bounds payloads against MESSAGE_SCHEMAS; see "
                f"docs/static_analysis.md]"
            )
        return bits

    def _sleep(self, v: NodeId, idle: Idle, executing_round: int) -> None:
        """Park ``v`` until round ``executing_round + idle.rounds``."""
        n = idle.rounds
        if type(n) is not int or n < 1:
            raise ProtocolViolationError(
                f"round {executing_round}: node {v!r} yielded "
                f"Idle({n!r}); the sleep length must be an int >= 1"
            )
        heapq.heappush(
            self._sleepers, (executing_round + n, self._order[v], v)
        )

    def step(self) -> bool:
        """Execute one synchronous round; returns False once all done."""
        injector = self.faults
        telemetry = self.telemetry
        tracer = telemetry.tracer
        # 1-based index of the round being executed, used so runtime
        # diagnostics can name where the protocol went wrong and point
        # at the static rule that would have caught it pre-run.
        executing_round = self.stats.rounds + 1
        awake = self._awake
        if injector is not None:
            # Permanent crashes take effect at the start of the round:
            # the node's program is closed before it can send.
            fault_mark = len(injector.records)
            for v in injector.begin_round(executing_round):
                if (
                    v in self.programs
                    and v not in self.results
                    and v not in self.crashed
                ):
                    self.programs[v].close()
                    self.crashed[v] = executing_round
                    # Detach the inbox so nothing queued there leaks
                    # into a captured result.
                    self._inboxes[v] = {}
                    if v in awake:
                        awake.remove(v)
            if tracer is not None:
                for record in injector.records[fault_mark:]:
                    tracer.on_node_fault(record)
        if self.finished:
            return False
        sleepers = self._sleepers
        if sleepers and sleepers[0][0] <= executing_round:
            crashed = self.crashed
            while sleepers and sleepers[0][0] <= executing_round:
                v = heapq.heappop(sleepers)[2]
                if v not in crashed:
                    awake.append(v)
            awake.sort(key=self._order.__getitem__)
        observing = telemetry.enabled
        profiling = telemetry.profiler is not None
        t0 = time.perf_counter() if (observing or profiling) else 0.0
        outboxes: Dict[NodeId, Dict[NodeId, Message]] = {}
        next_awake: List[NodeId] = []
        for v in awake:
            out = self._advance(v)
            if out is None:
                # Returned, or yielded None (no outbox, stays awake).
                if v not in self.results:
                    next_awake.append(v)
            elif type(out) is Idle:
                self._sleep(v, out, executing_round)
            else:
                outboxes[v] = out
                next_awake.append(v)
        self._awake = next_awake
        self._recycle_inboxes()
        # Delivery is the transport's job (docs/transport.md): injector
        # deferrals land first, then transport deferrals, then fresh
        # sends in canonical node order.
        kind_counts: Optional[Dict[str, int]] = (
            {} if (observing or profiling) else None
        )
        round_messages, round_bits = self.transport.deliver_round(
            executing_round, outboxes, kind_counts
        )
        self._end_round(executing_round, t0, round_messages, round_bits)
        if kind_counts and observing:
            telemetry.events.emit(
                "message_batch",
                round=self.stats.rounds,
                kinds=kind_counts,
            )
        return not self.finished

    def _recycle_inboxes(self) -> None:
        """Clear the inbox pools that received messages last round.

        Called once every program due this round has advanced past the
        yield that received them; a sleeper's unread mail goes too.
        """
        inboxes = self._inboxes
        for v in self._touched_inboxes:
            inboxes[v].clear()
        self._touched_inboxes.clear()

    def _end_round(
        self, executing_round: int, t0: float, messages: int, bits: int
    ) -> None:
        """Round bookkeeping: stats, tracer, profiler and telemetry."""
        telemetry = self.telemetry
        tracer = telemetry.tracer
        profiler = telemetry.profiler
        self.stats.rounds += 1
        self.stats.messages_per_round.append(messages)
        if tracer is not None:
            tracer.end_round(executing_round)
        if profiler is not None:
            profiler.record(
                "congest.round",
                time.perf_counter() - t0,
                messages=messages,
                bits=bits,
            )
        if telemetry.enabled:
            elapsed = time.perf_counter() - t0
            metrics = telemetry.metrics
            metrics.inc("congest.rounds")
            metrics.inc("congest.messages", messages)
            metrics.inc("congest.bits", bits)
            metrics.observe("congest.round_seconds", elapsed)
            metrics.observe("congest.messages_per_round", messages)
            telemetry.events.emit(
                "congest_round",
                round=self.stats.rounds,
                messages=messages,
                bits=bits,
                seconds=round(elapsed, 9),
            )

    def _skip_idle_rounds(self, max_rounds: Optional[int]) -> None:
        """Jump over rounds in which no node would be resumed.

        Only taken when nothing can happen in those rounds: no node is
        awake, no fault plan can crash a node or release a deferred
        message, and the transport holds nothing in flight.  Each
        skipped round gets exactly the bookkeeping of an empty
        :meth:`step`; the jump stops before the first wake-up and
        never passes ``max_rounds``.
        """
        if (
            self._awake
            or not self._sleepers
            or self.faults is not None
            or self.transport.in_flight()
        ):
            return
        last = self._sleepers[0][0] - 1
        if max_rounds is not None:
            last = min(last, max_rounds)
        if last <= self.stats.rounds:
            return
        self._recycle_inboxes()
        telemetry = self.telemetry
        timed = telemetry.enabled or telemetry.profiler is not None
        for executing_round in range(self.stats.rounds + 1, last + 1):
            t0 = time.perf_counter() if timed else 0.0
            self._end_round(executing_round, t0, 0, 0)

    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        on_timeout: str = "raise",
    ) -> SimulationStats:
        """Run rounds until every surviving program returns.

        The returned stats carry a distinct ``outcome``: hitting the
        ``max_rounds`` cap records ``"timeout"`` (previously
        indistinguishable from convergence in the stats), a clean
        finish records ``"converged"``, and a finish with crashed
        nodes records ``"degraded"``.

        Parameters
        ----------
        max_rounds:
            Round cap; ``None`` runs to completion.
        on_timeout:
            ``"raise"`` (default) raises :class:`SimulationError` when
            the cap elapses with programs still running; ``"stop"``
            returns the stats instead (``outcome == "timeout"``), for
            drivers that degrade gracefully under fault injection.

        Raises
        ------
        SimulationError
            If ``max_rounds`` elapses with programs still running and
            ``on_timeout == "raise"``.
        """
        if on_timeout not in ("raise", "stop"):
            raise InvalidParameterError(
                f"on_timeout must be 'raise' or 'stop', got {on_timeout!r}"
            )
        tracer = self.telemetry.tracer
        sid = (
            tracer.open_span("congest.run", max_rounds=max_rounds)
            if tracer is not None
            else None
        )
        try:
            while self.step():
                self._skip_idle_rounds(max_rounds)
                if max_rounds is not None and self.stats.rounds >= max_rounds:
                    unfinished = [
                        v
                        for v in self.programs
                        if v not in self.results and v not in self.crashed
                    ]
                    if unfinished:
                        self.stats.outcome = "timeout"
                        self.stats.unfinished_nodes = len(unfinished)
                        self.stats.crashed_nodes = len(self.crashed)
                        if on_timeout == "raise":
                            raise SimulationError(
                                f"{len(unfinished)} program(s) still "
                                f"running after {max_rounds} rounds, e.g. "
                                f"{unfinished[0]!r}"
                            )
                        return self.stats
            self.stats.outcome = "degraded" if self.crashed else "converged"
            self.stats.crashed_nodes = len(self.crashed)
            return self.stats
        finally:
            if sid is not None:
                tracer.close_span(
                    sid,
                    outcome=self.stats.outcome,
                    rounds=self.stats.rounds,
                    messages=self.stats.messages,
                )
