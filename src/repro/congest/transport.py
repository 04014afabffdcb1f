"""Pluggable message transports for the CONGEST simulator.

The simulator owns *computation* — advancing node programs in
lockstep — and delegates *delivery* to a :class:`Transport`: given one
round's validated outboxes, the transport decides **when** each
message lands in its recipient's inbox.  Every yield is one round (a
program asleep in ``yield Idle(n)`` still spends ``n`` of them, and
its mail is deposited and recycled unread), so a transport changes
message timing, never the round structure.

Two implementations:

:class:`SyncTransport`
    Today's canonical-order lockstep delivery — every message lands in
    the round it was sent.  This class *is* the delivery loop that
    used to live inline in ``Simulator.step``; runs through it are
    bit-identical to the pre-refactor simulator (matchings, telemetry
    counters, causal trace ids, fault traces), which the equivalence
    suite pins.
:class:`AsyncEventTransport`
    Event-driven delivery with seeded per-link latency
    (:mod:`repro.workloads.latency`).  A message drawn latency ``L``
    lands at the start of *virtual round* ``send_round + L`` — rounds
    remain the clock, so Theorem-3 ε accounting, trace spans, and the
    profiler keep their meaning.  Event order is deterministic: the
    queue is keyed ``(delivery round, send sequence)`` where the
    sequence number follows the canonical send order, so the same run
    replays byte-identically everywhere.  With zero latency every
    event takes the synchronous fast path and the transport is
    bit-identical to :class:`SyncTransport`.

Determinism contract (``docs/transport.md``): a run is a pure function
of ``(programs, plan, transport kind, latency model, link_seed)``.
Per-round delivery order is: injector-deferred messages (delay /
duplicate faults) first, then transport-deferred messages, then fresh
sends in canonical node order — each group internally deterministic,
and a fresh send overwrites a stale copy from the same sender
(last-write-wins, exactly like the lockstep loop).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.graphs import NodeId
from repro.workloads.latency import ZERO_LATENCY

__all__ = [
    "Transport",
    "SyncTransport",
    "AsyncEventTransport",
]


class Transport:
    """Delivery policy for one simulator run.

    The base class implements the full synchronous delivery loop
    (moved verbatim from ``Simulator.step``); subclasses override the
    two hooks — :meth:`_route` for fresh sends and :meth:`_flush_due`
    for transport-deferred events — and inherit everything else:
    validation, canonical ordering, fault filtering, causal tracing,
    and stats accounting.

    A transport instance is bound to exactly one simulator
    (:meth:`bind`); it is a friend of the :class:`~repro.congest.
    simulator.Simulator` and reaches into its inbox pools and stats.
    """

    kind = "sync"

    def __init__(self) -> None:
        self._sim: Optional[Any] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, sim: Any) -> None:
        """Attach to the simulator that will drive :meth:`deliver_round`."""
        if self._sim is not None and self._sim is not sim:
            raise SimulationError(
                f"{type(self).__name__} is already bound to a simulator; "
                f"create one transport per run"
            )
        self._sim = sim

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def reorders(self) -> bool:
        """Whether delivery can cross round boundaries.

        Protocol drivers consult this to decide between strict and
        tolerant result assembly, exactly as they do for fault plans.
        """
        return False

    def in_flight(self) -> int:
        """Messages accepted for delivery but not yet deposited."""
        return 0

    def describe(self) -> Dict[str, Any]:
        """JSON-safe description (manifest provenance)."""
        return {"kind": self.kind}

    # ------------------------------------------------------------------
    # The delivery loop (one call per simulated round)
    # ------------------------------------------------------------------

    def deliver_round(
        self,
        executing_round: int,
        outboxes: Dict[NodeId, Dict[NodeId, Any]],
        kind_counts: Optional[Dict[str, int]] = None,
    ) -> Tuple[int, int]:
        """Deliver one round's traffic; returns ``(messages, bits)``.

        ``messages``/``bits`` count *fresh sends* at send time (after
        validation), matching the pre-transport stats contract: fault
        injection and latency never change them for the same protocol
        evolution.  ``kind_counts``, when given, accumulates per-kind
        send counts (the simulator passes a dict only when telemetry
        or profiling is on).
        """
        sim = self._sim
        if sim is None:
            raise SimulationError("transport used before bind()")
        injector = sim.faults
        tracer = sim.telemetry.tracer
        if injector is not None:
            # Deferred (delayed/duplicated) messages land first, so a
            # fresh message from the same sender overwrites a stale
            # copy — deterministic last-write-wins, like the lockstep
            # delivery below.  Already counted at send time.
            fault_mark = len(injector.records)
            for sender, recipient, msg in injector.due(
                executing_round, sim.crashed
            ):
                sim._deposit(sender, recipient, msg)
                if tracer is not None:
                    tracer.on_deferred_delivery(
                        executing_round, repr(sender), repr(recipient),
                        msg.kind,
                    )
            if tracer is not None:
                # due() recorded a drop_late for every deferred message
                # it swallowed; retire their trace ids in the same order.
                for record in injector.records[fault_mark:]:
                    if record["action"] == "drop_late":
                        tracer.on_deferred_drop(
                            record["round"], record["from"], record["to"],
                            record["message"],
                        )
        self._flush_due(executing_round)
        # Deliver each outbox in node-registration order, not dict
        # insertion order: programs that broadcast from a set (e.g. the
        # pointer-MM MM_TAKEN fan-out) would otherwise send in an order
        # that varies with hash randomization, which breaks the
        # byte-stable trace guarantee across worker processes.
        node_order = sim._order
        round_messages = 0
        round_bits = 0
        stats = sim.stats
        for sender, outbox in outboxes.items():
            for recipient in sorted(outbox, key=node_order.__getitem__):
                msg = outbox[recipient]
                bits = sim._validate(executing_round, sender, recipient, msg)
                tid = (
                    tracer.on_send(
                        executing_round, sender, recipient, msg.kind
                    )
                    if tracer is not None
                    else None
                )
                if injector is None:
                    delivered = True
                elif tid is None:
                    delivered = injector.filter_send(
                        executing_round, sender, recipient, msg, sim.crashed
                    )
                else:
                    # Slice the injector trace around the decision so
                    # the faults that touched this message annotate its
                    # span.
                    fault_mark = len(injector.records)
                    delivered = injector.filter_send(
                        executing_round, sender, recipient, msg, sim.crashed
                    )
                    for record in injector.records[fault_mark:]:
                        tracer.on_fault(tid, record)
                if delivered:
                    self._route(executing_round, sender, recipient, msg, tid)
                round_messages += 1
                stats.messages += 1
                stats.total_bits += bits
                stats.max_message_bits = max(stats.max_message_bits, bits)
                if kind_counts is not None:
                    round_bits += bits
                    kind_counts[msg.kind] = kind_counts.get(msg.kind, 0) + 1
        return round_messages, round_bits

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _flush_due(self, executing_round: int) -> None:
        """Deposit transport-deferred messages due this round (no-op)."""

    def _route(
        self,
        executing_round: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Any,
        tid: Optional[str],
    ) -> None:
        """Accept one fresh send the injector let through.

        The synchronous policy: deposit immediately, close the causal
        edge in the same round.
        """
        sim = self._sim
        sim._deposit(sender, recipient, msg)
        if tid is not None:
            sim.telemetry.tracer.on_delivered(recipient, tid)


class SyncTransport(Transport):
    """Lockstep delivery: every message lands in its send round."""


class AsyncEventTransport(Transport):
    """Event-driven delivery with seeded per-link latency.

    Parameters
    ----------
    latency:
        A latency model from :mod:`repro.workloads.latency`
        (default :data:`~repro.workloads.latency.ZERO_LATENCY`, which
        makes this transport bit-identical to :class:`SyncTransport`).
    link_seed:
        Root seed of the latency draws; together with the model it
        fully determines the delivery schedule.
    """

    kind = "async"

    def __init__(self, latency: Any = ZERO_LATENCY, *, link_seed: int = 0):
        super().__init__()
        self.latency = latency
        self.link_seed = link_seed
        # Event queue: (delivery round, send seq, sender, recipient,
        # msg, trace id).  The sequence number is assigned in canonical
        # send order, so heap order — and therefore deposit order — is
        # a pure function of the run, never of heap internals.
        self._events: List[Tuple[int, int, Any, Any, Any, Optional[str]]] = []
        self._seq = 0
        #: Messages that took the deferred path (latency > 0).
        self.deferred = 0
        #: Deferred messages that landed.
        self.delivered_late = 0
        #: Deferred messages dropped because their recipient crashed
        #: or went down before the delivery round.
        self.dropped_late = 0
        #: Draw histogram {latency: count}, nonzero draws only.
        self.latency_counts: Dict[int, int] = {}

    @property
    def reorders(self) -> bool:
        return self.latency.bound() > 0

    def in_flight(self) -> int:
        return len(self._events)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "latency": self.latency.to_dict(),
            "link_seed": self.link_seed,
        }

    def _route(
        self,
        executing_round: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Any,
        tid: Optional[str],
    ) -> None:
        lat = self.latency.draw(
            self.link_seed, executing_round, repr(sender), repr(recipient)
        )
        if lat <= 0:
            # Synchronous fast path: byte-identical to SyncTransport,
            # including the causal-head update timing.
            super()._route(executing_round, sender, recipient, msg, tid)
            return
        sim = self._sim
        self._seq += 1
        until = executing_round + lat
        heapq.heappush(
            self._events, (until, self._seq, sender, recipient, msg, tid)
        )
        self.deferred += 1
        self.latency_counts[lat] = self.latency_counts.get(lat, 0) + 1
        if tid is not None:
            sim.telemetry.tracer.on_transport_defer(tid, until, lat)
        if sim.telemetry.enabled:
            # Guarded on nonzero latency by construction, so a
            # zero-latency async run leaves telemetry untouched.
            metrics = sim.telemetry.metrics
            metrics.inc("congest.transport_deferred")
            metrics.observe("congest.transport_latency", lat)

    def _flush_due(self, executing_round: int) -> None:
        sim = self._sim
        events = self._events
        injector = sim.faults
        tracer = sim.telemetry.tracer
        while events and events[0][0] <= executing_round:
            _until, _seq, sender, recipient, msg, tid = heapq.heappop(events)
            if recipient in sim.crashed or (
                injector is not None
                and injector.is_down(recipient, executing_round)
            ):
                # Same semantics as the injector's drop_late: a message
                # in flight to a dead node is lost.
                self.dropped_late += 1
                if tracer is not None:
                    tracer.on_transport_drop(executing_round, tid)
                continue
            sim._deposit(sender, recipient, msg)
            self.delivered_late += 1
            if tracer is not None:
                tracer.on_transport_delivery(
                    executing_round, tid, repr(recipient)
                )
