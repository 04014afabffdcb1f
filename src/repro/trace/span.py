"""Causal span tracing for CONGEST simulations.

Every message the simulator validates gets a deterministic **trace
id**: a SHA-256 chain (same :func:`~repro.parallel.spec.derive_seed`
discipline as the parallel and fault layers) over the id of its causal
parent — the last message its *sender* received before sending — plus
the message's own coordinates ``(round, sender, recipient, kind)``.
Walking ``parent`` links therefore reconstructs the exact
propose/accept/reject chain that produced any final state, which is
the object the paper's trajectory claims (Theorem 3's ε-bound emerges
from those chains) are about.

A :class:`CausalTracer` records four kinds of flat, timestamp-free
dicts — byte-identical across runs, worker counts, and processes:

``message``
    One validated send: id, parent id, round, link, kind, and its
    ``fate`` (``delivered`` / ``deferred`` / ``dropped``) — what
    became of the copy sent in its round.  Fault injections
    (:mod:`repro.faults`) annotate the record with the latest ``fault``
    action that touched it — the span that killed a chain — and, when
    more than one did, with ``faults``, the list of all of them.
``redelivery``
    A deferred (delayed/duplicated) message landing in a later round.
``crash`` / ``down`` / ``restart``
    A node-level fault event, so chains ending at a dead node are
    explainable.
``round_span`` / ``node_span``
    Per-round and per-node-per-round activity spans the simulator
    closes at the end of every round that carried traffic.
``span``
    An explicitly opened span (:meth:`CausalTracer.open_span` /
    :meth:`CausalTracer.close_span`, or the :meth:`CausalTracer.span`
    context manager) — protocol drivers wrap whole runs in one.  Lint
    rule TEL004 flags ``open_span`` calls without a matching
    ``close_span`` in the same function.

The tracer is **disabled by absence**: components reach it via
``telemetry.tracer`` and skip every hook when it is ``None``, so
untraced runs pay nothing (the ``test_obs_overhead`` guard covers the
engine path).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.parallel.spec import _canonical

__all__ = ["derive_trace_id", "CausalTracer", "ROOT_PARENT"]

#: Parent id used for chain roots (messages sent before receiving any).
ROOT_PARENT = "root"

#: Hex digits kept per trace id; 64 bits of SHA-256 — collisions across
#: one run's message set are negligible and ids stay grep-friendly.
_ID_HEX = 16

#: Fault actions that terminate a message's delivery (mirror of
#: ``repro.faults.injector._DROP_ACTIONS``, inlined to keep this module
#: import-light; the cross-check test pins the two sets equal).
DROP_ACTIONS = frozenset(
    {
        "drop",
        "drop_partition",
        "drop_crashed",
        "drop_late",
        "omit_send",
        "omit_recv",
    }
)


def derive_trace_id(parent: str, *components: Any) -> str:
    """A stable 16-hex-digit trace id from a parent id and coordinates.

    Same discipline as :func:`repro.parallel.spec.derive_seed`: SHA-256
    over the canonical text of the inputs, so the id is a pure function
    of the causal history — independent of worker identity, wall time,
    and ``PYTHONHASHSEED``.

    >>> derive_trace_id("root", 1, "('M', 0)", "('W', 1)", "PROPOSE") \
        == derive_trace_id("root", 1, "('M', 0)", "('W', 1)", "PROPOSE")
    True
    >>> derive_trace_id("root", 1) == derive_trace_id("root", 2)
    False
    """
    text = "|".join([parent] + [_canonical(c) for c in components])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_ID_HEX]


def _annotate(record: Dict[str, Any], action: str) -> None:
    """Add one fault ``action`` to a message record.

    ``fault`` always names the latest action.  A message touched more
    than once (delayed and duplicated, or deferred and then dropped
    late) also carries ``faults``: every action, in order.
    """
    previous = record.get("fault")
    if previous is not None:
        record["faults"] = record.get("faults", [previous]) + [action]
    record["fault"] = action


class CausalTracer:
    """Deterministic causal trace of one simulated run.

    The simulator drives the ``on_*`` hooks; protocols and harnesses
    use the span API.  All records are flat JSON-safe dicts with no
    timestamps — see the module docstring for the schema.
    """

    def __init__(self) -> None:
        #: Flat record list, in deterministic emission order.
        self.records: List[Dict[str, Any]] = []
        self._by_id: Dict[str, Dict[str, Any]] = {}
        # Causal head per node (repr string): id of the last message
        # delivered to it.  Head updates are buffered per round and
        # applied at end_round(), so a round-r delivery can only parent
        # round-r+1 sends — matching the simulator's yield semantics.
        self._heads: Dict[str, str] = {}
        self._pending_heads: List[Tuple[str, str]] = []
        # Deferred (delayed/duplicated) message ids awaiting delivery,
        # FIFO per (delivery round, from, to, kind).  Within one key the
        # injector's fate decision is per-recipient-per-round, so FIFO
        # order can never mis-assign ids.
        self._deferred: Dict[Tuple[int, str, str, str], List[str]] = {}
        # Per-round activity counters for node spans.
        self._sent: Dict[str, int] = {}
        self._received: Dict[str, int] = {}
        self._span_count = 0
        self._open_spans: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Message hooks (driven by the simulator)
    # ------------------------------------------------------------------

    def on_send(
        self, round_index: int, sender: Any, recipient: Any, kind: str
    ) -> str:
        """Record one validated send; returns its trace id."""
        s, r = repr(sender), repr(recipient)
        parent = self._heads.get(s, "")
        tid = derive_trace_id(parent or ROOT_PARENT, round_index, s, r, kind)
        record: Dict[str, Any] = {
            "type": "message",
            "round": round_index,
            "id": tid,
            "parent": parent,
            "from": s,
            "to": r,
            "kind": kind,
            "fate": "delivered",
        }
        self.records.append(record)
        self._by_id[tid] = record
        self._sent[s] = self._sent.get(s, 0) + 1
        return tid

    def on_fault(self, tid: str, fault_record: Dict[str, Any]) -> None:
        """Annotate message ``tid`` with one injector trace record.

        ``fault_record`` is a :attr:`repro.faults.injector.
        FaultInjector.records` entry produced while deciding this
        message's fate (the simulator slices the injector trace around
        ``filter_send``).
        """
        record = self._by_id.get(tid)
        if record is None:
            return
        action = fault_record["action"]
        _annotate(record, action)
        if action in DROP_ACTIONS:
            record["fate"] = "dropped"
        elif action in ("delay", "duplicate"):
            # A duplicate's original copy still lands now (fate stays
            # as it was); the extra copy lands later.
            if action == "delay":
                record["fate"] = "deferred"
            until = fault_record["until"]
            record["until"] = until
            self._defer(until, record, tid)

    def _defer(self, until: int, record: Dict[str, Any], tid: str) -> None:
        key = (until, record["from"], record["to"], record["kind"])
        self._deferred.setdefault(key, []).append(tid)

    def on_delivered(self, recipient: Any, tid: str) -> None:
        """Queue a same-round delivery's causal-head update."""
        r = repr(recipient)
        self._pending_heads.append((r, tid))
        self._received[r] = self._received.get(r, 0) + 1

    def on_deferred_delivery(
        self, round_index: int, sender_repr: str, to_repr: str, kind: str
    ) -> Optional[str]:
        """Record a delayed/duplicated message landing this round."""
        key = (round_index, sender_repr, to_repr, kind)
        queue = self._deferred.get(key)
        if not queue:
            return None
        tid = queue.pop(0)
        self.records.append(
            {
                "type": "redelivery",
                "round": round_index,
                "id": tid,
                "to": to_repr,
            }
        )
        self._pending_heads.append((to_repr, tid))
        self._received[to_repr] = self._received.get(to_repr, 0) + 1
        return tid

    def on_deferred_drop(
        self, round_index: int, sender_repr: str, to_repr: str, kind: str
    ) -> Optional[str]:
        """Record a deferred message dropped at its delivery round."""
        key = (round_index, sender_repr, to_repr, kind)
        queue = self._deferred.get(key)
        if not queue:
            return None
        tid = queue.pop(0)
        record = self._by_id.get(tid)
        if record is not None:
            _annotate(record, "drop_late")
            # Only a copy held back at send time makes the message lost;
            # a duplicate's lost copy leaves the delivered original.
            if record["fate"] == "deferred":
                record["fate"] = "dropped"
        return tid

    # ------------------------------------------------------------------
    # Transport hooks (non-synchronous transports; docs/transport.md)
    # ------------------------------------------------------------------

    def on_transport_defer(
        self, tid: str, until: int, latency: int
    ) -> None:
        """Mark message ``tid`` as in flight until round ``until``.

        Driven by latency-bearing transports; the message record keeps
        fate ``deferred`` (the injector-delay vocabulary) plus the
        drawn ``latency``, and a ``redelivery`` record lands when the
        transport deposits it.
        """
        record = self._by_id.get(tid)
        if record is None:
            return
        record["fate"] = "deferred"
        record["until"] = until
        record["latency"] = latency

    def on_transport_delivery(
        self, round_index: int, tid: Optional[str], to_repr: str
    ) -> None:
        """Record a transport-deferred message landing this round.

        Advances the recipient's causal head exactly like an injector
        redelivery: the head update is buffered and applied at
        ``end_round``, so a round-``r`` arrival parents round-``r+1``
        sends.
        """
        if tid is None:
            return
        self.records.append(
            {
                "type": "redelivery",
                "round": round_index,
                "id": tid,
                "to": to_repr,
                "via": "transport",
            }
        )
        self._pending_heads.append((to_repr, tid))
        self._received[to_repr] = self._received.get(to_repr, 0) + 1

    def on_transport_drop(
        self, round_index: int, tid: Optional[str]
    ) -> None:
        """Record an in-flight message lost to a dead recipient."""
        if tid is None:
            return
        record = self._by_id.get(tid)
        if record is not None:
            record["fate"] = "dropped"
            _annotate(record, "drop_late")

    def on_node_fault(self, record: Dict[str, Any]) -> None:
        """Record a node-level injector event (crash/down/restart)."""
        entry = {"type": record["action"], "round": record["round"],
                 "node": record["node"]}
        if "until" in record:
            entry["until"] = record["until"]
        self.records.append(entry)

    def end_round(self, round_index: int) -> None:
        """Close the round: apply head updates, emit activity spans."""
        for node, tid in self._pending_heads:
            self._heads[node] = tid
        self._pending_heads.clear()
        if not self._sent and not self._received:
            return
        sent_total = sum(self._sent.values())
        delivered_total = sum(self._received.values())
        self.records.append(
            {
                "type": "round_span",
                "round": round_index,
                "sent": sent_total,
                "delivered": delivered_total,
            }
        )
        touched = sorted(set(self._sent) | set(self._received))
        for node in touched:
            self.records.append(
                {
                    "type": "node_span",
                    "round": round_index,
                    "node": node,
                    "sent": self._sent.get(node, 0),
                    "recv": self._received.get(node, 0),
                    "head": self._heads.get(node, ""),
                }
            )
        self._sent.clear()
        self._received.clear()

    # ------------------------------------------------------------------
    # Explicit spans (protocol drivers, harnesses)
    # ------------------------------------------------------------------

    def open_span(self, name: str, **attrs: Any) -> str:
        """Open a named span; returns its id (close with close_span)."""
        self._span_count += 1
        sid = derive_trace_id("span", name, self._span_count)
        record: Dict[str, Any] = {
            "type": "span",
            "id": sid,
            "name": name,
            "closed": False,
        }
        record.update(attrs)
        self.records.append(record)
        self._open_spans[sid] = record
        return sid

    def close_span(self, sid: str, **attrs: Any) -> None:
        """Close a span opened with :meth:`open_span`."""
        record = self._open_spans.pop(sid, None)
        if record is None:
            return
        record.update(attrs)
        record["closed"] = True

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """Context manager opening/closing a span around a block."""
        return _SpanContext(self, name, attrs)

    def open_spans(self) -> List[str]:
        """Names of spans currently open (should be empty after a run)."""
        return [record["name"] for record in self._open_spans.values()]

    # ------------------------------------------------------------------
    # Introspection / serialization
    # ------------------------------------------------------------------

    def head_of(self, node: Any) -> str:
        """The causal head (last delivered message id) of ``node``."""
        return self._heads.get(repr(node), "")

    def message(self, tid: str) -> Optional[Dict[str, Any]]:
        """The message record with trace id ``tid``, if any."""
        return self._by_id.get(tid)

    def to_records(self) -> List[Dict[str, Any]]:
        """The trace as a fresh list of fresh dicts (JSON-safe)."""
        return [dict(record) for record in self.records]

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, Any]]
    ) -> "CausalTracer":
        """Rebuild a tracer's record state from :meth:`to_records`."""
        tracer = cls()
        for record in records:
            entry = dict(record)
            tracer.records.append(entry)
            if entry.get("type") == "message":
                tracer._by_id[entry["id"]] = entry
        return tracer

    def merge(
        self, other_records: Iterable[Dict[str, Any]], **tags: Any
    ) -> None:
        """Append another trace's records, stamping ``tags`` onto each.

        Merge order is the caller's responsibility; the parallel layer
        merges in trial-spec order so the result is identical for any
        worker count (see ``docs/parallel.md``).
        """
        for record in other_records:
            entry = dict(record)
            entry.update(tags)
            self.records.append(entry)
            if entry.get("type") == "message":
                self._by_id.setdefault(entry["id"], entry)

    def __len__(self) -> int:
        return len(self.records)


class _SpanContext:
    """``with tracer.span(...)`` — balanced open/close in one place."""

    __slots__ = ("_tracer", "_name", "_attrs", "_sid")

    def __init__(
        self, tracer: CausalTracer, name: str, attrs: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._sid = ""

    def __enter__(self) -> "_SpanContext":
        # The matching close_span lives in __exit__ — this class IS the
        # blessed balanced pairing.
        sid = self._tracer.open_span(  # lint: ignore[TEL004]
            self._name, **self._attrs
        )
        self._sid = sid
        return self

    @property
    def sid(self) -> str:
        return self._sid

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._tracer.close_span(self._sid)
