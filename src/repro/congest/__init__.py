"""CONGEST-model substrate (Section 2.2 of the paper).

A synchronous message-passing simulator in the style formalized by
Peleg: computation proceeds in rounds; in each round every processor
receives the messages its neighbors sent last round, computes locally,
and sends an ``O(log n)``-bit message to each neighbor (possibly a
different message per neighbor).

Node programs are Python generators: each ``inbox = yield outbox``
statement is one synchronous round.  Subprotocols compose with
``yield from``, which is how the ASM protocol nests its
maximal-matching phase.

:mod:`repro.congest.protocols` contains true message-level
implementations of distributed Gale–Shapley, the maximal-matching
algorithms, and ASM itself, cross-validated against the logical engine.
"""

from repro.congest.message import MESSAGE_SCHEMAS, Message, MessageSchema
from repro.congest.recorder import MessageEvent, MessageRecorder
from repro.congest.simulator import SimulationStats, Simulator
from repro.congest.transport import (
    AsyncEventTransport,
    SyncTransport,
    Transport,
)

__all__ = [
    "MESSAGE_SCHEMAS",
    "AsyncEventTransport",
    "Message",
    "MessageEvent",
    "MessageRecorder",
    "MessageSchema",
    "SimulationStats",
    "Simulator",
    "SyncTransport",
    "Transport",
]
