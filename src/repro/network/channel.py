"""In-process two-party channel with per-direction byte accounting.

The functional protocols exchange Python objects through a :class:`Channel`;
every send is charged a serialized size so that, after a protocol run, the
per-phase upload/download volumes can be compared against the paper's
communication numbers and fed to the TDD bandwidth model. Three phases:
``setup`` (what a connection pays once, such as the base OTs of its label
OTs), ``offline`` and ``online`` (what every request pays).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.telemetry import METRICS

CLIENT = "client"
SERVER = "server"
PHASES = ("setup", "offline", "online")


def wire_size(payload, field_bytes: int = 6) -> int:
    """Approximate serialized size of a protocol message in bytes.

    Integers are charged as field elements (default 6 bytes ≈ 41-bit
    DELPHI prime rounded up), bytes at face value, containers recursively.
    """
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return field_bytes
    if isinstance(payload, (list, tuple)):
        return sum(wire_size(item, field_bytes) for item in payload)
    if isinstance(payload, dict):
        return sum(
            wire_size(k, field_bytes) + wire_size(v, field_bytes)
            for k, v in payload.items()
        )
    size = getattr(payload, "byte_size", None)
    if size is None:
        size = getattr(payload, "size_bytes", None)
    if size is None:
        raise TypeError(f"cannot size payload of type {type(payload).__name__}")
    return size


@dataclass
class DirectionStats:
    messages: int = 0
    bytes: int = 0


class Channel:
    """FIFO duplex channel between a client and a server."""

    def __init__(self, field_bytes: int = 6):
        self._queues = {CLIENT: deque(), SERVER: deque()}  # keyed by receiver
        self._field_bytes = field_bytes
        self.uplink = DirectionStats()  # client -> server
        self.downlink = DirectionStats()  # server -> client
        self._phase = "offline"
        self.phase_stats: dict[str, dict[str, DirectionStats]] = {
            phase: {"up": DirectionStats(), "down": DirectionStats()}
            for phase in PHASES
        }

    def set_phase(self, phase: str) -> None:
        if phase not in self.phase_stats:
            raise ValueError(f"unknown phase {phase!r}")
        self._phase = phase

    def send(self, sender: str, payload, nbytes: int | None = None) -> int:
        """Enqueue ``payload`` for the peer; returns the charged byte size."""
        size = wire_size(payload, self._field_bytes) if nbytes is None else nbytes
        self.book(self._phase, sender, size)
        self._queues[SERVER if sender == CLIENT else CLIENT].append(payload)
        return size

    def book(self, phase: str, sender: str, nbytes: int) -> None:
        """Charge one ``nbytes`` message from ``sender`` to ``phase``.

        What :meth:`send` charges, without a payload and to any phase: the
        setup a connection pays once, inside whichever phase first needs it.
        """
        if sender not in (CLIENT, SERVER):
            raise ValueError(f"unknown sender {sender!r}")
        stats = self.uplink if sender == CLIENT else self.downlink
        stats.messages += 1
        stats.bytes += nbytes
        direction = "up" if sender == CLIENT else "down"
        phase_stats = self.phase_stats[phase][direction]
        phase_stats.messages += 1
        phase_stats.bytes += nbytes
        if METRICS.enabled:
            METRICS.counter(
                "channel_messages_total", phase=phase, dir=direction
            ).inc()
            METRICS.counter(
                "channel_bytes_total", phase=phase, dir=direction
            ).inc(nbytes)

    def recv(self, receiver: str):
        """Dequeue the next payload addressed to ``receiver``."""
        queue = self._queues[receiver]
        if not queue:
            raise RuntimeError(f"{receiver} tried to receive but queue is empty")
        return queue.popleft()

    @property
    def total_bytes(self) -> int:
        return self.uplink.bytes + self.downlink.bytes

    def summary(self) -> dict[str, int]:
        """Bytes per phase and direction: ``setup_up`` ... ``online_down``."""
        return {
            f"{phase}_{direction}": stats.bytes
            for phase, directions in self.phase_stats.items()
            for direction, stats in directions.items()
        }
