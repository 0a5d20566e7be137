"""One connection's request cycle, with no socket, thread or clock of its own.

:class:`ConnectionMachine` walks ``HELLO`` → ``IDLE`` (REQs queue here) →
``ADMITTED`` → ``WAIT_STORE`` (held for a refill) or ``OFFLINE`` (a demand
mint) → ``ONLINE`` → ``IDLE`` until the connection closes, making every
:class:`~repro.runtime.policy.RefillLedger` call a request makes and timing
it into a :class:`~repro.runtime.serving.ServedRequest`. The live gateway
drives it with decoded frames and session phase ends; ``replay_analytic``
with a schedule's arrivals in simulated time.

Inputs return ``(action, value)`` pairs for the driver to carry out in
order: ``BUSY`` (value: the retry hint), ``GOAWAY`` (value: the reason;
close), ``ADMIT`` (value: the REQ index), ``OFFER`` (value: ``take``'s
entry to load, or None: run the offline phase), ``START_ONLINE`` and
``DONE`` (value: the ServedRequest). After starting a phase the driver
calls ``started()``, so the phase is timed from when it runs. An admitted
request looks in the store at the next ``retry()``, so its ``ADMIT`` is
carried out even when ``take`` refuses the entry; a held one looks again
at each ``retry()`` after.
"""

from __future__ import annotations

from collections import deque

from repro.runtime.policy import BUSY, GOAWAY, HOLD, OFFER, QUEUE
from repro.runtime.serving import ServedRequest

ADMIT, START_ONLINE, DONE = "admit", "start-online", "done"


class ConnectionMachine:
    """One connection's state, queued REQs and request timing.

    ``take(client_id)`` consumes the client's oldest stored precompute and
    returns it, or None when nothing is stored (it may raise
    ``ValueError`` for an entry it refuses); ``clock()`` reads the time;
    ``lock`` guards every ledger call.
    """

    HELLO, IDLE, ADMITTED, WAIT_STORE, OFFLINE, ONLINE, CLOSED = (
        "hello", "idle", "admitted", "wait-store", "offline", "online",
        "closed",
    )
    ACTIVE = (ADMITTED, WAIT_STORE, OFFLINE, ONLINE)

    def __init__(self, ledger, take, clock, lock):
        self.ledger, self.take, self.clock, self.lock = ledger, take, clock, lock
        self.state = self.HELLO
        self.client_id = "?"
        self.client: int | str | None = None  # ledger key: index, else id
        self.pending: deque[int] = deque()  # REQs not yet started
        self.completed = 0
        # The active request: REQ index, admission time, requests in
        # flight then, hold deadline, and phase timing.
        self.index = self.queue_depth = 0
        self.admitted_at = self.deadline = self.hold_seconds = 0.0
        self.hit = False
        self.mint_seconds = self._phase_start = 0.0

    @property
    def due(self) -> bool:
        """Would :meth:`retry` act: a request to look up, or a queued REQ?"""
        return self.state in (self.ADMITTED, self.WAIT_STORE) or (
            self.state == self.IDLE and bool(self.pending)
        )

    def hello(self, client_id: str, index: int | None = None) -> None:
        """The peer named itself; ``index`` is its place among the N served
        clients, None for a peer outside them."""
        self.client_id = client_id
        self.client = client_id if index is None else index
        self.state = self.IDLE

    def request(self, index: int) -> list:
        """A REQ arrived: queue it, and start it if the connection is idle."""
        self.pending.append(index)
        return self.retry()

    def retry(self) -> list:
        """Look: an admitted or held request in the store, an idle
        connection at its queue (a done, a drop or a drained backlog may
        admit it)."""
        if self.state in (self.ADMITTED, self.WAIT_STORE):
            return self._look()
        if not self.due:
            return []
        with self.lock:
            verdict, value = self.ledger.request(self.client)
        if verdict == QUEUE:
            return []  # at the in-flight cap
        index = self.pending.popleft()
        if verdict == GOAWAY:
            return [(GOAWAY, "admission backlog over max_queue")]
        if verdict == BUSY:
            return [(BUSY, value)]
        self.state = self.ADMITTED  # from here a close frees its slot
        self.index, self.queue_depth = index, value
        self.admitted_at = self.clock()
        self.mint_seconds = 0.0
        return [(ADMIT, index)]  # the store look is the next retry()

    def started(self) -> None:
        """The phase just asked for is running: its clock starts now."""
        self._phase_start = self.clock()

    def phase_done(self) -> list:
        """The offline or the online phase finished."""
        now = self.clock()
        if self.state == self.OFFLINE:
            self.mint_seconds = now - self._phase_start
            self.state = self.ONLINE
            return [(START_ONLINE, None)]
        with self.lock:
            self.ledger.done(self.client, self.mint_seconds)
        self.state = self.IDLE
        self.completed += 1
        return [(DONE, ServedRequest(
            client=self.client_id,
            index=self.index,
            hit=self.hit,
            queue_depth=self.queue_depth,
            mint_seconds=self.mint_seconds,
            online_seconds=now - self._phase_start,
            store_bytes=0,  # the driver knows its store
            hold_seconds=self.hold_seconds,
        ))]

    def closed(self) -> bool:
        """The connection ended. True when a request died with it: its
        in-flight slot (and hold) go back to the ledger."""
        active = self.state in self.ACTIVE
        if active:
            with self.lock:
                self.ledger.drop(self.client, self.state == self.WAIT_STORE)
        self.state = self.CLOSED
        return active

    def _look(self) -> list:
        """OFFER the admitted or held request, or hold it for its refill."""
        taken = self.take(self.client_id)
        held, now = self.state == self.WAIT_STORE, self.clock()
        with self.lock:
            verdict, deadline = self.ledger.look(
                self.client, taken is not None, now,
                self.deadline if held else None,
            )
        if verdict == HOLD:  # wait for the refill underway, not mint again
            self.state, self.deadline = self.WAIT_STORE, deadline
            return []
        self.hold_seconds = now - self.admitted_at if held else 0.0
        self.hit = taken is not None
        if not self.hit:
            self.state = self.OFFLINE
            return [(OFFER, None)]
        self.state = self.ONLINE
        return [(OFFER, taken), (START_ONLINE, None)]
