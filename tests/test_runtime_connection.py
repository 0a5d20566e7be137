"""The per-connection request cycle with no socket, thread or clock.

Real :class:`~repro.runtime.connection.ConnectionMachine`\\ s — connections
of two served clients and of an outsider — share one
:class:`~repro.runtime.policy.RefillLedger` and an injected clock, and
hypothesis interleaves their inputs with the refill pipeline's events
(claim, landed) and with torn store entries. The driver here carries out
the machine's actions as the gateway does: GOAWAY closes the connection,
a refused entry (``take`` raising ``ValueError``) drops it.
"""

from collections import deque
from contextlib import nullcontext

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.runtime.connection import (
    ADMIT,
    DONE,
    GOAWAY,
    OFFER,
    START_ONLINE,
    ConnectionMachine,
)
from repro.runtime.policy import (
    DEFAULT_MAX_QUEUE,
    MAX_INFLIGHT_PER_CLIENT,
    RefillLedger,
)
from repro.runtime.serving import client_id

SERVED = 2
OUTSIDER = "intruder"  # a HELLO naming a client outside the N served
PEERS = [*range(SERVED), OUTSIDER]
TORN = b"RPC3\x01\x00\x00"  # a cut store entry: take refuses it
M = ConnectionMachine
PHASES = (M.OFFLINE, M.ONLINE)


class RequestCycle(RuleBasedStateMachine):
    hellos = Bundle("hellos")  # connections still to say HELLO

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.ledger = RefillLedger(SERVED)
        self.stored = [deque() for _ in range(SERVED)]
        self.conns: dict[ConnectionMachine, int | str] = {}  # machine -> peer
        self.active: dict[ConnectionMachine, int] = {}  # admitted, unfinished
        self.next_index = 0
        self.admitted = self.done = self.dropped = 0

    @initialize(
        max_queue=st.sampled_from([0, 1, DEFAULT_MAX_QUEUE]),
        max_deferrals=st.sampled_from([None, 0, 1]),
    )
    def serve(self, max_queue, max_deferrals):
        """A gateway after prefill (one precompute per client), with one
        greeted connection per peer."""
        self.ledger = RefillLedger(SERVED, max_queue=max_queue)
        self.ledger.max_request_deferrals = max_deferrals
        for c in range(SERVED):
            self.ledger.reserve(c)
            self.ledger.landed(c)
            self.stored[c].append(b"precompute")
        for peer in PEERS:
            self.hello(self.connect(peer))

    # -- the driver ----------------------------------------------------------

    def _take(self, name: str):
        c = next((c for c in range(SERVED) if client_id(c) == name), None)
        if c is None or not self.stored[c]:
            return None
        entry = self.stored[c].popleft()  # a refused one goes too, here
        if entry == TORN:
            raise ValueError("truncated offline transcript")
        return entry

    def _feed(self, machine: ConnectionMachine, step) -> None:
        """Run one input and carry out its actions, as the gateway does."""
        try:
            actions = step()
        except ValueError:  # a refused store entry: the connection dies
            self._close(machine)
            return
        for action, value in actions:
            if action == ADMIT:
                assert machine not in self.active
                self.active[machine] = value
                self.admitted += 1
            elif action == GOAWAY:
                self._close(machine)
            elif action in (OFFER, START_ONLINE) and value is None:
                machine.started()  # a demand mint or an online phase runs
            elif action == DONE:
                assert self.active.pop(machine) == value.index
                assert value.hold_seconds >= 0.0 and value.mint_seconds >= 0.0
                self.done += 1
        if machine.state == M.ADMITTED:  # the gateway looks in the store at once
            self._feed(machine, machine.retry)

    def _close(self, machine: ConnectionMachine) -> None:
        del self.conns[machine]
        if machine.closed():
            self.active.pop(machine)
            self.dropped += 1
        else:
            assert machine not in self.active

    def _pick(self, data, *states):
        """One connection in ``states``, in the order they connected."""
        return data.draw(
            st.sampled_from([m for m in self.conns if m.state in states])
        )

    def _has(self, *states) -> bool:
        return any(m.state in states for m in self.conns)

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: len(self.conns) < 5)
    @rule(target=hellos, peer=st.sampled_from(PEERS))
    def connect(self, peer):
        machine = ConnectionMachine(
            self.ledger, self._take, lambda: self.now, nullcontext()
        )
        self.conns[machine] = peer
        return machine

    @rule(machine=consumes(hellos))
    def hello(self, machine):
        peer = self.conns[machine]
        if peer == OUTSIDER:
            machine.hello(OUTSIDER)
        else:
            machine.hello(client_id(peer), peer)

    @precondition(lambda self: self._has(M.IDLE))
    @rule(data=st.data())
    def request(self, data):
        machine = self._pick(data, M.IDLE)
        self.next_index += 1
        self._feed(machine, lambda: machine.request(self.next_index))

    @precondition(lambda self: any(m.due for m in self.conns))
    @rule(data=st.data())
    def retry(self, data):
        """A selector round, or a landing, comes round."""
        machine = data.draw(st.sampled_from([m for m in self.conns if m.due]))
        self._feed(machine, machine.retry)

    @precondition(lambda self: self._has(*PHASES))
    @rule(data=st.data())
    def phase_done(self, data):
        machine = self._pick(data, *PHASES)
        self._feed(machine, machine.phase_done)

    @precondition(lambda self: self._has(*M.ACTIVE))
    @rule(data=st.data())
    def close(self, data):
        """The peer vanishes mid-request."""
        self._close(self._pick(data, *M.ACTIVE))

    @rule(c=st.integers(0, SERVED - 1))
    def landed(self, c):
        """A refill mint lands and wakes the selector, whose next round
        looks again for every held request."""
        if self.ledger.pending[c]:
            self.ledger.landed(c, 0.5)
            self.stored[c].append(b"precompute")
            for machine in [m for m in self.conns if m.state == M.WAIT_STORE]:
                self._feed(machine, machine.retry)

    @rule()
    def claim(self):
        self.ledger.claim([len(s) for s in self.stored], self.now)

    @rule(c=st.integers(0, SERVED - 1))
    def tear(self, c):
        self.stored[c].append(TORN)

    @rule(seconds=st.sampled_from([0.5, 30.0, 61.0]))
    def tick(self, seconds):
        self.now += seconds  # holds outlive MISS_WAIT_SECONDS eventually

    # -- invariants ----------------------------------------------------------

    @invariant()
    def tallies_balance(self):
        tally = self.ledger.admission()
        assert tally["issued"] == (
            tally["admitted"] + tally["deferred"] + tally["rejected"]
        )
        assert tally["admitted"] == self.admitted

    @invariant()
    def in_flight_counts_stay_in_bounds(self):
        for peer in PEERS:
            running = [
                m for m, p in self.conns.items()
                if p == peer and m.state in M.ACTIVE
            ]
            assert self.ledger.inflight.get(peer, 0) == len(running)
            assert 0 <= len(running) <= MAX_INFLIGHT_PER_CLIENT

    @invariant()
    def holds_are_the_waiting_machines(self):
        assert self.ledger.waiting == sum(
            m.state == M.WAIT_STORE for m in self.conns
        )

    @invariant()
    def every_admitted_request_ends_once(self):
        assert self.admitted == self.done + self.dropped + len(self.active)
        assert set(self.active) == {
            m for m in self.conns if m.state in M.ACTIVE
        }


RequestCycle.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None
)
test_request_cycle = RequestCycle.TestCase
