"""A compact discrete-event simulation engine (SimPy work-alike).

The paper's artifact builds its PI system model on SimPy; SimPy is not
available in this offline environment, so this module provides the subset
the system model needs: an event loop, generator-based processes,
timeouts, one-shot events, and the resource primitives used to model
cores, storage, and links (Resource, Container, Store).

Usage mirrors SimPy::

    env = Environment()

    def worker(env):
        yield env.timeout(5.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 5.0
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Generator


class Event:
    """A one-shot event that processes can wait on."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        self.value = None

    def succeed(self, value=None) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires after a fixed delay."""

    def __init__(self, env: "Environment", delay: float, value=None):
        if delay < 0:
            raise ValueError("timeout delay must be non-negative")
        super().__init__(env)
        self.triggered = True
        self.value = value
        env._schedule(self, delay)


class Process(Event):
    """Drives a generator; the process itself is an event that fires on return."""

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        self._generator = generator
        # Bootstrap on the next tick of the event loop.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.triggered = True
        env._schedule(bootstrap)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            if not self.triggered:
                self.triggered = True
                self.value = stop.value
                self.env._schedule(self)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded {type(target).__name__}; only events are allowed"
            )
        if target.triggered and not target.callbacks and target not in self.env._pending:
            # Already fired and drained: resume immediately on next tick.
            relay = Event(self.env)
            relay.triggered = True
            relay.value = target.value
            relay.callbacks.append(self._resume)
            self.env._schedule(relay)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """The event loop: a clock plus a priority queue of triggered events."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._pending: set[Event] = set()

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))
        self._pending.add(event)

    def timeout(self, delay: float, value=None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock passes ``until``."""
        while self._queue:
            time, _, event = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            self._pending.discard(event)
            self.now = time
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        if until is not None:
            self.now = until


class Resource:
    """A counted resource (e.g. CPU cores) with FIFO request queueing."""

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: deque[Event] = deque()

    def request(self) -> Event:
        """Returns an event that fires when a unit is granted."""
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiting.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release without a matching request")
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self.in_use -= 1


class Container:
    """A continuous stock (e.g. bytes of client storage) with blocking gets."""

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if init > capacity:
            raise ValueError("initial level exceeds capacity")
        self.env = env
        self.capacity = capacity
        self.level = init
        self._get_waiting: deque[tuple[float, Event]] = deque()
        self._put_waiting: deque[tuple[float, Event]] = deque()

    def put(self, amount: float) -> Event:
        event = Event(self.env)
        self._put_waiting.append((amount, event))
        self._drain()
        return event

    def get(self, amount: float) -> Event:
        event = Event(self.env)
        self._get_waiting.append((amount, event))
        self._drain()
        return event

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiting:
                amount, event = self._put_waiting[0]
                if self.level + amount <= self.capacity:
                    self.level += amount
                    self._put_waiting.popleft()
                    event.succeed()
                    progressed = True
            if self._get_waiting:
                amount, event = self._get_waiting[0]
                if self.level >= amount:
                    self.level -= amount
                    self._get_waiting.popleft()
                    event.succeed()
                    progressed = True


class Store:
    """A FIFO store of Python objects with blocking get."""

    def __init__(self, env: Environment):
        self.env = env
        self.items: deque = deque()
        self._waiting: deque[Event] = deque()

    def put(self, item) -> None:
        if self._waiting:
            self._waiting.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._waiting.append(event)
        return event
