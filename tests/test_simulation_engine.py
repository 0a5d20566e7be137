"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import (
    Container,
    Environment,
    Event,
    Resource,
    Store,
)


class TestTimeline:
    def test_timeout_advances_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(5.0)

        env.process(proc(env))
        env.run()
        assert env.now == 5.0

    def test_sequential_timeouts(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.5)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [1.0, 3.5]

    def test_parallel_processes_interleave(self):
        env = Environment()
        log = []

        def proc(env, name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        env.process(proc(env, "slow", 10))
        env.process(proc(env, "fast", 1))
        env.run()
        assert log == [(1, "fast"), (10, "slow")]

    def test_run_until_stops_early(self):
        env = Environment()

        def proc(env):
            yield env.timeout(100)

        env.process(proc(env))
        env.run(until=7)
        assert env.now == 7

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_process_return_value(self):
        env = Environment()
        results = []

        def child(env):
            yield env.timeout(3)
            return 42

        def parent(env):
            value = yield env.process(child(env))
            results.append(value)

        env.process(parent(env))
        env.run()
        assert results == [42]

    def test_yield_non_event_raises(self):
        env = Environment()

        def proc(env):
            yield 5

        env.process(proc(env))
        with pytest.raises(TypeError):
            env.run()

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_event_ordering_property(self, delays):
        """Completion order always sorted by delay regardless of spawn order."""
        env = Environment()
        log = []

        def proc(env, delay):
            yield env.timeout(delay)
            log.append(delay)

        for d in delays:
            env.process(proc(env, d))
        env.run()
        assert log == sorted(delays)


class TestEvents:
    def test_manual_event(self):
        env = Environment()
        log = []

        def waiter(env, event):
            value = yield event
            log.append((env.now, value))

        def firer(env, event):
            yield env.timeout(4)
            event.succeed("go")

        event = Event(env)
        env.process(waiter(env, event))
        env.process(firer(env, event))
        env.run()
        assert log == [(4, "go")]

    def test_double_succeed_raises(self):
        env = Environment()
        event = Event(env)
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()


class TestResource:
    def test_mutual_exclusion(self):
        env = Environment()
        log = []

        def worker(env, res, name):
            yield res.request()
            log.append((env.now, name, "start"))
            yield env.timeout(10)
            log.append((env.now, name, "end"))
            res.release()

        res = Resource(env, capacity=1)
        env.process(worker(env, res, "a"))
        env.process(worker(env, res, "b"))
        env.run()
        assert log == [(0, "a", "start"), (10, "a", "end"), (10, "b", "start"), (20, "b", "end")]

    def test_capacity_two_runs_in_parallel(self):
        env = Environment()
        done = []

        def worker(env, res):
            yield res.request()
            yield env.timeout(10)
            res.release()
            done.append(env.now)

        res = Resource(env, capacity=2)
        for _ in range(4):
            env.process(worker(env, res))
        env.run()
        assert done == [10, 10, 20, 20]

    def test_release_without_request_raises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)


class TestContainer:
    def test_get_blocks_until_put(self):
        env = Environment()
        log = []

        def consumer(env, box):
            yield box.get(5)
            log.append(env.now)

        def producer(env, box):
            yield env.timeout(8)
            yield box.put(5)

        box = Container(env, capacity=10)
        env.process(consumer(env, box))
        env.process(producer(env, box))
        env.run()
        assert log == [8]

    def test_put_blocks_at_capacity(self):
        env = Environment()
        log = []

        def producer(env, box):
            yield box.put(6)
            log.append(("first", env.now))
            yield box.put(6)
            log.append(("second", env.now))

        def consumer(env, box):
            yield env.timeout(5)
            yield box.get(6)

        box = Container(env, capacity=10)
        env.process(producer(env, box))
        env.process(consumer(env, box))
        env.run()
        assert log == [("first", 0), ("second", 5)]

    def test_initial_level(self):
        env = Environment()
        box = Container(env, capacity=10, init=10)
        assert box.level == 10

    def test_init_above_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, capacity=5, init=6)


class TestStore:
    def test_fifo_order(self):
        env = Environment()
        got = []

        def consumer(env, store):
            for _ in range(2):
                item = yield store.get()
                got.append(item)

        store = Store(env)
        store.put("a")
        store.put("b")
        env.process(consumer(env, store))
        env.run()
        assert got == ["a", "b"]

    def test_get_blocks(self):
        env = Environment()
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env, store):
            yield env.timeout(3)
            store.put("x")

        store = Store(env)
        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [(3, "x")]
