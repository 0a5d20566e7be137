"""Multi-core offline precompute runtime: the process pool.

The offline phase is embarrassingly parallel but SHA-256-bound —
:meth:`repro.gc.garble.Garbler.garble_batch` spends ~70% of a ReLU
layer's batch time in hashlib, which no amount of numpy vectorization
removes. :class:`PrecomputePool` executes that work on many cores with
``multiprocessing`` while keeping the *transcripts byte-identical* to the
sequential paths, which is what makes pooling safe to enable anywhere:

* All randomness is drawn by the parent, in exactly the order the
  sequential code draws it. Jobs are pure functions of pre-drawn
  material (label matrices, key-switch draws), so which
  worker runs which shard can never change an output bit.
* Workers are initialized through :func:`repro.runtime.state.
  reset_process_state`: inherited NTT/RNS caches are dropped, the
  compute backend is re-selected from the worker's environment, and each
  worker gets an independent :class:`~repro.crypto.rng.SecureRandom`
  derived from (base seed, worker index) — never the parent's stream.

Shard sizing is skew-aware (:func:`plan_shards`): the target shard size
is derived from the *total* work across all submitted batches, so one
wide ReLU layer splits into many shards that interleave with the small
layers' shards instead of straggling behind them — the LPT-style
work-sharding playbook of Dhulipala et al. and JSPIM's skew-aware
partitioning.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings

from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit
from repro.gc.garble import (
    GarbledCircuit,
    InputEncoding,
    derive_batch_labels,
    derive_instance_labels,
    garble_batch_from_labels,
    garble_from_labels,
)
from repro.runtime.state import init_worker_rng, reset_process_state

try:
    import numpy as _np
except ImportError:  # pragma: no cover - minimal images only
    _np = None

DEFAULT_MIN_SHARD = 8
DEFAULT_OVERSUBSCRIBE = 4


def resolve_workers(workers: int | None = None, default: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > default.

    ``default=None`` means "all cores" (``os.cpu_count()``); callers that
    want opt-in parallelism (the protocol) pass ``default=1``.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            # Fail soft but never silently: a typo'd deployment variable
            # quietly running single-core is a capacity incident.
            warnings.warn(
                f"ignoring unparseable REPRO_WORKERS={env!r} "
                "(expected an integer); falling back to the default "
                "worker count",
                RuntimeWarning,
                stacklevel=2,
            )
    if default is None:
        return os.cpu_count() or 1
    return max(1, int(default))


def plan_shards(
    sizes,
    workers: int,
    min_shard: int = DEFAULT_MIN_SHARD,
    oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
) -> list[list[tuple[int, int]]]:
    """Skew-aware contiguous shard plan for a set of job batches.

    Returns one list of (lo, hi) ranges per input size. The target shard
    size is ``total / (workers * oversubscribe)`` (floored at
    ``min_shard``): sizing against the *total* rather than per batch is
    what makes the plan skew-aware — a batch much wider than its peers is
    split into proportionally many shards while small batches stay
    whole, so greedy pool scheduling approximates an LPT schedule and the
    wide batch cannot straggle the tail.
    """
    total = sum(sizes)
    shard_goal = max(1, workers) * max(1, oversubscribe)
    target = max(max(1, min_shard), -(-total // shard_goal)) if total > 0 else 1
    plans: list[list[tuple[int, int]]] = []
    for size in sizes:
        if size <= 0:
            plans.append([])
            continue
        pieces = max(1, -(-size // target))
        base, extra = divmod(size, pieces)
        ranges = []
        lo = 0
        for i in range(pieces):
            hi = lo + base + (1 if i < extra else 0)
            ranges.append((lo, hi))
            lo = hi
        plans.append(ranges)
    return plans


def _init_worker(backend, representation, base_seed, counter) -> None:
    """Worker initializer: claim an index, reset state, derive the RNG."""
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    if backend is not None:
        os.environ["REPRO_BACKEND"] = backend
    if representation is not None:
        os.environ["REPRO_REPRESENTATION"] = representation
    reset_process_state()  # drops inherited caches, re-reads REPRO_BACKEND
    init_worker_rng(base_seed, index)


class AsyncJob:
    """Handle for one asynchronously submitted pool job.

    A tiny future: :meth:`ready` polls, :meth:`get` joins (re-raising the
    job's exception, like ``multiprocessing.pool.AsyncResult``). Inline
    submissions (``workers <= 1``) resolve at submit time, so callers can
    treat the two modes uniformly.
    """

    def ready(self) -> bool:
        raise NotImplementedError

    def get(self, timeout: float | None = None):
        raise NotImplementedError


class _ImmediateJob(AsyncJob):
    """An already-resolved job (the inline / single-worker path)."""

    def __init__(self, value=None, error: BaseException | None = None):
        self._value = value
        self._error = error

    def ready(self) -> bool:
        return True

    def get(self, timeout: float | None = None):
        if self._error is not None:
            raise self._error
        return self._value


class _PoolJob(AsyncJob):
    """A job executing on a worker process (wraps AsyncResult)."""

    def __init__(self, result):
        self._result = result

    def ready(self) -> bool:
        return self._result.ready()

    def get(self, timeout: float | None = None):
        return self._result.get(timeout)


def _run_traced_job(packed):
    """Pool job wrapper: run ``func(job)`` with worker-local telemetry.

    The worker's tracer/metrics are reset and enabled only for this
    job's duration, and their contents ride home with the value —
    ``(value, (trace_events, metrics_snapshot))`` — so the parent can
    attribute pool-side mint costs (:class:`_TracedPoolJob` merges the
    payload exactly once). Telemetry enablement is deliberately *not*
    inherited from the parent's environment: this wrapper is the only
    path that turns it on in a worker.
    """
    func, job = packed
    from repro import telemetry

    telemetry.TRACER.reset()
    telemetry.METRICS.reset()
    telemetry.TRACER.enabled = True
    telemetry.METRICS.enabled = True
    try:
        with telemetry.TRACER.span(
            "pool.job", job=getattr(func, "__name__", str(func))
        ):
            value = func(job)
        return value, (telemetry.TRACER.drain(), telemetry.METRICS.snapshot())
    finally:
        telemetry.TRACER.enabled = False
        telemetry.METRICS.enabled = False


class _TracedPoolJob(AsyncJob):
    """A traced pool job: unwraps the telemetry payload on first get().

    The wrapped result is ``(value, payload)``; the payload is merged
    into the parent-process tracer/metrics exactly once (get() may be
    called repeatedly), and callers see only the bare value.
    """

    def __init__(self, result):
        self._result = result
        self._merged = False
        self._merge_lock = threading.Lock()

    def ready(self) -> bool:
        return self._result.ready()

    def get(self, timeout: float | None = None):
        value, payload = self._result.get(timeout)
        with self._merge_lock:
            if not self._merged:
                self._merged = True
                from repro import telemetry

                telemetry.merge_worker_payload(payload)
        return value


def _garble_rows_job(args):
    """Pool job: deterministic vectorized garble of one row shard."""
    circuit, deltas, zero_labels = args
    results = garble_batch_from_labels(circuit, deltas, zero_labels)
    for garbled, _ in results:
        # The parent rebinds its own (shared) topology object; shipping a
        # per-shard Circuit copy back would break the identity check the
        # batched evaluator uses and waste pickle bytes.
        garbled.circuit = None
    return results


def _garble_instances_job(args):
    """Pool job: deterministic scalar garble of pre-drawn instances."""
    circuit, drawn = args
    results = [
        garble_from_labels(circuit, delta, labels) for delta, labels in drawn
    ]
    for garbled, _ in results:
        garbled.circuit = None
    return results


class PrecomputePool:
    """Process pool for the offline phase (garbling, key-gen, whole mints).

    ``workers`` resolves through :func:`resolve_workers` (explicit >
    ``REPRO_WORKERS`` > all cores). With one worker every method runs
    inline through the identical job functions, so ``workers=1`` is the
    sequential path, not a different code path. The underlying
    ``multiprocessing.Pool`` is created lazily on first parallel use and
    torn down by :meth:`close` (or the context manager).
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str | None = None,
        representation: str | None = None,
        seed: int | None = None,
        min_shard: int = DEFAULT_MIN_SHARD,
        oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
        start_method: str | None = None,
    ):
        self.workers = resolve_workers(workers)
        self.backend = backend
        self.representation = representation
        self.seed = seed
        self.min_shard = max(1, min_shard)
        self.oversubscribe = max(1, oversubscribe)
        self._start_method = start_method
        self._pool = None
        # Lazy creation may race when a background refill thread and the
        # serving thread both touch the pool first; worker forking must
        # happen exactly once. multiprocessing.Pool itself is safe for
        # concurrent map/apply_async calls from multiple threads.
        self._create_lock = threading.Lock()

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self):
        with self._create_lock:
            if self._pool is None and self.workers > 1:
                ctx = multiprocessing.get_context(self._start_method)
                counter = ctx.Value("i", 0)
                self._pool = ctx.Pool(
                    processes=self.workers,
                    initializer=_init_worker,
                    initargs=(self.backend, self.representation, self.seed, counter),
                )
            return self._pool

    def close(self) -> None:
        """Tear down worker processes (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "PrecomputePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; explicit close() is the contract
        try:
            self.close()
        except Exception:
            pass

    # -- sharding -----------------------------------------------------------

    def shard_ranges(
        self, count: int, min_shard: int | None = None
    ) -> list[tuple[int, int]]:
        """Contiguous (lo, hi) shard bounds for one batch of ``count``."""
        return plan_shards(
            [count],
            self.workers,
            self.min_shard if min_shard is None else min_shard,
            self.oversubscribe,
        )[0]

    def map_jobs(self, func, jobs) -> list:
        """Run picklable jobs, in order; inline when pooling can't help."""
        jobs = list(jobs)
        if self.workers <= 1 or len(jobs) <= 1:
            return [func(job) for job in jobs]
        return self._ensure_pool().map(func, jobs, chunksize=1)

    def apply_async(self, func, job, callback=None) -> AsyncJob:
        """Submit one picklable job without waiting; returns an AsyncJob.

        This is the refill workers' submission surface: a background
        driver ships whole offline-mint jobs to worker processes and keeps
        serving while they run, which is where the gateway's wall-clock
        overlap of minting and serving comes from. ``callback``
        receives the result (in a pool-internal thread — keep it tiny and
        thread-safe). With ``workers <= 1`` the job runs inline at submit
        time and the callback fires synchronously, so single-core
        deployments keep identical semantics minus the overlap.
        """
        if self.workers <= 1:
            try:
                value = func(job)
            except BaseException as exc:
                return _ImmediateJob(error=exc)
            if callback is not None:
                callback(value)
            return _ImmediateJob(value)
        from repro import telemetry

        if telemetry.enabled():
            # Ship worker-side telemetry home with the result; the
            # callback still sees the bare value (payloads merge on the
            # submitting side, at get(), never in the pool's thread).
            wrapped = None
            if callback is not None:
                wrapped = lambda pair: callback(pair[0])  # noqa: E731
            return _TracedPoolJob(
                self._ensure_pool().apply_async(
                    _run_traced_job, ((func, job),), callback=wrapped
                )
            )
        return _PoolJob(
            self._ensure_pool().apply_async(func, (job,), callback=callback)
        )

    # -- precompute kinds ----------------------------------------------------

    def garble_batch(
        self,
        circuit: Circuit,
        count: int,
        rng: SecureRandom | None = None,
        vectorize: bool | None = None,
    ) -> list[tuple[GarbledCircuit, InputEncoding]]:
        """Garble ``count`` instances, byte-identical to the sequential
        :meth:`~repro.gc.garble.Garbler.garble_batch` under the same rng."""
        batches = self.garble_layers([(circuit, count, rng)], vectorize=vectorize)
        return batches[0]

    def garble_layers(
        self,
        layers,
        vectorize: bool | None = None,
    ) -> list[list[tuple[GarbledCircuit, InputEncoding]]]:
        """Garble several layers' batches with one skew-aware shard plan.

        ``layers`` is a list of ``(circuit, count, rng)`` tuples (``rng``
        may be None for OS entropy). All label material is drawn up front
        — per layer, in the sequential draw order — then every shard of
        every layer goes into one job list, so a wide layer's shards
        interleave with narrow layers' instead of serializing behind them.
        """
        layers = [
            (circuit, count, rng or SecureRandom())
            for circuit, count, rng in layers
        ]
        if vectorize is None:
            from repro.backend import get_backend

            vectorize = get_backend().name == "numpy"
        plans = plan_shards(
            [count for _, count, _ in layers],
            self.workers,
            self.min_shard,
            self.oversubscribe,
        )
        jobs = []
        modes: list[tuple[bool, int]] = []  # (vectorized, n_shards) per layer
        for (circuit, count, rng), ranges in zip(layers, plans):
            if count <= 0:
                modes.append((True, 0))
                continue
            vec = _np is not None and vectorize and count > 1
            if vec:
                deltas, zeros = derive_batch_labels(rng, circuit, count)
                for lo, hi in ranges:
                    jobs.append(
                        (
                            circuit,
                            deltas[lo:hi],
                            {w: mat[lo:hi] for w, mat in zeros.items()},
                        )
                    )
            else:
                drawn = [
                    derive_instance_labels(rng, circuit) for _ in range(count)
                ]
                for lo, hi in ranges:
                    jobs.append((circuit, drawn[lo:hi]))
            modes.append((vec, len(ranges)))

        blocks = self.map_jobs(_dispatch_garble_job, jobs)
        results: list[list[tuple[GarbledCircuit, InputEncoding]]] = []
        cursor = 0
        for (circuit, count, _), (vec, n_shards) in zip(layers, modes):
            batch: list[tuple[GarbledCircuit, InputEncoding]] = []
            for block in blocks[cursor : cursor + n_shards]:
                for garbled, encoding in block:
                    garbled.circuit = circuit  # one shared topology object
                    batch.append((garbled, encoding))
            cursor += n_shards
            results.append(batch)
        return results

    def galois_keygen(self, ctx, sk, elements):
        """Pooled Galois key generation (per-digit products sharded)."""
        return ctx.galois_keygen(sk, elements, pool=self)


def _dispatch_garble_job(job):
    """Route a mixed garble job list to the right deterministic walker."""
    if _np is not None and isinstance(job[1], _np.ndarray):
        return _garble_rows_job(job)
    return _garble_instances_job(job)
