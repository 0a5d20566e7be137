"""Multi-core offline precompute runtime: the process pool.

One job kind runs here: the *whole mint* (:func:`mint_offline_job`) —
request-level parallelism, many single-core offline phases side by side
(paper §5.2). A mint is a pure function of its seed and compute backend
(a job carries an explicit choice in ``params.backend``), so the blob a
worker returns is byte-identical to the same mint run in the parent.
Splitting *one* mint across workers measured slower than the sequential
mint (ARCHITECTURE.md, *Pool verdict*), so nothing here does.

Workers are initialized through :func:`repro.runtime.state.
reset_process_state`: inherited NTT/RNS caches are dropped, the compute
backend is re-selected from the worker's environment, and each worker
gets an independent :class:`~repro.crypto.rng.SecureRandom` derived from
(base seed, worker index) — never the parent's stream.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings

from repro.runtime.state import init_worker_rng, reset_process_state


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > all cores."""
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
    return os.cpu_count() or 1


def mint_offline_job(args):
    """Pool job: run one whole offline phase, return its store blob.

    Each worker process runs a complete mint end to end, so W workers
    sustain W concurrent mints while the submitting thread keeps
    serving. The mint is process-local (``transport="memory"``); only
    its *product* crosses the wire later. The blob is byte-identical to
    a parent-side mint under the same seed and backend (all protocol
    randomness is seed-derived; garbling draws its labels in a different
    order on the vectorized backend).
    """
    network, params, garbler, seed, truncate_bits = args
    from repro.core.protocol import HybridProtocol

    protocol = HybridProtocol(
        network,
        params,
        garbler=garbler,
        seed=seed,
        truncate_bits=truncate_bits,
        transport="memory",
    )
    try:
        protocol.run_offline()
        return protocol.offline_blob()
    finally:
        protocol.shutdown()


def _init_worker(base_seed, counter) -> None:
    """Worker initializer: claim an index, reset state, derive the RNG."""
    with counter.get_lock():
        index = counter.value
        counter.value += 1
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


class _PoolJob(AsyncJob):
    """A job resolved by its outcome: a worker's result callbacks, or inline.

    The outcome is stored before ``on_done`` runs, so a thread woken by
    ``on_done`` always finds :meth:`ready` true. ``AsyncResult`` itself is
    not read: multiprocessing runs a job's callbacks *before* its
    ``ready()`` turns true.
    """

    def __init__(self, on_done=None):
        self._resolved = threading.Event()
        self._value = None
        self._error: BaseException | None = None
        self._on_done = on_done

    def _resolve(self, value=None, error: BaseException | None = None) -> None:
        self._value, self._error = value, error
        self._resolved.set()
        if self._on_done is not None:
            self._on_done()

    def ready(self) -> bool:
        return self._resolved.is_set()

    def get(self, timeout: float | None = None):
        if not self._resolved.wait(timeout):
            raise multiprocessing.TimeoutError
        if self._error is not None:
            raise self._error
        return self._value


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


class _TracedPoolJob(_PoolJob):
    """A traced pool job: unwraps the telemetry payload on first get().

    The resolved value is ``(value, payload)``; the payload is merged
    into the parent-process tracer/metrics exactly once (get() may be
    called repeatedly), and callers see only the bare value.
    """

    def __init__(self, on_done=None):
        super().__init__(on_done)
        self._merged = False
        self._merge_lock = threading.Lock()

    def get(self, timeout: float | None = None):
        value, payload = super().get(timeout)
        with self._merge_lock:
            if not self._merged:
                self._merged = True
                from repro import telemetry

                telemetry.merge_worker_payload(payload)
        return value


class PrecomputePool:
    """Process pool for whole offline mints (:func:`mint_offline_job`).

    ``workers`` resolves through :func:`resolve_workers` (explicit >
    ``REPRO_WORKERS`` > all cores). With one worker jobs run inline
    through the identical job function, so ``workers=1`` is the
    sequential path, not a different code path. The underlying
    ``multiprocessing.Pool`` is created lazily on first parallel use and
    torn down by :meth:`close` (or the context manager).
    """

    def __init__(
        self,
        workers: int | None = None,
        seed: int | None = None,
        start_method: str | None = None,
    ):
        self.workers = resolve_workers(workers)
        self.seed = seed
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
                    initargs=(self.seed, counter),
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

    # -- job submission ----------------------------------------------------

    def map_jobs(self, func, jobs) -> list:
        """Run picklable jobs, in order; inline when pooling can't help."""
        jobs = list(jobs)
        if self.workers <= 1 or len(jobs) <= 1:
            return [func(job) for job in jobs]
        return self._ensure_pool().map(func, jobs, chunksize=1)

    def apply_async(self, func, job, on_done=None) -> AsyncJob:
        """Submit one picklable job without waiting; returns an AsyncJob.

        This is the refill workers' submission surface: a background
        driver ships whole offline-mint jobs to worker processes and keeps
        serving while they run, which is where the gateway's wall-clock
        overlap of minting and serving comes from. ``on_done`` (no
        arguments, must not raise) is called once the job has resolved,
        successfully or not — on the pool's result thread, or before this
        returns when the job ran inline — so a driver can block on one
        event instead of polling ``ready()``. With ``workers <= 1`` the
        job runs inline at submit time, so single-core deployments keep
        identical semantics minus the overlap.
        """
        if self.workers <= 1:
            handle = _PoolJob(on_done)
            try:
                value = func(job)
            except Exception as exc:  # what a pool worker would ship back
                handle._resolve(error=exc)
            else:
                handle._resolve(value)
            return handle
        from repro import telemetry

        if telemetry.enabled():
            # Ship worker-side telemetry home with the result (payloads
            # merge on the submitting side, at get(), never in the
            # pool's thread).
            handle = _TracedPoolJob(on_done)
            func, job = _run_traced_job, (func, job)
        else:
            handle = _PoolJob(on_done)
        self._ensure_pool().apply_async(
            func, (job,), callback=handle._resolve,
            error_callback=lambda exc: handle._resolve(error=exc),
        )
        return handle
