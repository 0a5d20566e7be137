"""Multi-client private-inference serving (§5.2's closing discussion).

The paper observes that RLP also pays off when *multiple clients* share
one server: aggregate client storage scales with the number of clients
(9 clients x 16 GB ≈ the 140 GB single-client setting), so the server can
run one single-core pre-compute per client concurrently — but each client
still buffers only its own pre-computes, so per-client latency resembles
the small-storage single-client case.

This module simulates N independent clients with private storage and
request streams contending for one server's cores and one downlink/uplink
per client (clients have independent wireless links; the server's compute
is the shared resource).

The analytical answer is no longer the only one: :meth:`MultiClientSimulator.
run_functional` executes the same deployment for real through
:class:`repro.runtime.serving.ServingLoop` — per-client precomputes minted one
after another, admitted into
per-client :class:`~repro.runtime.PrecomputeStore` namespaces under a
global byte budget, and drained by interleaved online requests — returning
measured wall-clock/queue-depth/buffer-occupancy results this simulator
can be validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.system import (
    OfflineParallelism,
    SystemConfig,
    _hold,
    pipeline_times,
)
from repro.profiling.model_costs import Protocol
from repro.simulation.engine import Container, Environment, Resource, Store
from repro.workload.generators import InferenceRequest, PoissonWorkload


@dataclass(frozen=True)
class MultiClientConfig:
    """N identical clients sharing one server."""

    base: SystemConfig
    num_clients: int = 9

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("need at least one client")

    @property
    def aggregate_storage_bytes(self) -> float:
        return self.num_clients * self.base.client_storage_bytes


@dataclass
class MultiClientResult:
    per_client: list[list[InferenceRequest]]

    @property
    def all_completed(self) -> list[InferenceRequest]:
        return [
            r
            for client in self.per_client
            for r in client
            if r.completion_time is not None
        ]

    @property
    def mean_latency(self) -> float:
        done = self.all_completed
        return sum(r.latency for r in done) / len(done) if done else 0.0

    def client_mean_latency(self, index: int) -> float:
        done = [r for r in self.per_client[index] if r.completion_time is not None]
        return sum(r.latency for r in done) / len(done) if done else 0.0


class MultiClientSimulator:
    """Simulates N clients with private links/storage and a shared server."""

    def __init__(self, config: MultiClientConfig):
        self.config = config
        self.times = pipeline_times(config.base)
        self.link = config.base.link()

    def _pipeline(self, env, server_he, client_rig):
        t = self.times
        yield from _hold(env, client_rig["client_cpu"], t.client_he)
        yield from _hold(env, server_he, t.server_he)
        # Client-Garbler: garbling runs on the client's own device.
        garble_rig = (
            client_rig["client_cpu"]
            if self.config.base.protocol is Protocol.CLIENT_GARBLER
            else server_he
        )
        yield from _hold(env, garble_rig, t.garble)
        yield from _hold(
            env, client_rig["up"], self.link.upload_seconds(t.offline_up_bytes)
        )
        yield from _hold(
            env, client_rig["down"], self.link.download_seconds(t.offline_down_bytes)
        )

    def _worker(self, env, server_he, client_rig):
        footprint = self.config.base.precompute_footprint
        while True:
            yield client_rig["storage"].get(footprint)
            yield env.process(self._pipeline(env, server_he, client_rig))
            client_rig["buffer"].put(object())

    def _serve(self, env, server_he, service, client_rig, request, buffered):
        base = self.config.base
        yield service.request()
        request.service_start = env.now
        start = env.now
        reserved = False
        if buffered:
            yield client_rig["buffer"].get()
            request.used_precompute = request.service_start == env.now
            reserved = True
        else:
            yield env.process(self._pipeline(env, server_he, client_rig))
        request.offline_seconds = env.now - start

        online_start = env.now
        volumes = base.profile.comm(base.protocol)
        yield from _hold(
            env, client_rig["up"], self.link.upload_seconds(volumes.online_up)
        )
        yield from _hold(
            env, client_rig["down"], self.link.download_seconds(volumes.online_down)
        )
        evaluator = (
            base.client if base.protocol is Protocol.SERVER_GARBLER else base.server
        )
        eval_seconds = base.profile.gc_eval_seconds(evaluator)
        if base.protocol is Protocol.CLIENT_GARBLER:
            yield from _hold(env, server_he, eval_seconds)
        else:
            yield from _hold(env, client_rig["client_cpu"], eval_seconds)
        yield env.timeout(base.profile.ss_online_seconds(base.server))
        request.online_seconds = env.now - online_start
        request.completion_time = env.now
        service.release()
        if reserved:
            yield client_rig["storage"].put(base.precompute_footprint)

    def run(
        self, mean_interarrival: float, horizon: float, seed: int = 0
    ) -> MultiClientResult:
        env = Environment()
        base = self.config.base
        server_he = Resource(env, base.server.cores)
        buffered = base.buffer_capacity >= 1
        per_client: list[list[InferenceRequest]] = []
        for c in range(self.config.num_clients):
            prefill = base.buffer_capacity if buffered else 0
            rig = {
                "client_cpu": Resource(env, 1),
                "up": Resource(env, 1),
                "down": Resource(env, 1),
                "storage": Container(
                    env,
                    max(base.client_storage_bytes, 1.0),
                    init=base.client_storage_bytes
                    - prefill * base.precompute_footprint,
                ),
                "buffer": Store(env),
            }
            for _ in range(prefill):
                rig["buffer"].put(object())
            service = Resource(env, 1)  # FIFO per client
            requests: list[InferenceRequest] = []
            per_client.append(requests)
            workload = PoissonWorkload(mean_interarrival, horizon, seed=seed * 101 + c)
            env.process(
                self._arrivals(env, server_he, service, rig, workload, requests, buffered)
            )
            if buffered:
                env.process(self._worker(env, server_he, rig))
        env.run(until=horizon)
        env.run(until=horizon + 1000 * 24 * 3600)
        return MultiClientResult(per_client=per_client)

    def run_functional(
        self,
        network,
        store,
        requests_per_client: int = 1,
        prefill: int = 1,
        seed: int = 0,
        model_id: str = "multiclient",
    ):
        """Measured counterpart of :meth:`run`: really serve the clients.

        Builds a :class:`~repro.runtime.serving.ServingLoop` shaped like
        this deployment — garbler role from the config's protocol, BFV
        parameters from ``functional_bfv_params()`` — and serves
        ``requests_per_client`` interleaved requests per client from the
        given :class:`~repro.runtime.PrecomputeStore`. Returns the
        :class:`~repro.runtime.serving.ServingReport` of measured
        wall-clock, queue-depth, and buffer-occupancy results that the
        analytical :meth:`run` answer can be validated against.
        """
        from repro.runtime.serving import ServingLoop

        base = self.config.base
        garbler = (
            "client" if base.protocol is Protocol.CLIENT_GARBLER else "server"
        )
        loop = ServingLoop(
            network,
            base.functional_bfv_params(),
            self.config.num_clients,
            store,
            garbler=garbler,
            prefill=prefill,
            base_seed=seed,
            model_id=model_id,
        )
        return loop.run(requests_per_client)

    def _arrivals(self, env, server_he, service, rig, workload, requests, buffered):
        previous = 0.0
        for index, at in enumerate(workload.arrival_times()):
            yield env.timeout(at - previous)
            previous = at
            request = InferenceRequest(index=index, arrival_time=env.now)
            requests.append(request)
            env.process(
                self._serve(env, server_he, service, rig, request, buffered)
            )
