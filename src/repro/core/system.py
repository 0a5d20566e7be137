"""Streaming private-inference system simulation.

Models the paper's single-client / single-server deployment: Poisson
inference requests served FIFO, a client storage budget that bounds how
many offline pre-computes can be buffered, offline pipelines that refill
the buffer during idle time, and a TDD wireless link shared between
offline transfers and online traffic. This is the machinery behind
Figures 7, 10, 12, and 13.

Offline parallelism strategies (§5.2):

* ``lphe``  — one pre-compute at a time, its HE layers spread across all
  server cores (makespan = LPT schedule of layer times).
* ``rlp``   — request-level parallelism: many concurrent pre-computes,
  each confined to a single core on both devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.wsa import optimal_upload_fraction
from repro.network.bandwidth import TddLink
from repro.profiling.devices import ATOM, EPYC, DeviceProfile
from repro.profiling.model_costs import NetworkCostProfile, Protocol
from repro.simulation.engine import Container, Environment, Resource, Store
from repro.workload.generators import InferenceRequest, PoissonWorkload


def _hold(env, resource: Resource, seconds: float):
    """Simulation process step: hold ``resource`` for ``seconds``."""
    yield resource.request()
    yield env.timeout(seconds)
    resource.release()


class OfflineParallelism(Enum):
    SEQUENTIAL = "sequential"  # baseline DELPHI: one pre-compute, one HE core
    LPHE = "lphe"  # one pre-compute, HE layers spread across server cores
    RLP = "rlp"  # many single-core pre-computes in parallel


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one simulated deployment."""

    profile: NetworkCostProfile
    protocol: Protocol = Protocol.CLIENT_GARBLER
    client: DeviceProfile = ATOM
    server: DeviceProfile = EPYC
    client_storage_bytes: float = 16e9
    server_storage_bytes: float = 10_000e9
    total_bps: float = 1e9
    wsa: bool = True
    parallelism: OfflineParallelism = OfflineParallelism.LPHE
    # Compute backend ('auto'/'python'/'numpy') the functional substrate of
    # this deployment runs on. The analytic simulation itself is
    # backend-agnostic; :meth:`functional_bfv_params` threads the tag into
    # BfvParams for callers that instantiate real crypto for a simulated
    # deployment.
    compute_backend: str = "auto"

    def functional_bfv_params(self, n: int = 256, t_bits: int = 17):
        """BFV parameters for a functional run of this deployment.

        Returns vectorization-friendly parameters carrying this config's
        ``compute_backend`` preference, so a :class:`~repro.core.protocol.
        HybridProtocol` built from them runs the crypto substrate on the
        backend the deployment specifies.
        """
        from repro.he.params import fast_params

        return fast_params(n=n, t_bits=t_bits, backend=self.compute_backend)

    def functional_store(self, root, byte_budget: float | None = None):
        """A :class:`~repro.runtime.PrecomputeStore` for this deployment.

        The store's global byte budget defaults to this config's
        ``client_storage_bytes`` — the functional analogue of the
        simulator's storage container. Pass an explicit ``byte_budget``
        (or ``0`` for unbounded) for scaled-down functional runs whose
        tiny precomputes would never pressure a 16 GB budget.
        """
        from repro.runtime.store import PrecomputeStore

        budget = self.client_storage_bytes if byte_budget is None else byte_budget
        return PrecomputeStore(
            root, byte_budget=int(budget) if budget else None
        )

    def link(self) -> TddLink:
        volumes = self.profile.comm(self.protocol)
        fraction = optimal_upload_fraction(volumes) if self.wsa else 0.5
        return TddLink(self.total_bps, fraction)

    @property
    def precompute_footprint(self) -> float:
        """Client bytes held per buffered pre-compute."""
        return self.profile.storage(self.protocol).client_bytes

    @property
    def buffer_capacity(self) -> int:
        """How many pre-computes the client can hold at once."""
        return int(self.client_storage_bytes // self.precompute_footprint)


@dataclass(frozen=True)
class PipelineTimes:
    """Durations of the offline pipeline stages for one pre-compute."""

    client_he: float
    server_he: float
    garble: float
    offline_up_bytes: float
    offline_down_bytes: float


def pipeline_times(config: SystemConfig) -> PipelineTimes:
    profile, protocol = config.profile, config.protocol
    if config.parallelism is OfflineParallelism.LPHE:
        server_he = profile.he_lphe_seconds(config.server, config.server.cores)
    else:  # SEQUENTIAL and RLP both run one layer at a time on one core
        server_he = profile.he_sequential_seconds(config.server)
    garbler = config.client if protocol is Protocol.CLIENT_GARBLER else config.server
    garble = profile.garble_seconds(garbler)
    if config.parallelism is OfflineParallelism.RLP:
        garble *= garbler.cores  # single-core worker on a multi-core budget
    volumes = profile.comm(protocol)
    return PipelineTimes(
        client_he=profile.client_he_seconds(config.client),
        server_he=server_he,
        garble=garble,
        offline_up_bytes=volumes.offline_up,
        offline_down_bytes=volumes.offline_down,
    )


@dataclass
class SimulationResult:
    """Aggregated outcome of one replication."""

    requests: list[InferenceRequest]

    @property
    def completed(self) -> list[InferenceRequest]:
        return [r for r in self.requests if r.completion_time is not None]

    def _mean(self, values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_latency(self) -> float:
        return self._mean([r.latency for r in self.completed])

    @property
    def mean_queue(self) -> float:
        return self._mean([r.queue_seconds for r in self.completed])

    @property
    def mean_offline(self) -> float:
        return self._mean([r.offline_seconds for r in self.completed])

    @property
    def mean_online(self) -> float:
        return self._mean([r.online_seconds for r in self.completed])

    @property
    def precompute_hit_rate(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(1 for r in done if r.used_precompute) / len(done)


class PiSystemSimulator:
    """Discrete-event model of the two-party PI serving system."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.times = pipeline_times(config)
        self.link = config.link()

    # -- simulation processes ---------------------------------------------------

    def _offline_pipeline(self, env, rig):
        """One pre-compute: client HE, server HE, garbling, transfers."""
        t = self.times
        yield from _hold(env, rig["client_he"], t.client_he)
        yield from _hold(env, rig["server_he"], t.server_he)
        yield from _hold(env, rig["garble"], t.garble)
        yield from _hold(
            env, rig["up"], self.link.upload_seconds(t.offline_up_bytes)
        )
        yield from _hold(
            env, rig["down"], self.link.download_seconds(t.offline_down_bytes)
        )

    def _worker(self, env, rig):
        """Continuously refill the pre-compute buffer while storage allows."""
        footprint = self.config.precompute_footprint
        while True:
            yield rig["storage"].get(footprint)
            yield env.process(self._offline_pipeline(env, rig))
            rig["buffer"].put(object())

    def _serve(self, env, rig, request: InferenceRequest, workers_enabled: bool):
        profile, config = self.config.profile, self.config
        yield rig["service"].request()
        request.service_start = env.now
        start = env.now
        reserved = False
        if workers_enabled:
            yield rig["buffer"].get()
            request.used_precompute = request.service_start == env.now
            reserved = True
        else:
            yield env.process(self._offline_pipeline(env, rig))
        request.offline_seconds = env.now - start

        online_start = env.now
        volumes = profile.comm(config.protocol)
        yield from _hold(
            env, rig["up"], self.link.upload_seconds(volumes.online_up)
        )
        yield from _hold(
            env, rig["down"], self.link.download_seconds(volumes.online_down)
        )
        evaluator = (
            config.client
            if config.protocol is Protocol.SERVER_GARBLER
            else config.server
        )
        yield from _hold(env, rig["eval"], profile.gc_eval_seconds(evaluator))
        yield env.timeout(profile.ss_online_seconds(config.server))
        request.online_seconds = env.now - online_start
        request.completion_time = env.now
        rig["service"].release()
        if reserved:
            yield rig["storage"].put(config.precompute_footprint)

    def _arrivals(self, env, rig, arrival_times, requests, workers_enabled):
        previous = 0.0
        for index, at in enumerate(arrival_times):
            yield env.timeout(at - previous)
            previous = at
            request = InferenceRequest(index=index, arrival_time=env.now)
            requests.append(request)
            env.process(self._serve(env, rig, request, workers_enabled))

    # -- entry point -----------------------------------------------------------

    def run(self, workload: PoissonWorkload, drain: bool = True) -> SimulationResult:
        """Simulate one replication of the workload.

        With ``drain`` the simulation runs until every arrived request
        completes (the paper reports mean latency over all requests of the
        24 h window).
        """
        env = Environment()
        config = self.config
        workers_enabled = config.buffer_capacity >= 1
        rlp = config.parallelism is OfflineParallelism.RLP
        # The buffer starts full (steady-state assumption, as in the paper's
        # Figure 7 where the near-zero-rate latency is purely online).
        prefill = config.buffer_capacity if workers_enabled else 0
        rig = {
            "service": Resource(env, 1),
            "up": Resource(env, 1),
            "down": Resource(env, 1),
            "client_he": Resource(env, config.client.cores if rlp else 1),
            "server_he": Resource(env, config.server.cores if rlp else 1),
            "garble": Resource(
                env,
                (config.client.cores if config.protocol is Protocol.CLIENT_GARBLER
                 else config.server.cores) if rlp else 1,
            ),
            "eval": Resource(env, 1),
            "storage": Container(
                env, max(config.client_storage_bytes, 1.0),
                init=config.client_storage_bytes
                - prefill * config.precompute_footprint,
            ),
            "buffer": Store(env),
        }
        for _ in range(prefill):
            rig["buffer"].put(object())
        requests: list[InferenceRequest] = []
        env.process(
            self._arrivals(env, rig, workload.arrival_times(), requests, workers_enabled)
        )
        if workers_enabled:
            worker_count = (
                min(config.server.cores, max(1, config.buffer_capacity))
                if rlp
                else 1
            )
            for _ in range(worker_count):
                env.process(self._worker(env, rig))
        env.run(until=workload.horizon)
        if drain:
            # Let in-flight requests finish (workers eventually idle once the
            # buffer and storage fill, so the event queue drains naturally).
            env.run(until=workload.horizon + 1000 * 24 * 3600)
        return SimulationResult(requests=list(requests))


def simulate_mean_latency(
    config: SystemConfig,
    mean_interarrival: float,
    horizon: float = 24 * 3600,
    replications: int = 5,
    seed: int = 0,
) -> dict[str, float]:
    """Replicate the workload and average the latency decomposition."""
    totals = {"latency": 0.0, "queue": 0.0, "offline": 0.0, "online": 0.0, "hit": 0.0}
    sim = PiSystemSimulator(config)
    for rep in range(replications):
        workload = PoissonWorkload(mean_interarrival, horizon, seed=seed + rep)
        result = sim.run(workload)
        totals["latency"] += result.mean_latency
        totals["queue"] += result.mean_queue
        totals["offline"] += result.mean_offline
        totals["online"] += result.mean_online
        totals["hit"] += result.precompute_hit_rate
    return {key: value / replications for key, value in totals.items()}
