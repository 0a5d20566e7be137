"""Streaming private-inference system simulation.

Models the paper's deployment of one server and ``num_clients`` identical
clients (one, for every figure): per client, Poisson inference requests
served FIFO, a storage budget that bounds how many offline pre-computes
can be buffered, offline pipelines that refill the buffer during idle
time, and a TDD wireless link shared between offline transfers and online
traffic; across clients, the server's HE and GC compute. This is the
machinery behind Figures 7, 10, 12, and 13 and §5.2's multi-client claim.

Offline parallelism strategies (§5.2):

* ``lphe``  — one pre-compute at a time, its HE layers spread across all
  server cores (makespan = LPT schedule of layer times).
* ``rlp``   — request-level parallelism: many concurrent pre-computes,
  each confined to a single core on both devices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.core.wsa import optimal_upload_fraction
from repro.network.bandwidth import TddLink
from repro.profiling.devices import ATOM, EPYC, DeviceProfile
from repro.profiling.model_costs import NetworkCostProfile, Protocol
from repro.runtime.state import derive_worker_seed
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
    total_bps: float = 1e9
    wsa: bool = True
    parallelism: OfflineParallelism = OfflineParallelism.LPHE
    # Identical clients, each with its own device, link, storage and
    # request stream, sharing the one server (§5.2's closing discussion).
    num_clients: int = 1

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("need at least one client")

    def link(self) -> TddLink:
        volumes = self.profile.comm(self.protocol)
        fraction = optimal_upload_fraction(volumes) if self.wsa else 0.5
        return TddLink(self.total_bps, fraction)

    def gc_roles(self, client, server):
        """``(garbler, evaluator)`` out of a client-side and a server-side thing.

        The one place the protocol assigns the GC roles: called with the
        two device profiles for the stage durations and with the two
        parties' resources for the simulation rig.
        """
        if self.protocol is Protocol.CLIENT_GARBLER:
            return client, server
        return server, client

    @property
    def precompute_footprint(self) -> float:
        """Client bytes held per buffered pre-compute."""
        return self.profile.storage(self.protocol).client_bytes

    @property
    def buffer_capacity(self) -> int:
        """How many pre-computes each client can hold at once."""
        return int(self.client_storage_bytes // self.precompute_footprint)

    @property
    def workers_per_client(self) -> int:
        """Concurrent offline pipelines refilling one client's buffer."""
        if self.parallelism is OfflineParallelism.RLP:
            return min(self.server.cores, self.buffer_capacity)
        return 1


@dataclass(frozen=True)
class PipelineTimes:
    """Seconds each protocol stage holds its resource, for one inference."""

    client_he: float
    server_he: float
    garble: float
    offline_up: float
    offline_down: float
    online_up: float
    online_down: float
    gc_eval: float
    ss: float

    @property
    def offline_seconds(self) -> float:
        """One pre-compute, its stages run back to back."""
        return (
            self.client_he
            + self.server_he
            + self.garble
            + self.offline_up
            + self.offline_down
        )

    @property
    def online_seconds(self) -> float:
        return self.online_up + self.online_down + self.gc_eval + self.ss


def pipeline_times(config: SystemConfig) -> PipelineTimes:
    profile = config.profile
    if config.parallelism is OfflineParallelism.LPHE:
        server_he = profile.he_lphe_seconds(config.server, config.server.cores)
    else:  # SEQUENTIAL and RLP both run one layer at a time on one core
        server_he = profile.he_sequential_seconds(config.server)
    garbler, evaluator = config.gc_roles(config.client, config.server)
    garble = profile.garble_seconds(garbler)
    if config.parallelism is OfflineParallelism.RLP:
        garble *= garbler.cores  # single-core worker on a multi-core budget
    volumes = profile.comm(config.protocol)
    link = config.link()
    return PipelineTimes(
        client_he=profile.client_he_seconds(config.client),
        server_he=server_he,
        garble=garble,
        offline_up=link.upload_seconds(volumes.offline_up),
        offline_down=link.download_seconds(volumes.offline_down),
        online_up=link.upload_seconds(volumes.online_up),
        online_down=link.download_seconds(volumes.online_down),
        gc_eval=profile.gc_eval_seconds(evaluator),
        ss=profile.ss_online_seconds(config.server),
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class SimulationResult:
    """Aggregated outcome of one replication (fleet-wide unless per client)."""

    per_client: list[list[InferenceRequest]]

    @property
    def requests(self) -> list[InferenceRequest]:
        return [r for requests in self.per_client for r in requests]

    @property
    def completed(self) -> list[InferenceRequest]:
        return [r for r in self.requests if r.completion_time is not None]

    @property
    def mean_latency(self) -> float:
        return _mean([r.latency for r in self.completed])

    def client_mean_latency(self, index: int) -> float:
        return SimulationResult([self.per_client[index]]).mean_latency

    @property
    def mean_queue(self) -> float:
        return _mean([r.queue_seconds for r in self.completed])

    @property
    def mean_offline(self) -> float:
        return _mean([r.offline_seconds for r in self.completed])

    @property
    def mean_online(self) -> float:
        return _mean([r.online_seconds for r in self.completed])

    @property
    def precompute_hit_rate(self) -> float:
        return _mean([float(r.used_precompute) for r in self.completed])


class PiSystemSimulator:
    """Discrete-event model of N clients' PI serving on one server."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.times = pipeline_times(config)

    # -- simulation processes ---------------------------------------------------

    def _offline_pipeline(self, env, rig):
        """One pre-compute: client HE, server HE, garbling, transfers."""
        t = self.times
        yield from _hold(env, rig["client_he"], t.client_he)
        yield from _hold(env, rig["server_he"], t.server_he)
        yield from _hold(env, rig["garble"], t.garble)
        yield from _hold(env, rig["up"], t.offline_up)
        yield from _hold(env, rig["down"], t.offline_down)

    def _worker(self, env, rig):
        """Continuously refill the pre-compute buffer while storage allows."""
        footprint = self.config.precompute_footprint
        while True:
            yield rig["storage"].get(footprint)
            yield env.process(self._offline_pipeline(env, rig))
            rig["buffer"].put(object())

    def _serve(self, env, rig, request: InferenceRequest, buffered: bool):
        t = self.times
        yield rig["service"].request()
        request.service_start = env.now
        if buffered:
            yield rig["buffer"].get()
            request.used_precompute = request.service_start == env.now
        else:
            yield env.process(self._offline_pipeline(env, rig))
        request.offline_seconds = env.now - request.service_start

        online_start = env.now
        yield from _hold(env, rig["up"], t.online_up)
        yield from _hold(env, rig["down"], t.online_down)
        yield from _hold(env, rig["eval"], t.gc_eval)
        yield env.timeout(t.ss)
        request.online_seconds = env.now - online_start
        request.completion_time = env.now
        rig["service"].release()
        if buffered:
            yield rig["storage"].put(self.config.precompute_footprint)

    def _arrivals(self, env, rig, arrival_times, requests, buffered):
        previous = 0.0
        for index, at in enumerate(arrival_times):
            yield env.timeout(at - previous)
            previous = at
            request = InferenceRequest(index=index, arrival_time=env.now)
            requests.append(request)
            env.process(self._serve(env, rig, request, buffered))

    # -- entry point -----------------------------------------------------------

    def run(self, workload: PoissonWorkload) -> SimulationResult:
        """Simulate one replication, until every arrived request completes.

        (The paper reports mean latency over all requests of the 24 h
        window; workers block once buffer and storage fill, so the event
        queue drains on its own.) Client 0 draws its arrivals from
        ``workload`` itself, client ``c`` from the same process on a
        stream hash-derived from ``(workload.seed, c)``.
        """
        env = Environment()
        config = self.config
        rlp = config.parallelism is OfflineParallelism.RLP
        buffered = config.buffer_capacity >= 1
        # The buffer starts full (steady-state assumption, as in the paper's
        # Figure 7 where the near-zero-rate latency is purely online).
        prefill = config.buffer_capacity

        def compute(device: DeviceProfile) -> dict[str, Resource]:
            """One party's compute: every core on one job, or (RLP) a job per
            core. GC evaluation is never split, so it takes the whole device."""
            slots = device.cores if rlp else 1
            return {
                "he": Resource(env, slots),
                "garble": Resource(env, slots),
                "eval": Resource(env, 1),
            }

        server = compute(config.server)
        per_client: list[list[InferenceRequest]] = []
        for index in range(config.num_clients):
            client = compute(config.client)
            garbler, evaluator = config.gc_roles(client, server)
            rig = {
                "service": Resource(env, 1),  # FIFO per client
                "up": Resource(env, 1),
                "down": Resource(env, 1),
                "client_he": client["he"],
                "server_he": server["he"],
                "garble": garbler["garble"],
                "eval": evaluator["eval"],
                "storage": Container(
                    env, max(config.client_storage_bytes, 1.0),
                    init=config.client_storage_bytes
                    - prefill * config.precompute_footprint,
                ),
                "buffer": Store(env),
            }
            for _ in range(prefill):
                rig["buffer"].put(object())
            arrivals = workload if index == 0 else replace(
                workload, seed=derive_worker_seed(workload.seed, index)
            )
            requests: list[InferenceRequest] = []
            per_client.append(requests)
            env.process(
                self._arrivals(env, rig, arrivals.arrival_times(), requests, buffered)
            )
            if buffered:
                for _ in range(config.workers_per_client):
                    env.process(self._worker(env, rig))
        env.run()
        return SimulationResult(per_client)


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
