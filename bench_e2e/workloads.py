"""The four closed-loop workloads.

Each workload is ``setup()`` followed by rounds; ``round(i)`` does one
fixed unit of work and returns its raw timings (the runner brackets it
with the calibration kernel). Weights, inputs and protocol seeds derive
from the seed alone, so two runs with one seed do identical work. Only
public entry points of ``repro`` are driven.

Failures never raise out of a round: an operation that raised, was
refused or returned logits different from ``plaintext_reference`` counts
in its round's ``failed``, and every breached consistency check adds one
more (``Workload.breaches``). Both leave a line in ``Workload.messages``.
"""

from __future__ import annotations

import contextlib
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.backend import backend_for
from repro.core.lowering import lower_network, plaintext_reference
from repro.core.protocol import HybridProtocol
from repro.core.validation import CommValidation, predict_comm
from repro.he.params import delphi_params, fast_params
from repro.nn.datasets import tiny_dataset
from repro.nn.models import tiny_mlp
from repro.runtime.gateway import GatewayClient, ServingGateway
from repro.runtime.pool import PrecomputePool
from repro.runtime.store import KIND_OFFLINE, PrecomputeStore

from bench_e2e.trace import layer_totals

UNTRACED = "untraced"  # an operation's own span: wall no wrapper accounts for
COMM_TOLERANCE = 0.05  # measured vs predict_comm, as tests/test_core_validation.py
POOL_WORKERS = 2

clock = time.perf_counter


@dataclass
class RoundResult:
    wall_s: float
    attempted: int
    failed: int
    samples: dict[str, list[float]]
    # phase -> layer totals; "round" covers the whole round, each span once
    layers: dict[str, dict] = field(default_factory=dict)


def mint_blob(job) -> bytes:
    """Pool job: one whole offline phase, returned as its store entry.

    ``serve_warm`` needs a precompute per request, and the gateway mints only
    in ``start()`` (prefill) or on its refill thread. Prefill would put every
    mint of the run into each of the set-ups ``setup_s`` repeats, and refill is
    what ``serve_refill`` measures. So the workload mints on the shared pool
    itself, between request stages, with the job the gateway's own mints run,
    and admits the blobs through the public store API.
    """
    network, params, garbler, seed = job
    protocol = HybridProtocol(
        network, params, garbler=garbler, seed=seed, workers=1, transport="memory"
    )
    try:
        protocol.run_offline()
        return protocol.offline_blob()
    finally:
        protocol.shutdown()


def worker_rss_mb(_job) -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters_dict(counters) -> dict[str, int]:
    return {f.name: getattr(counters, f.name) for f in fields(counters)}


class Workload:
    """Shared plumbing: model, inputs, failure ledger, trace windows."""

    name = ""
    garbler = "client"
    hidden = 8
    many_requests = False  # enough latency samples per run for a 90th percentile

    def __init__(self, seed: int, tracer, tmp_root: str):
        self.seed = seed
        self.tracer = tracer
        self.tmp_root = tmp_root
        self.messages: list[str] = []  # one line per failed operation or check
        self.breaches = 0  # failed consistency checks (not operations)
        self.cleanup = contextlib.ExitStack()  # what set-up opened, for close()
        self.facts: dict[str, float] = {}  # exact numbers: bytes, counters
        self._first: dict[str, object] = {}

    # -- seeded inputs ------------------------------------------------------

    def build_model(self, params):
        network = tiny_mlp(
            tiny_dataset(size=4, channels=1, classes=3), hidden=self.hidden
        )
        network.randomize_weights(params.t, np.random.default_rng([self.seed, 0]))
        self.params = params
        self.network = network
        self.backend = backend_for(params.t, prefer=params.backend).name
        self.oracle = lower_network(network, params.t, backend=params.backend)
        return network

    def draw_input(self, *index: int) -> tuple[list[int], list[int]]:
        """(client input, expected logits) for one operation."""
        rng = np.random.default_rng([self.seed, 1, *index])
        x = rng.integers(0, self.params.t, size=self.oracle.input_size).tolist()
        return x, plaintext_reference(self.oracle, x, prefer=self.params.backend)

    def protocol_seed(self, *index: int) -> int:
        return int(np.random.default_rng([self.seed, 2, *index]).integers(1 << 62))

    # -- checks -------------------------------------------------------------

    def breach(self, message: str) -> None:
        self.messages.append(message)
        self.breaches += 1

    def same_every_round(self, what: str, value) -> None:
        first = self._first.setdefault(what, value)
        if value != first:
            self.breach(f"{what} changed between rounds: {first} -> {value}")

    def record_inference(self, protocol, first: bool) -> None:
        """Exact numbers of one inference; every later one must repeat them."""
        summary = protocol.channel.summary()
        counters = counters_dict(protocol.counters)
        self.same_every_round("channel.summary()", summary)
        self.same_every_round("ProtocolCounters", counters)
        if not first:
            return
        validation = CommValidation(summary, predict_comm(protocol))
        if validation.worst_error >= COMM_TOLERANCE:
            self.breach(
                f"channel bytes off predict_comm: {validation.relative_errors()}"
            )
        self.facts.update(
            counters,
            offline_bytes=summary["offline_up"] + summary["offline_down"],
            online_bytes=summary["online_up"] + summary["online_down"],
            precompute_bytes=len(protocol.offline_blob()),
        )

    # -- tracing ------------------------------------------------------------

    def totals(self, mark) -> dict:
        """Layer totals since ``mark`` (nothing while the tracer is off)."""
        if not self.tracer.enabled:
            return {}
        return layer_totals(self.tracer.since(mark))

    def op(self, label: str):
        """Root span of one operation (records nothing while the tracer is off)."""
        self.tracer.operation = label
        return self.tracer.span(UNTRACED)

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def finish(self) -> dict[str, float]:
        """End-of-run checks; returns workload-level per-layer numbers."""
        return {}

    def close(self) -> None:
        self.cleanup.close()


# -- one inference per round ----------------------------------------------------


class Inference(Workload):
    """``HybridProtocol``: construct, ``run_offline()``, ``run_online(x)``."""

    transport = "memory"

    def make_params(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.build_model(self.make_params())
        if self.round(0).failed:  # untimed: fills NTT/circuit caches, lazy imports
            self.breach("warm-up inference failed")

    def round(self, index: int) -> RoundResult:
        x, expected = self.draw_input(index)
        samples: dict[str, list[float]] = {}
        layers: dict[str, dict] = {}
        protocol = None
        correct = False
        start = clock()
        try:
            round_mark = mark = self.tracer.mark()
            with self.op(f"r{index}.offline"):
                protocol = HybridProtocol(
                    self.network, self.params, garbler=self.garbler,
                    seed=self.protocol_seed(index), transport=self.transport,
                )
                protocol.run_offline()
            offline_done = clock()
            layers["offline"] = self.totals(mark)
            mark = self.tracer.mark()
            with self.op(f"r{index}.online"):
                correct = protocol.run_online(x) == expected
            done = clock()
            layers["online"] = self.totals(mark)
            layers["round"] = self.totals(round_mark)
            samples = {
                "offline": [offline_done - start],
                "online": [done - offline_done],
                "latency": [done - start],
            }
            if not correct:
                self.messages.append(
                    f"round {index}: logits differ from plaintext_reference"
                )
            self.record_inference(protocol, first=index == 0)
        except Exception as exc:  # an operation that raised is a failed operation
            correct = False
            done = clock()
            self.messages.append(f"round {index}: {exc!r}")
        finally:
            if protocol is not None:
                protocol.shutdown()
        return RoundResult(done - start, 1, 0 if correct else 1, samples, layers)


class InferCgDelphi(Inference):
    name = "infer_cg_delphi"

    def make_params(self):
        return delphi_params()


class InferSgWide(Inference):
    name = "infer_sg_wide"
    garbler = "server"
    hidden = 128
    transport = "socket"

    def make_params(self):
        return fast_params(n=256)


# -- requests through the gateway -------------------------------------------------


class Serving(Workload):
    """``ServingGateway`` in this process, keep-alive ``GatewayClient``s."""

    num_clients = 1
    refill = False
    many_requests = True

    def setup(self) -> None:
        network = self.build_model(fast_params(n=256))
        self.errors: list[BaseException] = []
        self.store = PrecomputeStore(tempfile.mkdtemp(dir=self.tmp_root))
        self.pool = self.cleanup.enter_context(PrecomputePool(workers=POOL_WORKERS))
        self.gateway = ServingGateway(
            network, self.params, self.num_clients, self.store, pool=self.pool,
            garbler=self.garbler, prefill=1, refill=self.refill,
            base_seed=self.protocol_seed(0) % (1 << 31),
        )
        self.gateway.start()  # forks the pool, mints one precompute per client
        self._stop = threading.Event()
        self._server = threading.Thread(
            target=self._serve, name="bench-gateway", daemon=True
        )
        self._server.start()
        self.cleanup.callback(self._stop_gateway)
        shape = lower_network(
            network, self.params.t, backend=self.params.backend, shape_only=True
        )
        self.clients = [
            self.cleanup.enter_context(GatewayClient(
                self.gateway.host, self.gateway.port, network, self.params,
                garbler=self.garbler, client_id=self.gateway.client_id(c),
                seed=self.protocol_seed(1, c), lowered=shape,
            ))
            for c in range(self.num_clients)
        ]
        self._reference_inference()
        for c in range(self.num_clients):  # untimed warm-up, takes the prefill
            if not self.request(c, 0, 0)[1]:
                self.breach(f"warm-up request of client {c} failed")
        self.gateway.drain_refills()
        self._online_seen = [(0, 0)] * self.num_clients
        self.check_online_bytes()  # the warm-up requests set the baseline

    def _stop_gateway(self) -> None:
        self._stop.set()
        self._server.join(timeout=30.0)
        self.gateway.stop(drain=False, timeout=5.0)

    def _serve(self) -> None:
        try:
            self.gateway.serve(1 << 60, timeout=None, abort=self._stop.is_set)
        except BaseException as exc:  # surfaced by finish()
            self.errors.append(exc)

    def _reference_inference(self) -> None:
        """One in-process inference of the served model: its exact bytes."""
        x, expected = self.draw_input(0, self.num_clients, 0)  # no client's stream
        protocol = HybridProtocol(
            self.network, self.params, garbler=self.garbler,
            seed=self.protocol_seed(2), transport="memory",
        )
        try:
            protocol.run_offline()
            if protocol.run_online(x) != expected:
                self.breach("reference inference differs from plaintext_reference")
            self.record_inference(protocol, first=True)
        finally:
            protocol.shutdown()

    def request(self, c: int, round_index: int, j: int) -> tuple[float, bool]:
        """One request of client ``c``: (raw latency, verified)."""
        x, expected = self.draw_input(round_index, c, j)
        # One label per request only while one request is in flight at a time.
        label = f"r{round_index}.{j}" if self.num_clients == 1 else f"r{round_index}"
        start = clock()
        try:
            with self.op(label):
                ok = self.clients[c].request(x) == expected
            if not ok:
                self.messages.append(f"{label} client {c}: wrong logits")
        except Exception as exc:  # raised or refused (GOAWAY): a failed operation
            ok = False
            self.messages.append(f"{label} client {c}: {exc!r}")
        return clock() - start, ok

    def online_seconds(self, report, count: int) -> list[float]:
        """Mean gateway-side online phase wall of the last ``count`` requests.

        One sample per round, not one per request: with two clients the
        phase takes either ~0.13 s or, when both sessions compute at once
        and share the GIL, twice that, and the median of such a two-humped
        pool jumps with the mix. A round's mean moves with it smoothly.
        """
        served = report.requests[-count:]
        return [statistics.fmean(r.online_seconds for r in served)]

    def check_online_bytes(self) -> None:
        """Each request moved exactly the reference inference's online bytes."""
        for c, client in enumerate(self.clients):
            summary = client.session.channel.summary()
            total = summary["online_up"] + summary["online_down"]
            seen_bytes, seen_requests = self._online_seen[c]
            self._online_seen[c] = (total, client.admitted)
            expected = (client.admitted - seen_requests) * self.facts["online_bytes"]
            if total - seen_bytes != expected:
                self.breach(
                    f"client {c} moved {total - seen_bytes} online bytes, "
                    f"expected {expected}"
                )

    def finish(self) -> dict[str, float]:
        self.gateway.check_refills()
        report = self.gateway.report()
        if self.errors:
            self.breach(f"gateway thread died: {self.errors[0]!r}")
        ledger = (report.requests_admitted + report.requests_deferred
                  + report.requests_rejected)
        if ledger != report.requests_issued:
            self.breach(
                f"admission ledger unbalanced: {ledger} != {report.requests_issued}"
            )
        if report.requests_rejected or report.dropped_sessions:
            self.breach(
                f"{report.requests_rejected} rejected, "
                f"{report.dropped_sessions} dropped"
            )
        stored = self.store.total_bytes // max(1, self.store.entry_count)
        if self.store.entry_count and stored != self.facts["precompute_bytes"]:
            self.breach(
                f"store entry is {stored} B, offline_blob() "
                f"{self.facts['precompute_bytes']} B"
            )
        rss = max(self.pool.map_jobs(worker_rss_mb, range(2 * POOL_WORKERS)))
        return {
            "gateway.hit_share": report.hit_rate,
            "gateway.demand_mints": report.demand_mints,
            "gateway.deferred_share": (
                report.requests_deferred / max(1, report.requests_issued)
            ),
            "gateway.refill_overlap_s": report.refill_overlap_seconds,
            "store.evictions": report.evictions,
            "pool.peak_rss_mb": rss,
        }


class ServeWarm(Serving):
    """Mint a batch on the pool, then drain it with back-to-back hits."""

    name = "serve_warm"
    batch = 6  # three mints per pool worker, then six requests

    def round(self, index: int) -> RoundResult:
        key = self.gateway.store_key(self.gateway.client_id(0))
        round_mark = self.tracer.mark()
        start = clock()
        jobs = [
            self.pool.apply_async(
                mint_blob,
                (self.network, self.params, self.garbler,
                 self.protocol_seed(3, index, k)),
            )
            for k in range(self.batch)
        ]
        for k, job in enumerate(jobs):
            self.store.put(key, KIND_OFFLINE, job.get(),
                           name=f"r{index:04d}-{k:02d}")
        minted = clock()
        mark = self.tracer.mark()
        outcomes = [self.request(0, index, j) for j in range(self.batch)]
        done = clock()
        layers = {"request": self.totals(mark), "round": self.totals(round_mark)}
        report = self.gateway.report()
        self.check_online_bytes()
        failed = sum(1 for _, ok in outcomes if not ok)
        return RoundResult(
            done - minted, self.batch, failed,
            {
                "offline": [(minted - start) / self.batch],
                "online": self.online_seconds(report, self.batch),
                "latency": [latency for latency, ok in outcomes if ok],
                "mint": [(minted - start) / self.batch],
            },
            layers,
        )

    def finish(self) -> dict[str, float]:
        out = super().finish()
        if out["gateway.hit_share"] != 1 or out["gateway.demand_mints"] != 0:
            self.breach(
                f"serve_warm must be all hits: hit_share "
                f"{out['gateway.hit_share']}, demand_mints "
                f"{out['gateway.demand_mints']}"
            )
        return out


class ServeRefill(Serving):
    """Two clients, no think time: requests wait on in-flight refill mints."""

    name = "serve_refill"
    num_clients = 2
    refill = True
    burst = 5

    def setup(self) -> None:
        super().setup()
        self._last_report = self.gateway.report()

    def round(self, index: int) -> RoundResult:
        outcomes: list[list[tuple[float, bool]]] = [[] for _ in self.clients]
        gate = threading.Barrier(self.num_clients + 1)

        def drive(c: int) -> None:
            gate.wait(timeout=60.0)
            for j in range(self.burst):
                outcomes[c].append(self.request(c, index, j))

        threads = [
            threading.Thread(target=drive, args=(c,), daemon=True)
            for c in range(self.num_clients)
        ]
        for thread in threads:
            thread.start()
        mark = self.tracer.mark()
        gate.wait(timeout=60.0)
        start = clock()
        for thread in threads:
            thread.join(timeout=300.0)
        done = clock()
        if any(thread.is_alive() for thread in threads):
            self.breach(f"round {index}: a client thread did not finish")
        self.gateway.drain_refills()
        totals = self.totals(mark)
        before, report = self._last_report, self.gateway.report()
        self._last_report = report
        self.check_online_bytes()
        mints = report.minted - before.minted
        flat = [pair for per_client in outcomes for pair in per_client]
        attempted = self.num_clients * self.burst
        samples = {
            "online": self.online_seconds(report, len(flat)),
            "latency": [latency for latency, ok in flat if ok],
        }
        if mints:
            samples["offline"] = [
                (report.refill_seconds - before.refill_seconds) / mints
            ]
            samples["mint"] = [(done - start) / mints]
        failed = attempted - sum(1 for _, ok in flat if ok)
        return RoundResult(done - start, attempted, failed, samples,
                           {"request": totals, "round": totals})


WORKLOADS = {
    cls.name: cls for cls in (InferCgDelphi, InferSgWide, ServeWarm, ServeRefill)
}
