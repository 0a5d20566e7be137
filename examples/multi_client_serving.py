"""Multi-client PI serving: RLP's sweet spot (§5.2), measured for real.

N clients share one server: per-client precomputes are minted as whole
mints side by side on ONE shared PrecomputePool (the paper's
request-level parallelism), admitted into per-client namespaces of one
PrecomputeStore under a *global* byte budget, and drained by the
ServingGateway: the requests are replayed as a zero-think closed-loop
schedule by in-process driver threads, many live sockets multiplexed by
one selector thread while refill mints run in background pool workers.
Under a tight budget one client's admission evicts another's
least-recently-used precompute, and the victim's next request pays a
demand mint — the measured analogue of the buffer dynamics the analytic
simulator models.

Run:  python examples/multi_client_serving.py --clients 4 --requests 2 \
          --budget-mb 4

After the served run, two more demos: one forks an OS process per client
against a gateway hosted in this process (every logit verified in the
client processes), and one forks a server process that hosts
ServerSessions behind a listening socket while this process drives
ClientSessions against it — the parties share nothing but serialized
wire messages.

Add --analytic to also run the paper-scale system model (PiSystemSimulator,
resnet18 profile, 1 / 9 / 64 clients of 16 GB, RLP beside LPHE) next to
the measured tiny-network run.
"""

import argparse
import multiprocessing

import numpy as np

from repro.runtime.serving import ServingReport, demo_network_and_params
from repro.workload.cli import demo_workload


def _socket_server_main(port_queue, num_sessions: int, garbler: str) -> None:
    """Server process: accept one connection per inference and serve it.

    Owns the weights; everything it exchanges with the client process is
    a serialized wire message over TCP.
    """
    from repro.core.session import ServerSession
    from repro.network.transport import SocketListener

    network, params = demo_network_and_params()
    with SocketListener() as listener:
        port_queue.put(listener.port)
        for index in range(num_sessions):
            transport = listener.accept(timeout=60.0)
            session = ServerSession(
                network, params=params, garbler=garbler,
                seed=1000 + index, transport=transport,
            )
            session.run_offline()
            session.run_online()
            session.close()


def two_process_demo(clients: int, requests: int, garbler: str = "client") -> None:
    """Full protocol runs across two OS processes over loopback TCP."""
    from repro.core.lowering import lower_network, plaintext_reference
    from repro.core.session import ClientSession
    from repro.network.transport import SocketTransport

    network, params = demo_network_and_params()
    lowered = lower_network(network, params.t)  # this demo's oracle
    total = clients * requests
    port_queue = multiprocessing.Queue()
    server = multiprocessing.Process(
        target=_socket_server_main, args=(port_queue, total, garbler)
    )
    server.start()
    clean = False
    try:
        port = port_queue.get(timeout=30)
        print(
            f"\ntwo-process loopback demo: server pid {server.pid} on "
            f"127.0.0.1:{port}, {clients} client(s) x {requests} request(s)"
        )
        rng = np.random.default_rng(42)
        index = 0
        for c in range(clients):
            for j in range(requests):
                x = rng.integers(0, params.t, size=16).tolist()
                transport = SocketTransport.connect("127.0.0.1", port)
                # ClientSession lowers shape-only: it reads the layer
                # widths and ReLU placement, never the weights.
                session = ClientSession(
                    network, params=params, garbler=garbler,
                    seed=index, transport=transport,
                )
                session.run_offline()
                logits = session.run_online(x)
                session.close()
                assert logits == plaintext_reference(lowered, x)
                summary = session.channel.summary()
                print(
                    f"  client{c} request {j}: logits match the plaintext "
                    f"reference (offline {summary['offline_up'] + summary['offline_down']} B, "
                    f"online {summary['online_up'] + summary['online_down']} B over TCP)"
                )
                index += 1
        clean = True
    finally:
        if not clean:
            # A client-side failure leaves the server blocked in accept();
            # kill it immediately so the real error surfaces without a
            # long join timeout in front of it.
            server.terminate()
        server.join(timeout=60)
        if server.is_alive():
            server.terminate()
            server.join()
    print(
        "two-process demo complete: the parties shared no Python state — "
        "only serialized wire messages (functional fidelity: OT rounds are "
        "simulated, see ARCHITECTURE.md 'Session & transport layering')"
    )


def _gateway_client_main(port: int, client_index: int, requests: int,
                         garbler: str) -> None:
    """Client process: one keep-alive connection, all requests over it.

    Reconstructs the demo network locally only to know the public layer
    shapes and the plaintext oracle; every protocol byte crosses the
    gateway's TCP socket. One HELLO, then a REQ per inference — the
    ClientSession is recycled between requests, never rebuilt.
    """
    from repro.core.lowering import lower_network, plaintext_reference
    from repro.runtime.client import GatewayClient

    network, params = demo_network_and_params()
    oracle = lower_network(network, params.t)
    shape = lower_network(network, params.t, shape_only=True)
    rng = np.random.default_rng(4200 + client_index)
    client = GatewayClient(
        "127.0.0.1", port, network, params, garbler=garbler,
        client_id=f"client{client_index}", lowered=shape,
    )
    try:
        for j in range(requests):
            x = rng.integers(0, params.t, size=16).tolist()
            logits = client.request(x, request_index=j)
            assert logits == plaintext_reference(oracle, x)
    finally:
        client.close()


def gateway_forked_demo(clients: int, requests: int, garbler: str = "client",
                        workers: int | None = None,
                        budget_mb: float = 8.0) -> None:
    """One gateway in this process, one forked OS process per client."""
    import shutil
    import tempfile

    from repro.runtime.gateway import ServingGateway
    from repro.runtime.pool import PrecomputePool
    from repro.runtime.store import PrecomputeStore

    network, params = demo_network_and_params()
    root = tempfile.mkdtemp(prefix="repro-gateway-")
    store = PrecomputeStore(root, byte_budget=int(budget_mb * 1e6) or None)
    procs = []
    try:
        with PrecomputePool(workers=workers) as pool:
            gateway = ServingGateway(
                network, params, clients, store, pool=pool, garbler=garbler,
                expected_per_client=requests,
            )
            gateway.start()
            print(
                f"\nforked-client gateway demo: {clients} client process(es) "
                f"x {requests} request(s) against 127.0.0.1:{gateway.port} "
                f"({pool.workers} refill worker(s))"
            )
            procs = [
                multiprocessing.Process(
                    target=_gateway_client_main,
                    args=(gateway.port, c, requests, garbler),
                )
                for c in range(clients)
            ]
            for p in procs:
                p.start()
            gateway.serve(clients * requests, timeout=600.0)
            for p in procs:
                p.join(timeout=60)
            gateway.check_refills()
            gateway.stop()
            report = gateway.report()
        assert all(p.exitcode == 0 for p in procs), [p.exitcode for p in procs]
        print(
            f"  all {len(report.requests)} logit vectors verified in the "
            f"client processes (hit rate {report.hit_rate:.2f})"
        )
        print(
            f"  peak {report.peak_live_sessions} live session(s), refill "
            f"overlap {report.refill_overlap_seconds:.2f}s of "
            f"{report.serve_seconds:.2f}s served, "
            f"{report.throughput_rps:.2f} req/s"
        )
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join()
        shutil.rmtree(root, ignore_errors=True)


def functional_run(args) -> ServingReport:
    # The zero-think closed workload drives the whole mint -> admit ->
    # drain lifecycle and checks every served logit vector against the
    # plaintext field evaluation — eviction pressure must never surface a
    # stale result. This is `python -m repro --workload closed
    # --workload-think 0`.
    return demo_workload(
        "closed",
        clients=args.clients,
        requests=args.requests,
        think=0.0,
        workers=args.workers,
        budget_mb=args.budget_mb,
        store_dir=args.store,
        out_path=args.summary,
    )


def analytic_run() -> None:
    from repro import (
        TINY_IMAGENET,
        OfflineParallelism,
        PiSystemSimulator,
        Protocol,
        SystemConfig,
        profile_network,
        resnet18,
    )
    from repro.workload.generators import PoissonWorkload

    profile = profile_network(resnet18(TINY_IMAGENET))

    def run(clients: int, parallelism: OfflineParallelism):
        config = SystemConfig(
            profile=profile,
            protocol=Protocol.CLIENT_GARBLER,
            client_storage_bytes=16e9,
            wsa=True,
            parallelism=parallelism,
            num_clients=clients,
        )
        return PiSystemSimulator(config).run(
            PoissonWorkload(mean_interarrival=60 * 60, horizon=24 * 3600, seed=1)
        )

    print("\nsystem model at paper scale (resnet18, 16 GB clients, 1 req/h each):")
    for clients in (1, 9, 64):
        rlp = run(clients, OfflineParallelism.RLP)
        lphe = run(clients, OfflineParallelism.LPHE)
        print(
            f"  {clients:2d} clients x 16 GB: {len(rlp.completed)} done, RLP fleet "
            f"mean {rlp.mean_latency / 60:.1f} min (client 0 "
            f"{rlp.client_mean_latency(0) / 60:.1f} min) | LPHE fleet mean "
            f"{lphe.mean_latency / 60:.1f} min"
        )
    print("under RLP per-client latency stays near the 1-client row however many")
    print("clients share the server; LPHE spends every core on one pre-compute,")
    print("so it wins while the server keeps up and runs away once it cannot.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--requests", type=int, default=1, help="online requests per client"
    )
    parser.add_argument(
        "--budget-mb", type=float, default=4.0,
        help="global store byte budget in MB (LRU eviction above this; "
        "0 = unbounded)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="whole-mint worker processes (default: REPRO_WORKERS, then "
        "all cores)",
    )
    parser.add_argument(
        "--store", default=None,
        help="store directory (default: a temporary directory)",
    )
    parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="write the workload artifact JSON (schedule + the "
        "queue-depth/occupancy summary) here",
    )
    parser.add_argument(
        "--analytic", action="store_true",
        help="also run the paper-scale analytic multi-client simulator",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable the telemetry spine (tracing + metrics); logits are "
        "byte-identical either way",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --telemetry: export Chrome trace-event JSONL "
        "(load at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="with --telemetry: write Prometheus text exposition here",
    )
    args = parser.parse_args()
    if args.telemetry:
        from repro import telemetry

        telemetry.configure(enabled=True)
    functional_run(args)
    gateway_forked_demo(
        min(args.clients, 4), max(1, min(args.requests, 2)),
        workers=args.workers, budget_mb=args.budget_mb or 8.0,
    )
    two_process_demo(min(args.clients, 2), max(1, min(args.requests, 2)))
    if args.analytic:
        analytic_run()
    if args.telemetry:
        from repro.telemetry import METRICS, TRACER

        if args.trace_out:
            count = TRACER.export_jsonl(args.trace_out)
            print(f"wrote {count} trace events to {args.trace_out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(METRICS.to_prometheus())
            print(f"wrote metrics to {args.metrics_out}")


if __name__ == "__main__":
    main()
