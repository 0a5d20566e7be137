"""Offline-then-online serving through the precompute runtime.

Mints offline precomputes — garbled ReLU layers, OT correlations, HE
share vectors — as whole-mint jobs, one per worker process of a
:class:`~repro.runtime.PrecomputePool` (the paper's request-level
parallelism), persists them in a disk-backed
:class:`~repro.runtime.PrecomputeStore` (the functional analogue of the
paper's client storage buffer), then
serves inferences whose online phase consumes the stored precomputes one
by one, exactly the buffer-drain cycle the streaming simulator models.

Run:  python examples/offline_precompute.py --workers 4 --precomputes 3

A mint is a pure function of its seed and compute backend, so a blob
minted in a worker is byte-identical to the same mint run in-process;
--workers only changes how many mints run side by side.
"""

import argparse
import tempfile
import time

import numpy as np

from repro import (
    HybridProtocol,
    PrecomputePool,
    PrecomputeStore,
    tiny_cnn,
    tiny_dataset,
    toy_params,
)
from repro.runtime import StoreKey, mint_offline_job
from repro.runtime.store import KIND_OFFLINE

MODEL_ID = "tiny_cnn_w4"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="whole-mint worker processes (default: REPRO_WORKERS, then all "
        "cores)",
    )
    parser.add_argument(
        "--precomputes", type=int, default=2,
        help="how many offline precomputes to mint into the store",
    )
    parser.add_argument(
        "--serve", type=int, default=None, metavar="N",
        help="serve at most N inferences from the store (default: drain "
        "it; pass fewer than --precomputes to leave minted entries on "
        "disk, e.g. for artifact inspection)",
    )
    parser.add_argument(
        "--store", default=None,
        help="store directory (default: a temporary directory)",
    )
    parser.add_argument(
        "--budget-mb", type=float, default=64.0,
        help="store byte budget in MB (LRU eviction above this)",
    )
    args = parser.parse_args()

    params = toy_params(n=256)
    dataset = tiny_dataset(size=4, channels=1, classes=3)
    network = tiny_cnn(dataset, width=4)  # wider conv layers per ROADMAP
    network.randomize_weights(params.t, np.random.default_rng(3))
    print(network.summary())

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-precompute-")
    store = PrecomputeStore(store_dir, byte_budget=int(args.budget_mb * 1e6))
    print(f"\nstore: {store_dir} (budget {args.budget_mb:.0f} MB)")

    # -- offline: one whole-mint job per precompute, side by side -----------
    key = StoreKey.for_protocol(MODEL_ID, params, "client0")
    with PrecomputePool(workers=args.workers) as pool:
        print(
            f"minting {args.precomputes} precomputes on {pool.workers} "
            "worker process(es)..."
        )
        t0 = time.perf_counter()
        jobs = [
            pool.apply_async(
                mint_offline_job, (network, params, "client", 100 + i, 0)
            )
            for i in range(args.precomputes)
        ]
        for job in jobs:
            try:
                name = store.put(key, KIND_OFFLINE, job.get())
            except ValueError as exc:
                # One precompute alone exceeds the budget: the paper's
                # buffer_capacity == 0 case — buffering is impossible.
                print(f"  cannot buffer: {exc}")
                return
            print(f"  minted precompute {name}")
        minted_seconds = time.perf_counter() - t0
    print(
        f"offline phase: {minted_seconds:.2f}s total, "
        f"{store.total_bytes / 1e6:.2f} MB stored, {store.evictions} evictions"
    )

    # -- online: serve inferences from the store ----------------------------
    rng = np.random.default_rng(4)
    served = 0
    while args.serve is None or served < args.serve:
        protocol = HybridProtocol(network, params, garbler="client", seed=999)
        if not protocol.import_offline(store, MODEL_ID):
            break  # buffer drained — the offline pipeline must refill
        x = rng.integers(0, params.t, size=16).tolist()
        t0 = time.perf_counter()
        prediction = protocol.run_online(x)
        online_seconds = time.perf_counter() - t0
        assert prediction == protocol.plaintext_reference(x)
        served += 1
        print(
            f"  inference {served}: online {online_seconds * 1e3:.0f} ms, "
            f"prediction {prediction} (matches plaintext)"
        )
    print(
        f"served {served} inferences from stored precomputes; "
        f"store now holds {store.entry_count} entries"
    )


if __name__ == "__main__":
    main()
