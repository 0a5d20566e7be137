"""The serialized multi-client serving loop.

Serving N interleaved clients from one shared pool and per-client store
namespaces produces logits byte-identical to per-client sequential runs —
including under a byte budget tight enough that admissions evict other
clients' precomputes (a miss demand-mints; it must never surface a stale
or mismatched precompute).
"""

import numpy as np
import pytest

from repro import HybridProtocol, tiny_dataset, tiny_mlp
from repro.he.params import fast_params
from repro.runtime import PrecomputeStore, ServingLoop

PARAMS = fast_params(n=256)


def _network(hidden=8):
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    return network


# -- serving loop ---------------------------------------------------------------


def test_serving_loop_matches_per_client_sequential_runs(tmp_path):
    """4 interleaved clients, one store: logits byte-identical to each
    client running its own mint-then-serve sequence alone."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    loop = ServingLoop(network, PARAMS, 4, store, garbler="client")
    inputs = loop.draw_inputs(1)
    report = loop.run(1, inputs=inputs)

    assert len(report.requests) == 4
    assert report.num_clients == 4
    assert report.hit_rate == 1.0  # ample budget: every request buffered
    assert report.demand_mints == 0
    assert report.max_queue_depth == 3
    assert report.total_mint_seconds > 0
    for request in report.requests:
        assert request.online_seconds > 0
        c = int(request.client[len("client"):])
        sequential = HybridProtocol(
            network, PARAMS, garbler="client", seed=loop.mint_seed(c, 0)
        )
        sequential.run_offline()
        assert request.logits == sequential.run_online(inputs[c][0])


def test_serving_loop_eviction_never_serves_stale(tmp_path):
    """Budget fits ~2 of 4 clients' precomputes: admissions evict, misses
    demand-mint, and every result still matches the plaintext oracle."""
    network = _network()
    store = PrecomputeStore(tmp_path, byte_budget=200_000)
    loop = ServingLoop(network, PARAMS, 4, store, garbler="client")
    inputs = loop.draw_inputs(2)
    report = loop.run(2, inputs=inputs)

    assert report.evictions > 0
    assert report.demand_mints > 0
    assert store.total_bytes <= 200_000
    oracle = HybridProtocol(network, PARAMS, garbler="client", seed=0)
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == oracle.plaintext_reference(
            inputs[c][request.index]
        )
    # Queue depths drain monotonically under the round-robin schedule.
    assert [r.queue_depth for r in report.requests] == list(range(7, -1, -1))


def test_serving_loop_without_prefill_demand_mints_everything(tmp_path):
    network = _network()
    store = PrecomputeStore(tmp_path)
    loop = ServingLoop(
        network, PARAMS, 2, store, garbler="client", prefill=0, refill=False
    )
    report = loop.run(1)
    assert report.hit_rate == 0.0
    assert report.demand_mints == 2
    assert report.minted == 2


def test_serving_loop_rejects_budget_below_one_precompute(tmp_path):
    network = _network()
    store = PrecomputeStore(tmp_path, byte_budget=10_000)  # < one entry
    loop = ServingLoop(network, PARAMS, 1, store, garbler="client")
    with pytest.raises(ValueError, match="budget"):
        loop.run(1)


def test_serving_report_summary_is_json_serializable(tmp_path):
    import json

    network = _network()
    loop = ServingLoop(
        network, PARAMS, 2, PrecomputeStore(tmp_path), garbler="server",
        refill=False,
    )
    report = loop.run(1)
    summary = json.loads(json.dumps(report.summary()))
    assert summary["clients"] == 2
    assert summary["requests"] == 2
    assert summary["max_queue_depth"] == report.max_queue_depth
    assert len(summary["occupancy"]) == report.minted + len(report.requests)
    # A reused loop reports only the second run's activity (deltas/slices).
    second = loop.run(1)
    assert second.minted == 2
    assert len(second.occupancy) == second.minted + len(second.requests)


def test_demo_cleans_up_created_store_dir(tmp_path, monkeypatch, capsys):
    """demo() must remove the temp store dir it created — and only that.

    A host running the smoke entry point repeatedly must not accrete
    orphaned store directories; a caller-supplied ``store_dir`` stays
    untouched (it is the caller's directory, not the demo's).
    """
    import tempfile

    from repro.runtime.serving import demo

    created = []
    real_mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        kwargs.setdefault("dir", str(tmp_path))
        path = real_mkdtemp(*args, **kwargs)
        created.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    summary_path = tmp_path / "summary.json"
    demo(
        num_clients=1, requests_per_client=1, workers=1,
        summary_path=str(summary_path),
    )
    assert len(created) == 1
    import json
    import os

    assert not os.path.exists(created[0])  # cleaned up after the run
    summary = json.loads(summary_path.read_text())  # written before cleanup
    assert summary["store_dir"] == created[0]

    supplied = tmp_path / "keep-me"
    supplied.mkdir()
    demo(num_clients=1, requests_per_client=1, workers=1,
         store_dir=str(supplied))
    assert supplied.exists()  # caller-owned directory is preserved
    assert len(created) == 1  # and no temp dir was created for it
