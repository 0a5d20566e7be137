"""The one functional serving run, :func:`repro.workload.cli.demo_workload`,
as ``python -m repro --workload closed --workload-think 0`` drives it: N
clients, R requests each, zero think time."""

import json
import os
import tempfile

import pytest

from repro.workload.cli import demo_workload


def _serve(clients, requests, **kwargs):
    return demo_workload(
        "closed", clients=clients, requests=requests, think=0.0, workers=1,
        **kwargs,
    )


@pytest.fixture
def recorded_mkdtemp(tmp_path, monkeypatch):
    """Every temp dir the run makes, created under ``tmp_path``."""
    created = []
    real_mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        kwargs.setdefault("dir", str(tmp_path))
        path = real_mkdtemp(*args, **kwargs)
        created.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    return created


def test_demo_cleans_up_created_store_dir(tmp_path, recorded_mkdtemp):
    """The run must remove the temp store dir it created — and only that.

    A host running the smoke entry point repeatedly must not accrete
    orphaned store directories; a caller-supplied ``store_dir`` stays
    untouched (it is the caller's directory, not the run's).
    """
    created = recorded_mkdtemp
    artifact_path = tmp_path / "artifact.json"
    _serve(1, 1, out_path=str(artifact_path))
    assert len(created) == 1
    assert not os.path.exists(created[0])  # cleaned up after the run
    summary = json.loads(artifact_path.read_text())["summary"]
    assert summary["store_dir"] == created[0]

    supplied = tmp_path / "keep-me"
    supplied.mkdir()
    _serve(1, 1, store_dir=str(supplied))
    assert supplied.exists()  # caller-owned directory is preserved
    assert len(created) == 1  # and no temp dir was created for it


def test_demo_budget_below_one_entry_leaves_no_temp_dir(recorded_mkdtemp):
    """A budget smaller than one precompute fails the gateway's prefill
    with the store's ``ValueError``, and the temp store dir the run made
    is removed on the way out all the same."""
    created = recorded_mkdtemp
    with pytest.raises(ValueError, match="exceeds the"):
        _serve(1, 1, budget_mb=0.01)
    assert len(created) == 1
    assert not os.path.exists(created[0])


def test_demo_matches_per_client_sequential_runs(tmp_path):
    """4 clients through the gateway: each served logit vector is
    byte-identical to that client running its own mint-then-serve
    sequence alone, ``HybridProtocol(seed=mint_seed(0, c, 0))``."""
    from repro import HybridProtocol
    from repro.runtime.serving import (
        demo_network_and_params,
        draw_inputs,
        mint_seed,
    )

    report = _serve(4, 1, store_dir=str(tmp_path))

    assert len(report.requests) == 4
    assert report.num_clients == 4
    assert report.hit_rate == 1.0  # ample budget: every request buffered
    assert report.demand_mints == 0
    assert report.minted == 4
    assert report.total_mint_seconds > 0
    network, params = demo_network_and_params()
    inputs = draw_inputs(network, params, [1] * 4)
    for request in report.requests:
        assert request.online_seconds > 0
        c = int(request.client[len("client"):])
        sequential = HybridProtocol(
            network, params, garbler="client", seed=mint_seed(0, c, 0)
        )
        sequential.run_offline()
        assert request.logits == sequential.run_online(inputs[c][0])


def test_demo_eviction_never_serves_stale(tmp_path):
    """A 0.15 MB budget holds 3 of 4 clients' precomputes: the prefill
    evicts, the evicted client's request demand-mints, the store never
    exceeds the budget, and every result is the plaintext oracle's."""
    from repro.core.lowering import lower_network, plaintext_reference
    from repro.runtime.serving import demo_network_and_params, draw_inputs

    report = _serve(4, 2, budget_mb=0.15, store_dir=str(tmp_path))

    assert len(report.requests) == 8
    assert report.evictions > 0
    assert report.demand_mints > 0
    assert max(sample["bytes"] for sample in report.occupancy) <= 150_000
    network, params = demo_network_and_params()
    oracle = lower_network(network, params.t)
    inputs = draw_inputs(network, params, [2] * 4)
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == plaintext_reference(
            oracle, inputs[c][request.index]
        )


def test_demo_report_summary_is_json_serializable(tmp_path):
    """The summary ``--workload-out`` writes round-trips through JSON and
    agrees with the report it digests: one occupancy sample per mint and
    per served request, one keep-alive connection per client."""
    artifact_path = tmp_path / "artifact.json"
    report = _serve(2, 1, store_dir=str(tmp_path / "store"),
                    out_path=str(artifact_path))

    summary = json.loads(artifact_path.read_text())["summary"]
    assert summary == json.loads(json.dumps(summary))
    assert summary["clients"] == 2
    assert summary["requests"] == 2
    assert summary["connections_accepted"] == 2
    assert summary["max_queue_depth"] == report.max_queue_depth
    assert summary["store_dir"] == str(tmp_path / "store")
    assert len(summary["occupancy"]) == report.minted + len(report.requests)
    # Each party's bytes of one entry add up to what the store holds per
    # entry; the Client-Garbler client keeps r, its shares and a seed.
    split = summary["party_bytes"]
    minted = next(sample for sample in summary["occupancy"] if sample["entries"])
    assert split["garbler"] == "client" and split["client"] < 1_000
    assert (
        split["client"] + split["server"] + split["shared"]
        == minted["bytes"] // minted["entries"]
    )
