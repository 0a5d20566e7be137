"""Disk-backed precompute store: round-trips, LRU eviction, persistence,
and serving the protocol's online phase from precomputes minted earlier."""

import numpy as np
import pytest

from repro import HybridProtocol, tiny_dataset, tiny_mlp
from repro.he.params import fast_params, toy_params
from repro.runtime import PrecomputeStore, StoreKey, params_fingerprint
from repro.runtime.store import KIND_RELU

KEY = StoreKey(model="m", params="p", client="c0")


def test_put_get_round_trip(tmp_path):
    store = PrecomputeStore(tmp_path)
    name = store.put(KEY, KIND_RELU, b"hello-bytes")
    assert store.get(KEY, KIND_RELU, name) == b"hello-bytes"
    assert store.total_bytes == len(b"hello-bytes")
    assert store.entry_count == 1
    assert store.names(KEY, KIND_RELU) == [name]
    # Unknown lookups are None / empty, not errors.
    assert store.get(KEY, KIND_RELU, "nope") is None
    assert store.names(KEY, "other") == []


def test_take_consumes_oldest_first(tmp_path):
    store = PrecomputeStore(tmp_path)
    store.put(KEY, KIND_RELU, b"first", name="a")
    store.put(KEY, KIND_RELU, b"second", name="b")
    assert store.take(KEY, KIND_RELU) == b"first"
    assert store.names(KEY, KIND_RELU) == ["b"]
    assert store.take(KEY, KIND_RELU) == b"second"
    assert store.take(KEY, KIND_RELU) is None
    assert store.entry_count == 0


def test_take_drains_fifo_even_after_peeks(tmp_path):
    """get() refreshes LRU recency but must not reorder the FIFO drain."""
    store = PrecomputeStore(tmp_path)
    store.put(KEY, KIND_RELU, b"first", name="a")
    store.put(KEY, KIND_RELU, b"second", name="b")
    assert store.get(KEY, KIND_RELU, "a") == b"first"  # peek bumps recency
    assert store.take(KEY, KIND_RELU) == b"first"  # still oldest-inserted
    assert store.take(KEY, KIND_RELU) == b"second"


def test_lru_eviction_respects_access_order(tmp_path):
    store = PrecomputeStore(tmp_path, byte_budget=30)
    store.put(KEY, KIND_RELU, b"x" * 10, name="a")
    store.put(KEY, KIND_RELU, b"x" * 10, name="b")
    store.put(KEY, KIND_RELU, b"x" * 10, name="c")
    assert store.evictions == 0
    # Touch "a" so "b" becomes least recently used.
    assert store.get(KEY, KIND_RELU, "a") is not None
    store.put(KEY, KIND_RELU, b"x" * 10, name="d")
    assert store.evictions == 1
    assert store.get(KEY, KIND_RELU, "b") is None
    assert store.get(KEY, KIND_RELU, "a") is not None
    assert store.total_bytes <= 30


def test_oversized_entry_is_rejected(tmp_path):
    store = PrecomputeStore(tmp_path, byte_budget=8)
    with pytest.raises(ValueError):
        store.put(KEY, KIND_RELU, b"x" * 9)
    assert store.entry_count == 0


def test_index_persists_across_reopen(tmp_path):
    store = PrecomputeStore(tmp_path, byte_budget=100)
    store.put(KEY, KIND_RELU, b"x" * 10, name="a")
    store.put(KEY, KIND_RELU, b"y" * 10, name="b")
    reopened = PrecomputeStore(tmp_path, byte_budget=100)
    assert reopened.entry_count == 2
    assert reopened.get(KEY, KIND_RELU, "a") == b"x" * 10
    # LRU sequencing carries over: "b" is now older than the touched "a".
    reopened.put(KEY, KIND_RELU, b"z" * 90, name="big")
    assert reopened.get(KEY, KIND_RELU, "b") is None
    assert reopened.get(KEY, KIND_RELU, "a") is not None


def test_dotted_ids_cannot_escape_store_root(tmp_path):
    root = tmp_path / "store"
    store = PrecomputeStore(root)
    evil = StoreKey(model="..", params="..", client="..")
    store.put(evil, KIND_RELU, b"payload", name="esc")
    inside = [p for p in root.rglob("*") if p.is_file()]
    outside = [
        p
        for p in tmp_path.rglob("*")
        if p.is_file() and root not in p.parents
    ]
    assert any(p.name == "relu-esc.bin" for p in inside)
    assert outside == []


def test_params_fingerprint_distinguishes_parameter_sets():
    assert params_fingerprint(fast_params(n=256)) != params_fingerprint(
        toy_params(n=256)
    )
    assert params_fingerprint(fast_params(n=256)) == params_fingerprint(
        fast_params(n=256)
    )


# -- index durability ------------------------------------------------------------


def test_save_index_survives_crash_mid_write(tmp_path, monkeypatch):
    """Torn-write regression: index.json is written via temp + os.replace,
    so a crash during the write leaves the previous index intact."""
    import repro.runtime.store as store_module

    store = PrecomputeStore(tmp_path)
    store.put(KEY, KIND_RELU, b"safe", name="a")

    real_replace = store_module.os.replace

    def crashing_replace(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(store_module.os, "replace", crashing_replace)
    with pytest.raises(OSError):
        store.put(KEY, KIND_RELU, b"lost", name="b")
    monkeypatch.setattr(store_module.os, "replace", real_replace)

    # The published index is the last complete one: valid JSON, entry "a"
    # present, and nothing torn — the old in-place write would have left
    # a truncated file here. "b"'s already-written payload is unindexed,
    # so reopening sweeps it (with a warning) to keep accounting true.
    with pytest.warns(RuntimeWarning, match="not present in the index"):
        reopened = PrecomputeStore(tmp_path)
    assert reopened.get(KEY, KIND_RELU, "a") == b"safe"
    assert "b" not in reopened.names(KEY, KIND_RELU)
    assert not list(tmp_path.rglob("relu-b.bin"))


def test_unindexed_payload_is_swept_on_open(tmp_path):
    """A crash between a payload write and its index update leaves a .bin
    the (valid) index doesn't know about; opening the store deletes it."""
    store = PrecomputeStore(tmp_path)
    store.put(KEY, KIND_RELU, b"indexed", name="a")
    orphan = tmp_path / "m" / "p" / "c0" / "relu-ghost.bin"
    orphan.write_bytes(b"x" * 50)
    with pytest.warns(RuntimeWarning, match="not present in the index"):
        reopened = PrecomputeStore(tmp_path)
    assert not orphan.exists()
    assert reopened.get(KEY, KIND_RELU, "a") == b"indexed"
    assert reopened.total_bytes == len(b"indexed")


def test_leftover_tmp_index_is_discarded_on_open(tmp_path):
    store = PrecomputeStore(tmp_path)
    store.put(KEY, KIND_RELU, b"payload", name="a")
    tmp = tmp_path / "index.json.tmp"
    tmp.write_text('{"seq": 99, "entr')  # torn write of a dead process
    reopened = PrecomputeStore(tmp_path)
    assert not tmp.exists()
    assert reopened.get(KEY, KIND_RELU, "a") == b"payload"


@pytest.mark.parametrize(
    "corruption",
    [b"{torn json", b"[1, 2, 3]", b'{"seq": "x", "entries": []}'],
    ids=["torn", "not-a-dict", "wrong-types"],
)
def test_corrupt_index_warns_and_sweeps_orphans(tmp_path, corruption):
    """A reset index must not silently leak payload bytes: every now-
    unindexed .bin file is deleted so byte-budget accounting stays true."""
    store = PrecomputeStore(tmp_path)
    store.put(KEY, KIND_RELU, b"x" * 100, name="a")
    store.put(KEY, KIND_RELU, b"y" * 100, name="b")
    (tmp_path / "index.json").write_bytes(corruption)

    with pytest.warns(RuntimeWarning, match="orphaned payload"):
        reopened = PrecomputeStore(tmp_path, byte_budget=150)
    assert reopened.entry_count == 0
    assert reopened.total_bytes == 0
    assert list(tmp_path.rglob("*.bin")) == []
    # The store is immediately usable again under its budget.
    reopened.put(KEY, KIND_RELU, b"z" * 100, name="c")
    assert reopened.get(KEY, KIND_RELU, "c") == b"z" * 100


def test_missing_index_does_not_warn(tmp_path):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = PrecomputeStore(tmp_path / "fresh")
    assert store.entry_count == 0


# -- offline-then-online through the store --------------------------------------


def _protocol(garbler, seed, **kwargs):
    params = fast_params(n=256)
    dataset = tiny_dataset(size=4, channels=1, classes=3)
    network = tiny_mlp(dataset, hidden=8)
    network.randomize_weights(params.t, np.random.default_rng(0))
    return (
        HybridProtocol(network, params, garbler=garbler, seed=seed, **kwargs),
        params,
    )


@pytest.mark.parametrize("garbler", ["server", "client"])
def test_offline_export_import_serves_online(tmp_path, garbler):
    store = PrecomputeStore(tmp_path)
    minter, params = _protocol(garbler, seed=42)
    minter.run_offline()
    minter.export_offline(store, "tiny_mlp")

    x = np.random.default_rng(1).integers(0, params.t, size=16).tolist()
    expected = minter.plaintext_reference(x)

    # A fresh protocol instance (different seed — its own RNG never has
    # to match the minter's) serves the online phase from the store.
    server, _ = _protocol(garbler, seed=777)
    assert server.import_offline(store, "tiny_mlp")
    assert server.run_online(x) == expected
    # Consumed: the buffer drained, a second import finds nothing.
    assert not server.import_offline(store, "tiny_mlp")


def test_import_offline_without_consume_keeps_entry(tmp_path):
    store = PrecomputeStore(tmp_path)
    minter, params = _protocol("server", seed=5)
    minter.run_offline()
    minter.export_offline(store, "tiny_mlp")
    server, _ = _protocol("server", seed=6)
    assert server.import_offline(store, "tiny_mlp", consume=False)
    assert store.entry_count == 1


def test_import_offline_rejects_mismatched_network(tmp_path):
    store = PrecomputeStore(tmp_path)
    minter, params = _protocol("server", seed=5)
    minter.run_offline()
    minter.export_offline(store, "tiny_mlp")

    dataset = tiny_dataset(size=4, channels=1, classes=3)
    other_network = tiny_mlp(dataset, hidden=4)  # different hidden width
    other_network.randomize_weights(params.t, np.random.default_rng(0))
    other = HybridProtocol(other_network, params, garbler="server", seed=6)
    with pytest.raises(ValueError):
        other.import_offline(store, "tiny_mlp")


def test_import_offline_rejects_wrong_garbler_role(tmp_path):
    """A transcript minted under one role must not bind to the other —
    the mask owner flips, so every stored label map keys wrong wires."""
    store = PrecomputeStore(tmp_path)
    minter, _ = _protocol("client", seed=5)
    minter.run_offline()
    minter.export_offline(store, "tiny_mlp")
    other, _ = _protocol("server", seed=6)
    with pytest.raises(ValueError, match="garbler"):
        other.import_offline(store, "tiny_mlp")
    # The rejected entry survives for the protocol it actually fits.
    assert store.entry_count == 1
    match, _ = _protocol("client", seed=7)
    assert match.import_offline(store, "tiny_mlp")


def test_import_offline_rejects_moved_relu_structure(tmp_path):
    """Same linear widths, different ReLU placement: rejected, not consumed."""
    from repro.nn.layers import Flatten, Linear
    from repro.nn.network import Network

    store = PrecomputeStore(tmp_path)
    minter, params = _protocol("server", seed=5)
    minter.run_offline()
    minter.export_offline(store, "tiny_mlp")

    dataset = tiny_dataset(size=4, channels=1, classes=3)
    s = dataset.input_shape
    no_relu = Network(
        "NoRelu", s,
        [
            Flatten(),
            Linear(s.elements, 8, name="fc1"),
            Linear(8, dataset.num_classes, name="fc2"),
        ],
    )
    no_relu.randomize_weights(params.t, np.random.default_rng(0))
    other = HybridProtocol(no_relu, params, garbler="server", seed=6)
    with pytest.raises(ValueError, match="ReLU"):
        other.import_offline(store, "tiny_mlp")
    assert store.entry_count == 1  # rejected transcripts stay buffered
