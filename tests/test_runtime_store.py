"""Disk-backed precompute store: round-trips, LRU eviction, persistence,
and serving the protocol's online phase from precomputes minted earlier."""

import random
from collections import defaultdict

import numpy as np
import pytest

from repro import HybridProtocol, tiny_dataset, tiny_mlp
from repro.core.protocol import party_storage_bytes
from repro.he.params import fast_params, toy_params
from repro.runtime import PrecomputeStore, StoreKey, params_fingerprint
from repro.runtime.store import (
    KIND_OFFLINE,
    KIND_RELU,
    StoreIndex,
    deserialize_offline_transcript,
)

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


def test_gateway_take_path_evicts_in_admission_order(tmp_path):
    """The gateway reads an offline entry only to consume it
    (``ServingGateway._take_precompute``: one ``take`` of the oldest
    name), so no survivor's LRU recency is ever refreshed: the
    store's victims are the oldest-admitted survivors, the admission
    order that ``replay_analytic``'s unit-size ``StoreIndex`` evicts in
    too (it never calls ``get``)."""
    keys = [StoreKey(model="m", params="p", client=f"c{c}") for c in range(3)]
    store = PrecomputeStore(tmp_path, byte_budget=60)  # six 10-byte entries
    admit_order: list[tuple[int, str]] = []

    def put(c: int, name: str) -> None:
        store.put(keys[c], KIND_OFFLINE, b"x" * 10, name=name)
        admit_order.append((c, name))
        while len(admit_order) > 6:
            admit_order.pop(0)

    def take(c: int) -> None:
        name = store.names(keys[c], KIND_OFFLINE)[0]
        assert store.take(keys[c], KIND_OFFLINE) is not None
        admit_order.remove((c, name))

    def stored() -> set:
        return {
            (c, name) for c in range(3)
            for name in store.names(keys[c], KIND_OFFLINE)
        }

    for j in range(2):  # round-robin prefill, as the gateway's
        for c in range(3):
            put(c, f"{j:08d}")
    take(1)
    take(0)
    for c, name in [(0, "00000002"), (1, "00000002"), (2, "00000002"),
                    (0, "00000003")]:
        put(c, name)
    assert store.evictions == 2
    # Client 2's first entry and client 0's second went: the two
    # oldest-admitted survivors, whatever the takes read before them.
    assert (2, "00000000") not in stored() and (0, "00000001") not in stored()
    assert stored() == set(admit_order)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_store_and_bare_index_agree(tmp_path, seed):
    """One seeded run of puts, takes (oldest and by name), gets and
    same-name replacements over three namespaces, driven through a
    byte-budget store of equal-size entries and through a bare unit-size
    ``StoreIndex``: the same victims, the same order per namespace and
    the same eviction count after every step, and again after the store
    is reopened from its ``index.json``."""
    rng = random.Random(seed)
    keys = [StoreKey(model="m", params="p", client=f"c{c}") for c in range(3)]
    store = PrecomputeStore(tmp_path, byte_budget=60)  # six 10-byte entries
    index = StoreIndex(6)
    minted = [0, 0, 0]

    def held() -> set:
        return {(c, n) for c in range(3) for n in store.names(keys[c], KIND_RELU)}

    def agree() -> None:
        for c in range(3):
            assert store.names(keys[c], KIND_RELU) == index.names(c)
            assert store.count(keys[c], KIND_RELU) == index.count(c)
        assert store.evictions == index.evictions
        assert store.entry_count == len(index)

    def put(c: int, name: str, mark: bytes) -> None:
        before = held()
        store.put(keys[c], KIND_RELU, f"{c}".encode() + mark + name.encode(),
                  name=name)
        victims = index.put(c, name, 1)
        assert before - held() == set(victims)

    def run(steps: int) -> None:
        for _ in range(steps):
            c = rng.randrange(3)
            names = index.names(c)
            op = rng.choice(["put", "put", "put", "replace", "take",
                             "take_named", "get", "get"])
            if op == "put" or not names:
                put(c, f"{minted[c]:08d}", b":")
                minted[c] += 1
            elif op == "replace":
                put(c, rng.choice(names), b"=")
            elif op == "get":
                name = rng.choice(names)
                assert store.get(keys[c], KIND_RELU, name)[2:] == name.encode()
                assert index.get(c, name)
            else:
                name = rng.choice(names) if op == "take_named" else None
                blob = store.take(keys[c], KIND_RELU, name)
                assert blob[2:].decode() == index.take(c, name)
            agree()

    run(150)
    assert index.evictions > 0
    store = PrecomputeStore(tmp_path, byte_budget=60)
    index.evictions = 0  # a reopened store counts its own evictions
    agree()
    run(60)


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


def _protocol(garbler, seed, hidden=8, **kwargs):
    params = fast_params(n=256)
    dataset = tiny_dataset(size=4, channels=1, classes=3)
    network = tiny_mlp(dataset, hidden=hidden)
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


def test_a_cut_offline_transcript_is_a_value_error():
    """An entry cut at any length is refused with a ValueError, the error
    every reader of the store (``import_offline``, the gateway's take
    path) already handles; a cut inside the container header used to be
    a ``struct.error``."""
    minter, _ = _protocol("client", seed=5, hidden=2)
    minter.run_offline()
    blob = minter.offline_blob()
    circuits = defaultdict(minter.server.relu_circuit)
    deserialize_offline_transcript(blob, circuits)  # whole, it reads
    for cut in range(len(blob)):
        with pytest.raises(ValueError) as refused:
            deserialize_offline_transcript(blob[:cut], circuits)
        if cut >= 4:  # the magic survives: the cut is named
            assert "truncated" in str(refused.value), cut


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


# -- the garbler's half is a label seed -------------------------------------------

SEED_HEAD = b"PI\x01\x0f"  # wire header of a stored layer's label seed record


@pytest.mark.parametrize("garbler", ["server", "client"])
def test_a_cut_or_flipped_label_seed_is_refused_before_anything_loads(
    tmp_path, garbler
):
    """Every cut of the seed record and every flipped bit of it is the
    codec's ValueError; through ``import_offline`` the entry stays
    buffered and neither session adopts any state. A flipped seed bit is
    caught because the evaluator's stored constant-wire labels are no
    longer the ones the seed derives."""
    from repro.core.protocol import split_offline_state
    from repro.core.session import LIFE_NEW

    minter, _ = _protocol(garbler, seed=5, hidden=2)
    minter.run_offline()
    blob = minter.offline_blob()
    at = blob.index(SEED_HEAD)
    assert blob.count(SEED_HEAD) == 1  # one ReLU layer, one seed record
    circuits = defaultdict(minter._gc_parties[1].relu_circuit)
    for cut in range(at, at + 20):
        with pytest.raises(ValueError, match="truncated"):
            deserialize_offline_transcript(blob[:cut], circuits)

    def flipped(bit: int) -> bytes:
        data = bytearray(blob)
        data[at + bit // 8] ^= 1 << bit % 8
        return bytes(data)

    args = (minter.lowered, minter._gc_parties[1].relu_circuit(), garbler)
    split_offline_state(blob, *args)  # unflipped, it splits
    for bit in range(8 * 20):
        with pytest.raises(ValueError):
            split_offline_state(flipped(bit), *args)

    store = PrecomputeStore(tmp_path)
    loader, params = _protocol(garbler, seed=6, hidden=2)
    key = StoreKey.for_protocol("m", params, "client0")
    for bit in (5, 8 * 4, 8 * 19 + 7):  # the head, the seed's first and last bytes
        store.put(key, KIND_OFFLINE, flipped(bit), name="flipped")
        with pytest.raises(ValueError):
            loader.import_offline(store, "m", name="flipped")
        assert store.entry_count == 1
        for session in (loader.client, loader.server):
            assert session.lifecycle == LIFE_NEW
            assert session._relu_bundles == {}
        store.delete(key, KIND_OFFLINE, "flipped")


def test_a_label_storing_entry_is_refused_with_the_remint_error():
    """An entry of the layout that kept delta and every zero-label (RPC2)
    is refused at the container, as the pre-versioning one (RPC1) is."""
    minter, _ = _protocol("client", seed=5, hidden=2)
    minter.run_offline()
    blob = minter.offline_blob()
    assert blob[:4] == b"RPC3"
    circuits = defaultdict(minter.server.relu_circuit)
    for magic in (b"RPC1", b"RPC2"):
        with pytest.raises(ValueError, match="re-mint the precompute store"):
            deserialize_offline_transcript(magic + blob[4:], circuits)


@pytest.mark.parametrize("garbler", ["server", "client"])
@pytest.mark.parametrize(
    "minted_on, loaded_on", [("numpy", "python"), ("python", "numpy")]
)
def test_an_entry_loads_under_the_other_backend(
    tmp_path, garbler, minted_on, loaded_on
):
    """Both backends draw a layer's labels from its seed one way, so an
    entry minted under one serves the other's online phase, byte for
    byte the same entry and with the oracle's logits."""
    import dataclasses

    from repro.backend import available_backends

    if "numpy" not in available_backends():
        pytest.skip("needs the numpy backend")

    def protocol(backend, seed):
        params = dataclasses.replace(fast_params(n=256), backend=backend)
        network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
        network.randomize_weights(params.t, np.random.default_rng(0))
        return HybridProtocol(network, params, garbler=garbler, seed=seed), params

    blobs = {}
    for backend in ("numpy", "python"):
        minter, _ = protocol(backend, seed=42)
        minter.run_offline()
        blobs[backend] = minter.offline_blob()
    assert blobs["numpy"] == blobs["python"]

    store = PrecomputeStore(tmp_path)
    loader, params = protocol(loaded_on, seed=777)
    key = StoreKey.for_protocol("m", params, "client0")
    store.put(key, KIND_OFFLINE, blobs[minted_on])
    assert loader.import_offline(store, "m")
    x = np.random.default_rng(1).integers(0, params.t, size=16).tolist()
    assert loader.run_online(x) == loader.plaintext_reference(x)


# Each party's bytes of one 16-8-3 entry. Before the garbler kept a seed,
# its half held delta and every input and output zero-label: the client
# half of a Client-Garbler delphi entry was 27,206 B of 123,407.
PARTY_BYTES = {
    ("fast", "client"): {"client": 177, "server": 40_051, "shared": 29},
    ("fast", "server"): {"client": 40_125, "server": 2_895, "shared": 29},
    ("delphi", "client"): {"client": 282, "server": 96_172, "shared": 29},
    ("delphi", "server"): {"client": 96_294, "server": 6_768, "shared": 29},
}


@pytest.mark.parametrize("case", PARTY_BYTES, ids="-".join)
def test_party_storage_bytes_of_a_16_8_3_entry(case):
    """The garbler's half of a ReLU layer is its 20-byte seed record, plus
    the output zero-labels under Server-Garbler, where the garbler decodes
    what the client returns; the three parts sum to the entry."""
    from repro.backend import backend_for
    from repro.he.params import delphi_params

    name, garbler = case
    params = {"delphi": delphi_params(), "fast": fast_params(n=256)}[name]
    if backend_for(params.t, prefer=params.backend).name != "numpy":
        pytest.skip("full-degree mints need the vectorized backend")
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    network.randomize_weights(params.t, np.random.default_rng(0))
    protocol = HybridProtocol(network, params, garbler=garbler, seed=3)
    protocol.run_offline()
    blob = protocol.offline_blob()
    split = party_storage_bytes(
        blob, protocol.lowered, protocol.server.relu_circuit(), garbler
    )
    assert split == PARTY_BYTES[case]
    assert sum(split.values()) == len(blob)
