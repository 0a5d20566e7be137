"""Precompute buffer: one index of what it holds, payloads on disk.

The paper's whole streaming story revolves around a *storage buffer* of
offline precomputes: the client (or, under Client-Garbler, the server)
holds as many garbled-ReLU + OT + HE-share bundles as its budget allows,
and the online phase consumes them. :class:`StoreIndex` is that buffer's
bookkeeping and nothing else: namespaces, insertion order per namespace,
one LRU recency order, a running size total and eviction under the
budget. Both executions of a workload drive it — the serving gateway
through :class:`PrecomputeStore` (real bytes on disk, a byte budget),
:func:`~repro.workload.drivers.replay_analytic` directly (one unit per
entry, on the simulated clock). The system simulator's
``SystemConfig.buffer_capacity`` is the closed-form counterpart of both.

Layout: one file per entry under ``root/<model>/<params>/<client>/``,
named ``<kind>-<name>.bin``, plus a single ``index.json`` at the root
recording each entry's byte size, kind, insertion stamp (``created``)
and access stamp (``seq``). Eviction is LRU at entry granularity — one
entry is one precompute unit, matching how the paper's buffer admits and
consumes whole precomputes.

Entry payloads use the wire formats of :mod:`repro.network.serialize`
(garbled circuits, label maps, field vectors), so a stored precompute is
exactly what a networked deployment would have transmitted.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.network.serialize import (
    _need,
    deserialize_field_vector,
    deserialize_relu_bundle,
    serialize_field_vector,
    serialize_relu_bundle,
)
from repro.telemetry import METRICS, TRACER, section

INDEX_NAME = "index.json"

KIND_OFFLINE = "offline"  # a full offline transcript (one inference's worth)
KIND_RELU = "relu"  # one garbled ReLU layer
KIND_OT = "ot"  # an OT label correlation batch


def params_fingerprint(params) -> str:
    """Short stable id for a parameter set (store directory component).

    Covers the key-switching gadget — ``decomp_bits`` for a chainless
    modulus, the chain and its ``digit_primes`` grouping otherwise (each
    is None where the other applies) — so entries minted under another
    gadget are never looked up.
    """
    material = repr(
        (
            params.n,
            params.q,
            params.t,
            params.noise_eta,
            params.decomp_bits,
            params.rns_primes,
            params.digit_primes,
        )
    ).encode()
    return hashlib.sha256(material).hexdigest()[:12]


def _sanitize(part: str) -> str:
    cleaned = "".join(
        c if c.isalnum() or c in "-_." else "_" for c in str(part)
    )
    if not cleaned or set(cleaned) == {"."}:
        # "." / ".." are path navigation, not names — an id made of dots
        # must not let an entry escape the store root.
        return "_" * max(1, len(cleaned))
    return cleaned


@dataclass(frozen=True)
class StoreKey:
    """Addresses one (model, parameter set, client) precompute namespace."""

    model: str
    params: str
    client: str

    @classmethod
    def for_protocol(
        cls, model: str, params, client: str = "client0"
    ) -> "StoreKey":
        return cls(model=model, params=params_fingerprint(params), client=client)

    def parts(self) -> tuple[str, str, str]:
        return (_sanitize(self.model), _sanitize(self.params), _sanitize(self.client))


class StoreIndex:
    """A precompute buffer's bookkeeping, with no I/O and no lock.

    An entry is ``(space, name)``, where ``space`` is any hashable
    namespace: a store's key and kind, or the analytic replay's client.
    Each space keeps insertion order, which :meth:`take` and
    :meth:`names` drain, so a client's next entry is always known. One
    LRU order spans the spaces; only :meth:`get` refreshes it, and
    eviction pops it. ``budget`` bounds the summed entry sizes (None =
    unbounded); ``seq`` is the clock that every put and get ticks.
    """

    def __init__(self, budget: int | None = None):
        self.budget = budget
        self.seq = self.total_bytes = self.evictions = 0
        # (space, name) -> (size, created, seq), least recently used first:
        # ``created`` ticked at the entry's put, ``seq`` at its last put or get.
        self._recency: OrderedDict = OrderedDict()
        self._spaces: dict = {}  # space -> OrderedDict of names, oldest first

    def __len__(self) -> int:
        return len(self._recency)

    def items(self):
        """``((space, name), (size, created, seq))`` per entry, least
        recently used first."""
        return self._recency.items()

    def names(self, space) -> list:
        return list(self._spaces.get(space, ()))

    def count(self, space) -> int:
        return len(self._spaces.get(space, ()))

    def put(self, space, name, size: int) -> list:
        """Admit one entry (replacing a same-named one), then evict least
        recently used entries until the budget holds; returns the victims.

        The new entry is the most recent one and fits alone, so it is
        never a victim. One larger than the whole budget raises
        ``ValueError`` before anything changes: the analogue of
        ``buffer_capacity == 0``, where the paper's streaming system
        cannot buffer at all.
        """
        if self.budget is not None and size > self.budget:
            raise ValueError(
                f"entry of {size} bytes exceeds the {self.budget}-byte budget"
            )
        self.remove(space, name)
        self.seq += 1
        self._recency[(space, name)] = (size, self.seq, self.seq)
        self._spaces.setdefault(space, OrderedDict())[name] = None
        self.total_bytes += size
        victims = []
        while self.budget is not None and self.total_bytes > self.budget:
            victims.append(next(iter(self._recency)))
            self.remove(*victims[-1])
        self.evictions += len(victims)
        return victims

    def get(self, space, name) -> bool:
        """Refresh an entry's LRU recency; False if it is not held."""
        if (space, name) not in self._recency:
            return False
        size, created, _ = self._recency[(space, name)]
        self.seq += 1
        self._recency[(space, name)] = (size, created, self.seq)
        self._recency.move_to_end((space, name))
        return True

    def take(self, space, name=None):
        """Remove the space's oldest entry, or the named one; returns its
        name, or None when there is no such entry."""
        if name is None:
            name = next(iter(self._spaces.get(space, ())), None)
        return name if name is not None and self.remove(space, name) else None

    def remove(self, space, name) -> bool:
        stamps = self._recency.pop((space, name), None)
        if stamps is None:
            return False
        del self._spaces[space][name]
        self.total_bytes -= stamps[0]
        return True


def _rel(space: tuple[str, str], name: str) -> str:
    return f"{space[0]}/{space[1]}-{name}.bin"


def _load_index(path: Path) -> StoreIndex:
    """Rebuild the index an ``index.json`` describes: its entries put in
    ``created`` order, then touched in ``seq`` order. The clock carries
    on from the file's, so a new default name never reuses an old one."""
    loaded = json.loads(path.read_text())
    if (
        not isinstance(loaded, dict)
        or not isinstance(loaded.get("entries"), dict)
        or not isinstance(loaded.get("seq"), int)
    ):
        raise ValueError("index has unexpected structure")
    index = StoreIndex()
    index.seq = loaded["seq"]
    rows = []
    for rel, entry in loaded["entries"].items():
        directory, _, file = rel.rpartition("/")
        space = (directory, _sanitize(entry["kind"]))
        rows.append((entry, space, file[len(space[1]) + 1 : -len(".bin")]))
    for entry, space, name in sorted(rows, key=lambda row: row[0]["created"]):
        index.put(space, name, entry["bytes"])
    for entry, space, name in sorted(rows, key=lambda row: row[0]["seq"]):
        index.get(space, name)
    return index


class PrecomputeStore:
    """Persistent precompute buffer: a :class:`StoreIndex` under a byte
    budget, plus one payload file per entry.

    ``byte_budget=None`` disables eviction (unbounded store). Access is
    single-process by design — the store models one party's local buffer,
    not a shared service — but thread-safe within that process: the
    serving gateway's background refill worker admits entries while the
    selector thread drains them, so the index and the payload files
    change under one internal lock.
    """

    def __init__(self, root, byte_budget: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._index = StoreIndex()
        index_path = self.root / INDEX_NAME
        # A leftover .tmp means a crash interrupted _save_index before its
        # atomic rename; the published index is still the previous
        # consistent one, so the partial file is plain garbage.
        try:
            (self.root / (INDEX_NAME + ".tmp")).unlink()
        except OSError:
            pass
        corruption: Exception | None = None
        if index_path.exists():
            try:
                self._index = _load_index(index_path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # Resetting the index orphans every payload file: invisible
                # to lookups but still occupying disk the byte budget no
                # longer accounts for.
                corruption = exc
        # Loaded unbounded: opening under a smaller budget evicts nothing.
        self._index.budget = byte_budget
        # Unindexed payloads occupy disk the byte budget doesn't account
        # for; sweep them on every open — they appear when the index is
        # reset, but also when a crash lands between a payload write and
        # its index update. Say so either way: silent data loss is how a
        # serving fleet ends up minting against a full disk.
        swept = self._sweep_orphans()
        if corruption is not None:
            warnings.warn(
                f"precompute store index {index_path} was unreadable "
                f"({corruption}); reset to empty and deleted {swept} "
                "orphaned payload file(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            self._save_index()
        elif swept:
            warnings.warn(
                f"precompute store {self.root} held {swept} payload file(s) "
                "not present in the index (crash between payload write and "
                "index update?); deleted",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- bookkeeping --------------------------------------------------------

    def _save_index(self) -> None:
        # Write-fsync-rename so a crash mid-write can never tear index.json:
        # readers see either the old index or the new one, both valid. The
        # fsync matters — without it a power loss can commit the rename
        # before the temp file's data blocks, publishing garbage that the
        # corrupt-index recovery would then "fix" by sweeping every payload.
        entries = {
            _rel(space, name): {"bytes": size, "seq": seq, "created": created,
                                "kind": space[1]}
            for (space, name), (size, created, seq) in self._index.items()
        }
        path = self.root / INDEX_NAME
        tmp = self.root / (INDEX_NAME + ".tmp")
        with open(tmp, "w") as fh:
            document = {"seq": self._index.seq, "entries": entries}
            fh.write(json.dumps(document, indent=1, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _sweep_orphans(self) -> int:
        """Delete payload files the index does not know about; returns count."""
        indexed = {(self.root / _rel(*entry)).resolve()
                   for entry, _ in self._index.items()}
        swept = 0
        for path in self.root.rglob("*.bin"):
            if path.resolve() in indexed:
                continue
            try:
                path.unlink()
                swept += 1
            except OSError:
                pass
        return swept

    def _unlink(self, space, name) -> None:
        try:
            (self.root / _rel(space, name)).unlink()
        except OSError:
            pass

    @staticmethod
    def _space(key: StoreKey, kind: str) -> tuple[str, str]:
        return "/".join(key.parts()), _sanitize(kind)

    byte_budget = property(lambda self: self._index.budget)
    evictions = property(lambda self: self._index.evictions)
    total_bytes = property(lambda self: self._index.total_bytes)
    entry_count = property(lambda self: len(self._index))

    # -- core API -----------------------------------------------------------

    def put(self, key: StoreKey, kind: str, blob: bytes, name: str | None = None) -> str:
        """Store one precompute entry; returns its name.

        Raises ``ValueError`` if the blob alone exceeds the byte budget
        (:meth:`StoreIndex.put`).
        """
        space = self._space(key, kind)
        with section("store", "store.put", kind=kind), self._lock:
            if name is None:
                name = f"{self._index.seq + 1:08d}"
            entry = _sanitize(name)
            for victim in self._index.put(space, entry, len(blob)):
                self._unlink(*victim)
                METRICS.counter("store_evictions_total").inc()
                TRACER.instant("store.evict", victim=_rel(*victim))
            path = self.root / _rel(space, entry)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(blob)
            except OSError:
                self._index.remove(space, entry)  # its victims stay evicted
                raise
            self._save_index()
        if METRICS.enabled:
            METRICS.counter("store_puts_total", kind=kind).inc()
            METRICS.gauge("store_bytes").set(self.total_bytes)
            METRICS.gauge("store_entries").set(self.entry_count)
        return name

    def get(self, key: StoreKey, kind: str, name: str) -> bytes | None:
        """Fetch an entry (refreshing its LRU position), or None."""
        blob = None
        space, entry = self._space(key, kind), _sanitize(name)
        with section("store", "store.get", kind=kind), self._lock:
            if self._index.get(space, entry):
                try:
                    blob = (self.root / _rel(space, entry)).read_bytes()
                except OSError:
                    self._index.remove(space, entry)
                self._save_index()
        METRICS.counter(
            "store_gets_total", result="hit" if blob is not None else "miss"
        ).inc()
        return blob

    def take(self, key: StoreKey, kind: str, name: str | None = None) -> bytes | None:
        """Consume an entry: fetch and delete (oldest-inserted if unnamed).

        This is the buffer-drain operation — the online phase takes one
        precompute out of storage, freeing budget for the offline
        pipeline to refill, exactly the cycle the simulator models. One
        index write per consume (no LRU refresh for an entry that is
        being removed anyway).
        """
        blob = None
        space = self._space(key, kind)
        with section("store", "store.take", kind=kind), self._lock:
            if name is not None:
                name = _sanitize(name)
            name = self._index.take(space, name)
            if name is not None:
                try:
                    blob = (self.root / _rel(space, name)).read_bytes()
                except OSError:
                    pass
                self._unlink(space, name)
                self._save_index()
        if METRICS.enabled:
            METRICS.counter(
                "store_takes_total",
                result="hit" if blob is not None else "miss",
            ).inc()
            METRICS.gauge("store_bytes").set(self.total_bytes)
            METRICS.gauge("store_entries").set(self.entry_count)
        return blob

    def delete(self, key: StoreKey, kind: str, name: str) -> bool:
        space, entry = self._space(key, kind), _sanitize(name)
        with section("store", "store.delete", kind=kind), self._lock:
            if not self._index.remove(space, entry):
                return False
            self._unlink(space, entry)
            self._save_index()
            return True

    def names(self, key: StoreKey, kind: str) -> list[str]:
        """Entry names of one kind under a key, oldest (by insertion) first.

        Ordered by insertion, not LRU recency — peeking an entry with
        :meth:`get` must not change which one :meth:`take` drains next.
        """
        with self._lock:
            return self._index.names(self._space(key, kind))

    def count(self, key: StoreKey, kind: str) -> int:
        """How many entries of one kind a key holds, without listing them."""
        with self._lock:
            return self._index.count(self._space(key, kind))


# -- offline transcript codec ---------------------------------------------------
#
# One "offline" entry is everything HybridProtocol.run_offline computes:
# the per-layer mask/share vectors and every ReLU layer's garbled bundle.
# The circuit topologies are NOT stored — both parties derive them from
# the (public) network shape, the same convention the channel codec uses.


def _lp(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob


class _Reader:
    """Reads a store entry front to back; a cut anywhere is a ValueError."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        _need(self.data, self.offset, n, "offline transcript")
        self.offset += n
        return self.data[self.offset - n : self.offset]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> bool:
        return self.offset == len(self.data)


_ROLES = ("server", "client")


def serialize_offline_transcript(
    modulus: int,
    client_r: list[list[int]],
    server_s: list[list[int]],
    client_shares: list[list[int]],
    bundles: dict[int, tuple],
    garbler_role: str = "server",
    truncate_bits: int = 0,
) -> bytes:
    """Pack one offline phase's outputs into a store entry.

    ``bundles`` maps ReLU step position to (mask_index, garbled batch,
    encoding batch, evaluator label batch). The garbler role and
    truncation are recorded so an importer with a different circuit shape
    (the mask owner flips between roles) is rejected instead of
    mis-binding stored labels to the wrong wires.
    """
    out = [
        # Container magic "RPC2": bumped with the wire-format versioning of
        # serialize.py (every embedded blob now carries a magic + version
        # header), so a store minted by a pre-versioning build is rejected
        # at the container level instead of crashing mid-parse.
        b"RPC2",
        struct.pack(
            "<BI", _ROLES.index(garbler_role), truncate_bits
        ),
        struct.pack("<I", len(client_r)),
    ]
    for r, s, share in zip(client_r, server_s, client_shares):
        out.append(_lp(serialize_field_vector(r, modulus)))
        out.append(_lp(serialize_field_vector(s, modulus)))
        out.append(_lp(serialize_field_vector(share, modulus)))
    out.append(struct.pack("<I", len(bundles)))
    for pos in sorted(bundles):
        mask_index, circuits, encodings, labels = bundles[pos]
        out.append(struct.pack("<III", pos, mask_index, len(circuits)))
        out.append(serialize_relu_bundle(circuits, encodings, labels))
    return b"".join(out)


def deserialize_offline_transcript(
    data: bytes,
    circuits_by_pos: dict[int, object],
    garbler_role: str | None = None,
    truncate_bits: int | None = None,
) -> tuple[list, list, list, dict]:
    """Unpack a store entry, rebinding each bundle to its public circuit.

    When ``garbler_role`` / ``truncate_bits`` are given, a transcript
    minted under a different role or truncation raises ``ValueError`` —
    those change the (public) circuit wire assignment, so the stored
    label maps would silently bind to the wrong wires.
    """
    if data[:4] == b"RPC1":
        raise ValueError(
            "offline transcript was minted by a pre-wire-versioning build "
            "(container RPC1); re-mint the precompute store"
        )
    if data[:4] != b"RPC2":
        raise ValueError("not an offline transcript blob")
    reader = _Reader(data, 4)
    role_index = reader.take(1)[0]
    stored_truncate = reader.u32()
    if role_index >= len(_ROLES):
        raise ValueError("unknown garbler role in offline transcript")
    if garbler_role is not None and _ROLES[role_index] != garbler_role:
        raise ValueError(
            f"stored transcript was minted for garbler={_ROLES[role_index]!r}, "
            f"not {garbler_role!r}"
        )
    if truncate_bits is not None and stored_truncate != truncate_bits:
        raise ValueError(
            f"stored transcript uses truncate_bits={stored_truncate}, "
            f"not {truncate_bits}"
        )
    n_linears = reader.u32()
    client_r, server_s, client_shares = [], [], []
    for _ in range(n_linears):
        client_r.append(deserialize_field_vector(reader.blob()))
        server_s.append(deserialize_field_vector(reader.blob()))
        client_shares.append(deserialize_field_vector(reader.blob()))
    bundles: dict[int, tuple] = {}
    n_bundles = reader.u32()
    for _ in range(n_bundles):
        pos = reader.u32()
        mask_index = reader.u32()
        count = reader.u32()
        circuits, encodings, labels, reader.offset = deserialize_relu_bundle(
            data, reader.offset, count, circuits_by_pos[pos]
        )
        bundles[pos] = (mask_index, circuits, encodings, labels)
    if not reader.done():
        raise ValueError("trailing bytes in offline transcript")
    return client_r, server_s, client_shares, bundles
