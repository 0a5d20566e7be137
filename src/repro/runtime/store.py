"""Disk-backed precompute store with LRU byte-budget eviction.

The paper's whole streaming story revolves around a *storage buffer* of
offline precomputes: the client (or, under Client-Garbler, the server)
holds as many garbled-ReLU + OT + HE-share bundles as its byte budget
allows, and the online phase consumes them. The system simulator models
that buffer analytically (``SystemConfig.buffer_capacity``); this module
is its functional counterpart — real bytes on disk, real eviction.

Layout: one file per entry under ``root/<model>/<params>/<client>/``,
named ``<kind>-<name>.bin``, plus a single ``index.json`` at the root
recording byte sizes and an access sequence number per entry. Eviction is
LRU at entry granularity — one entry is one precompute unit, matching how
the paper's buffer admits and consumes whole precomputes.

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
from dataclasses import dataclass
from pathlib import Path

from repro.network.serialize import (
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


class PrecomputeStore:
    """Persistent precompute buffer with an LRU byte budget.

    ``byte_budget=None`` disables eviction (unbounded store). Access is
    single-process by design — the store models one party's local buffer,
    not a shared service — but thread-safe within that process: the
    serving gateway's background refill worker admits entries while the
    selector thread drains them, so every index mutation (and the
    eviction counter) runs under one internal lock.
    """

    def __init__(self, root, byte_budget: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.byte_budget = byte_budget
        self.evictions = 0
        self._lock = threading.RLock()
        self._index: dict = {"seq": 0, "entries": {}}
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
                loaded = json.loads(index_path.read_text())
                if (
                    not isinstance(loaded, dict)
                    or not isinstance(loaded.get("entries"), dict)
                    or not isinstance(loaded.get("seq"), int)
                ):
                    raise ValueError("index has unexpected structure")
                self._index = loaded
            except (OSError, ValueError) as exc:
                # Resetting the index orphans every payload file: invisible
                # to lookups but still occupying disk the byte budget no
                # longer accounts for.
                corruption = exc
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
        path = self.root / INDEX_NAME
        tmp = self.root / (INDEX_NAME + ".tmp")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(self._index, indent=1, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _sweep_orphans(self) -> int:
        """Delete payload files the index does not know about; returns count."""
        indexed = {(self.root / rel).resolve() for rel in self._index["entries"]}
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

    def _next_seq(self) -> int:
        self._index["seq"] += 1
        return self._index["seq"]

    def _rel(self, key: StoreKey, kind: str, name: str) -> str:
        return "/".join(key.parts() + (f"{_sanitize(kind)}-{_sanitize(name)}.bin",))

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(e["bytes"] for e in self._index["entries"].values())

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._index["entries"])

    def _evict_to_budget(self, keep: str) -> None:
        if self.byte_budget is None:
            return
        entries = self._index["entries"]
        while self.total_bytes > self.byte_budget:
            victims = [rel for rel in entries if rel != keep]
            if not victims:
                break
            victim = min(victims, key=lambda rel: entries[rel]["seq"])
            self._remove(victim)
            self.evictions += 1
            METRICS.counter("store_evictions_total").inc()
            TRACER.instant("store.evict", victim=victim)

    def _remove(self, rel: str) -> None:
        self._index["entries"].pop(rel, None)
        path = self.root / rel
        try:
            path.unlink()
        except OSError:
            pass

    # -- core API -----------------------------------------------------------

    def put(self, key: StoreKey, kind: str, blob: bytes, name: str | None = None) -> str:
        """Store one precompute entry; returns its name.

        Raises ``ValueError`` if the blob alone exceeds the byte budget —
        the functional analogue of ``buffer_capacity == 0``, where the
        paper's streaming system cannot buffer at all.
        """
        if self.byte_budget is not None and len(blob) > self.byte_budget:
            raise ValueError(
                f"entry of {len(blob)} bytes exceeds the {self.byte_budget}-byte budget"
            )
        with section("store", "store.put", kind=kind), self._lock:
            seq = self._next_seq()
            if name is None:
                name = f"{seq:08d}"
            rel = self._rel(key, kind, name)
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
            # "created" orders the FIFO drain (names/take); "seq" is the LRU
            # recency that get() refreshes and eviction consults.
            self._index["entries"][rel] = {
                "bytes": len(blob), "seq": seq, "created": seq, "kind": kind,
            }
            self._evict_to_budget(keep=rel)
            self._save_index()
        if METRICS.enabled:
            METRICS.counter("store_puts_total", kind=kind).inc()
            METRICS.gauge("store_bytes").set(self.total_bytes)
            METRICS.gauge("store_entries").set(self.entry_count)
        return name

    def get(self, key: StoreKey, kind: str, name: str) -> bytes | None:
        """Fetch an entry (refreshing its LRU position), or None."""
        blob = None
        with section("store", "store.get", kind=kind), self._lock:
            rel = self._rel(key, kind, name)
            entry = self._index["entries"].get(rel)
            if entry is not None:
                try:
                    blob = (self.root / rel).read_bytes()
                except OSError:
                    self._remove(rel)
                    self._save_index()
                else:
                    entry["seq"] = self._next_seq()
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
        with section("store", "store.take", kind=kind), self._lock:
            if name is None:
                names = self.names(key, kind)
                name = names[0] if names else None
            if name is not None:
                rel = self._rel(key, kind, name)
                if rel in self._index["entries"]:
                    try:
                        blob = (self.root / rel).read_bytes()
                    except OSError:
                        blob = None
                    self._remove(rel)
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
        with section("store", "store.delete", kind=kind), self._lock:
            rel = self._rel(key, kind, name)
            if rel not in self._index["entries"]:
                return False
            self._remove(rel)
            self._save_index()
            return True

    def names(self, key: StoreKey, kind: str) -> list[str]:
        """Entry names of one kind under a key, oldest (by insertion) first.

        Ordered by insertion, not LRU recency — peeking an entry with
        :meth:`get` must not change which one :meth:`take` drains next.
        """
        prefix = "/".join(key.parts()) + "/" + _sanitize(kind) + "-"
        with self._lock:
            matches = [
                (entry.get("created", entry["seq"]), rel)
                for rel, entry in self._index["entries"].items()
                if rel.startswith(prefix)
            ]
        return [
            rel[len(prefix) : -len(".bin")] for _, rel in sorted(matches)
        ]


# -- offline transcript codec ---------------------------------------------------
#
# One "offline" entry is everything HybridProtocol.run_offline computes:
# the per-layer mask/share vectors and every ReLU layer's garbled bundle.
# The circuit topologies are NOT stored — both parties derive them from
# the (public) network shape, the same convention the channel codec uses.


def _lp(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def u32(self) -> int:
        (value,) = struct.unpack_from("<I", self.data, self.offset)
        self.offset += 4
        return value

    def blob(self) -> bytes:
        n = self.u32()
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

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
    reader = _Reader(data)
    reader.offset = 4
    (role_index,) = struct.unpack_from("<B", data, reader.offset)
    reader.offset += 1
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
