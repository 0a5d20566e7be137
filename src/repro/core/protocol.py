"""The functional two-party hybrid private-inference protocol (DELPHI).

Executes real cryptography end to end on small networks: BFV homomorphic
encryption generates the linear-layer share correlations offline, garbled
circuits evaluate ReLUs, IKNP OT extension delivers wire labels, and both
parties exchange every message through a byte-counted channel. The result
is bit-exact against the plaintext field evaluation of the same network.

Two garbling roles are supported (§2.2 and §5.1 of the paper):

* ``ServerGarbler`` — the baseline: the server garbles ReLUs offline and
  the client stores and later evaluates them. The client's input labels
  travel by offline OT; the server's share labels are sent online.
* ``ClientGarbler`` — the proposed optimization: the client garbles and
  the *server* stores and evaluates, so the heavy storage moves server-side
  and online GC evaluation runs on the fast server; the server's input
  labels must now be fetched by *online* OT.

The protocol invariant through the network is DELPHI's: before linear
layer i the server holds x_i - r_i and the client holds r_i; after it the
server holds W(x_i - r_i) + s_i and the client's offline share is
W r_i - s_i, so their sum is the true activation.

Since the session redesign, :class:`HybridProtocol` is a thin façade: it
wires a :class:`~repro.core.session.ClientSession` and a
:class:`~repro.core.session.ServerSession` over a
:class:`~repro.network.transport.Transport` pair (in-memory by default,
loopback TCP with ``transport="socket"``) and drives them message by
message. The two state machines exchange only serialized wire messages;
the façade merely schedules them and preserves the original one-object
API (``run_offline`` / ``run_online`` / ``channel`` / ``counters`` /
``export_offline`` / ``import_offline``) for callers, experiments, and
the test suites.
"""

from __future__ import annotations

import time

# Re-exported for compatibility: lowering and the shared protocol
# dataclasses historically lived in this module.
from repro.core.lowering import (  # noqa: F401
    LoweredLinear,
    LoweredNetwork,
    lower_network,
    next_linear_index,
    plaintext_reference,
)
from repro.core.session import (  # noqa: F401
    DONE,
    WAITING,
    ClientSession,
    ProtocolCounters,
    ReluBundle,
    ServerSession,
    role_seed,
)
from repro.he.params import BfvParams
from repro.network.channel import CLIENT, SERVER, Channel  # noqa: F401
from repro.network.transport import InMemoryTransport, SocketTransport

_DEADLOCK_SPINS = 50  # idle scheduler rounds before declaring deadlock


def make_transport_pair(kind: str | None = None):
    """A connected (client, server) transport pair of the requested kind.

    ``"memory"`` (the default) is the zero-copy in-process pair;
    ``"socket"`` runs the same protocol over loopback TCP (real kernel
    sockets, one process).
    """
    kind = kind or "memory"
    if kind == "memory":
        return InMemoryTransport.pair()
    if kind == "socket":
        return SocketTransport.loopback_pair()
    raise ValueError(f"unknown transport {kind!r} (expected 'memory' or 'socket')")


def split_offline_state(
    blob: bytes,
    lowered,
    circuit,
    garbler_role: str,
    truncate_bits: int = 0,
):
    """Validate a stored offline transcript and split it into role halves.

    Returns ``((client_r, client_shares, client_bundles), (server_s,
    server_bundles))`` — exactly the arguments each session's
    ``load_offline_state`` takes. Validation runs against ``lowered``
    (shape data only, so the client's shape-only lowering works) and
    raises ``ValueError`` on any mismatch, *before* the caller consumes
    the entry. Shared by :meth:`HybridProtocol.import_offline` and the
    serving gateway's precompute hand-off, so both reject exactly the
    same stale transcripts.
    """
    from collections import defaultdict

    from repro.runtime.store import deserialize_offline_transcript

    client_r, server_s, shares, bundles = deserialize_offline_transcript(
        blob,
        defaultdict(lambda: circuit),
        garbler_role=garbler_role,
        truncate_bits=truncate_bits,
    )
    if len(client_r) != len(lowered.linears):
        raise ValueError("stored transcript does not match this network")
    for lin, r, s in zip(lowered.linears, client_r, server_s):
        if len(r) != lin.n_in or len(s) != lin.n_out:
            raise ValueError("stored transcript does not match this network")
    # Structural check of the ReLU bundles too (a revised network can
    # keep its linear widths but move/add/remove ReLUs): positions,
    # per-layer activation counts, and mask bindings must all match,
    # or the online phase would crash after the entry was consumed.
    expected = {
        pos: (next_linear_index(lowered, pos), lowered.linears[lin_idx].n_out)
        for pos, (kind, lin_idx) in enumerate(lowered.steps)
        if kind == "relu"
    }
    found = {
        pos: (mask_index, len(circuits))
        for pos, (mask_index, circuits, *_) in bundles.items()
    }
    if found != expected:
        raise ValueError(
            "stored transcript's ReLU bundles do not match this network"
        )
    evaluator_bundles, garbler_bundles = {}, {}
    for pos, (mask_index, circuits, seed, encodings, labels) in bundles.items():
        evaluator_bundles[pos] = ReluBundle(
            mask_index, circuits=circuits, evaluator_labels=labels
        )
        garbler_bundles[pos] = ReluBundle(mask_index, encodings=encodings, seed=seed)
    by_role = dict.fromkeys((CLIENT, SERVER), evaluator_bundles)
    by_role[garbler_role] = garbler_bundles
    return (client_r, shares, by_role[CLIENT]), (server_s, by_role[SERVER])


def party_storage_bytes(
    blob: bytes,
    lowered,
    circuit,
    garbler_role: str,
    truncate_bits: int = 0,
) -> dict[str, int]:
    """Each party's bytes of one stored entry, split as
    :func:`split_offline_state` splits it.

    The client owns r and its shares, the server s; of each ReLU layer
    the garbler owns its label seed and any output zero-labels, the
    evaluator the garbled circuits and its label maps. ``"shared"`` is
    the container's framing (magic, role, counts), so the three values
    sum to ``len(blob)``.
    """
    from repro.network.serialize import relu_bundle_bytes, serialize_field_vector

    (client_r, shares, client_bundles), (server_s, server_bundles) = (
        split_offline_state(blob, lowered, circuit, garbler_role, truncate_bits)
    )

    def vectors(*groups) -> int:
        return sum(
            4 + len(serialize_field_vector(v, lowered.modulus))
            for group in groups
            for v in group
        )

    evaluator_role, evaluator_bundles = (
        (SERVER, server_bundles) if garbler_role == CLIENT else (CLIENT, client_bundles)
    )
    owned = {CLIENT: vectors(client_r, shares), SERVER: vectors(server_s)}
    for bundle in evaluator_bundles.values():
        layer = relu_bundle_bytes(bundle.circuits, bundle.evaluator_labels.wires)
        owned[garbler_role] += layer["garbler"]
        owned[evaluator_role] += layer["evaluator"]
    return {**owned, "shared": len(blob) - sum(owned.values())}


class HybridProtocol:
    """Runs one private inference between a client and a server session.

    The ``garbler`` argument selects Server-Garbler ("server") or
    Client-Garbler ("client"). Weights live on the server; the input vector
    is the client's secret. The two sessions are exposed as ``.client``
    and ``.server`` — drivers that want to interleave several protocols
    (the serving loop) use ``start_offline()`` / ``step()`` /
    ``start_online(x)`` directly instead of the blocking ``run_*`` calls.
    """

    def __init__(
        self,
        network,
        params: BfvParams | None = None,
        garbler: str = "server",
        seed: int | None = None,
        truncate_bits: int = 0,
        workers: int = 1,
        transport: str | tuple | None = None,
    ):
        if workers != 1:
            # Leftover keyword (bench_e2e passes workers=1): a protocol is
            # one single-core mint; parallelism is many mints on a
            # PrecomputePool. Delete at the next benchmark re-baseline.
            raise ValueError(
                f"workers={workers!r}: a HybridProtocol is one single-core "
                "mint; run several side by side on a PrecomputePool"
            )
        self.garbler_role = garbler
        self.truncate_bits = truncate_bits
        if isinstance(transport, (tuple, list)):
            client_end, server_end = transport
        else:
            client_end, server_end = make_transport_pair(transport)
        self.client = ClientSession(
            network,
            params=params,
            garbler=garbler,
            seed=role_seed(seed, CLIENT),
            truncate_bits=truncate_bits,
            transport=client_end,
        )
        self.params = self.client.params
        # The client lowers shape-only (cheap, no weights); only the
        # server pays the full matrix expansion — one lowering per
        # protocol.
        self.server = ServerSession(
            network,
            params=self.params,
            garbler=garbler,
            seed=role_seed(seed, SERVER),
            truncate_bits=truncate_bits,
            transport=server_end,
        )
        self.modulus = self.client.modulus
        self.bits = self.client.bits
        self.lowered = self.server.lowered  # the weight-bearing program
        self._backend_pref = self.client._backend_pref
        self._vectorize_gc = self.client._vectorize_gc

    # -- compatibility surface -------------------------------------------------

    @property
    def channel(self) -> Channel:
        """Byte-accounting view of the protocol (the client session's).

        Both sessions charge identical per-phase stats; exposing the
        client's keeps the one-object reading (`protocol.channel`)
        working.
        """
        return self.client.channel

    @property
    def counters(self) -> ProtocolCounters:
        """Merged operation counters across both sessions."""
        return self.client.counters.merged_with(self.server.counters)

    @property
    def client_r(self) -> list[list[int]]:
        return self.client.client_r

    @property
    def _gc_parties(self) -> tuple:
        """(garbling session, evaluating session), by ``ProtocolSession.garbles``."""
        if self.client.garbles:
            return self.client, self.server
        return self.server, self.client

    @property
    def _offline_done(self) -> bool:
        return self.client.offline_done and self.server.offline_done

    def plaintext_reference(self, x: list[int]) -> list[int]:
        """Field-exact plaintext evaluation of the lowered program."""
        return plaintext_reference(
            self.lowered, x, self.truncate_bits, prefer=self.params.backend
        )

    def close(self) -> None:
        """Release both sessions' transports (sockets in particular)."""
        self.client.close()
        self.server.close()

    # The name external schedulers call on success and error paths alike.
    shutdown = close

    def reset_for_request(self) -> None:
        """Recycle both sessions for a fresh request (keep-alive reuse).

        Mirrors :meth:`ProtocolSession.reset_for_request`: the transports,
        channel accounting, counters, lowerings, and RNG streams survive;
        the per-request offline state is cleared so the pair can run (or
        adopt) a new offline phase and serve another inference.
        """
        self.client.reset_for_request()
        self.server.reset_for_request()

    # -- phase scheduling ------------------------------------------------------

    def start_offline(self) -> None:
        """Arm the offline phase on both sessions."""
        self.client.start_offline()
        self.server.start_offline()

    def start_online(self, x: list[int]) -> None:
        """Arm one inference on both sessions."""
        self.client.start_online(x)
        self.server.start_online()

    def step(self) -> bool:
        """One scheduling round over both sessions; True when phase done."""
        c = self.client.step()
        s = self.server.step()
        return c == DONE and s == DONE

    def _drive(self) -> None:
        """Step both sessions until the active phase completes.

        Deadlock detection: an idle in-memory pair raises immediately;
        sockets get a bounded spin with a short sleep for in-flight
        bytes to land.
        """
        idle = 0
        while not self.step():
            if self.client.transport.pending or self.server.transport.pending:
                idle = 0
                continue
            idle += 1
            if isinstance(self.client.transport, InMemoryTransport):
                raise RuntimeError(
                    "protocol deadlock: both sessions are waiting and no "
                    "message is in flight"
                )
            if idle > _DEADLOCK_SPINS:
                raise RuntimeError("protocol deadlock: no transport progress")
            time.sleep(0.001)  # sockets: let in-flight bytes land

    # -- blocking phase API (the one-object surface) ---------------------------

    def run_offline(self) -> None:
        """Execute the full offline phase (HE correlations + garbling + OT)."""
        self.start_offline()
        self._drive()

    def run_online(self, x: list[int]) -> list[int]:
        """Run one inference on the client input ``x``; returns the logits."""
        if not self._offline_done:
            raise RuntimeError("offline phase must run before online phase")
        self.start_online(x)
        self._drive()
        return self.client.finish()

    # -- precompute store integration ------------------------------------------

    def offline_blob(self) -> bytes:
        """Serialize this completed offline phase into one store entry.

        The union of both sessions' state (per-layer mask/share vectors
        plus every garbled ReLU bundle); :func:`split_offline_state`
        splits it back per role. Exposed separately from
        :meth:`export_offline` so a pool worker can mint the blob in its
        own process and ship bytes back for the parent to admit.
        """
        if not self._offline_done:
            raise RuntimeError("offline phase must run before export")
        from repro.runtime.store import serialize_offline_transcript

        bundles = {}
        garbler, evaluator = self._gc_parties
        for pos, eb in evaluator._relu_bundles.items():
            gb = garbler._relu_bundles[pos]
            bundles[pos] = (
                eb.mask_index, eb.circuits, gb.seed, gb.encodings, eb.evaluator_labels
            )
        return serialize_offline_transcript(
            self.modulus,
            self.client.client_r,
            self.server.server_s,
            self.client.client_linear_share,
            bundles,
            garbler_role=self.garbler_role,
            truncate_bits=self.truncate_bits,
        )

    def export_offline(
        self, store, model_id: str, client_id: str = "client0",
        name: str | None = None,
    ) -> str:
        """Persist this offline phase into a :class:`PrecomputeStore`.

        Everything the online phase needs — per-layer mask/share vectors
        and the garbled ReLU bundles — is packed into one ``offline``
        entry under (model, params, client), so precomputes minted now
        (possibly by a many-worker pool) can serve inferences later, the
        buffering the paper's streaming system is built around. The entry
        is the union of both sessions' state; import splits it back.
        """
        from repro.runtime.store import KIND_OFFLINE, StoreKey

        key = StoreKey.for_protocol(model_id, self.params, client_id)
        return store.put(key, KIND_OFFLINE, self.offline_blob(), name=name)

    def import_offline(
        self, store, model_id: str, client_id: str = "client0",
        name: str | None = None, consume: bool = True,
    ) -> bool:
        """Load a stored offline transcript instead of running run_offline.

        ``consume`` (default) removes the entry — the buffer-drain
        semantics of the paper's client storage: each stored precompute
        serves one inference. Returns False when no entry is available.
        """
        from repro.runtime.store import KIND_OFFLINE, StoreKey

        key = StoreKey.for_protocol(model_id, self.params, client_id)
        lookup = name or next(iter(store.names(key, KIND_OFFLINE)), None)
        blob = store.get(key, KIND_OFFLINE, lookup) if lookup else None
        if blob is None:
            return False
        # Bind stored circuits to the topology of the session that will
        # evaluate them (the client under Server-Garbler, else the server).
        _, evaluator = self._gc_parties
        client_state, server_state = split_offline_state(
            blob,
            self.lowered,
            evaluator.relu_circuit(),
            self.garbler_role,
            self.truncate_bits,
        )
        if consume:
            # Only after validation: a rejected transcript stays buffered
            # (it may belong to a differently-configured protocol).
            store.delete(key, KIND_OFFLINE, lookup)
        self.client.load_offline_state(*client_state)
        self.server.load_offline_state(*server_state)
        return True
