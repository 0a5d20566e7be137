"""Role-separated protocol sessions: independent client/server state machines.

The pre-redesign :class:`HybridProtocol` simulated both parties inside one
Python object over an in-memory queue, which made a two-process (let alone
two-host) deployment structurally impossible and forced the serving loop
to treat a whole protocol phase as one indivisible call. This module
splits the DELPHI hybrid protocol into two independent state machines —
:class:`ClientSession` and :class:`ServerSession` — that communicate
*only* through serialized wire messages (:mod:`repro.network.serialize`)
over a pluggable :class:`~repro.network.transport.Transport`:

* each session exposes explicit phase methods — ``start_offline()`` /
  ``step()`` / ``start_online(x)`` / ``finish()`` — so a driver can
  interleave many sessions message-by-message (the serving loop overlaps
  refill mints with online drains exactly this way);
* ``step()`` advances the session until it blocks on the transport or the
  phase completes, so the same state machine runs under a single-threaded
  scheduler (``InMemoryTransport``, loopback sockets) or a blocking
  two-process deployment (``SocketTransport``);
* every message a session sends or receives is charged to its own
  :class:`~repro.network.channel.Channel` at its analytic size — what
  :func:`repro.core.validation.predict_comm` predicts to the byte, and
  what ``tests/test_eval_matvec.py`` pins per phase beside the frame
  digests.

Fidelity notes. This is a functional reproduction of the paper's system
characterization, not a hardened deployment: the IKNP extension is
executed by the label-holding party after the chooser ships its choice
bits over the wire (the *charged* byte volumes are the real
extension's, from :func:`repro.ot.extension.iknp_transcript`, but the
exchanged bits would leak the chooser's shares to a real adversary, so
the socket deployments demonstrate the system shape and byte volumes,
not a security property). The extension is one
:class:`~repro.ot.extension.IknpStream` per connection: the holder keeps
it — the chooser's half included — for as long as the session lives, and
the base OTs run on the connection's first label OT, charged once to the
channel's ``setup`` phase; every later batch continues the same PRG
streams and row tweaks and pays only its columns and masked pairs. The
client session's lowering is *shape-only*: layer widths and ReLU
placement are public, and no weight matrix ever materializes client-side.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.backend import backend_for
from repro.core.lowering import (
    LoweredNetwork,
    lower_network,
    next_linear_index,
    validate_packing,
)
from repro.crypto.modmath import matvec_mod, mod_add_vec, mod_sub_vec
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit, int_to_bits, words_to_int
from repro.gc.evaluate import Evaluator
from repro.gc.garble import EncodingBatch, GarbledBatch, Garbler, LabelBatch
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.params import BfvParams, toy_params
from repro.network.channel import CLIENT, SERVER, Channel
from repro.network.serialize import (
    deserialize_bit_vector,
    deserialize_ciphertext,
    deserialize_circuit_batch,
    deserialize_field_vector,
    deserialize_galois_keys,
    deserialize_label_lists,
    deserialize_labels,
    serialize_bit_vector,
    serialize_ciphertext,
    serialize_circuit_batch,
    serialize_field_vector,
    serialize_galois_keys,
    serialize_label_lists,
    serialize_labels,
)
from repro.ot.extension import IknpStream, iknp_transcript, iknp_transfer
from repro.telemetry import TRACER, now_us, section

# step() results
DONE = "done"
WAITING = "waiting"

# Session lifecycle states. A session is *connection*-scoped and serves
# many requests over its lifetime; each request walks
# NEW → [OFFLINE →] READY → ONLINE → COMPLETE, and
# ``reset_for_request()`` re-arms a COMPLETE session back to NEW while
# keeping the connection-scoped state (transport, channel accounting,
# counters, lowering, circuit cache, RNG stream, label-OT stream).
LIFE_NEW = "new"
LIFE_OFFLINE = "offline"
LIFE_READY = "ready"
LIFE_ONLINE = "online"
LIFE_COMPLETE = "complete"


@dataclass
class ReluBundle:
    """Everything one party stores for one garbled ReLU layer.

    Each session holds only its role's slice: the garbler keeps
    ``encodings``; the evaluator keeps ``circuits`` plus the label
    material it received (``evaluator_labels``). Unused fields are None.
    """

    mask_index: int  # which linear layer's r masks this ReLU's output
    circuits: GarbledBatch | None = None
    encodings: EncodingBatch | None = None
    evaluator_labels: LabelBatch | None = None


@dataclass
class ProtocolCounters:
    """Operation counters accumulated during a run."""

    he_encryptions: int = 0
    he_decryptions: int = 0
    he_rotations: int = 0
    he_plain_mults: int = 0
    gc_circuits_garbled: int = 0
    gc_circuits_evaluated: int = 0
    ots_performed: int = 0

    def merged_with(self, other: "ProtocolCounters") -> "ProtocolCounters":
        out = ProtocolCounters()
        for f in fields(ProtocolCounters):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out


def role_seed(seed: int | None, role: str) -> int | None:
    """Derive one role's RNG seed from a protocol-level seed.

    Hash-derived per role so the two sessions of one protocol never share
    (or structurally correlate) a stream; None stays None (OS entropy).
    """
    if seed is None:
        return None
    from repro.runtime.state import derive_worker_seed

    return derive_worker_seed(seed, 0 if role == CLIENT else 1)


class ProtocolSession:
    """Common machinery of the two role sessions (state, stepping, accounting).

    A session is a resumable state machine: ``start_offline()`` /
    ``start_online(...)`` arm a phase, ``step()`` advances it until the
    session either needs a frame the transport has not delivered yet
    (returns :data:`WAITING`) or the phase completes (returns
    :data:`DONE`), and ``finish()`` collects the phase result. The
    blocking convenience wrappers ``run_offline()`` / ``run_online()``
    drive a phase to completion on transports that can block (sockets).
    """

    role: str  # CLIENT or SERVER, set by the subclass
    # Whether this role's lowering materializes the weight matrices. The
    # client's view is shape-only: widths and ReLU placement are public,
    # the weights never leave the server.
    needs_weights = True

    def __init__(
        self,
        network,
        params: BfvParams | None = None,
        garbler: str = "server",
        seed: int | None = None,
        truncate_bits: int = 0,
        transport=None,
        channel: Channel | None = None,
        lowered: LoweredNetwork | None = None,
    ):
        if garbler not in ("server", "client"):
            raise ValueError("garbler must be 'server' or 'client'")
        self.params = params or toy_params(n=256)
        self.garbler_role = garbler
        self.modulus = self.params.t
        self.bits = self.modulus.bit_length()
        self.truncate_bits = truncate_bits
        # ``lowered`` lets a caller that already holds a lowering reuse it;
        # otherwise the client lowers shape-only (no weight matrices ever
        # materialize on its side) while the server pays the full
        # conv-as-matrix expansion it needs for the homomorphic matvec.
        self.lowered: LoweredNetwork = (
            lowered
            if lowered is not None
            else lower_network(
                network,
                self.modulus,
                backend=self.params.backend,
                shape_only=not self.needs_weights,
            )
        )
        # Resolved once: share arithmetic and GC batching follow the same
        # per-protocol preference the HE layer uses, not just the global.
        self._backend_pref = self.params.backend
        self._vectorize_gc = (
            backend_for(self.modulus, prefer=self._backend_pref).name == "numpy"
        )
        self.rng = SecureRandom(seed)
        self.transport = transport
        self.channel = channel or Channel(field_bytes=(self.bits + 7) // 8)
        self.counters = ProtocolCounters()
        # Connection-scoped label-OT state: the holder's running extension
        # (its base OTs drawn from ``rng`` on the first batch) and the
        # chooser's matching fact that the base OTs have run.
        self.iknp_stream = IknpStream(self.rng)
        self._base_ots_done = False
        self._relu_bundles: dict[int, ReluBundle] = {}
        self.lifecycle = LIFE_NEW
        self._gen = None
        self._phase: str | None = None
        self._primed = False
        self._result = None
        self._trace_track: int | None = None
        self._phase_start_us: int | None = None
        validate_packing(self.lowered, self.params.row_size)

    # -- identity -----------------------------------------------------------

    @property
    def peer(self) -> str:
        return SERVER if self.role == CLIENT else CLIENT

    @property
    def garbles(self) -> bool:
        """Whether this party garbles the ReLUs (else it stores and evaluates).

        The one place the protocol assigns the garbler/evaluator roles —
        the functional twin of :meth:`SystemConfig.gc_roles`.
        """
        return self.role == self.garbler_role

    @property
    def offline_done(self) -> bool:
        return self.lifecycle in (LIFE_READY, LIFE_ONLINE, LIFE_COMPLETE)

    def relu_circuit(self) -> Circuit:
        """The (shared, public) ReLU circuit topology for this protocol.

        Every ReLU layer garbles the same public topology — only the
        labels differ — so it is one process-wide circuit per spec
        (:func:`build_relu_circuit`), which also lets stored bundles
        rebind without re-lowering.
        """
        # The mask r is the client's input, so it sits on whichever half
        # of the circuit the client plays.
        client_garbles = self.garbles == (self.role == CLIENT)
        return build_relu_circuit(
            ReluCircuitSpec(
                bits=self.bits,
                modulus=self.modulus,
                mask_owner="garbler" if client_garbles else "evaluator",
                truncate_bits=self.truncate_bits,
            )
        )

    def _relu_plan(self) -> list[tuple[int, int, int, int]]:
        """(step position, linear index, mask index, width) per ReLU layer."""
        plan = []
        for pos, (kind, lin_idx) in enumerate(self.lowered.steps):
            if kind != "relu":
                continue
            mask_index = next_linear_index(self.lowered, pos)
            n = self.lowered.linears[lin_idx].n_out
            if self.lowered.linears[mask_index].n_in != n:
                raise ValueError("mask length mismatch (unsupported layer between)")
            plan.append((pos, lin_idx, mask_index, n))
        return plan

    @property
    def _last_linear_index(self) -> int:
        return self.lowered.steps[-1][1]

    # -- transport + byte accounting -----------------------------------------

    def _send(self, frame: bytes, payload=None, nbytes: int | None = None) -> None:
        """Ship a frame and charge it to this session's channel stats.

        ``payload``/``nbytes`` give the message's analytic wire size (not
        its serialized size), the figure ``predict_comm`` predicts.
        """
        self.transport.send(frame)
        self.channel.send(self.role, payload, nbytes)
        self.channel.recv(self.peer)  # stats only: drain the mirror queue

    def _note_recv(self, payload=None, nbytes: int | None = None) -> None:
        """Charge an inbound message (the peer's send) to the channel stats."""
        self.channel.send(self.peer, payload, nbytes)
        self.channel.recv(self.role)

    def _book_base_ots(self, transcript, holder: str) -> None:
        """Charge a label OT's base OTs, if it ran any, to the setup phase:
        A from the chooser to ``holder``, the kappa points back."""
        if transcript.base_ot_bytes:
            chooser = SERVER if holder == CLIENT else CLIENT
            self.channel.book("setup", chooser, transcript.key_bytes)
            self.channel.book("setup", holder, transcript.point_bytes)

    # -- phase control --------------------------------------------------------

    def _begin_phase(self, phase: str, gen) -> None:
        if self._gen is not None:
            raise RuntimeError(f"a {self._phase} phase is already in progress")
        if self.transport is None:
            raise RuntimeError("no transport attached to this session")
        self._phase = phase
        self._gen = gen
        self._primed = False
        if TRACER.enabled:
            # Session phases interleave with other sessions on the same
            # thread (the gateway selector loop), so each session gets
            # its own virtual track for its phase spans.
            if self._trace_track is None:
                self._trace_track = TRACER.new_track(f"{self.role}-session")
            self._phase_start_us = now_us()

    def start_offline(self) -> None:
        """Arm the offline phase (HE correlations + garbling + OT)."""
        if self._gen is not None:
            raise RuntimeError(f"a {self._phase} phase is already in progress")
        if self.lifecycle != LIFE_NEW:
            raise RuntimeError(
                f"cannot start offline from lifecycle state {self.lifecycle!r}"
                " — reset_for_request() re-arms a completed session"
            )
        self._begin_phase("offline", self._offline_gen())
        self.lifecycle = LIFE_OFFLINE

    def step(self, wait: bool = False) -> str:
        """Advance the active phase as far as the transport allows.

        Feeds every available inbound frame to the state machine; sends
        happen eagerly along the way. Returns :data:`WAITING` when the
        next frame has not arrived (``wait=False``) or :data:`DONE` when
        the phase completes. ``wait=True`` blocks on the transport — only
        valid for transports that can block (sockets).
        """
        if self._gen is None:
            return DONE
        try:
            if not self._primed:
                self._primed = True
                next(self._gen)
            while True:
                frame = self.transport.recv(wait=wait)
                if frame is None:
                    return WAITING
                self._gen.send(frame)
        except StopIteration:
            self._finish_phase(completed=True)
            return DONE
        except BaseException:
            # A failed phase must not look finished: drop the dead
            # generator so a later step() cannot mistake its StopIteration
            # for completion and mark a half-run offline phase done.
            self._finish_phase(completed=False)
            raise

    def _finish_phase(self, completed: bool) -> None:
        if TRACER.enabled and self._phase_start_us is not None:
            TRACER.emit_since(
                f"session.{self.role}.{self._phase}",
                self._phase_start_us,
                tid=self._trace_track,
                garbler=self.garbler_role,
                completed=completed,
            )
        self._phase_start_us = None
        self._gen = None
        if self._phase == "offline":
            # A failed offline phase must not look finished: the lifecycle
            # rolls back to NEW so the session can be re-armed (or reset).
            self.lifecycle = LIFE_READY if completed else LIFE_NEW
        else:
            self.lifecycle = LIFE_COMPLETE if completed else LIFE_READY
        self._phase = None

    def finish(self):
        """Result of the last completed phase (client online: the logits)."""
        if self._gen is not None:
            raise RuntimeError("phase still in progress — keep stepping")
        return self._result

    def run_offline(self) -> None:
        """Blocking convenience: drive the offline phase to completion."""
        self.start_offline()
        while self.step(wait=True) != DONE:
            pass  # pragma: no cover - step(wait=True) only returns on DONE

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    # -- the garbled-ReLU legs, each written once -------------------------------
    #
    # Client-Garbler is Server-Garbler with the two halves swapped between
    # the parties; what does not swap is *when* a party's input bits exist:
    # the client's share and mask words are fixed offline, the server's
    # share only online. So each half takes ``own_input_bits`` — a function
    # (lin_idx, mask_index) -> one bit list per instance, or None while
    # the bits do not exist yet — and a party's labels travel in the phase
    # its bits are known: directly if it garbles, by OT if it evaluates.
    # The two constant-wire labels depend on no input and ride whichever
    # of those two deliveries is the offline one.

    _CONST_WIRES = [Circuit.CONST_ZERO, Circuit.CONST_ONE]

    def _bit_matrix(self, *vectors: list[int]):
        """Per instance, the little-endian bits of one word from each vector."""
        return np.array(
            [
                [bit for word in words for bit in int_to_bits(word, self.bits)]
                for words in zip(*vectors)
            ],
            dtype=np.uint8,
        )

    def _garbler_offline(self, own_input_bits, keep_decode_bits: bool):
        """Garbler half of the offline phase: garble, ship, deliver labels.

        Every layer's RNG spawns first, in plan order, and only then does
        garbling run layer by layer — the draw order is transcript-critical.
        ``keep_decode_bits`` ships the output decode bits with the circuits
        (the evaluating server may learn x - r and decodes locally); without
        them the evaluating client returns output labels it cannot read.
        With ``own_input_bits`` the garbler's own labels follow each batch;
        without, the evaluator's labels are due now: serve its label OT.
        """
        circuit = self.relu_circuit()
        plan = self._relu_plan()
        layer_rngs = [self.rng.spawn() for _ in plan]
        with section("gc", "gc.garble_layers", layers=len(plan)):
            batches = [
                Garbler(rng).garble_batch(circuit, n, vectorize=self._vectorize_gc)
                for (_, _, _, n), rng in zip(plan, layer_rngs)
            ]
        for (pos, lin_idx, mask_index, n), (circuits, encodings) in zip(plan, batches):
            self.counters.gc_circuits_garbled += n
            if not keep_decode_bits:
                circuits = circuits.without_decode_bits()
            self._send(serialize_circuit_batch(circuits), payload=circuits)
            if own_input_bits is None:
                yield from self._label_ot_holder(encodings)
            else:
                labels = Garbler.encode_inputs(
                    encodings, circuit, own_input_bits(lin_idx, mask_index)
                ).labels
                self._send(serialize_label_lists(labels), nbytes=labels.nbytes)
            self._relu_bundles[pos] = ReluBundle(mask_index, encodings=encodings)

    def _evaluator_offline(self, own_input_bits):
        """Evaluator half of the offline phase: store circuits and labels.

        With ``own_input_bits`` this party's input labels are fetched now
        by OT; without, what arrives now is the garbler's own labels and
        this party's follow online.
        """
        circuit = self.relu_circuit()
        garbler_wires = self._CONST_WIRES + circuit.garbler_inputs
        for pos, lin_idx, mask_index, n in self._relu_plan():
            frame = yield
            circuits = deserialize_circuit_batch(frame, circuit)
            self._note_recv(circuits)
            if len(circuits) != n:
                raise ValueError("garbled batch width does not match the layer")
            if own_input_bits is None:
                labels = yield from self._recv_labels(garbler_wires, n)
            else:
                labels = yield from self._label_ot_chooser(
                    own_input_bits(lin_idx, mask_index)
                )
            self._relu_bundles[pos] = ReluBundle(
                mask_index, circuits=circuits, evaluator_labels=labels
            )

    def _recv_labels(self, wires: list[int], n: int) -> LabelBatch:
        """Receive one layer's directly-sent labels, bound to ``wires``.

        The frame must have the layer's shape, checked by the codec in the
        phase that received it: a short list would otherwise surface
        later, as a KeyError inside ``evaluate_batch`` or a wrong word.
        """
        frame = yield
        labels = deserialize_label_lists(frame, n, len(wires))
        self._note_recv(nbytes=labels.nbytes)
        return LabelBatch(wires, labels)

    def _label_ot_chooser(self, choice_bits) -> LabelBatch:
        """Chooser half of one layer's label OT; returns the bound labels.

        Ships the (count, n_evaluator) choice bits — charged as the u
        columns the real IKNP chooser would ship, plus the connection's
        base OTs on its first OT — and binds the reply to the
        evaluator-input wires.
        """
        wires = self.relu_circuit().evaluator_inputs
        count = len(choice_bits)
        transcript = iknp_transcript(choice_bits.size, setup=not self._base_ots_done)
        self._base_ots_done = True
        self._book_base_ots(transcript, holder=self.peer)
        self._send(
            serialize_bit_vector(choice_bits.ravel().tolist()),
            nbytes=transcript.column_bytes,
        )
        frame = yield
        self._note_recv(nbytes=transcript.ciphertext_bytes)
        if self._phase == "online":
            flat = deserialize_labels(frame, choice_bits.size)
            return LabelBatch(wires, flat.reshape(count, len(wires), -1))
        # Offline the two constant-wire labels lead each instance's list;
        # stored label maps keep the order [inputs, constants]: the store
        # blob serializes them as they iterate.
        labels = deserialize_label_lists(frame, count, 2 + len(wires))
        return LabelBatch(
            wires + self._CONST_WIRES,
            np.concatenate([labels[:, 2:], labels[:, :2]], axis=1),
        )

    def _label_ot_holder(self, encodings: EncodingBatch):
        """Label-holder half of one layer's OT: choice bits in, labels out.

        Both labels of every evaluator-input wire go into the next batch
        of the connection's extension; the reply is charged as the masked
        pairs the real holder would ship.
        """
        pairs = encodings.evaluator_pairs()
        frame = yield
        choices = deserialize_bit_vector(frame)
        if len(choices) != len(pairs[0]):
            raise ValueError("OT choice count does not match the layer")
        with section("ot", "ot.iknp_transfer", pairs=len(choices)):
            received, transcript = iknp_transfer(pairs, choices, self.iknp_stream)
        self._book_base_ots(transcript, holder=self.role)
        self._note_recv(nbytes=transcript.column_bytes)
        self.counters.ots_performed += len(choices)
        if self._phase == "offline":
            # Each instance's constant-wire labels ride the same message
            # the masked OT pairs are charged as.
            reply = serialize_label_lists(
                np.concatenate(
                    [
                        encodings.constant_labels(),
                        received.reshape(len(encodings), -1, received.shape[1]),
                    ],
                    axis=1,
                )
            )
        else:
            reply = serialize_labels(received)
        self._send(reply, nbytes=transcript.ciphertext_bytes)

    def _evaluate_layer(self, bundle: ReluBundle, arrived: LabelBatch):
        """Evaluator's online step for one layer; returns the output labels.

        ``arrived`` (the labels this phase delivered) completes the ones
        stored offline.
        """
        with section("gc", "gc.evaluate_batch", width=len(arrived)):
            outputs = Evaluator().evaluate_batch(
                bundle.circuits,
                {**bundle.evaluator_labels.columns(), **arrived.columns()},
                vectorize=self._vectorize_gc,
            )
        self.counters.gc_circuits_evaluated += len(arrived)
        return outputs

    # -- offline state transplant (precompute store integration) --------------

    def load_offline_bundles(self, bundles: dict[int, ReluBundle]) -> None:
        if self._gen is not None:
            raise RuntimeError(
                f"cannot adopt offline state while a {self._phase} phase "
                "is in progress"
            )
        self._relu_bundles = bundles
        self.lifecycle = LIFE_READY

    # -- request recycling (keep-alive connections) ----------------------------

    # Attributes that belong to one *request* (offline correlations and
    # role keys), torn down by reset_for_request(). Everything else on the
    # session is connection-scoped and survives across requests.
    _REQUEST_STATE: tuple[str, ...] = ()

    def reset_for_request(self) -> None:
        """Recycle this connection-scoped session for a fresh request.

        Keeps what is amortized across a keep-alive connection — the
        transport, channel byte accounting, operation counters, lowering,
        ReLU circuit cache, RNG stream, and label-OT stream — while clearing
        per-request protocol state (offline shares/keys, garbled bundles,
        the phase result) and re-arming the lifecycle at NEW so the next
        request can run or adopt a fresh offline phase.
        """
        if self._gen is not None:
            raise RuntimeError(
                f"cannot reset while a {self._phase} phase is in progress"
            )
        for name in self._REQUEST_STATE:
            self.__dict__.pop(name, None)
        self._relu_bundles = {}
        self._result = None
        self.lifecycle = LIFE_NEW


class ClientSession(ProtocolSession):
    """The client's half of the protocol: inputs, HE keys, mask vectors.

    Owns the BFV secret key, the per-layer masks ``r_i``, and the offline
    shares ``W r_i - s_i``; under Server-Garbler it additionally stores
    and later evaluates the garbled ReLUs, under Client-Garbler it
    garbles them. Lowers the network *shape-only*: layer widths and ReLU
    placement are public, and no weight matrix is ever materialized on
    this side (the ``network`` argument's weights, if any, are ignored).
    """

    role = CLIENT
    needs_weights = False
    _REQUEST_STATE = ("client_r", "client_linear_share", "_ctx", "_encoder", "_sk")

    def start_online(self, x: list[int]) -> None:
        """Arm one inference on the client input ``x``."""
        if self.lifecycle not in (LIFE_READY, LIFE_COMPLETE):
            raise RuntimeError("offline phase must run before online phase")
        if len(x) != self.lowered.input_size:
            raise ValueError("input size mismatch")
        self._begin_phase("online", self._online_gen(list(x)))
        self.lifecycle = LIFE_ONLINE

    def run_online(self, x: list[int]) -> list[int]:
        """Blocking convenience: one inference, returns the logits."""
        self.start_online(x)
        while self.step(wait=True) != DONE:
            pass  # pragma: no cover - step(wait=True) only returns on DONE
        return self.finish()

    def load_offline_state(
        self,
        client_r: list[list[int]],
        client_linear_share: list[list[int]],
        bundles: dict[int, ReluBundle],
    ) -> None:
        """Adopt a stored offline phase instead of running one."""
        self.client_r = client_r
        self.client_linear_share = client_linear_share
        self.load_offline_bundles(bundles)

    # -- offline ---------------------------------------------------------------

    def _offline_gen(self):
        self.channel.set_phase("offline")
        p = self.modulus
        params = self.params
        ctx = BfvContext(params, self.rng.spawn())
        encoder = BatchEncoder(params)
        # The server needs the Galois keys and nothing else: the client
        # encrypts with its secret key, so no public key is made or sent.
        with section("he_linear", "he.keygen"):
            sk = ctx.secret_keygen()
            gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
        self._send(serialize_galois_keys(gk), payload=gk)
        self._ctx, self._encoder, self._sk = ctx, encoder, sk
        # The evaluator object is used purely for its packing layout here;
        # the homomorphic matvec runs on the server.
        packer = HomomorphicLinearEvaluator(ctx, encoder, gk)

        self.client_r = [
            self.rng.field_vector(lin.n_in, p) for lin in self.lowered.linears
        ]
        self.client_linear_share = []
        # HE pass: send Enc(r_i); the server returns Enc(W r_i - s_i).
        for lin, r in zip(self.lowered.linears, self.client_r):
            with section("he_linear", "he.encrypt"):
                ct = ctx.encrypt(sk, encoder.encode(packer.pack_vector(r)))
            self.counters.he_encryptions += 1
            self._send(serialize_ciphertext(ct), payload=ct)
            frame = yield
            ct_out = deserialize_ciphertext(frame, params)
            self._note_recv(ct_out)
            with section("he_linear", "he.decrypt"):
                share = encoder.decode(ctx.decrypt(sk, ct_out))[: lin.n_out]
            self.counters.he_decryptions += 1
            self.client_linear_share.append(share)

        def own_input_bits(lin_idx: int, mask_index: int):
            """Per instance, this side's two GC input words: share, mask."""
            return self._bit_matrix(
                self.client_linear_share[lin_idx], self.client_r[mask_index]
            )

        if self.garbles:
            yield from self._garbler_offline(own_input_bits, keep_decode_bits=True)
        else:
            yield from self._evaluator_offline(own_input_bits)

    # -- online ----------------------------------------------------------------

    def _online_gen(self, x: list[int]):
        self.channel.set_phase("online")
        p = self.modulus
        masked = mod_sub_vec(x, self.client_r[0], p, prefer=self._backend_pref)
        self._send(serialize_field_vector(masked, p), payload=masked)

        circuit = self.relu_circuit()
        for pos, _, _, n in self._relu_plan():
            bundle = self._relu_bundles[pos]
            if self.garbles:
                # The server fetches its share's labels from these encodings.
                yield from self._label_ot_holder(bundle.encodings)
            else:
                # Evaluate on the server's share labels; return the output
                # labels, which only the garbler can decode.
                arrived = yield from self._recv_labels(circuit.garbler_inputs, n)
                outputs = self._evaluate_layer(bundle, arrived)
                self._send(serialize_label_lists(outputs), nbytes=outputs.nbytes)

        frame = yield
        final_server_share = deserialize_field_vector(frame)
        self._note_recv(final_server_share)
        final_client_share = self.client_linear_share[self._last_linear_index]
        self._result = mod_add_vec(
            final_server_share, final_client_share, p, prefer=self._backend_pref
        )


class ServerSession(ProtocolSession):
    """The server's half of the protocol: weights, HE evaluation, shares.

    Owns the model weights and the per-layer output shares ``s_i``;
    evaluates the homomorphic matvecs offline and the masked linear
    layers online. Under Server-Garbler it garbles the ReLUs; under
    Client-Garbler it stores and evaluates them (fetching its input
    labels by online OT), which is exactly the storage/latency trade the
    paper's §5.1 proposes.
    """

    role = SERVER
    _REQUEST_STATE = ("server_s",)

    def start_online(self) -> None:
        """Arm the serving side of one inference."""
        if self.lifecycle not in (LIFE_READY, LIFE_COMPLETE):
            raise RuntimeError("offline phase must run before online phase")
        self._begin_phase("online", self._online_gen())
        self.lifecycle = LIFE_ONLINE

    def run_online(self) -> None:
        """Blocking convenience: serve one inference to completion."""
        self.start_online()
        while self.step(wait=True) != DONE:
            pass  # pragma: no cover - step(wait=True) only returns on DONE
        return self.finish()

    def load_offline_state(
        self, server_s: list[list[int]], bundles: dict[int, ReluBundle]
    ) -> None:
        """Adopt a stored offline phase instead of running one."""
        self.server_s = server_s
        self.load_offline_bundles(bundles)

    # -- offline ---------------------------------------------------------------

    def _offline_gen(self):
        self.channel.set_phase("offline")
        p = self.modulus
        params = self.params
        ctx = BfvContext(params)
        encoder = BatchEncoder(params)
        frame = yield
        gk = deserialize_galois_keys(frame, params)
        self._note_recv(gk)
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)

        self.server_s = [
            self.rng.field_vector(lin.n_out, p) for lin in self.lowered.linears
        ]
        row = params.row_size
        # HE pass: homomorphic W r_i - s_i on each received Enc(r_i).
        for lin, s in zip(self.lowered.linears, self.server_s):
            frame = yield
            ct = deserialize_ciphertext(frame, params)
            self._note_recv(ct)
            with section("he_linear", "he.matvec", n_out=lin.n_out):
                ct_y = evaluator.matvec(ct, lin.matrix)
                s_row = list(s) + [0] * (row - lin.n_out)
                ct_out = ctx.sub_plain(ct_y, encoder.encode(s_row + s_row))
                # Down to the modulus the client's decryption needs.
                ct_out = ctx.mod_switch(ct_out)
            self._send(serialize_ciphertext(ct_out), payload=ct_out)
        self.counters.he_rotations += evaluator.rotations_performed
        self.counters.he_plain_mults += evaluator.plain_mults_performed

        # This side's GC input (its share of the activation) exists only
        # online, so neither half has input bits to deliver yet.
        if self.garbles:
            yield from self._garbler_offline(None, keep_decode_bits=False)
        else:
            yield from self._evaluator_offline(None)

    # -- online ----------------------------------------------------------------

    def _online_gen(self):
        self.channel.set_phase("online")
        p = self.modulus
        frame = yield
        server_vec = deserialize_field_vector(frame)
        self._note_recv(server_vec)
        if len(server_vec) != self.lowered.input_size:
            raise ValueError("masked input size mismatch")

        circuit = self.relu_circuit()
        for pos, (kind, lin_idx) in enumerate(self.lowered.steps):
            if kind == "linear":
                lin = self.lowered.linears[lin_idx]
                with section("he_linear", "linear.matvec_mod", n_out=lin.n_out):
                    server_vec = mod_add_vec(
                        matvec_mod(
                            lin.matrix, server_vec, p, prefer=self._backend_pref
                        ),
                        self.server_s[lin_idx],
                        p,
                        prefer=self._backend_pref,
                    )
                continue
            bundle = self._relu_bundles[pos]
            share_bits = self._bit_matrix(server_vec)
            if self.garbles:
                # Ship the labels of this side's share; the client
                # evaluates and returns output labels; decode here.
                with section("gc", "gc.encode_labels", width=len(server_vec)):
                    labels = bundle.encodings.garbler_labels(share_bits)
                self._send(serialize_label_lists(labels), nbytes=labels.nbytes)
                frame = yield
                outputs = deserialize_label_lists(
                    frame, len(server_vec), len(circuit.outputs)
                )
                self._note_recv(nbytes=outputs.nbytes)
                with section("gc", "gc.decode_outputs", width=len(outputs)):
                    output_bits = Garbler.decode_output_labels(
                        bundle.encodings, circuit, outputs
                    )
            else:
                # Fetch labels for this side's share via online OT, then
                # evaluate and decode locally (decode bits shipped offline).
                arrived = yield from self._label_ot_chooser(share_bits)
                outputs = self._evaluate_layer(bundle, arrived)
                output_bits = Evaluator().decode(bundle.circuits, outputs)
            server_vec = [words_to_int(bits) for bits in output_bits.tolist()]

        # Final reconstruction: ship this side's output share.
        self._send(serialize_field_vector(server_vec, p), payload=server_vec)
        self._result = None
