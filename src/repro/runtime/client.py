"""The gateway's peer: a keep-alive client over one socket.

Speaks the control frames of :mod:`repro.network.frames` to a
:class:`~repro.runtime.gateway.ServingGateway` and drives a
:class:`~repro.core.session.ClientSession` through each admitted
request. Knows nothing of the gateway's internals — only the wire.
"""

from __future__ import annotations

import random
import time

from repro.network import frames
from repro.network.transport import SocketTransport, TransportError
from repro.runtime.policy import MAX_RETRY_AFTER

MAX_BUSY_RETRIES = 1000  # consecutive BUSY replies before a request gives up


class GatewayClient:
    """Keep-alive client: one connection, any number of requests.

    Wire lifecycle: HELLO once at connect, then per request
    ``REQ → (BUSY backoff → REQ)* → OFFER → protocol → DONE``; GOAWAY
    (either direction) ends the connection. The underlying
    :class:`~repro.core.session.ClientSession` is connection-scoped and
    recycled between requests via ``reset_for_request()``, so transport,
    channel accounting, counters, and the shape-only lowering are all
    amortized across requests. The ``issued``/``admitted``/``deferred``/
    ``rejected`` attributes mirror the gateway's admission ledger from
    this side of the wire.
    """

    def __init__(
        self,
        host: str,
        port: int,
        network,
        params,
        *,
        garbler: str = "client",
        client_id: str = "client0",
        seed: int | None = None,
        truncate_bits: int = 0,
        lowered=None,
        retries: int = 40,
    ):
        from repro.core.session import ClientSession

        self.client_id = client_id
        self.garbler = garbler
        self.truncate_bits = truncate_bits
        self.issued = 0
        self.admitted = 0
        self.deferred = 0
        self.rejected = 0
        self.retry_sleep_seconds = 0.0  # total time spent in BUSY backoff
        self._next_index = 0
        self._closed = False
        # Backoff jitter stream: seeded clients get deterministic sleeps
        # (protocol randomness is untouched — logits never depend on it).
        self._backoff_rng = random.Random(seed)
        self._backoff_cap = 2 * MAX_RETRY_AFTER
        self.transport = SocketTransport.connect(host, port, retries=retries)
        self.session = ClientSession(
            network,
            params=params,
            garbler=garbler,
            seed=seed,
            truncate_bits=truncate_bits,
            transport=self.transport,
            lowered=lowered,
        )
        self.transport.send(frames.encode_hello(client_id))

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, x: list[int], request_index: int | None = None) -> list[int]:
        """One inference over the live connection; returns the logits.

        Issues a REQ (honoring BUSY backoff with the server-suggested
        retry-after), adopts the offered precompute half on a hit or runs
        the full offline phase over the wire on a miss, drives the online
        phase, and consumes the DONE acknowledgement.
        """
        from repro.core.protocol import split_offline_state
        from repro.core.session import LIFE_NEW

        if request_index is None:
            request_index = self._next_index
        self._next_index = request_index + 1
        deferrals = 0
        backoff = 0.0
        while True:
            self.transport.send(frames.encode_request(request_index))
            self.issued += 1
            frame = self.transport.recv(wait=True)
            head = bytes(frame[:4])
            if head == frames.BUSY:
                self.deferred += 1
                deferrals += 1
                if deferrals > MAX_BUSY_RETRIES:
                    raise TransportError(
                        f"request {request_index} deferred {deferrals} "
                        "times; giving up"
                    )
                # Decorrelated jitter seeded by the server's hint: the
                # first retry sleeps exactly retry_after (the server's
                # best estimate of when the backlog clears); repeat
                # deferrals spread out uniformly in [hint, 3 * previous]
                # so a crowd of deferred clients doesn't re-stampede the
                # gateway on one synchronized beat.
                hint = max(0.0, frames.decode_busy(frame))
                backoff = min(
                    self._backoff_cap,
                    self._backoff_rng.uniform(hint, max(hint, 3.0 * backoff)),
                )
                self.retry_sleep_seconds += backoff
                time.sleep(backoff)
                continue
            if head == frames.GOAWAY:
                self.rejected += 1
                self._closed = True
                reason = frames.decode_goaway(frame) or "no reason given"
                raise TransportError(
                    f"gateway rejected request {request_index}: {reason}"
                )
            hit, blob = frames.decode_offer(frame)
            break
        self.admitted += 1
        session = self.session
        if session.lifecycle != LIFE_NEW:
            session.reset_for_request()
        if hit:
            client_state, _ = split_offline_state(
                blob,
                session.lowered,
                session.relu_circuit(),
                self.garbler,
                self.truncate_bits,
            )
            session.load_offline_state(*client_state)
        else:
            session.run_offline()
        logits = session.run_online(x)
        done_index, _ = frames.decode_done(self.transport.recv(wait=True))
        if done_index != request_index:
            raise TransportError(
                f"gateway acknowledged request {done_index}, "
                f"expected {request_index}"
            )
        return logits

    def stats(self) -> dict:
        """Mid-stream ``GWS1`` stats snapshot (only between requests)."""
        self.transport.send(frames.encode_stats_request())
        return frames.decode_stats_reply(self.transport.recv(wait=True))

    def local_stats(self) -> dict:
        """This side of the admission ledger, plus backoff accounting."""
        return {
            "issued": self.issued,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "busy_retries": self.deferred,
            "retry_sleep_seconds": round(self.retry_sleep_seconds, 6),
        }

    def close(self) -> None:
        """Graceful bye: best-effort GOAWAY, then close the socket."""
        if not self._closed:
            self._closed = True
            try:
                self.transport.send(frames.encode_goaway("client done"))
            except TransportError:  # pragma: no cover - peer already gone
                pass
        self.transport.close()


def request_inference(
    host: str,
    port: int,
    network,
    params,
    x: list[int],
    *,
    request_index: int = 0,
    **client_options,
) -> list[int]:
    """One inference against a running gateway, from the client's side.

    A thin single-request wrapper over :class:`GatewayClient`, whose
    keyword options it forwards: connect, HELLO, one REQ cycle, GOAWAY,
    close.
    """
    with GatewayClient(host, port, network, params, **client_options) as client:
        return client.request(x, request_index=request_index)


def request_stats(host: str, port: int, *, retries: int = 40) -> dict:
    """Fetch a live stats snapshot from a running gateway.

    Speaks the ``GWS1`` wire op: connect, send the 4-byte stats magic
    where a hello would normally go, read back one JSON frame. The
    gateway answers from its selector thread without minting a session,
    so probing is free of transcript side effects.
    """
    transport = SocketTransport.connect(host, port, retries=retries)
    try:
        transport.send(frames.encode_stats_request())
        return frames.decode_stats_reply(transport.recv(wait=True))
    finally:
        transport.close()
