"""Gateway control frames: the wire vocabulary between client and gateway.

Control frames ride the same length-prefixed transport as the protocol
messages; a 4-byte magic keeps them unmistakable for (and versioned
independently of) the :mod:`repro.network.serialize` payload formats.
Every kind is one row of :data:`FRAMES` — magic, telemetry name, fixed
fields, whether a variable tail follows — and every decode goes through
:func:`unpack`, which checks magic and length before a byte is trusted:
a frame that is not exactly what its row says raises
:class:`~repro.network.transport.TransportError`, the one error the
gateway's per-connection handler and the client both expect.
"""

from __future__ import annotations

import json
import struct

from repro.network.transport import TransportError

HELLO, REQUEST, OFFER, DONE, BUSY, GOAWAY, STATS = (
    b"GWH2", b"GWR1", b"GWO1", b"GWD1", b"GWB1", b"GWG1", b"GWS1",
)

# magic -> (telemetry name, fixed little-endian fields, variable tail follows)
FRAMES = {
    HELLO: ("gateway_hello", struct.Struct("<"), True),  # tail: client_id
    REQUEST: ("gateway_request", struct.Struct("<I"), False),  # request index
    OFFER: ("gateway_offer", struct.Struct("<B"), True),  # hit; tail: precompute
    DONE: ("gateway_done", struct.Struct("<IB"), False),  # request index, hit
    BUSY: ("gateway_busy", struct.Struct("<d"), False),  # retry-after seconds
    GOAWAY: ("gateway_goaway", struct.Struct("<"), True),  # tail: reason
    STATS: ("gateway_stats", struct.Struct("<"), True),  # tail: none / JSON reply
}


def pack(magic: bytes, *fields, tail: bytes = b"") -> bytes:
    return magic + FRAMES[magic][1].pack(*fields) + tail


def unpack(magic: bytes, frame: bytes) -> tuple:
    """Decode one control frame of the given kind: (*fixed fields, tail)."""
    name, fixed, has_tail = FRAMES[magic]
    label = name.replace("_", " ")
    if bytes(frame[:4]) != magic:
        raise TransportError(f"not a {label} frame")
    extra = len(frame) - 4 - fixed.size
    if extra < 0:
        raise TransportError(f"truncated {label} frame ({len(frame)} bytes)")
    if extra and not has_tail:
        raise TransportError(f"{extra} trailing byte(s) after a {label} frame")
    return (*fixed.unpack_from(frame, 4), bytes(frame[4 + fixed.size:]))


def _hit(flag: int, label: str) -> bool:
    """A frame's hit byte: 1 is a hit, 0 a miss, anything else malformed."""
    if flag not in (0, 1):
        raise TransportError(f"{label} frame hit byte is {flag}, not 0 or 1")
    return flag == 1


def _text(tail: bytes) -> str:
    try:
        return tail.decode()
    except UnicodeDecodeError as exc:
        raise TransportError(f"gateway frame text is not UTF-8: {exc}") from exc


def encode_hello(client_id: str) -> bytes:
    """Client -> gateway, once per connection: who I am."""
    return pack(HELLO, tail=client_id.encode())


def decode_hello(frame: bytes) -> str:
    return _text(unpack(HELLO, frame)[0])


def encode_request(request_index: int) -> bytes:
    """Client -> gateway, once per request: which of my requests this is."""
    return pack(REQUEST, request_index)


def decode_request(frame: bytes) -> int:
    return unpack(REQUEST, frame)[0]


def encode_offer(hit: bool, blob: bytes = b"") -> bytes:
    """Gateway -> client: buffered precompute (hit) or run offline (miss)."""
    return pack(OFFER, 1 if hit else 0, tail=blob)


def decode_offer(frame: bytes) -> tuple[bool, bytes]:
    flag, blob = unpack(OFFER, frame)
    hit = _hit(flag, "gateway offer")
    if blob and not hit:
        raise TransportError(f"a miss gateway offer carries {len(blob)} byte(s)")
    return hit, blob


def encode_done(request_index: int, hit: bool) -> bytes:
    """Gateway -> client: the request's final share shipped; cycle over."""
    return pack(DONE, request_index, 1 if hit else 0)


def decode_done(frame: bytes) -> tuple[int, bool]:
    request_index, flag, _ = unpack(DONE, frame)
    return request_index, _hit(flag, "gateway done")


def encode_busy(retry_after: float) -> bytes:
    """Gateway -> client: request deferred; retry after this many seconds."""
    return pack(BUSY, max(0.0, retry_after))


def decode_busy(frame: bytes) -> float:
    return unpack(BUSY, frame)[0]


def encode_goaway(reason: str = "") -> bytes:
    """Either direction: this connection is over (reject or graceful bye)."""
    return pack(GOAWAY, tail=reason.encode())


def decode_goaway(frame: bytes) -> str:
    return _text(unpack(GOAWAY, frame)[0])


def encode_stats_request() -> bytes:
    """Client -> gateway: asks for a live stats snapshot (no session)."""
    return pack(STATS)


def encode_stats_reply(stats: dict) -> bytes:
    return pack(STATS, tail=json.dumps(stats, sort_keys=True).encode())


def decode_stats_reply(frame: bytes) -> dict:
    try:
        return json.loads(_text(unpack(STATS, frame)[0]))
    except json.JSONDecodeError as exc:
        raise TransportError(f"gateway stats reply is not JSON: {exc}") from exc
