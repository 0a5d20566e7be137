"""Gateway control frames: one table, one length-checked decode path.

Round-trips for every kind, and the malformed matrix: whatever is not
exactly what a kind's table row says — wrong magic, short, or carrying
bytes the row has no tail for — raises ``TransportError`` and nothing
else (never ``struct.error`` or ``IndexError``, which the gateway's
per-connection handler would not catch).
"""

import pytest

from repro.network import frames
from repro.network.frames import (
    FRAMES,
    decode_busy,
    decode_done,
    decode_goaway,
    decode_hello,
    decode_offer,
    decode_request,
    decode_stats_reply,
    encode_busy,
    encode_done,
    encode_goaway,
    encode_hello,
    encode_offer,
    encode_request,
    encode_stats_reply,
    encode_stats_request,
)
from repro.network.serialize import frame_format_name
from repro.network.transport import TransportError


def test_gateway_wire_codecs_roundtrip():
    assert decode_hello(encode_hello("client7")) == "client7"
    assert decode_hello(encode_hello("")) == ""
    assert decode_request(encode_request(3)) == 3
    assert decode_request(encode_request(0)) == 0
    hit, blob = decode_offer(encode_offer(True, b"precompute-bytes"))
    assert hit and blob == b"precompute-bytes"
    hit, blob = decode_offer(encode_offer(False))
    assert not hit and blob == b""
    assert decode_done(encode_done(7, True)) == (7, True)
    assert decode_done(encode_done(0, False)) == (0, False)
    assert decode_busy(encode_busy(0.25)) == 0.25
    assert decode_busy(encode_busy(-1.0)) == 0.0  # clamped on encode
    assert decode_goaway(encode_goaway("backlog over max_queue")) == (
        "backlog over max_queue"
    )
    assert decode_goaway(encode_goaway()) == ""
    assert encode_stats_request() == b"GWS1"
    assert decode_stats_reply(encode_stats_reply({"served": 3})) == {"served": 3}

    with pytest.raises(TransportError):
        decode_hello(encode_offer(True, b"x"))
    with pytest.raises(TransportError):
        decode_offer(encode_hello("client0"))
    with pytest.raises(TransportError):
        decode_request(encode_done(0, False))
    with pytest.raises(TransportError):
        decode_busy(encode_goaway("nope"))


def test_gateway_rejects_legacy_single_request_hello():
    """A pre-keep-alive GWH1 hello is just another frame that is not a hello."""
    legacy = b"GWH1" + b"client0" + b"\x00\x00\x00\x00"
    with pytest.raises(TransportError, match="^not a gateway hello frame$"):
        decode_hello(legacy)


def test_frame_table_is_the_telemetry_vocabulary():
    """``frame_format_name`` reads the table: every kind, by its row's name."""
    assert len({name for name, _, _ in FRAMES.values()}) == len(FRAMES) == 7
    for magic, (name, fixed, _) in FRAMES.items():
        assert frame_format_name(magic + bytes(fixed.size)) == name


MALFORMED = ("empty", "magic-only", "one-short", "one-long", "wrong-magic")
DECODERS = {
    frames.HELLO: decode_hello,
    frames.REQUEST: decode_request,
    frames.OFFER: decode_offer,
    frames.DONE: decode_done,
    frames.BUSY: decode_busy,
    frames.GOAWAY: decode_goaway,
    frames.STATS: decode_stats_reply,
}


@pytest.mark.parametrize("damage", MALFORMED)
@pytest.mark.parametrize("magic", list(FRAMES), ids=lambda m: m.decode())
def test_decode_accepts_exactly_what_the_table_says(magic, damage):
    _, fixed, has_tail = FRAMES[magic]
    minimal = magic + bytes(fixed.size)  # zeroed fixed fields, empty tail
    frame, well_formed = {
        "empty": (b"", False),
        "magic-only": (magic, fixed.size == 0),
        "one-short": (minimal[:-1], False),
        "one-long": (minimal + b"\x00", has_tail),
        "wrong-magic": (b"GWX9" + minimal[4:], False),
    }[damage]
    if well_formed:
        *fields, tail = frames.unpack(magic, frame)
        assert tuple(fields) == fixed.unpack(bytes(fixed.size))
        assert tail == frame[4 + fixed.size:]
    else:
        with pytest.raises(TransportError):
            DECODERS[magic](frame)


@pytest.mark.parametrize(
    "decode, frame",
    [
        (decode_hello, b"GWH2\xff\xfe"),
        (decode_goaway, b"GWG1\xff"),
        (decode_stats_reply, b"GWS1\xff"),
        (decode_stats_reply, b"GWS1{not json"),
        (decode_stats_reply, b"GWS1"),
    ],
)
def test_undecodable_tails_are_transport_errors(decode, frame):
    with pytest.raises(TransportError):
        decode(frame)


@pytest.mark.parametrize(
    "decode, frame, match",
    [
        (decode_offer, b"GWO1\x02", "hit byte is 2"),
        (decode_offer, b"GWO1\xffprecompute", "hit byte is 255"),
        (decode_done, b"GWD1\x07\x00\x00\x00\x02", "hit byte is 2"),
        (decode_done, b"GWD1\x07\x00\x00\x00\xff", "hit byte is 255"),
        (decode_offer, b"GWO1\x00precompute", "miss gateway offer carries 10"),
    ],
)
def test_hit_byte_and_offer_tail_must_agree(decode, frame, match):
    """A hit byte is 0 or 1, and only a hit OFFER carries a precompute."""
    with pytest.raises(TransportError, match=match):
        decode(frame)
