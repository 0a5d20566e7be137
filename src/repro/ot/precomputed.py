"""Beaver OT precomputation: random OTs offline, cheap corrections online.

The Client-Garbler protocol "engages in base OT offline so that in the
online phase the server can obtain its inputs using extended OT" (§5.1).
The standard mechanism is Beaver's OT precomputation: run OTs on *random*
messages and a *random* choice bit ahead of time; when the real inputs
arrive, the receiver sends one correction bit and the sender two masked
messages — no public-key work and a single round online.

Offline (per OT):  receiver holds (c, m_c) from a random OT.
Online:            receiver sends d = c XOR r (r = real choice);
                   sender sends (x0 XOR m_d, x1 XOR m_{1-d});
                   receiver unmasks entry r with m_c.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.prg import LABEL_BYTES, xor_bytes
from repro.crypto.rng import SecureRandom
from repro.ot.extension import IknpStream, iknp_transfer


@dataclass
class PrecomputedSenderBatch:
    """Sender's state after the offline phase: both random pads per OT."""

    pads: list[tuple[bytes, bytes]]

    def __len__(self) -> int:
        return len(self.pads)

    def respond(
        self, corrections: list[int], message_pairs: list[tuple[bytes, bytes]]
    ) -> list[tuple[bytes, bytes]]:
        """Online: mask each real pair according to the correction bits."""
        if not len(corrections) == len(message_pairs) == len(self.pads):
            raise ValueError("batch size mismatch")
        out = []
        for d, (x0, x1), (m0, m1) in zip(corrections, message_pairs, self.pads):
            if d:
                out.append((xor_bytes(x0, m1), xor_bytes(x1, m0)))
            else:
                out.append((xor_bytes(x0, m0), xor_bytes(x1, m1)))
        return out


@dataclass
class PrecomputedReceiverBatch:
    """Receiver's state: random choice bits and the pads they selected."""

    random_choices: list[int]
    pads: list[bytes]

    def __len__(self) -> int:
        return len(self.pads)

    def corrections(self, real_choices: list[int]) -> list[int]:
        """Online round 1: one bit per OT."""
        if len(real_choices) != len(self.random_choices):
            raise ValueError("batch size mismatch")
        return [r ^ c for r, c in zip(real_choices, self.random_choices)]

    def recover(
        self,
        real_choices: list[int],
        masked_pairs: list[tuple[bytes, bytes]],
    ) -> list[bytes]:
        """Online round 2: unmask the chosen messages."""
        if len(masked_pairs) != len(self.pads):
            raise ValueError("batch size mismatch")
        out = []
        for r, pad, (y0, y1) in zip(real_choices, self.pads, masked_pairs):
            out.append(xor_bytes(y1 if r else y0, pad))
        return out


def precompute_ots(
    count: int, rng: SecureRandom | None = None
) -> tuple[PrecomputedSenderBatch, PrecomputedReceiverBatch]:
    """Offline phase: run ``count`` random OTs via the IKNP extension."""
    rng = rng or SecureRandom()
    pads = [
        (rng.bytes(LABEL_BYTES), rng.bytes(LABEL_BYTES)) for _ in range(count)
    ]
    choices = rng.bits(count)
    received, _ = iknp_transfer(pads, choices, IknpStream(rng))
    return (
        PrecomputedSenderBatch(pads=pads),
        PrecomputedReceiverBatch(random_choices=choices, pads=received),
    )


def online_ot_bytes(count: int, msg_len: int = LABEL_BYTES) -> int:
    """Online traffic: one correction bit up, two masked messages down."""
    return (count + 7) // 8 + 2 * count * msg_len
