"""Oblivious transfer: Chou-Orlandi-style base OT and IKNP extension."""

from repro.ot.base import BaseOtReceiver, BaseOtSender, run_base_ot
from repro.ot.extension import (
    KAPPA,
    ExtensionTranscript,
    IknpStream,
    iknp_transcript,
    iknp_transfer,
)
from repro.ot.precomputed import (
    PrecomputedReceiverBatch,
    PrecomputedSenderBatch,
    online_ot_bytes,
    precompute_ots,
)

__all__ = [
    "KAPPA",
    "BaseOtReceiver",
    "BaseOtSender",
    "ExtensionTranscript",
    "IknpStream",
    "PrecomputedReceiverBatch",
    "PrecomputedSenderBatch",
    "iknp_transcript",
    "iknp_transfer",
    "online_ot_bytes",
    "precompute_ots",
    "run_base_ot",
]
