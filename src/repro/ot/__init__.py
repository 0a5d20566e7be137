"""Oblivious transfer: Chou-Orlandi random base OTs seed a connection-long
IKNP extension stream (:class:`IknpStream`)."""

from repro.ot.base import BaseOtReceiver, BaseOtSender
from repro.ot.extension import (
    KAPPA,
    ExtensionTranscript,
    IknpStream,
    iknp_transcript,
    iknp_transfer,
)

__all__ = [
    "KAPPA",
    "BaseOtReceiver",
    "BaseOtSender",
    "ExtensionTranscript",
    "IknpStream",
    "iknp_transcript",
    "iknp_transfer",
]
