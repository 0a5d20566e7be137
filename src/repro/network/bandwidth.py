"""5G TDD wireless link model with configurable upload/download slots.

5G NR partitions each 10 ms frame into 10 sub-frames, each assignable to
upload or download (§5.3). A :class:`TddLink` therefore carries a total
bandwidth and an upload fraction — continuously, or quantized to the
sub-frame granularity — and converts protocol byte volumes into transfer
seconds. Hybrid-PI phases are round-trip sequences, so upload and download
times add rather than overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

SUBFRAMES_PER_FRAME = 10


@dataclass(frozen=True)
class TddLink:
    """A duplex wireless link carved from ``total_bps`` by TDD slots."""

    total_bps: float
    upload_fraction: float
    quantized: bool = False

    def __post_init__(self) -> None:
        if self.total_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 < self.upload_fraction < 1.0:
            raise ValueError("upload fraction must be strictly between 0 and 1")

    @property
    def effective_upload_fraction(self) -> float:
        if not self.quantized:
            return self.upload_fraction
        slots = round(self.upload_fraction * SUBFRAMES_PER_FRAME)
        slots = min(max(slots, 1), SUBFRAMES_PER_FRAME - 1)
        return slots / SUBFRAMES_PER_FRAME

    @property
    def upload_bps(self) -> float:
        return self.total_bps * self.effective_upload_fraction

    @property
    def download_bps(self) -> float:
        return self.total_bps * (1.0 - self.effective_upload_fraction)

    def upload_seconds(self, nbytes: float) -> float:
        return 8.0 * nbytes / self.upload_bps

    def download_seconds(self, nbytes: float) -> float:
        return 8.0 * nbytes / self.download_bps

    def transfer_seconds(self, up_bytes: float, down_bytes: float) -> float:
        """Serialized round-trip transfer time for one protocol phase."""
        return self.upload_seconds(up_bytes) + self.download_seconds(down_bytes)


MBPS = 1e6
GBPS = 1e9
