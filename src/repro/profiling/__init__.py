"""Device profiles, paper-anchored calibration, per-network cost synthesis."""

from repro.profiling.devices import (
    ATOM,
    CLIENT_DEVICES,
    EPYC,
    EPYC_2X,
    EPYC_4X,
    I5,
    I5_2X,
    SERVER_DEVICES,
    DeviceProfile,
)

__all__ = [
    "ATOM",
    "CLIENT_DEVICES",
    "EPYC",
    "EPYC_2X",
    "EPYC_4X",
    "I5",
    "I5_2X",
    "SERVER_DEVICES",
    "DeviceProfile",
]
