"""Host calibration kernel and the round estimator.

Every timed unit of work in the benchmark sits between two runs of a
fixed kernel (``cal -> work -> cal``). The kernel touches no ``repro``
code; it replays the four instruction mixes a profile shows the protocol
spends its time in. A round's timings are multiplied by
``CAL_REF_S / mean(cal_before, cal_after)``, so every ``*_s`` metric
reads as seconds on the reference host and every ``*_rps`` metric as
operations per such second.

Changing ``CAL_REF_S`` or anything inside :func:`kernel` rescales every
timing metric of every workload: results recorded before and after such
a change are not comparable, and baselines must be measured again.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Seconds one kernel run took on the host the benchmark was defined on
# (2-CPU sandbox, python 3.11, numpy 2.4). Pinned; see the module docstring.
CAL_REF_S = 0.100

_P255 = (1 << 255) - 19
_MULMOD_PRIME = np.uint64((1 << 31) - 1)


def kernel() -> int:
    """One fixed unit of host work; returns a checksum so nothing is elided."""
    acc = 0
    # numpy mul-mod over short uint64 rows (NTT butterflies, share arithmetic).
    a = np.arange(1, 257, dtype=np.uint64)
    b = a[::-1].copy()
    for _ in range(6200):
        a = (a * b + a) % _MULMOD_PRIME
    acc ^= int(a[0])
    # sha256 over 48-byte inputs (garbling and the OT extension's PRG).
    block = bytes(48)
    for _ in range(24000):
        block = hashlib.sha256(block).digest() + block[:16]
    acc ^= block[0]
    # 255-bit modular exponentiation (base OTs).
    x = 0x1234567
    for _ in range(135):
        x = pow(x + 3, _P255 - 2, _P255)
    acc ^= x & 0xFF
    # Pure-Python integer loop (session glue, bit packing, label shuffling).
    y = 1
    for i in range(185000):
        y = (y * 31 + i) & 0xFFFFFFFF
    return acc ^ y


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


@dataclass
class Round:
    """Raw timings of one ``cal -> unit of work -> cal`` round."""

    cal_before: float
    cal_after: float
    wall_s: float  # raw wall time of the part of the round that counts as work
    ops: int  # correct operations completed within ``wall_s``
    samples: dict[str, list[float]] = field(default_factory=dict)  # raw seconds

    @property
    def scale(self) -> float:
        """Raw seconds -> seconds on the reference host, for this round."""
        return CAL_REF_S / ((self.cal_before + self.cal_after) / 2.0)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * share - 1e-9))
    return ordered[rank - 1]


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def pooled(rounds: list[Round], name: str, calibrated: bool = True) -> list[float]:
    """Every round's samples of one kind, each scaled by its own round."""
    return [
        value * (r.scale if calibrated else 1.0)
        for r in rounds
        for value in r.samples.get(name, ())
    ]


def goodput(rounds: list[Round], calibrated: bool = True) -> float:
    """Median over rounds of correct operations per (calibrated) second."""
    return statistics.median(
        r.ops / (r.wall_s * (r.scale if calibrated else 1.0)) for r in rounds
    )


def host_stats(rounds: list[Round]) -> tuple[float, float]:
    """(median, spread) of every kernel run the rounds were bracketed by."""
    runs = [r.cal_before for r in rounds] + [rounds[-1].cal_after]
    return statistics.median(runs), spread(runs)
