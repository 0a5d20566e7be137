"""Device profiles for the client and server hardware the paper models.

The paper measures on an Intel Atom Z8350 client (1.92 GHz, 4 cores, 2 GB)
and an AMD EPYC 7502 server (2.5 GHz, 32 cores, 256 GB), plus hypothetical
i5 / 2x i5 clients and 2x / 4x servers for the Figure 13 sensitivity study.

We model GC computation from circuit structure: garbling an AND gate costs
four correlation-robust hashes and evaluating costs two (half-gates), so a
device is characterized by its hash time. Fitting hash times to the
paper's four measurements (Atom garble 382.6 s / eval 200 s, EPYC garble
25.1 s / eval 11.1 s, ResNet-18 TinyImageNet, 2.23 M ReLUs x 534 ANDs)
reproduces all four within ~5%.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DeviceProfile:
    """Compute capabilities of one party's hardware."""

    name: str
    cores: int
    gc_hash_seconds: float  # seconds per correlation-robust hash (1 core)
    he_scale: float  # HE op speed relative to the reference server core

    def scaled(self, factor: float, name: str | None = None) -> "DeviceProfile":
        """A device ``factor`` times faster (the paper's 2x / 4x variants)."""
        return replace(
            self,
            name=name or f"{self.name} ({factor:g}x)",
            gc_hash_seconds=self.gc_hash_seconds / factor,
            he_scale=self.he_scale * factor,
        )

    def garble_seconds(self, and_gates: int, threads: int = 1) -> float:
        """Time to garble ``and_gates`` AND gates (4 hashes each)."""
        threads = max(1, min(threads, self.cores))
        return 4 * and_gates * self.gc_hash_seconds / threads

    def evaluate_seconds(self, and_gates: int, threads: int = 1) -> float:
        """Time to evaluate ``and_gates`` AND gates (2 hashes each)."""
        threads = max(1, min(threads, self.cores))
        return 2 * and_gates * self.gc_hash_seconds / threads


# Hash times fitted to the paper's ResNet-18/TinyImageNet measurements
# (2,228,224 ReLUs x 534 AND gates; see module docstring).
ATOM = DeviceProfile("Intel Atom Z8350", cores=4, gc_hash_seconds=8.2e-8,
                     he_scale=0.066)
I5 = DeviceProfile("Intel i5", cores=4, gc_hash_seconds=2.25e-8, he_scale=0.24)
I5_2X = I5.scaled(2.0, "Intel i5 (2x)")
EPYC = DeviceProfile("AMD EPYC 7502", cores=32, gc_hash_seconds=5.0e-9,
                     he_scale=1.0)
EPYC_2X = EPYC.scaled(2.0, "AMD EPYC (2x)")
EPYC_4X = EPYC.scaled(4.0, "AMD EPYC (4x)")

CLIENT_DEVICES = {"atom": ATOM, "i5": I5, "i5_2x": I5_2X}
SERVER_DEVICES = {"epyc": EPYC, "epyc_2x": EPYC_2X, "epyc_4x": EPYC_4X}
