"""Seeded arrival-process generators emitting typed request schedules.

The serving demos so far drain uniform round-robin requests, which never
stresses the admission, refill-priority, or eviction machinery. This
module generates *realistic* traffic as data: every generator is a pure
seeded function emitting a :class:`Schedule` — a typed, JSON-canonical,
per-client request timetable — that downstream drivers replay. One
schedule, two executions: the functional driver replays it against the
live gateway (wall clock), the analytic driver replays the byte-identical
object through the discrete-event engine (simulated clock), and the
capacity planner compares the two.

Generator taxonomy:

* :func:`uniform_schedule` — evenly spaced arrivals (the legacy
  round-robin drain, expressed as a schedule).
* :func:`poisson_schedule` — open-loop Poisson per client, optionally
  with per-client rates (pass :func:`zipf_rates` for hot-client skew)
  and a :class:`BurstEnvelope` on/off (MMPP-style) rate modulation.
* :func:`closed_schedule` — closed-loop with think time: each client
  issues its next request a think-gap *after the previous completion*,
  so offered load self-regulates with service capacity.

All randomness flows through :class:`~repro.crypto.rng.SecureRandom`
streams hash-derived per (seed, client), so the same seed reproduces the
same schedule byte for byte — the property every replay test pins.

This module absorbed the orphaned ``repro/simulation/workload.py``
(:class:`PoissonWorkload` and :class:`InferenceRequest` live here now).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.crypto.rng import SecureRandom
from repro.runtime.state import derive_worker_seed

__all__ = [
    "Arrival",
    "Schedule",
    "BurstEnvelope",
    "zipf_rates",
    "uniform_schedule",
    "poisson_schedule",
    "closed_schedule",
    "InferenceRequest",
    "PoissonWorkload",
]

MODE_OPEN = "open"
MODE_CLOSED = "closed"

_SCHEDULE_VERSION = 1


@dataclass(frozen=True)
class Arrival:
    """One scheduled request of one client.

    ``at`` is the arrival offset in seconds from schedule start. In an
    open-loop schedule it is the instant the request must be *issued*
    regardless of earlier requests' fates; in a closed-loop schedule it
    is the nominal offset (cumulative think time) and ``think`` carries
    the gap the client waits after its previous completion before
    issuing. Open-loop arrivals carry ``think == 0.0``.
    """

    client: int
    index: int  # per-client request index (0-based, consecutive)
    at: float
    think: float = 0.0

    def to_row(self) -> list:
        return [self.client, self.index, round(self.at, 9), round(self.think, 9)]

    @classmethod
    def from_row(cls, row) -> "Arrival":
        client, index, at, think = row
        return cls(client=int(client), index=int(index), at=float(at),
                   think=float(think))


@dataclass(frozen=True)
class Schedule:
    """A typed per-client request timetable, the unit both drivers consume.

    ``arrivals`` is globally sorted by ``(at, client, index)`` and each
    client's own indexes are consecutive from zero — invariants checked
    at construction, so a driver can trust them. :meth:`to_json` emits a
    canonical (sorted-keys, fixed-float) encoding: two schedules are the
    same workload iff their JSON bytes are identical, which is how the
    one-schedule-two-executions tests pin that the functional gateway
    run and the analytic replay consumed the very same object.
    """

    name: str
    mode: str  # MODE_OPEN or MODE_CLOSED
    num_clients: int
    horizon: float  # generation horizon (open) / nominal span (closed)
    seed: int
    arrivals: tuple[Arrival, ...]
    meta: dict = field(default_factory=dict)  # generator knobs (JSON-safe)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_OPEN, MODE_CLOSED):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.num_clients < 1:
            raise ValueError("schedule needs at least one client")
        next_index = [0] * self.num_clients
        previous = (-1.0, -1, -1)
        for a in self.arrivals:
            if not 0 <= a.client < self.num_clients:
                raise ValueError(f"arrival names client {a.client} of "
                                 f"{self.num_clients}")
            if a.index != next_index[a.client]:
                raise ValueError(
                    f"client {a.client} indexes not consecutive: expected "
                    f"{next_index[a.client]}, got {a.index}"
                )
            next_index[a.client] += 1
            key = (a.at, a.client, a.index)
            if key < previous:
                raise ValueError("arrivals not sorted by (at, client, index)")
            previous = key
            if a.at < 0 or a.think < 0:
                raise ValueError("arrival times and think gaps must be >= 0")

    @property
    def total_requests(self) -> int:
        return len(self.arrivals)

    def request_counts(self) -> list[int]:
        """Requests per client (the refill caps a bounded run mints to)."""
        counts = [0] * self.num_clients
        for a in self.arrivals:
            counts[a.client] += 1
        return counts

    def per_client(self) -> list[list[Arrival]]:
        """Each client's arrivals in issue order."""
        per = [[] for _ in range(self.num_clients)]
        for a in self.arrivals:
            per[a.client].append(a)
        for lane in per:
            lane.sort(key=lambda a: a.index)
        return per

    def offered_rate(self) -> float:
        """Aggregate offered request rate over the schedule's span (rps)."""
        span = self.span()
        return self.total_requests / span if span > 0 else 0.0

    def span(self) -> float:
        """Last nominal arrival offset (falls back to the horizon)."""
        if not self.arrivals:
            return self.horizon
        return max(self.horizon, self.arrivals[-1].at)

    def to_json(self) -> str:
        """Canonical JSON: byte-identical iff the schedules are identical."""
        return json.dumps(
            {
                "version": _SCHEDULE_VERSION,
                "name": self.name,
                "mode": self.mode,
                "num_clients": self.num_clients,
                "horizon": round(self.horizon, 9),
                "seed": self.seed,
                "meta": self.meta,
                "arrivals": [a.to_row() for a in self.arrivals],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        data = json.loads(text)
        version = data.get("version")
        if version != _SCHEDULE_VERSION:
            raise ValueError(
                f"schedule version skew: this build reads v{_SCHEDULE_VERSION}, "
                f"the blob is v{version}"
            )
        return cls(
            name=data["name"],
            mode=data["mode"],
            num_clients=data["num_clients"],
            horizon=data["horizon"],
            seed=data["seed"],
            arrivals=tuple(Arrival.from_row(r) for r in data["arrivals"]),
            meta=data.get("meta", {}),
        )


def _client_rng(seed: int, client: int) -> SecureRandom:
    """Independent per-(schedule, client) stream — client c's arrivals
    never change when another client is added or re-parameterized."""
    return SecureRandom(derive_worker_seed(seed, client))


def zipf_rates(num_clients: int, total_rate: float, skew: float) -> list[float]:
    """Per-client rates with Zipf hot-client skew, summing to ``total_rate``.

    Client c's share is proportional to ``1 / (c + 1) ** skew`` — client 0
    is the hottest. ``skew=0`` degenerates to uniform rates. These are the
    per-client rate knobs that stress ``pick_refill_client``: the hot
    client should earn earlier (and under depth-aware refill, deeper)
    refills than the tail.
    """
    if num_clients < 1:
        raise ValueError("need at least one client")
    if total_rate <= 0:
        raise ValueError("total rate must be positive")
    if skew < 0:
        raise ValueError("skew must be >= 0")
    weights = [1.0 / (c + 1) ** skew for c in range(num_clients)]
    scale = total_rate / sum(weights)
    return [w * scale for w in weights]


@dataclass(frozen=True)
class BurstEnvelope:
    """MMPP-style on/off rate modulation for open-loop generators.

    The envelope alternates exponentially-distributed ON windows (mean
    ``on_seconds``, full rate) and OFF windows (mean ``off_seconds``,
    rate scaled by ``off_factor``). Arrivals are generated at the full
    rate and thinned during OFF windows — exact Poisson thinning, so the
    modulated process is a true piecewise-Poisson MMPP and the expected
    duty cycle is ``on_seconds / (on_seconds + off_seconds)``.
    """

    on_seconds: float
    off_seconds: float
    off_factor: float = 0.0  # residual rate multiplier inside OFF windows
    seed: int = 0

    def __post_init__(self) -> None:
        if self.on_seconds <= 0 or self.off_seconds <= 0:
            raise ValueError("on/off window means must be positive")
        if not 0.0 <= self.off_factor <= 1.0:
            raise ValueError("off_factor must be in [0, 1]")

    @property
    def duty_cycle(self) -> float:
        return self.on_seconds / (self.on_seconds + self.off_seconds)

    def windows(self, horizon: float) -> list[tuple[float, float, bool]]:
        """Deterministic ``(start, end, is_on)`` tiling of ``[0, horizon)``."""
        rng = SecureRandom(derive_worker_seed(self.seed, 0xB1257))
        out = []
        t, on = 0.0, True
        while t < horizon:
            mean = self.on_seconds if on else self.off_seconds
            end = min(horizon, t + rng.exponential(mean))
            out.append((t, end, on))
            t, on = end, not on
        return out

    def meta(self) -> dict:
        return {
            "on_seconds": self.on_seconds,
            "off_seconds": self.off_seconds,
            "off_factor": self.off_factor,
            "seed": self.seed,
        }


def _is_on(windows: list[tuple[float, float, bool]], t: float) -> bool:
    """Binary-search the envelope tiling (windows are contiguous)."""
    lo, hi = 0, len(windows) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if windows[mid][1] <= t:
            lo = mid + 1
        else:
            hi = mid
    return windows[lo][2] if windows else True


def uniform_schedule(
    num_clients: int,
    requests_per_client: int,
    period: float,
    name: str = "uniform",
    stagger: bool = True,
) -> Schedule:
    """Evenly spaced arrivals — the legacy round-robin drain as data.

    Each client issues a request every ``period`` seconds; ``stagger``
    offsets client c by ``c * period / num_clients`` so the aggregate
    stream is evenly interleaved (the exact schedule the pre-workload
    serving demos implicitly drained).
    """
    if requests_per_client < 1:
        raise ValueError("need at least one request per client")
    if period <= 0:
        raise ValueError("period must be positive")
    arrivals = []
    for c in range(num_clients):
        offset = (c * period / num_clients) if stagger else 0.0
        for j in range(requests_per_client):
            arrivals.append(Arrival(client=c, index=j, at=offset + j * period))
    arrivals.sort(key=lambda a: (a.at, a.client, a.index))
    horizon = requests_per_client * period
    return Schedule(
        name=name, mode=MODE_OPEN, num_clients=num_clients, horizon=horizon,
        seed=0, arrivals=tuple(arrivals),
        meta={"kind": "uniform", "period": period, "stagger": stagger},
    )


def poisson_schedule(
    num_clients: int,
    rate: float | list[float],
    horizon: float,
    seed: int = 0,
    name: str = "poisson",
    burst: BurstEnvelope | None = None,
    max_per_client: int | None = None,
) -> Schedule:
    """Open-loop Poisson arrivals, optionally skewed and burst-modulated.

    ``rate`` is either one per-client rate (requests/second) or a list of
    per-client rates (e.g. from :func:`zipf_rates`). With a
    :class:`BurstEnvelope`, arrivals are thinned during OFF windows by
    exact Poisson thinning (every client shares one envelope — a global
    traffic burst, not per-client weather). ``max_per_client`` caps each
    client's request count so a saturation schedule stays boundable.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rates = list(rate) if isinstance(rate, (list, tuple)) else [
        float(rate)
    ] * num_clients
    if len(rates) != num_clients:
        raise ValueError(f"got {len(rates)} rates for {num_clients} clients")
    if any(r <= 0 for r in rates):
        raise ValueError("per-client rates must be positive")
    windows = burst.windows(horizon) if burst is not None else []
    arrivals = []
    for c in range(num_clients):
        rng = _client_rng(seed, c)
        t, j = 0.0, 0
        while True:
            t += rng.exponential(1.0 / rates[c])
            if t >= horizon:
                break
            if burst is not None and not _is_on(windows, t):
                # OFF window: keep the candidate with probability
                # off_factor (exact thinning; the draw happens on the
                # client's own stream so determinism survives).
                if rng.uniform() >= burst.off_factor:
                    continue
            arrivals.append(Arrival(client=c, index=j, at=t))
            j += 1
            if max_per_client is not None and j >= max_per_client:
                break
    arrivals.sort(key=lambda a: (a.at, a.client, a.index))
    meta = {
        "kind": "poisson",
        "rates": [round(r, 9) for r in rates],
        "burst": burst.meta() if burst is not None else None,
        "max_per_client": max_per_client,
    }
    return Schedule(
        name=name, mode=MODE_OPEN, num_clients=num_clients, horizon=horizon,
        seed=seed, arrivals=tuple(arrivals), meta=meta,
    )


def closed_schedule(
    num_clients: int,
    requests_per_client: int,
    think_mean: float,
    seed: int = 0,
    name: str = "closed",
    distribution: str = "exponential",
) -> Schedule:
    """Closed-loop schedule: think-time gaps, issued after completions.

    Each client carries ``requests_per_client`` requests; request j's
    ``think`` is the gap the client waits after request j-1 *completes*
    (request 0 thinks from schedule start). ``at`` records the nominal
    cumulative think offset — the arrival time if service were
    instantaneous — which keeps the schedule sortable and lets the
    analytic driver report idle-system latencies. ``distribution`` is
    ``"exponential"`` (mean ``think_mean``) or ``"fixed"``.
    """
    if requests_per_client < 1:
        raise ValueError("need at least one request per client")
    if think_mean < 0:
        raise ValueError("think mean must be >= 0")
    if distribution not in ("exponential", "fixed"):
        raise ValueError(f"unknown think distribution {distribution!r}")
    arrivals = []
    horizon = 0.0
    for c in range(num_clients):
        rng = _client_rng(seed, c)
        nominal = 0.0
        for j in range(requests_per_client):
            if distribution == "exponential" and think_mean > 0:
                think = rng.exponential(think_mean)
            else:
                think = think_mean
            nominal += think
            arrivals.append(Arrival(client=c, index=j, at=nominal, think=think))
        horizon = max(horizon, nominal)
    arrivals.sort(key=lambda a: (a.at, a.client, a.index))
    return Schedule(
        name=name, mode=MODE_CLOSED, num_clients=num_clients, horizon=horizon,
        seed=seed, arrivals=tuple(arrivals),
        meta={
            "kind": "closed",
            "think_mean": think_mean,
            "distribution": distribution,
            "requests_per_client": requests_per_client,
        },
    )


# -- absorbed from repro/simulation/workload.py ----------------------------------
#
# The analytic system model (core/system.py) predates the schedule
# abstraction and draws its arrivals on the fly from these; they live
# here now so every arrival process has one home.


@dataclass
class InferenceRequest:
    """One inference request and its measured latency decomposition."""

    index: int
    arrival_time: float
    service_start: float | None = None
    completion_time: float | None = None
    offline_seconds: float = 0.0
    online_seconds: float = 0.0
    used_precompute: bool = False

    @property
    def queue_seconds(self) -> float:
        if self.service_start is None:
            return 0.0
        return self.service_start - self.arrival_time

    @property
    def latency(self) -> float:
        if self.completion_time is None:
            raise ValueError("request has not completed")
        return self.completion_time - self.arrival_time


@dataclass
class PoissonWorkload:
    """Exponential inter-arrival request generator.

    ``mean_interarrival`` is in seconds (the paper quotes workloads as
    "1 request per N minutes", i.e. mean_interarrival = 60 N).
    """

    mean_interarrival: float
    horizon: float
    seed: int = 0
    _rng: SecureRandom = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValueError("mean inter-arrival must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        self._rng = SecureRandom(self.seed)

    def arrival_times(self) -> list[float]:
        """All arrival instants within the horizon."""
        times = []
        t = self._rng.exponential(self.mean_interarrival)
        while t < self.horizon:
            times.append(t)
            t += self._rng.exponential(self.mean_interarrival)
        return times

    @property
    def rate_per_minute(self) -> float:
        return 60.0 / self.mean_interarrival
