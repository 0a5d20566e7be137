"""Admission and refill policy: the one core both executions drive.

The paper's central finding is that the arrival rate decides whether
pre-processing stays hidden or is "incurred online". Here that comes
down to a few rules — when a request is deferred, turned away or held
for a refill, when a consumed precompute earns a refill credit and which
client is refilled first — and :class:`RefillLedger` is those rules,
once. Events go in (request, look, landed, failed, done, drop); decisions
come out (QUEUE, BUSY, GOAWAY, OFFER, HOLD). A request's events come from
its :class:`~repro.runtime.connection.ConnectionMachine`, which the live
gateway and :func:`~repro.workload.drivers.replay_analytic` both run; the
mint events from the gateway's refill thread or the replay's model of it.

Everything here is pure: no clock, no lock, no I/O. Callers pass the
time and the stored-entry counts in, and serialize access themselves.
"""

from __future__ import annotations

MISS_WAIT_SECONDS = 60.0  # a missed offer holds this long for a refill
DEFAULT_MAX_QUEUE = 8  # refill backlog above which new requests get BUSY
MAX_INFLIGHT_PER_CLIENT = 1  # admitted requests one client may have active
BUSY_RETRY_FLOOR = 0.05  # BUSY hint before any mint is timed; lower clamp after
MAX_RETRY_AFTER = 5.0

# What admission answers, and the tally each decided answer counts in.
QUEUE, BUSY, GOAWAY, OFFER, HOLD = "queue", "busy", "goaway", "offer", "hold"
OUTCOMES = {OFFER: "admitted", BUSY: "deferred", GOAWAY: "rejected"}


def adaptive_retry_after(
    backlog: int,
    max_queue: int,
    mean_mint_seconds: float,
    mint_parallelism: int,
    floor: float,
    cap: float = MAX_RETRY_AFTER,
) -> float:
    """How long a deferred client should wait before re-issuing its REQ.

    The backlog the admission check just measured drains at roughly
    ``mint_parallelism / mean_mint_seconds`` mints per second, so the
    *excess* over ``max_queue`` clears in about
    ``excess * mean_mint_seconds / mint_parallelism`` — that is when a
    retry has a real chance of being admitted. Telling the client
    anything shorter buys nothing but wasted BUSY round-trips; anything
    longer leaves admission slots idle. ``floor`` is both the fallback
    before any mint has been timed and the lower clamp; ``cap`` bounds
    the hint when a burst piles the backlog sky-high.
    """
    if mean_mint_seconds <= 0.0:
        return floor  # no measured mints yet: the fixed constant stands
    excess = max(1, backlog - max_queue)
    drain = excess * mean_mint_seconds / max(1, mint_parallelism)
    return min(cap, max(floor, drain))


def pick_refill_client(
    credits: list[int], buffered: list[float], rates: list[float]
) -> int | None:
    """The refill policy: smallest expected time to miss wins.

    ``credits[c]`` counts refills owed to client c, ``buffered[c]`` its
    buffer depth (stored + in-flight mints), ``rates[c]`` its measured
    consumption rate. Expected time to miss is ``buffered / rate``; a
    client that has never consumed (rate 0) can't miss soon, so it ranks
    last among credited clients, tie-broken by shallowest buffer. Returns
    None when no client holds a credit.
    """
    best = None
    best_rank = None
    for c, credit in enumerate(credits):
        if credit <= 0:
            continue
        rate = rates[c]
        ettm = buffered[c] / rate if rate > 0 else float("inf")
        rank = (ettm, buffered[c], c)
        if best_rank is None or rank < best_rank:
            best, best_rank = c, rank
    return best


class RefillLedger:
    """Per-client refill accounting plus the admission decisions.

    A mint's life: :meth:`completed` request → credit → :meth:`claim`
    (or :meth:`reserve`, for prefill) → in flight → :meth:`landed` or
    :meth:`failed`. ``caps`` bounds each client's lifetime mints (one
    scalar for uniform drains, one cap per client for skewed schedules,
    None for unbounded): credits count against it as soon as they are
    earned, so ``minted[c] + credits[c] <= caps[c]`` holds however
    completions and claims interleave.

    A request's life: :meth:`request` → OFFER → :meth:`look` (→ HOLD →
    :meth:`look` again) → :meth:`done` or :meth:`drop`. A client is its
    index among the N served, or any other name for a peer outside them,
    which is admitted alike but never holds or earns a credit. Past
    ``max_request_deferrals`` consecutive deferrals (None: no limit) a
    request is rejected.
    """

    def __init__(
        self,
        num_clients: int,
        *,
        caps=None,
        refill: bool = True,
        max_queue: int = DEFAULT_MAX_QUEUE,
        mint_parallelism: int = 1,
    ):
        if isinstance(caps, (list, tuple)):
            if len(caps) != num_clients:
                raise ValueError("per-client refill caps must match num_clients")
            caps = list(caps)
        elif caps is not None:
            caps = [caps] * num_clients
        self.caps = caps
        self.refill = refill
        self.max_queue = max_queue
        self.mint_parallelism = mint_parallelism
        self.credits = [0] * num_clients  # refills owed, not yet claimed
        self.pending = [0] * num_clients  # mints reserved, blob not yet stored
        self.consumed = [0] * num_clients  # requests completed
        self.minted = [0] * num_clients  # mint indices handed out (monotonic)
        self.max_request_deferrals: int | None = None
        self.waiting = 0  # admitted requests holding for an in-flight mint
        self.inflight: dict = {}  # admitted, unfinished requests per client
        self._deferrals: dict = {}  # consecutive BUSY answers per client
        self._tally = dict.fromkeys(("issued", *OUTCOMES.values()), 0)
        self._mint_seconds = 0.0
        self._mints_timed = 0

    # -- admission ------------------------------------------------------------

    def request(self, client) -> tuple[str, float]:
        """A queued request asks to start: (verdict, value).

        QUEUE: the client is at its in-flight cap; ask again after a
        :meth:`done` or :meth:`drop`. BUSY: the backlog is over
        ``max_queue``; value is the retry hint. GOAWAY: the deferral cap
        is blown. OFFER: admitted; value is the requests already in
        flight. Every answer but QUEUE is one issued request."""
        if self.inflight.get(client, 0) >= MAX_INFLIGHT_PER_CLIENT:
            return QUEUE, 0
        streak = self._deferrals.pop(client, 0) + 1
        cap = self.max_request_deferrals
        if self.backlog() <= self.max_queue:
            verdict, value = OFFER, self.in_flight()
            self.inflight[client] = self.inflight.get(client, 0) + 1
        elif cap is None or streak <= cap:
            self._deferrals[client] = streak
            verdict, value = BUSY, self.retry_after()
        else:
            verdict, value = GOAWAY, 0
        self._tally["issued"] += 1
        self._tally[OUTCOMES[verdict]] += 1
        return verdict, value

    def look(
        self, client, stored: bool, now: float, deadline: float | None = None
    ) -> tuple[str, float | None]:
        """An admitted request looked in the store (a held one looks again,
        with its deadline, after each landing). (HOLD, deadline) while
        nothing is stored and a served client's refill is owed or in
        flight, until ``now + MISS_WAIT_SECONDS``; else (OFFER, None),
        closing any hold: a hit if stored, else a demand mint."""
        held = deadline is not None
        if not held:
            deadline = now + MISS_WAIT_SECONDS
        if not stored and isinstance(client, int) and now < deadline and (
            self.mint_pending(client)
        ):
            if not held:
                self.waiting += 1
            return HOLD, deadline
        if held:
            self.waiting -= 1
        return OFFER, None

    def done(self, client, mint_seconds: float = 0.0) -> None:
        """DONE sent: free the slot, fold a demand mint into the BUSY hint
        (under sustained misses it is the honest drain rate), and credit
        a served client's refill."""
        self._leave(client)
        if mint_seconds > 0.0:
            self.mint_took(mint_seconds)
        if isinstance(client, int):
            self.completed(client)

    def drop(self, client, held: bool = False) -> None:
        """An admitted request died with its connection: free its slot."""
        self._leave(client)
        if held:
            self.waiting -= 1

    def admission(self) -> dict:
        """Issued / admitted / deferred / rejected: the one schema of the
        live stats and the replay's columns."""
        return dict(self._tally)

    def in_flight(self) -> int:
        """Admitted requests not yet done or dropped, over all clients."""
        return sum(self.inflight.values())

    def _leave(self, client) -> None:
        left = self.inflight.pop(client) - 1
        if left:
            self.inflight[client] = left

    # -- the mint pipeline --------------------------------------------------

    def reserve(self, c: int) -> int:
        """Take client c's next mint index; the mint is now in flight."""
        index = self.minted[c]
        self.minted[c] += 1
        self.pending[c] += 1
        return index

    def claim(self, stored: list[int], elapsed: float) -> tuple[int, int] | None:
        """Turn the most urgent credit into a reserved mint: (client, index).

        ``stored[c]`` is client c's stored-entry count and ``elapsed``
        the serve window so far; :func:`pick_refill_client` ranks on the
        depths and rates they imply. None when no client holds a credit.
        """
        c = pick_refill_client(
            self.credits, self.depths(stored), self.rates(elapsed)
        )
        if c is None:
            return None
        self.credits[c] -= 1
        return c, self.reserve(c)

    def landed(self, c: int, seconds: float | None = None) -> None:
        """A reserved mint's blob reached the store — or, as
        :meth:`failed`, the mint died: its index stays burned and no
        credit comes back, so the client pays one demand mint instead.
        A timed mint feeds the BUSY hint either way."""
        if seconds is not None:
            self.mint_took(seconds)
        self.pending[c] -= 1

    failed = landed

    def completed(self, c: int) -> None:
        """Client c consumed a precompute; credit a refill if its cap allows."""
        self.consumed[c] += 1
        if self.refill and (
            self.caps is None or self.minted[c] + self.credits[c] < self.caps[c]
        ):
            self.credits[c] += 1

    def mint_took(self, seconds: float) -> None:
        """Fold one mint's wall-clock into the mean behind the BUSY hint."""
        self._mint_seconds += seconds
        self._mints_timed += 1

    # -- what the counters imply --------------------------------------------

    @property
    def mean_mint_seconds(self) -> float:
        return self._mint_seconds / self._mints_timed if self._mints_timed else 0.0

    def depths(self, stored: list[int]) -> list[int]:
        """Per-client buffer depth: stored precomputes plus mints in flight."""
        return [s + p for s, p in zip(stored, self.pending)]

    def rates(self, elapsed: float) -> list[float]:
        """Per-client consumption rate over the serve window so far."""
        elapsed = max(elapsed, 1e-9)
        return [n / elapsed for n in self.consumed]

    def backlog(self) -> int:
        """The admission pressure signal.

        Held WAIT_STORE offers plus refill work still owed or in flight:
        when this crosses ``max_queue`` the refill pipeline is behind and
        new requests are deferred rather than silently piling on.
        """
        return self.waiting + sum(self.credits) + sum(self.pending)

    def retry_after(self) -> float:
        """The adaptive BUSY hint for the backlog as it stands."""
        return adaptive_retry_after(
            self.backlog(),
            self.max_queue,
            self.mean_mint_seconds,
            self.mint_parallelism,
            BUSY_RETRY_FLOOR,
        )

    def mint_pending(self, c: int) -> bool:
        """Is a refill for this client credited or already in flight?"""
        return self.credits[c] > 0 or self.pending[c] > 0

    def idle(self) -> bool:
        """No refill owed and none in flight."""
        return not any(self.credits) and not any(self.pending)
