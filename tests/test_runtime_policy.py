"""The admission-and-refill ledger, as plain unit tests.

``RefillLedger`` is the one policy object behind both the live gateway
and the analytic replay; no gateway, socket, pool or clock is needed to
pin what it decides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.policy import (
    BUSY,
    BUSY_RETRY_FLOOR,
    DEFAULT_MAX_QUEUE,
    GOAWAY,
    HOLD,
    MAX_INFLIGHT_PER_CLIENT,
    MAX_RETRY_AFTER,
    MISS_WAIT_SECONDS,
    OFFER,
    QUEUE,
    RefillLedger,
    adaptive_retry_after,
    pick_refill_client,
)


def test_pick_refill_client_prefers_earliest_miss():
    # Client 1 drains fastest relative to its buffer: it misses first.
    assert pick_refill_client([1, 1, 1], [2.0, 1.0, 4.0], [1.0, 2.0, 1.0]) == 1
    # Only credited clients are eligible.
    assert pick_refill_client([0, 1, 0], [2.0, 9.0, 0.0], [5.0, 0.1, 5.0]) == 1
    # Never-consuming clients (rate 0) rank last, tie-broken by buffer.
    assert pick_refill_client([1, 1], [3.0, 1.0], [0.0, 0.0]) == 1
    # No credits anywhere: nothing to refill.
    assert pick_refill_client([0, 0], [1.0, 1.0], [1.0, 1.0]) is None


def test_adaptive_retry_after_scales_with_backlog():
    floor = 0.05
    # No measured mints yet: the fixed constant stands.
    assert adaptive_retry_after(10, 0, 0.0, 4, floor) == floor
    # One excess request, one worker: wait about one mint.
    assert adaptive_retry_after(1, 0, 0.4, 1, floor) == pytest.approx(0.4)
    # Deeper excess drains linearly...
    assert adaptive_retry_after(3, 0, 0.4, 1, floor) == pytest.approx(1.2)
    # ...and parallel mint slots divide it.
    assert adaptive_retry_after(3, 0, 0.4, 2, floor) == pytest.approx(0.6)
    # Backlog at/under the threshold still waits for >= one mint slot.
    assert adaptive_retry_after(2, 8, 0.4, 1, floor) == pytest.approx(0.4)
    # Tiny mint times clamp up to the floor, huge backlogs down to the cap.
    assert adaptive_retry_after(1, 0, 0.001, 1, floor) == floor
    assert adaptive_retry_after(10_000, 0, 0.4, 1, floor) == MAX_RETRY_AFTER
    assert adaptive_retry_after(10_000, 0, 0.4, 1, floor, cap=2.0) == 2.0


def test_retry_after_tracks_measured_mints():
    """The BUSY hint starts at the fixed floor and follows the running
    mean of measured mint times once the estimator has samples."""
    ledger = RefillLedger(2, max_queue=0)
    assert ledger.retry_after() == BUSY_RETRY_FLOOR
    ledger.mint_took(0.4)
    ledger.mint_took(0.6)
    # Mean mint 0.5s, empty backlog -> one mint's worth of wait.
    assert ledger.mean_mint_seconds == pytest.approx(0.5)
    assert ledger.retry_after() == pytest.approx(0.5)
    # Three mints owed beyond the threshold, two mint slots: 3 x 0.5 / 2.
    wide = RefillLedger(1, max_queue=0, mint_parallelism=2)
    wide.mint_took(0.5)
    wide.pending[0] = 3
    assert wide.retry_after() == pytest.approx(0.75)


def test_per_client_refill_caps():
    """A skewed schedule hands the ledger per-client expected counts."""
    with pytest.raises(ValueError, match="match num_clients"):
        RefillLedger(2, caps=[3])
    ledger = RefillLedger(3, caps=[3, 1, 0])
    ledger.minted = [2, 1, 0]
    for c in range(3):
        ledger.completed(c)
    assert ledger.credits == [1, 0, 0]  # under / at its cap / zero-request client
    assert ledger.consumed == [1, 1, 1]
    # One scalar caps every client alike; None caps none.
    uniform = RefillLedger(2, caps=1)
    uniform.reserve(0)
    uniform.completed(0)
    uniform.completed(1)
    assert uniform.credits == [0, 1]
    unbounded = RefillLedger(1)
    for _ in range(5):
        unbounded.completed(0)
    assert unbounded.credits == [5]


def test_refill_cap_counts_outstanding_credits():
    """Cap 4, three reserved, two completions before any claim: one credit,
    not two — the mint count ends at the cap, not one past it."""
    ledger = RefillLedger(1, caps=4)
    for _ in range(3):
        ledger.reserve(0)
    assert ledger.minted == [3]
    ledger.completed(0)
    ledger.completed(0)
    assert ledger.credits == [1]
    while ledger.claim([0], 1.0) is not None:
        pass
    assert ledger.minted == [4]
    assert ledger.credits == [0]


def test_refill_off_earns_no_credits():
    ledger = RefillLedger(1, refill=False)
    ledger.completed(0)
    assert ledger.consumed == [1] and ledger.credits == [0]
    assert ledger.idle() and not ledger.mint_pending(0)


def test_backlog_counts_waiters_credits_and_inflight_mints():
    ledger = RefillLedger(2, max_queue=2)
    assert ledger.backlog() == 0 and ledger.idle()
    ledger.pending[0] = 3  # an in-flight mint backlog, as admission sees it
    assert ledger.backlog() == 3 > ledger.max_queue
    assert ledger.mint_pending(0) and not ledger.mint_pending(1)
    assert not ledger.idle()
    ledger.pending[0] = 0
    ledger.completed(1)
    ledger.waiting = 1
    assert ledger.backlog() == 2
    assert ledger.mint_pending(1)


def test_claim_follows_expected_time_to_miss():
    ledger = RefillLedger(2)
    ledger.completed(0)
    for _ in range(3):
        ledger.completed(1)
    # Equal buffers, client 1 drains three times as fast: it is served first,
    # and each claim reserves that client's next mint index.
    assert ledger.claim([1, 1], 1.0) == (1, 0)
    assert ledger.pending == [0, 1] and ledger.credits == [1, 2]
    # Its in-flight mint now counts toward its depth.
    assert ledger.depths([1, 1]) == [1, 2]
    assert ledger.rates(2.0) == [0.5, 1.5]
    ledger.landed(1)
    assert ledger.pending == [0, 0]
    assert ledger.claim([1, 4], 1.0) == (0, 0)  # 1/1 s to miss beats 4/3 s
    ledger.failed(0)
    assert ledger.pending == [0, 0] and ledger.minted == [1, 1]  # index burned


def test_request_life_cycle_decisions():
    """Each admission answer from the core alone: OFFER under the backlog
    and the per-client cap, QUEUE at the cap, BUSY with the hint over
    the backlog, GOAWAY one deferral past the cap, and a miss that holds
    only while a served client's refill is owed, until its deadline."""
    ledger = RefillLedger(2, max_queue=0)
    ledger.max_request_deferrals = 1
    assert ledger.request(0) == (OFFER, 0)
    assert ledger.request(0) == (QUEUE, 0)  # at the cap: not yet issued
    assert ledger.request("outsider") == (OFFER, 1)
    ledger.reserve(0)  # client 0's refill in flight: backlog 1 > 0
    assert ledger.request(1) == (BUSY, BUSY_RETRY_FLOOR)
    assert ledger.request(1) == (GOAWAY, 0)
    assert ledger.request(1)[0] == BUSY  # a rejection restarts the count
    # Client 0 misses with its mint in flight: it holds, and looks again.
    assert ledger.look(0, False, 10.0) == (HOLD, 10.0 + MISS_WAIT_SECONDS)
    assert ledger.waiting == 1
    assert ledger.look(0, False, 20.0, 70.0) == (HOLD, 70.0)
    assert ledger.waiting == 1
    ledger.landed(0, 0.4)
    assert ledger.look(0, True, 30.0, 70.0) == (OFFER, None)  # a hit
    assert ledger.waiting == 0 and ledger.mean_mint_seconds == 0.4
    # An outsider never holds; a hold past its deadline mints on demand.
    assert ledger.look("outsider", False, 0.0) == (OFFER, None)
    ledger.reserve(0)
    assert ledger.look(0, False, 0.0)[0] == HOLD
    assert ledger.look(0, False, 60.0, 60.0) == (OFFER, None)
    assert ledger.waiting == 0
    ledger.done(0, 0.6)  # its demand mint feeds the hint
    assert ledger.mean_mint_seconds == pytest.approx(0.5)
    ledger.drop("outsider")
    assert ledger.inflight == {} and ledger.consumed == [1, 0]
    assert ledger.admission() == {
        "issued": 5, "admitted": 2, "deferred": 2, "rejected": 1,
    }


CLIENTS = 3
OUTSIDER = "intruder"  # a HELLO naming a client outside the N served
STEP = st.tuples(
    st.sampled_from([
        "reserve", "claim", "landed", "failed", "completed",
        "request", "miss", "hold", "release", "complete", "drop",
    ]),
    st.integers(min_value=0, max_value=CLIENTS),  # CLIENTS: the outsider
)


@settings(max_examples=300, deadline=None)
@given(
    caps=st.one_of(
        st.none(),
        st.lists(st.integers(0, 6), min_size=CLIENTS, max_size=CLIENTS),
    ),
    max_queue=st.sampled_from([0, 2, DEFAULT_MAX_QUEUE]),
    max_deferrals=st.one_of(st.none(), st.integers(0, 2)),
    steps=st.lists(STEP, min_size=20, max_size=80),
)
def test_ledger_invariants_hold_under_any_interleaving(
    caps, max_queue, max_deferrals, steps
):
    """Random refill events (reserve / claim / landed / failed /
    completed) and request events (request / miss / hold / release /
    complete / drop) for served clients and an outsider — the refill
    driver and the selector thread interleave freely in the live gateway
    — never overdraw a counter, mint past a cap, or lose a request."""
    ledger = RefillLedger(CLIENTS, caps=caps, max_queue=max_queue)
    ledger.max_request_deferrals = max_deferrals
    reserved = [0] * CLIENTS  # mints taken outside the credit path (prefill)
    # Each client's admitted requests: None while running, else the
    # deadline of its hold.
    active = {k: [] for k in [*range(CLIENTS), OUTSIDER]}
    for step, (op, c) in enumerate(steps):
        who = OUTSIDER if c == CLIENTS else c
        now = 5.0 * step  # holds outlive MISS_WAIT_SECONDS after 12 steps
        running = [i for i, d in enumerate(active[who]) if d is None]
        held = [i for i, d in enumerate(active[who]) if d is not None]
        if op in ("reserve", "claim", "landed", "failed", "completed"):
            c = c % CLIENTS
        if op == "reserve":
            if caps is None or ledger.minted[c] + ledger.credits[c] < caps[c]:
                ledger.reserve(c)
                reserved[c] += 1
        elif op == "claim":
            before = sum(ledger.credits)
            claimed = ledger.claim([0] * CLIENTS, 1.0)
            assert (claimed is None) == (before == 0)
        elif op in ("landed", "failed"):
            if ledger.pending[c]:
                getattr(ledger, op)(c, 0.5)
        elif op == "completed":
            ledger.completed(c)
        elif op == "request":
            verdict, value = ledger.request(who)
            assert verdict != GOAWAY or max_deferrals is not None
            if verdict == QUEUE:
                assert len(active[who]) == MAX_INFLIGHT_PER_CLIENT
            elif verdict == BUSY:
                assert BUSY_RETRY_FLOOR <= value <= MAX_RETRY_AFTER
            elif verdict == OFFER:
                assert value == sum(len(v) for v in active.values())
                active[who].append(None)
        elif op == "miss" and running:
            verdict, deadline = ledger.look(who, False, now)
            if verdict == HOLD:
                assert who != OUTSIDER and deadline == now + MISS_WAIT_SECONDS
                active[who][running[0]] = deadline
        elif op == "hold" and held:
            verdict, _ = ledger.look(who, False, now, active[who][held[0]])
            if verdict == OFFER:
                active[who][held[0]] = None
        elif op == "release" and held:
            assert ledger.look(who, True, now, active[who][held[0]])[0] == OFFER
            active[who][held[0]] = None
        elif op == "complete" and running:
            consumed = sum(ledger.consumed)
            ledger.done(who, 0.25)
            active[who].pop(running[0])
            assert sum(ledger.consumed) == consumed + (who != OUTSIDER)
        elif op == "drop" and active[who]:
            ledger.drop(who, held=active[who].pop() is not None)
        tally = ledger.admission()
        assert tally["issued"] == (
            tally["admitted"] + tally["deferred"] + tally["rejected"]
        )
        for k, requests in active.items():
            assert ledger.inflight.get(k, 0) == len(requests)
            assert 0 <= len(requests) <= MAX_INFLIGHT_PER_CLIENT
        assert ledger.waiting == sum(
            d is not None for requests in active.values() for d in requests
        )
        assert all(n >= 0 for n in ledger.credits)
        assert all(n >= 0 for n in ledger.pending)
        if caps is not None:
            assert all(
                ledger.minted[k] + ledger.credits[k] <= caps[k]
                for k in range(CLIENTS)
            )
        assert ledger.backlog() == (
            ledger.waiting + sum(ledger.credits) + sum(ledger.pending)
        )
        assert ledger.idle() == (ledger.backlog() == ledger.waiting)
        # Every mint is a prefill reservation or a consumed request's refill.
        assert all(
            ledger.minted[k] + ledger.credits[k] <= reserved[k] + ledger.consumed[k]
            for k in range(CLIENTS)
        )
