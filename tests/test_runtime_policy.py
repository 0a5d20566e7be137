"""The admission-and-refill ledger, as plain unit tests.

``RefillLedger`` is the one policy object behind both the live gateway
and the analytic replay; no gateway, socket, pool or clock is needed to
pin what it decides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.policy import (
    BUSY_RETRY_FLOOR,
    MAX_RETRY_AFTER,
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


CLIENTS = 3
STEP = st.tuples(
    st.sampled_from(["reserve", "claim", "landed", "failed", "completed", "hold"]),
    st.integers(min_value=0, max_value=CLIENTS - 1),
)


@settings(max_examples=200, deadline=None)
@given(
    caps=st.one_of(
        st.none(),
        st.lists(st.integers(0, 6), min_size=CLIENTS, max_size=CLIENTS),
    ),
    steps=st.lists(STEP, max_size=60),
)
def test_ledger_invariants_hold_under_any_interleaving(caps, steps):
    """Random reserve / claim / landed / failed / completed orders — the
    refill driver and the selector thread interleave freely in the live
    gateway — never overdraw a counter or mint past a cap."""
    ledger = RefillLedger(CLIENTS, caps=caps)
    reserved = [0] * CLIENTS  # mints taken outside the credit path (prefill)
    for op, c in steps:
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
                getattr(ledger, op)(c)
        elif op == "completed":
            ledger.completed(c)
        else:
            ledger.waiting = c
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
