"""Arrival generators: seeded determinism, empirical rates, invariants.

The schedule is the contract between the functional and analytic
drivers, so its guarantees are pinned here: same seed → byte-identical
canonical JSON; Poisson empirical rates near nominal; Zipf skew orders
per-client counts; burst envelopes tile the horizon and thin OFF
windows; closed-loop think gaps accumulate into the nominal offsets;
malformed schedules are rejected at construction.
"""

import json

import pytest

from repro.workload.generators import (
    MODE_CLOSED,
    MODE_OPEN,
    Arrival,
    BurstEnvelope,
    Schedule,
    closed_schedule,
    poisson_schedule,
    uniform_schedule,
    zipf_rates,
)


# ---------------------------------------------------------------- determinism


def test_poisson_seeded_determinism_byte_identical():
    a = poisson_schedule(3, 4.0, horizon=5.0, seed=42)
    b = poisson_schedule(3, 4.0, horizon=5.0, seed=42)
    assert a.to_json() == b.to_json()
    c = poisson_schedule(3, 4.0, horizon=5.0, seed=43)
    assert a.to_json() != c.to_json()


def test_closed_seeded_determinism():
    a = closed_schedule(4, 5, 0.3, seed=7)
    b = closed_schedule(4, 5, 0.3, seed=7)
    assert a.to_json() == b.to_json()
    assert a.to_json() != closed_schedule(4, 5, 0.3, seed=8).to_json()


def test_client_streams_independent_of_population():
    """Adding a client must not disturb existing clients' arrivals."""
    small = poisson_schedule(2, 3.0, horizon=4.0, seed=9)
    large = poisson_schedule(3, 3.0, horizon=4.0, seed=9)
    for c in (0, 1):
        small_lane = [a.at for a in small.arrivals if a.client == c]
        large_lane = [a.at for a in large.arrivals if a.client == c]
        assert small_lane == large_lane


def test_burst_thinning_on_client_stream_is_deterministic():
    burst = BurstEnvelope(on_seconds=1.0, off_seconds=1.0, off_factor=0.2,
                          seed=5)
    a = poisson_schedule(2, 6.0, horizon=4.0, seed=3, burst=burst)
    b = poisson_schedule(2, 6.0, horizon=4.0, seed=3, burst=burst)
    assert a.to_json() == b.to_json()


# ------------------------------------------------------------ empirical rates


def test_poisson_empirical_rate_within_tolerance():
    rate = 20.0
    horizon = 50.0
    s = poisson_schedule(1, rate, horizon=horizon, seed=0)
    # ~1000 expected arrivals; 3-sigma band for a Poisson count is
    # ~±9.5%, allow 15% for slack.
    empirical = s.total_requests / horizon
    assert empirical == pytest.approx(rate, rel=0.15)


def test_zipf_rates_sum_and_order():
    rates = zipf_rates(5, 10.0, 1.2)
    assert sum(rates) == pytest.approx(10.0)
    assert rates == sorted(rates, reverse=True)
    assert rates[0] > rates[-1]
    # skew=0 degenerates to uniform
    flat = zipf_rates(5, 10.0, 0.0)
    assert all(r == pytest.approx(2.0) for r in flat)


def test_zipf_skew_orders_empirical_counts():
    s = poisson_schedule(3, zipf_rates(3, 12.0, 1.5), horizon=30.0, seed=1)
    counts = s.request_counts()
    assert counts[0] > counts[1] > counts[2]


# ------------------------------------------------------------- burst envelope


def test_burst_windows_tile_horizon():
    burst = BurstEnvelope(on_seconds=0.5, off_seconds=0.5, seed=2)
    windows = burst.windows(10.0)
    assert windows[0][0] == 0.0
    assert windows[-1][1] == 10.0
    for (s0, e0, on0), (s1, e1, on1) in zip(windows, windows[1:]):
        assert e0 == s1  # contiguous
        assert on0 != on1  # alternating
    assert burst.duty_cycle == pytest.approx(0.5)


def test_burst_off_windows_thin_arrivals():
    """With off_factor=0, no arrival may land inside an OFF window, and
    the total count drops versus the unmodulated schedule."""
    burst = BurstEnvelope(on_seconds=1.0, off_seconds=1.0, off_factor=0.0,
                          seed=4)
    plain = poisson_schedule(2, 8.0, horizon=10.0, seed=6)
    thinned = poisson_schedule(2, 8.0, horizon=10.0, seed=6, burst=burst)
    assert thinned.total_requests < plain.total_requests
    windows = burst.windows(10.0)
    off = [(s, e) for s, e, on in windows if not on]
    for a in thinned.arrivals:
        assert not any(s <= a.at < e for s, e in off)


def test_burst_duty_cycle_reflected_in_counts():
    """Thinned count should land near duty_cycle × unmodulated count."""
    burst = BurstEnvelope(on_seconds=2.0, off_seconds=2.0, off_factor=0.0,
                          seed=8)
    plain = poisson_schedule(1, 30.0, horizon=40.0, seed=10)
    thinned = poisson_schedule(1, 30.0, horizon=40.0, seed=10, burst=burst)
    ratio = thinned.total_requests / plain.total_requests
    assert 0.25 <= ratio <= 0.75  # expected 0.5, generous band

def test_burst_envelope_validation():
    with pytest.raises(ValueError):
        BurstEnvelope(on_seconds=0.0, off_seconds=1.0)
    with pytest.raises(ValueError):
        BurstEnvelope(on_seconds=1.0, off_seconds=1.0, off_factor=1.5)


# ----------------------------------------------------------------- closed loop


def test_closed_think_gaps_accumulate():
    s = closed_schedule(2, 4, 0.25, seed=0)
    assert s.mode == MODE_CLOSED
    for lane in s.per_client():
        running = 0.0
        for a in lane:
            assert a.think > 0.0
            running += a.think
            assert a.at == pytest.approx(running)


def test_closed_fixed_distribution():
    s = closed_schedule(2, 3, 0.1, seed=0, distribution="fixed")
    assert all(a.think == pytest.approx(0.1) for a in s.arrivals)
    assert all(a.at == pytest.approx(0.1 * (a.index + 1))
               for a in s.arrivals)


def test_closed_think_mean_empirical():
    s = closed_schedule(1, 400, 0.5, seed=3)
    mean = sum(a.think for a in s.arrivals) / s.total_requests
    assert mean == pytest.approx(0.5, rel=0.2)


# ------------------------------------------------------ schedule type contract


def test_uniform_schedule_shape():
    s = uniform_schedule(3, 2, 0.5)
    assert s.mode == MODE_OPEN
    assert s.request_counts() == [2, 2, 2]
    assert s.arrivals[0].at == 0.0
    # staggered: client lanes offset by period / num_clients
    lanes = s.per_client()
    assert lanes[1][0].at == pytest.approx(0.5 / 3)


def test_max_per_client_caps_counts():
    s = poisson_schedule(2, 50.0, horizon=10.0, seed=0, max_per_client=3)
    assert s.request_counts() == [3, 3]


def test_json_round_trip_preserves_bytes():
    s = poisson_schedule(3, zipf_rates(3, 5.0, 1.2), horizon=3.0, seed=11,
                         burst=BurstEnvelope(1.0, 1.0, 0.1, seed=2),
                         max_per_client=4)
    blob = s.to_json()
    back = Schedule.from_json(blob)
    assert back.to_json() == blob
    assert back.request_counts() == s.request_counts()
    assert back.meta == s.meta


def test_json_version_skew_rejected():
    blob = json.loads(uniform_schedule(1, 1, 1.0).to_json())
    blob["version"] = 99
    with pytest.raises(ValueError, match="version skew"):
        Schedule.from_json(json.dumps(blob))


def test_schedule_invariants_rejected():
    ok = Arrival(client=0, index=0, at=0.0)
    with pytest.raises(ValueError, match="mode"):
        Schedule("x", "weird", 1, 1.0, 0, (ok,))
    with pytest.raises(ValueError, match="consecutive"):
        Schedule("x", MODE_OPEN, 1, 1.0, 0,
                 (Arrival(client=0, index=1, at=0.0),))
    with pytest.raises(ValueError, match="sorted"):
        Schedule("x", MODE_OPEN, 1, 1.0, 0,
                 (Arrival(0, 0, at=1.0), Arrival(0, 1, at=0.5)))
    with pytest.raises(ValueError, match="client"):
        Schedule("x", MODE_OPEN, 1, 1.0, 0,
                 (Arrival(client=3, index=0, at=0.0),))
    with pytest.raises(ValueError, match=">= 0"):
        Schedule("x", MODE_OPEN, 1, 1.0, 0,
                 (Arrival(0, 0, at=0.0, think=-1.0),))


def test_offered_rate_and_span():
    s = uniform_schedule(2, 2, 1.0)
    assert s.span() == pytest.approx(2.0)
    assert s.offered_rate() == pytest.approx(4 / 2.0)


def test_rate_validation():
    with pytest.raises(ValueError):
        poisson_schedule(2, [1.0], horizon=1.0)
    with pytest.raises(ValueError):
        poisson_schedule(1, 0.0, horizon=1.0)
    with pytest.raises(ValueError):
        zipf_rates(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        zipf_rates(2, 1.0, -1.0)
    with pytest.raises(ValueError):
        closed_schedule(1, 1, 0.1, distribution="weibull")


def test_single_stream_arrival_helpers():
    from repro.workload.generators import InferenceRequest, PoissonWorkload

    w = PoissonWorkload(mean_interarrival=0.5, horizon=5.0, seed=1)
    times = w.arrival_times()
    assert times == sorted(times)
    assert all(0 < t < 5.0 for t in times)
    assert w.rate_per_minute == pytest.approx(120.0)
    r = InferenceRequest(index=0, arrival_time=1.0, service_start=2.0,
                         completion_time=3.0)
    assert r.queue_seconds == 1.0
    assert r.latency == 2.0
