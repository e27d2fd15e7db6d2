"""Unit tests for the deterministic fault-injection plan
(:mod:`repro.net.faults`): RNG discipline, scheduling primitives,
serialization, the CLI crash-plan syntax, and the retry delays.

The determinism contract (docs/fault_model.md): the injector draws from
its dedicated RNG only for features whose rate is non-zero, in a fixed
per-message order, so (workload seed, fault seed) replays identically
and a null plan performs zero draws.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import (
    HEARTBEAT_INTERVAL_MS,
    LIVENESS_TIMEOUT_MS,
    CrashWindow,
    FaultInjector,
    FaultPlan,
    Partition,
    parse_crash_plan,
    retry_delay,
)
from repro.net.link import Link
from repro.net.network import Network
from repro.net.simulator import Simulator


# ---------------------------------------------------------------------------
# FaultInjector determinism
# ---------------------------------------------------------------------------
def test_same_seed_replays_identical_decisions():
    plan = FaultPlan(loss_rate=0.2, jitter_ms=40.0, duplicate_rate=0.1, seed=42)
    first = [FaultInjector(plan).decide(0, -1, t) for t in range(500)]
    second = [FaultInjector(plan).decide(0, -1, t) for t in range(500)]
    assert first == second


def test_different_seeds_diverge():
    base = FaultPlan(loss_rate=0.2, jitter_ms=40.0, seed=1)
    other = FaultPlan(loss_rate=0.2, jitter_ms=40.0, seed=2)
    a = [FaultInjector(base).decide(0, -1, t) for t in range(200)]
    b = [FaultInjector(other).decide(0, -1, t) for t in range(200)]
    assert a != b


def test_null_plan_draws_nothing():
    """A null plan must not touch the RNG at all — enabling zero
    features takes the identical code path as having no plan."""
    injector = FaultInjector(FaultPlan(seed=7))
    before = injector.rng.getstate()
    for t in range(100):
        assert injector.decide(0, -1, float(t)) == (False, 0.0, False)
    assert injector.rng.getstate() == before


def test_disabled_features_skip_their_draws():
    """A loss-only plan consumes exactly one draw per message, so its
    loss decisions match a loss+jitter plan's loss decisions never can —
    but two loss-only plans with different *other* fields do match."""
    loss_only = FaultPlan(loss_rate=0.3, seed=5)
    with_crashes = FaultPlan(
        loss_rate=0.3, seed=5, crashes=(CrashWindow(0, 100.0),)
    )
    a = [FaultInjector(loss_only).decide(0, -1, t) for t in range(300)]
    b = [FaultInjector(with_crashes).decide(0, -1, t) for t in range(300)]
    assert a == b  # crash schedule consumes no per-message randomness


def test_loss_rate_is_roughly_honoured():
    injector = FaultInjector(FaultPlan(loss_rate=0.25, seed=11))
    drops = sum(
        injector.decide(0, -1, float(t))[0] for t in range(4000)
    )
    assert 0.20 < drops / 4000 < 0.30


def test_jitter_bounded_by_plan():
    injector = FaultInjector(FaultPlan(jitter_ms=30.0, seed=3))
    delays = [injector.decide(0, -1, float(t))[1] for t in range(1000)]
    assert all(0.0 <= d < 30.0 for d in delays)
    assert max(delays) > 20.0  # the range is actually exercised


def test_dropped_messages_are_never_duplicated():
    injector = FaultInjector(
        FaultPlan(loss_rate=0.5, duplicate_rate=0.9, seed=9)
    )
    for t in range(2000):
        dropped, _, duplicate = injector.decide(0, -1, float(t))
        assert not (dropped and duplicate)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------
def test_partition_severs_members_during_window():
    part = Partition(1000.0, 2000.0, hosts=frozenset({3}))
    assert not part.severs(3, -1, 999.9)
    assert part.severs(3, -1, 1000.0)  # src is a member
    assert part.severs(-1, 3, 1500.0)  # dst is a member
    assert not part.severs(0, -1, 1500.0)  # outsiders unaffected
    assert not part.severs(3, -1, 2000.0)  # window is half-open


def test_total_blackout_partition():
    part = Partition(0.0, 100.0)  # hosts=None: everybody
    assert part.severs(0, -1, 50.0)
    assert part.severs(7, 4, 50.0)


def test_partition_drop_consumes_no_loss_draw():
    """While partitioned, messages are dropped without touching the RNG
    stream, so post-partition decisions are unaffected by how much
    traffic the partition swallowed."""
    part = Partition(0.0, 10.0)
    plan = FaultPlan(loss_rate=0.3, seed=5, partitions=(part,))
    quiet = FaultPlan(loss_rate=0.3, seed=5)
    a = FaultInjector(plan)
    for t in range(50):  # all inside the window: dropped, zero draws
        assert a.decide(0, -1, float(t) / 10.0)[0] is True
    b = FaultInjector(quiet)
    after_a = [a.decide(0, -1, 100.0 + t) for t in range(100)]
    after_b = [b.decide(0, -1, 100.0 + t) for t in range(100)]
    assert after_a == after_b


def test_empty_partition_window_rejected():
    with pytest.raises(ConfigurationError):
        Partition(100.0, 100.0)


# ---------------------------------------------------------------------------
# Plan validation and serialization
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_rate": 1.0},
        {"loss_rate": -0.1},
        {"duplicate_rate": 1.5},
        {"jitter_ms": -1.0},
    ],
)
def test_bad_plan_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        FaultPlan(**kwargs)


def test_plan_roundtrips_through_dict():
    plan = FaultPlan(
        loss_rate=0.05,
        jitter_ms=50.0,
        duplicate_rate=0.02,
        seed=17,
        partitions=(Partition(100.0, 200.0, hosts=frozenset({1, 2})),),
        crashes=(CrashWindow(0, 800.0, 2500.0), CrashWindow(3, 1200.0)),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_null_plan_detection():
    assert FaultPlan().is_null
    assert FaultPlan(seed=99).is_null  # the seed alone injects nothing
    assert not FaultPlan(loss_rate=0.01).is_null
    assert not FaultPlan(jitter_ms=1.0).is_null
    assert not FaultPlan(crashes=(CrashWindow(0, 1.0),)).is_null


# ---------------------------------------------------------------------------
# Crash plans
# ---------------------------------------------------------------------------
def test_parse_crash_plan():
    windows = parse_crash_plan("0@800:2500, 3@1200")
    assert windows == (
        CrashWindow(0, 800.0, 2500.0),
        CrashWindow(3, 1200.0, None),
    )
    assert parse_crash_plan("") == ()


def test_parse_crash_plan_shard_targets():
    windows = parse_crash_plan("s1@2000:6000, 0@800")
    assert windows == (
        CrashWindow(-1, 2000.0, 6000.0, shard_index=1),
        CrashWindow(0, 800.0, None),
    )
    assert windows[0].is_shard and not windows[1].is_shard
    assert windows[0].target_label == "s1"
    assert FaultPlan(crashes=windows).shard_crashes == windows[:1]


@pytest.mark.parametrize("text", ["0", "x@100", "0@100:50", "0@-5", "s@100", "s-1@100"])
def test_bad_crash_plan_rejected(text):
    with pytest.raises(ConfigurationError):
        parse_crash_plan(text)


@pytest.mark.parametrize(
    "text, offender",
    [
        ("0@500:1500, 0@1000:2000", "0@1000:2000"),  # overlapping windows
        ("3@500, 3@2000", "3@2000"),  # first window never reconnects
        ("s1@500:1500, s1@1500:2500, s1@1600", "s1@1600"),  # back-to-back ok, re-crash mid-window not
    ],
)
def test_overlapping_crash_windows_rejected_naming_offender(text, offender):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_crash_plan(text)
    assert offender in str(excinfo.value)


def test_disjoint_crash_windows_per_target_accepted():
    windows = parse_crash_plan("0@500:1500, 0@1500:2500, s1@500:900, s1@900")
    assert len(windows) == 4


def test_reconnect_must_follow_crash():
    with pytest.raises(ConfigurationError):
        CrashWindow(0, 1000.0, reconnect_at_ms=1000.0)


# ---------------------------------------------------------------------------
# Retry delays
# ---------------------------------------------------------------------------
def test_retry_backoff_grows_and_caps():
    # At a 100 ms RTT: a 400 ms timeout, doubled once to its 800 ms cap,
    # plus under 10 ms of jitter.
    rng = random.Random(0)
    delays = [retry_delay(k, 100.0, rng) for k in range(6)]
    assert 400.0 <= delays[0] < 410.0
    assert all(800.0 <= d < 810.0 for d in delays[1:])  # capped


def test_retry_jitter_is_seeded_and_bounded():
    a = [retry_delay(0, 100.0, random.Random(4)) for _ in range(5)]
    b = [retry_delay(0, 100.0, random.Random(4)) for _ in range(5)]
    assert a == b
    assert all(400.0 <= d < 410.0 for d in a)


def test_suite_factories_scale_with_rtt():
    assert retry_delay(0, 238.0, random.Random(0)) >= 4 * 238.0
    arq = Network(Simulator(), rtt_ms=238.0, faults=FaultInjector(FaultPlan()))
    assert arq.rto_ms > 238.0  # past one round trip
    assert Network(Simulator(), rtt_ms=238.0).rto_ms is None
    assert LIVENESS_TIMEOUT_MS > HEARTBEAT_INTERVAL_MS


# ---------------------------------------------------------------------------
# Link under jitter: FIFO preserved
# ---------------------------------------------------------------------------
def test_link_clamps_jittered_arrivals_to_fifo():
    """Reordering jitter would violate the per-link FIFO every protocol
    in the repo assumes; the link clamps arrivals to stay monotone."""
    sim = Simulator()
    link = Link(sim, 0, -1, latency_ms=50.0, bandwidth_bps=None)
    arrivals = []
    # First message gets huge extra delay, second gets none: without the
    # clamp the second would overtake the first.
    link.transmit(100, arrivals.append, "first", 500.0)
    link.transmit(100, arrivals.append, "second", 0.0)
    sim.run()
    assert arrivals == ["first", "second"]


def test_link_without_jitter_unchanged():
    """extra_delay=0 must be a provable no-op: arrivals are already
    monotone (store-and-forward + constant latency), so the clamp never
    fires and timings match the pre-fault path exactly."""
    sim = Simulator()
    link = Link(sim, 0, -1, latency_ms=50.0, bandwidth_bps=8_000.0)
    times = []
    for _ in range(5):
        link.transmit(100, lambda record: times.append(sim.now), None)
    sim.run()
    # 100 bytes at 8kbps = 100ms serialization each, + 50ms latency.
    assert times == [150.0, 250.0, 350.0, 450.0, 550.0]
