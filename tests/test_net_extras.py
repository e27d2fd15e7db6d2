"""Additional network/host coverage: bandwidth-driven congestion
collapse and link backlog accounting."""

from __future__ import annotations

import pytest

from repro.net.network import Network
from repro.types import SERVER_ID


def test_sustained_overload_grows_link_backlog(sim):
    net = Network(sim, rtt_ms=10.0, bandwidth_bps=100_000)
    net.register(SERVER_ID, lambda src, msg: None)
    net.register(0, lambda src, msg: None)
    # Offer 2x the uplink capacity: 2500 B every 100ms = 200 kbps.
    for i in range(20):
        sim.schedule(i * 100.0, lambda: net.send(0, SERVER_ID, "x", 2500))
    sim.run(until=1999.0)
    # Backlog at the end of the burst: about half the bytes still queue.
    assert net.link(0, SERVER_ID).queue_delay() > 500.0


def test_uplink_and_downlink_are_independent_directions(sim):
    net = Network(sim, rtt_ms=0.0, bandwidth_bps=100_000)
    net.register(SERVER_ID, lambda src, msg: None)
    arrivals = []
    net.register(0, lambda src, msg: arrivals.append((msg, sim.now)))
    # Saturate the uplink; the downlink must be unaffected.
    net.send(0, SERVER_ID, "up", 12_500)  # 1 full second of uplink
    net.send(SERVER_ID, 0, "down", 1000)
    sim.run()
    assert ("down", pytest.approx(80.0)) in arrivals


def test_versioned_store_merge_absent_object_records_version():
    from repro.state.versioned import VersionedStore

    store = VersionedStore()
    store.merge({"new:0": {"x": 1.0}}, commit_index=7)
    assert store.version("new:0") == 1
    version, commit, attrs = store.history("new:0")[0]
    assert commit == 7
    assert attrs == {"x": 1.0}


def test_versioned_store_install_after_merge_tracks_versions():
    from repro.state.versioned import VersionedStore
    from repro.state.objects import WorldObject

    store = VersionedStore([WorldObject("o:0", {"a": 1, "b": 2})])
    store.merge({"o:0": {"a": 10}})
    store.install({"o:0": {"a": 20}})  # wholesale replace drops b
    assert store.version("o:0") == 3
    assert "b" not in store.get("o:0")
    history = store.history("o:0")
    assert [entry[0] for entry in history] == [1, 2, 3]
