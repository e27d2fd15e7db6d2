"""ζ_CO is ζ_CS plus the optimistic effects of Q (Algorithms 1, 3, 4).

A client keeps one replica, ζ_CS (``stable``), and an overlay ζ_CO
(``optimistic``) holding private copies of only the objects some
pending action writes.  That is exact only if, after every step a
client takes, ζ_CO and ζ_CS agree on every object outside WS(Q).  This
differential wraps each step point of :class:`ProtocolClient` on the
golden run shapes (clean, lossy and evicting runs of every SEVE
architecture, the dense K = 1 run, and the K = 4 crash and
two-partition runs) and checks,
after each step:

(a) on every object outside WS(Q), ζ_CO holds what ζ_CS holds — the
    same value where ζ_CS has the object, nothing where it has not;
(b) the overlay's private copies are all of objects in WS(Q).
"""

from __future__ import annotations

import pytest

from repro.core.client import ProtocolClient
from repro.harness import runner
from tests.test_golden_runs import BASE, EVICTING, LOSSY, RUNS

#: The client's step points: every path that changes Q, ζ_CS or ζ_CO.
STEPS = (
    "submit",
    "_process_entry",
    "_handle_abort",
    "_handle_commit_notice",
    "_complete_migration",
)

SHAPES = {
    f"{architecture}_{kind}": (architecture, settings)
    for architecture in ("seve", "incomplete", "seve-basic", "seve-naive", "seve-hybrid")
    for kind, settings in (
        ("clean", BASE),
        ("lossy", BASE.with_(fault_plan=LOSSY)),
        ("evict", BASE.with_(fault_plan=EVICTING)),
    )
}
# The dense shape, where clients see each other's moves and the
# Information Bound drops some.
SHAPES["incomplete_k1"] = ("incomplete", RUNS["seve_k1"])
SHAPES.update(
    (name, ("seve", RUNS[name]))
    for name in (
        "seve_k1",
        "seve_k4_replicated_crash",
        "seve_k4_replicated_failover",
        "seve_k4_single_restart",
        "seve_k4_w2",
        "seve_k4_w2_mixed_crashes",
    )
)


def check_overlay(client: ProtocolClient) -> int:
    """Assert (a) and (b) for ``client``; the number of objects compared."""
    pending = client.queue.write_set()
    optimistic = {obj.oid: obj for obj in client.optimistic.objects()}
    stable = {obj.oid: obj for obj in client.stable.objects()}
    outside = (optimistic.keys() | stable.keys()) - pending
    for oid in outside:
        assert optimistic.get(oid) == stable.get(oid), (client.client_id, oid)
    assert client.optimistic._objects.keys() <= pending, client.client_id
    return len(outside)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_optimistic_replica_is_stable_plus_pending_writes(name, monkeypatch):
    checked = []

    def checking(step):
        def wrapper(self, *args, **kwargs):
            out = step(self, *args, **kwargs)
            checked.append(check_overlay(self))
            return out

        return wrapper

    for step in STEPS:
        monkeypatch.setattr(
            ProtocolClient, step, checking(getattr(ProtocolClient, step))
        )
    architecture, settings = SHAPES[name]
    runner.run_simulation(architecture, settings)
    assert len(checked) > 100 and sum(checked) > 0
