"""The paper's headline results at bench scale, pinned in tier-1.

``benchmarks/bench_*.py`` assert the shape of every table and figure,
but run only under ``scripts/bench.sh``.  Two of those asserts are
cheap enough to run with the suite, and they are the ones a change to
the distribution path moves first: SEVE's flat response in Figure 6
and Table II's zero drops at short effect ranges.
"""

from __future__ import annotations

from repro.harness.config import SimulationSettings
from repro.harness.experiments import run_figure6, run_table2

#: ``benchmarks/conftest.py``'s bench scale.
BENCH = SimulationSettings(num_walls=20_000, moves_per_client=40)


def test_figure6_seve_response_stays_flat():
    result = run_figure6(BENCH, client_counts=(8, 32, 64), architectures=("seve",))
    seve = {row[0]: row[1] for row in result.table.rows}
    # The bench's own rule: 64 clients within 40 % of 8.
    assert seve[64] < seve[8] * 1.4, seve
    # EXPERIMENTS.md's column (376 / 406 / 483 ms), within 10 %.
    for clients, committed in ((8, 376.2), (32, 405.6), (64, 482.8)):
        assert abs(seve[clients] - committed) < committed * 0.1, seve


def test_table2_drops_nothing_at_effect_range_1():
    result = run_table2(BENCH, effect_ranges=(1.0,))
    [(effect_range, dropped, _)] = result.table.rows
    assert effect_range == 1.0 and dropped < 0.5
