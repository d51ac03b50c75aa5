"""Full-stack integration: real coin, real adversaries, real faults.

These tests run the complete tower — ss-Byz-Clock-Sync over ss-Byz-4-Clock
over two ss-Byz-2-Clocks over ss-Byz-Coin-Flip pipelines over GVSS
dealings — exactly as a user would deploy it, and cross-check the pieces
against each other (oracle vs GVSS coin, shared vs separate pipelines,
k-clock vs doubling tower).
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    CrashAdversary,
    DealerAttackAdversary,
    EquivocatorAdversary,
    RandomNoiseAdversary,
    SplitWorldAdversary,
)
from repro.analysis import ClockConvergenceMonitor, ScenarioSpec, run_trial
from repro.coin import FeldmanMicaliCoin, OracleCoin
from repro.core import RecursiveDoublingClock, SSByzClockSync
from repro.faults import inject_phantom_storm, scramble_now
from repro.net import Simulation


def gvss_sync_sim(n, f, k, adversary=None, seed=0):
    coin_factory = lambda: FeldmanMicaliCoin(n, f)
    sim = Simulation(
        n,
        f,
        lambda i: SSByzClockSync(k, coin_factory),
        adversary=adversary,
        seed=seed,
    )
    monitor = ClockConvergenceMonitor(k=k)
    sim.add_monitor(monitor)
    return sim, monitor


class TestFullStackGVSS:
    def test_converges_fault_free(self):
        sim, monitor = gvss_sync_sim(4, 1, 16, seed=1)
        scramble_now(sim)
        sim.run(60)
        assert monitor.convergence_beat() is not None

    @pytest.mark.parametrize(
        "adversary_factory",
        [CrashAdversary, EquivocatorAdversary, DealerAttackAdversary],
    )
    def test_converges_under_attack(self, adversary_factory):
        sim, monitor = gvss_sync_sim(4, 1, 8, adversary=adversary_factory(), seed=2)
        scramble_now(sim)
        sim.run(120)
        assert monitor.convergence_beat() is not None

    def test_converges_n7(self):
        sim, monitor = gvss_sync_sim(7, 2, 8, adversary=SplitWorldAdversary(), seed=3)
        scramble_now(sim)
        sim.run(100)
        assert monitor.convergence_beat() is not None

    def test_survives_combined_fault_storm(self):
        """Scramble + phantoms + live Byzantine nodes, twice."""
        sim, monitor = gvss_sync_sim(
            4, 1, 8, adversary=RandomNoiseAdversary(), seed=4
        )
        scramble_now(sim)
        inject_phantom_storm(sim, ["root", "root/coin", "root/A/A1"], count=150)
        sim.run(80)
        assert monitor.convergence_beat(until_beat=80) is not None
        scramble_now(sim)
        inject_phantom_storm(sim, ["root", "root/A/A2"], count=150)
        sim.run(100)
        assert monitor.convergence_beat(from_beat=81) is not None


class TestCrossImplementationAgreement:
    def test_oracle_and_gvss_towers_both_solve_same_instance(self):
        latencies = {}
        for name, coin in (
            ("oracle", dict(coin_p0=0.4, coin_p1=0.4, coin_rounds=4)),
            ("gvss", dict(coin="gvss")),
        ):
            spec = ScenarioSpec(n=4, f=1, k=12, max_beats=150, **coin)
            result = run_trial(spec, seed=5)
            assert result.converged, name
            latencies[name] = result.converged_beat
        # Both are small constants; neither coin is structurally slower by
        # more than the pipeline-depth difference would explain.
        assert abs(latencies["oracle"] - latencies["gvss"]) < 60

    def test_doubling_tower_and_clock_sync_agree_on_semantics(self):
        """Same k=8 problem, two constructions: both must end in closure,
        incrementing by one mod 8 forever."""
        for factory in (
            lambda i: SSByzClockSync(8, lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)),
            lambda i: RecursiveDoublingClock(
                3, lambda: OracleCoin(p0=0.4, p1=0.4, rounds=2)
            ),
        ):
            sim = Simulation(4, 1, factory, seed=6)
            monitor = ClockConvergenceMonitor(k=8)
            sim.add_monitor(monitor)
            scramble_now(sim)
            sim.run(400)
            beat = monitor.convergence_beat()
            assert beat is not None
            tail = [values[0] for values in monitor.history[beat:]]
            for previous, current in zip(tail, tail[1:]):
                assert current == (previous + 1) % 8


class TestDeterminismEndToEnd:
    def test_identical_runs_with_full_stack(self):
        histories = []
        for _ in range(2):
            sim, monitor = gvss_sync_sim(
                4, 1, 8, adversary=EquivocatorAdversary(), seed=7
            )
            scramble_now(sim)
            sim.run(40)
            histories.append(tuple(monitor.history))
        assert histories[0] == histories[1]

    def test_message_totals_reproducible(self):
        totals = set()
        for _ in range(2):
            sim, _ = gvss_sync_sim(4, 1, 8, seed=8)
            sim.run(25)
            totals.add(sim.stats.total_messages)
        assert len(totals) == 1


class TestClockUsageSemantics:
    def test_synchronized_clock_is_usable_as_a_schedule(self):
        """The application story: once converged, correct nodes can use
        full_clock mod anything as a common schedule with zero skew."""
        sim, monitor = gvss_sync_sim(4, 1, 24, seed=9)
        scramble_now(sim)
        sim.run(80)
        beat = monitor.convergence_beat()
        assert beat is not None
        # From convergence on, every beat's values are identical:
        for values in monitor.history[beat:]:
            assert len(set(values)) == 1
        # and the derived "every 6 beats" schedule fires simultaneously.
        firings = [
            index
            for index, values in enumerate(monitor.history[beat:])
            if values[0] % 6 == 0
        ]
        gaps = {b - a for a, b in zip(firings, firings[1:])}
        assert gaps == {6}
