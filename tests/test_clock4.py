"""ss-Byz-4-Clock (Fig. 3): Theorem 3's pattern and convergence."""

from __future__ import annotations

import pytest

from repro.adversary.strategies import EquivocatorAdversary, SplitWorldAdversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.coin.oracle import OracleCoin
from repro.core.clock4 import SSByz4Clock, four_clock_value
from repro.net.simulator import Simulation


def clock4_sim(n=4, f=1, adversary=None, seed=0):
    coin_factory = lambda: OracleCoin(p0=0.35, p1=0.35, rounds=2)
    sim = Simulation(
        n, f, lambda i: SSByz4Clock(coin_factory), adversary=adversary, seed=seed
    )
    monitor = ClockConvergenceMonitor(k=4)
    sim.add_monitor(monitor)
    return sim, monitor


class TestStructure:
    def test_two_independent_2clocks(self):
        sim, _ = clock4_sim()
        root = sim.nodes[0].root
        assert root.a1 is not root.a2
        assert root.a1.pipeline is not root.a2.pipeline

    def test_modulus(self):
        sim, _ = clock4_sim()
        assert sim.nodes[0].root.modulus == 4


class TestTheorem3:
    @pytest.mark.parametrize(
        "adversary_factory",
        [lambda: None, EquivocatorAdversary, SplitWorldAdversary],
    )
    def test_converges_and_counts_mod_4(self, adversary_factory):
        sim, monitor = clock4_sim(n=7, f=2, adversary=adversary_factory(), seed=2)
        sim.scramble()
        sim.run(150)
        beat = monitor.convergence_beat()
        assert beat is not None, "4-clock did not converge"

    def test_pattern_is_0123(self):
        sim, monitor = clock4_sim(seed=3)
        sim.scramble()
        sim.run(120)
        beat = monitor.convergence_beat()
        assert beat is not None
        tail = [values[0] for values in monitor.history[beat:]]
        for previous, current in zip(tail, tail[1:]):
            assert current == (previous + 1) % 4

    def test_a2_steps_every_other_beat_after_convergence(self):
        sim, monitor = clock4_sim(seed=4)
        sim.scramble()
        sim.run(120)
        beat = monitor.convergence_beat()
        assert beat is not None
        # Once converged, A1 alternates, so A2's clock flips exactly on the
        # beats where the composite clock crosses 1->2 and 3->0.
        root = sim.nodes[0].root
        a2_values = []
        for _ in range(8):
            sim.run_beat()
            a2_values.append(root.a2.clock)
        changes = sum(
            1 for a, b in zip(a2_values, a2_values[1:]) if a != b
        )
        assert changes == 3 or changes == 4  # flips every other beat

    def test_expected_constant_latency(self):
        latencies = []
        for seed in range(12):
            sim, monitor = clock4_sim(n=7, f=2, seed=seed)
            sim.scramble()
            sim.run(150)
            beat = monitor.convergence_beat()
            assert beat is not None
            latencies.append(beat)
        assert sum(latencies) / len(latencies) < 40


class TestDomains:
    def test_bottom_propagates_as_none(self):
        sim, _ = clock4_sim(seed=5)
        root = sim.nodes[0].root
        root.a1.clock = None
        root.a2.clock = 1
        sim.run_beat()
        # Whatever happened this beat, the composite stays in domain.
        assert root.clock in (0, 1, 2, 3, None)

    def test_scramble_domain(self):
        import random

        component = SSByz4Clock(lambda: OracleCoin())
        rng = random.Random(0)
        seen = set()
        for _ in range(40):
            component.scramble(rng)
            seen.add(component.clock)
        assert seen <= {0, 1, 2, 3, None}


class TestFourClockValue:
    """Figure 3 line 3 as the pure rule shared with the bulk program."""

    def test_composes_two_bits(self):
        assert [
            four_clock_value(c1, c2) for c2 in (0, 1) for c1 in (0, 1)
        ] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "c1,c2", [(None, 0), (1, None), (None, None), (2, 0), (0, "1")]
    )
    def test_bottom_unless_both_are_bits(self, c1, c2):
        assert four_clock_value(c1, c2) is None
