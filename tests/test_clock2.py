"""ss-Byz-2-Clock (Fig. 2): Lemmas 2-5 and Theorem 2 as executable tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary.anti_coin import AntiCoinClock2Adversary
from repro.adversary.strategies import (
    CrashAdversary,
    EquivocatorAdversary,
    RandomNoiseAdversary,
    ScriptedAdversary,
    SplitWorldAdversary,
)
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.coin.local import LocalCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock2 import SSByz2Clock, two_clock_step
from repro.core.majority import BOTTOM
from repro.net.simulator import Simulation

COIN = OracleCoin(p0=0.35, p1=0.35, rounds=3)


def clock2_sim(n=4, f=1, adversary=None, seed=0, coin=None):
    algorithm = coin or COIN
    sim = Simulation(
        n, f, lambda i: SSByz2Clock(algorithm), adversary=adversary, seed=seed
    )
    monitor = ClockConvergenceMonitor(k=2)
    sim.add_monitor(monitor)
    return sim, monitor


def set_clocks(sim, values):
    for node_id, value in zip(sim.honest_ids, values):
        sim.nodes[node_id].root.clock = value


class TestLemma2:
    """If all correct clocks equal v at a beat's start, they all equal
    1 - v at its end — under any adversary."""

    @pytest.mark.parametrize("v", [0, 1])
    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: None,
            CrashAdversary,
            RandomNoiseAdversary,
            EquivocatorAdversary,
            SplitWorldAdversary,
        ],
    )
    def test_synched_state_flips(self, v, adversary_factory):
        sim, _ = clock2_sim(n=7, f=2, adversary=adversary_factory(), seed=3)
        set_clocks(sim, [v] * len(sim.honest_ids))
        sim.run_beat()
        assert all(node.root.clock == 1 - v for node in sim.nodes.values())

    def test_closure_holds_forever(self):
        sim, _ = clock2_sim(n=4, f=1, adversary=EquivocatorAdversary(), seed=4)
        set_clocks(sim, [0] * 3)
        expected = 0
        for _ in range(30):
            sim.run_beat()
            expected = 1 - expected
            assert {n.root.clock for n in sim.nodes.values()} == {expected}


class TestLemma3:
    """After a safe beat, correct clocks lie in {v, ⊥} for a single v."""

    def test_post_beat_values_within_v_bottom(self):
        # With p0 + p1 = 1, every beat is safe once the pipeline flushed.
        always_safe = OracleCoin(p0=0.5, p1=0.5, rounds=2)
        sim, _ = clock2_sim(
            n=7, f=2, adversary=SplitWorldAdversary(), seed=5, coin=always_safe
        )
        sim.scramble()
        sim.run(always_safe.rounds)  # coin flush
        for _ in range(20):
            sim.run_beat()
            non_bottom = {
                n.root.clock
                for n in sim.nodes.values()
                if n.root.clock is not BOTTOM
            }
            assert len(non_bottom) <= 1


class TestLemma5AndTheorem2:
    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: None,
            CrashAdversary,
            RandomNoiseAdversary,
            EquivocatorAdversary,
            SplitWorldAdversary,
        ],
    )
    def test_converges_from_scramble(self, adversary_factory):
        sim, monitor = clock2_sim(n=7, f=2, adversary=adversary_factory(), seed=6)
        sim.scramble()
        sim.run(80)
        beat = monitor.convergence_beat()
        assert beat is not None, "2-clock did not converge in 80 beats"

    def test_expected_constant_latency(self):
        """Theorem 2: expected convergence is a small constant — across
        seeds the mean must stay far below anything n-dependent."""
        latencies = []
        for seed in range(20):
            sim, monitor = clock2_sim(n=7, f=2, seed=seed)
            sim.scramble()
            sim.run(100)
            beat = monitor.convergence_beat()
            assert beat is not None
            latencies.append(beat)
        assert sum(latencies) / len(latencies) < 15

    def test_anti_coin_adversary_delays_but_loses(self):
        """The strongest model-legal attack (rushing + current-beat coin)
        still yields expected-constant convergence (Lemma 4)."""
        latencies = []
        for seed in range(12):
            adversary = AntiCoinClock2Adversary(COIN)
            sim, monitor = clock2_sim(n=7, f=2, adversary=adversary, seed=seed)
            sim.scramble()
            sim.run(150)
            beat = monitor.convergence_beat()
            assert beat is not None, f"seed {seed}: attack stalled convergence"
            latencies.append(beat)
        assert sum(latencies) / len(latencies) < 40

    def test_geometric_tail(self):
        """Theorem 2's discussion: P(not converged by beat b) drops
        exponentially; the latency histogram must be front-loaded."""
        latencies = []
        for seed in range(40):
            sim, monitor = clock2_sim(n=4, f=1, seed=seed)
            sim.scramble()
            sim.run(60)
            beat = monitor.convergence_beat()
            assert beat is not None
            latencies.append(beat)
        early = sum(1 for b in latencies if b <= 10)
        late = sum(1 for b in latencies if b > 30)
        assert early > len(latencies) * 0.5
        assert late < len(latencies) * 0.1


class TestSelfStabilization:
    @given(st.lists(st.sampled_from([0, 1, None]), min_size=5, max_size=5))
    def test_converges_from_arbitrary_clock_state(self, start):
        sim, monitor = clock2_sim(n=7, f=2, seed=11)
        set_clocks(sim, start + [0, 0][: 5 - len(start)])
        sim.run(80)
        assert monitor.convergence_beat() is not None

    def test_reconverges_after_midrun_scramble(self):
        sim, monitor = clock2_sim(n=4, f=1, seed=12)
        sim.scramble()
        sim.run(40)
        assert monitor.convergence_beat() is not None
        sim.scramble()
        sim.run(60)
        assert monitor.convergence_beat(from_beat=40) is not None


class TestLocalCoinAblation:
    def test_local_coin_slower_than_common_coin(self):
        """Replacing the common coin with private coins reproduces the
        exponential-flavour slowdown of the pre-common-coin algorithms."""
        common, local = [], []
        for seed in range(10):
            sim, monitor = clock2_sim(n=10, f=3, seed=seed)
            sim.scramble()
            sim.run(150)
            beat = monitor.convergence_beat()
            if beat is not None:
                common.append(beat)

            sim, monitor = clock2_sim(n=10, f=3, seed=seed, coin=LocalCoin())
            sim.scramble()
            sim.run(150)
            beat = monitor.convergence_beat()
            local.append(beat if beat is not None else 150)
        assert common, "common-coin runs must converge"
        assert sum(common) / len(common) < sum(local) / len(local)


class TestRobustness:
    def test_byzantine_junk_values_never_adopted(self):
        script = {
            beat: [(3, r, "root", 7) for r in range(4)] for beat in range(20)
        }
        sim, _ = clock2_sim(n=4, f=1, adversary=ScriptedAdversary(script), seed=13)
        sim.run(20)
        for node in sim.nodes.values():
            assert node.root.clock in (0, 1, BOTTOM)

    def test_clock_value_property(self):
        sim, _ = clock2_sim()
        node = sim.nodes[0]
        assert node.root.clock_value == node.root.clock
        assert node.root.modulus == 2

    def test_scramble_domain(self):
        import random

        component = SSByz2Clock(COIN)
        rng = random.Random(5)
        seen = set()
        for _ in range(30):
            component.scramble(rng)
            seen.add(component.clock)
        assert seen <= {0, 1, BOTTOM}
        assert len(seen) == 3


class TestTwoClockStep:
    """Figure 2 lines 3-6 as the pure rule the component and the bulk
    program both call, at n=4, f=1 (threshold n - f = 3)."""

    @pytest.mark.parametrize(
        "payloads,rand,expected",
        [
            ([0, 0, 0, 1], 0, 1),  # exactly n - f zeros: adopt 1 - maj
            ([1, 1, 1, 0], 0, 0),
            ([0, 0, 1, 1], 0, BOTTOM),  # n - f - 1 each: no quorum
            ([BOTTOM, 0, 0, 1], 0, 1),  # line 3: ⊥ reads as rand ...
            ([BOTTOM, 0, 0, 1], 1, BOTTOM),  # ... whichever way it fell
            ([BOTTOM] * 4, 1, 0),  # a ⊥ majority is a rand majority
            ([], 0, BOTTOM),
        ],
    )
    def test_honest_shapes(self, payloads, rand, expected):
        assert two_clock_step(payloads, rand, 3) == expected

    @pytest.mark.parametrize(
        "payloads",
        [
            [7, 7, 7, 0],  # a junk quorum never leaves the domain
            [(0,), (0, 0), 0, 0],  # tuples are not bits
            [[0], {0: 0}, 0, 0],  # unhashable junk is not counted
            ["0", "0", "0", 0],
        ],
    )
    def test_byzantine_junk_falls_to_bottom(self, payloads):
        assert two_clock_step(payloads, 0, 3) is BOTTOM

    @pytest.mark.parametrize("one,zero", [(True, False), (1.0, 0.0)])
    def test_an_alias_of_a_bit_cannot_leave_the_domain(self, one, zero):
        """``True`` and ``1.0`` tally as ``1`` and, arriving first, name
        the winner: the new clock is still the int."""
        clock = two_clock_step([one, 1, 1, 0], 0, 3)
        assert clock == 0 and type(clock) is int
        clock = two_clock_step([zero, 0, 0, 1], 0, 3)
        assert clock == 1 and type(clock) is int

    def test_unhashable_junk_does_not_hide_a_quorum(self):
        assert two_clock_step([[1], 1, 1, 1], 0, 3) == 0

    def test_reads_any_iterable_once(self):
        inbox = {0: 1, 1: 1, 2: BOTTOM, 3: 0}
        assert two_clock_step(inbox.values(), 1, 3) == 0
        assert two_clock_step(iter(inbox.values()), 1, 3) == 0
