"""The mixed-dealing attack: a *documented, intentional* negative result.

These tests pin the boundary between our simplified 4-round GVSS coin and
the full Feldman-Micali construction: the attack must (a) keep inclusion
uniform (our grading guarantees that for n > 3f), (b) nevertheless split
the *recovered value* between correct nodes via recovery-share
equivocation, and therefore (c) destroy the coin's E0/E1 events — while
(d) the oracle coin, which realizes Definition 2.6 by construction, and
hence the paper's theorems, remain untouched.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.adversary.mixed_dealing import MixedDealingAdversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.gvss import GRADE_LOW
from repro.coin.oracle import OracleCoin
from repro.core.clock2 import SSByz2Clock
from repro.core.pipeline import CoinFlipPipeline
from repro.net.simulator import Simulation


def pipeline_run(n, f, beats, seed=5):
    coin = FeldmanMicaliCoin(n, f)
    sim = Simulation(
        n,
        f,
        lambda i: CoinFlipPipeline(coin),
        adversary=MixedDealingAdversary(),
        seed=seed,
    )
    sim.run(coin.rounds)  # flush startup states
    agreements = 0
    for _ in range(beats):
        sim.run_beat()
        bits = {sim.nodes[i].root.rand for i in sim.honest_ids}
        agreements += len(bits) == 1
    return sim, agreements


class TestAttackMechanics:
    """Mechanics on a single coin invocation, replayed in the harness."""

    def _run_single_invocation(self, seed=3):
        import random

        from repro.coin.polynomial import evaluate
        from repro.coin.shamir import SymmetricBivariate, node_point
        from tests.conftest import CoinHarness

        n, f, dealer = 4, 1, 3
        coin = FeldmanMicaliCoin(n, f)
        field = coin.field
        rng = random.Random(99)
        dealing = SymmetricBivariate.random(field, 1, f, rng)
        good_rows = {0, 1}  # n - 2f correct nodes get consistent rows
        aligned = {0}  # half of the correct nodes get honest recovery

        def attack(round_index, visible):
            messages = []
            if round_index == 1:
                for receiver in range(n):
                    if receiver in good_rows or receiver == dealer:
                        row = dealing.row(receiver)
                    else:
                        row = tuple(
                            rng.randrange(field.modulus) for _ in range(f + 1)
                        )
                    messages.append((dealer, receiver, ("row", row)))
            elif round_index == 2:
                row = dealing.row(dealer)
                for receiver in range(n):
                    value = evaluate(field, row, node_point(receiver))
                    messages.append(
                        (dealer, receiver, ("xpt", ((dealer, value),)))
                    )
            elif round_index == 3:
                for receiver in range(n):
                    messages.append((dealer, receiver, ("vote", (dealer,))))
            else:
                true_share = evaluate(field, dealing.row(dealer), 0)
                for receiver in range(n):
                    share = (
                        true_share
                        if receiver in aligned
                        else (true_share + 7) % field.modulus
                    )
                    messages.append(
                        (dealer, receiver, ("rshare", ((dealer, share),)))
                    )
            return messages

        harness = CoinHarness(coin, n, f, faulty=frozenset({dealer}), seed=seed)
        outputs = harness.run(attack)
        states = {i: harness.instances[i].state for i in harness.instances}
        return dealer, outputs, states

    def test_corrupt_dealer_included_everywhere(self):
        """Inclusion stays uniform: the attack wins on value, not grades."""
        dealer, _, states = self._run_single_invocation()
        for state in states.values():
            assert state.grades[dealer] >= GRADE_LOW

    def test_recovered_values_split(self):
        """The aligned correct node recovers the planted secret 1; the
        rest fall back to 0 — the value-divergence channel."""
        dealer, _, states = self._run_single_invocation()
        recovered = {i: s.recovered.get(dealer) for i, s in states.items()}
        assert recovered[0] == 1
        assert set(recovered.values()) == {0, 1}

    def test_outputs_diverge(self):
        _, outputs, _ = self._run_single_invocation()
        assert len(set(outputs.values())) > 1


class TestDefinition26Broken:
    def test_agreement_collapses(self):
        _, agreements = pipeline_run(4, 1, beats=30)
        assert agreements < 10, (
            "the simplified coin unexpectedly resisted the mixed-dealing "
            "attack — if you hardened GVSS, update the mixed_dealing and "
            "gvss docstrings and the coin_quality baselines accordingly"
        )

    def test_oracle_coin_unaffected(self):
        """Definition 2.6 as an ideal functionality shrugs: the adversary
        has no recovery shares to equivocate."""
        coin = OracleCoin(p0=0.4, p1=0.4, rounds=4)
        sim = Simulation(
            4,
            1,
            lambda i: CoinFlipPipeline(coin),
            adversary=MixedDealingAdversary(),
            seed=6,
        )
        sim.run(coin.rounds)
        agreements = 0
        for _ in range(30):
            sim.run_beat()
            bits = {sim.nodes[i].root.rand for i in sim.honest_ids}
            agreements += len(bits) == 1
        assert agreements >= 20  # p0 + p1 = 0.8 of beats agree in expectation


class TestProtocolLevelConsequence:
    def test_clock2_on_oracle_coin_converges_under_attack(self):
        """The paper's theorem holds whenever the coin honours its
        contract: with the oracle coin, ss-Byz-2-Clock converges even
        while the mixed-dealing adversary does its worst elsewhere."""
        sim = Simulation(
            4,
            1,
            lambda i: SSByz2Clock(OracleCoin(p0=0.4, p1=0.4, rounds=3)),
            adversary=MixedDealingAdversary(),
            seed=7,
        )
        monitor = ClockConvergenceMonitor(k=2)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(100)
        assert monitor.convergence_beat() is not None


class TestSeedDeterminesTheRun:
    """With several pipelines starting in one beat (the clock-sync tower
    has three) the adversary opens one dealing per path, each drawing a
    polynomial from its RNG stream: the order it meets the paths in must
    come from the view, never from string hashing."""

    _TRACE = (
        "from repro.analysis.campaign import ScenarioSpec\n"
        "from repro.analysis.experiments import run_trial\n"
        "spec = ScenarioSpec(n=10, f=3, k=8, coin='gvss',\n"
        "                    adversary='mixed-dealing', max_beats=40,\n"
        "                    early_stop=False)\n"
        "print(run_trial(spec, 3, trace=True).to_jsonl())\n"
    )

    def _trace_under(self, hash_seed: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", self._TRACE],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        return proc.stdout

    def test_trace_is_independent_of_the_hash_seed(self):
        # Hash seeds 0 and 2 order the three pipeline paths differently.
        trace = self._trace_under("0")
        assert trace.count("\n") >= 40
        assert trace == self._trace_under("2")
