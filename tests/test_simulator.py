"""Simulation loop semantics: beats, adversary wiring, determinism."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.base import Adversary, NullAdversary
from repro.adversary.strategies import ScriptedAdversary
from repro.errors import ConfigurationError, ResilienceError
from repro.net.component import Component
from repro.net.environment import (
    EVENT_DIVERGENT,
    EVENT_E0,
    EVENT_E1,
    Environment,
    _random_bits,
)
from repro.net.rng import derive_seed
from repro.net.simulator import Simulation
from repro.net.trace import Tracer


class EchoClock(Component):
    """Minimal protocol: broadcast a counter, adopt the max seen."""

    modulus = 1 << 30

    def __init__(self):
        super().__init__()
        self.value = 0

    @property
    def clock_value(self):
        return self.value

    def on_send(self, ctx):
        ctx.broadcast(self.value)

    def on_update(self, ctx):
        values = [e.payload for e in ctx.inbox if isinstance(e.payload, int)]
        self.value = max(values + [self.value]) + 1

    def scramble(self, rng):
        self.value = rng.randrange(1000)


class TestConstruction:
    def test_resilience_enforced(self):
        with pytest.raises(ResilienceError):
            Simulation(3, 1, lambda i: EchoClock())

    def test_adversary_cannot_exceed_f(self):
        class Greedy(Adversary):
            def select_faulty(self, n, f, rng):
                return frozenset(range(f + 1))

        with pytest.raises(ConfigurationError):
            Simulation(4, 1, lambda i: EchoClock(), adversary=Greedy())

    def test_adversary_unknown_ids_rejected(self):
        class Confused(Adversary):
            def select_faulty(self, n, f, rng):
                return frozenset({99})

        with pytest.raises(ConfigurationError):
            Simulation(4, 1, lambda i: EchoClock(), adversary=Confused())

    def test_no_adversary_means_all_honest(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        assert sim.honest_ids == [0, 1, 2, 3]
        assert sim.faulty_ids == frozenset()

    def test_null_adversary_corrupts_nobody(self):
        sim = Simulation(4, 1, lambda i: EchoClock(), adversary=NullAdversary())
        assert len(sim.nodes) == 4

    def test_default_faulty_selection(self):
        sim = Simulation(7, 2, lambda i: EchoClock(), adversary=Adversary())
        assert sim.faulty_ids == frozenset({5, 6})


class TestBeatLoop:
    def test_same_beat_delivery(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        sim.run_beat()
        # Everyone broadcast 0, everyone saw 0, adopted max+1 = 1.
        assert all(node.root.value == 1 for node in sim.nodes.values())

    def test_beat_counter_advances(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        sim.run(5)
        assert sim.beat == 5

    def test_monitors_called_each_beat(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        beats = []
        sim.add_monitor(lambda s, b: beats.append(b))
        sim.run(3)
        assert beats == [0, 1, 2]

    def test_run_until(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        hit = sim.run_until(
            lambda s: all(n.root.value >= 3 for n in s.nodes.values()), 10
        )
        assert hit == 2

    def test_run_until_timeout(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        assert sim.run_until(lambda s: False, 3) is None
        assert sim.beat == 3

    def test_scripted_adversary_messages_delivered(self):
        script = {0: [(3, 0, "root", 500)]}
        sim = Simulation(
            4, 1, lambda i: EchoClock(), adversary=ScriptedAdversary(script)
        )
        sim.run_beat()
        assert sim.nodes[0].root.value == 501  # poisoned by the big value
        assert sim.nodes[1].root.value == 1

    def test_faulty_nodes_have_no_node_objects(self):
        sim = Simulation(4, 1, lambda i: EchoClock(), adversary=Adversary())
        assert set(sim.nodes) == {0, 1, 2}


class TestScrambleValidation:
    """Unknown or faulty node ids in a scramble are configuration errors."""

    def test_unknown_ids_rejected(self):
        sim = Simulation(4, 1, lambda i: EchoClock())
        with pytest.raises(ConfigurationError, match=r"\[99\]"):
            sim.scramble([99])

    def test_faulty_ids_rejected(self):
        sim = Simulation(4, 1, lambda i: EchoClock(), adversary=Adversary())
        (faulty_id,) = sim.faulty_ids
        with pytest.raises(ConfigurationError, match="honest"):
            sim.scramble([faulty_id])

    def test_mixed_subset_rejected_atomically(self):
        """A bad id aborts the whole scramble — no partial fault injection."""
        sim = Simulation(4, 1, lambda i: EchoClock(), seed=5)
        before = {i: node.root.value for i, node in sim.nodes.items()}
        with pytest.raises(ConfigurationError):
            sim.scramble([0, 1, 42])
        after = {i: node.root.value for i, node in sim.nodes.items()}
        assert before == after

    def test_honest_subset_still_scrambles(self):
        sim = Simulation(4, 1, lambda i: EchoClock(), seed=5)
        sim.run(3)
        sim.scramble([0, 2])
        assert sim.beat == 3  # sanity: scramble does not advance beats

    def test_default_scramble_unaffected(self):
        sim = Simulation(4, 1, lambda i: EchoClock(), adversary=Adversary())
        sim.scramble()  # all-correct default never raises


class TestDeterminism:
    def _history(self, seed):
        sim = Simulation(4, 1, lambda i: EchoClock(), seed=seed)
        tracer = Tracer(lambda root: root.value)
        sim.add_monitor(tracer)
        sim.scramble()
        sim.run(6)
        return [record.values for record in tracer.records]

    def test_same_seed_same_run(self):
        assert self._history(42) == self._history(42)

    def test_different_seed_different_run(self):
        assert self._history(42) != self._history(43)


class TestEnvironmentCoins:
    @pytest.mark.parametrize("engine", ["fast", "bulk"])
    def test_a_long_run_keeps_two_beats_of_outcomes(self, engine):
        """An outcome is n bits and 2.5 resolve per beat: kept for the
        life of the run they were most of a long run's memory."""
        from repro.coin.oracle import OracleCoin
        from repro.core.clock_sync import SSByzClockSync

        sim = Simulation(
            7, 2, lambda i: SSByzClockSync(8, lambda: OracleCoin()),
            seed=1, engine=engine,
        )
        sim.scramble()
        sim.run(500)
        kept = {beat for _path, beat in sim.env._outcomes}
        assert kept and kept <= {498, 499}

    def test_begin_beat_forgets_only_what_is_older_than_the_previous_beat(self):
        env = Environment(4, seed=0)
        for beat in (3, 4, 5, 6, 9):  # 6: this beat's; 9: a foresight query
            env.coin_outcome("p", beat, 0.3, 0.3)
        env.begin_beat(6)
        assert env.beat == 6
        assert set(env.resolved_outcomes(99)) == {("p", 5), ("p", 6), ("p", 9)}

    def test_outcome_memoized(self):
        env = Environment(4, seed=0)
        a = env.coin_outcome("p", 3, 0.3, 0.3)
        b = env.coin_outcome("p", 3, 0.3, 0.3)
        assert a is b

    def test_outcome_distribution(self):
        env = Environment(4, seed=1)
        events = [
            env.coin_outcome("p", beat, 0.35, 0.35).event
            for beat in range(600)
        ]
        e0 = events.count(EVENT_E0) / len(events)
        e1 = events.count(EVENT_E1) / len(events)
        div = events.count(EVENT_DIVERGENT) / len(events)
        assert 0.25 < e0 < 0.45
        assert 0.25 < e1 < 0.45
        assert 0.2 < div < 0.4

    def test_agreed_outcomes_common(self):
        env = Environment(5, seed=2)
        for beat in range(50):
            outcome = env.coin_outcome("p", beat, 0.4, 0.4)
            if outcome.agreed:
                assert len(set(outcome.bits.values())) == 1

    def test_divergence_chooser_consulted(self):
        env = Environment(4, seed=3)
        env.divergence_chooser = lambda key, bits: {i: 1 for i in bits}
        for beat in range(200):
            outcome = env.coin_outcome("p", beat, 0.2, 0.2)
            if outcome.event == EVENT_DIVERGENT:
                assert set(outcome.bits.values()) == {1}
                break
        else:
            pytest.fail("no divergent outcome in 200 draws")

    def test_resolved_outcomes_respects_horizon(self):
        env = Environment(4, seed=4)
        env.coin_outcome("p", 5, 0.3, 0.3)
        env.coin_outcome("p", 9, 0.3, 0.3)
        assert set(env.resolved_outcomes(6)) == {("p", 5)}


def _frozen_coin_outcome(env, path, beat, p0, p1):
    """``Environment.coin_outcome`` as written with one ``randrange(2)``
    per node, unmemoized: the oracle the block draw must reproduce."""
    rng = random.Random(derive_seed(env._seed, "coin", path, beat))
    roll = rng.random()
    if roll < p0:
        return EVENT_E0, {i: 0 for i in range(env.n)}
    if roll < p0 + p1:
        return EVENT_E1, {i: 1 for i in range(env.n)}
    bits = {i: rng.randrange(2) for i in range(env.n)}
    if env.divergence_chooser is not None:
        overrides = env.divergence_chooser((path, beat), dict(bits))
        for node_id, bit in overrides.items():
            if node_id in bits and bit in (0, 1):
                bits[node_id] = bit
    return EVENT_DIVERGENT, bits


class _CountingRandom(random.Random):
    """Counts ``getrandbits`` calls: more than one means a refill."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestBlockDrawnBits:
    """A divergent outcome's bits come from ``getrandbits`` blocks; they
    must be, word for word, the bits of one ``randrange(2)`` per node on
    every interpreter the suite runs on."""

    @settings(max_examples=60)
    @given(st.integers(), st.integers(min_value=0, max_value=2048))
    def test_block_draw_is_one_randrange_per_bit(self, seed, count):
        reference = random.Random(seed)
        assert list(_random_bits(random.Random(seed), count)) == [
            reference.randrange(2) for _ in range(count)
        ]

    def test_refilled_blocks_stay_exact(self):
        refilled = 0
        for seed in range(40):
            rng = _CountingRandom(seed)
            bits = _random_bits(rng, 2048)
            reference = random.Random(seed)
            assert list(bits) == [reference.randrange(2) for _ in range(2048)]
            refilled += rng.calls > 1
        assert refilled, "no seed needed a second block"

    @pytest.mark.parametrize("chooser", [False, True])
    @pytest.mark.parametrize("n", [1, 4, 1024])
    def test_outcomes_are_the_frozen_ones(self, n, chooser):
        """Events, bits (values, types, order) and the chooser's
        arguments, key by key, against the frozen per-node draw."""
        asked: dict[str, list] = {"env": [], "frozen": []}

        def recording(log):
            def choose(key, bits):
                log.append((key, list(bits.items())))
                flipped = {i: 1 - bit for i, bit in bits.items() if i % 3 == 0}
                return {**flipped, n: 1, 0: 2, n - 1: True}
            return choose

        env, frozen = Environment(n, seed=11), Environment(n, seed=11)
        if chooser:
            env.divergence_chooser = recording(asked["env"])
            frozen.divergence_chooser = recording(asked["frozen"])
        beats = 30 if n == 1024 else 300
        for beat in range(beats):
            for path, p0, p1 in (("root/coin/slot2", 0.3, 0.3),
                                 ("root/A/A1/coin/slot2", 0.0, 0.0)):
                outcome = env.coin_outcome(path, beat, p0, p1)
                event, bits = _frozen_coin_outcome(frozen, path, beat, p0, p1)
                assert outcome.event == event
                assert [(i, type(b), b) for i, b in outcome.bits.items()] == [
                    (i, type(b), b) for i, b in bits.items()
                ]
        assert asked["env"] == asked["frozen"]
        assert bool(asked["env"]) == chooser
