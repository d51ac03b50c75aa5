"""Adversary framework and strategy behaviour."""

from __future__ import annotations

import random

from repro.adversary.anti_coin import AntiCoinClock2Adversary
from repro.adversary.base import Adversary, AdversaryView, NullAdversary
from repro.adversary.dealer_attack import DealerAttackAdversary
from repro.adversary.payloads import mutate_payload, observed_payloads
from repro.adversary.strategies import (
    CrashAdversary,
    EquivocatorAdversary,
    RandomNoiseAdversary,
    SplitWorldAdversary,
)
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock2 import SSByz2Clock
from repro.core.pipeline import CoinFlipPipeline
from repro.net.environment import Environment
from repro.net.message import Envelope, FanoutView
from repro.net.simulator import Simulation


def make_view(n=4, f=1, faulty=(3,), messages=(), beat=0):
    return AdversaryView(
        beat=beat,
        n=n,
        f=f,
        faulty_ids=frozenset(faulty),
        visible_messages=(
            messages if isinstance(messages, FanoutView) else list(messages)
        ),
        env=Environment(n, seed=0),
        rng=random.Random(1),
    )


class TestView:
    def test_honest_ids(self):
        view = make_view()
        assert view.honest_ids == [0, 1, 2]

    def test_visible_by_path(self):
        messages = [
            Envelope(0, 3, "root", 1, 0),
            Envelope(1, 3, "root/coin", 2, 0),
        ]
        view = make_view(messages=messages)
        assert view.visible_by_path("root") == [messages[0]]
        assert view.visible_by_path("nowhere") == []
        assert view.visible_paths() == {"root", "root/coin"}

    def test_shared_form_view_answers_like_its_list(self):
        """The engines' lazy view and the runtime's plain list give every
        per-path question the same answer."""
        lazy = FanoutView(0, (2, 3))
        lazy.add_broadcast(0, "root", 1)
        lazy.add_envelope(Envelope(0, 3, "root/coin", 7, 0))
        lazy.add_broadcast(1, "root", None)
        views = [
            make_view(f=2, faulty=(2, 3), messages=messages)
            for messages in (lazy, list(lazy))
        ]
        assert views[0].visible_messages is lazy
        assert views[0].honest_ids == views[1].honest_ids == [0, 1]
        for path in ("root", "root/coin", "nowhere"):
            answers = [
                (view.observed_payloads(path), view.visible_by_path(path))
                for view in views
            ]
            assert answers[0] == answers[1]
            assert answers[0][0] == observed_payloads(list(lazy), path)
        assert views[0].observed_payloads("root") == [1, 1, None, None]
        assert views[0].visible_paths() == views[1].visible_paths()

    def test_make_envelope_stamps_beat(self):
        view = make_view(beat=9)
        envelope = view.make_envelope(3, 0, "root", "x")
        assert envelope.beat == 9


class TestMutatePayload:
    def test_none_becomes_bit(self):
        assert mutate_payload(None, random.Random(0)) in (0, 1)

    def test_int_changes(self):
        rng = random.Random(1)
        for value in range(10):
            assert mutate_payload(value, rng) != value

    def test_tuple_keeps_shape(self):
        rng = random.Random(2)
        mutated = mutate_payload(("fc", 5), rng)
        assert isinstance(mutated, tuple) and len(mutated) == 2

    def test_always_hashable(self):
        rng = random.Random(3)
        for payload in (None, 3, ("a", 1), "s", (("x",), 2)):
            hash(mutate_payload(payload, rng))


class TestStrategies:
    def _messages_for(self, adversary, n=4, f=1):
        adversary.setup(n, f, frozenset({3}), random.Random(0))
        view = make_view(
            messages=[Envelope(i, 3, "root", i % 2, 0) for i in range(3)]
        )
        return adversary.craft_messages(view)

    def test_crash_sends_nothing(self):
        assert self._messages_for(CrashAdversary()) == []

    def test_null_adversary_corrupts_nobody(self):
        adversary = NullAdversary()
        assert adversary.select_faulty(7, 2, random.Random(0)) == frozenset()

    def test_default_faulty_selection_highest_ids(self):
        assert Adversary().select_faulty(7, 2, random.Random(0)) == frozenset({5, 6})

    def test_noise_sends_from_faulty_only(self):
        messages = self._messages_for(RandomNoiseAdversary(drop_rate=0.0))
        assert messages, "noise adversary must send"
        assert all(m.sender == 3 for m in messages)

    def test_equivocator_splits_receivers(self):
        messages = self._messages_for(EquivocatorAdversary())
        by_parity = {0: set(), 1: set()}
        for message in messages:
            by_parity[message.receiver % 2].add(message.payload)
        assert by_parity[0] != by_parity[1]

    def test_split_world_divergence_split(self):
        adversary = SplitWorldAdversary()
        adversary.setup(7, 2, frozenset({5, 6}), random.Random(0))
        bits = adversary.choose_divergent_outputs(
            ("p", 0), {i: 0 for i in range(7)}
        )
        assert set(bits.values()) == {0, 1}

    def test_strategies_respect_identity_rule_in_simulation(self):
        """End to end: every strategy's traffic passes router validation."""
        for adversary in (
            CrashAdversary(),
            RandomNoiseAdversary(),
            EquivocatorAdversary(),
            SplitWorldAdversary(),
        ):
            sim = Simulation(
                4,
                1,
                lambda i: SSByz2Clock(OracleCoin()),
                adversary=adversary,
                seed=1,
            )
            sim.run(5)  # must not raise ProtocolViolationError


class TestAntiCoin:
    def test_paths_default(self):
        coin = OracleCoin(rounds=3)
        adversary = AntiCoinClock2Adversary(coin)
        assert adversary.coin_path == "root/coin/slot3"

    def test_pushes_over_threshold(self):
        coin = OracleCoin(p0=0.45, p1=0.45, rounds=1)
        adversary = AntiCoinClock2Adversary(coin)
        adversary.setup(4, 1, frozenset({3}), random.Random(0))
        # 2 honest at value 0 (>= n-2f = 2), one at bottom.
        messages = [Envelope(i, 3, "root", v, 0) for i, v in ((0, 0), (1, 0), (2, None))]
        crafted = adversary.craft_messages(make_view(messages=messages))
        pushed = [m for m in crafted if m.payload == 0]
        assert pushed, "adversary should push the pushable value"
        assert {m.receiver for m in pushed} == {0, 1}  # n - 2f adopters

    def test_foresight_resolves_future_coin(self):
        coin = OracleCoin(p0=0.45, p1=0.45, rounds=1)
        adversary = AntiCoinClock2Adversary(coin, foresight=1)
        adversary.setup(4, 1, frozenset({3}), random.Random(0))
        messages = [Envelope(i, 3, "root", 0, 0) for i in range(3)]
        view = make_view(messages=messages, beat=5)
        adversary.craft_messages(view)
        view.coin_outcomes()
        # The foresight query resolved beat 6's outcome eagerly.
        assert ("root/coin/slot1", 6) in view._env._outcomes


class TestDealerAttack:
    def test_attacks_gvss_rounds_end_to_end(self):
        n, f = 4, 1
        coin = FeldmanMicaliCoin(n, f)
        sim = Simulation(
            n,
            f,
            lambda i: CoinFlipPipeline(coin),
            adversary=DealerAttackAdversary(),
            seed=2,
        )
        sim.run(10)  # must not raise; honest pipeline keeps producing bits
        for node in sim.nodes.values():
            assert node.root.rand in (0, 1)

    def test_attack_degrades_but_does_not_kill_agreement(self):
        n, f = 4, 1
        coin = FeldmanMicaliCoin(n, f)
        sim = Simulation(
            n,
            f,
            lambda i: CoinFlipPipeline(coin),
            adversary=DealerAttackAdversary(),
            seed=3,
        )
        sim.run(coin.rounds)
        agreements = 0
        beats = 30
        for _ in range(beats):
            sim.run_beat()
            if len({node.root.rand for node in sim.nodes.values()}) == 1:
                agreements += 1
        assert agreements / beats > 0.4  # constant probability survives
