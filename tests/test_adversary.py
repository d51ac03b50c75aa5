"""Adversary framework and strategy behaviour."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.adversary.adaptive import AdaptiveEchoAdversary
from repro.adversary.anti_coin import AntiCoinClock2Adversary
from repro.adversary.base import Adversary, AdversaryView, NullAdversary
from repro.adversary.bisector import BisectorAdversary
from repro.adversary.dealer_attack import DealerAttackAdversary
from repro.adversary.mixed_dealing import MixedDealingAdversary
from repro.adversary.payloads import mutate_payload, observed_payloads
from repro.adversary.strategies import (
    CrashAdversary,
    EquivocatorAdversary,
    RandomNoiseAdversary,
    SplitWorldAdversary,
)
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock2 import SSByz2Clock
from repro.core.clock_sync import SSByzClockSync
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

    def test_junk_everywhere_when_nothing_is_pushable(self):
        adversary = AntiCoinClock2Adversary(OracleCoin(rounds=1))
        adversary.setup(4, 1, frozenset({3}), random.Random(0))
        crafted = adversary.craft_messages(make_view(messages=[]))
        assert list(crafted) == [
            Envelope(3, receiver, "root", ("noise", 3), 0)
            for receiver in range(4)
        ]

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


def _oracle():
    return OracleCoin(p0=0.4, p1=0.4, rounds=2)


#: name -> (n, f, root factory, adversary factory, enforce_resilience).
#: The seven registered strategies attack the full tower at n=7 (the
#: GVSS attacks over the GVSS coin, which is the traffic they answer);
#: the two 2-clock attacks run on their 2-clock root, the bisector also
#: at n = 3f, the only place its two-sided stall branch is reachable.
def _tower(coin_factory):
    return lambda i: SSByzClockSync(6, coin_factory)


def _gvss():
    return FeldmanMicaliCoin(7, 2)


_PIN_CASES = {
    "adaptive": (7, 2, _tower(_oracle), AdaptiveEchoAdversary, True),
    "crash": (7, 2, _tower(_oracle), CrashAdversary, True),
    "noise": (7, 2, _tower(_oracle), RandomNoiseAdversary, True),
    "equivocator": (7, 2, _tower(_oracle), EquivocatorAdversary, True),
    "split-world": (7, 2, _tower(_oracle), SplitWorldAdversary, True),
    "dealer-attack": (7, 2, _tower(_gvss), DealerAttackAdversary, True),
    "mixed-dealing": (7, 2, _tower(_gvss), MixedDealingAdversary, True),
    "anti-coin": (
        7, 2, lambda i: SSByz2Clock(_oracle()),
        lambda: AntiCoinClock2Adversary(_oracle()), True,
    ),
    "bisector": (
        7, 2, lambda i: SSByz2Clock(_oracle()),
        lambda: BisectorAdversary(_oracle()), True,
    ),
    "bisector-at-3f": (
        6, 2, lambda i: SSByz2Clock(_oracle()),
        lambda: BisectorAdversary(_oracle()), False,
    ),
}


def _strategy_digest(name, seed, engine="reference"):
    n, f, root_factory, adversary_factory, enforce = _PIN_CASES[name]
    adversary = adversary_factory()
    craft = adversary.craft_messages
    crafted = []
    # The traffic itself, copy by copy (dead letters included): payloads
    # by repr, so ``True`` is not ``1``.
    adversary.craft_messages = lambda view: crafted.append(
        list(craft(view))
    ) or crafted[-1]
    sim = Simulation(
        n, f, root_factory, adversary=adversary, seed=seed, engine=engine,
        enforce_resilience=enforce,
    )
    monitor = ClockConvergenceMonitor(6)
    sim.add_monitor(monitor)
    sim.scramble()
    sim.run(30)
    stats = sim.stats
    observed = (
        crafted,
        monitor.history,
        stats.as_dict(),
        sorted(stats.per_beat.items()),
        sorted(stats.per_path_prefix.items()),
        sim.adversary_rng.random(),
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


class TestStrategyPins:
    """What each strategy sends, pinned: payloads, order and adversary
    RNG consumption, as the reference engine delivers them.  The
    differential suites cannot see a strategy change its traffic — every
    engine would agree on the new traffic — so the digests below were
    computed at the commit before the strategies were rewritten into
    shared form (rows instead of one envelope per receiver)."""

    PINS = {
        "adaptive": [
            "accc99de0d3549c386b4dedacd09cf2711867b79d6549a29a79376cb45c8bd04",
            "250eec1d4cf95b27a94c2fb612b66b85cbc52169ca698c1abcd9cba45d4921f4",
            "692c88406c72b4cde9d773057cff9b42257db872cf740e1a1463d1b39bbfb743",
        ],
        "anti-coin": [
            "7fa6afa45bb57b3cf9260c0560be3295e267594df310db4edb6ac51739172a00",
            "8646161d8fd41fab49f66a668059606890cb5c8491c2a5778db12cb63dc6866a",
            "7bbe21ba49f0bf7ba084aa85f93bfcd4183ff9fba39e4493bea929b27e7cc704",
        ],
        "bisector": [
            "93ced60cf7ddefa14d46edc7a5506730607c2c8abf3d36564ff0f360734b3197",
            "8ed7599802a59faf2caacf19d3640cc062dedea433b39297202eb18377312a41",
            "4219945ddb48d14e228089a1df2b0e416366c5bf8698b5d8ec0623df41c1b76e",
        ],
        "bisector-at-3f": [
            "6658308fec451183277a6e5e2aaf8c6db0a754d93c0aefbeab00d805485223ad",
            "a9bbe126e5202d3239249f311314d3ec525115153f605117e4361e680328237b",
            "768b67ab188fb63d75aba15772849309067b3404b9e6c8f8b10e7b3408ed4681",
        ],
        "crash": [
            "60254cb26e65c7964f26d5bd426f7fdb4a1aeb2b47778d9fdb947e968529d818",
            "d6d3ba7be1267aabb8dfda870b1caa23a840beb5ed66237223ab127c38cc074b",
            "628322e4f20281f9e40d0b732e6a502dcc87e3a07d39e90e67303054332bd488",
        ],
        "dealer-attack": [
            "c454015bb6ef628fec766c837f72c2ed705836d04b662440fb527544df1e587e",
            "0093247d827de217333830d2d03ec41bca1e2f62e90cf4e5c82b12a67f6d103f",
            "95882fdba98ee441d95510199796feb7d3fb221de6316d18395db4425488b8d5",
        ],
        "equivocator": [
            "9760e6458dd9415d208e84666753d677fc87165c909cbd5aa19de79703ec072b",
            "813aee4f6f8b789b2009dcaa123bb9be323720d4314aa227d4d8b7624ba48ab0",
            "3c8b4b7b04751d6411af78c61f769b3a889918e9b67ec23b8a12e990766677e6",
        ],
        "mixed-dealing": [
            "5d70ab92ded3cf6c70c68572357c4f9f830d7b49595e05137d77f392652d3188",
            "5f368feaf20b631d8a332f6fb5d92b788db4d9c47b918898be88efece438ad1d",
            "bd514d056065219ad8f84a992d7e7faaf8864c0b423f49d87c8d7947979db59f",
        ],
        "noise": [
            "9cd9dd5b555706e67c660ea95e930ff1db0fc7303cc76a71e87fad464a493d72",
            "6992bbe48b289aad3650f388b3a145f7eef66e41428675071a62732e8fb053d9",
            "3080b8512f16915ccff9ff731ea0612f742a47b37d03a6e323879d5f185fd2f8",
        ],
        "split-world": [
            "0c79feb2093a36347ade587d9eb23a7f3f72db50246b9254170f94ab442d6cee",
            "c1b8acfa0db1def8fcb028f557834de97ac5b770e261d09731bc8944ee8ccedd",
            "48733fa9bd8a1a52ddb123e415b92952c23d5776c7e05320a63b5ce9e1f3c0fe",
        ],
    }

    @pytest.mark.parametrize("name", sorted(_PIN_CASES))
    def test_traffic_is_the_pinned_traffic(self, name):
        assert [
            _strategy_digest(name, seed) for seed in range(3)
        ] == self.PINS[name]
