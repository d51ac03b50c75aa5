"""What each correct node is *handed*, pinned before the message plane
was rewritten.

Every other differential in the suite compares what nodes compute; this
one records ``Node.update_phase``'s ``delivered`` argument itself —
``(beat, node, path, [(sender, repr(payload)), ...])`` for every
non-empty inbox, plus the run's traffic statistics — and pins one sha256
per scenario, computed at the parent commit (``9557579``).  The ``fast``
engine's digest must also equal the ``reference`` engine's, so a pin
that moves names the engine that moved it.  ``repr`` and not ``==``:
``1``, ``True`` and ``1.0`` are one dict key and three payloads.

Beside each ``fast`` digest sits a count: the distinct non-empty inbox
*objects* handed out, summed over (beat, path).  Receivers of one class
read one object (the protocol tower counts an inbox once per object), so
a class key that stops sharing moves the count while every digest holds.
The counts of the linked scenarios were lowered, digests untouched, when
a record a link model holds copies of stopped being expanded per copy.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

import repro.net.engine as engine_module
from repro.adversary.strategies import ScriptedAdversary
from repro.analysis.campaign import ADVERSARY_REGISTRY, ScenarioSpec
from repro.net.events import ContinuousSimulation, TimingLinks
from repro.net.linkmodel import LossyLinks, make_link
from repro.net.message import Envelope
from repro.net.network import MessageStats
from repro.net.node import Node
from repro.net.plane import BeatTraffic
from repro.net.simulator import Simulation

K = 8
N, F, BEATS = 13, 4, 12

LINKS = {
    "perfect": ("perfect", {}),
    "lossy": ("lossy", {"loss": 0.1}),
    "delay": ("delay", {"max_delay": 2}),
    # Perfect before beat 3 and from beat 8 on: the engine changes sides
    # twice, the second time with nothing in flight.
    "partition": ("partition", {"split": 3, "heal": 8}),
    "mobility": ("mobility", {}),
}

ADVERSARIES = sorted(name for name, cls in ADVERSARY_REGISTRY.items() if cls)


class _Handed:
    """Records what every ``update_phase`` call is handed."""

    def __init__(self, monkeypatch):
        self.lines: list[str] = []
        self.objects = 0
        self._seen: dict[tuple[int, str], set[int]] = {}
        self._alive: list = []  # ids are only comparable among the living
        update_phase = Node.update_phase

        def recorded(node, beat, delivered):
            for path in sorted(delivered):
                inbox = delivered[path]
                if not inbox:
                    continue
                self.lines.append(repr((
                    beat, node.node_id, path,
                    [(e.sender, repr(e.payload)) for e in inbox],
                )))
                seen = self._seen.setdefault((beat, path), set())
                if id(inbox) not in seen:
                    seen.add(id(inbox))
                    self._alive.append(inbox)
                    self.objects += 1
            return update_phase(node, beat, delivered)

        monkeypatch.setattr(Node, "update_phase", recorded)

    def digest(self, stats) -> str:
        observed = (
            sorted(self.lines),
            stats.as_dict(),
            sorted(stats.per_beat.items()),
            sorted(stats.dropped_per_beat.items()),
        )
        return hashlib.sha256(repr(observed).encode()).hexdigest()


def _script(n, faulty, beats):
    """Every shape of crafted record at once, each beat: one mapping
    shared by two senders whose payloads are ``1`` / ``True`` / ``1.0``
    twins; a row naming only some receivers; a row on a path nobody
    broadcasts on; strays from a sender that also has a row on the path,
    before and after it; dead letters to a faulty id and to no node."""
    a, b, c, d = sorted(faulty)[:4]
    twins = {r: (1, True, 1.0)[r % 3] for r in range(n)}
    some = {r: ("fc", r % 2) for r in range(0, n, 2)}
    invented = {r: "x" if r < 5 else "y" for r in range(n)}
    return {
        beat: [
            (a, 3, "root", "before-the-row"),
            (a, None, "root", twins),
            (b, None, "root", twins),
            (c, None, "root/A/A1", some),
            (d, None, "made/up", invented),
            (a, 3, "root", "after-the-row"),
            (a, 5, "root/A", ("fc", beat % 4)),
            (b, c, "root", "dead letter"),
            (d, n + 2, "root", "nobody"),
            (d, 0, "root/A/A1", None),
        ]
        for beat in range(beats)
    }


def _instance(adversary, n, f, beats):
    if adversary == "scripted":
        return ScriptedAdversary(_script(n, range(n - f, n), beats))
    return ScenarioSpec(n=n, f=f, k=K, adversary=adversary).build_adversary()


def _fast_run(monkeypatch, engine, *, n=N, f=F, adversary="none",
              link="perfect", coin="oracle", share_coin=False, churn=None,
              phantoms=None, beats=BEATS, seed=3):
    spec = ScenarioSpec(n=n, f=f, k=K, coin=coin, share_coin=share_coin)
    with monkeypatch.context() as patch:
        handed = _Handed(patch)
        sim = Simulation(
            n, f, spec.root_factory(), seed=seed, engine=engine,
            adversary=_instance(adversary, n, f, beats),
            link=make_link(*LINKS[link]), churn=churn,
        )
        sim.scramble()
        for beat in range(beats):
            if phantoms is not None:
                sim.inject_phantoms(phantoms(beat))
            sim.run_beat()
    return handed.digest(sim.stats), handed.objects


def _blanket_phantoms(beat):
    """Phantoms claiming *honest* senders, one to every receiver: they
    sort after that sender's real message of the beat."""
    if beat % 3:
        return []
    return [
        Envelope(sender, receiver, path, ("phantom", beat), beat - 1)
        for sender in (0, 2) for path in ("root", "root/A/A1")
        for receiver in range(N)
    ]


def _private_phantoms(beat):
    """...and to one receiver each, a different one per sender."""
    return [
        Envelope(sender, (sender + beat) % N, "root", ("fc", sender % 4), beat)
        for sender in (1, 1, 5, 12)
    ]


#: scenario -> keyword arguments of :func:`_fast_run`.
FAST = {
    **{
        f"{adversary}-{link}": dict(adversary=adversary, link=link)
        for adversary in ADVERSARIES + ["scripted"] for link in LINKS
    },
    "phantoms-blanket": dict(phantoms=_blanket_phantoms),
    "phantoms-blanket-delay": dict(
        phantoms=_blanket_phantoms, link="delay", adversary="equivocator"
    ),
    "phantoms-private": dict(
        phantoms=_private_phantoms, adversary="equivocator"
    ),
    "phantoms-private-lossy": dict(phantoms=_private_phantoms, link="lossy"),
    **{
        f"churn-{link}": dict(
            link=link, adversary="equivocator",
            churn=((2, "crash", (1, 4)), (7, "recover", (1,))),
        )
        for link in ("perfect", "lossy", "delay")
    },
    "gvss": dict(n=7, f=2, coin="gvss", beats=10),
    "gvss-equivocator-lossy": dict(
        n=7, f=2, coin="gvss", adversary="equivocator", link="lossy", beats=10
    ),
    "gvss-mixed-dealing": dict(
        n=7, f=2, coin="gvss", adversary="mixed-dealing", beats=10
    ),
    "share-coin": dict(share_coin=True, adversary="split-world"),
    "share-coin-delay": dict(share_coin=True, link="delay"),
}

#: scenario -> (digest, distinct inbox objects handed out by ``fast``).
FAST_PINS: dict[str, tuple[str, int]] = {
    "adaptive-delay": (
        "3b8866f0fb4771b6c38c4319af568604e84918c2750a29a8d8fd0b50446919af",
        241,
    ),
    "adaptive-lossy": (
        "7776e181ed7dedfc7e7c992dde1632803950d886a9262b78a57e6f0c8efeaaae",
        165,
    ),
    "adaptive-mobility": (
        "a60dac77b7710811ccb07f8031c98a67ef71d1817bb65bcbd1a3a34d2c3a18b5",
        166,
    ),
    "adaptive-partition": (
        "124dcd231b46947b0004fb4ce9c31e23a4f3358ba69236412e0c106e8c9bbd18",
        48,
    ),
    "adaptive-perfect": (
        "330eddcb08273ba6bcc9cb95ea14b809f6c1d004b6860ea793d38bdc2381d01e",
        57,
    ),
    "churn-delay": (
        "14711de2ddae72eab09574e74c4337712403671d2399947234ed1a61ceee009b",
        209,
    ),
    "churn-lossy": (
        "f307b0498140583d8781bceaa36886c0b386e06579346c3ebd291950ff4c4788",
        140,
    ),
    "churn-perfect": (
        "94abe9b0a1ceb3ec44b6c3a20ff72267c3f42c31b6ab8bf343a9677bacef5da4",
        46,
    ),
    "crash-delay": (
        "964048c287abf46654548b1a5bfdd8e2f782f5a25d0e597fd2db207aa3050404",
        161,
    ),
    "crash-lossy": (
        "75ce54f65273e30a444351b357ad8573482475a3f5a94cf3269816e723fede6b",
        89,
    ),
    "crash-mobility": (
        "5d780dd6e31e6a4ff02f441a8b1b0e5fac092be95192dfa30e770f3bbf14022b",
        109,
    ),
    "crash-partition": (
        "4825ef6599eac5bd6370d9f08733347bf3f4cfff7d80d370c51ddc2f914b8b33",
        25,
    ),
    "crash-perfect": (
        "2a8614ba264d6657a9651bdc631fc800b0a33ec56101d846b90dda0354356733",
        26,
    ),
    "dealer-attack-delay": (
        "964048c287abf46654548b1a5bfdd8e2f782f5a25d0e597fd2db207aa3050404",
        161,
    ),
    "dealer-attack-lossy": (
        "75ce54f65273e30a444351b357ad8573482475a3f5a94cf3269816e723fede6b",
        89,
    ),
    "dealer-attack-mobility": (
        "5d780dd6e31e6a4ff02f441a8b1b0e5fac092be95192dfa30e770f3bbf14022b",
        109,
    ),
    "dealer-attack-partition": (
        "4825ef6599eac5bd6370d9f08733347bf3f4cfff7d80d370c51ddc2f914b8b33",
        25,
    ),
    "dealer-attack-perfect": (
        "2a8614ba264d6657a9651bdc631fc800b0a33ec56101d846b90dda0354356733",
        26,
    ),
    "equivocator-delay": (
        "c80eded3b7dd43d7ef45c2f62817ede639a86e9d138e07f21668940611fac295",
        212,
    ),
    "equivocator-lossy": (
        "e6146914165d206007bda6914339fbf2fb6b2941c0e0e5e12e17d9c3db2edbbc",
        188,
    ),
    "equivocator-mobility": (
        "b80f6c070247f6341b03b3fff040c59ab4f820589fbe469065d60deb5970ab87",
        184,
    ),
    "equivocator-partition": (
        "0bd610b9b99103d54c62766e63d17f0c67a8ea2519276b4627f3240012374dcc",
        49,
    ),
    "equivocator-perfect": (
        "425c268e62d6c12f6f3cbe52a7ff959b4838af5cb0139d33f0b3307a52992a90",
        54,
    ),
    "gvss": (
        "6bd7b5261003f404a441b1a76c39c68dc002151364275a1e5a58886082cb87a0",
        198,
    ),
    "gvss-equivocator-lossy": (
        "f4c472d3cf014dc6126c1808f7d469cabee0dd51e3f727870b550707723dd434",
        203,
    ),
    "gvss-mixed-dealing": (
        "a9f6b4accb7f421b7c39668a40f6b1828cdce098e5e2d2b50e9022bddcea256d",
        172,
    ),
    "mixed-dealing-delay": (
        "964048c287abf46654548b1a5bfdd8e2f782f5a25d0e597fd2db207aa3050404",
        161,
    ),
    "mixed-dealing-lossy": (
        "75ce54f65273e30a444351b357ad8573482475a3f5a94cf3269816e723fede6b",
        89,
    ),
    "mixed-dealing-mobility": (
        "5d780dd6e31e6a4ff02f441a8b1b0e5fac092be95192dfa30e770f3bbf14022b",
        109,
    ),
    "mixed-dealing-partition": (
        "4825ef6599eac5bd6370d9f08733347bf3f4cfff7d80d370c51ddc2f914b8b33",
        25,
    ),
    "mixed-dealing-perfect": (
        "2a8614ba264d6657a9651bdc631fc800b0a33ec56101d846b90dda0354356733",
        26,
    ),
    "noise-delay": (
        "3c627a15c702be2020dd56d094c84da8f7ce85b1226f8596940a0117894d8797",
        222,
    ),
    "noise-lossy": (
        "a84779c1fed182e4993c3d0ecd2ab553fb657b018d3fc014032f09a42ec4f559",
        223,
    ),
    "noise-mobility": (
        "1ba6b3a30be6633cd8ccacc4e061f9c7d602550e295859b412a346cc4770b6c3",
        178,
    ),
    "noise-partition": (
        "596cce85b3681d693456fbbfcfc79e9a92390a87d42eb16b18fe65e6db6a3f1f",
        130,
    ),
    "noise-perfect": (
        "26b5b67a6057a88f7dccafeeafad3f4b896b2fd88e48e963d7c35c5f07355a12",
        240,
    ),
    "phantoms-blanket": (
        "d809c581840a6fb157d85494efdef8ff499b0d04b2d7da50748b482bcffc357d",
        123,
    ),
    "phantoms-blanket-delay": (
        "3d2ffb73369d2733b0b9a0f622964f3f9b55f7eaf6f44299f1dc6cb3253ea83d",
        241,
    ),
    "phantoms-private": (
        "baa012d3a180aa8ae1172b14b3ccfdf097cbdea8b89e50da643f380cd051e703",
        79,
    ),
    "phantoms-private-lossy": (
        "f2524acf0cfda06f1ad7104f9053a8ae889ad9e0c10b260d513780baddc83106",
        250,
    ),
    "scripted-delay": (
        "49d90894351b0ed7dab23d9b44bcb9cdab7ddf48c3fe95e723f43d1c2bff5269",
        300,
    ),
    "scripted-lossy": (
        "91ee1e69aa00aabf39e8092967e1cbefcc8c1a6e6d378eae3647bd7a2494f3e4",
        204,
    ),
    "scripted-mobility": (
        "f556c37456e76d44d2ebd8e46f3d706773fd641847ad45cdf0cdaa95776e9db8",
        231,
    ),
    "scripted-partition": (
        "c5ba234871e317fb55f325e854c48b44882b7d95a5b0e64bdfdaba638d2ecb32",
        137,
    ),
    "scripted-perfect": (
        "b30ad5f28f5c68450b26d2bbfb03cadfb5dcf261491a5493dbf7e25fd446c6f6",
        162,
    ),
    "share-coin": (
        "b99cdf8dc5384fe7a5b1902deb37f8f9d915dbaeccb6f60b332b500acaa1061b",
        56,
    ),
    "share-coin-delay": (
        "aa61bbcca071884abdb08001285cba02342daed906d8b31a322e2e6e12f50001",
        349,
    ),
    "split-world-delay": (
        "213eb78d10b57175938c87fe09f668f6ab9a9438812e7623925b82d4cea43070",
        260,
    ),
    "split-world-lossy": (
        "54246cae1cd5a14c12b1e8719842e8209c4415017551bb46a8495c6682ab0888",
        175,
    ),
    "split-world-mobility": (
        "3d13113eedf9ec886247645cfb365494c812b776aaa0bb5679e33a8759a99d6c",
        186,
    ),
    "split-world-partition": (
        "5ae7d781074c42b69251e6160f7829c6b90f4b7ff8e9737a4cdbc57d3d90df5b",
        42,
    ),
    "split-world-perfect": (
        "e0c2dd98ef7d587b239f2923071dd6b5a35ab5327206f856b2312658c292e573",
        58,
    ),
}


@pytest.mark.parametrize("scenario", sorted(FAST))
def test_fast_hands_out_what_it_did_and_what_the_reference_does(
    scenario, monkeypatch
):
    digest, objects = _fast_run(monkeypatch, "fast", **FAST[scenario])
    assert (digest, objects) == FAST_PINS[scenario]
    reference, _ = _fast_run(monkeypatch, "reference", **FAST[scenario])
    assert reference == digest


# -- linked beats in shared form ---------------------------------------------

#: What ``classify`` is asked on the guard's run below, recorded while
#: every copy was still expanded and dispatched on its own: (calls,
#: sha256 over ``repr([(sender, receiver, beat, ruling), ...])``).
LINKED_CALLS = (
    4740, "8da4c7473a3f6ef4d5575dea985ec4ebac8958850ca23120e5338fa67d3e2cca"
)
#: ...and the copies it dropped, out of 5056 sent.
LINKED_DROPPED = 100


class TestLinkedBeatsShareForm:
    """A lossy beat classifies every copy but builds only the ones the
    link holds, and what still arrives stays shared: n=16, f=5,
    fault-free (every node correct), ``lossy(p=0.02)``, ``fast``, ten
    beats from a scramble.  Faulty receivers and crafted records are the
    last case's, under a scripted adversary."""

    @pytest.fixture
    def run(self, monkeypatch):
        seen = SimpleNamespace(built=0, calls=[], lost={}, handed=[], beats={})
        envelope = engine_module.Envelope

        def counted(*fields):
            seen.built += 1
            return envelope(*fields)

        class Recorded(BeatTraffic):
            def __init__(self, beat):
                super().__init__(beat)
                seen.beats[beat] = self

        classify = LossyLinks.classify

        def asked(link, sender, receiver, beat, seq):
            ruling = classify(link, sender, receiver, beat, seq)
            seen.calls.append((sender, receiver, beat, ruling))
            return ruling

        record_dropped = MessageStats.record_dropped

        def dropped(stats, copy):
            seen.lost.setdefault((copy.beat, copy.path), {}).setdefault(
                copy.receiver, []
            ).append(copy.sender)
            record_dropped(stats, copy)

        update_phase = Node.update_phase

        def handed(node, beat, delivered):
            seen.handed.append((beat, node.node_id, delivered))
            return update_phase(node, beat, delivered)

        monkeypatch.setattr(engine_module, "Envelope", counted)
        monkeypatch.setattr(engine_module, "BeatTraffic", Recorded)
        monkeypatch.setattr(LossyLinks, "classify", asked)
        monkeypatch.setattr(MessageStats, "record_dropped", dropped)
        monkeypatch.setattr(Node, "update_phase", handed)
        seen.sim = Simulation(
            16, 5, ScenarioSpec(n=16, f=5, k=K).root_factory(), seed=0,
            engine="fast",
            link=make_link("lossy", {"loss": 0.02}),
        )
        seen.sim.scramble()
        for _ in range(10):
            seen.sim.run_beat()
        return seen

    def test_builds_only_the_copies_it_holds(self, run):
        stats = run.sim.stats
        assert run.built == stats.dropped_messages + stats.delayed_messages
        assert run.built == LINKED_DROPPED
        assert stats.total_messages == 5056

    def test_classify_is_asked_what_it_was(self, run):
        calls = run.calls
        digest = hashlib.sha256(repr(calls).encode()).hexdigest()
        assert (len(calls), digest) == LINKED_CALLS
        assert all(s != r for s, r, _, _ in calls)  # loopback is perfect

    def test_equal_losses_share_and_no_loss_is_the_lane(self, run):
        """On a path nobody lost a copy on, every receiver reads the lane
        object itself; where copies were lost, receivers who lost the same
        ones read one object — the full inbox less exactly those — and
        receivers who lost different ones read different objects."""
        clean = lossy = 0
        by_cell: dict = {}
        for beat, node, delivered in run.handed:
            for path, inbox in delivered.items():
                lost = run.lost.get((beat, path), {})
                if not lost:
                    clean += 1
                    assert inbox is run.beats[beat].lanes[path]
                    continue
                lossy += 1
                assert inbox is not run.beats[beat].lanes.get(path)
                senders = tuple(lost.get(node, ()))
                by_cell.setdefault((beat, path), {}).setdefault(
                    senders, []
                ).append(inbox)
        assert clean and lossy
        for classes in by_cell.values():
            objects = {key: {id(i) for i in inboxes}
                       for key, inboxes in classes.items()}
            assert all(len(ids) == 1 for ids in objects.values())
            assert len(set().union(*objects.values())) == len(objects)
            full = classes.get(())
            if full is None:
                continue
            for senders, (inbox, *_) in classes.items():
                expected = [e.sender for e in full[0]]
                for sender in senders:
                    expected.remove(sender)
                assert [e.sender for e in inbox] == expected

    def test_crafted_records_keep_their_order_under_a_link(self, monkeypatch):
        """One sender's stray, its row, its stray again, behind another
        sender's row: the order the reference engine delivers under
        ``lossy(p=0.3)``, where every record loses some copies."""
        a, b = N - 1, N - 2
        script = {
            beat: [
                (b, None, "root", {r: ("b", r % 2) for r in range(N)}),
                (a, 3, "root", "before"),
                (a, None, "root", {r: ("a", beat) for r in range(N)}),
                (a, 3, "root", "after"),
                (a, 4, "root/A", "aside"),
            ]
            for beat in range(BEATS)
        }
        digests = []
        for engine in ("fast", "reference"):
            with monkeypatch.context() as patch:
                handed = _Handed(patch)
                sim = Simulation(
                    N, F, ScenarioSpec(n=N, f=F, k=K).root_factory(),
                    seed=3, engine=engine,
                    adversary=ScriptedAdversary(script),
                    link=make_link("lossy", {"loss": 0.3}),
                )
                sim.scramble()
                sim.run(BEATS)
            digests.append(handed.digest(sim.stats))
            assert sim.stats.dropped_messages
        assert digests[0] == digests[1]


# -- the event engine --------------------------------------------------------

#: The ledger's ``ev-drift`` shape: 0.6 of a period spent on skew by the
#: end of the horizon.
EV_N, EV_F, EV_BEATS = 16, 5, 40


def _event_run(monkeypatch, *, adversary, rho, delay_bounds, n=EV_N, f=EV_F,
               beats=EV_BEATS, seed=0, engine=None):
    """(handed digest, late copies) of one continuous run — or, with
    ``engine``, of its ``TimingLinks`` run on that lock-step engine
    directly."""
    spec = ScenarioSpec(n=n, f=f, k=K)
    build = dict(seed=seed, adversary=_instance(adversary, n, f, beats))
    with monkeypatch.context() as patch:
        handed = _Handed(patch)
        if engine is None:
            sim = ContinuousSimulation(
                n, f, spec.root_factory(), rho=rho, delay_bounds=delay_bounds,
                **build,
            )
            links = sim.links
        else:
            links = TimingLinks(rho, delay_bounds)
            sim = Simulation(
                n, f, spec.root_factory(), engine=engine, link=links, **build
            )
        sim.scramble()
        sim.run(beats)
    late = sum(s.late_messages for s in links.synchronizers.values())
    return handed.digest(sim.stats), late


_DRIFT = 0.3 / EV_BEATS

EVENTS = {
    **{
        f"lockstep-{adversary}": dict(
            adversary=adversary, rho=0.0, delay_bounds=(0.0, 0.0), n=N, f=F,
            beats=BEATS, seed=3,
        )
        for adversary in ("none", "equivocator", "scripted")
    },
    **{
        f"drift-{lo}-{hi}-{adversary}": dict(
            adversary=adversary, rho=_DRIFT, delay_bounds=(lo, hi)
        )
        for lo, hi in ((0.05, 0.3), (0.3, 1.2))
        for adversary in ("none", "equivocator", "split-world", "noise",
                          "scripted")
    },
    # Skew large enough that the adversary instant misses the lane's edge
    # while honest pulses still make it.
    "skewed-equivocator": dict(
        adversary="equivocator", rho=0.02, delay_bounds=(0.0, 0.1), n=7, f=2,
    ),
    "skewed-scripted": dict(
        adversary="scripted", rho=0.02, delay_bounds=(0.0, 0.1), n=13, f=4,
    ),
}

#: scenario -> (digest, late messages).
EVENT_PINS: dict[str, tuple[str, int]] = {
    "drift-0.05-0.3-equivocator": (
        "021771aa1f2566ff9c57371ef523f40e38933b233bf43c7ad7e1d6c3efd54f4b",
        0,
    ),
    "drift-0.05-0.3-noise": (
        "6fe787c9ebc5c67f593e488e5b6d2f65b9c1bfed8ede3e13bafddb3eb5f174ef",
        0,
    ),
    "drift-0.05-0.3-none": (
        "959ead5b25fa10f5dd3010794d3e35d62ad3d69729d3bdbc64f9533dd70e032b",
        0,
    ),
    "drift-0.05-0.3-scripted": (
        "552d224f5cf2f3f62a159160ff7a53947b5150a7c93229746af337977461ce34",
        0,
    ),
    "drift-0.05-0.3-split-world": (
        "0fe90d3fca45ee1eed8ccfb9a019d2e868427966b52ebef65109820489915add",
        0,
    ),
    "drift-0.3-1.2-equivocator": (
        "0e31d8296dd00243595af33f7e78f6dbe599df916da4701c3d2770d83ed4e587",
        2790,
    ),
    "drift-0.3-1.2-noise": (
        "565908fa211b31b1b6c208f59a789106adb601a4599e4ab8260311448e444ab5",
        2189,
    ),
    "drift-0.3-1.2-none": (
        "01b0b258360aa20dce864a4331b1c929ef6dd08813b9a29d7546b931fefd5377",
        3350,
    ),
    "drift-0.3-1.2-scripted": (
        "379ee3fa0331e73d7598a41b9c0dfaafb8ef7f8c8cd9c2ac2283b87118349609",
        1832,
    ),
    "drift-0.3-1.2-split-world": (
        "353ea3616ab3ca87c55929c9f2f3ce7d8b7bb865307a2624ecfd69f4be44153e",
        3022,
    ),
    "lockstep-equivocator": (
        "425c268e62d6c12f6f3cbe52a7ff959b4838af5cb0139d33f0b3307a52992a90",
        0,
    ),
    "lockstep-none": (
        "b769715ed021f0ea961a9c05baf6b4bdcfa3ace743c7841d7d799b10412ed2e7",
        0,
    ),
    "lockstep-scripted": (
        "b30ad5f28f5c68450b26d2bbfb03cadfb5dcf261491a5493dbf7e25fd446c6f6",
        0,
    ),
    "skewed-equivocator": (
        "88af4f51026779b6f59f9acd9ccc74f1626d878caa6f7426b11b5ad95abcbed0",
        229,
    ),
    "skewed-scripted": (
        "626307973a70cd14c709e2b208605fe29205b43f24dd9aad19acfc4965041c35",
        383,
    ),
}


@pytest.mark.parametrize("scenario", sorted(EVENTS))
def test_the_event_engine_hands_out_what_it_did(scenario, monkeypatch):
    assert _event_run(monkeypatch, **EVENTS[scenario]) == EVENT_PINS[scenario]


@pytest.mark.parametrize("scenario", [
    "skewed-equivocator", "skewed-scripted", "drift-0.3-1.2-scripted",
])
def test_timing_links_hand_out_the_same_on_the_reference_engine(
    scenario, monkeypatch
):
    """``TimingLinks`` is a link model like any other: on the reference
    engine, every copy expanded and decided on its own, it hands out the
    pinned inboxes and late counts too — crafted copies of a beat the
    adversary instant cannot certify included."""
    assert _event_run(monkeypatch, engine="reference", **EVENTS[scenario]) == (
        EVENT_PINS[scenario]
    )


@pytest.mark.parametrize("adversary", ["none", "equivocator", "scripted"])
def test_lockstep_events_hand_out_what_the_reference_does(
    adversary, monkeypatch
):
    """At zero drift and zero delay the handed inboxes are the lock-step
    engines', in content and in order."""
    digest, late = _event_run(monkeypatch, **EVENTS[f"lockstep-{adversary}"])
    reference, _ = _fast_run(
        monkeypatch, "reference", adversary=adversary, beats=BEATS, seed=3
    )
    assert (digest, late) == (reference, 0)
