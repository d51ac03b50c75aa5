"""The protocol tower in shared form: pins taken before the rewrite.

The tower binds its contexts once and counts each inbox *object* once
(``net/component.py``, ``net/node.py``, ``core/pipeline.py``,
``core/majority.py``); every check it made per call it still makes.  What
keeps that honest is a **full-state differential** — after every beat, at
every node, the ``repr`` of every attribute of every component of the
tower (and every pipeline slot's state) is equal between the reference
engine, which hands out plain per-receiver lists and therefore never
shares, and every path that does: ``fast``, the bulk engine's per-node
fallback, the event engine at zero drift and delay, and the live runtime
over local queues — and one by-hand case per
:class:`~repro.errors.ProtocolViolationError` the framework raises, with
its message.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    EquivocatorAdversary,
    RandomNoiseAdversary,
    ScriptedAdversary,
)
from repro.analysis.campaign import ADVERSARY_REGISTRY
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.interfaces import CoinAlgorithm
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.core.protocol import PROTOCOLS, resolve_protocol
from repro.errors import ProtocolViolationError
from repro.faults.network_faults import inject_phantom_storm
from repro.net.component import Component
from repro.net.environment import Environment
from repro.net.events import run_continuous
from repro.net.linkmodel import make_link
from repro.net.message import Envelope
from repro.net.node import Node
from repro.net.simulator import Simulation
from repro.net.trace import Tracer
from repro.runtime import run_runtime

N, F, K, BEATS = 13, 4, 6, 24
ADVERSARIES = sorted(name for name, cls in ADVERSARY_REGISTRY.items() if cls)

#: Activation bookkeeping is the framework's, not the protocol's state.
_FRAMEWORK = ("_children", "_activated", "_updated")


def _plain(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(_plain(item) for item in value)
    return value is None or isinstance(value, (bool, int, float, str, bytes))


def _state(value) -> object:
    """``value`` as plain data: objects opened up attribute by attribute,
    so that two towers are compared on everything they hold."""
    if isinstance(value, (Component, CoinAlgorithm)):
        return type(value).__name__  # walked on its own / stateless
    if _plain(value):
        return repr(value)  # ``True`` is not ``1``: only the repr tells
    if isinstance(value, dict):
        return {repr(key): _state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [type(value).__name__, [_state(item) for item in value]]
    if hasattr(value, "__dict__"):
        return [type(value).__name__, _state(vars(value))]
    return repr(value)


def tower_state(root: Component) -> str:
    """Every attribute of every component of one tower, as one string."""
    state = repr([
        (type(component).__name__, name, _state(value))
        for component in root.walk()
        for name, value in sorted(vars(component).items())
        if name not in _FRAMEWORK
    ])
    assert " at 0x" not in state, "an address leaked into the snapshot"
    return state


class Tower(SSByzClockSync):
    """Not a registered bulk root: ``engine="bulk"`` runs it per node."""


def _coin(p: float = 0.4):
    return lambda: OracleCoin(p0=p, p1=p, rounds=2)


def _tower(coin=None, **kwargs):
    return lambda i: Tower(K, coin or _coin(), **kwargs)


def _lockstep(engine, factory, adversary, seed, *, n=N, f=F, beats=BEATS,
              link="perfect", churn=None, between=None):
    """Per-beat tower states of one scrambled lock-step run; ``between``
    maps a beat to what happens to the simulation just before it (and is
    snapshot too: a transient fault must land where it was aimed)."""
    sim = Simulation(
        n, f, factory, adversary=adversary and adversary(), seed=seed,
        engine=engine, link=link() if callable(link) else link, churn=churn,
    )
    assert engine != "bulk" or not sim.engine.vectorized
    tracer = Tracer(tower_state)
    sim.add_monitor(tracer)
    sim.scramble()
    for beat in range(beats):
        if between and beat in between:
            between[beat](sim)
            tracer(sim, -beat)
        sim.run_beat()
    return tracer.records, sim.stats.total_messages


def _every_lockstep_engine(factory, adversary, seed, **kwargs):
    reference = _lockstep("reference", factory, adversary, seed, **kwargs)
    for engine in ("fast", "bulk"):
        assert _lockstep(engine, factory, adversary, seed, **kwargs) == reference
    return reference[0]


class TestFullStateDifferential:
    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_every_registered_adversary_on_every_path(self, name):
        adversary = ADVERSARY_REGISTRY[name]
        for seed in (0, 5):
            records = tuple(_every_lockstep_engine(_tower(), adversary, seed))
            timed = run_continuous(
                N, F, _tower(), adversary=adversary(), seed=seed, beats=BEATS,
                rho=0.0, delay_bounds=(0.0, 0.0), probe=tower_state,
            )
            assert timed.records == records
            live = run_runtime(
                N, F, _tower(), adversary=adversary(), seed=seed, beats=BEATS,
                transport="local", codec="binary", probe=tower_state,
            )
            assert live.late_messages == 0 and live.barrier_timeouts == 0
            assert live.records == records

    @pytest.mark.parametrize("name", ["none", "equivocator"])
    def test_receivers_of_one_inbox_with_different_rand(self, name):
        """A divergent coin hands the nodes that share an inbox different
        ``rand``: an answer computed for one is not the other's."""
        records = _every_lockstep_engine(
            _tower(_coin(0.3)), ADVERSARY_REGISTRY[name], seed=3
        )
        coins = [
            {state.split("'rand', ")[1][:3] for state in record.values.values()}
            for record in records
        ]
        assert max(map(len, coins)) > 1, "no two nodes ever held different coins"

    def test_shared_coin_variant(self):
        for name in ("none", "equivocator", "split-world"):
            _every_lockstep_engine(
                _tower(share_coin=True), ADVERSARY_REGISTRY[name], seed=1
            )

    @pytest.mark.parametrize("link, params", [
        ("lossy", {"loss": 0.1}), ("delay", {"max_delay": 2}),
        ("partition", {"split": 5, "heal": 9}),
    ])
    def test_links_that_make_inboxes_diverge(self, link, params):
        for name in ("none", "equivocator"):
            _every_lockstep_engine(
                _tower(), ADVERSARY_REGISTRY[name], seed=2,
                link=lambda: make_link(link, params),
            )

    def test_phantoms_claiming_honest_senders(self):
        """A storm lands on some receivers only: for one beat their
        delivered dict is their own, then the shared one again."""

        def storm(sim):
            inject_phantom_storm(
                sim, ["root", "root/A/A1", "root/A/A2", "bogus/path"], count=80
            )

        def forged(sim):
            sim.inject_phantoms([
                Envelope(sender, receiver, path, payload, sim.beat)
                for sender in (0, 1, 12)
                for receiver in (2, 3, 5)
                for path, payload in (
                    ("root", ("bit", 1)), ("root/A/A1", 1), ("root/A/A2", None),
                )
            ])

        for name in ("none", "equivocator"):
            _every_lockstep_engine(
                _tower(), ADVERSARY_REGISTRY[name], seed=4,
                between={5: storm, 6: forged, 11: forged, 14: storm},
            )

    def test_mid_run_scramble_of_one_node(self):
        """...whose ``_previous`` a whole class of receivers may hold:
        the fault must strike the one node it was aimed at."""
        between = {
            beat: (lambda sim, beat=beat: sim.scramble([beat % 9]))
            for beat in range(4, 20)
        }
        for name in ("none", "equivocator"):
            _every_lockstep_engine(
                _tower(), ADVERSARY_REGISTRY[name], seed=6, between=between
            )

    def test_churn_recovery(self):
        churn = [
            (3, "crash", (1, 4)), (8, "recover", (1,)), (9, "crash", (0,)),
            (13, "recover", (0, 4)),
        ]
        for name in ("none", "equivocator"):
            _every_lockstep_engine(
                _tower(), ADVERSARY_REGISTRY[name], seed=7, churn=churn
            )

    def test_payloads_that_are_equal_but_not_the_same(self):
        """``True == 1``: two classes of receivers hold inboxes that
        compare equal and are not — each node's ``_previous`` must show
        the payload *it* was handed."""
        honest = range(N - F)
        script = {
            beat: [
                (9, None, "root", {
                    r: ("fc", True) if r % 2 else ("fc", 1) for r in honest
                }),
                (10, None, "root/A/A1", {
                    r: bool(r % 2) if r % 3 else 1 for r in honest
                }),
                (11, None, "root", dict.fromkeys(honest, ("bit", 1.0))),
                (12, 3, "root", ("bit", True)),
            ]
            for beat in range(0, BEATS, 2)
        }
        records = _every_lockstep_engine(
            _tower(), lambda: ScriptedAdversary(script), seed=8
        )
        assert any("('fc', True)" in state for state in records[0].values.values())
        assert any("('fc', 1)" in state for state in records[0].values.values())

    @pytest.mark.parametrize("name", ["none", "mixed-dealing", "dealer-attack"])
    def test_message_passing_coin(self, name):
        """GVSS: every slot context sends, and private rounds make every
        pipeline inbox per-receiver."""
        factory = lambda i: Tower(K, lambda: FeldmanMicaliCoin(7, 2))
        adversary = ADVERSARY_REGISTRY[name]
        reference = _lockstep("reference", factory, adversary, 1, n=7, f=2, beats=12)
        assert _lockstep("fast", factory, adversary, 1, n=7, f=2, beats=12) == reference
        live = run_runtime(
            7, 2, factory, adversary=adversary and adversary(), seed=1, beats=12,
            transport="local", codec="binary", probe=tower_state,
        )
        assert live.records == tuple(reference[0])

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_every_registered_protocol(self, name):
        """The other hosts of instance contexts (one agreement per path,
        bit-parallel lanes) and the towers that host none."""
        protocol = resolve_protocol(name)
        factory = protocol.factory(
            7, 2, 8, coin_factory=lambda: OracleCoin(rounds=2)
        )
        beats = 3 * (protocol.convergence_bound(7, 2, 8) or 16) // 2
        for adversary in (None, ADVERSARY_REGISTRY["equivocator"]):
            reference = _lockstep(
                "reference", factory, adversary, 2, n=7, f=2, beats=beats
            )
            assert reference == _lockstep(
                "fast", factory, adversary, 2, n=7, f=2, beats=beats
            )


# -- the framework's checks, one by hand each ---------------------------------


class Leaf(Component):
    def __init__(self):
        super().__init__()
        self.ran = []

    def on_send(self, ctx):
        self.ran.append(("send", ctx.beat))

    def on_update(self, ctx):
        self.ran.append(("update", ctx.beat))


class Switch(Component):
    """Runs the children named in ``send`` / ``update``, which a test
    rewires between phases."""

    def __init__(self, **children):
        super().__init__()
        for name, child in children.items():
            self.add_child(name, child)
        self.send = self.update = tuple(children)
        self.late = None

    def on_send(self, ctx):
        for name in self.send:
            ctx.run_child(name)

    def on_update(self, ctx):
        for name in self.update:
            ctx.run_child(name)
        if self.late is not None:
            self.late(ctx)


def _node(root):
    return Node(0, 4, 1, root, random.Random(0), Environment(4, seed=0))


def _beat(node, beat):
    node.send_phase(beat)
    node.update_phase(beat, {})


class TestEveryCheckKept:
    def test_unknown_child(self):
        node = _node(Switch(a=Leaf()))
        node.root.send = ("a", "ghost")
        with pytest.raises(
            ProtocolViolationError,
            match=r"^component 'root' has no child named 'ghost'$",
        ):
            node.send_phase(0)
        inner = _node(Switch(mid=Switch(a=Leaf())))
        inner.root.child("mid").update = ("nobody",)
        inner.send_phase(0)
        with pytest.raises(
            ProtocolViolationError,
            match=r"^component 'root/mid' has no child named 'nobody'$",
        ):
            inner.update_phase(0, {})

    def test_updated_without_being_activated(self):
        node = _node(Switch(a=Leaf(), b=Leaf()))
        _beat(node, 0)
        node.root.send = ("a",)
        node.send_phase(1)
        with pytest.raises(
            ProtocolViolationError,
            match=r"^child 'b' of 'root' was updated without being "
                  r"activated in the send phase$",
        ):
            node.update_phase(1, {})

    def test_never_sent_at_all(self):
        node = _node(Switch(a=Leaf()))
        with pytest.raises(ProtocolViolationError, match="without being activated"):
            node.update_phase(0, {})

    def test_the_same_beat_number_twice_does_not_inherit_activation(self):
        """A host may drive one beat number twice (a restart; a test by
        hand): what the first pass activated the second did not."""
        node = _node(Switch(mid=Switch(a=Leaf(), b=Leaf())))
        _beat(node, 0)
        node.root.child("mid").send = ("a",)
        node.send_phase(0)
        with pytest.raises(
            ProtocolViolationError,
            match=r"^child 'b' of 'root/mid' was updated without",
        ):
            node.update_phase(0, {})
        # ...and a clean second pass over the same number is legal.
        node.root.child("mid").send = ("a", "b")
        _beat(node, 0)
        _beat(node, 0)
        assert node.root.child("mid").child("b").ran[-2:] == [
            ("send", 0), ("update", 0)
        ]

    def test_activated_and_not_updated_raises_at_that_beat(self):
        node = _node(Switch(a=Leaf(), b=Leaf(), c=Leaf()))
        _beat(node, 0)
        node.send_phase(1)
        node.root.update = ("b",)
        with pytest.raises(
            ProtocolViolationError,
            match=r"^children \['a', 'c'\] were activated in the send "
                  r"phase but not driven through the update phase$",
        ):
            node.update_phase(1, {})
        # The next beat starts clean: nothing is owed from beat 1.
        node.root.send = node.root.update = ("b",)
        _beat(node, 2)

    def test_a_grandchild_left_behind_is_named(self):
        node = _node(Switch(mid=Switch(a=Leaf(), b=Leaf())))
        _beat(node, 0)
        node.send_phase(1)
        node.root.child("mid").update = ("a",)
        with pytest.raises(
            ProtocolViolationError, match=r"^children \['b'\] were activated"
        ):
            node.update_phase(1, {})
        # A whole subtree left behind is reported at its root.
        node.root.child("mid").update = ("a", "b")
        node.send_phase(2)
        node.root.update = ()
        with pytest.raises(
            ProtocolViolationError, match=r"^children \['mid'\] were activated"
        ):
            node.update_phase(2, {})

    def test_a_child_skipped_for_a_beat_owes_nothing(self):
        """ss-Byz-4-Clock's A2 runs every other beat."""
        node = _node(Switch(a=Leaf(), b=Leaf()))
        for beat in range(6):
            node.root.send = node.root.update = ("a", "b") if beat % 2 else ("a",)
            _beat(node, beat)
        assert [beat for _, beat in node.root.child("b").ran] == [1, 1, 3, 3, 5, 5]

    @pytest.mark.parametrize("how, message", [
        (lambda ctx: ctx.broadcast("x"), "broadcast is only legal in the send phase"),
        (lambda ctx: ctx.send(1, "x"), "send is only legal in the send phase"),
    ])
    def test_sending_outside_the_send_phase(self, how, message):
        for depth, root in enumerate((Switch(), Switch(mid=Switch()))):
            node = _node(root)
            (root.child("mid") if depth else root).late = how
            _beat_sent = node.send_phase(0)
            assert _beat_sent == []
            with pytest.raises(ProtocolViolationError, match=f"^{message}$"):
                node.update_phase(0, {})

    def test_messages_and_inboxes_follow_the_path(self):
        class Talker(Leaf):
            def on_send(self, ctx):
                ctx.broadcast(("hi", ctx.beat))
                ctx.send(2, "you")

            def on_update(self, ctx):
                self.ran.append([e.payload for e in ctx.inbox])

        node = _node(Switch(mid=Switch(t=Talker())))
        for beat in (0, 1):
            sent = node.send_phase(beat)
            assert {e.path for e in sent} == {"root/mid/t"}
            assert [e.payload for e in sent] == [("hi", beat)] * 4 + ["you"]
            assert {e.beat for e in sent} == {beat}
            # A fresh delivered dict per beat, as the reference engine
            # and the live runtime hand out.
            node.update_phase(beat, {
                "root/mid/t": [Envelope(1, 0, "root/mid/t", beat, beat)],
                "root/mid": [Envelope(1, 0, "root/mid", "not mine", beat)],
            })
        assert node.root.child("mid").child("t").ran == [[0], [1]]


# -- cost as counts: contexts follow components, tallies follow inbox objects --


def _plain_collapse(inbox) -> dict:
    collapsed: dict = {}
    for envelope in inbox:
        collapsed.setdefault(envelope.sender, envelope.payload)
    return collapsed


class TestCostFollowsDistinctInboxes:
    """Counts repeat exactly where timings do not (n=16, f=5, ``fast``,
    24 beats from a scramble).  Before the tower took shared form every
    node rebuilt 12 beat contexts and 15 instance contexts per beat and
    counted every inbox itself: 192, 240 and ~32 per beat fault-free."""

    NODE_CONTEXTS = 7       # root (built with the node), A, A1, A2, 3 pipelines
    SLOT_CONTEXTS = 3 * 2   # three pipelines of two slots

    @staticmethod
    def _run(adversary, monkeypatch, coin=(0.35, 0.35), beats=24):
        """Per beat: beat contexts built, instance contexts built,
        ``count_values`` calls, rule applications asked for, and the
        inboxes handed to ``first_payload_per_sender`` (the objects)."""
        from collections import Counter

        from repro.coin.interfaces import InstanceContext
        from repro.core import clock2, clock_sync, majority
        from repro.net.component import BeatContext

        sim = Simulation(
            16, 5,
            lambda i: SSByzClockSync(
                6, lambda: OracleCoin(p0=coin[0], p1=coin[1], rounds=2)
            ),
            adversary=adversary, seed=2, engine="fast",
        )
        counts = {name: Counter() for name in (
            "beat_contexts", "instance_contexts", "tallies", "asked",
        )}
        read: dict[int, list] = {}

        def counting(name, original):
            def counted(*args, **kwargs):
                counts[name][sim.beat] += 1
                return original(*args, **kwargs)
            return counted

        def reading(original):
            def read_inbox(inbox):
                read.setdefault(sim.beat, []).append(inbox)
                return original(inbox)
            return read_inbox

        with monkeypatch.context() as patch:
            for owner in (BeatContext, InstanceContext):
                name = "beat_contexts" if owner is BeatContext else "instance_contexts"
                patch.setattr(owner, "__init__", counting(name, owner.__init__))
            tally = counting("tallies", majority.count_values)
            for module in (majority, clock2, clock_sync):
                patch.setattr(module, "count_values", tally)
            for module in (clock2, clock_sync):
                patch.setattr(
                    module, "first_payload_per_sender",
                    reading(majority.first_payload_per_sender),
                )
            # Each of these asks for exactly one ``count_values`` tally.
            patch.setattr(clock2, "two_clock_step",
                          counting("asked", clock2.two_clock_step))
            patch.setattr(clock_sync, "phase1_proposal",
                          counting("asked", clock_sync.phase1_proposal))
            patch.setattr(clock_sync, "phase2_bit_and_save",
                          counting("asked", clock_sync.phase2_bit_and_save))
            sim.scramble()
            sim.run(beats)
        distinct = {
            beat: len({id(inbox) for inbox in inboxes})
            for beat, inboxes in read.items()
        }
        return sim, counts, distinct

    @pytest.mark.parametrize("name", ["none", "equivocator"])
    def test_contexts_are_built_once(self, name, monkeypatch):
        adversary = ADVERSARY_REGISTRY[name]
        sim, counts, _ = self._run(adversary and adversary(), monkeypatch)
        nodes = len(sim.nodes)
        assert sum(counts["beat_contexts"].values()) == nodes * (self.NODE_CONTEXTS - 1)
        assert sum(counts["instance_contexts"].values()) == nodes * self.SLOT_CONTEXTS
        # Nothing after each node's first full cycle (A2 runs when A1
        # first reads 1), which the scramble delays by a few beats.
        late = [beat for kind in ("beat_contexts", "instance_contexts")
                for beat, built in counts[kind].items() if built and beat >= 8]
        assert late == []

    def test_an_agreeing_coin_costs_one_tally_per_inbox_object(self, monkeypatch):
        """p0 + p1 = 1: every receiver of an inbox holds the same
        ``rand``, so the 2-clock's tally is one per object — at most two
        per path per beat under the equivocator, whatever n."""
        _, counts, distinct = self._run(
            EquivocatorAdversary(), monkeypatch, coin=(0.5, 0.5)
        )
        for beat in range(1, 24):
            # Root tallies (blocks 3.b, 3.c) are over last beat's inbox.
            assert counts["tallies"][beat] <= distinct[beat] + distinct[beat - 1]
            assert counts["tallies"][beat] <= 2 * 3
        assert max(counts["tallies"].values()) >= 2  # the probe counts

    @pytest.mark.parametrize("name", ["none", "equivocator", "split-world"])
    def test_a_divergent_coin_costs_at_most_two(self, name, monkeypatch):
        adversary = ADVERSARY_REGISTRY[name]
        _, counts, distinct = self._run(adversary and adversary(), monkeypatch)
        for beat in range(1, 24):
            assert counts["tallies"][beat] <= 2 * distinct[beat] + distinct[beat - 1]
        # Fault-free and past the scramble (whose ``_previous`` are each
        # node's own, as is an empty root inbox), every node is handed
        # the one shared list per path: two coins on each 2-clock's, one
        # block of Figure 4 on the root's.
        if name == "none":
            assert max(counts["tallies"][beat] for beat in range(8, 24)) <= 2 * 2 + 1

    def test_noise_shares_nothing_and_costs_what_it_did(self, monkeypatch):
        """The control: a fresh payload per copy leaves (nearly — CPython's
        small ints are one object each) every receiver with an inbox of
        its own, and every node counts its own, as before."""
        _, counts, _ = self._run(RandomNoiseAdversary(), monkeypatch)
        asked = sum(counts["asked"].values())
        assert 0.95 * asked <= sum(counts["tallies"].values()) <= asked

    def test_a_finished_run_is_freed_by_reference_count(self):
        """No cycle through a context: with the collector off, dropping
        the simulation frees every component of every tower."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            for factory, beats in (
                (lambda i: SSByzClockSync(6, _coin()), 12),
                (resolve_protocol("phase-king").factory(7, 2, 8), 8),
                (lambda i: SSByzClockSync(6, lambda: FeldmanMicaliCoin(7, 2)), 6),
            ):
                sim = Simulation(
                    7, 2, factory, adversary=EquivocatorAdversary(), seed=0
                )
                sim.scramble()
                sim.run(beats)
                alive = [
                    weakref.ref(component)
                    for node in sim.nodes.values()
                    for component in node.root.walk()
                ]
                assert alive
                del sim
                assert not [ref for ref in alive if ref() is not None]
        finally:
            gc.enable()


class TestAnswersLiveOnTheObject:
    """The memo's three rules: on the delivered object, keyed by
    identity, emptied with the buffer."""

    INBOX = [
        Envelope(0, -1, "p", 1, 0), Envelope(1, -1, "p", 1, 0),
        Envelope(1, -1, "p", 0, 0), Envelope(2, -1, "p", None, 0),
        Envelope(3, -1, "p", 0, 0),
    ]

    def test_an_inbox_is_collapsed_once_and_a_list_every_time(self):
        from repro.core.majority import first_payload_per_sender
        from repro.net.message import Inbox

        inbox = Inbox(self.INBOX)
        mapping = first_payload_per_sender(inbox)
        assert first_payload_per_sender(inbox) is mapping
        assert mapping == {0: 1, 1: 1, 2: None, 3: 0}
        assert repr(mapping) == "{0: 1, 1: 1, 2: None, 3: 0}"
        assert list(mapping) == [0, 1, 2, 3]
        plain = first_payload_per_sender(list(self.INBOX))
        assert plain == mapping and plain is not mapping
        assert first_payload_per_sender(self.INBOX) is not plain

    def test_equal_inboxes_are_not_the_same_inbox(self):
        from repro.core.majority import first_payload_per_sender
        from repro.net.message import Inbox

        ones = Inbox([Envelope(0, -1, "p", ("fc", 1), 0)])
        trues = Inbox([Envelope(0, -1, "p", ("fc", True), 0)])
        assert ones == trues
        assert repr(first_payload_per_sender(ones)) == "{0: ('fc', 1)}"
        assert repr(first_payload_per_sender(trues)) == "{0: ('fc', True)}"

    def test_clearing_the_buffer_forgets_what_was_read_off_it(self):
        from repro.core.majority import first_payload_per_sender
        from repro.net.message import Inbox

        inbox = Inbox(self.INBOX)
        before = first_payload_per_sender(inbox)
        inbox.clear()
        inbox.append(Envelope(2, -1, "p", 1, 1))
        assert first_payload_per_sender(inbox) == {2: 1}
        assert before == {0: 1, 1: 1, 2: None, 3: 0}  # kept by whoever holds it

    def test_no_buffer_of_the_fast_engine_carries_a_stale_answer(
        self, monkeypatch
    ):
        """The message plane builds a fresh inbox per (path, beat) and
        class, so no object is handed out in two beats and whatever was
        read off one is the collapse of what it holds."""
        handed: dict[int, tuple[int, list]] = {}  # held, so ids stay unique
        update_phase = Node.update_phase

        def recorded(node, beat, delivered):
            for inbox in delivered.values():
                assert handed.setdefault(id(inbox), (beat, inbox))[0] == beat
            return update_phase(node, beat, delivered)

        monkeypatch.setattr(Node, "update_phase", recorded)
        for adversary in (None, EquivocatorAdversary()):
            handed.clear()
            sim = Simulation(
                16, 5, lambda i: SSByzClockSync(6, _coin()), seed=1,
                engine="fast", adversary=adversary,
            )
            sim.scramble()
            sim.run(12)
            read = 0
            for _beat, inbox in handed.values():
                if inbox.per_sender is not None:
                    read += 1
                    assert inbox.per_sender == _plain_collapse(inbox)
                    assert list(inbox.per_sender) == list(_plain_collapse(inbox))
            assert read and len({beat for beat, _ in handed.values()}) == 12

    def test_a_rule_runs_once_per_mapping_and_arguments(self):
        from repro.core.majority import first_payload_per_sender, from_per_sender
        from repro.net.message import Inbox

        calls = []

        def rule(payloads, *args):
            calls.append(args)
            return (sum(1 for p in payloads if p == 1), *args)

        mapping = first_payload_per_sender(Inbox(self.INBOX))
        assert from_per_sender(mapping, rule, 0, 3) == (2, 0, 3)
        assert from_per_sender(mapping, rule, 0, 3) == (2, 0, 3)
        assert calls == [(0, 3)]
        # rand, the threshold and k are each part of the question.
        assert from_per_sender(mapping, rule, 1, 3) == (2, 1, 3)
        assert from_per_sender(mapping, rule, 0, 4) == (2, 0, 4)
        assert from_per_sender(mapping, rule, 0, 3, 8) == (2, 0, 3, 8)
        assert len(calls) == 4
        # ...and so is the rule.
        assert from_per_sender(mapping, lambda *_: "other", 0, 3) == "other"
        # Another mapping of equal content is another object.
        twin = first_payload_per_sender(Inbox(self.INBOX))
        assert twin == mapping
        from_per_sender(twin, rule, 0, 3)
        assert len(calls) == 5

    def test_a_plain_dict_just_computes(self):
        from repro.core.clock2 import two_clock_step
        from repro.core.majority import from_per_sender

        calls = []

        def rule(payloads, threshold):
            calls.append(threshold)
            return two_clock_step(payloads, 0, threshold)

        scrambled = {0: 1, 1: 1, 2: None}
        assert from_per_sender(scrambled, rule, 2) == 0
        assert from_per_sender(scrambled, rule, 2) == 0
        assert calls == [2, 2]

    def test_the_figures_rules_agree_with_their_shared_answers(self):
        """Each rule through the helper is the rule: same answer on an
        inbox object as on the plain values, for both coins."""
        from repro.core.clock2 import two_clock_step
        from repro.core.clock_sync import (
            phase1_proposal, phase2_bit_and_save, phase3_agreed_bit,
        )
        from repro.core.majority import first_payload_per_sender, from_per_sender
        from repro.net.message import Inbox

        rng = random.Random(5)
        for _ in range(200):
            kind = rng.choice(("fc", "prop", "bit", None))
            payloads = [
                rng.choice((0, 1, None, True)) if kind is None
                else (kind, rng.choice((0, 1, 2, None, True)))
                for _ in range(7)
            ]
            inbox = Inbox(
                Envelope(sender, -1, "p", payload, 0)
                for sender, payload in enumerate(payloads)
            )
            mapping = first_payload_per_sender(inbox)
            for _ in range(2):
                for rule, args in (
                    (two_clock_step, (0, 5)), (two_clock_step, (1, 5)),
                    (phase1_proposal, (5,)), (phase2_bit_and_save, (5, 3)),
                    (phase2_bit_and_save, (4, 3)), (phase3_agreed_bit, (5,)),
                ):
                    shared = from_per_sender(mapping, rule, *args)
                    assert repr(shared) == repr(rule(payloads, *args))


class TestSlotContextsAreRepointed:
    """One instance context per slot, by hand: whichever instance passes
    through a slot is shown that slot's path, this beat's number and this
    beat's inbox — nothing of the previous beat's."""

    def test_every_round_sees_its_own_beat_and_inbox(self):
        from repro.coin.interfaces import CoinAlgorithm, CoinInstance
        from repro.core.pipeline import CoinFlipPipeline

        log = []

        class Chatty(CoinInstance):
            def send_round(self, round_index, ctx):
                log.append(("send", round_index, ctx.beat, ctx.path, list(ctx.inbox)))
                ctx.broadcast(("round", round_index))

            def update_round(self, round_index, ctx):
                log.append(("update", round_index, ctx.beat, ctx.path, list(ctx.inbox)))

            def output(self):
                return 1

            def scramble(self, rng):
                pass

        class Algorithm(CoinAlgorithm):
            rounds = 2

            def new_instance(self):
                return Chatty()

        node = _node(Switch(coin=CoinFlipPipeline(Algorithm())))
        path = "root/coin"
        for beat in (0, 1, 5):
            sent = node.send_phase(beat)
            assert [e.payload for e in sent if e.receiver == 0] == [
                (1, ("round", 1)), (2, ("round", 2))
            ]
            assert {e.path for e in sent} == {path}
            node.update_phase(beat, {path: [
                Envelope(1, 0, path, (2, ("two", beat)), beat),
                Envelope(2, 0, path, (1, ("one", beat)), beat),
                Envelope(3, 0, path, (2, ("too", beat)), beat),
                Envelope(3, 0, path, (7, "no such slot"), beat),
                Envelope(3, 0, path, "untagged", beat),
            ]})
        assert log == [
            entry
            for beat in (0, 1, 5)
            for entry in (
                ("send", 1, beat, "root/coin/slot1", []),
                ("send", 2, beat, "root/coin/slot2", []),
                ("update", 1, beat, "root/coin/slot1", [(2, ("one", beat))]),
                ("update", 2, beat, "root/coin/slot2",
                 [(1, ("two", beat)), (3, ("too", beat))]),
            )
        ]

    def test_an_update_with_no_traffic_shows_an_empty_inbox(self):
        """...not the one the slot was last pointed at."""
        from repro.coin.interfaces import InstanceContext

        class Sink:
            node_id, n, f, beat, rng, env, path = 0, 4, 1, 3, None, None, "p"

            def __init__(self):
                self.instances = {}

        sink = Sink()
        first = InstanceContext.bound(sink, [(1, "x")], 2, "/slot{}")
        assert (first.path, first.beat, first.inbox) == ("p/slot2", 3, [(1, "x")])
        sink.beat = 4
        again = InstanceContext.bound(sink, [], 2, "/slot{}")
        assert again is first and (again.beat, again.inbox) == (4, [])
        other = InstanceContext.bound(sink, [], 1, "/slot{}")
        assert other is not first and other.path == "p/slot1"
        assert InstanceContext.bound(sink, []).path == "p"


class TestEveryPathHandsOutInboxesThatRemember:
    """The event engine's lanes (``net/plane.py``) and the live intake's
    classes (``group_by_path``) hand out ``Inbox`` objects: co-hosted
    receivers of one inbox count it once (16 nodes counted 2.5 inboxes
    each per beat)."""

    @pytest.mark.parametrize("path", ["events", "runtime"])
    def test_tallies_follow_classes_not_n(self, path, monkeypatch):
        from repro.core import clock2, clock_sync, majority

        tallies = []
        original = majority.count_values

        def counted(values):
            tallies.append(1)
            return original(values)

        for module in (majority, clock2, clock_sync):
            monkeypatch.setattr(module, "count_values", counted)
        factory = lambda i: SSByzClockSync(6, _coin())
        if path == "events":
            run_continuous(16, 5, factory, seed=2, beats=24)
        else:
            run_runtime(16, 5, factory, seed=2, beats=24, transport="local",
                        codec="binary")
        assert 24 <= len(tallies) <= 24 * 5 + 40  # + the scramble's first beats
