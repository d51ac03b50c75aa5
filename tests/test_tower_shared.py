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

from repro.adversary import ScriptedAdversary
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
        assert any(
            len({state.split("'rand', ")[1][:3] for state in record.values.values()}) > 1
            for record in records
        ), "no beat on which two nodes held different coins"

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
                (10, None, "root/A/A1", {r: bool(r % 2) if r % 3 else 1 for r in honest}),
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
