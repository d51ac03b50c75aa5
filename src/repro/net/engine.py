"""Pluggable execution engines for the global-beat-system.

A :class:`~repro.net.simulator.Simulation` owns *what* a beat means — the
send / adversary / delivery / update phase order, the fault model, the
monitors.  An :class:`Engine` owns *how* the message plane of one beat is
executed: collecting the send phase's output, showing the adversary its
legal view, routing traffic into per-node per-component inboxes, and
driving the update phase.  Three engines ship:

* :class:`ReferenceEngine` — the original object-per-envelope
  implementation built on :class:`~repro.net.network.Router`.  Every
  broadcast allocates one :class:`~repro.net.message.Envelope` per
  receiver and every inbox is re-sorted each beat.  It is the executable
  specification the fast path is differentially tested against.
* :class:`FastEngine` — the production path.  It keeps the lock-step
  *schedule* and leaves the traffic to the in-process message plane
  (:mod:`repro.net.plane`): an honest broadcast is one fan-out record
  and one *shared* envelope on one shared inbox per path instead of Θ(n)
  copies, a crafted row stays a row, and each class of receivers handed
  the same objects reads one merged inbox.  The per-inbox sender sort is
  skipped for pure-broadcast inboxes, which are already in sender order
  because nodes run their send phases in ascending id order.
* :class:`~repro.net.bulk.BulkEngine` — the campaign-scale path.  It
  keeps per-node protocol state in structure-of-arrays form and executes
  whole beats as batch operations for protocols that register a bulk
  program (see :mod:`repro.net.bulk`), falling back to the fast path
  otherwise.

All engines produce bit-identical runs: same per-node inbox contents in
the same delivery order, same traffic statistics, same RNG stream
consumption.  ``tests/test_engines.py`` and ``tests/test_bulk_engine.py``
enforce this differentially.

Link conditions
---------------

Each engine also owns the simulation's *link layer*
(:mod:`repro.net.linkmodel`): between the send and delivery phases, every
envelope bound for a correct node is classified by the bound
:class:`~repro.net.linkmodel.LinkModel` — delivered this beat, parked in
the engine's per-beat in-flight queue to land in a future beat's inboxes,
or dropped.  Under :class:`~repro.net.linkmodel.PerfectLinks` (the
default) no engine ever calls ``classify``, which is what makes the
perfect model a provable no-op.  Under any other model the engines stay
differentially equivalent: every copy is classified on its own, in the
reference engine's order (link decisions are keyed randomness, but
stateful models count emissions per directed link) and with the same
``seq``, the copy's index in its sender's per-receiver envelope list or
in the beat's expanded crafted traffic (the continuous-time model,
:class:`~repro.net.events.TimingLinks`, keys its delay draws by it);
delayed arrivals merge into inboxes in a fixed stage order — for one
sender, older delayed traffic sorts before the beat's fresh traffic,
which sorts before phantoms claiming that sender
(:mod:`repro.net.plane`'s ``STAGE_*``).
Classifying a copy is not building it: the fast engine builds only the
copies a link holds back, and the rest of each broadcast or row stays
shared.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.net.message import CraftedTraffic, Envelope, FanoutView, FastOutbox, Row
from repro.net.network import MessageStats, Router, ensure_faulty_senders
from repro.net.plane import (
    STAGE_DELAYED,
    STAGE_PHANTOM,
    STAGE_REGULAR,
    BeatTraffic,
)

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.net.simulator import Simulation
    from repro.net.world import World

__all__ = [
    "ENGINES",
    "Engine",
    "FastEngine",
    "ReferenceEngine",
    "craft_byzantine",
    "resolve_engine",
]


def craft_byzantine(
    world: "World", beat: int, visible: Sequence[Envelope]
) -> CraftedTraffic:
    """The adversary phase of every execution path: show the strategy
    its legal view of ``beat`` and validate the crafted traffic.

    ``visible`` is what was addressed to faulty ids, in the canonical
    (sender, emission order, faulty receiver) order; the lock-step
    engines build it from their outboxes, the live
    :class:`~repro.runtime.byzantine.ByzantineProcess` from the frames
    its endpoints received.  The result is always shared form (a plain
    list comes back as point-to-point records), so a caller either
    enumerates it — the strategy's envelopes, in the strategy's order —
    or reads its ``records``.
    """
    from repro.adversary.base import AdversaryView

    view = AdversaryView(
        beat=beat,
        n=world.n,
        f=world.f,
        faulty_ids=world.faulty_ids,
        visible_messages=visible,
        env=world.env,
        rng=world.adversary_rng,
    )
    crafted = CraftedTraffic.of(beat, world.adversary.craft_messages(view))
    return ensure_faulty_senders(world.faulty_ids, crafted)


@runtime_checkable
class Engine(Protocol):
    """The message-plane executor behind one :class:`Simulation`.

    An engine instance is single-use: :meth:`bind` couples it to one
    simulation (sizes, faulty set, per-node buffers) and is called exactly
    once, by ``Simulation.__init__``.
    """

    name: str
    description: str
    stats: MessageStats

    def bind(self, simulation: "Simulation") -> None:
        """Couple this engine to one simulation before the first beat."""
        ...

    def execute_beat(self, simulation: "Simulation", beat: int) -> None:
        """Run one beat's send, adversary, delivery and update phases."""
        ...

    def inject_phantoms(self, envelopes: list[Envelope]) -> None:
        """Queue phantom messages for the next beat's delivery."""
        ...


class ReferenceEngine:
    """Executable specification: one envelope per (message, receiver).

    This is the seed implementation extracted verbatim from the original
    ``Simulation.run_beat``; it routes through :class:`Router`, which sorts
    every inbox by sender each beat.
    """

    name = "reference"
    description = (
        "object-per-envelope executable specification; the differential "
        "baseline every other engine must match bit-for-bit"
    )

    def __init__(self) -> None:
        self.stats = MessageStats()
        self.router: Router | None = None
        self._link = None
        self._in_flight: dict[int, list[Envelope]] = {}

    def bind(self, simulation: "Simulation") -> None:
        if self.router is not None:
            raise ConfigurationError(
                "engine instances are single-use; pass the engine *name* "
                "to reuse a configuration across simulations"
            )
        self.router = Router(simulation.n, simulation.faulty_ids, self.stats)
        self._link = simulation.link

    def inject_phantoms(self, envelopes: list[Envelope]) -> None:
        assert self.router is not None, "engine used before bind()"
        self.router.inject_phantoms(envelopes)

    def execute_beat(self, simulation: "Simulation", beat: int) -> None:
        assert self.router is not None, "engine used before bind()"
        # Membership churn: only *active* nodes run their send and update
        # phases (a crashed machine neither emits nor consumes); traffic
        # addressed to inactive correct nodes is still classified, counted
        # and delivered into inboxes nobody reads, in every engine alike.
        active = simulation.active_nodes()
        honest_envelopes: list[Envelope] = []
        for node in active.values():
            honest_envelopes.extend(node.send_phase(beat))
        byzantine_envelopes: list[Envelope] = []
        if simulation.adversary is not None and simulation.faulty_ids:
            visible = [
                e for e in honest_envelopes if e.receiver in simulation.faulty_ids
            ]
            byzantine_envelopes = craft_byzantine(simulation.world, beat, visible)
        if not (
            self._link.is_perfect
            or (not self._in_flight and self._link.perfect_at(beat))
        ):
            self._route_linked(simulation, beat, honest_envelopes,
                               byzantine_envelopes)
            return
        delivered = self.router.route(honest_envelopes, byzantine_envelopes)
        for node_id, node in active.items():
            node.update_phase(beat, delivered.get(node_id, {}))

    def _route_linked(
        self,
        simulation: "Simulation",
        beat: int,
        honest_envelopes: list[Envelope],
        byzantine_envelopes: list[Envelope],
    ) -> None:
        """Delivery with a non-trivial link model in the loop.

        Inbox insertion order (the stable sender sort's tie-break) is:
        delayed arrivals now due (oldest first), then this beat's honest
        and Byzantine traffic, then phantoms — the same stage order the
        fast engine encodes in its merge keys.
        """
        link = self._link
        stats = self.stats
        nodes = simulation.nodes
        delivered: dict[int, dict[str, list[Envelope]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for envelope in self._in_flight.pop(beat, ()):
            delivered[envelope.receiver][envelope.path].append(envelope)
        for honest, envelopes in (
            (True, honest_envelopes),
            (False, self.router.validate_byzantine(byzantine_envelopes)),
        ):
            first: dict[int, int] = {}
            for index, envelope in enumerate(envelopes):
                stats.record(envelope, honest)
                sender, receiver = envelope.sender, envelope.receiver
                # The link's seq: an honest copy's index in its sender's
                # envelopes, a crafted copy's in the beat's crafted traffic.
                seq = index - first.setdefault(sender, index) if honest else index
                if receiver not in nodes:
                    continue  # dead letter (faulty receiver): adversary view only
                if sender == receiver:
                    delay = 0  # loopback is always perfect
                else:
                    delay = link.classify(sender, receiver, beat, seq)
                if delay is None:
                    stats.record_dropped(envelope)
                elif delay == 0:
                    delivered[receiver][envelope.path].append(envelope)
                else:
                    stats.record_delayed(envelope)
                    self._in_flight.setdefault(beat + delay, []).append(envelope)
        for envelope in self.router.drain_phantoms():
            stats.record(envelope, honest=False)
            if envelope.receiver in nodes:
                delivered[envelope.receiver][envelope.path].append(envelope)
        for inboxes in delivered.values():
            for inbox in inboxes.values():
                inbox.sort(key=lambda e: e.sender)
        for node_id, node in simulation.active_nodes().items():
            node.update_phase(beat, delivered.get(node_id, {}))


class FastEngine:
    """Fan-out-sharing engine: O(messages) work instead of O(copies).

    Honest broadcasts dominate traffic in every protocol of this library
    (Θ(n²) copies per beat).  This engine is the lock-step *schedule* —
    send sweep, adversary phase, due arrivals, phantoms, update sweep —
    over one :class:`~repro.net.plane.BeatTraffic` per beat, which holds
    each broadcast as a single shared :class:`Envelope` on a single shared
    per-path inbox, keeps crafted rows as rows and hands every class of
    receivers one merged inbox in the reference engine's exact
    sender-sorted, stage-ordered delivery order.  An equivocating
    coalition therefore costs one merge per story it tells, not one per
    receiver.

    A link model that rules on a beat puts one step between a record and
    the traffic, ``rule``: each copy bound for a correct receiver other
    than its sender is classified — the calls the reference engine makes,
    in its order, with the same ``seq`` — but only a copy the link *holds*
    (drops, or delays into the in-flight queue) is ever built.  What still
    arrives stays in shared form: a broadcast that lost nothing is its
    lane envelope, one that lost copies is the row of the receivers it
    still reaches, a crafted row loses only its held entries, so
    receivers who lost the same copies share one merged inbox.
    """

    name = "fast"
    description = (
        "fan-out-sharing default: one shared envelope per honest "
        "broadcast instead of n copies, one merged inbox per class of "
        "receivers"
    )

    def __init__(self) -> None:
        self.stats = MessageStats()
        self._pending_phantoms: list[Envelope] = []
        self._bound = False
        # In-flight queue: delivery beat -> [(receiver, key, envelope)].
        self._in_flight: dict[
            int, list[tuple[int, tuple[int, int, int], Envelope]]
        ] = {}
        self._flight_seq = 0

    def bind(self, simulation: "Simulation") -> None:
        if self._bound:
            raise ConfigurationError(
                "engine instances are single-use; pass the engine *name* "
                "to reuse a configuration across simulations"
            )
        self._bound = True
        self._n = simulation.n
        self._link = simulation.link
        self._faulty_set = simulation.faulty_ids
        self._faulty = tuple(sorted(simulation.faulty_ids))
        self._outboxes = {
            node_id: FastOutbox(simulation.n) for node_id in simulation.nodes
        }

    def inject_phantoms(self, envelopes: list[Envelope]) -> None:
        self._pending_phantoms.extend(envelopes)

    def execute_beat(self, simulation: "Simulation", beat: int) -> None:
        n = self._n
        nodes = simulation.nodes
        # Churn: send and update phases run on *active* nodes only, while
        # receiver-presence checks stay on all correct nodes — traffic to a
        # crashed node is still classified, counted and stashed (the
        # network does not know a host is down), exactly as the reference
        # engine delivers it.
        active = simulation.active_nodes()
        stats = self.stats
        link = self._link
        faulty_set = self._faulty_set
        adversary_active = simulation.adversary is not None and bool(self._faulty)
        # Observed, never set: the link rules on this beat unless it is
        # perfect, or certifies the beat unaffected (e.g. a healed
        # partition) while nothing is in flight.
        linked = not (
            link.is_perfect
            or (not self._in_flight and link.perfect_at(beat))
        )
        traffic = BeatTraffic(beat)
        # The legal view in shared form: one record per honest broadcast.
        visible = FanoutView(beat, self._faulty)

        def rule(sender, path, payloads, seq, envelope=None):
            """``payloads`` (one record's copies, receiver -> payload,
            the copies' ``seq`` counting up from ``seq``) without the
            copies the link holds — the mapping itself if it holds none.
            Each copy for a correct receiver other than the sender is
            classified, in the mapping's order; only a held one is built
            (``envelope``: a point-to-point record's own copy), then
            dropped or put in flight."""
            held = []
            for index, (receiver, payload) in enumerate(payloads.items(), seq):
                # Loopback is perfect; a faulty receiver's copy is a dead
                # letter, shown to the adversary and delivered nowhere.
                if receiver not in nodes or receiver == sender:
                    continue
                delay = link.classify(sender, receiver, beat, index)
                if delay == 0:
                    continue
                held.append(receiver)
                copy = envelope or Envelope(sender, receiver, path, payload, beat)
                if delay is None:
                    stats.record_dropped(copy)
                    continue
                stats.record_delayed(copy)
                self._flight_seq += 1
                self._in_flight.setdefault(beat + delay, []).append((
                    receiver, (sender, STAGE_DELAYED, self._flight_seq), copy
                ))
            if not held:
                return payloads
            return {r: p for r, p in payloads.items() if r not in held}

        # -- send phase ----------------------------------------------------
        # Honest nodes run in ascending id order, so lanes come out sorted
        # by (sender, emission order) — the exact order the reference
        # router's stable sender sort produces.  ``seq`` is a record's
        # first copy's index in the node's per-receiver envelope list.
        for node_id, node in active.items():
            seq = 0
            for path, payload, receiver in node.send_phase(
                beat, self._outboxes[node_id]
            ):
                if receiver is None:  # full broadcast
                    stats.record_fanout(path, beat, n, honest=True)
                    if adversary_active:
                        visible.add_broadcast(node_id, path, payload)
                    if linked:  # every id, so a copy's seq is seq + receiver
                        everyone = dict.fromkeys(range(n), payload)
                        reached = rule(node_id, path, everyone, seq)
                    if not linked or reached is everyone:
                        traffic.broadcast(node_id, seq, path, payload)
                    else:
                        traffic.row(node_id, seq, path, reached)
                    seq += n
                else:
                    envelope = Envelope(node_id, receiver, path, payload, beat)
                    stats.record(envelope, honest=True)
                    if adversary_active and receiver in faulty_set:
                        visible.add_envelope(envelope)
                    if receiver in nodes and (
                        not linked
                        or rule(node_id, path, {receiver: payload}, seq, envelope)
                    ):
                        traffic.stray(
                            receiver, (node_id, STAGE_REGULAR, seq), envelope
                        )
                    seq += 1

        # -- adversary phase ----------------------------------------------
        if adversary_active:
            crafted = craft_byzantine(simulation.world, beat, visible)
            stats.record_block(crafted, honest=False)
            records = crafted.records
            if linked:  # each record minus the copies the link held
                records = [
                    Row(r.sender, r.path, rule(*r, seq)) if type(r) is Row else r
                    for r, seq in zip(records, crafted.starts)
                    if type(r) is Row
                    or rule(r.sender, r.path, {r.receiver: r.payload}, seq, r)
                ]
            traffic.crafted(records, nodes)

        # -- delayed arrivals now due -------------------------------------
        for receiver, key, envelope in self._in_flight.pop(beat, ()):
            traffic.stray(receiver, key, envelope)

        # -- phantom delivery (stale traffic: no link rules on it) ---------
        if self._pending_phantoms:
            phantoms, self._pending_phantoms = self._pending_phantoms, []
            for seq, envelope in enumerate(phantoms):
                stats.record(envelope, honest=False)
                if envelope.receiver in nodes:
                    traffic.stray(
                        envelope.receiver,
                        (envelope.sender, STAGE_PHANTOM, seq),
                        envelope,
                    )

        # -- delivery + update phase --------------------------------------
        for node_id, node in active.items():
            node.update_phase(beat, traffic.inboxes(node_id))


#: Engine registry: name -> zero-argument factory.
ENGINES: dict[str, type] = {
    ReferenceEngine.name: ReferenceEngine,
    FastEngine.name: FastEngine,
}

#: The default engine used by :class:`Simulation`; the fast path, now that
#: the differential suite proves it equivalent to the reference engine.
DEFAULT_ENGINE = FastEngine.name


def resolve_engine(engine: "str | Engine") -> "Engine":
    """Turn an engine name or instance into a bindable engine object."""
    if isinstance(engine, str):
        factory = ENGINES.get(engine)
        if factory is None:
            raise ConfigurationError(
                f"unknown engine {engine!r}; known engines: {sorted(ENGINES)}"
            )
        return factory()
    if isinstance(engine, Engine):
        return engine
    raise ConfigurationError(
        f"engine must be a name or an Engine instance, got {engine!r}"
    )


# The bulk engine lives in its own module (it is substantial) and
# registers itself in ENGINES on import; importing it here keeps the
# registry complete for anyone importing the engine seam.  This must stay
# below the registry and class definitions the bulk module depends on.
from repro.net import bulk as _bulk  # noqa: E402,F401
