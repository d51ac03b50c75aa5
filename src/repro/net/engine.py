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
* :class:`FastEngine` — the production path.  Component paths are interned
  to integer ids when the engine binds to a simulation; honest broadcasts
  are recorded as a single fan-out record and expanded into one *shared*
  envelope (and one shared inbox list) per beat instead of Θ(n) copies;
  per-node inbox buffers are reused across beats; and the per-inbox
  sender sort is skipped whenever envelopes were already produced in
  sender order (always true for pure-broadcast inboxes, because nodes run
  their send phases in ascending id order).
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
default) both engines run their original delivery code untouched, which
is what makes the perfect model a provable no-op.  Under any other model
the engines stay differentially equivalent: link decisions are keyed
randomness (identical whatever order envelopes are classified in), and
delayed arrivals merge into inboxes in a fixed stage order — for one
sender, older delayed traffic sorts before the beat's fresh traffic,
which sorts before phantoms claiming that sender.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from operator import itemgetter
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.message import (
    BROADCAST,
    CraftedTraffic,
    Envelope,
    FanoutView,
    FastOutbox,
    Inbox,
    Row,
)
from repro.net.network import MessageStats, Router, ensure_faulty_senders

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


#: A receiver a row does not name.
_ABSENT = object()

_KEY_OF_ENTRY = itemgetter(0)


def craft_byzantine(
    world: "World", beat: int, visible: Sequence[Envelope]
) -> CraftedTraffic:
    """The adversary phase of every execution path: show the strategy
    its legal view of ``beat`` and validate the crafted traffic.

    ``visible`` is what was addressed to faulty ids, in the canonical
    (sender, emission order, faulty receiver) order; the lock-step and
    event engines build it from their outboxes, the live
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
            for envelope in envelopes:
                stats.record(envelope, honest)
                receiver = envelope.receiver
                if receiver not in nodes:
                    continue  # dead letter (faulty receiver): adversary view only
                if envelope.sender == receiver:
                    delay = 0  # loopback is always perfect
                else:
                    delay = link.classify(envelope.sender, receiver, beat)
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
    (Θ(n²) copies per beat).  This engine materializes each one as a single
    shared :class:`Envelope` (``receiver=BROADCAST``) appended to a single
    shared per-path inbox list that every node's update phase reads —
    honest protocol code never inspects ``receiver`` and never mutates its
    inbox, which makes the sharing observationally equivalent to the
    reference engine's per-receiver copies.  Everything else is merged
    into that list in the reference engine's exact sender-sorted,
    stage-ordered delivery order (see ``_STAGE_*`` below): point-to-point
    sends and phantoms per receiver, and crafted rows
    (:class:`~repro.net.message.Row`) once per inbox *class* — the
    receivers a path's rows hand the same payload objects, and who got
    nothing else on it, read one merged list whose Byzantine copies
    carry ``BROADCAST`` too.  An equivocating coalition therefore costs
    one merge per story it tells, not one per receiver.
    """

    name = "fast"
    description = (
        "fan-out-sharing default: one shared envelope per honest "
        "broadcast instead of n copies, reused per-beat buffers"
    )

    #: Merge-sort stage tags, mirroring the reference router's stable-sort
    #: insertion order for one sender: delayed arrivals (older traffic a
    #: link model deferred) sort first, then the beat's regular traffic
    #: (honest + Byzantine — their sender sets are disjoint), then phantoms
    #: claiming the same sender.
    _STAGE_DELAYED = -1
    _STAGE_REGULAR = 0
    _STAGE_PHANTOM = 1

    def __init__(self) -> None:
        self.stats = MessageStats()
        self._pending_phantoms: list[Envelope] = []
        self._bound = False
        # In-flight queue: delivery beat -> [(receiver, path, key, envelope)].
        self._in_flight: dict[
            int, list[tuple[int, str, tuple[int, int, int], Envelope]]
        ] = {}
        self._flight_seq = 0

    # -- binding -----------------------------------------------------------

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
        # Path interning: component trees are isomorphic across nodes and
        # static after construction, so one walk at bind time pre-interns
        # every honest routing path.  Unknown paths (Byzantine inventions,
        # phantom targets) intern lazily on first sight.
        self._path_ids: dict[str, int] = {}
        self._path_names: list[str] = []
        self._shared_envs: list[list[Envelope]] = []
        self._shared_keys: list[list[tuple[int, int]]] = []
        for node in simulation.nodes.values():
            self._intern_tree(node.root, simulation.root_path)
            break  # one tree is enough; the rest are isomorphic
        # Reusable per-beat buffers.
        self._touched: list[int] = []
        self._shared_inbox: dict[str, list[Envelope]] = {}
        self._merge_inboxes: dict[int, dict[str, list[Envelope]]] = {}

    def _intern(self, path: str) -> int:
        path_id = self._path_ids.get(path)
        if path_id is None:
            path_id = len(self._path_names)
            self._path_ids[path] = path_id
            self._path_names.append(path)
            self._shared_envs.append(Inbox())
            self._shared_keys.append([])
        return path_id

    def _intern_tree(self, component: Component, path: str) -> None:
        self._intern(path)
        for name, child in component.children.items():
            self._intern_tree(child, f"{path}/{name}")

    # -- phantom plumbing --------------------------------------------------

    def inject_phantoms(self, envelopes: list[Envelope]) -> None:
        self._pending_phantoms.extend(envelopes)

    # -- beat execution ----------------------------------------------------

    def execute_beat(self, simulation: "Simulation", beat: int) -> None:
        # The fan-out-sharing path runs under perfect links — and on any
        # beat the link model certifies as unaffected (e.g. a healed
        # partition) while nothing is in flight.
        if not (
            self._link.is_perfect
            or (not self._in_flight and self._link.perfect_at(beat))
        ):
            self._execute_linked_beat(simulation, beat)
            return
        n = self._n
        nodes = simulation.nodes
        # Churn: send and update phases run on *active* nodes only, while
        # receiver-presence checks stay on all correct nodes — traffic to a
        # crashed node is still counted and stashed (in an inbox nobody
        # reads), exactly as the reference engine delivers it.
        active = simulation.active_nodes()
        stats = self.stats
        faulty = self._faulty
        faulty_set = self._faulty_set
        adversary_active = simulation.adversary is not None and bool(faulty)
        path_ids = self._path_ids
        shared_envs = self._shared_envs
        shared_keys = self._shared_keys
        touched = self._touched
        for path_id in touched:
            shared_envs[path_id].clear()
            shared_keys[path_id].clear()
        touched.clear()
        # extras[receiver][path] = [((sender, stage, seq), envelope), ...]
        # — the rare per-receiver traffic that cannot ride the shared lists.
        extras: dict[int, dict[str, list[tuple[tuple[int, int, int], Envelope]]]] = {}
        # The legal view in shared form: one record per honest broadcast.
        visible = FanoutView(beat, faulty)

        # -- send phase ----------------------------------------------------
        # Honest nodes run in ascending id order, so shared lists come out
        # pre-sorted by (sender, emission order) — the exact order the
        # reference router's stable sender sort produces.
        for node_id, node in active.items():
            records = node.send_phase(beat, self._outboxes[node_id])
            for seq, (path, payload, receiver) in enumerate(records):
                if receiver is None:  # full broadcast: one shared fan-out
                    path_id = path_ids.get(path)
                    if path_id is None:
                        path_id = self._intern(path)
                    envs = shared_envs[path_id]
                    if not envs:
                        touched.append(path_id)
                    envs.append(Envelope(node_id, BROADCAST, path, payload, beat))
                    shared_keys[path_id].append((node_id, seq))
                    stats.record_fanout(path, beat, n, honest=True)
                    if adversary_active:
                        visible.add_broadcast(node_id, path, payload)
                else:
                    envelope = Envelope(node_id, receiver, path, payload, beat)
                    stats.record(envelope, honest=True)
                    if adversary_active and receiver in faulty_set:
                        visible.add_envelope(envelope)
                    if receiver in nodes:
                        extras.setdefault(receiver, {}).setdefault(
                            path, []
                        ).append(((node_id, self._STAGE_REGULAR, seq), envelope))

        # -- adversary phase ----------------------------------------------
        # A row stays a row: rows[path] = [(seq, sender, payloads), ...],
        # sorted into inbox classes at delivery.  ``seq`` is the record's
        # position, which orders one sender's copies at one receiver
        # exactly as their positions in the materialized list would.
        rows: dict[str, list[tuple[int, int, Mapping]]] = {}
        if adversary_active:
            crafted = craft_byzantine(simulation.world, beat, visible)
            stats.record_block(crafted, honest=False)
            for seq, record in enumerate(crafted.records):
                if type(record) is Row:
                    rows.setdefault(record.path, []).append(
                        (seq, record.sender, record.payloads)
                    )
                elif record.receiver in nodes:
                    extras.setdefault(record.receiver, {}).setdefault(
                        record.path, []
                    ).append(
                        ((record.sender, self._STAGE_REGULAR, seq), record)
                    )

        # -- phantom delivery ---------------------------------------------
        if self._pending_phantoms:
            phantoms, self._pending_phantoms = self._pending_phantoms, []
            for seq, envelope in enumerate(phantoms):
                stats.record(envelope, honest=False)
                if envelope.receiver in nodes:
                    extras.setdefault(envelope.receiver, {}).setdefault(
                        envelope.path, []
                    ).append(
                        ((envelope.sender, self._STAGE_PHANTOM, seq), envelope)
                    )

        # -- delivery + update phase --------------------------------------
        shared_inbox = self._shared_inbox
        shared_inbox.clear()
        path_names = self._path_names
        for path_id in touched:
            shared_inbox[path_names[path_id]] = shared_envs[path_id]
        if not extras and not rows:
            # Pure-broadcast beat: every node reads one dict.
            for node in active.values():
                node.update_phase(beat, shared_inbox)
            return
        # Receivers a path's rows handed the same payload *objects* form
        # one inbox class: classes[path] = (the path's distinct row
        # mappings, {class key: [row entries, merged inbox or None]}).
        classes = {
            path: (list({id(row[2]): row[2] for row in path_rows}.values()), {})
            for path, path_rows in rows.items()
        }
        for node_id, node in active.items():
            node_extras = extras.get(node_id)
            if node_extras is None and not rows:
                node.update_phase(beat, shared_inbox)
                continue
            inbox = self._merge_inboxes.get(node_id)
            if inbox is None:
                inbox = self._merge_inboxes[node_id] = {}
            else:
                inbox.clear()
            inbox.update(shared_inbox)
            if node_extras is not None:
                for path, entries in node_extras.items():
                    if path not in rows:
                        inbox[path] = self._merged(path, entries)
            for path, path_rows in rows.items():
                distinct, by_key = classes[path]
                key = tuple(
                    [id(payloads.get(node_id, _ABSENT)) for payloads in distinct]
                )
                shared = by_key.get(key)
                if shared is None:
                    # Built once per class; the copies carry BROADCAST as
                    # receiver, as shared honest envelopes do.
                    shared = by_key[key] = [
                        [
                            (
                                (sender, self._STAGE_REGULAR, seq),
                                Envelope(
                                    sender, BROADCAST, path,
                                    payloads[node_id], beat,
                                ),
                            )
                            for seq, sender, payloads in path_rows
                            if node_id in payloads
                        ],
                        None,
                    ]
                own = None if node_extras is None else node_extras.get(path)
                if own is not None:
                    inbox[path] = self._merged(path, shared[0] + own)
                    continue
                if shared[1] is None:
                    shared[1] = self._merged(path, shared[0])
                inbox[path] = shared[1]
            node.update_phase(beat, inbox)

    def _merged(
        self,
        path: str,
        entries: list[tuple[tuple[int, int, int], Envelope]],
    ) -> list[Envelope]:
        """This beat's inbox on ``path`` for whoever received ``entries``
        (``((sender, stage, seq), envelope)`` pairs) besides the shared
        honest broadcasts: the reference router's sender-sorted,
        stage-ordered delivery."""
        base = self._shared_inbox.get(path)
        if base is None:
            merged = list(entries)
        else:
            merged = [
                ((sender, self._STAGE_REGULAR, seq), envelope)
                for (sender, seq), envelope in zip(
                    self._shared_keys[self._path_ids[path]], base
                )
            ]
            merged.extend(entries)
        if len(merged) > 1:
            merged.sort(key=_KEY_OF_ENTRY)
        return Inbox([envelope for _, envelope in merged])

    # -- linked beat execution ---------------------------------------------

    def _execute_linked_beat(self, simulation: "Simulation", beat: int) -> None:
        """One beat under a non-trivial link model.

        Fan-out sharing is off here: a lossy or delaying link makes
        per-receiver inboxes genuinely diverge, so every copy is expanded
        and classified individually — exactly what the reference engine
        does, which keeps the engines differentially equivalent under any
        link model (link decisions are keyed randomness, so classification
        *order* cannot skew them).
        """
        n = self._n
        nodes = simulation.nodes
        # Churn: active nodes send and update; dispatch still classifies
        # traffic bound for inactive correct receivers (the network does
        # not know a host is down), matching the reference engine's link
        # call sequence bit for bit.
        active = simulation.active_nodes()
        stats = self.stats
        link = self._link
        faulty_set = self._faulty_set
        adversary_active = simulation.adversary is not None and bool(self._faulty)
        # extras[receiver][path] = [((sender, stage, seq), envelope), ...]
        extras: dict[int, dict[str, list[tuple[tuple[int, int, int], Envelope]]]] = {}
        visible = FanoutView(beat, self._faulty)

        def dispatch(envelope: Envelope, key: tuple[int, int, int]) -> None:
            receiver = envelope.receiver
            if receiver not in nodes:
                return  # dead letter (faulty receiver): adversary view only
            if envelope.sender == receiver:
                delay = 0  # loopback is always perfect
            else:
                delay = link.classify(envelope.sender, receiver, beat)
            if delay is None:
                stats.record_dropped(envelope)
                return
            if delay:
                stats.record_delayed(envelope)
                self._flight_seq += 1
                self._in_flight.setdefault(beat + delay, []).append(
                    (
                        receiver,
                        envelope.path,
                        (envelope.sender, self._STAGE_DELAYED, self._flight_seq),
                        envelope,
                    )
                )
                return
            extras.setdefault(receiver, {}).setdefault(
                envelope.path, []
            ).append((key, envelope))

        # -- send phase ----------------------------------------------------
        for node_id, node in active.items():
            records = node.send_phase(beat, self._outboxes[node_id])
            for seq, (path, payload, receiver) in enumerate(records):
                if receiver is None:  # full broadcast: expand per receiver
                    stats.record_fanout(path, beat, n, honest=True)
                    key = (node_id, self._STAGE_REGULAR, seq)
                    if adversary_active:
                        visible.add_broadcast(node_id, path, payload)
                    for target in range(n):
                        dispatch(
                            Envelope(node_id, target, path, payload, beat), key
                        )
                else:
                    envelope = Envelope(node_id, receiver, path, payload, beat)
                    stats.record(envelope, honest=True)
                    if adversary_active and receiver in faulty_set:
                        visible.add_envelope(envelope)
                    dispatch(envelope, (node_id, self._STAGE_REGULAR, seq))

        # -- adversary phase ----------------------------------------------
        if adversary_active:
            crafted = craft_byzantine(simulation.world, beat, visible)
            stats.record_block(crafted, honest=False)
            for seq, envelope in enumerate(crafted):
                dispatch(envelope, (envelope.sender, self._STAGE_REGULAR, seq))

        # -- delayed arrivals now due -------------------------------------
        for receiver, path, key, envelope in self._in_flight.pop(beat, ()):
            extras.setdefault(receiver, {}).setdefault(path, []).append(
                (key, envelope)
            )

        # -- phantom delivery ---------------------------------------------
        if self._pending_phantoms:
            phantoms, self._pending_phantoms = self._pending_phantoms, []
            for seq, envelope in enumerate(phantoms):
                stats.record(envelope, honest=False)
                if envelope.receiver in nodes:
                    extras.setdefault(envelope.receiver, {}).setdefault(
                        envelope.path, []
                    ).append(
                        ((envelope.sender, self._STAGE_PHANTOM, seq), envelope)
                    )

        # -- delivery + update phase --------------------------------------
        empty_inbox = self._shared_inbox
        empty_inbox.clear()
        for node_id, node in active.items():
            node_extras = extras.get(node_id)
            if node_extras is None:
                node.update_phase(beat, empty_inbox)
                continue
            inbox = self._merge_inboxes.get(node_id)
            if inbox is None:
                inbox = self._merge_inboxes[node_id] = {}
            else:
                inbox.clear()
            for path, entries in node_extras.items():
                if len(entries) > 1:
                    entries.sort(key=lambda item: item[0])
                inbox[path] = [envelope for _, envelope in entries]
            node.update_phase(beat, inbox)


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
