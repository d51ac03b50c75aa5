"""Composable synchronous protocol components.

The paper builds algorithms as towers: ss-Byz-Clock-Sync runs a
ss-Byz-4-Clock, which runs two ss-Byz-2-Clocks, each of which runs a
ss-Byz-Coin-Flip pipeline of Δ_A coin instances.  "On a beat received from
the global-beat-system, each algorithm performs a step in each of the
appropriate building blocks" (§3.1).  We model every layer as a
:class:`Component` in a tree; one *beat* is a **send phase** over the whole
tree followed by an **update phase** over the same tree.

Semantics mapped from the paper's model (§2):

* Messages emitted during the send phase of beat ``r`` are delivered to the
  update phase of the *same* beat ``r`` — this realizes "a message sent at
  beat r arrives (and is processed) before beat r+1", and matches the proof
  of Lemma 2, where values broadcast in Line 1 are counted in Lines 3-6 of
  the same beat.
* Which children execute a beat is decided during the send phase (message
  emission cannot depend on information received later in the beat) and the
  identical child set must be driven through the update phase.  The
  framework enforces this pairing and raises
  :class:`~repro.errors.ProtocolViolationError` on violations, which are
  library bugs, not modelled faults.
* ``scramble`` implements transient faults: every state variable is redrawn
  uniformly from its declared domain.  Self-stabilization assumes
  bounded-size variables, so "arbitrary memory" means "arbitrary value of
  the declared type", not arbitrary Python objects.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable, Iterator

from repro.errors import ProtocolViolationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.environment import Environment
    from repro.net.message import Envelope, Outbox

__all__ = ["BeatContext", "Component", "SEND", "UPDATE"]

SEND = "send"
UPDATE = "update"


class BeatContext:
    """One component's view of the current beat at one node.

    **Bound once.**  A node's contexts form a tree mirroring its component
    tree, built as it is first walked: the root with the
    :class:`~repro.net.node.Node`, a child's the first time its parent
    runs it.  Identity, the component, its routing path, the child
    contexts and the instance contexts a host keeps in :attr:`instances`
    are fixed then; a beat changes ``beat``, ``phase``, the outbox and the
    delivered inboxes, which the node sets on the root and
    :meth:`run_child` hands down.

    **Activation is a stamp.**  The node counts an *epoch*: one more per
    send phase it drives, whatever the beat number (a host may drive one
    number twice; activation must not survive into the second pass).
    Running a child in the send phase stamps its context with the epoch;
    the update phase demands that stamp and leaves its own, and as each
    component's update returns every child stamped sent must be stamped
    updated.  Contexts refer down the tree only — no reference cycle: a
    finished run's towers are freed by reference count.
    """

    __slots__ = (
        "node_id", "n", "f", "beat", "phase", "path", "rng", "env", "instances",
        "_outbox", "_delivered", "_component", "_children", "_sent", "_updated",
        "__weakref__",
    )

    def __init__(
        self, node_id: int, n: int, f: int, path: str, rng: random.Random,
        env: "Environment", component: "Component",
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.f = f
        self.beat = 0
        self.phase = UPDATE
        self.path = path
        self.rng = rng
        self.env = env
        #: Instance contexts built on this one as their sink, by tag
        #: (:meth:`repro.coin.interfaces.InstanceContext.bound`).
        self.instances: dict = {}
        self._outbox: "Outbox | None" = None
        self._delivered: dict[str, list["Envelope"]] | None = None
        self._component = component
        self._children: dict[str, BeatContext] = {}
        #: The epochs this component last sent and last updated in.
        self._sent = self._updated = -1

    # -- messaging -----------------------------------------------------

    @property
    def node_ids(self) -> range:
        """Ids of all nodes in the system (honest and faulty alike)."""
        return range(self.n)

    def broadcast(self, payload: Hashable) -> None:
        """Send ``payload`` to every node, addressed to this component."""
        if self.phase != SEND:
            raise ProtocolViolationError("broadcast is only legal in the send phase")
        assert self._outbox is not None
        self._outbox.broadcast(self.node_ids, self.path, payload)

    def send(self, receiver: int, payload: Hashable) -> None:
        """Send ``payload`` to one node, addressed to this component."""
        if self.phase != SEND:
            raise ProtocolViolationError("send is only legal in the send phase")
        assert self._outbox is not None
        self._outbox.send(receiver, self.path, payload)

    @property
    def inbox(self) -> list["Envelope"]:
        """Messages delivered to this component during this beat.

        Only meaningful in the update phase; the send phase sees an empty
        inbox because same-beat messages have not been delivered yet.
        The list may be the very object other receivers are handed
        (:class:`~repro.net.message.Inbox`): it is never written.
        """
        if self.phase != UPDATE or self._delivered is None:
            return []
        return self._delivered.get(self.path, [])

    # -- child execution ------------------------------------------------

    def run_child(self, name: str) -> None:
        """Execute the named child component's current phase.

        In the send phase this *activates* the child for the beat; the
        parent must run exactly the same children during the update phase
        (conditional sub-protocols such as ss-Byz-4-Clock's ``A2`` record
        their activation decision at send time and replay it at update
        time).
        """
        child = self._children.get(name)
        if child is None:
            child = self._bind_child(name)
        phase = child.phase = self.phase
        child.beat = self.beat
        child._outbox = self._outbox
        child._delivered = self._delivered
        epoch = self._sent
        if phase == SEND:
            child._sent = epoch
            child._component.on_send(child)
            return
        if child._sent != epoch:
            raise ProtocolViolationError(
                f"child {name!r} of {self.path!r} was updated without "
                "being activated in the send phase"
            )
        child._updated = epoch
        child._component.on_update(child)
        if child._children:  # a leaf activated nobody
            child._check_updated()

    def _bind_child(self, name: str) -> "BeatContext":
        component = self._component._children.get(name)
        if component is None:
            raise ProtocolViolationError(
                f"component {self.path!r} has no child named {name!r}"
            )
        child = self._children[name] = BeatContext(
            self.node_id, self.n, self.f, f"{self.path}/{name}", self.rng,
            self.env, component,
        )
        return child

    def _check_updated(self) -> None:
        """As this component's update returns: every child it activated in
        this epoch's send phase was driven through the update phase too."""
        epoch = self._sent
        missing = [
            name for name, child in self._children.items()
            if child._sent == epoch and child._updated != epoch
        ]
        if missing:
            raise ProtocolViolationError(
                f"children {sorted(missing)!r} were activated in the send "
                "phase but not driven through the update phase"
            )


class Component:
    """Base class for all protocol layers.

    Subclasses register children in ``__init__`` with :meth:`add_child`,
    implement :meth:`on_send` / :meth:`on_update`, and implement
    :meth:`scramble` to redraw their own state from its domain.
    """

    def __init__(self) -> None:
        self._children: dict[str, Component] = {}

    def add_child(self, name: str, child: "Component") -> "Component":
        """Register and return a child component under ``name``."""
        if name in self._children:
            raise ProtocolViolationError(f"duplicate child name {name!r}")
        if "/" in name:
            raise ProtocolViolationError(f"child name {name!r} may not contain '/'")
        self._children[name] = child
        return child

    def child(self, name: str) -> "Component":
        """Return the child registered under ``name``."""
        return self._children[name]

    @property
    def children(self) -> dict[str, "Component"]:
        """Read-only view of the registered children, in insertion order."""
        return dict(self._children)

    # -- protocol hooks ---------------------------------------------------

    def on_send(self, ctx: BeatContext) -> None:
        """Emit this beat's messages; decide which children execute."""

    def on_update(self, ctx: BeatContext) -> None:
        """Consume this beat's inbox and update state."""

    def scramble(self, rng: random.Random) -> None:
        """Redraw this component's own state uniformly from its domain."""

    # -- framework plumbing ------------------------------------------------

    def scramble_tree(self, rng: random.Random) -> None:
        """Apply a transient fault to this component and every descendant."""
        self.scramble(rng)
        for child in self._children.values():
            child.scramble_tree(rng)

    def walk(self) -> Iterator["Component"]:
        """Yield this component and every descendant, depth-first."""
        yield self
        for child in self._children.values():
            yield from child.walk()
