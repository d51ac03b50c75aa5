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
    """Per-component view of one beat at one node.

    A fresh context wraps each component invocation; the framework threads
    node identity, the component path (used for message routing), the shared
    environment, and — in the update phase — the component's inbox.
    """

    __slots__ = (
        "node_id",
        "n",
        "f",
        "beat",
        "phase",
        "path",
        "rng",
        "env",
        "_outbox",
        "_delivered",
        "_component",
    )

    def __init__(
        self,
        *,
        node_id: int,
        n: int,
        f: int,
        beat: int,
        phase: str,
        path: str,
        rng: random.Random,
        env: "Environment",
        outbox: "Outbox | None",
        delivered: dict[str, list["Envelope"]] | None,
        component: "Component",
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.f = f
        self.beat = beat
        self.phase = phase
        self.path = path
        self.rng = rng
        self.env = env
        self._outbox = outbox
        self._delivered = delivered
        self._component = component

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
        child = self._component._children.get(name)
        if child is None:
            raise ProtocolViolationError(
                f"component {self.path!r} has no child named {name!r}"
            )
        if self.phase == SEND:
            self._component._activated.add(name)
        else:
            if name not in self._component._activated:
                raise ProtocolViolationError(
                    f"child {name!r} of {self.path!r} was updated without "
                    "being activated in the send phase"
                )
            self._component._updated.add(name)
        child_ctx = BeatContext(
            node_id=self.node_id,
            n=self.n,
            f=self.f,
            beat=self.beat,
            phase=self.phase,
            path=f"{self.path}/{name}",
            rng=self.rng,
            env=self.env,
            outbox=self._outbox,
            delivered=self._delivered,
            component=child,
        )
        if self.phase == SEND:
            child.on_send(child_ctx)
        else:
            child.on_update(child_ctx)


class Component:
    """Base class for all protocol layers.

    Subclasses register children in ``__init__`` with :meth:`add_child`,
    implement :meth:`on_send` / :meth:`on_update`, and implement
    :meth:`scramble` to redraw their own state from its domain.
    """

    def __init__(self) -> None:
        self._children: dict[str, Component] = {}
        self._activated: set[str] = set()
        self._updated: set[str] = set()

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

    def begin_beat(self) -> None:
        """Reset activation tracking (called by the node, once per beat)."""
        self._activated.clear()
        self._updated.clear()
        for child in self._children.values():
            child.begin_beat()

    def finish_beat(self) -> None:
        """Verify activated children were updated (node calls per beat)."""
        missing = self._activated - self._updated
        if missing:
            raise ProtocolViolationError(
                f"children {sorted(missing)!r} were activated in the send "
                "phase but not driven through the update phase"
            )
        for name in self._activated:
            self._children[name].finish_beat()
