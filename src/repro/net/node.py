"""A correct node: identity plus a protocol component tree.

Faulty nodes have no :class:`Node` object — the adversary speaks for them
directly at the network layer, which is strictly more general than running
corrupted node code.
"""

from __future__ import annotations

import random

from repro.net.component import SEND, UPDATE, BeatContext, Component
from repro.net.environment import Environment
from repro.net.message import Envelope, Outbox

__all__ = ["Node"]


class Node:
    """One correct node executing a component tree in lock-step."""

    def __init__(
        self,
        node_id: int,
        n: int,
        f: int,
        root: Component,
        rng: random.Random,
        env: Environment,
        root_path: str = "root",
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.f = f
        self.root = root
        self.rng = rng
        self.env = env
        self.root_path = root_path
        #: Root of this node's context tree (the rest grows as children
        #: first run).  Its sent-stamp is the node's *epoch* — the send
        #: phases driven so far; activation is stamped with that, not with
        #: the beat number, which a host may repeat.
        self._root_context = BeatContext(node_id, n, f, root_path, rng, env, root)
        self._root_context._sent = 0

    def send_phase(self, beat: int, outbox=None):
        """Run the send phase of one beat; return the drained outbox.

        ``outbox`` is any object with the :class:`~repro.net.message.Outbox`
        interface (``send`` / ``broadcast`` / ``drain``); engines supply
        their own collectors (e.g. fan-out recording), the default is the
        envelope-per-receiver :class:`Outbox`.  The return value is whatever
        ``outbox.drain()`` yields.
        """
        if outbox is None:
            outbox = Outbox(self.node_id, beat)
        ctx = self._root_context
        ctx._sent += 1
        ctx.beat, ctx.phase, ctx._outbox, ctx._delivered = beat, SEND, outbox, None
        self.root.on_send(ctx)
        return outbox.drain()

    def update_phase(
        self, beat: int, delivered: dict[str, list[Envelope]]
    ) -> None:
        """Run the update phase of one beat with this node's inboxes
        (possibly shared with other nodes, never written)."""
        ctx = self._root_context
        ctx.beat, ctx.phase, ctx._outbox, ctx._delivered = beat, UPDATE, None, delivered
        self.root.on_update(ctx)
        ctx._check_updated()

    def scramble(self, rng: random.Random) -> None:
        """Apply a transient fault: redraw the whole tree's state."""
        self.root.scramble_tree(rng)
