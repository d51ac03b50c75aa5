"""Interfaces for probabilistic coin-flipping algorithms (Definition 2.6).

A :class:`CoinAlgorithm` describes a synchronous protocol ``A`` with:

* ``rounds`` — the termination bound Δ_A (Definition 2.6 *termination*);
* ``p0`` / ``p1`` — claimed lower bounds on the probabilities of events E0
  (all non-faulty output 0) and E1 (all non-faulty output 1);
* a factory for per-node :class:`CoinInstance` state machines.

Instances are *not* network components: the ss-Byz-Coin-Flip pipeline
(Fig. 1) owns Δ_A of them concurrently and multiplexes their traffic over
its own component path, tagging payloads with the slot index — the paper's
"session numbers" (§2.1) that let concurrent invocations coexist and be
recycled without unbounded counters.  An :class:`InstanceContext` gives an
instance its per-round messaging window.

An instance context does not send: it hands what the instance emits to the
*sink* it was built on — the host's :class:`~repro.net.component.BeatContext`
or another instance context, whose node, beat and randomness it shares and
which refuses traffic outside the send phase — wrapped as ``(tag,
payload)`` when the host multiplexes (a pipeline slot, a phase-king lane).
**A broadcast is one record**: one ``broadcast`` on the sink, never ``n``
sends, so every engine sees a fan-out it can share and every receiver is
handed the same payload object — what the shared readings of
:mod:`repro.coin.gvss` key on.
"""

from __future__ import annotations

import abc
import random
import weakref
from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.environment import Environment

__all__ = ["CoinAlgorithm", "CoinInstance", "InstanceContext"]


class InstanceContext:
    """One round's view of the network for one pipelined coin instance.
    A host keeps one per session (:meth:`bound`), re-pointed every phase:
    an instance must not hold a context past the round it was given it for.
    """

    __slots__ = (
        "node_id", "n", "f", "beat", "rng", "env", "path", "inbox", "instances",
        "_sink", "_tag", "__weakref__",
    )

    def __init__(
        self,
        sink: Any,
        *,
        path: str,
        inbox: list[tuple[int, Any]],
        tag: Hashable = None,
    ) -> None:
        self.node_id: int = sink.node_id
        self.n: int = sink.n
        self.f: int = sink.f
        self.beat: int = sink.beat
        self.rng: random.Random = sink.rng
        self.env: "Environment" = sink.env
        #: Routing path of this slot; identical at every node, so it doubles
        #: as the shared key for oracle-coin outcome resolution.
        self.path = path
        #: ``(sender, payload)`` pairs delivered to this slot this beat.
        self.inbox = inbox
        #: Instance contexts built on this one as their sink, by tag.
        self.instances: dict = {}
        self._sink = sink
        #: Session tag wrapped around every payload; ``None`` for a host
        #: that runs one instance on its path and multiplexes nothing.
        self._tag = tag

    @classmethod
    def bound(
        cls, sink: Any, inbox: list, tag: Hashable = None, suffix: str = ""
    ) -> "InstanceContext":
        """The context of session ``tag`` on ``sink``, pointed at the
        sink's beat and at ``inbox``: built the first time the session runs
        (path: the sink's plus ``suffix.format(tag)``), kept in
        ``sink.instances`` — on the node's context tree, never on the host
        component — and tied to its sink weakly, so they form no cycle."""
        ctx = sink.instances.get(tag)
        if ctx is None:
            ctx = sink.instances[tag] = cls(
                weakref.proxy(sink), path=sink.path + suffix.format(tag),
                inbox=inbox, tag=tag,
            )
        else:
            ctx.beat, ctx.inbox = sink.beat, inbox
        return ctx

    def send(self, receiver: int, payload: Hashable) -> None:
        """Send a private point-to-point message within this instance."""
        self._sink.send(
            receiver, payload if self._tag is None else (self._tag, payload)
        )

    def broadcast(self, payload: Hashable) -> None:
        """Send ``payload`` to every node within this instance: one
        fan-out record, the same object in every inbox."""
        self._sink.broadcast(payload if self._tag is None else (self._tag, payload))

    def first_per_sender(self) -> dict[int, Any]:
        """Inbox collapsed to one payload per sender (first wins).

        Byzantine nodes may send several conflicting messages to the same
        slot; honest protocols must pick deterministically, and "first
        after sender-sorted delivery" is the convention used throughout.
        """
        collapsed: dict[int, Any] = {}
        for sender, payload in self.inbox:
            if sender not in collapsed:
                collapsed[sender] = payload
        return collapsed


class CoinAlgorithm(abc.ABC):
    """A probabilistic coin-flipping algorithm (Definition 2.6)."""

    #: Human-readable name used in traces and experiment reports.
    name: str = "coin"
    #: Termination bound Δ_A: rounds of send-and-receive per instance.
    rounds: int = 1
    #: Claimed lower bound for P(all non-faulty output 0).
    p0: float = 0.0
    #: Claimed lower bound for P(all non-faulty output 1).
    p1: float = 0.0

    @abc.abstractmethod
    def new_instance(self) -> "CoinInstance":
        """Create fresh per-node state for one invocation of ``A``."""


class CoinInstance(abc.ABC):
    """Per-node state of one invocation of a coin-flipping algorithm.

    The pipeline drives each instance through rounds ``1 .. rounds``; after
    ``update_round(rounds, ...)`` the instance must report a binary output.
    """

    @abc.abstractmethod
    def send_round(self, round_index: int, ctx: InstanceContext) -> None:
        """Emit round ``round_index``'s messages."""

    @abc.abstractmethod
    def update_round(self, round_index: int, ctx: InstanceContext) -> None:
        """Consume round ``round_index``'s inbox."""

    @abc.abstractmethod
    def output(self) -> int:
        """The instance's binary output (valid after the final round)."""

    @abc.abstractmethod
    def scramble(self, rng: random.Random) -> None:
        """Transient fault: redraw all state within its domains."""
